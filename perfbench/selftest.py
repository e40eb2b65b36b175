"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark contract, that every run
emits exactly the metrics BENCHMARK.json names with their units, that the
tiny runs at the default seed match the reference digests, that a one-ulp
change to one estimator's output is reported as a failed job, and that the
benchmark refuses to run without the program's sources.  Exits 1 on any
failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402
from psdbounds import widths  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_contract(bench: dict) -> None:
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    expect(1 <= len(bench["paths"]) <= 16
           and all(PATH.fullmatch(p) and ".." not in p.split("/") and not p.startswith("/")
                   for p in bench["paths"]), "paths are relative and well formed")
    expect(len(bench["command"]) <= 32 and all(len(c) <= 200 for c in bench["command"])
           and not any(c.startswith("/") or ".." in c.split("/") for c in bench["command"]),
           "command is short and stays inside the repository")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    expect(2 <= len(bench["workloads"]) <= 8
           and all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in bench["workloads"]), "2 to 8 workloads, each a name and a one-line why")
    expect(1 <= len(bench["end_to_end"]) <= 16
           and all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
                   for m in bench["end_to_end"]), "end_to_end metrics carry a bound of at most 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s is present, in s, lower is better, with the largest bound")
    expect(1 <= len(bench["per_layer"]) <= 128
           and all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"]),
           "per_layer metrics have exactly name, unit and better")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in metrics]
    expect(all(NAME.fullmatch(n) and re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
           and len(set(names)) == len(names), "every name is well formed and used once")
    expect(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
           "every unit is well formed and every better is lower or higher")
    expect(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(child.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_emitted(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = run_tiny(workload, trace)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            expect(out.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: tiny run is correct")
            expect("checked against the reference digests" in out.stdout,
                   f"{workload} trace={trace}: outputs were checked against the reference")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(got == {m["name"]: m["unit"] for m in listed},
                   f"{workload} trace={trace}: emits every listed metric with its unit, and no other")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result.get("metrics", {}).values()),
                   f"{workload} trace={trace}: every value is a finite number")


def check_one_ulp() -> None:
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    original = widths.width_base_psd

    def nudged(n, *args, **kwargs):
        est = original(n, *args, **kwargs)
        if n != 8:
            return est
        return dataclasses.replace(est, mean=float(np.nextafter(est.mean, np.inf)))

    def failed_jobs() -> list[str]:
        jobs = workloads.build_widths_mc(child.DEFAULT_SEED, "tiny", workdir)
        runner = child.Runner(jobs, child.load_reference("widths-mc", "tiny", child.DEFAULT_SEED))
        runner.run_pass(0)
        return [f["job"] for f in runner.failures]

    try:
        clean = failed_jobs()
        widths.width_base_psd = nudged
        injected = failed_jobs()
    finally:
        widths.width_base_psd = original
        shutil.rmtree(workdir, ignore_errors=True)
    expect(clean == [], "widths-mc tiny pass matches the reference without injection")
    expect(injected == ["base_psd_n8"], "a one-ulp change to width_base_psd(8)'s mean fails that job")


def check_refuses_without_sources() -> None:
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_tiny("widths-mc", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without the program's sources the benchmark exits non-zero and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(bench)
    check_one_ulp()
    check_refuses_without_sources()
    check_emitted(bench)
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
