"""psdbounds benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload widths-mc --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from anywhere; the program is loaded from ../src next to this directory.
Each workload runs in a fresh interpreter, one process at a time, with
PSDB_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS removed so that every
run uses the program's defaults.  Set-up (fresh interpreter to inputs ready)
is timed in several extra processes that stop once their inputs are ready,
and scaled to reference machine speed like the pass times.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports the per-layer metrics, from traced passes that alternate with
untraced ones in the same process.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  The exit code is
0 when every job's output was correct, 1 when some job failed, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (numpy only; psdbounds is imported by the children)

SRC = ROOT / "src"
WORKLOADS = ("widths-mc", "sparse-search", "lemma-cli")
THREAD_VARS = ("PSDB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 15  # set-up is timed in this many fresh interpreters per run
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".flops_est"):
        return "flop"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def layer_names() -> list[str]:
    names = [f"{n}.{stat}" for n in tracing.SPAN_NAMES for stat in ("calls", "self_s")]
    names += list(tracing.COUNTER_NAMES)
    names += ["cones.member.screen_miss_ratio", "widths.threads",
              "setup.import_s", "setup.inputs_s", "trace.overhead_frac"]
    return names


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], workdir: str, deadline: float) -> tuple[float, dict]:
    """Run child.py to completion; returns its start time and its JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--workdir", workdir, "--src", str(SRC)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{' '.join(args)}: no result before the deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(args)}: exited with code {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    workdirs = []
    try:
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            workdirs.append(tempfile.mkdtemp(dir=tmp_root))
            mode = ["--seconds", str(seconds), "--trace", str(trace)] if last else \
                ["--seconds", "0", "--setup-only"]
            started, out = spawn([*common, *mode], workdirs[-1], deadline)
            setups.append((out["setup"]["ready"] - started, out["setup"]))
        result = out
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    result["setup_samples"] = [{"wall_s": s, "scale": info["scale"]} for s, info in setups]
    result["setup_s"] = statistics.median(s * info["scale"] for s, info in setups)
    result["setup_wall_s"] = statistics.median(s for s, _ in setups)
    result["setup_calibration_scale"] = statistics.median(info["scale"] for _, info in setups)
    result["import_s"] = statistics.median(info["import_s"] * info["scale"] for _, info in setups)
    result["inputs_s"] = statistics.median(info["inputs_s"] * info["scale"] for _, info in setups)
    result["env"]["git_commit"] = git_commit()
    result["env"]["removed_env"] = list(THREAD_VARS)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    return {
        "wall_ref_s": statistics.median(p["ref_s"] for p in untraced),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def as_measured(result: dict) -> dict[str, tuple[float, str]]:
    """Unscaled times and the calibration scales, reported but not gated:
    the times follow the machine."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
        "calibration_scale": (statistics.median(p["scale"] for p in untraced), "ratio"),
        "setup_wall_s": (result["setup_wall_s"], "s"),
        "setup_calibration_scale": (result["setup_calibration_scale"], "ratio"),
    }


def per_layer(result: dict) -> dict[str, float]:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["widths.threads"] = float(result["env"]["thread_count"])
    out["setup.import_s"] = result["import_s"]
    out["setup.inputs_s"] = result["inputs_s"]
    out["trace.overhead_frac"] = (
        statistics.median(p["ref_s"] for p in traced)
        / statistics.median(p["ref_s"] for p in untraced) - 1.0
    )
    return out


def counts_repeat(result: dict) -> bool:
    """True when every traced pass did exactly the same counted work."""
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    return all(t[name] == traced[0][name] for t in traced for name in tracing.EXACT_COUNTS)


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable report; return this workload's metrics."""
    failed = len({(f["pass"], f["job"]) for f in result["failures"]})
    attempted = result["attempted"]
    if trace:
        values = per_layer(result)
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in layer_names()}
    else:
        values = end_to_end(result)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    passes = result["passes"]
    print(f"== {workload} seed={seed} trace={trace}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced) of {result['jobs']} jobs, "
          f"{attempted} attempted, {failed} failed"
          + (", outputs checked against the reference digests" if result["reference_checked"] else ""))
    for failure in result["failures"][:10]:
        print(f"   FAILED pass {failure['pass']} {failure['job']}: {failure['error'].strip()}",
              file=sys.stderr)
    print(f"   {'failed_frac':<44} {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"   {name:<44} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, (value, unit) in {**as_measured(result), **result["workload_metrics"]}.items():
            print(f"   {name:<44} {value:.6g} {unit}")
    extra = {
        "env": result["env"],
        "setup_samples": result["setup_samples"],
        "workload_metrics": result["workload_metrics"],
        "as_measured": as_measured(result),
        "failed_frac": failed / attempted,
    }
    if trace:
        extra["counts_repeat"] = counts_repeat(result)
    print("report " + json.dumps(extra))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "psdbounds" / "__init__.py").is_file():
        print(f"run.py: no psdbounds sources under {SRC}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    summaries = {}
    try:
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.size, deadline)
            summaries[workload] = report(workload, args.seed, args.trace, result)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(chosen) == 1:
        final = summaries[chosen[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{name}": m for w, s in summaries.items() for name, m in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
