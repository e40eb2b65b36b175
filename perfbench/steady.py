"""Steadiness check: is the benchmark steady enough to gate on?

    python3 perfbench/steady.py

For each workload, runs run.py --trace 0 for run_seconds from BENCHMARK.json
on seeds 100-109, one run at a time, and then on the same seeds again.  For
each end-to-end metric it takes, in each set, the distance between the first
and the third quartile of the ten values as a share of their median.  Every
spread must stay within the metric's bound from BENCHMARK.json (the target is
a third of it), and no metric's second median may be worse than the first by
more than its bound.  Then two traced runs on seed 100 must agree exactly on
every deterministic work count.  Exits 1 when any of this fails.

The gated times are scaled by a calibration kernel that runs in the measured
process.  A program change that slows that kernel down (a larger heap, busy
threads) would hide part of its own cost, so when a calibration scale's
median moves between the two sets by more than the bound of the metric it
scales, the comparison is flagged as unresolved.  The same holds when
comparing runs of two commits: compare the calibration scales in their
report lines first.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
FIRST_SEED = 100
# calibration scale in a run's report line -> the gated metric it scales
SCALES = {"calibration_scale": "wall_ref_s", "setup_calibration_scale": "setup_s"}
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=200, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr}")
    extra = next(json.loads(line[7:]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), extra


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    ok = True
    summary: dict = {}
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        sets = []
        for _ in range(2):
            values: dict[str, list[float]] = {name: [] for name in [*bounds, *SCALES]}
            for seed in seeds:
                result, extra = run(workload, seed, 0)
                ok &= result["correct"]
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                for name in SCALES:
                    values[name].append(extra["as_measured"][name][0])
            sets.append(values)
        rows = summary[workload] = {}
        print(f"== {workload}: {RUNS} seeds x 2 sets")
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = rows[name] = {
                "medians": [statistics.median(s[name]) for s in sets],
                "spreads": [spread(s[name]) for s in sets],
            }
            row["second_worse_by"] = worse_by(*row["medians"], metric["better"])
            fine = all(sp <= bound for sp in row["spreads"]) and row["second_worse_by"] <= bound
            ok &= fine
            steady = all(sp < bound / 3 for sp in row["spreads"])
            print(f"   {name:<14} median {row['medians'][0]:<12.6g} spread "
                  + " ".join(f"{sp:.4f}" for sp in row["spreads"])
                  + f"  second worse by {row['second_worse_by']:+.4f}"
                  + f"  bound {bound}  {'steady' if steady else 'NOT steady'}"
                  + ("" if fine else "  FAIL"))
        for name, scaled in SCALES.items():
            medians = [statistics.median(s[name]) for s in sets]
            shift = medians[1] / medians[0] - 1.0
            rows[name] = {"medians": medians, "shift": shift,
                          "unresolved": abs(shift) > bounds[scaled]}
            print(f"   {name:<24} median {medians[0]:.4f} -> {medians[1]:.4f} ({shift:+.4f})"
                  + (f"  UNRESOLVED: {scaled} compared across a calibration shift"
                     if rows[name]["unresolved"] else ""))

        first, extra_a = run(workload, FIRST_SEED, 1)
        second, extra_b = run(workload, FIRST_SEED, 1)
        mismatched = [
            name for name in tracing.EXACT_COUNTS
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        repeat = extra_a["counts_repeat"] and extra_b["counts_repeat"] and not mismatched
        ok &= repeat and first["correct"] and second["correct"]
        rows["exact_counts_repeat"] = repeat
        print(f"   exact work counts repeat across two traced runs: {repeat}"
              + (f" (differ: {', '.join(mismatched)})" if mismatched else ""))
    print(json.dumps({"ok": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
