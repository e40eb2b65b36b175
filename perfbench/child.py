"""One workload in one fresh process: set up, run passes, check every output.

Started by run.py with a clean environment; prints one JSON object as the
last line of its stdout.  The timed region of a job is its call into the
program only; digests and known answers are computed outside it.

The machine this benchmark was built on is a shared 2-vCPU VM whose speed
swings by up to 1.5x within seconds, so the same run's median pass time
moved by 10-25% from one run to the next.  A short calibration kernel, which
uses no psdbounds code, therefore runs before every job and after the last
one, and each job's time is also reported scaled to a machine on which that
kernel takes REFERENCE_CALIBRATION_S: measured time x
REFERENCE_CALIBRATION_S / median of the two calibration samples before the
job and the two after it.  Set-up is scaled the same way, by
SETUP_CALIBRATION_SAMPLES samples taken once the inputs are ready.

Usage: child.py --workload W --seed N --seconds S --trace 0|1 --size full|tiny
                --workdir DIR [--setup-only]
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before any import that belongs to set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import psdbounds  # noqa: E402
from numpy.linalg import eigvalsh  # bound before tracing patches np.linalg  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1  # the seed the reference digests were recorded with
REFERENCE_CALIBRATION_S = 0.006
SETUP_CALIBRATION_SAMPLES = 9
_CAL_RNG = np.random.default_rng(0)
_CAL_BLOCKS = _CAL_RNG.standard_normal((1500, 6, 6))
_CAL_DENSE = _CAL_RNG.standard_normal((400, 400))
_CAL_SUBSETS = _CAL_RNG.integers(0, 400, size=(3000, 6))


def job_scales(calibration: list[float]) -> list[float]:
    """Scale of job i, which ran between calibration[i] and calibration[i + 1]."""
    return [REFERENCE_CALIBRATION_S / statistics.median(calibration[max(0, i - 1):i + 3])
            for i in range(len(calibration) - 1)]


def calibration_sample() -> float:
    """Seconds one fixed kernel takes now: a Python loop, a batch of small
    eigvalsh calls and a fancy-index gather of blocks, the kinds of work
    psdbounds does most."""
    t0 = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i
    eigvalsh(_CAL_BLOCKS)
    _CAL_DENSE[_CAL_SUBSETS[:, :, None], _CAL_SUBSETS[:, None, :]].sum()
    return time.perf_counter() - t0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_count": psdbounds.widths.thread_count(),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    try:
        return json.loads(REFERENCE.read_text())[size][workload]
    except (OSError, KeyError, ValueError):
        return {}  # every job then fails for want of a reference


class Runner:
    """Runs passes over a fixed job list and keeps every failure."""

    def __init__(self, jobs: list, reference: dict | None):
        self.jobs = jobs
        self.reference = reference
        self.first: dict[str, str] = {}  # digest of each job in the first pass
        self.attempted = 0
        self.failures: list[dict] = []

    def _verify(self, job, result, state) -> str | None:
        problem = job.check(result)
        if problem:
            return problem
        got = workloads.digest(job.canon(result, state))
        seen = self.first.setdefault(job.id, got)
        if seen != got:
            return f"digest {got} differs from the first pass's {seen}"
        if self.reference is not None and self.reference.get(job.id) != got:
            return f"digest {got} differs from the reference {self.reference.get(job.id)}"
        return None

    def run_pass(self, index: int) -> tuple[dict[str, float], list[float]]:
        """Job latencies of one pass, and the calibration samples between them."""
        latencies = {}
        calibration = [calibration_sample()]
        for job in self.jobs:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                state = job.before()
                t0 = time.perf_counter()
                result = job.call()
                latencies[job.id] = time.perf_counter() - t0
                problem = self._verify(job, result, state)
            except Exception:  # a job that raises is a failed job, not a crash
                latencies[job.id] = time.perf_counter() - t0
                problem = traceback.format_exc(limit=3)
            if problem:
                self.failures.append({"pass": index, "job": job.id, "error": problem})
            calibration.append(calibration_sample())
        return latencies, calibration


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the src directory psdbounds must load from")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    loaded = Path(psdbounds.__file__).resolve().parent.parent
    if loaded != Path(args.src).resolve():
        print(f"psdbounds loaded from {loaded}, expected {args.src}", file=sys.stderr)
        return 2

    os.chdir(args.workdir)
    t0 = time.perf_counter()
    jobs = workloads.BUILDERS[args.workload](args.seed, args.size, args.workdir)
    setup = {"import_s": IMPORT_S, "inputs_s": time.perf_counter() - t0, "ready": time.monotonic()}
    setup["scale"] = REFERENCE_CALIBRATION_S / statistics.median(
        calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES))
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    runner = Runner(jobs, load_reference(args.workload, args.size, args.seed))
    tracer = tracing.Tracer()
    passes = []
    start = time.perf_counter()
    # Untraced passes only, or untraced and traced passes alternating; at
    # least one of each kind the run reports on.
    needed = 2 if args.trace else 1
    while len(passes) < needed or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        handle = tracing.install(tracer) if traced else None
        cpu0 = cpu_seconds()
        try:
            latencies, calibration = runner.run_pass(len(passes))
        finally:
            if handle:
                handle.remove()
        scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
        scaled = {k: v * s for (k, v), s in zip(latencies.items(), job_scales(calibration))}
        record = {
            "traced": traced,
            "scale": scale,
            "cpu_s": cpu_seconds() - cpu0,
            "wall_s": sum(latencies.values()),
            "ref_s": sum(scaled.values()),
            "latencies": scaled,
        }
        if traced:
            record["layers"] = {
                k: v * scale if k.endswith("_s") else v for k, v in tracer.collect().items()
            }
        passes.append(record)

    untraced = [p["latencies"] for p in passes if not p["traced"]]
    result = {
        "setup": setup,
        "env": environment(),
        "jobs": len(jobs),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "reference_checked": runner.reference is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: v for k, v in p.items() if k != "latencies"} for p in passes],
        "job_latencies": untraced,
        "workload_metrics": workloads.workload_metrics(args.workload, jobs, untraced),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
