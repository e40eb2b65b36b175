"""The program names the benchmark in perfbench/ reads or patches.

`python3 perfbench/run.py --trace 1` wraps module attributes by name, and
every run records `widths.thread_count()`.  A rename that breaks either
fails here, in the test suite, and not only when the benchmark runs.
"""

from pathlib import Path

import numpy as np
import pytest

from psdbounds import hypercube, linalg, widths

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_installs_and_restores_every_name(tracing):
    watched = [
        (np.linalg, "eigvalsh"),
        (np, "einsum"),
        (widths, "gaussian_sym"),
        (widths, "ThreadPoolExecutor"),
        (hypercube, "gaussian_sym"),
        (hypercube, "project_traceless"),
        (linalg, "substream"),
        (linalg.SymmetricMatrix, "to_dense"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    tracing.install(tracing.Tracer()).remove()
    assert all(getattr(owner, attr) is old for (owner, attr), old in zip(watched, before))


def test_tracer_counts_every_trial_substream(tracing):
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        widths.width_base_psd(4, 70, seed=1)
        hypercube.variance_identity_check(hypercube.HypercubeFunction(3, np.arange(8.0)), 5, 2)
    finally:
        handle.remove()
    metrics = tracer.collect()
    assert metrics["rng.substream.calls"] == 75
    assert metrics["lapack.eigvalsh.matrices"] == 70


def test_thread_count_is_readable():
    assert widths.thread_count() >= 1
