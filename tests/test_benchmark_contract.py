"""The program names the benchmark in perfbench/ reads or patches.

`python3 perfbench/run.py --trace 1` wraps module attributes by name, and
every run records `widths.thread_count()`.  A rename that breaks either
fails here, in the test suite, and not only when the benchmark runs.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from psdbounds import cli, cones, hypercube, linalg, widths

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


def test_tracer_counts_sparse_search_eigensolves(tracing, monkeypatch):
    # every gathered subset must reach the traced eigvalsh; a refactor that
    # binds eigvalsh locally would hide this work from the benchmark
    gathered = []
    gather = widths.principal_submatrices
    monkeypatch.setattr(
        widths, "principal_submatrices", lambda d, idx: gathered.append(len(idx)) or gather(d, idx)
    )
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        G = linalg.sample_standard_gaussian_sym(10, 3)
        widths.k_sparse_largest_eigenvalue(G, 3, mode="greedy")
        assert not cones.sparse_kpsd_member(cones.witness_matrix(10, 3), 4, 1e-9)
    finally:
        handle.remove()
    metrics = tracer.collect()
    # every solved block, the 21 ascent starts included, passes through the gather
    assert metrics["widths.k_sparse.greedy.eig_subsets"] == sum(gathered)
    assert metrics["cones.member.eig_subsets"] == 64


def test_tracer_counts_only_the_exhaustive_blocks_that_reach_eigvalsh(tracing, monkeypatch):
    # the bound-ordered search gathers every block but solves few; the traced
    # count must be the solved ones, seen through the module attribute
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *rest: solved.append(math.prod(np.shape(a)[:-2])) or eigvalsh(a, *rest)
    )
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        widths.k_sparse_largest_eigenvalue(linalg.sample_standard_gaussian_sym(14, 5), 5)
    finally:
        handle.remove()
    counted = tracer.collect()["widths.k_sparse.exhaustive.eig_subsets"]
    assert 0 < counted == sum(solved) < math.comb(14, 5)


def test_tracer_sees_one_stream_and_one_contraction_per_general_dual_trial(tracing, monkeypatch):
    # the trace evidence of the per-trial path: one re-keyed substream and
    # one einsum per trial, every compressed matrix solved exactly once
    monkeypatch.setenv("PSDB_THREADS", "1")
    family = cones.coordinate_family(7, 3)
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        widths.width_general_dual(family, 70, seed=4)
    finally:
        handle.remove()
    metrics = tracer.collect()
    assert metrics["rng.substream.calls"] == 70
    assert metrics["lapack.einsum.calls"] == 70
    assert metrics["lapack.eigvalsh.matrices"] == 70 * len(family)
    assert metrics["lapack.eigvalsh.calls"] == 2  # one per 64-trial chunk


@pytest.mark.parametrize("lemma", ["harmonic", "hypercontractivity"])
def test_tracer_counts_every_verify_trial_substream(tracing, lemma, capsys):
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert cli.main(["hypercube", "verify", "--lemma", lemma, "--n", "4", "--trials", "23"]) == 0
    finally:
        handle.remove()
    capsys.readouterr()
    assert tracer.collect()["rng.substream.calls"] == 23
