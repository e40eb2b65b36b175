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
        (widths, "k_sparse_largest_eigenvalue"),
        (widths, "substream"),
        (cones, "substream"),
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
    gather = cones.principal_submatrices
    monkeypatch.setattr(
        cones, "principal_submatrices", lambda d, idx: gathered.append(len(idx)) or gather(d, idx)
    )
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        G = linalg.sample_standard_gaussian_sym(10, 3)
        widths.k_sparse_largest_eigenvalue(G, 3, mode="greedy")
        greedy = sum(gathered)
        assert not cones.sparse_kpsd_member(cones.witness_matrix(10, 3), 4, 1e-9)
    finally:
        handle.remove()
    metrics = tracer.collect()
    # every solved block, the 21 ascent starts included, passes through the
    # gather; the member call's gathers follow the greedy call's
    assert metrics["widths.k_sparse.greedy.eig_subsets"] == greedy
    assert metrics["cones.member.eig_subsets"] == sum(gathered) - greedy == 64


def test_tracer_counts_only_the_exhaustive_blocks_that_reach_eigvalsh(tracing, monkeypatch):
    # the screened search gathers every block but solves few; the traced
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


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_tracer_sees_every_sparse_dual_trial_as_a_k_sparse_call(tracing, mode):
    # each trial goes through the public k_sparse_largest_eigenvalue, so the
    # k-sparse spans hold every eigensolve of the estimate
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        widths.width_dual_base_sparse(8, 3, 70, seed=2, mode=mode)
    finally:
        handle.remove()
    metrics = tracer.collect()
    assert metrics[f"widths.k_sparse.{mode}.calls"] == 70
    assert metrics[f"widths.k_sparse.{mode}.eig_subsets"] == metrics["lapack.eigvalsh.matrices"] > 0


def test_tracer_sees_one_stream_and_one_contraction_per_general_dual_trial(tracing, monkeypatch):
    # the trace evidence of the screened path: one re-keyed substream per
    # trial, no einsum, and eigvalsh sees each trial's seed block plus the
    # blocks the screen rejects, counted here at the screen itself
    monkeypatch.setattr(widths, "thread_count", lambda: 1)
    cleared = []
    screen = cones.screen_clears_blocks
    monkeypatch.setattr(
        cones, "screen_clears_blocks", lambda blocks, c: cleared.append(screen(blocks, c)) or cleared[-1]
    )
    family = cones.coordinate_family(7, 3)
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        widths.width_general_dual(family, 70, seed=4)
    finally:
        handle.remove()
    metrics = tracer.collect()
    # each seed block is screened at its own largest eigenvalue, so it is
    # never cleared and the screen's rejected blocks count every seed once
    solved = sum(int((~mask).sum()) for mask in cleared)
    assert metrics["rng.substream.calls"] == 70
    assert metrics["lapack.einsum.calls"] == 0
    assert metrics["lapack.eigvalsh.matrices"] == solved < 70 * len(family)
    assert metrics["lapack.eigvalsh.calls"] == 4  # seed and rejected blocks of each 64-trial chunk


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


def test_exact_counts_are_blind_to_cache_warmth(tracing):
    # the subset tables and greedy restarts are cached per process; the
    # counts the benchmark gates on must not depend on whether they are
    def traced_pass():
        tracer = tracing.Tracer()
        handle = tracing.install(tracer)
        try:
            for mode in ("exhaustive", "greedy"):
                widths.width_dual_base_sparse(9, 4, 20, seed=3, mode=mode)
            assert cones.sparse_kpsd_member(cones.witness_matrix(10, 3), 3, 1e-9)
            assert not cones.sparse_kpsd_member(cones.witness_matrix(10, 3), 4, 1e-9)
        finally:
            handle.remove()
        return tracer.collect()

    cones._subset_table.cache_clear()
    cones._greedy_restarts.cache_clear()
    cold = traced_pass()
    warm = traced_pass()
    assert cones._subset_table.cache_info().hits > 0 and cones._greedy_restarts.cache_info().hits > 0
    assert cold["lapack.eigvalsh.matrices"] > 0
    assert {name: warm[name] for name in tracing.EXACT_COUNTS} == {name: cold[name] for name in tracing.EXACT_COUNTS}
    # only the greedy restarts' one draw per shape leaves the warm pass
    assert warm["rng.substream.calls"] == cold["rng.substream.calls"] - 1
