"""Traced-memory budgets of the Monte Carlo loops.

Each loop's one per-trial array is its value array, 8 bytes a trial; the
budgets allow that array plus a fixed slack for one chunk's temporaries.  A
loop that copies its values for the moments, holds a Future a chunk, or
draws whole (trials, N) blocks goes over.  Each call runs once at a small
size first, so lazy imports and first-call setup stay out of the peak.
"""

import numpy as np

from psdbounds import cli, cones, hypercube, widths
from psdbounds.linalg import gaussian_sym_batch

from conftest import peak_traced_bytes

MiB = 1 << 20


def test_oracle_estimate_holds_one_value_array():
    ellipse = widths.ellipsoid_oracle([2.0, 1.0])
    run = lambda trials: widths.width_via_oracle(ellipse, trials, 3, keep_values=False)
    run(1000)
    assert peak_traced_bytes(lambda: run(10**6)) <= 8 * 10**6 + 2 * MiB


def test_pooled_matrix_estimate_holds_one_value_array(monkeypatch):
    monkeypatch.setattr(widths, "thread_count", lambda: 2)
    run = lambda trials: widths.width_base_psd(4, trials, 3, keep_values=False)
    run(1000)
    assert peak_traced_bytes(lambda: run(10**5)) <= 8 * 10**5 + MiB // 2


def test_greedy_sparse_dual_chunks_stay_small():
    # each lockstep chunk screens at most about cones._GREEDY_STEP_ROWS
    # candidate rows a step: about 1.0 MiB at its 4,096, 7.8 MiB at 32,768
    run = lambda trials: widths.width_dual_base_sparse(20, 4, trials, 3, "greedy", keep_values=False)
    run(2)
    assert peak_traced_bytes(lambda: run(64)) <= 2 * MiB


def test_greedy_search_on_a_long_stack_runs_in_small_groups():
    # one call runs its ascents in lockstep groups of cones.greedy_group(20, 4)
    # = 3 matrices, so the working set does not grow with the stack: about
    # 1 MiB for 640 matrices, against 204 MiB with all 640 in lockstep
    search = lambda stack: cones.k_sparse_largest_eigenvalue(stack, 4, "greedy")
    search(gaussian_sym_batch(20, 3, 0, 3))
    stack = gaussian_sym_batch(20, 3, 0, 640)
    assert peak_traced_bytes(lambda: search(stack)) <= 2 * MiB


def test_maximal_lemma_holds_one_value_array(capsys):
    run = lambda trials: cli.main(
        ["hypercube", "verify", "--lemma", "maximal", "--trials", str(trials), "--seed", "3"]
    )
    run(100)
    assert peak_traced_bytes(lambda: run(10**5)) <= 4 * MiB
    capsys.readouterr()


def test_variance_identity_holds_one_value_array():
    f = hypercube.HypercubeFunction(6, np.random.default_rng(2).standard_normal(64))
    run = lambda trials: hypercube.variance_identity_check(f, trials, 3)
    run(1000)
    assert peak_traced_bytes(lambda: run(10**5)) <= 8 * 10**5 + MiB // 2


def test_variance_identity_holds_one_sign_product_table():
    # at n = 10 the replayed matrix product needs the (2^n, n^2) table of
    # sign products, 800 KiB, and a 256-trial stack's forms, 2 MiB; a second
    # table, or one left alive beside the einsum's own, goes over
    n, trials = 10, 25_600
    f = hypercube.HypercubeFunction(n, np.random.default_rng(2).standard_normal(1 << n))
    run = lambda trials: hypercube.variance_identity_check(f, trials, 3)
    run(300)
    table, forms = 8 * (1 << n) * n * n, 8 * 256 * (1 << n)
    assert peak_traced_bytes(lambda: run(trials)) <= 8 * trials + table + forms + MiB // 2


def test_concentration_check_holds_one_value_array():
    ball = widths.l2_ball_oracle(5)
    run = lambda trials: widths.concentration_check(ball, 0.3, trials, 7)
    run(1000)
    assert peak_traced_bytes(lambda: run(10**6)) <= 8 * 10**6 + 3 * MiB
