import functools
import gc
import itertools
import math
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds.bounds import sparse_integral
from psdbounds.cones import ConeFamily, SubspaceBasis, coordinate_family, g_abn
from psdbounds.errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidDimensionError,
    NumericalFailureError,
    OracleFailureError,
)
from psdbounds.linalg import SymmetricMatrix, gaussian_sym_batch, sample_standard_gaussian_sym
from psdbounds.widths import (
    SupportOracle,
    concentration_check,
    ellipsoid_oracle,
    k_sparse_largest_eigenvalue,
    kappa,
    l1_ball_oracle,
    l2_ball_oracle,
    shifted_oracle,
    width_base_psd,
    width_dual_base_sparse,
    width_general_dual,
    width_via_oracle,
)

from psdbounds import cones, widths
from psdbounds._rng import substream

from _oracles import (
    _simpson_adaptive,
    brute_max_ksparse_lambda1,
    ellipse_width,
    expected_max_abs_normals,
    expected_max_of_normals,
    nan_identity,
    normal_cdf,
    reference_general_dual,
    reference_greedy_k_sparse,
    reference_largest_block_eigenvalue,
    reference_max_lambda1_subsets,
    reference_swap_ascent,
    reference_swap_path,
    reference_swap_ritz_values,
)


def random_family(n, k, count, rng):
    bases = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        bases.append(SubspaceBasis(n, k, q[:, :k]))
    return ConeFamily(n, tuple(bases))


class TestWidthBasePsd:
    def test_scalar_case_centers_on_zero(self):
        est = width_base_psd(1, 1000, seed=7)
        assert abs(est.mean) <= 3 * est.std_error

    def test_monotone_in_dimension(self):
        lo = width_base_psd(20, 2000, seed=5)
        hi = width_base_psd(80, 2000, seed=6)
        gap = hi.mean - lo.mean
        assert gap > 5 * math.hypot(lo.std_error, hi.std_error)

    def test_deterministic_and_order_independent(self, monkeypatch):
        a = width_base_psd(6, 100, seed=3)
        monkeypatch.setattr(widths, "thread_count", lambda: 4)
        b = width_base_psd(6, 100, seed=3)
        monkeypatch.setattr(widths, "thread_count", lambda: 1)
        c = width_base_psd(6, 100, seed=3)
        assert np.array_equal(a.per_trial_values, b.per_trial_values)
        assert np.array_equal(a.per_trial_values, c.per_trial_values)

    def test_std_error_definition(self):
        est = width_base_psd(4, 50, seed=1)
        expected = est.per_trial_values.std(ddof=1) / math.sqrt(50)
        assert est.std_error == expected

    def test_requires_two_trials(self):
        with pytest.raises(InvalidArgumentError):
            width_base_psd(4, 1, seed=0)


class TestKSparseLargestEigenvalue:
    def test_full_support_is_top_eigenvalue(self):
        G = sample_standard_gaussian_sym(7, 21)
        from psdbounds.linalg import eigenvalues_descending

        assert k_sparse_largest_eigenvalue(G, 7) == eigenvalues_descending(G)[0]

    def test_singletons_take_max_diagonal(self):
        G = sample_standard_gaussian_sym(7, 22)
        assert k_sparse_largest_eigenvalue(G, 1) == max(
            G.to_dense()[i, i] for i in range(7)
        )

    def test_exhaustive_matches_bruteforce(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, n))
            G = sample_standard_gaussian_sym(n, int(rng.integers(0, 2**32)))
            got = k_sparse_largest_eigenvalue(G, k)
            want = brute_max_ksparse_lambda1(G.to_dense(), k)
            assert abs(got - want) < 1e-12

    def test_greedy_lower_bounds_exhaustive(self):
        hits = 0
        for seed in range(20):
            G = sample_standard_gaussian_sym(10, seed)
            greedy = k_sparse_largest_eigenvalue(G, 3, mode="greedy")
            exact = k_sparse_largest_eigenvalue(G, 3, mode="exhaustive")
            assert greedy <= exact + 1e-9
            hits += abs(greedy - exact) <= 1e-9
        assert hits >= 18  # frozen full run gives 100/100; see acceptance suite

    def test_greedy_deterministic(self):
        G = sample_standard_gaussian_sym(9, 77)
        a = k_sparse_largest_eigenvalue(G, 4, mode="greedy")
        b = k_sparse_largest_eigenvalue(G, 4, mode="greedy")
        assert a == b

    def test_cap_and_mode_validation(self, monkeypatch):
        G = sample_standard_gaussian_sym(12, 0)
        monkeypatch.setattr(cones, "DEFAULT_ENUMERATION_CAP", 10)
        with pytest.raises(EnumerationLimitError) as raised:
            k_sparse_largest_eigenvalue(G, 6)
        assert str(raised.value) == "C(12,6) = 924 subsets exceed the cap 10; use greedy mode"
        assert k_sparse_largest_eigenvalue(G, 6, mode="greedy") <= np.linalg.eigvalsh(G.to_dense())[-1]
        with pytest.raises(InvalidArgumentError):
            k_sparse_largest_eigenvalue(G, 6, mode="annealing")

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(InvalidArgumentError, match="k must be an integer"):
            k_sparse_largest_eigenvalue(sample_standard_gaussian_sym(5, 0), k)
        with pytest.raises(InvalidArgumentError, match="k must be an integer"):
            width_dual_base_sparse(5, k, 10, seed=1)

    @pytest.mark.parametrize("k", [1, 5])
    def test_unknown_mode_raises_at_the_shortcut_sizes(self, k):
        # k = 1 and k = n need no search, but the mode is still checked
        with pytest.raises(InvalidArgumentError, match="unknown mode 'bogus'"):
            k_sparse_largest_eigenvalue(sample_standard_gaussian_sym(5, 0), k, mode="bogus")
        with mock.patch.object(widths, "gaussian_sym_batch", side_effect=AssertionError("drew a trial")):
            with pytest.raises(InvalidArgumentError, match="unknown mode 'bogus'"):
                width_dual_base_sparse(5, k, 10, seed=1, mode="bogus")


    def test_the_searches_live_in_cones(self):
        # widths keeps the one search name it calls per trial, which the
        # benchmark's tracer wraps there, and none of the screen or gather
        assert widths.k_sparse_largest_eigenvalue is cones.k_sparse_largest_eigenvalue
        for name in ("screen_clears", "screen_clears_blocks", "subset_chunks",
                     "principal_submatrices", "unscreened"):
            assert not hasattr(widths, name), name
        assert not hasattr(cones, "unscreened")


def tie_heavy_or_gaussian(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        g = rng.integers(-2, 3, (n, n)).astype(float)
        return np.triu(g) + np.triu(g, 1).T
    if kind == "signed graph":  # sparse, zero diagonal: many equal swap values
        g = rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.4)
        g = np.triu(g, 1).astype(float)
        return g + g.T
    if kind == "blocks":
        labels = rng.integers(0, 3, n)
        levels = rng.integers(-2, 3, (3, 3)).astype(float)
        return levels[np.minimum.outer(labels, labels), np.maximum.outer(labels, labels)]
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def greedy(dense, k):
    return k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), k, "greedy")


def swap_ascents(dense, starts):
    """cones._swap_ascents on a stack of one matrix, as a list."""
    return cones._swap_ascents(dense[None], np.array(starts)[None])[0].tolist()


class TestGreedyAgainstReference:
    """The lockstep swap ascent returns the bits of the one-list-per-
    candidate search it replaced, ties included."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        kind=st.sampled_from(["gaussian", "integer", "signed graph", "blocks"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(3, 2), kind="blocks", seed=0)
    @example(shape=(24, 12), kind="integer", seed=1)
    @example(shape=(24, 23), kind="gaussian", seed=2)
    # the first-argmax tie-break changes the last bit of these two
    @example(shape=(12, 4), kind="signed graph", seed=679)
    @example(shape=(14, 5), kind="signed graph", seed=203)
    def test_bits_equal_reference(self, shape, kind, seed):
        n, k = shape
        dense = tie_heavy_or_gaussian(kind, n, seed)
        got = greedy(dense, k)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(reference_greedy_k_sparse(dense, k)).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        kind=st.sampled_from(["gaussian", "integer", "signed graph", "blocks"]),
        scale=st.one_of(
            st.integers(-300, 300).map(lambda e: 10.0**e), st.sampled_from([1e-310, 1e-320])
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(12, 4), kind="gaussian", scale=1e300, seed=0)
    @example(shape=(12, 4), kind="gaussian", scale=1e-300, seed=0)
    @example(shape=(9, 3), kind="gaussian", scale=1e-310, seed=1)  # subnormal entries
    @example(shape=(9, 3), kind="integer", scale=1e-320, seed=2)
    @example(shape=(14, 5), kind="signed graph", scale=1e-150, seed=203)
    def test_bits_equal_reference_at_any_scale(self, shape, kind, scale, seed):
        # the screen's threshold best + 1e-12 is far below an ulp of the
        # values at 1e300, and far above them at 1e-300; the suite turns
        # every RuntimeWarning into an error
        n, k = shape
        dense = tie_heavy_or_gaussian(kind, n, seed) * scale
        got = greedy(dense, k)
        assert bits(got) == bits(reference_greedy_k_sparse(dense, k))

    @pytest.mark.parametrize("kind", ["gaussian", "blocks"])
    def test_bits_equal_reference_beyond_63_dimensions(self, kind):
        dense = tie_heavy_or_gaussian(kind, 70, 3)
        got = greedy(dense, 3)
        assert np.float64(got).tobytes() == np.float64(reference_greedy_k_sparse(dense, 3)).tobytes()

    def test_lockstep_ascents_equal_one_at_a_time(self):
        dense = tie_heavy_or_gaussian("signed graph", 14, 203)
        starts = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [9, 10, 11, 12, 13], [2, 5, 7, 8, 13]])
        got = swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts.tolist()]

    def test_a_swap_gaining_exactly_the_threshold_ends_the_ascent(self):
        # from {0, 1} (value 0) the best swap brings in coordinate 2, worth
        # exactly 0 + 1e-12; only past it lies the block {2, 3} with value 5
        dense = np.zeros((6, 6))
        dense[2, 2] = 1e-12
        dense[2, 3] = dense[3, 2] = 5.0
        assert swap_ascents(dense, [[0, 1]]) == [0.0]
        assert reference_swap_ascent(dense, [0, 1]) == 0.0

    def test_a_swap_one_ulp_past_the_threshold_moves(self):
        # the {0, 2} block's lambda_1 is computed one ulp above 0 + 1e-12; the
        # screen's LDL alone, without its margin, would clear it by rounding
        dense = np.zeros((4, 4))
        dense[0, 2] = dense[2, 0] = 1.1879262898402614e-12
        dense[2, 2] = -4.111688700936489e-13
        [got] = swap_ascents(dense, [[0, 1]])
        assert got == reference_swap_ascent(dense, [0, 1]) == 1.0000000000000002e-12

    def test_each_ascent_screens_at_its_own_threshold(self):
        # ascent 0 sits at lambda_1 = 10; ascent 1 starts at 0, and only the
        # two swaps bringing in coordinate 2 gain, worth 1: at ascent 0's
        # threshold the screen would clear both
        dense = np.zeros((6, 6))
        dense[4, 5] = dense[5, 4] = 10.0
        dense[2, 2] = 1.0
        starts = [[4, 5], [0, 1]]
        got = swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts]
        assert got[1] == 1.0

    def test_gathers_exactly_the_swap_candidates_the_screen_rejects(self, monkeypatch):
        n, k = 12, 4
        dense = tie_heavy_or_gaussian("gaussian", n, 7)
        events = []
        gather, screen = cones.principal_submatrices, cones.screen_clears

        def screening(Y, idx, c, mats):
            assert not mats.any()  # a stack of one
            cleared = screen(Y, idx, c, mats)
            events.append(("screen", np.array(idx), np.broadcast_to(c, len(idx)).copy(), cleared.copy()))
            return cleared

        gathering = lambda d, idx, *mats: events.append(("gather", np.array(idx))) or gather(d, idx, *mats)
        monkeypatch.setattr(cones, "principal_submatrices", gathering)
        monkeypatch.setattr(cones, "screen_clears", screening)
        greedy(dense, k)
        # the first three gathers grow the start support to 2, 3 and 4
        # members, the fourth solves the distinct ascent starts; then each
        # step gathers its supports for eigh and its picks, screens every
        # swap candidate and gathers the candidates the screen did not
        # clear, but for the picks
        assert [kind for kind, *_ in events[:4]] == ["gather"] * 4
        assert [len(idx) for _, idx in events[:3]] == [11, 10, 9]
        steps = events[4:]
        assert len(steps) % 4 == 0 and len(steps) > 4
        lambda1 = lambda idx: np.linalg.eigvalsh(gather(dense, idx))[:, -1]
        below_bar = above_bar = 0
        for (g0, held), (g1, picks), (s, cands, c, cleared), (g2, rest) in zip(*[iter(steps)] * 4):
            assert (g0, g1, s, g2) == ("gather", "gather", "screen", "gather")
            count = len(picks)
            cands = cands.reshape(count, k * (n - k), k)
            rows = np.arange(count)
            # members of an ascent's support lie in (k-1)(n-k) of its swaps, others in k
            supports = np.array([np.flatnonzero(np.bincount(row.ravel(), minlength=n) > k) for row in cands])
            assert np.array_equal(held, supports)
            first = (cands == picks[:, None, :]).all(axis=2).argmax(axis=1)
            assert np.array_equal(picks, cands[rows, first])
            # each pick holds its ascent's largest Ritz value, up to rounding
            ritz = np.array([reference_swap_ritz_values(dense, support) for support in supports.tolist()])
            top = ritz.max(axis=1)
            assert (ritz[rows, first] >= top - 1e-12 * (1.0 + abs(top))).all()
            bar, pick_vals = lambda1(supports) + 1e-12, lambda1(picks)
            assert bits(c) == bits(np.maximum(bar, pick_vals).repeat(k * (n - k)))
            below_bar += int((pick_vals < bar).sum())
            above_bar += int((pick_vals > bar).sum())
            rejected = ~cleared.reshape(count, -1)
            rejected[rows, first] = False
            assert np.array_equal(rest, cands[rejected])
        assert below_bar and above_bar

    def test_ascents_that_meet_gather_one_neighbourhood_a_support(self, monkeypatch):
        n, k = 12, 4
        dense = tie_heavy_or_gaussian("gaussian", n, 0)
        path = [support for support, _ in reference_swap_path(dense, [0, 1, 2, 3])]
        assert len(path) >= 3
        # ascent 0 starts one move down the path, ascent 1 at its start and
        # reaches ascent 0's start after one move; ascent 2 starts on ascent
        # 1's support, its members in another order
        starts = [path[1], path[0], path[0][::-1]]
        screened = []
        screen = cones.screen_clears
        counting = lambda Y, idx, *rest: screened.append(len(idx)) or screen(Y, idx, *rest)
        monkeypatch.setattr(cones, "screen_clears", counting)
        got = swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts]
        assert len(set(got)) == 1
        assert screened[:2] == [2 * k * (n - k), k * (n - k)]
        assert sum(screened) == len(path) * k * (n - k)

    def test_swap_traces_past_the_largest_float_pick_without_a_warning(self):
        # diagonal entries near 1.7e308 overflow the swap picks' Ritz values,
        # but every block's lambda_1 is finite; the suite turns the overflow
        # warning into an error
        rng = np.random.default_rng(0)
        dense = np.diag(rng.uniform(0.5, 1.0, 12)) * 1.7e308
        dense += tie_heavy_or_gaussian("gaussian", 12, 0) * 1e306
        got = greedy(dense, 4)
        assert math.isfinite(got) and bits(got) == bits(reference_greedy_k_sparse(dense, 4))

    def test_readme_example_sends_fewer_than_10000_blocks_to_eigvalsh(self, monkeypatch):
        solved = []
        eigvalsh = np.linalg.eigvalsh
        counting = lambda a, *rest: solved.append(math.prod(np.shape(a)[:-2])) or eigvalsh(a, *rest)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        width_dual_base_sparse(20, 4, 20, 1, "greedy")
        assert 0 < sum(solved) < 10_000

    def test_screen_keeps_most_swap_candidates_from_the_gather(self, monkeypatch):
        # the ascent without the screen, counted by making the screen clear
        # nothing, against the screened one
        dense = sample_standard_gaussian_sym(20, 5).to_dense()
        gathered = []
        gather = cones.principal_submatrices
        counting = lambda d, idx, *mats: gathered.append(len(idx)) or gather(d, idx, *mats)
        monkeypatch.setattr(cones, "principal_submatrices", counting)
        screened_value = greedy(dense, 4)
        screened = sum(gathered)
        gathered.clear()
        monkeypatch.setattr(cones, "screen_clears", lambda *args: np.zeros(len(args[1]), dtype=bool))
        assert greedy(dense, 4) == screened_value
        assert screened < sum(gathered) / 2


def first_swap(stack, supports, *rest):
    """A cones._ritz_picks that picks swap 0 of every ascent."""
    return np.zeros(len(supports), dtype=np.intp)


class TestRitzPick:
    """Each swap step solves first the swap of largest 2-D Rayleigh-Ritz
    value; whichever swap it picks, no value or tie-break moves."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        kind=st.sampled_from(["gaussian", "integer", "signed graph", "blocks"]),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
        negative=st.booleans(),
        isolated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(9, 4), kind="gaussian", scale=1e300, negative=True, isolated=True, seed=0)
    @example(shape=(12, 5), kind="signed graph", scale=1.0, negative=False, isolated=False, seed=203)
    def test_the_pick_changes_no_bit(self, shape, kind, scale, negative, isolated, seed):
        # the Ritz pick, every pick forced to swap 0 and the reference agree.
        # negative shifts each matrix below 0, so at scales 1 and 1e300 every
        # bar is negative; isolated makes coordinate 0 an eigenvector with
        # the largest eigenvalue, so supports holding it have a unit-coordinate
        # top eigenvector and NaN Ritz values, which must raise no warning
        n, k = shape
        stack = np.array([tie_heavy_or_gaussian(kind, n, seed + t) for t in range(3)])
        if isolated:
            stack[:, 0, 1:] = stack[:, 1:, 0] = 0.0
            stack[:, 0, 0] = 4.0 * n
        if negative:
            stack -= (np.abs(stack).sum(axis=2).max(axis=1) + 1.0)[:, None, None] * np.eye(n)
        stack *= scale
        got = k_sparse_largest_eigenvalue(stack, k, "greedy")
        with mock.patch.object(cones, "_ritz_picks", first_swap):
            forced = k_sparse_largest_eigenvalue(stack, k, "greedy")
        assert bits(got) == bits(forced) == bits([reference_greedy_k_sparse(G, k) for G in stack])

    def test_a_unit_coordinate_top_eigenvector_still_picks_a_swap(self):
        # coordinate 0 is an eigenvector of eigenvalue 100: swapping it out
        # leaves no Ritz vector (1 - v_0^2 = 0), and every other swap keeps
        # the value 100, so the pick is the first swap of the second member
        n, k = 9, 4
        dense = tie_heavy_or_gaussian("gaussian", n, 4)
        dense[0, 1:] = dense[1:, 0] = 0.0
        dense[0, 0] = 100.0
        supports = np.array([[0, 2, 5, 7]])
        assert abs(np.linalg.eigh(dense[np.ix_(supports[0], supports[0])])[1][0, -1]) == 1.0
        _, outside = cones._swap_neighbourhoods(supports, n)
        assert cones._ritz_picks(dense[None], supports, outside, np.zeros(1, dtype=np.intp)).tolist() == [n - k]
        assert bits(swap_ascents(dense, supports)) == bits([reference_swap_ascent(dense, supports[0])])

    def test_an_eigh_failure_picks_swap_0(self, monkeypatch):
        dense = tie_heavy_or_gaussian("gaussian", 12, 7)
        expected = greedy(dense, 4)

        def failing(a, *rest):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        supports = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        _, outside = cones._swap_neighbourhoods(supports, 12)
        assert cones._ritz_picks(dense[None], supports, outside, np.zeros(2, dtype=np.intp)).tolist() == [0, 0]
        assert bits(greedy(dense, 4)) == bits(expected)


def exhaustive_case(kind, n, seed):
    """A test matrix for the screened exhaustive search."""
    rng = np.random.default_rng(seed)
    if kind == "g_abn":  # every k-block has the same spectrum: all blocks tie
        return g_abn(float(rng.normal()), float(rng.normal()), n).to_dense()
    if kind == "spiked":  # scalar * I plus a rank-one term of norm 1e8
        v = rng.standard_normal(n)
        return float(rng.normal()) * np.eye(n) + 1e8 * np.outer(v, v) / (v @ v)
    if kind == "near ties":  # block values a few ulps apart
        base = g_abn(1.0 + float(rng.random()), float(rng.random()), n).to_dense()
        return base + np.diag(rng.integers(-3, 4, n) * np.finfo(np.float64).eps)
    return tie_heavy_or_gaussian(kind, n, seed)


_EXHAUSTIVE_KINDS = ["gaussian", "integer", "signed graph", "blocks", "g_abn", "spiked", "near ties"]
_SCALES = [1.0, 1e-300, 1e-160, 1e150, 1e300]


def bits(value):
    return np.float64(value).tobytes()


class TestExhaustiveAgainstReference:
    """The screened search returns the bits of solving every block."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        kind=st.sampled_from(_EXHAUSTIVE_KINDS),
        scale=st.sampled_from(_SCALES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(14, 7), kind="gaussian", scale=1.0, seed=0)
    @example(shape=(14, 5), kind="near ties", scale=1.0, seed=1)
    @example(shape=(12, 6), kind="g_abn", scale=1.0, seed=2)
    @example(shape=(13, 4), kind="spiked", scale=1.0, seed=3)
    @example(shape=(3, 2), kind="blocks", scale=1e-300, seed=0)
    def test_bits_equal_reference(self, shape, kind, scale, seed):
        n, k = shape
        dense = exhaustive_case(kind, n, seed) * scale
        got = k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), k)
        assert type(got) is float
        assert bits(got) == bits(reference_max_lambda1_subsets(dense, k))
        # the search scans one slice a chunk; slices of any size give its bits
        grown = cones._grown_support(dense[None], k)[1][0]
        lambda1 = functools.partial(cones._lambda1_batch, dense)
        for first in (1, 3, 64, cones._CHUNK_ROWS):
            scanned = cones._screened_max(-dense, lambda1, cones.subset_chunks(n, k), grown, first)
            assert bits(scanned) == bits(got)

    def test_second_chunk_is_screened_at_the_first_chunks_best(self, monkeypatch):
        # C(18, 9) = 48,620 subsets in two chunks; the first chunk holds a
        # block above the grown support's, so the second chunk must be
        # screened at that block's value, not at the grown one
        n, k = 18, 9
        dense = sample_standard_gaussian_sym(n, 1).to_dense()
        grown = cones._grown_support(dense[None], k)[1][0]
        first_chunk = next(cones.subset_chunks(n, k))
        assert len(first_chunk) == cones._CHUNK_ROWS
        best_first = float(cones._lambda1_batch(dense, first_chunk).max())
        assert best_first > grown
        screened_at = []
        screen = cones.screen_clears
        monkeypatch.setattr(
            cones, "screen_clears", lambda Y, idx, c: screened_at.append(c) or screen(Y, idx, c)
        )
        got = k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), k)
        assert [bits(c) for c in screened_at] == [bits(grown), bits(best_first)]
        assert bits(got) == bits(reference_max_lambda1_subsets(dense, k))

    @pytest.mark.parametrize("scale", [1.7e308, 1e-310])
    def test_bits_equal_reference_at_the_ends_of_the_float_range(self, scale):
        g = exhaustive_case("gaussian", 9, 0)
        dense = g / np.abs(g).max() * scale
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # none escapes the bounds
            got = k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), 4)
        assert bits(got) == bits(reference_max_lambda1_subsets(dense, 4))

    def test_bits_equal_reference_with_entries_near_overflow(self):
        # the {0, 1} block holds the maximum, 1.05e308, although its row
        # sums and its Frobenius norm overflow
        dense = np.array([[-1.7e308, 1.7e308, 0.0], [1.7e308, 0.0, 0.0], [0.0, 0.0, 1e308]])
        got = k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), 2)
        assert bits(got) == bits(reference_max_lambda1_subsets(dense, 2))

    def test_solves_few_blocks_at_half_the_dimension(self, monkeypatch):
        # at k = n/2 almost no block can be ruled out by a Gershgorin or
        # trace bound; the screen at the grown support's value rules out most
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a, *rest: solved.append(math.prod(np.shape(a)[:-2])) or eigvalsh(a, *rest)
        )
        k_sparse_largest_eigenvalue(sample_standard_gaussian_sym(16, 3), 8)
        assert sum(solved) < math.comb(16, 8) / 10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        shape=st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        kind=st.sampled_from(_EXHAUSTIVE_KINDS),
        scale=st.sampled_from(_SCALES + [1e-320, 1.7e308]),
        sign=st.sampled_from([1.0, -1.0]),
        c=st.sampled_from(["own", "zero", "tol", "tol*scale", "inf", "-inf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # every block of g_abn ties with the one whose value is c
    @example(shape=(6, 4), kind="g_abn", scale=1.0, sign=-1.0, c="own", seed=0)
    @example(shape=(9, 8), kind="g_abn", scale=1e150, sign=-1.0, c="own", seed=2)
    @example(shape=(7, 5), kind="near ties", scale=1e-300, sign=-1.0, c="own", seed=3)
    @example(shape=(9, 4), kind="gaussian", scale=1.7e308, sign=-1.0, c="own", seed=0)
    @example(shape=(9, 4), kind="gaussian", scale=1e-320, sign=1.0, c="zero", seed=0)
    def test_screen_clears_only_blocks_computed_above_minus_c(self, shape, kind, scale, sign, c, seed):
        # the one screen of membership (Y = X, c = tol), refutation and the
        # exhaustive search (Y = -X, c = an attained lambda_1): every subset
        # it clears has eigvalsh's smallest eigenvalue of Y_S above -c, and
        # eigvalsh's largest of -Y_S below c
        n, k = shape
        dense = exhaustive_case(kind, max(n, 3), seed)[:n, :n]
        Y = sign * dense / (np.abs(dense).max() or 1.0) * scale  # max |Y| = scale
        idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        blocks = Y[idx[:, :, None], idx[:, None, :]]
        own = float(np.linalg.eigvalsh(-blocks[seed % len(idx)])[-1])
        c = {"own": own, "zero": 0.0, "tol": 1e-9, "tol*scale": 1e-9 * scale,
             "inf": math.inf, "-inf": -math.inf}[c]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rejected = set(map(tuple, idx[~cones.screen_clears(Y, idx, c)].tolist()))
        cleared = np.array([row not in rejected for row in map(tuple, idx.tolist())])
        assert (np.linalg.eigvalsh(blocks[cleared])[:, 0] > -c).all()
        assert (np.linalg.eigvalsh(-blocks[cleared])[:, -1] < c).all()


class TestSearchesAtNegativeBars:
    """Every k-block of a shifted negative-definite matrix has a negative
    lambda_1, so the searches screen -G at a negative value to beat.  With
    the shift far above the spread of the blocks, that value c lies close to
    -max|G|, and the block values tie to within a few ulps: the screen's
    margin must cover the rounding at scale + |c| (cones._screen_shift)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        shift=st.sampled_from([3.0, 10.0, 1e3, 1e6]),
        scale=st.sampled_from(_SCALES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(9, 3), shift=1e3, scale=1.0, seed=51)  # a block value the screen must not clear
    @example(shape=(9, 3), shift=1e3, scale=1e300, seed=51)  # a swap the screen must not clear
    def test_bits_equal_reference(self, shape, shift, scale, seed):
        n, k = shape
        dense = (exhaustive_case("near ties", n, seed) - shift * np.eye(n)) * scale
        G = SymmetricMatrix.from_dense(dense)
        assert bits(k_sparse_largest_eigenvalue(G, k)) == bits(reference_max_lambda1_subsets(dense, k))
        assert bits(k_sparse_largest_eigenvalue(G, k, "greedy")) == bits(reference_greedy_k_sparse(dense, k))
        subsets = np.array(list(itertools.combinations(range(n), k)))
        blocks = cones.principal_submatrices(dense, subsets)[None]
        assert bits(cones.largest_block_eigenvalue(blocks)[0]) == bits(reference_largest_block_eigenvalue(blocks)[0])


class TestNonFiniteInput:
    """NaN or inf entries raise instead of returning -inf, True or hanging."""

    @staticmethod
    def raised_within(seconds, call):
        """The error call raised in a daemon thread, or None; a search that
        loops on NaN fails the test instead of hanging the suite."""
        outcome = []

        def run():
            try:
                call()
            except NumericalFailureError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=seconds)
        assert not worker.is_alive(), f"no answer within {seconds} s"
        return outcome[0] if outcome else None

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_k_sparse_raises(self, mode, k):
        error = self.raised_within(
            20, lambda: k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(nan_identity()), k, mode=mode)
        )
        assert error is not None and "non-finite" in str(error)

    def test_infinite_entry_raises(self):
        with pytest.raises(NumericalFailureError):
            k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(np.diag([1.0, np.inf, 2.0])), 2)


class TestWidthDualSparse:
    def test_full_k_matches_base_psd_per_trial(self):
        # same seed, same per-trial matrices, same statistic
        base = width_base_psd(8, 60, seed=9)
        dual = width_dual_base_sparse(8, 8, 60, seed=9)
        assert np.allclose(base.per_trial_values, dual.per_trial_values, rtol=1e-12)

    def test_asymptotic_ratio_bound_with_slack(self):
        est = width_dual_base_sparse(12, 4, 1000, seed=17)
        limit = math.sqrt(sparse_integral(4 / 12)) + 0.15
        assert est.mean / math.sqrt(2 * 12) <= limit

    def test_monotone_in_k(self):
        estimates = [
            width_dual_base_sparse(12, k, 400, seed=23) for k in (1, 3, 6, 12)
        ]
        for lo, hi in zip(estimates, estimates[1:]):
            gap = hi.mean - lo.mean
            assert gap > 2 * math.hypot(lo.std_error, hi.std_error)

    def test_enumeration_cap_is_checked_before_any_draw(self, monkeypatch):
        # C(40, 20) is past the default cap; greedy mode needs no enumeration
        with mock.patch.object(widths, "gaussian_sym_batch", side_effect=AssertionError("drew a trial")):
            with pytest.raises(EnumerationLimitError, match=r"C\(40,20\) = .*; use greedy mode"):
                width_dual_base_sparse(40, 20, 10, seed=1)
        assert width_dual_base_sparse(40, 20, 2, seed=1, mode="greedy").trials == 2
        # the cap is read when the check runs
        monkeypatch.setattr(cones, "DEFAULT_ENUMERATION_CAP", 19)
        with mock.patch.object(widths, "gaussian_sym_batch", side_effect=AssertionError("drew a trial")):
            with pytest.raises(EnumerationLimitError) as raised:
                width_dual_base_sparse(6, 3, 10, seed=1)
        assert str(raised.value) == "C(6,3) = 20 subsets exceed the cap 19; use greedy mode"

    def test_trial_values_past_memory_fail_before_any_draw(self, monkeypatch):
        # the value array is allocated first; 2^56 trials need 512 PiB
        monkeypatch.setattr(widths, "thread_count", lambda: 1)
        monkeypatch.setattr(widths, "gaussian_sym_batch", mock.Mock(side_effect=AssertionError("drew a trial")))
        with pytest.raises(MemoryError):
            width_dual_base_sparse(6, 3, 2**56, seed=4)
        with pytest.raises(MemoryError):
            width_base_psd(2, 2**56, seed=4)


class TestKnownAnswers:
    """Exact widths the estimators must hit within 5 standard errors at
    fixed seeds.  Bit-for-bit comparisons with a per-trial reference show
    two routes agree; these check the distribution of the draws."""

    def test_quadrature_matches_the_closed_forms(self):
        assert expected_max_of_normals(2) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)
        assert expected_max_of_normals(3) == pytest.approx(1.5 / math.sqrt(math.pi), abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_base_psd_at_n2_is_half_root_pi(self, seed):
        # lambda_max = (a + c)/2 + R: the diagonal is N(0, 1), the
        # off-diagonal N(0, 1/2), so R is Rayleigh with sigma^2 = 1/2
        est = width_base_psd(2, 20_000, seed, keep_values=False)
        assert abs(est.mean - math.sqrt(math.pi) / 2) <= 5 * est.std_error

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_sparse_dual_is_the_expected_max_of_the_diagonal(self, seed):
        # a 1-sparse lambda_1 is the largest diagonal entry, six iid N(0, 1)
        truth = expected_max_of_normals(6)
        assert truth == pytest.approx(1.267206, abs=5e-7)
        est = width_dual_base_sparse(6, 1, 20_000, seed, keep_values=False)
        assert abs(est.mean - truth) <= 5 * est.std_error

    @pytest.mark.parametrize("n, truth", [(2, 1 / math.sqrt(math.pi)), (3, 1.5 / math.sqrt(math.pi)), (6, None)])
    def test_adaptive_simpson_matches_the_expected_maxima(self, n, truth):
        # two Simpson levels of one wide panel once agreed by chance here:
        # at n = 6 the routine returned 1.270073 for 1.267206
        density = lambda x: x * n * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * normal_cdf(x) ** (n - 1)
        truth = expected_max_of_normals(n) if truth is None else truth
        assert _simpson_adaptive(density, -12.0, 12.0, 1e-12) == pytest.approx(truth, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_rank_duals_are_base_psd(self, n, seed):
        # k = n leaves one block, the whole matrix, in both dual families
        want = width_base_psd(n, 300, seed)
        for est in (width_dual_base_sparse(n, n, 300, seed), width_general_dual(cones.coordinate_family(n, n), 300, seed)):
            assert est.mean.hex() == want.mean.hex() and est.std_error.hex() == want.std_error.hex()
            assert est.per_trial_values.tobytes() == want.per_trial_values.tobytes()

    def test_quadratures_match_the_closed_forms(self):
        assert ellipse_width(1.0, 1.0) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-14)
        assert ellipse_width(2.0, 1.0) == pytest.approx(1.9325658, abs=5e-8)
        assert ellipse_width(2.0, 1.0) == pytest.approx(ellipse_width(2.0, 1.0, steps=1024), abs=1e-14)
        assert expected_max_abs_normals(1) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
        assert expected_max_abs_normals(2) == pytest.approx(2 / math.sqrt(math.pi), abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ellipse_width(self, seed):
        est = width_via_oracle(ellipsoid_oracle([2.0, 1.0]), 20_000, seed, keep_values=False)
        assert abs(est.mean - ellipse_width(2.0, 1.0)) <= 5 * est.std_error

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_l1_ball_width_is_the_expected_max_abs(self, d, seed):
        est = width_via_oracle(l1_ball_oracle(d), 20_000, seed, keep_values=False)
        assert abs(est.mean - expected_max_abs_normals(d)) <= 5 * est.std_error


_STACK_KINDS = ["gaussian", "integer", "signed graph", "blocks"]


def stack_case(kind, scale_exponent, permuted, n, seed):
    """A tie_heavy_or_gaussian matrix times 10^scale_exponent, its rows and
    columns permuted when asked, so a stack may hold one matrix in two orders."""
    dense = tie_heavy_or_gaussian(kind, n, seed) * 10.0**scale_exponent
    order = np.random.default_rng(seed).permutation(n) if permuted else np.arange(n)
    return dense[np.ix_(order, order)]


class TestStackForm:
    """k_sparse_largest_eigenvalue on a (T, n, n) stack gives each matrix the
    bits of its own call and of the reference, whatever else the stack holds."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 11).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        mode=st.sampled_from(["exhaustive", "greedy"]),
        cases=st.lists(
            st.tuples(st.sampled_from(_STACK_KINDS), st.integers(-300, 300), st.booleans(),
                      st.integers(0, 2**32 - 1)),
            min_size=1, max_size=3,
        ),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    @example(shape=(8, 3), mode="greedy", cases=[("gaussian", 0, False, 1)], picks=[0])  # a stack of one
    @example(shape=(8, 3), mode="exhaustive", cases=[("blocks", 300, False, 2)], picks=[0])
    # one matrix twice and in two orders: the restarts give every matrix the
    # same start supports, so a merge across matrices would change a value
    @example(shape=(12, 4), mode="greedy", cases=[("signed graph", 0, False, 679), ("signed graph", 0, True, 679)],
             picks=[0, 1, 0, 1])
    @example(shape=(10, 3), mode="greedy", cases=[("gaussian", -300, False, 3), ("integer", 300, True, 4)],
             picks=[1, 0, 0])
    @example(shape=(9, 4), mode="exhaustive", cases=[("integer", 0, False, 5), ("integer", 0, True, 5)],
             picks=[1, 1, 0])
    def test_each_value_equals_its_own_call_and_the_reference(self, shape, mode, cases, picks):
        n, k = shape
        mats = [stack_case(kind, e, permuted, n, seed) for kind, e, permuted, seed in cases]
        stack = np.stack([mats[p % len(mats)] for p in picks])
        got = k_sparse_largest_eigenvalue(stack, k, mode)
        assert got.shape == (len(picks),) and got.dtype == np.float64
        reference = reference_greedy_k_sparse if mode == "greedy" else reference_max_lambda1_subsets
        for value, dense in zip(got, stack):
            alone = k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(dense), k, mode)
            assert bits(value) == bits(alone) == bits(reference(dense, k))

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("k", [1, 6])
    def test_shortcut_sizes_equal_their_own_calls(self, mode, k):
        stack = gaussian_sym_batch(6, 3, 0, 5)
        alone = [k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(G), k, mode) for G in stack]
        assert k_sparse_largest_eigenvalue(stack, k, mode).tolist() == alone

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    def test_an_empty_stack_gives_no_values(self, mode):
        assert k_sparse_largest_eigenvalue(np.zeros((0, 6, 6)), 3, mode).shape == (0,)

    def test_rejects_what_is_not_a_stack_of_finite_symmetric_matrices(self):
        stack = gaussian_sym_batch(5, 1, 0, 3)
        with pytest.raises(InvalidDimensionError, match="expected a"):
            k_sparse_largest_eigenvalue(stack[0], 2, "greedy")
        with pytest.raises(InvalidArgumentError, match="unknown mode"):
            k_sparse_largest_eigenvalue(stack, 2, "bogus")
        asymmetric = stack.copy()
        asymmetric[1, 0, 4] += 1.0
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            k_sparse_largest_eigenvalue(asymmetric, 2, "greedy")
        stack[2, 3, 3] = np.nan
        with pytest.raises(NumericalFailureError):
            k_sparse_largest_eigenvalue(stack, 2, "exhaustive")

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([(8, 3), (9, 4), (12, 2)]),
        trials=st.integers(2, 40),
        window=st.tuples(st.integers(0, 39), st.integers(1, 40)),
        step_rows=st.sampled_from([1, 200, 1000, 4096]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(shape=(8, 3), trials=40, window=(10, 30), step_rows=4096, seed=0)  # chunks of 13
    def test_greedy_trials_are_a_window_of_a_longer_run(self, shape, trials, window, step_rows, seed):
        # whatever the lockstep chunks of the run, trials [a, b) have the bits
        # of the same trials drawn as one window, and of each drawn alone
        n, k = shape
        a = min(window[0], trials - 1)
        b = min(max(window[1], a + 1), trials)
        with mock.patch.object(cones, "_GREEDY_STEP_ROWS", step_rows):
            run = width_dual_base_sparse(n, k, trials, seed, "greedy").per_trial_values
        drawn = gaussian_sym_batch(n, seed, a, b)
        alone = [k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(G), k, "greedy") for G in drawn]
        assert bits(run[a:b]) == bits(k_sparse_largest_eigenvalue(drawn, k, "greedy")) == bits(alone)

    @pytest.mark.parametrize("step_rows, group", [(1, 1), (4096, 3), (20 * 21 * 4 * 16, 20)])
    def test_greedy_groups_change_no_bit_and_no_eigensolve(self, step_rows, group, monkeypatch):
        # one call on 20 matrices runs its ascents in lockstep groups of
        # cones.greedy_group(20, 4) matrices; every group size gives each
        # matrix its own call's bits and solves the same 3,060 blocks
        stack = gaussian_sym_batch(20, 1, 0, 20)
        alone = [k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(G), 4, "greedy") for G in stack]
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(cones, "_GREEDY_STEP_ROWS", step_rows)
        assert cones.greedy_group(20, 4) == group
        assert bits(k_sparse_largest_eigenvalue(stack, 4, "greedy")) == bits(alone)
        assert sum(solved) == 3060


class TestGreedyRestartCache:
    """Greedy mode keeps no restart cache: every call draws its 20 restarts
    from the fixed internal stream, and cold and warm runs agree."""

    @pytest.fixture(autouse=True)
    def cold(self):
        cones._subset_table.cache_clear()

    @pytest.mark.parametrize("n, k", [(9, 4), (20, 4), (14, 13)])
    def test_every_call_draws_its_restarts(self, n, k, monkeypatch):
        fresh = cones.k_subsets(cones.substream(cones._GREEDY_STREAM_KEY), n, k, 20)
        keys, starts = [], []
        draw, ascents = cones.substream, cones._swap_ascents
        monkeypatch.setattr(cones, "substream", lambda key, *a: keys.append(key) or draw(key, *a))
        monkeypatch.setattr(
            cones, "_swap_ascents", lambda stack, supports: starts.append(supports[0, 1:]) or ascents(stack, supports)
        )
        G = sample_standard_gaussian_sym(n, 5)
        values = [k_sparse_largest_eigenvalue(G, k, "greedy") for _ in range(2)]
        assert bits(values[0]) == bits(values[1])
        assert keys == [cones._GREEDY_STREAM_KEY] * 2
        assert len(starts) == 2 and all(np.array_equal(np.array(s), fresh) for s in starts)
        assert not hasattr(cones, "_greedy_restarts")

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    def test_pool_threads_filling_a_cold_cache_agree(self, mode):
        # more workers than cores, switching often, all missing the subset
        # tables at once; the sparse duals run on the caller's thread, so
        # the searches are called from a pool of their own
        mats = [SymmetricMatrix.from_dense(G) for G in gaussian_sym_batch(9, 6, 0, 300)]
        search = lambda G: bits(k_sparse_largest_eigenvalue(G, 4, mode))
        want = [search(G) for G in mats]
        cones._subset_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(search, mats))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    def test_cold_and_warm_runs_give_the_same_bits(self, mode):
        mats = [sample_standard_gaussian_sym(n, seed) for n, seed in [(9, 1), (11, 2), (14, 3)]]
        shapes = [(G, k) for G in mats for k in (2, 4, G.dim - 1)]
        cold = [bits(k_sparse_largest_eigenvalue(G, k, mode)) for G, k in shapes]
        assert [bits(k_sparse_largest_eigenvalue(G, k, mode)) for G, k in shapes] == cold
        cones._subset_table.cache_clear()
        assert [bits(k_sparse_largest_eigenvalue(G, k, mode)) for G, k in shapes] == cold


class TestWidthGeneralDual:
    def test_identity_family_matches_base_psd(self):
        family = ConeFamily(6, (SubspaceBasis(6, 6, np.eye(6)),))
        base = width_base_psd(6, 80, seed=31)
        general = width_general_dual(family, 80, seed=31)
        assert np.allclose(base.per_trial_values, general.per_trial_values, rtol=1e-10)

    def test_coordinate_family_matches_sparse_dual(self):
        family = coordinate_family(12, 4)
        sparse = width_dual_base_sparse(12, 4, 120, seed=41)
        general = width_general_dual(family, 120, seed=41)
        assert np.allclose(sparse.per_trial_values, general.per_trial_values, rtol=1e-9)

    def test_counting_bound_holds(self, rng):
        family = random_family(16, 4, 50, rng)
        est = width_general_dual(family, 500, seed=55)
        bound = math.sqrt(2 * 4) + math.sqrt(2 * math.log(50))
        assert est.mean <= bound + 3 * est.std_error

    def test_deterministic(self, rng):
        family = random_family(8, 3, 5, rng)
        a = width_general_dual(family, 50, seed=2)
        b = width_general_dual(family, 50, seed=2)
        assert np.array_equal(a.per_trial_values, b.per_trial_values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 24),
        k_pick=st.sampled_from(["one", "n", "mid"]),
        count=st.sampled_from([1, 2, 7, 100, 300]),
        duplicated=st.booleans(),
        trials=st.integers(2, 140),
        seed=st.integers(0, 2**64 - 1),
        threads=st.sampled_from([1, 2]),
        stack_trials=st.sampled_from([None, 1, 5]),
    )
    @example(
        n=10, k_pick="n", count=100, duplicated=False, trials=130, seed=2**64 - 1, threads=2, stack_trials=None
    )
    @example(n=1, k_pick="one", count=7, duplicated=False, trials=65, seed=0, threads=1, stack_trials=None)
    @example(n=6, k_pick="mid", count=2, duplicated=False, trials=129, seed=3, threads=2, stack_trials=5)
    @example(n=24, k_pick="mid", count=300, duplicated=True, trials=40, seed=5, threads=2, stack_trials=None)
    @example(n=16, k_pick="one", count=300, duplicated=True, trials=70, seed=6, threads=1, stack_trials=None)
    @example(n=24, k_pick="n", count=7, duplicated=True, trials=9, seed=7, threads=2, stack_trials=1)
    def test_bits_equal_the_per_trial_reference(
        self, n, k_pick, count, duplicated, trials, seed, threads, stack_trials
    ):
        # duplicated: every basis twice (and the family cut to count), so
        # blocks tie exactly with the solved seed block of their trial
        k = {"one": 1, "n": n, "mid": max(1, n // 2)}[k_pick]
        rng = np.random.default_rng(n * 1000 + count)
        family = random_family(n, k, -(-count // 2) if duplicated else count, rng)
        if duplicated:
            family = ConeFamily(n, (family.bases * 2)[:count])
        if count > 100 or duplicated:  # the new sizes; the rest keep every trial
            trials = min(trials, 2 + 6000 // count)
        # stack_trials: trials per chunk, to cover chunks below _TRIAL_CHUNK
        limit = widths._DUAL_STACK_BYTES if stack_trials is None else stack_trials * count * k * k * 8
        with mock.patch.object(widths, "thread_count", lambda: threads), mock.patch.object(
            widths, "_DUAL_STACK_BYTES", limit
        ):
            values = width_general_dual(family, trials, seed).per_trial_values
        expected = reference_general_dual(family.stacked(), trials, seed)
        assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 7),
        count=st.integers(1, 40),
        scale=st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]),
        upper=st.sampled_from(["random", "huge", "zero"]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=4, count=20, scale=1.0, upper="huge", ties=True, seed=0)
    @example(k=3, count=12, scale=1e-300, upper="random", ties=True, seed=1)
    @example(k=5, count=30, scale=1e300, upper="zero", ties=True, seed=2)
    def test_stack_screen_clears_only_blocks_computed_below_c(self, k, count, scale, upper, ties, seed):
        # the screen of width_general_dual: blocks whose upper triangle is not
        # the lower one's mirror, c the largest eigenvalue of a solved block;
        # every block cleared at c has eigvalsh's largest eigenvalue below c
        rng = np.random.default_rng(seed)
        lower = np.tril(rng.standard_normal((count, k, k)))
        blocks = lower + np.tril(lower, -1).transpose(0, 2, 1)
        if ties:  # copies of the seed block, and copies nudged by one ulp
            blocks[1::3] = blocks[0]
            blocks[2::3] = np.nextafter(blocks[0], np.inf)
        blocks *= scale / np.abs(blocks).max()
        rows, cols = np.triu_indices(k, 1)
        blocks[:, rows, cols] = {
            "random": rng.standard_normal((count, rows.size)) * scale,
            "huge": 1e6 * scale if scale < 1e300 else 1.7e308,
            "zero": 0.0,
        }[upper]
        c = np.full(count, np.linalg.eigvalsh(blocks[0])[-1])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cleared = cones.screen_clears_blocks(blocks, c)
        assert not cleared[0]
        assert (np.linalg.eigvalsh(blocks[cleared])[:, -1] < c[cleared]).all()

    @pytest.mark.parametrize("count", [17, 100], ids=["N17", "N100"])
    def test_bits_equal_the_per_trial_reference_past_1024_blocks_a_chunk(self, count):
        # a 64-trial chunk holds 1,088 or 6,400 blocks, screened in one call
        family = random_family(16, 4, count, np.random.default_rng(count))
        values = width_general_dual(family, 130, seed=9).per_trial_values
        expected = reference_general_dual(family.stacked(), 130, seed=9)
        assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_screens_each_chunk_in_one_call(self, monkeypatch):
        # 70 trials are chunks of 64 and 6; each chunk's 35 blocks per trial
        # reach the screen in one stack
        monkeypatch.setattr(widths, "thread_count", lambda: 1)
        shapes = []
        screen = cones.screen_clears_blocks
        monkeypatch.setattr(
            cones, "screen_clears_blocks", lambda blocks, c: shapes.append(blocks.shape) or screen(blocks, c)
        )
        width_general_dual(coordinate_family(7, 3), 70, seed=4)
        assert shapes == [(64, 35, 3, 3), (6, 35, 3, 3)]

    def test_stack_screen_clears_most_blocks_of_a_gaussian_family(self):
        # the work the screen saves: a few of 100 blocks per trial reach eigvalsh
        family = random_family(16, 4, 100, np.random.default_rng(3))
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *rest):
            solved.append(math.prod(np.shape(a)[:-2]))
            return eigvalsh(a, *rest)

        with mock.patch.object(np.linalg, "eigvalsh", counting):
            width_general_dual(family, 64, seed=1)
        assert sum(solved) < 64 * 100 / 10


class TestWidthViaOracle:
    def test_ball_width_matches_gamma_ratio(self):
        est = width_via_oracle(l2_ball_oracle(9), 100_000, seed=3)
        assert 2.88 <= est.mean <= 2.95
        assert abs(est.mean - kappa(9)) <= 4 * est.std_error

    def test_ellipse_disc_ratio(self):
        disc = width_via_oracle(l2_ball_oracle(2), 200_000, seed=11)
        ell = width_via_oracle(ellipsoid_oracle([2.0, 1.0]), 200_000, seed=11)
        assert abs(ell.mean / disc.mean - 1.54196) <= 0.015

    def test_scaled_l1_ball_trend(self):
        # sqrt(n)-scaled cross-polytope versus the unit ball tracks
        # sqrt(2 log n) * sqrt(n) / kappa_n within 15 percent
        for n in (16, 64, 256):
            est = width_via_oracle(l1_ball_oracle(n, math.sqrt(n)), 100_000, seed=n)
            ratio = est.mean / kappa(n)
            predicted = math.sqrt(2 * math.log(n)) * math.sqrt(n) / kappa(n)
            assert abs(ratio - predicted) / predicted <= 0.15

    def test_pathwise_monotone_under_inclusion(self):
        # unit disc inside the (2, 1) ellipse: same directions, same seed
        disc = width_via_oracle(l2_ball_oracle(2), 5000, seed=13)
        ell = width_via_oracle(ellipsoid_oracle([2.0, 1.0]), 5000, seed=13)
        assert (disc.per_trial_values <= ell.per_trial_values + 1e-12).all()

    def test_translation_moves_values_by_inner_product(self):
        oracle = l2_ball_oracle(4)
        shift = np.array([0.5, -1.0, 2.0, 0.25])
        base = width_via_oracle(oracle, 4000, seed=19)
        moved = width_via_oracle(shifted_oracle(oracle, shift), 4000, seed=19)
        # same seed, same directions: per-trial difference is exactly <g, t>
        from psdbounds._rng import substream

        dirs = substream(19).standard_normal((4000, 4))
        assert np.allclose(
            moved.per_trial_values - base.per_trial_values, dirs @ shift, atol=1e-10
        )
        corrected = moved.mean - float((dirs @ shift).mean())
        assert abs(corrected - base.mean) <= 3 * math.hypot(base.std_error, moved.std_error)

    @pytest.mark.parametrize(
        "make",
        [lambda: l2_ball_oracle(1), lambda: l2_ball_oracle(2), lambda: l2_ball_oracle(7),
         lambda: l2_ball_oracle(8), lambda: l2_ball_oracle(9), lambda: l2_ball_oracle(40),
         lambda: l2_ball_oracle(200), lambda: l2_ball_oracle(2, 1e-300),
         lambda: ellipsoid_oracle([1.5, 0.5, 2.0]), lambda: ellipsoid_oracle([2.0, 1.0]),
         lambda: ellipsoid_oracle([1e-200, 1e-200]), lambda: ellipsoid_oracle([1e200, 1.0]),
         lambda: l1_ball_oracle(1), lambda: l1_ball_oracle(7), lambda: l1_ball_oracle(8, 3.0),
         lambda: shifted_oracle(l2_ball_oracle(9), np.linspace(-1.0, 2.0, 9)),
         lambda: shifted_oracle(l2_ball_oracle(40), np.linspace(-1.0, 2.0, 40)),
         lambda: SupportOracle(5, evaluate_batch=lambda dirs: np.abs(dirs).sum(axis=1))],
        ids=["l2-d1", "l2-d2", "l2-d7", "l2-d8", "l2-d9", "l2-d40", "l2-d200", "l2-tiny",
             "ellipsoid-d3", "ellipsoid-2-1", "ellipsoid-tiny", "ellipsoid-huge",
             "l1-d1", "l1-d7", "l1-d8", "shifted-l2-d9", "shifted-l2-d40", "batch-only-cube-d5"],
    )
    def test_a_row_depends_on_neither_its_block_nor_the_trial_window(self, make):
        # each row of a block has the bits it has alone, so the first 70
        # trials of a long run, drawn in other blocks, are those of a short one
        oracle = make()
        dirs = substream(29).standard_normal((2000, oracle.dim))
        alone = [oracle.evaluate_batch(dirs[i : i + 1])[0] for i in range(len(dirs))]
        assert oracle.evaluate_batch(dirs).tobytes() == np.array(alone).tobytes()
        short = width_via_oracle(oracle, 70, seed=29).per_trial_values
        long = width_via_oracle(oracle, 70_000, seed=29).per_trial_values
        assert short.tobytes() == long[:70].tobytes()

    def test_an_oracle_needs_a_formula(self):
        f = lambda dirs: dirs[:, 0]
        for make in (lambda: SupportOracle(3, label="empty"), lambda: SupportOracle(3, f),
                     lambda: SupportOracle(3, evaluate=f)):
            with pytest.raises(TypeError):
                make()
        with pytest.raises(InvalidArgumentError, match="evaluate_batch must be callable"):
            SupportOracle(3, evaluate_batch=np.ones(3))

    def test_a_batch_of_the_wrong_shape_is_named(self):
        oracle = SupportOracle(3, evaluate_batch=lambda dirs: dirs.sum(axis=0))
        with pytest.raises(OracleFailureError, match=r"^evaluate_batch returned shape \(3,\), expected \(5,\)$"):
            width_via_oracle(oracle, 5, seed=1)

    @pytest.mark.parametrize(
        "batch, shape",
        [(lambda dirs: dirs[:, :1], (5, 1)), (lambda dirs: dirs, (5, 3)), (lambda dirs: dirs.sum(), ()),
         (lambda dirs: dirs[:-1, 0], (4,)), (lambda dirs: np.append(dirs[:, 0], 0.0), (6,))],
        ids=["column", "block", "scalar", "short", "long"],
    )
    def test_a_batch_of_any_other_shape_is_named(self, batch, shape):
        # only a (T,) batch is taken; a column or a scalar is not broadcast
        oracle = SupportOracle(3, evaluate_batch=batch)
        message = f"evaluate_batch returned shape {shape}, expected (5,)"
        with pytest.raises(OracleFailureError, match=f"^{re.escape(message)}$"):
            width_via_oracle(oracle, 5, seed=1)

    def test_nonfinite_oracle_reports_direction(self):
        bad = SupportOracle(dim=2, evaluate_batch=lambda dirs: np.full(len(dirs), np.nan), label="broken")
        with pytest.raises(OracleFailureError, match="oracle broken returned a non-finite value at trial 0$") as err:
            width_via_oracle(bad, 10, seed=1)
        assert err.value.direction.tobytes() == substream(1).standard_normal((1, 2))[0].tobytes()

    @pytest.mark.parametrize(
        "make",
        [lambda: l2_ball_oracle(2, 1e308), lambda: l1_ball_oracle(2, 1.7e308),
         lambda: shifted_oracle(l2_ball_oracle(2), np.array([1e308, 1e308]))],
        ids=["l2-ball", "l1-ball", "shifted"],
    )
    def test_an_overflowing_oracle_is_an_oracle_failure(self, make):
        # the suite turns every RuntimeWarning into an error, so an overflow
        # warning from the oracle's arithmetic would escape before the check
        with pytest.raises(OracleFailureError, match="returned a non-finite value at trial"):
            width_via_oracle(make(), 5, 0)

    def test_positive_homogeneity_of_builtin_oracles(self, rng):
        for oracle in (l2_ball_oracle(3), l1_ball_oracle(3), ellipsoid_oracle([2, 1, 3])):
            dirs = rng.standard_normal((50, 3))
            for t in (0.5, 2.0, 7.0):
                assert np.abs(oracle.evaluate_batch(t * dirs) - t * oracle.evaluate_batch(dirs)).max() < 1e-10

    @pytest.mark.parametrize("make", [l2_ball_oracle, l1_ball_oracle])
    @pytest.mark.parametrize("radius", [-1.0, -1e-300, math.inf, math.nan])
    def test_ball_oracles_reject_bad_radius(self, make, radius):
        with pytest.raises(InvalidArgumentError, match="radius"):
            make(3, radius)

    @pytest.mark.parametrize("make", [l2_ball_oracle, l1_ball_oracle])
    @pytest.mark.parametrize("radius", ["abc", None, 1j, True])
    def test_ball_oracles_reject_a_radius_that_is_not_a_number(self, make, radius):
        with pytest.raises(InvalidArgumentError, match="parameter 'radius' must be a number"):
            make(3, radius)

    @pytest.mark.parametrize("make", [l2_ball_oracle, l1_ball_oracle])
    @pytest.mark.parametrize("dim", [0, -2])
    def test_ball_oracles_reject_a_dimension_below_one(self, make, dim):
        with pytest.raises(InvalidDimensionError, match="dimension must be >= 1"):
            make(dim)

    @pytest.mark.parametrize("make", [l2_ball_oracle, l1_ball_oracle])
    @pytest.mark.parametrize("dim", [2.5, True, 3.0, "3", None])
    def test_ball_oracles_reject_a_dimension_that_is_not_an_integer(self, make, dim):
        with pytest.raises(InvalidDimensionError, match="dimension must be an integer"):
            make(dim)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, False, 3.0, "3", None])
    def test_an_oracle_needs_an_integer_dimension_of_at_least_one(self, dim):
        # dim=0 gave a width of 0.0; -1, 2.5 and True failed inside numpy
        with pytest.raises(InvalidDimensionError, match="dimension must be"):
            SupportOracle(dim, evaluate_batch=lambda dirs: dirs[:, 0])

    def test_a_numpy_integer_dimension_is_an_integer(self):
        oracle = SupportOracle(np.int64(3), evaluate_batch=lambda dirs: np.abs(dirs).max(axis=1))
        want = width_via_oracle(l1_ball_oracle(3), 50, seed=4)
        assert width_via_oracle(oracle, 50, seed=4).per_trial_values.tobytes() == want.per_trial_values.tobytes()

    def test_zero_radius_is_a_point(self):
        assert width_via_oracle(l2_ball_oracle(3, 0.0), 10, seed=1).mean == 0.0

    @pytest.mark.parametrize("axes", [[1.0, -2.0], [0.0, 1.0], [math.inf, 1.0], [math.nan, 1.0], []])
    def test_ellipsoid_rejects_bad_axes(self, axes):
        with pytest.raises(InvalidArgumentError, match="semi-axes"):
            ellipsoid_oracle(axes)


    @pytest.mark.parametrize(
        "axes,width",
        # E||a o g|| for a multiple of the identity is a * kappa(d); a single
        # dominant axis gives a * E|g_1| = a * sqrt(2 / pi)
        [([1e-200, 1e-200], 1e-200 * kappa(2)), ([1e200, 1.0], 1e200 * math.sqrt(2 / math.pi)),
         ([1e-300, 1e-300, 1e-300], 1e-300 * kappa(3)), ([1e306, 1.0], 1e306 * math.sqrt(2 / math.pi))],
    )
    def test_ellipsoid_width_past_the_float_range(self, axes, width):
        # the estimate is the one of the axes scaled to max 1, scaled back
        scale = max(axes)
        est = width_via_oracle(ellipsoid_oracle(axes), 20_000, seed=3)
        unit = width_via_oracle(ellipsoid_oracle(np.divide(axes, scale)), 20_000, seed=3)
        assert math.isclose(est.mean, scale * unit.mean, rel_tol=1e-12)
        assert abs(unit.mean - width / scale) <= 4 * unit.std_error

    def test_scaled_ellipsoid_rows_alone_and_in_a_block_agree(self):
        g = np.array([[3.0, 4.0], [1e-10, -2.0]])
        for axes, expected in (([1e-200, 1e-200], [5e-200, 2e-200]), ([1e200, 1e200], [5e200, 2e200])):
            oracle = ellipsoid_oracle(axes)
            assert np.allclose(oracle.evaluate_batch(g), expected, rtol=1e-15)
            assert np.allclose([oracle.evaluate_batch(g[i : i + 1])[0] for i in range(2)], expected, rtol=1e-15)

    @pytest.mark.parametrize("axes", [[2.0, 1.0], [1.5, 0.5, 2.0], [2.0**-300] * 3, [2.0**300, 1.0]])
    def test_ordinary_ellipsoid_keeps_the_plain_bits(self, axes):
        a = np.asarray(axes)
        dirs = np.random.default_rng(0).standard_normal((500, a.size))
        plain = np.sqrt(((dirs * a) ** 2).sum(axis=1))
        assert ellipsoid_oracle(axes).evaluate_batch(dirs).tobytes() == plain.tobytes()

    def test_ball_oracle_batches_keep_the_plain_bits(self):
        dirs = np.random.default_rng(1).standard_normal((3000, 5))
        l2, l1 = l2_ball_oracle(5, 2.0), l1_ball_oracle(5, 2.0)
        assert l2.evaluate_batch(dirs).tobytes() == (2.0 * np.linalg.norm(dirs, axis=1)).tobytes()
        assert l1.evaluate_batch(dirs).tobytes() == (2.0 * np.abs(dirs).max(axis=1)).tobytes()

    def test_huge_radius_gives_a_finite_standard_error(self):
        est = width_via_oracle(l2_ball_oracle(2, 1e300), 100, seed=1)
        assert math.isfinite(est.std_error) and 0 < est.std_error < est.mean
        small = width_via_oracle(l2_ball_oracle(2, 1.0), 100, seed=1)
        assert math.isclose(est.std_error, 1e300 * small.std_error, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "scale, tiny, unit",
        [(1e-300, l2_ball_oracle(2, 1e-300), l2_ball_oracle(2, 1.0)),
         (1e-200, ellipsoid_oracle([1e-200, 1e-200]), ellipsoid_oracle([1.0, 1.0]))],
        ids=["l2-ball-1e-300", "ellipsoid-1e-200"],
    )
    def test_tiny_values_give_a_scaled_standard_error(self, scale, tiny, unit):
        # the plain squared deviations underflow; the scaled ones do not
        est = width_via_oracle(tiny, 100, seed=1)
        ref = width_via_oracle(unit, 100, seed=1)
        assert 0 < est.std_error < est.mean
        assert math.isclose(est.std_error, scale * ref.std_error, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "values", [[5.0, 5.0, 5.0], [-3.0] * 4, [0.0, 0.0], [1e-310, 1e-310], [1.5, 2.5, 1.0]]
    )
    def test_constant_and_ordinary_values_keep_the_plain_moments(self, values):
        est = widths.WidthEstimate.from_values(np.array(values), 0)
        plain = np.array(values)
        assert (est.mean, est.std_error) == (plain.mean(), plain.std(ddof=1) / math.sqrt(plain.size))

    @pytest.mark.parametrize(
        "values",
        [np.array([1.0]), np.array([]), np.ones((3, 3)), np.float64(2.0), np.ones((1, 2))],
        ids=["one-value", "empty", "3x3", "scalar", "1x2"],
    )
    def test_from_values_needs_a_vector_of_two_values(self, values):
        # an estimator draws at least 2 trials into a 1-D array
        with pytest.raises(InvalidArgumentError, match="1-D array of at least 2 values"):
            widths.WidthEstimate.from_values(values, 1)

    @pytest.mark.parametrize("keep", [True, False])
    def test_from_values_leaves_its_input_untouched(self, keep):
        values = np.random.default_rng(3).standard_normal(1000) * 1e3
        before = values.copy()
        widths.WidthEstimate.from_values(values, 0, keep_values=keep)
        assert values.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "call",
        [lambda: width_via_oracle(l2_ball_oracle(3), 70_000, seed=2),
         lambda: width_via_oracle(ellipsoid_oracle([1e200, 1.0]), 70_000, seed=2),
         lambda: width_general_dual(random_family(16, 4, 100, np.random.default_rng(4)), 130, seed=2)],
    )
    def test_estimates_leave_no_garbage(self, call):
        # a reference cycle (a recursive closure, say) pins every block it
        # reaches until the collector runs
        call()
        gc.collect()
        call()
        assert gc.collect() == 0


def _row_sum_entries():
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308])
    normal = st.floats(-1e6, 1e6, allow_nan=False)
    return st.one_of(normal, special)


class TestNormOraclesInPlace:
    """The l2-ball and ellipsoid batches square, root and scale in place: the
    bits of the formulas radius * sqrt(sum(g * g)) and s * sqrt(sum((u o g)^2)),
    and the directions they read are left as they were.  The ball oracles
    take any real radius as float(radius)."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 40])
    @pytest.mark.parametrize("radius", [1.0, 2.5, 3, 1e-300])
    def test_l2_ball_bits(self, dim, radius):
        dirs = np.random.default_rng(dim).standard_normal((300, dim))
        dirs[0] = 0.0
        before = dirs.copy()
        got = l2_ball_oracle(dim, radius).evaluate_batch(dirs)
        assert got.tobytes() == (radius * np.sqrt((dirs * dirs).sum(axis=1))).tobytes()
        assert dirs.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "make, norm, name",
        [(l2_ball_oracle, lambda dirs: np.sqrt((dirs * dirs).sum(axis=1)), "l2-ball"),
         (l1_ball_oracle, lambda dirs: np.abs(dirs).max(axis=1), "l1-ball")],
        ids=["l2-ball", "l1-ball"],
    )
    @pytest.mark.parametrize("radius", [Fraction(1, 3), Fraction(1, 2), Fraction(7), np.float32(0.1),
                                        np.float32(0.5), np.int64(2), np.int64(3)])
    def test_ball_bits_of_other_reals(self, make, norm, name, radius):
        # l1_ball_oracle(3, Fraction(1, 2)) raised a TypeError from its label
        dirs = np.random.default_rng(5).standard_normal((300, 3))
        oracle = make(3, radius)
        got = oracle.evaluate_batch(dirs)
        assert got.dtype == np.float64
        assert got.tobytes() == (float(radius) * norm(dirs)).tobytes()
        assert oracle.label == f"{name}(d=3, r={float(radius):g})"

    @pytest.mark.parametrize("axes", [[2.0, 1.0], [1.5, 0.5, 2.0], [1e-200, 1e-200], [1e200, 1.0], list(range(1, 12))])
    def test_ellipsoid_bits(self, axes):
        a = np.asarray(axes, dtype=np.float64)
        scale = float(a.max())
        scale, unit = (1.0, a) if 2.0**-300 <= scale <= 2.0**300 else (scale, a / scale)
        dirs = np.random.default_rng(len(axes)).standard_normal((300, a.size))
        before = dirs.copy()
        got = ellipsoid_oracle(axes).evaluate_batch(dirs)
        assert got.tobytes() == (scale * np.sqrt(((dirs * unit) ** 2).sum(axis=1))).tobytes()
        assert dirs.tobytes() == before.tobytes()


class TestRowSums:
    """widths._row_sums replays numpy's own row summation order bit for bit,
    so a numpy that changes that order fails here."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 40),
        cols=st.one_of(st.integers(1, 128), st.sampled_from([129, 300, 1031])),
        seed=st.integers(0, 2**32 - 1),
        entries=st.lists(_row_sum_entries(), min_size=1, max_size=64),
    )
    def test_bits_equal_numpy_row_sums(self, rows, cols, seed, entries):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        where = rng.integers(0, x.size, len(entries))
        x.flat[where] = entries
        with np.errstate(over="ignore", invalid="ignore"):
            expected = x.sum(axis=1)
            sums = widths._row_sums(x)
        assert sums.tobytes() == expected.tobytes()

    def test_every_width_up_to_128_columns(self):
        # the widths below 8 that the column replay covers
        for cols in range(1, 8):
            x = np.random.default_rng(cols).standard_normal((9, cols)) * 1e3
            assert widths._row_sums(x).tobytes() == x.sum(axis=1).tobytes(), cols


_REPRO_FAMILY = random_family(8, 3, 4, np.random.default_rng(5))
_REPRO_ESTIMATORS = {
    "base_psd": lambda trials: width_base_psd(7, trials, seed=11),
    "general_dual": lambda trials: width_general_dual(_REPRO_FAMILY, trials, seed=12),
    "sparse_dual": lambda trials: width_dual_base_sparse(8, 3, trials, seed=13),
    "sparse_dual_greedy": lambda trials: width_dual_base_sparse(8, 3, trials, seed=14, mode="greedy"),
}


def _same_estimate(a, b):
    return (
        np.array_equal(a.per_trial_values.view(np.uint64), b.per_trial_values.view(np.uint64))
        and (a.mean, a.std_error, a.trials) == (b.mean, b.std_error, b.trials)
    )


class TestThreadCount:
    """The pool's worker cap is the number of cores this process may run on."""

    def test_counts_the_allowed_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert widths.thread_count() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert widths.thread_count() == 3

    def test_falls_back_to_the_core_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert widths.thread_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert widths.thread_count() == 1

    def test_one_allowed_core_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(widths, "ThreadPoolExecutor", mock.Mock(side_effect=AssertionError("started a pool")))
        assert width_base_psd(4, 200, seed=1).trials == 200


class TestReproducibility:
    """Seeded estimates depend on neither the thread count nor the trial window."""

    @pytest.mark.parametrize("name", sorted(_REPRO_ESTIMATORS))
    def test_one_and_two_threads_agree(self, name, monkeypatch):
        # and every trial chunk: one trial, a size that divides nothing, the default
        runs = []
        for chunk in (1, 7, 64):
            monkeypatch.setattr(widths, "_TRIAL_CHUNK", chunk)
            for threads in (1, 2):
                monkeypatch.setattr(widths, "thread_count", lambda: threads)
                runs.append(_REPRO_ESTIMATORS[name](200))
        assert all(_same_estimate(runs[0], run) for run in runs[1:])

    @pytest.mark.parametrize("name", sorted(_REPRO_ESTIMATORS))
    def test_partly_filled_last_chunk(self, name):
        # 70 trials: one full 64-trial chunk and one with 6 trials
        short, long = (_REPRO_ESTIMATORS[name](trials) for trials in (70, 200))
        assert np.array_equal(
            short.per_trial_values.view(np.uint64), long.per_trial_values[:70].view(np.uint64)
        )


class TestRunTrials:
    """widths._run_trials, the one chunked loop of every Monte Carlo suite."""

    @staticmethod
    def calls_of(trials, chunk, outputs=1, workers=1):
        calls = []
        lock = threading.Lock()

        def kernel(start, stop):
            with lock:
                calls.append((start, stop))
            t = np.arange(start, stop, dtype=np.float64)
            return np.sin(t) if outputs == 1 else (np.sin(t), np.cos(t))

        values = widths._run_trials(trials, chunk, kernel, outputs, workers)
        return values, sorted(calls)

    @pytest.mark.parametrize(
        "trials, chunk, spans",
        [(10, 4, [(0, 4), (4, 8), (8, 10)]), (3, 64, [(0, 3)]), (0, 5, []), (6, 3, [(0, 3), (3, 6)])],
        ids=["ragged", "chunk-past-trials", "none", "exact"],
    )
    def test_consecutive_chunks_fill_every_trial(self, trials, chunk, spans):
        values, calls = self.calls_of(trials, chunk)
        assert calls == spans
        assert values.shape == (trials,)
        assert values.tobytes() == np.sin(np.arange(trials, dtype=np.float64)).tobytes()

    def test_two_outputs_fill_two_rows(self):
        values, _ = self.calls_of(11, 4, outputs=2)
        t = np.arange(11, dtype=np.float64)
        assert values.shape == (2, 11)
        assert values.tobytes() == np.stack([np.sin(t), np.cos(t)]).tobytes()

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_one_and_four_workers_agree(self, outputs):
        serial, serial_calls = self.calls_of(1000, 7, outputs, workers=1)
        pooled, pooled_calls = self.calls_of(1000, 7, outputs, workers=4)
        assert serial.tobytes() == pooled.tobytes() and serial_calls == pooled_calls

    def test_one_worker_runs_in_order_on_the_calling_thread(self):
        seen = []

        def kernel(start, stop):
            seen.append((start, threading.get_ident()))
            return np.zeros(stop - start)

        widths._run_trials(20, 3, kernel)
        assert seen == [(start, threading.get_ident()) for start in range(0, 20, 3)]

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_two_and_three_workers_agree(self, outputs):
        serial, serial_calls = self.calls_of(1000, 7, outputs, workers=1)
        for workers in (2, 3):
            pooled, pooled_calls = self.calls_of(1000, 7, outputs, workers)
            assert serial.tobytes() == pooled.tobytes() and serial_calls == pooled_calls

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_one_task_a_worker(self, workers, monkeypatch):
        submits = []

        class CountingPool(widths.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(widths, "ThreadPoolExecutor", CountingPool)
        self.calls_of(10_000, 7, workers=workers)
        assert len(submits) == workers
        submits.clear()
        self.calls_of(10, 7, workers=workers)  # two chunks
        assert len(submits) == 2

    def test_many_workers_take_each_chunk_once(self):
        # more workers than cores, switching threads every microsecond: a
        # chunk start handed out twice, or lost, shows in the counts
        counts = np.zeros(5000, dtype=np.int64)

        def kernel(start, stop):
            counts[start] += 1
            return np.full(stop - start, float(start))

        result = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.update(values=widths._run_trials(5000, 1, kernel, workers=8)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive()
        assert (counts == 1).all()
        assert result["values"].tobytes() == np.arange(5000, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_late_error_stops_every_worker_at_its_next_chunk(self, workers):
        events, lock = [], threading.Lock()
        error = OracleFailureError("chunk 700 failed")

        def kernel(start, stop):
            with lock:
                events.append(start)
                if start == 7000:
                    events.append("failed")
                    raise error
            time.sleep(0.0002)  # lets the other workers run
            return np.zeros(stop - start)

        with pytest.raises(OracleFailureError) as caught:
            widths._run_trials(10_000, 10, kernel, workers=workers)
        assert caught.value is error
        failed = events.index("failed")
        # a worker may have taken its chunk before the failure; none takes one after
        assert len(events) - 1 - failed <= workers - 1
        if workers == 1:
            assert events[:failed] == list(range(0, 7010, 10))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_kernel_error_propagates_unchanged(self, workers):
        error = OracleFailureError("chunk 2 failed")

        def kernel(start, stop):
            if start == 8:
                raise error
            return np.zeros(stop - start)

        with pytest.raises(OracleFailureError) as caught:
            widths._run_trials(20, 4, kernel, workers=workers)
        assert caught.value is error


def _first_coordinate(dim, label="first-coordinate"):
    # the batch returns each direction's first entry, so values name directions
    return SupportOracle(dim, evaluate_batch=lambda dirs: dirs[:, 0].copy(), label=label)


class TestDrawnTrialsThread:
    """widths._run_drawn_trials: one helper thread draws the next block of a
    sequential stream while the caller evaluates the current one."""

    @staticmethod
    def record(trials, chunk):
        draws, kernels = [], []

        def draw(take):
            draws.append((take, threading.get_ident()))
            return np.full(take, float(len(draws)))

        def kernel(start, block):
            kernels.append((start, threading.get_ident()))
            return block + start

        return widths._run_drawn_trials(trials, chunk, draw, kernel), draws, kernels

    def test_two_threads_draw_every_block_in_order_on_the_helper(self, monkeypatch):
        monkeypatch.setattr(widths, "thread_count", lambda: 2)
        values, draws, kernels = self.record(10, 4)
        caller = threading.get_ident()
        assert [take for take, _ in draws] == [4, 4, 2]
        assert len({ident for _, ident in draws}) == 1 and draws[0][1] != caller
        assert kernels == [(0, caller), (4, caller), (8, caller)]
        assert values.tolist() == [1.0] * 4 + [6.0] * 4 + [11.0] * 2

    @pytest.mark.parametrize("threads, trials", [(1, 10), (2, 4), (2, 3)], ids=["one-core", "one-block", "short"])
    def test_one_core_or_one_block_starts_no_thread(self, threads, trials, monkeypatch):
        monkeypatch.setattr(widths, "thread_count", lambda: threads)
        monkeypatch.setattr(widths, "ThreadPoolExecutor", mock.Mock(side_effect=AssertionError("started a thread")))
        values, draws, kernels = self.record(trials, 4)
        caller = threading.get_ident()
        assert all(ident == caller for _, ident in draws + kernels)
        assert sum(take for take, _ in draws) == trials

    @pytest.mark.parametrize(
        "make",
        [lambda: l2_ball_oracle(2), lambda: ellipsoid_oracle([2.0, 1.0]), lambda: l2_ball_oracle(4096),
         lambda: ellipsoid_oracle(np.linspace(0.5, 3.0, 3000)),
         lambda: shifted_oracle(l1_ball_oracle(5000), np.linspace(-1.0, 1.0, 5000))],
        ids=["disc", "ellipse", "l2-d4096", "ellipsoid-d3000", "shifted-l1-d5000"],
    )
    def test_one_and_two_threads_give_the_same_oracle_bits(self, make, monkeypatch):
        # the disc and ellipse run four blocks of 32,768 directions; the wide
        # oracles run blocks of at most 21 directions
        oracle = make()
        trials = 100_000 if oracle.dim == 2 else 200
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(widths, "thread_count", lambda: threads)
            width = width_via_oracle(oracle, trials, seed=17)
            check = concentration_check(oracle, 0.3, trials, seed=17)
            runs.append((width.per_trial_values.tobytes(), width.mean.hex(), width.std_error.hex(),
                         check.empirical.hex(), check.estimate.mean.hex(), check.estimate.std_error.hex()))
        assert runs[0] == runs[1]

    def test_blocks_stay_in_order_under_fast_thread_switching(self, monkeypatch):
        # switching threads every microsecond: a block drawn twice, lost or
        # handed to the wrong chunk shows in the values
        monkeypatch.setattr(widths, "thread_count", lambda: 2)
        stream = iter(range(10**6))
        draw = lambda take: np.array([float(next(stream)) for _ in range(take)])
        result = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.update(values=widths._run_drawn_trials(5000, 3, draw, lambda start, block: block)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive()
        assert result["values"].tobytes() == np.arange(5000, dtype=np.float64).tobytes()

    def test_trial_directions_do_not_depend_on_the_trial_window(self, monkeypatch):
        # blocks of 16 directions: windows inside one block, at its edge and past three
        monkeypatch.setattr(widths, "thread_count", lambda: 2)
        oracle = _first_coordinate(4096)
        want = substream(5).standard_normal((100, 4096))[:, 0]
        for trials in (2, 15, 16, 17, 48, 49, 100):
            got = width_via_oracle(oracle, trials, seed=5).per_trial_values
            assert got.tobytes() == want[:trials].tobytes(), trials

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_nan_in_the_third_block_names_its_trial_and_stops_the_thread(self, threads, monkeypatch):
        # blocks of 16 directions: trial 37 is the sixth of the third block
        monkeypatch.setattr(widths, "thread_count", lambda: threads)
        direction = substream(9).standard_normal((38, 4096))[37]
        marked = lambda dirs: np.where(dirs[:, 0] == direction[0], np.nan, dirs[:, 0])
        oracle = SupportOracle(4096, evaluate_batch=marked, label="nan-at-37")
        before = threading.active_count()
        with pytest.raises(OracleFailureError, match=r"oracle nan-at-37 returned a non-finite value at trial 37$") as err:
            width_via_oracle(oracle, 200, seed=9)
        assert err.value.direction.tobytes() == direction.tobytes()
        assert threading.active_count() == before

    def test_a_draw_error_propagates_and_stops_the_thread(self, monkeypatch):
        monkeypatch.setattr(widths, "thread_count", lambda: 2)
        error, calls = MemoryError("third block"), []

        def draw(take):
            calls.append(take)
            if len(calls) == 3:
                raise error
            return np.zeros(take)

        before = threading.active_count()
        with pytest.raises(MemoryError) as caught:
            widths._run_drawn_trials(20, 4, draw, lambda start, block: block)
        assert caught.value is error
        assert threading.active_count() == before


def _moment_arrays():
    """1-D float arrays of 2 or more values at scales 1e-300 to 1e300,
    constant or spread, with sizes around _TRIAL_CHUNK."""
    size = st.one_of(st.integers(2, 40), st.sampled_from([63, 64, 65, 127, 128, 129, 1000]))
    return st.tuples(
        size,
        st.integers(-300, 300),
        st.sampled_from(["gaussian", "constant", "offset", "one-off"]),
        st.integers(0, 2**32 - 1),
    )


def _draw_moment_array(size, exponent, kind, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    if kind == "constant":
        return np.full(size, scale * rng.standard_normal())
    if kind == "offset":  # a large mean with a small spread
        return scale * (1.0 + 1e-9 * rng.standard_normal(size))
    if kind == "one-off":  # one entry away from a constant rest
        values = np.full(size, scale)
        values[rng.integers(size)] *= 1.0 + rng.random()
        return values
    return scale * rng.standard_normal(size)


def _gate_cases():
    """(values, in place) on each side of each bound of widths._estimate."""
    spread = 2.0**-400
    top = 2.0**499  # 2^500 / sqrt(4)
    return [
        (np.array([0.0, spread]), True),
        (np.array([0.0, np.nextafter(spread, 0.0)]), False),
        (np.array([1.0, 1.0 + 2.0**-52]), True),
        (np.array([top, 0.0, 0.0, -top]), True),
        (np.array([np.nextafter(top, np.inf), 0.0, 0.0, 0.0]), False),
        (np.array([0.0, 0.0, 0.0, -np.nextafter(top, np.inf)]), False),
        (np.array([3.0, 3.0, 3.0]), False),
        (np.array([1e-310, 1e-310, 2e-310]), False),
        (np.array([1e308, -1e308]), False),
        (np.array([1.0, np.nan, 2.0]), False),
        (np.array([1.0, np.inf]), False),
    ]


class TestMomentsInPlace:
    """widths._mean_and_var and widths._estimate replay numpy's moments and
    from_values bit for bit, writing over the values only where from_values
    is certain to keep its plain moments."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_moment_arrays())
    def test_mean_and_var_equal_numpy(self, case):
        values = _draw_moment_array(*case)
        with np.errstate(over="ignore", under="ignore"):
            want_mean, want_var, want_std = values.mean(), values.var(ddof=1), values.std(ddof=1)
            mean, var = widths._mean_and_var(values.copy())
        assert (mean.hex(), var.hex()) == (float(want_mean).hex(), float(want_var).hex())
        assert math.sqrt(var).hex() == float(want_std).hex()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_moment_arrays(), keep=st.booleans())
    def test_estimate_equals_from_values(self, case, keep):
        values = _draw_moment_array(*case)
        self.check_estimate(values, keep)

    @pytest.mark.parametrize("index", range(len(_gate_cases())))
    def test_each_side_of_each_gate_bound(self, index):
        values, in_place = _gate_cases()[index]
        owned = self.check_estimate(values, keep=False)
        assert (owned.tobytes() != values.tobytes()) == in_place

    @staticmethod
    def check_estimate(values, keep):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = widths.WidthEstimate.from_values(values, 5, keep)
            owned = values.copy()
            got = widths._estimate(owned, 5, keep)
        assert (got.mean.hex(), got.std_error.hex()) == (want.mean.hex(), want.std_error.hex())
        assert (got.trials, got.seed) == (want.trials, want.seed)
        assert (got.per_trial_values is owned) if keep else got.per_trial_values is None
        return owned

    @pytest.mark.parametrize(
        "call",
        [lambda keep: width_via_oracle(l2_ball_oracle(3), 70_000, 2, keep),
         lambda keep: width_base_psd(5, 300, 2, keep),
         lambda keep: width_general_dual(_REPRO_FAMILY, 130, 2, keep)],
        ids=["oracle", "base-psd", "general-dual"],
    )
    def test_estimators_give_the_kept_values_moments(self, call):
        kept, dropped = call(True), call(False)
        assert (dropped.mean.hex(), dropped.std_error.hex()) == (kept.mean.hex(), kept.std_error.hex())


class TestConcentration:
    def test_alpha_zero_degenerate(self):
        result = concentration_check(l2_ball_oracle(5), 0.0, 2000, seed=3)
        assert result.bound == 1.0
        assert result.empirical > 0.99

    @pytest.mark.parametrize("alpha,bound", [(1.0, 0.9235), (3.0, 0.4887)])
    def test_ball_dimension_50(self, alpha, bound):
        result = concentration_check(l2_ball_oracle(50), alpha, 100_000, seed=5)
        assert abs(result.bound - bound) < 5e-4
        assert result.empirical <= result.bound

    def test_seeded_result_keeps_its_bits(self):
        # the frequency reads the values after their moments, so the moments
        # must leave them as drawn
        result = concentration_check(l2_ball_oracle(5), 0.3, 100_000, seed=7)
        assert result.empirical.hex() == "0x1.6e8d10f51ac9bp-2"  # 0.35796
        assert result.estimate.mean.hex() == "0x1.1050f337f7b9dp+1"
        assert result.estimate.std_error.hex() == "0x1.1c60949a7e24ep-9"
        assert (result.estimate.trials, result.estimate.seed) == (100_000, 7)

    def test_values_outside_the_plain_gate_take_the_mean_of_from_values(self):
        # radius 2^600 puts every value past 2^500 / sqrt(T), so the mean the
        # frequency compares against comes from WidthEstimate.from_values
        ball = l2_ball_oracle(3, 2.0**600)
        result = concentration_check(ball, 0.3, 2000, seed=4)
        values = width_via_oracle(ball, 2000, 4).per_trial_values
        assert not widths._plain_moments(values)
        estimate = width_via_oracle(ball, 2000, 4, keep_values=False)
        assert bits([result.estimate.mean, result.estimate.std_error]) == bits([estimate.mean, estimate.std_error])
        outside = (values > 1.3 * estimate.mean) | (values < 0.7 * estimate.mean)
        assert 0.0 < result.empirical == float(outside.mean())

    def test_alpha_validation(self):
        with pytest.raises(InvalidArgumentError):
            concentration_check(l2_ball_oracle(3), -0.5, 100, seed=0)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, "0.5", None, 1j, True])
    def test_alpha_must_be_a_nonnegative_number(self, alpha):
        with pytest.raises(InvalidArgumentError, match="alpha"):
            concentration_check(l2_ball_oracle(3), alpha, 100, seed=0)


# every estimator, as a function of its trial count and seed
_COUNTED = {
    "base_psd": lambda trials, seed: width_base_psd(4, trials, seed),
    "sparse_dual": lambda trials, seed: width_dual_base_sparse(5, 2, trials, seed),
    "sparse_dual_greedy": lambda trials, seed: width_dual_base_sparse(6, 2, trials, seed, mode="greedy"),
    "general_dual": lambda trials, seed: width_general_dual(coordinate_family(4, 2), trials, seed),
    "oracle": lambda trials, seed: width_via_oracle(l2_ball_oracle(3), trials, seed),
    "concentration": lambda trials, seed: concentration_check(l2_ball_oracle(3), 0.5, trials, seed).estimate,
}


class TestIntegerCounts:
    """Trial counts and seeds are Python or numpy integers: a bool, a
    non-integral float or a str is refused, not rounded or parsed."""

    @pytest.mark.parametrize("name", sorted(_COUNTED))
    @pytest.mark.parametrize("trials", [True, 10.5, 10.0, np.float64(10.0), "12"])
    def test_trials_must_be_an_integer(self, name, trials):
        with pytest.raises(InvalidArgumentError, match="trials must be an integer"):
            _COUNTED[name](trials, 3)

    @pytest.mark.parametrize("name", sorted(_COUNTED))
    @pytest.mark.parametrize("seed", [True, 3.7, 3.0, "12"])
    def test_seed_must_be_an_integer(self, name, seed):
        # 3.7 used to run seed 3's stream and echo seed=3.7
        with pytest.raises(ValueError, match="seed must be an integer"):
            _COUNTED[name](10, seed)

    @pytest.mark.parametrize("n", [2.5, 4.0, True])
    def test_matrix_dimension_must_be_an_integer(self, n):
        with pytest.raises(InvalidDimensionError, match="dimension must be an integer"):
            width_base_psd(n, 4, 1)

    @pytest.mark.parametrize("name", sorted(_COUNTED))
    def test_numpy_integers_give_the_python_integer_bits(self, name):
        want = _COUNTED[name](70, 3)
        for trials, seed in ((np.int64(70), np.uint64(3)), (np.int16(70), np.int8(3))):
            got = _COUNTED[name](trials, seed)
            assert (got.mean, got.std_error, got.trials) == (want.mean, want.std_error, want.trials)
            assert got.per_trial_values is None or got.per_trial_values.tobytes() == want.per_trial_values.tobytes()


class TestKappa:
    def test_low_dimensions(self):
        assert abs(kappa(1) - math.sqrt(2 / math.pi)) < 1e-14
        assert abs(kappa(2) - math.sqrt(math.pi / 2)) < 1e-14

    def test_bracketed_by_sqrt_bounds(self):
        for d in (1, 2, 9, 50, 400):
            assert math.sqrt(d - 0.5) <= kappa(d) <= math.sqrt(d - d / (2 * d + 1))

    @pytest.mark.parametrize("d", [math.nan, math.inf, 2.5, 3.0, True, "3", 0])
    def test_rejects_a_dimension_that_is_not_an_integer_of_at_least_one(self, d):
        with pytest.raises(InvalidArgumentError, match="dimension"):
            kappa(d)


class TestWidthRatioHook:
    def test_feeds_counting_bound_rate(self):
        from psdbounds.bounds import phi

        # the finite-n width of the PSD base relative to sqrt(2n), clipped into (0, 1]
        ratio = min(width_base_psd(30, 400, seed=61, keep_values=False).mean / math.sqrt(60), 1.0)
        assert 0.85 <= ratio <= 1.0
        # finite-n ratio can only weaken the asymptotic rate
        assert phi(30, 3, 0.0, width_ratio=ratio) <= phi(30, 3, 0.0)
