import gc
import itertools
import math
import sys
import threading
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
from psdbounds.linalg import SymmetricMatrix, sample_standard_gaussian_sym
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

from _oracles import (
    brute_max_ksparse_lambda1,
    nan_identity,
    reference_general_dual,
    reference_greedy_k_sparse,
    reference_max_lambda1_subsets,
    reference_swap_ascent,
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
            G.entry(i, i) for i in range(7)
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

    def test_cap_and_mode_validation(self):
        G = sample_standard_gaussian_sym(12, 0)
        with pytest.raises(EnumerationLimitError):
            k_sparse_largest_eigenvalue(G, 6, cap=10)
        with pytest.raises(InvalidArgumentError):
            k_sparse_largest_eigenvalue(G, 6, mode="annealing")

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


class TestGreedyAgainstReference:
    """The lockstep, memoized swap ascent returns the bits of the one-list-
    per-candidate search it replaced, ties included."""

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
        got = cones._greedy_k_sparse(dense, k)
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
        got = cones._greedy_k_sparse(dense, k)
        assert bits(got) == bits(reference_greedy_k_sparse(dense, k))

    @pytest.mark.parametrize("kind", ["gaussian", "blocks"])
    def test_bits_equal_reference_beyond_63_dimensions(self, kind):
        dense = tie_heavy_or_gaussian(kind, 70, 3)
        got = cones._greedy_k_sparse(dense, 3)
        assert np.float64(got).tobytes() == np.float64(reference_greedy_k_sparse(dense, 3)).tobytes()

    def test_lockstep_ascents_equal_one_at_a_time(self):
        dense = tie_heavy_or_gaussian("signed graph", 14, 203)
        starts = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [9, 10, 11, 12, 13], [2, 5, 7, 8, 13]])
        got = cones._swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts.tolist()]

    def test_a_swap_gaining_exactly_the_threshold_ends_the_ascent(self):
        # from {0, 1} (value 0) the best swap brings in coordinate 2, worth
        # exactly 0 + 1e-12; only past it lies the block {2, 3} with value 5
        dense = np.zeros((6, 6))
        dense[2, 2] = 1e-12
        dense[2, 3] = dense[3, 2] = 5.0
        assert cones._swap_ascents(dense, [[0, 1]]) == [0.0]
        assert reference_swap_ascent(dense, [0, 1]) == 0.0

    def test_a_swap_one_ulp_past_the_threshold_moves(self):
        # the {0, 2} block's lambda_1 is computed one ulp above 0 + 1e-12; the
        # screen's LDL alone, without its margin, would clear it by rounding
        dense = np.zeros((4, 4))
        dense[0, 2] = dense[2, 0] = 1.1879262898402614e-12
        dense[2, 2] = -4.111688700936489e-13
        [got] = cones._swap_ascents(dense, [[0, 1]])
        assert got == reference_swap_ascent(dense, [0, 1]) == 1.0000000000000002e-12

    def test_each_ascent_screens_at_its_own_threshold(self):
        # ascent 0 sits at lambda_1 = 10; ascent 1 starts at 0, and only the
        # two swaps bringing in coordinate 2 gain, worth 1: at ascent 0's
        # threshold the screen would clear both
        dense = np.zeros((6, 6))
        dense[4, 5] = dense[5, 4] = 10.0
        dense[2, 2] = 1.0
        starts = [[4, 5], [0, 1]]
        got = cones._swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts]
        assert got[1] == 1.0

    def test_solves_each_swap_candidate_once_per_matrix(self, monkeypatch):
        dense = tie_heavy_or_gaussian("gaussian", 12, 7)
        calls = []
        gather = cones.principal_submatrices

        def recording(d, idx):
            calls.append(np.array(idx))
            return gather(d, idx)

        monkeypatch.setattr(cones, "principal_submatrices", recording)
        cones._greedy_k_sparse(dense, 4)
        # the first three calls grow the start support to 2, 3 and 4 members,
        # the fourth solves the 21 ascent starts
        assert len(calls[3]) == 21
        swaps = [tuple(row) for idx in calls[4:] for row in idx]
        assert swaps and len(swaps) == len(set(swaps))

    def test_screen_keeps_most_swap_candidates_from_the_gather(self, monkeypatch):
        # the memoized ascent without the screen, counted by making the
        # screen clear nothing, against the screened one
        dense = sample_standard_gaussian_sym(20, 5).to_dense()
        gathered = []
        gather = cones.principal_submatrices
        counting = lambda d, idx: gathered.append(len(idx)) or gather(d, idx)
        monkeypatch.setattr(cones, "principal_submatrices", counting)
        screened_value = cones._greedy_k_sparse(dense, 4)
        screened = sum(gathered)
        gathered.clear()
        monkeypatch.setattr(cones, "screen_clears", lambda *args: np.zeros(len(args[1]), dtype=bool))
        assert cones._greedy_k_sparse(dense, 4) == screened_value
        assert screened < sum(gathered) / 2


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

    def test_enumeration_cap_is_checked_before_any_draw(self):
        # C(40, 20) is past the default cap; greedy mode needs no enumeration
        with mock.patch.object(widths, "gaussian_sym_batch", side_effect=AssertionError("drew a trial")):
            with pytest.raises(EnumerationLimitError, match=r"C\(40,20\) = .*; use greedy mode"):
                width_dual_base_sparse(40, 20, 10, seed=1)
        assert width_dual_base_sparse(40, 20, 2, seed=1, mode="greedy").trials == 2

    def test_trial_values_past_memory_fail_before_any_draw(self, monkeypatch):
        # the value array is allocated first; 2^56 trials need 512 PiB
        monkeypatch.setattr(widths, "thread_count", lambda: 1)
        monkeypatch.setattr(widths, "gaussian_sym_batch", mock.Mock(side_effect=AssertionError("drew a trial")))
        with pytest.raises(MemoryError):
            width_dual_base_sparse(6, 3, 2**56, seed=4)
        with pytest.raises(MemoryError):
            width_base_psd(2, 2**56, seed=4)


class TestGreedyRestartCache:
    @pytest.fixture(autouse=True)
    def cold(self):
        cones._greedy_restarts.cache_clear()
        cones._subset_table.cache_clear()
        yield
        cones._greedy_restarts.cache_clear()

    @pytest.mark.parametrize("n, k", [(9, 4), (20, 4), (14, 13)])
    def test_cached_restarts_equal_a_fresh_draw(self, n, k):
        fresh = cones.k_subsets(cones.substream(cones._GREEDY_STREAM_KEY), n, k, 20)
        cached = cones._greedy_restarts(n, k)
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)
        assert not cached.flags.writeable
        assert cones._greedy_restarts(n, k) is cached
        info = cones._greedy_restarts.cache_info()
        assert (info.misses, info.hits) == (1, 1) and info.maxsize >= 32

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    def test_pool_threads_filling_a_cold_cache_agree(self, mode, monkeypatch):
        # more workers than cores, switching often, all missing the caches at once
        want = width_dual_base_sparse(9, 4, 300, seed=6, mode=mode).per_trial_values
        cones._greedy_restarts.cache_clear()
        cones._subset_table.cache_clear()
        monkeypatch.setattr(widths, "thread_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = width_dual_base_sparse(9, 4, 300, seed=6, mode=mode).per_trial_values
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    def test_cold_and_warm_runs_give_the_same_bits(self, mode):
        mats = [sample_standard_gaussian_sym(n, seed) for n, seed in [(9, 1), (11, 2), (14, 3)]]
        shapes = [(G, k) for G in mats for k in (2, 4, G.dim - 1)]
        cold = [bits(k_sparse_largest_eigenvalue(G, k, mode)) for G, k in shapes]
        assert [bits(k_sparse_largest_eigenvalue(G, k, mode)) for G, k in shapes] == cold
        cones._greedy_restarts.cache_clear()
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
    def test_scalar_and_batch_paths_agree(self, make):
        # an oracle wrapped without its batch gives the same widths bit for bit
        batched = make()
        scalar = SupportOracle(dim=batched.dim, evaluate=batched.evaluate)
        a = width_via_oracle(batched, 2000, seed=29)
        b = width_via_oracle(scalar, 2000, seed=29)
        assert a.per_trial_values.tobytes() == b.per_trial_values.tobytes()
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_an_oracle_needs_a_formula(self):
        with pytest.raises(InvalidArgumentError, match="evaluate or evaluate_batch"):
            SupportOracle(3, label="empty")

    def test_an_evaluate_that_is_not_scalar_is_named(self):
        # the batch is derived from evaluate, so the error names evaluate
        oracle = SupportOracle(2, evaluate=lambda g: np.array([1.0, 2.0]))
        with pytest.raises(OracleFailureError, match=r"^evaluate returned shape \(2,\), expected \(\)$") as err:
            width_via_oracle(oracle, 5, 1)
        assert err.value.direction.shape == (2,)

    def test_nonfinite_oracle_reports_direction(self):
        bad = SupportOracle(dim=2, evaluate=lambda g: float("nan"), label="broken")
        with pytest.raises(OracleFailureError) as err:
            width_via_oracle(bad, 10, seed=1)
        assert err.value.direction is not None and err.value.direction.shape == (2,)

    def test_positive_homogeneity_of_builtin_oracles(self, rng):
        for oracle in (l2_ball_oracle(3), l1_ball_oracle(3), ellipsoid_oracle([2, 1, 3])):
            g = rng.standard_normal(3)
            for t in (0.5, 2.0, 7.0):
                assert abs(oracle.evaluate(t * g) - t * oracle.evaluate(g)) < 1e-10

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

    def test_scaled_ellipsoid_batch_and_scalar_paths_agree(self):
        g = np.array([[3.0, 4.0], [1e-10, -2.0]])
        for axes, expected in (([1e-200, 1e-200], [5e-200, 2e-200]), ([1e200, 1e200], [5e200, 2e200])):
            oracle = ellipsoid_oracle(axes)
            assert np.allclose(oracle.evaluate_batch(g), expected, rtol=1e-15)
            assert np.allclose([oracle.evaluate(row) for row in g], expected, rtol=1e-15)

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
}


def _same_estimate(a, b):
    return (
        np.array_equal(a.per_trial_values.view(np.uint64), b.per_trial_values.view(np.uint64))
        and (a.mean, a.std_error, a.trials) == (b.mean, b.std_error, b.trials)
    )


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

    def test_alpha_validation(self):
        with pytest.raises(InvalidArgumentError):
            concentration_check(l2_ball_oracle(3), -0.5, 100, seed=0)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, "0.5", None, 1j, True])
    def test_alpha_must_be_a_nonnegative_number(self, alpha):
        with pytest.raises(InvalidArgumentError, match="alpha"):
            concentration_check(l2_ball_oracle(3), alpha, 100, seed=0)


class TestKappa:
    def test_low_dimensions(self):
        assert abs(kappa(1) - math.sqrt(2 / math.pi)) < 1e-14
        assert abs(kappa(2) - math.sqrt(math.pi / 2)) < 1e-14

    def test_bracketed_by_sqrt_bounds(self):
        for d in (1, 2, 9, 50, 400):
            assert math.sqrt(d - 0.5) <= kappa(d) <= math.sqrt(d - d / (2 * d + 1))


class TestWidthRatioHook:
    def test_feeds_counting_bound_rate(self):
        from psdbounds.bounds import phi
        from psdbounds.widths import base_psd_width_ratio

        ratio = base_psd_width_ratio(30, 400, seed=61)
        assert 0.85 <= ratio <= 1.0
        # finite-n ratio can only weaken the asymptotic rate
        assert phi(30, 3, 0.0, width_ratio=ratio) <= phi(30, 3, 0.0)
