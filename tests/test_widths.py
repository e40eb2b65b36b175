import itertools
import math
import os
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

from psdbounds import widths

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
        monkeypatch.setenv("PSDB_THREADS", "4")
        b = width_base_psd(6, 100, seed=3)
        monkeypatch.setenv("PSDB_THREADS", "1")
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
        got = widths._greedy_k_sparse(dense, k)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(reference_greedy_k_sparse(dense, k)).tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "blocks"])
    def test_bits_equal_reference_beyond_63_dimensions(self, kind):
        dense = tie_heavy_or_gaussian(kind, 70, 3)
        got = widths._greedy_k_sparse(dense, 3)
        assert np.float64(got).tobytes() == np.float64(reference_greedy_k_sparse(dense, 3)).tobytes()

    def test_lockstep_ascents_equal_one_at_a_time(self):
        dense = tie_heavy_or_gaussian("signed graph", 14, 203)
        starts = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [9, 10, 11, 12, 13], [2, 5, 7, 8, 13]])
        got = widths._swap_ascents(dense, starts)
        assert got == [reference_swap_ascent(dense, s) for s in starts.tolist()]

    def test_a_swap_gaining_exactly_the_threshold_ends_the_ascent(self):
        # from {0, 1} (value 0) the best swap brings in coordinate 2, worth
        # exactly 0 + 1e-12; only past it lies the block {2, 3} with value 5
        dense = np.zeros((6, 6))
        dense[2, 2] = 1e-12
        dense[2, 3] = dense[3, 2] = 5.0
        assert widths._swap_ascents(dense, [[0, 1]]) == [0.0]
        assert reference_swap_ascent(dense, [0, 1]) == 0.0

    def test_solves_each_swap_candidate_once_per_matrix(self, monkeypatch):
        dense = tie_heavy_or_gaussian("gaussian", 12, 7)
        calls = []
        gather = widths.principal_submatrices

        def recording(d, idx):
            calls.append(np.array(idx))
            return gather(d, idx)

        monkeypatch.setattr(widths, "principal_submatrices", recording)
        widths._greedy_k_sparse(dense, 4)
        # the first three calls grow the start support to 2, 3 and 4 members,
        # the fourth solves the 21 ascent starts
        assert len(calls[3]) == 21
        swaps = [tuple(row) for idx in calls[4:] for row in idx]
        assert swaps and len(swaps) == len(set(swaps))


def exhaustive_case(kind, n, seed):
    """A test matrix for the bound-ordered exhaustive search."""
    rng = np.random.default_rng(seed)
    if kind == "g_abn":  # spectrum {a, b^(n-1)}: Wolkowicz-Styan is tight on every block
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
    """The bound-ordered search returns the bits of solving every block."""

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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        shape=st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
        kind=st.sampled_from(_EXHAUSTIVE_KINDS),
        scale=st.sampled_from(_SCALES + [1e-320]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Wolkowicz-Styan equals lambda_1 on g_abn blocks, so only the slack
    # keeps the computed bound above the computed eigenvalue
    @example(shape=(6, 4), kind="g_abn", scale=1.0, seed=0)
    @example(shape=(9, 2), kind="g_abn", scale=1.0, seed=1)
    @example(shape=(9, 8), kind="g_abn", scale=1e150, seed=2)
    @example(shape=(7, 5), kind="g_abn", scale=1e-300, seed=3)
    def test_bounds_cover_every_computed_eigenvalue(self, shape, kind, scale, seed):
        n, k = shape
        dense = exhaustive_case(kind, max(n, 3), seed)[:n, :n] * scale
        idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        blocks = dense[idx[:, :, None], idx[:, None, :]]
        bound = widths._lambda1_upper_bounds(blocks, float(np.abs(dense).max()))
        assert (bound >= np.linalg.eigvalsh(blocks)[:, -1]).all()


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 10),
        k_pick=st.sampled_from(["one", "n", "mid"]),
        count=st.sampled_from([1, 2, 7, 100]),
        trials=st.integers(2, 140),
        seed=st.integers(0, 2**64 - 1),
        threads=st.sampled_from(["1", "2"]),
        stack_trials=st.sampled_from([None, 1, 5]),
    )
    @example(n=10, k_pick="n", count=100, trials=130, seed=2**64 - 1, threads="2", stack_trials=None)
    @example(n=1, k_pick="one", count=7, trials=65, seed=0, threads="1", stack_trials=None)
    @example(n=6, k_pick="mid", count=2, trials=129, seed=3, threads="2", stack_trials=5)
    def test_bits_equal_the_per_trial_reference(self, n, k_pick, count, trials, seed, threads, stack_trials):
        k = {"one": 1, "n": n, "mid": max(1, n // 2)}[k_pick]
        family = random_family(n, k, count, np.random.default_rng(n * 1000 + count))
        # stack_trials: trials per eigvalsh call, to cover the split of a chunk
        limit = widths._DUAL_STACK_BYTES if stack_trials is None else stack_trials * count * k * k * 8
        with mock.patch.dict(os.environ, {"PSDB_THREADS": threads}), mock.patch.object(
            widths, "_DUAL_STACK_BYTES", limit
        ):
            values = width_general_dual(family, trials, seed).per_trial_values
        expected = reference_general_dual(family.stacked(), trials, seed)
        assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


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

    def test_scalar_and_batch_paths_agree(self):
        batched = ellipsoid_oracle([1.5, 0.5, 2.0])
        scalar = SupportOracle(dim=3, evaluate=batched.evaluate)
        a = width_via_oracle(batched, 500, seed=29)
        b = width_via_oracle(scalar, 500, seed=29)
        assert np.allclose(a.per_trial_values, b.per_trial_values, rtol=1e-15)

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

    def test_zero_radius_is_a_point(self):
        assert width_via_oracle(l2_ball_oracle(3, 0.0), 10, seed=1).mean == 0.0

    @pytest.mark.parametrize("axes", [[1.0, -2.0], [0.0, 1.0], [math.inf, 1.0], [math.nan, 1.0], []])
    def test_ellipsoid_rejects_bad_axes(self, axes):
        with pytest.raises(InvalidArgumentError, match="semi-axes"):
            ellipsoid_oracle(axes)


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
        monkeypatch.setenv("PSDB_THREADS", "1")
        one = _REPRO_ESTIMATORS[name](200)
        monkeypatch.setenv("PSDB_THREADS", "2")
        two = _REPRO_ESTIMATORS[name](200)
        assert _same_estimate(one, two)

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
