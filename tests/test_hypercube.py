import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds import hypercube
from psdbounds._rng import substream
from psdbounds.errors import (
    InvalidArgumentError,
    NumericalFailureError,
    PreconditionError,
    SizeLimitError,
)
from psdbounds.linalg import _project_traceless_stack, gaussian_sym, gaussian_sym_batch, project_traceless
from psdbounds.hypercube import (
    FourierExpansion,
    HypercubeFunction,
    all_vertices,
    fourier_transform,
    harmonic_bound_check,
    hypercontractivity_check,
    inverse_fourier,
    proj2_norm,
    project_degree,
    q_poly_moments,
    random_bounded_function,
    variance_identity_check,
    vertex,
)

from _oracles import naive_fourier, proj2_quadratic_form, reference_wht


def hf(n, values):
    return HypercubeFunction(n, np.asarray(values, dtype=float))


def noise(f, rho):
    """T_rho f, by the kernel of the hypercontractivity suites."""
    return hf(f.n, hypercube._noise_stack(f.values[None], rho)[0])


def norm(f, p):
    """||f||_p, the right side of the hypercontractivity check."""
    return hypercontractivity_check(f, 1.0, p)[1]


def chi(n, mask):
    """Character function for a subset mask."""
    idx = np.arange(1 << n, dtype=np.uint32)
    parity = np.bitwise_count(idx & np.uint32(mask)) % 2
    return hf(n, 1.0 - 2.0 * parity)


def random_integer_function(n, rng, span=8):
    return hf(n, rng.integers(-span, span + 1, size=1 << n).astype(float))


class TestVertexConvention:
    def test_index_zero_is_all_plus_ones(self):
        assert np.array_equal(vertex(4, 0), np.ones(4))

    def test_set_bit_flips_matching_coordinate(self):
        v = vertex(4, 0b0101)
        assert np.array_equal(v, [-1.0, 1.0, -1.0, 1.0])

    def test_coordinates_are_the_bits_of_the_index(self):
        for idx in range(16):
            bits = [(idx >> b) & 1 for b in range(4)]
            assert vertex(4, idx).tolist() == [1.0 - 2.0 * bit for bit in bits]

    def test_all_vertices_agree_with_vertex(self):
        table = all_vertices(3)
        for idx in range(8):
            assert np.array_equal(table[idx], vertex(3, idx))

    @pytest.mark.parametrize("index", [2.5, 2.0, True, np.True_, "2"])
    def test_non_integer_index_is_rejected(self, index):
        # 2.5 used to end in a numpy TypeError, True to give vertex 1
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            vertex(3, index)

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
    def test_numpy_integer_index_gives_the_int_result(self, kind):
        for idx in range(8):
            assert vertex(3, kind(idx)).tobytes() == vertex(3, idx).tobytes()


class TestFourierTransform:
    def test_constant_function(self):
        exp = fourier_transform(hf(3, np.ones(8)))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(exp.coefficients, expected)

    def test_single_character(self):
        exp = fourier_transform(chi(2, 0b11))
        expected = np.zeros(4)
        expected[0b11] = 1.0
        assert np.array_equal(exp.coefficients, expected)

    def test_matches_naive_definition(self, rng):
        values = rng.standard_normal(256)
        exp = fourier_transform(hf(8, values))
        assert np.allclose(exp.coefficients, naive_fourier(values), atol=1e-10)

    def test_inverse_recovers_function(self, rng):
        f = hf(8, rng.standard_normal(256))
        back = inverse_fourier(fourier_transform(f))
        assert np.allclose(back.values, f.values, rtol=1e-10, atol=1e-12)

    def test_parseval(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 11))
            f = hf(n, rng.standard_normal(1 << n))
            exp = fourier_transform(f)
            lhs = float((f.values**2).mean())
            rhs = float((exp.coefficients**2).sum())
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)

    @pytest.mark.parametrize("n", [25, 0, 2.5, 2.0, True, "2"])
    def test_size_limit(self, n):
        with pytest.raises(SizeLimitError):
            HypercubeFunction(n, np.zeros(4))


def laid_out(stack, layout):
    """The values of stack in another memory layout."""
    if layout == "F":
        return np.asfortranarray(stack)
    if layout == "strided":  # every other element of a twice-as-long last axis
        wide = np.zeros(stack.shape[:-1] + (2 * stack.shape[-1],))
        wide[..., ::2] = stack
        return wide[..., ::2]
    if layout == "reversed rows":
        return np.ascontiguousarray(stack[::-1])[::-1]
    return stack


class TestTransformStacks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 10),
        lead=st.sampled_from([(), (1,), (5,), (2, 3), (33,)]),
        layout=st.sampled_from(["C", "F", "strided", "reversed rows"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, lead=(32,), layout="F", seed=0)
    def test_every_row_equals_the_one_table_transform(self, n, lead, layout, seed):
        stack = np.random.default_rng(seed).standard_normal(lead + (1 << n,))
        got = hypercube._wht(laid_out(stack, layout))
        rows = stack.reshape(-1, 1 << n)
        want = np.stack([reference_wht(row) for row in rows]).reshape(stack.shape)
        assert got.shape == stack.shape and got.tobytes() == want.tobytes()


class TestDegreeProjection:
    def test_degree_zero_is_mean(self, rng):
        f = hf(5, rng.standard_normal(32))
        proj = project_degree(f, 0)
        assert np.allclose(proj.values, f.values.mean())

    def test_character_projections(self):
        f = chi(4, 0b0110)
        assert np.allclose(project_degree(f, 2).values, f.values)
        for d in (0, 1, 3, 4):
            assert np.allclose(project_degree(f, d).values, 0.0)

    def test_idempotent(self, rng):
        f = hf(6, rng.standard_normal(64))
        once = project_degree(f, 2)
        twice = project_degree(once, 2)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_degree_decomposition_complete_exactly(self, rng):
        # integer tables keep every transform step exact in binary floats
        f = random_integer_function(6, rng)
        total = np.zeros(64)
        for d in range(7):
            total += project_degree(f, d).values
        assert np.array_equal(total, f.values)

    def test_degree_bounds(self):
        f = hf(3, np.ones(8))
        with pytest.raises(InvalidArgumentError):
            project_degree(f, 4)

    def test_fractional_degree_is_rejected(self):
        # 2.5 used to match no degree and return the zero function
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            project_degree(chi(3, 0b011), 2.5)

    def test_bool_degree_is_rejected(self):
        # True used to compare equal to 1 and return the degree-1 part
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            project_degree(chi(3, 0b001), True)

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
    def test_numpy_integer_degree_gives_the_int_result(self, rng, kind):
        f = hf(4, rng.standard_normal(16))
        for d in range(5):
            assert project_degree(f, kind(d)).values.tobytes() == project_degree(f, d).values.tobytes()


class TestNoiseOperator:
    def test_identity_at_rho_one(self, rng):
        f = random_integer_function(5, rng)
        assert np.array_equal(noise(f, 1.0).values, f.values)

    def test_collapses_to_mean_at_rho_zero(self, rng):
        f = hf(5, rng.standard_normal(32))
        assert np.allclose(noise(f, 0.0).values, f.values.mean())

    def test_halves_characters_per_degree(self):
        f = chi(4, 0b0111)
        assert np.array_equal(noise(f, 0.5).values, 0.125 * f.values)

    def test_semigroup_exact_on_coefficients(self, rng):
        # dyadic attenuation factors keep coefficient arithmetic exact
        f = random_integer_function(6, rng)
        a = fourier_transform(noise(noise(f, 0.5), 0.25))
        b = fourier_transform(noise(f, 0.125))
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_semigroup_generic_rho(self, rng):
        f = hf(5, rng.standard_normal(32))
        a = fourier_transform(noise(noise(f, 0.3), 0.7))
        b = fourier_transform(noise(f, 0.21))
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-14)

    def test_rho_validation(self):
        with pytest.raises(InvalidArgumentError, match="rho"):
            hypercontractivity_check(hf(2, np.ones(4)), 1.5, 2.0)


class TestNorms:
    def test_constant(self):
        f = hf(3, -2.5 * np.ones(8))
        for p in (1.0, 2.0, 4.0, 7.5):
            assert abs(norm(f, p) - 2.5) < 1e-14

    def test_characters_have_unit_norms(self):
        f = chi(5, 0b10101)
        for p in (1.0, 2.0, 3.0):
            assert abs(norm(f, p) - 1.0) < 1e-14

    def test_monotone_in_p(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            f = hf(n, rng.standard_normal(1 << n))
            n1, n2, n4 = norm(f, 1), norm(f, 2), norm(f, 4)
            assert n1 <= n2 + 1e-12 and n2 <= n4 + 1e-12


class TestHypercontractivity:
    def test_rho_one_gives_equality(self, rng):
        f = hf(4, rng.standard_normal(16))
        lhs, rhs, holds = hypercontractivity_check(f, 1.0, 2.0)
        assert holds and abs(lhs - rhs) < 1e-12

    def test_constant_function(self):
        lhs, rhs, holds = hypercontractivity_check(hf(3, np.ones(8)), 0.5, 2.0)
        assert holds and abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12

    def test_random_functions(self, rng):
        for trial in range(100):
            n = int(rng.integers(1, 11))
            f = hf(n, rng.standard_normal(1 << n))
            for rho in (0.3, 0.7):
                _, _, holds = hypercontractivity_check(f, rho, 2.0)
                assert holds


class TestLemmaParameters:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_lam_must_be_finite(self, lam):
        with pytest.raises(InvalidArgumentError, match="lam"):
            harmonic_bound_check(hf(2, np.zeros(4)), lam)
        with pytest.raises(InvalidArgumentError, match="lam"):
            random_bounded_function(3, lam, substream(1))

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    def test_p_must_be_finite_and_at_least_one(self, p):
        f = hf(2, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidArgumentError, match="p >= 1"):
            hypercontractivity_check(f, 0.5, p)

    @pytest.mark.parametrize("rho, p", [(0.5, 1e308), (1.0, 1e308), (1e-200, 2.0), (1.0, 800.0)])
    def test_overflowing_exponent_or_norm_is_a_numerical_failure(self, rho, p):
        with pytest.raises(NumericalFailureError, match="overflows"):
            hypercontractivity_check(hf(2, [1.0, 2.0, 3.0, 4.0]), rho, p)

    def test_p_one_needs_no_division_by_rho_squared(self):
        # rho^2 underflows to 0, but q = 1 whatever rho is when p = 1
        f = hf(2, [1.0, 2.0, 3.0, 4.0])
        lhs, rhs, holds = hypercontractivity_check(f, 1e-200, 1.0)
        assert holds and lhs == 2.5 and rhs == 2.5


class TestHarmonicBound:
    def test_constant_one(self):
        norm2, _, holds = harmonic_bound_check(hf(4, np.ones(16)), 2.0)
        assert holds and norm2 < 1e-14

    def test_bound_at_threshold_e(self):
        _, bound, _ = harmonic_bound_check(hf(3, np.ones(8)), math.e)
        assert bound == math.e  # e * ln(e)

    def test_case_split(self):
        _, below, _ = harmonic_bound_check(hf(3, np.ones(8)), 2.0)
        assert below == 2.0
        _, above, _ = harmonic_bound_check(hf(3, np.ones(8)), 10.0)
        assert abs(above - math.e * math.log(10.0)) < 1e-14

    def test_precondition_messages(self):
        with pytest.raises(PreconditionError, match="nonnegativity"):
            harmonic_bound_check(hf(2, [-0.1, 0.5, 0.5, 0.5]), 2.0)
        with pytest.raises(PreconditionError, match="pointwise bound"):
            harmonic_bound_check(hf(2, [3.0, 0.0, 0.0, 0.0]), 2.0)
        with pytest.raises(PreconditionError, match="mean bound"):
            harmonic_bound_check(hf(2, [2.0, 2.0, 2.0, 2.0]), 3.0)

    def test_random_valid_functions(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 11))
            lam = float(rng.choice([2.0, 10.0, 100.0]))
            f = random_bounded_function(n, lam, substream(4242, trial))
            _, _, holds = harmonic_bound_check(f, lam)
            assert holds

    @pytest.mark.parametrize("lam", [1e306, 1e308])
    def test_generator_survives_a_mean_past_the_float_range(self, lam):
        # lam 2^10 overflows the plain mean, which once rescaled every value to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = random_bounded_function(10, lam, substream(1, 0))
        assert f.values.min() >= 0.0 and f.values.max() <= lam
        assert f.values.any()
        assert f.values.mean() <= 1.0

    def test_generator_respects_preconditions(self):
        for trial in range(100):
            f = random_bounded_function(6, 10.0, substream(99, trial))
            assert f.values.min() >= 0.0
            assert f.values.max() <= 10.0
            assert f.values.mean() <= 1.0 + 1e-15


class TestProj2QuadraticForm:
    def test_pair_character(self):
        # f = x0 * x1 on three coordinates
        A = proj2_quadratic_form(chi(3, 0b011).values)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.5
        assert np.array_equal(A, expected)

    def test_constant_gives_zero_matrix(self):
        A = proj2_quadratic_form(np.ones(8))
        assert np.array_equal(A, np.zeros((3, 3)))

    def test_zero_diagonal(self, rng):
        A = proj2_quadratic_form(rng.standard_normal(64))
        assert np.array_equal(np.diag(A), np.zeros(6))

    def test_reproduces_degree_two_part_at_every_vertex(self, rng):
        f = hf(8, rng.standard_normal(256))
        A = proj2_quadratic_form(f.values)
        signs = all_vertices(8)
        quad = np.einsum("vi,ij,vj->v", signs, A, signs)
        assert np.allclose(quad, project_degree(f, 2).values, atol=1e-10)

    def test_frobenius_identity(self, rng):
        f = hf(7, rng.standard_normal(128))
        A = proj2_quadratic_form(f.values)
        assert abs((A**2).sum() - proj2_norm(f) ** 2 / 2.0) < 1e-10


class TestProj2Norm:
    def test_plain_norm_has_the_bits_of_the_stack_norm(self, rng):
        stack = rng.standard_normal((3, 1 << 7))
        norms = hypercube._proj2_norms(stack)
        for values, want in zip(stack, norms):
            assert proj2_norm(hf(7, values)) == float(want)

    # the squares of these coefficients overflow; the suite turns every
    # RuntimeWarning into an error
    def test_norm_past_the_float_range_is_taken_scaled(self, rng):
        assert proj2_norm(hf(6, 1e200 * chi(6, 0b011).values)) == 1e200
        values = rng.standard_normal(1 << 10)
        got = proj2_norm(hf(10, 1e200 * values))
        assert math.isclose(got, 1e200 * proj2_norm(hf(10, values)), rel_tol=1e-12)

    def test_coefficients_past_the_float_range_give_a_non_finite_norm(self):
        assert not math.isfinite(proj2_norm(hf(10, np.full(1 << 10, 1.7e308))))


class TestMomentIdentities:
    def test_small_case_explicit(self):
        mean, second = q_poly_moments(3)
        assert mean == 0 and second == 12
        # direct vertex enumeration of E[(x.y)^4] = 21 for n = 3
        signs = all_vertices(3)
        fourth = sum(int(signs[v].sum()) ** 4 for v in range(8)) / 8
        assert fourth == 21

    def test_degenerate_single_coordinate(self):
        assert q_poly_moments(1) == (Fraction(0), Fraction(0))

    @pytest.mark.parametrize("n", [2, 5, 10, 16])
    def test_closed_form(self, n):
        mean, second = q_poly_moments(n)
        assert mean == 0
        assert second == 2 * n * (n - 1)

    def test_y_independence_by_enumeration(self, rng):
        # brute-force the moments against arbitrary sign vectors y
        for n in (2, 5, 8, 12):
            signs = all_vertices(n).astype(np.int64)
            y = 1 - 2 * rng.integers(0, 2, size=n)
            dots = signs @ y
            q = dots * dots - n
            assert int(q.sum()) == 0
            assert Fraction(int((q * q).sum()), 1 << n) == 2 * n * (n - 1)

    @pytest.mark.parametrize("n", [21, 0, 2.5, 3.0, True, "3"])
    def test_size_limit(self, n):
        with pytest.raises(SizeLimitError):
            q_poly_moments(n)


class TestVarianceIdentity:
    def test_constant_function_annihilated(self):
        empirical, theoretical = variance_identity_check(hf(5, np.full(32, 3.0)), 400, seed=1)
        assert theoretical == 0.0
        assert empirical <= 1e-20

    def test_pair_character_theoretical_value(self):
        empirical, theoretical = variance_identity_check(chi(6, 0b011), 10_000, seed=2)
        assert abs(theoretical - 2.0) < 1e-12
        assert abs(empirical / theoretical - 1.0) <= 5 * math.sqrt(2.0 / 10_000)

    def test_random_function_within_band(self, rng):
        f = hf(8, rng.standard_normal(256))
        trials = 4000
        empirical, theoretical = variance_identity_check(f, trials, seed=3)
        assert abs(empirical / theoretical - 1.0) <= 5 * math.sqrt(2.0 / trials)

    def test_deterministic(self):
        f = chi(4, 0b1001)
        a = variance_identity_check(f, 500, seed=7)
        b = variance_identity_check(f, 500, seed=7)
        assert a == b

    def test_size_limit(self):
        big = hf(15, np.zeros(1 << 15))
        with pytest.raises(SizeLimitError):
            variance_identity_check(big, 10, seed=0)

    # the squares of these coefficients and deviations overflow; the suite
    # turns every RuntimeWarning into an error
    @pytest.mark.parametrize(
        "values",
        [1e200 * substream(4).standard_normal(1 << 10), np.full(1 << 10, 1.7e308)],
        ids=["scaled-1e200", "constant-near-max"],
    )
    def test_a_side_past_the_float_range_raises(self, values):
        f = hf(10, values)
        with pytest.raises(NumericalFailureError, match="variance side leaves the float range"):
            variance_identity_check(f, 10, 1)

    def test_seeded_run_repeats_its_values(self, rng):
        f = hf(6, rng.standard_normal(64))
        assert variance_identity_check(f, 200, seed=8) == variance_identity_check(f, 200, seed=8)

    @pytest.mark.parametrize("trials", [2, 70, 200, 300])
    def test_matches_per_trial_reference(self, rng, trials):
        # the loop the batched sampler replaced: one traceless matrix per
        # (seed, trial) substream, in 256-trial chunks (300 leaves a partly
        # filled second chunk), paired with f by the same contraction
        n, seed = 7, 9
        f = hf(n, rng.standard_normal(1 << n))
        signs = all_vertices(n)
        values = np.empty(trials)
        for start in range(0, trials, 256):
            stop = min(start + 256, trials)
            mats = np.stack(
                [
                    project_traceless(gaussian_sym(n, substream(seed, t))).to_dense()
                    for t in range(start, stop)
                ]
            )
            quad = np.einsum("vi,bij,vj->bv", signs, mats, signs, optimize=True)
            values[start:stop] = -(quad @ f.values) * (1.0 / (1 << n))
        empirical, _ = variance_identity_check(f, trials, seed)
        assert empirical == float(values.var(ddof=1))


# every stack size at small n; at n = 13 and 14 a single matrix, the
# three-operand plan and the matrix-product plan, which starts at 255 there
_FORM_CASES = [(n, count) for n in range(1, 13) for count in (1, 2, 63, 64, 65, 255, 256)]
_FORM_CASES += [(n, count) for n in (13, 14) for count in (1, 2, 255)]


class TestVertexFormsReplay:
    """_vertex_forms gives np.einsum("vi,bij,vj->bv", ..., optimize=True)'s
    bits and strides on every stack, whichever plan the einsum picks there.
    CI runs this class on one BLAS thread too: the replay runs the einsum's
    matrix product, so the two must agree at every thread count."""

    @pytest.mark.parametrize("n, count", _FORM_CASES)
    def test_replay_equals_the_optimized_einsum(self, n, count):
        signs = all_vertices(n)
        mats = gaussian_sym_batch(n, 5, 0, count)
        _project_traceless_stack(mats)
        f = np.random.default_rng(n).standard_normal(1 << n)
        want = np.einsum("vi,bij,vj->bv", signs, mats, signs, optimize=True)
        forms = hypercube._vertex_forms(n)
        for _ in range(2):  # the second call takes the remembered plan and products
            got = forms(mats)
            assert got.shape == want.shape and got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            assert (got @ f).tobytes() == (want @ f).tobytes()

    def test_replayed_stacks_call_no_einsum(self, monkeypatch):
        forms = hypercube._vertex_forms(8)
        mats = gaussian_sym_batch(8, 5, 0, 256)
        calls = []
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args))
        forms(mats)
        forms(mats[:208])  # the last stack of 2,000 trials
        assert calls == []
        forms(mats[:63])  # the three-operand plan
        assert len(calls) == 1


# every trial loop of the module, as a function of its trial count and seed
_LOOPS = {
    "harmonic": lambda trials, seed: list(hypercube.harmonic_trials(4, trials, seed, 2.0)),
    "hypercontractivity": lambda trials, seed: list(
        hypercube.hypercontractivity_trials(4, trials, seed, 0.5, 2.0)
    ),
    "variance": lambda trials, seed: variance_identity_check(chi(4, 0b0011), trials, seed),
}


class TestIntegerCounts:
    """Trial counts and seeds are Python or numpy integers: a bool, a
    non-integral float or a str is refused, not rounded or parsed."""

    @pytest.mark.parametrize("name", sorted(_LOOPS))
    @pytest.mark.parametrize("trials", [True, 10.5, 10.0, np.float64(10.0), "12"])
    def test_trials_must_be_an_integer(self, name, trials):
        with pytest.raises(InvalidArgumentError, match="trials must be an integer"):
            _LOOPS[name](trials, 3)

    @pytest.mark.parametrize("name", sorted(_LOOPS))
    @pytest.mark.parametrize("seed", [True, 3.7, 3.0, "12"])
    def test_seed_must_be_an_integer(self, name, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            _LOOPS[name](10, seed)

    @pytest.mark.parametrize("name", sorted(_LOOPS))
    def test_numpy_integers_give_the_python_integer_bits(self, name):
        want = _LOOPS[name](40, 3)
        assert _LOOPS[name](np.int64(40), np.uint64(3)) == want
        assert _LOOPS[name](np.int16(40), np.int8(3)) == want

    @pytest.mark.parametrize("n", [3.5, 4.0, True, "4"])
    def test_table_size_must_be_an_integer(self, n):
        with pytest.raises(SizeLimitError, match="integer"):
            list(hypercube.harmonic_trials(n, 2, 1, 2.0))
        with pytest.raises(SizeLimitError, match="integer"):
            list(hypercube.hypercontractivity_trials(n, 2, 1, 0.5, 2.0))

    @pytest.mark.parametrize("name", ["harmonic", "hypercontractivity"])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_verify_loops_need_a_trial(self, name, trials):
        with pytest.raises(InvalidArgumentError, match="need at least 1 trials"):
            _LOOPS[name](trials, 3)


class TestPairingIdentity:
    def test_exact_for_integer_functions(self, rng):
        # <f, q_y> = 2 proj_2 f(y) at every vertex; integer tables make both
        # sides exact dyadic rationals, so equality is bitwise
        for n in range(2, 11):
            f = random_integer_function(n, rng)
            proj2 = project_degree(f, 2).values
            idx = np.arange(1 << n, dtype=np.uint32)
            dots = n - 2 * np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(np.int64)
            q_table = dots * dots - n  # q_y(x) indexed [x, y]
            pairing = (f.values @ q_table) / (1 << n)
            assert np.array_equal(pairing, 2.0 * proj2)


class TestMarkovSupportBound:
    def test_support_measure_bound(self):
        # mean at most 1 and values above lam force support < 2^n / lam
        gen = substream(31337)
        for trial in range(50):
            f = random_bounded_function(8, 40.0, gen)
            lam = float(gen.uniform(3.0, 30.0))
            assert (f.values > lam).sum() < (1 << 8) / lam


class TestExpansionValidation:
    def test_coefficient_length(self):
        with pytest.raises(InvalidArgumentError):
            FourierExpansion(3, np.zeros(7))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            HypercubeFunction(2, np.array([1.0, math.inf, 0.0, 0.0]))
