import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbounds.bounds import (
    DEFAULT_HW,
    FORMULAS,
    LN3,
    BoundCurve,
    CurvePoint,
    HansonWrightConstants,
    avg_ratio_lower,
    binary_entropy,
    chi2_quantile,
    delta_star,
    depressed_cubic_positive_root,
    emit_curve,
    evaluate,
    maximal_bound,
    normal_cdf,
    normal_quantile,
    phi,
    psi,
    sparse_integral,
    thm1_xc_lower,
    thm2_xc_lower,
    xi,
    zeta,
)
from psdbounds.errors import DomainError, InvalidArgumentError, NumericalFailureError

from _oracles import (
    bisect_root,
    chi2_quantile_bisect,
    chi2_tail_mass_quadrature,
    normal_quantile_bisect,
    thm2_cardano_complex,
)

# high-precision reference values computed with 40-digit arithmetic
DELTA_STAR_0 = 0.136225125172
DELTA_STAR_02 = 0.08564315706
DELTA_STAR_05 = 0.0495517403
H2_0137 = 0.399480013739
PHIINV_0975 = 1.9599639845401
CHI2Q_095 = 3.8414588206941
INTEGRAL_03 = 0.78330707945279
INTEGRAL_05 = 0.92867408225574
XI_001 = 1.9704755533594


def curve_values(curve):
    return [p.value for p in curve.points]


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half_is_ln2(self):
        assert abs(binary_entropy(0.5) - math.log(2.0)) < 1e-15

    def test_reference_value(self):
        assert abs(binary_entropy(0.137) - H2_0137) < 1e-10

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= math.log(2.0) + 1e-15
        assert abs(h - binary_entropy(1.0 - p)) < 1e-12


class TestPhi:
    def test_vanishes_at_k_equals_n(self):
        assert phi(10, 10, 0.0) == 0.0
        assert phi(10, 10, 0.7) == 0.0

    def test_quarter_ratio(self):
        assert abs(phi(8, 2, 0.0) - 0.25) < 1e-15

    def test_vanishes_for_huge_eps(self):
        assert phi(100, 1, 1e12) == 0.0

    def test_width_ratio_hook(self):
        tight = phi(100, 4, 0.0, width_ratio=1.0)
        finite_n = phi(100, 4, 0.0, width_ratio=0.95)
        assert finite_n < tight

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            phi(4, 5, 0.0)
        with pytest.raises(DomainError):
            phi(4, 2, -0.1)
        with pytest.raises(DomainError):
            phi(4, 2, 0.0, width_ratio=1.5)


class TestDeltaStar:
    def test_value_at_zero(self):
        root = delta_star(0.0)
        assert abs(root - 0.137) <= 0.001
        assert abs(root - DELTA_STAR_0) < 1e-6

    def test_decreasing_in_eps(self):
        r0, r2, r5 = delta_star(0.0), delta_star(0.2), delta_star(0.5)
        assert r0 > r2 > r5
        assert abs(r2 - DELTA_STAR_02) < 1e-6
        assert abs(r5 - DELTA_STAR_05) < 1e-6

    def test_stays_below_domain_bound(self):
        eps = 1e3
        assert delta_star(eps, tol=1e-12) < 1.0 / (1.0 + eps) ** 2

    def test_root_bracketing_contract(self):
        for eps in (0.0, 0.3, 1.0):
            tol = 1e-9
            root = delta_star(eps, tol)
            gap = lambda d: max(1 / (1 + eps) - math.sqrt(d), 0.0) ** 2 - binary_entropy(d)
            assert gap(root - tol) > 0.0 > gap(root + tol)

    def test_matches_independent_bisection(self, rng):
        for eps in [0.0, 0.25, 0.7] + list(rng.uniform(0.0, 5.0, size=100)):
            eps = float(eps)
            gap = lambda d: max(1 / (1 + eps) - math.sqrt(d), 0.0) ** 2 - binary_entropy(d)
            upper = 1.0 / (1.0 + eps) ** 2
            reference = bisect_root(gap, 1e-9 * upper, upper * (1 - 1e-9), tol=1e-13)
            assert abs(delta_star(eps, 1e-10) - reference) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_star(-0.5)

    def test_a_tolerance_below_the_float_spacing_returns(self):
        # the bisection stops once lo and hi are adjacent floats; it runs in
        # its own process, so a loop that never ends fails instead of hanging
        code = (
            "from psdbounds.bounds import delta_star; "
            "print(delta_star(0.0, 1e-18).hex(), delta_star(0.0, 5e-324).hex())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        for root in map(float.fromhex, proc.stdout.split()):
            assert abs(root - delta_star(0.0, 1e-15)) <= 1e-15
            assert abs(root - DELTA_STAR_0) < 1e-6

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # NaN and infinity once skipped the bisection and gave the bracket midpoint
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            delta_star(0.0, tol)


@pytest.mark.parametrize(
    "call, error",
    [(lambda: phi(10, 2, math.nan), DomainError),
     (lambda: thm1_xc_lower(100, 2, math.nan), DomainError),
     (lambda: thm2_xc_lower(100, 2, math.nan), DomainError),
     (lambda: maximal_bound(math.nan, 1.0, 3), DomainError),
     (lambda: maximal_bound(1.0, math.nan, 3), DomainError),
     (lambda: HansonWrightConstants(math.nan, 1.0), InvalidArgumentError),
     (lambda: depressed_cubic_positive_root(math.nan, 1.0), NumericalFailureError),
     (lambda: depressed_cubic_positive_root(1.0, math.nan), DomainError)],
    ids=["phi-eps", "thm1-eps", "thm2-eps", "maximal-v", "maximal-c", "hanson-wright-c1",
         "cubic-p", "cubic-q"],
)
def test_nan_fails_the_domain_check(call, error):
    # a check written as x < 0 lets NaN through to a NaN result
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("c1, c2", [(math.inf, 1.0), (1.0, math.inf)], ids=["c1", "c2"])
def test_hanson_wright_constants_must_be_finite(c1, c2):
    # an infinite c1 once passed, and thm1 then raised a bare math domain error
    with pytest.raises(InvalidArgumentError, match="finite"):
        HansonWrightConstants(c1, c2)
    with pytest.raises(InvalidArgumentError, match="finite"):
        evaluate("thm1", {"n": 100, "k": 2, "eps": 0.1, "c1": c1, "c2": c2})


class TestXi:
    def test_zero_at_and_beyond_critical_ratio(self):
        for delta in (DELTA_STAR_0 + 1e-9, 0.2, 0.5, 0.99):
            assert xi(delta) == 0.0

    def test_tiny_positive_just_below_critical(self):
        value = xi(DELTA_STAR_0 - 1e-6)
        assert 0.0 < value < 1e-2

    def test_closed_form_at_001(self):
        assert abs(xi(0.01) - XI_001) < 1e-10

    def test_matches_sup_definition_on_grid(self):
        # sup{eps > 0 : H(delta) < [1/(1+eps) - sqrt(delta)]_+^2} by bisection
        for delta in np.linspace(0.002, 0.998, 50):
            delta = float(delta)
            h = binary_entropy(delta)
            gap = lambda e: max(1 / (1 + e) - math.sqrt(delta), 0.0) ** 2 - h
            if gap(0.0) <= 0.0:
                expected = 0.0
            else:
                expected = bisect_root(gap, 0.0, 1e6, tol=1e-12)
            assert abs(xi(delta) - expected) < 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                xi(bad)


class TestZeta:
    def test_values(self):
        assert zeta(1.0) == 0.0
        assert zeta(0.5) == 1.0
        assert zeta(0.2) == 4.0

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(0.0)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_reference_value(self):
        assert abs(normal_quantile(0.975) - PHIINV_0975) < 1e-8

    @pytest.mark.parametrize("p", [1e-6, 0.3, 1 - 1e-6])
    def test_round_trip_named_points(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-9

    def test_round_trip_sweep(self):
        for p in np.linspace(1e-5, 1 - 1e-5, 101):
            p = float(p)
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-9

    def test_against_bisection_oracle(self):
        for p in (1e-6, 0.01, 0.3, 0.8, 0.999999):
            assert abs(normal_quantile(p) - normal_quantile_bisect(p)) < 1e-8

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                normal_quantile(bad)

    _TINY_P = [5e-324, 1e-323, 1e-322, 1e-320, 1e-318, 1e-317, 1e-316, 5e-316, 1e-315, 1e-314,
               1e-313, 1e-312, 1e-311, 5e-311, 1e-310, 1e-308, 1e-305, 1e-303, 1e-300]

    def test_finite_and_increasing_in_the_far_lower_tail(self):
        # exp(x^2/2) in the Halley step once overflowed for p from about 1e-317 to 5e-311
        values = [normal_quantile(p) for p in self._TINY_P]
        assert all(map(math.isfinite, values))
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "p, bits",
        [(5e-324, "-0x1.33bd3f31179e2p+5"), (1e-320, "-0x1.32272b37b0cccp+5"),
         (1e-318, "-0x1.31307fe26fe07p+5"), (1e-310, "-0x1.2d4df29347fc2p+5"),
         (1e-305, "-0x1.2ad9cbfafe3eap+5"), (1e-300, "-0x1.286074064c26ep+5")],
    )
    def test_tail_values_that_never_overflowed_keep_their_bits(self, p, bits):
        assert normal_quantile(p).hex() == bits


class TestChi2Quantile:
    def test_zero(self):
        assert chi2_quantile(0.0) == 0.0

    def test_unit_value_by_construction(self):
        p = 2.0 * normal_cdf(1.0) - 1.0
        assert abs(chi2_quantile(p) - 1.0) < 1e-9

    def test_reference_value(self):
        assert abs(chi2_quantile(0.95) - CHI2Q_095) < 1e-8

    def test_against_bisection_oracle(self):
        for p in (0.05, 0.5, 0.9, 0.999):
            assert abs(chi2_quantile(p) - chi2_quantile_bisect(p)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(1.0)


class TestSparseIntegral:
    def test_endpoints(self):
        assert sparse_integral(0.0) == 0.0
        assert sparse_integral(1.0) == 1.0

    def test_reference_values(self):
        assert abs(sparse_integral(0.3) - INTEGRAL_03) < 1e-10
        assert abs(sparse_integral(0.5) - INTEGRAL_05) < 1e-10

    def test_against_quadrature(self):
        for delta in (0.05, 0.3, 0.77):
            assert abs(sparse_integral(delta) - chi2_tail_mass_quadrature(delta)) <= 1e-8

    @pytest.mark.parametrize(
        "delta, before",
        [(0.005, 0.048570179737567484), (0.1, 0.4392860642787432), (0.5, 0.9286740822556889),
         (0.9, 0.9994747482450803), (0.995, 0.9999999345495866)],
    )
    def test_quadrature_keeps_its_values_under_the_depth_floor(self, delta, before):
        # the values before the adaptive Simpson rule got its minimum depth:
        # the oracle this class and criterion 6 check against did not move
        assert abs(chi2_tail_mass_quadrature(delta) - before) < 1e-12

    def test_strictly_increasing_onto_unit_interval(self):
        grid = np.linspace(0.0, 1.0, 201)
        values = np.array([sparse_integral(float(d)) for d in grid])
        assert (np.diff(values) > 0).all()
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sparse_integral(1.2)

    @pytest.mark.parametrize("delta", [1e-16, 1e-20, 1e-300])
    def test_finite_where_one_minus_half_delta_rounds_to_one(self, delta):
        # the quantile at 1 - delta/2 once got its argument rounded to 1
        assert 1.0 - 0.5 * delta == 1.0
        for fn in (sparse_integral, psi, avg_ratio_lower):
            assert math.isfinite(fn(delta))
        assert math.isfinite(evaluate("sparse_integral", {"delta": delta}))
        assert [p.flag for p in emit_curve("psi", [delta, 0.5]).points] == ["ok", "ok"]

    def test_increasing_across_the_rounding_of_one_minus_half_delta(self):
        values = [sparse_integral(d) for d in (1e-300, 1e-20, 1e-16, 2e-16)]
        assert 0.0 < values[0] < values[1] < values[2] < values[3]

    @pytest.mark.parametrize("delta, value", [(1e-310, 1.42189e-307), (1e-315, 1.44490e-312)])
    def test_subnormal_delta(self, delta, value):
        # the quantile at delta/2 once overflowed in its Halley step
        assert sparse_integral(delta) == pytest.approx(value, rel=1e-5)


class TestPsiAndAverageRatio:
    def test_psi_at_one_is_exact_zero(self):
        assert psi(1.0) == 0.0

    def test_cubic_vanishing_rate_near_one(self):
        ts = (0.05, 0.025, 0.0125)
        logs = [(math.log(t), math.log(psi(1.0 - t))) for t in ts]
        for (x1, y1), (x2, y2) in zip(logs, logs[1:]):
            slope = (y2 - y1) / (x2 - x1)
            assert abs(slope - 3.0) <= 0.3

    def test_psi_strictly_decreasing(self):
        grid = np.linspace(0.01, 1.0, 100)
        values = [psi(float(d)) for d in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_psi_against_quadrature(self):
        expected = chi2_tail_mass_quadrature(0.5) ** -0.5 - 1.0
        assert abs(psi(0.5) - expected) < 1e-8

    def test_avg_ratio_at_one(self):
        assert avg_ratio_lower(1.0) == 0.25

    def test_avg_ratio_identity_with_psi(self):
        for delta in (0.1, 0.4, 0.9):
            assert abs(avg_ratio_lower(delta) - (psi(delta) + 1.0) / 4.0) < 1e-15

    def test_avg_ratio_against_quadrature(self):
        expected = 0.25 * chi2_tail_mass_quadrature(0.5) ** -0.5
        assert abs(avg_ratio_lower(0.5) - expected) < 1e-8

    def test_psi_dominates_xi_beyond_critical_ratio(self):
        for delta in np.linspace(DELTA_STAR_0, 0.999, 40):
            delta = float(delta)
            assert xi(delta) == 0.0
            assert psi(delta) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(0.0)
        with pytest.raises(DomainError):
            avg_ratio_lower(0.0)


class TestHansonWrightConstants:
    def test_derived_constant(self):
        hw = HansonWrightConstants(1.0, 1.0)
        assert abs(hw.c - max(math.sqrt(1 / (2 * LN3)), math.sqrt(2))) < 1e-15
        hw2 = HansonWrightConstants(100.0, 0.1)
        assert abs(hw2.c - math.sqrt(100 / (2 * LN3))) < 1e-12

    def test_positivity(self):
        with pytest.raises(InvalidArgumentError):
            HansonWrightConstants(0.0, 1.0)


class TestThm1:
    def test_clamped_for_huge_eps(self):
        assert thm1_xc_lower(1000, 2, 1e15) == 0.0

    def test_reference_value(self):
        assert abs(thm1_xc_lower(10**6, 1, 0.0) - 340.5505361859134) < 1e-9

    def test_root_contract(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 10**7))
            k = int(rng.integers(1, n + 1))
            eps = float(rng.uniform(0.0, 3.0))
            z = thm1_xc_lower(n, k, eps)
            c = DEFAULT_HW.c
            a = 2 * k * LN3
            b = math.log(n**3 / (8 * c * LN3))
            g = (n - 1) / (2 * math.e * c * (1 + eps))
            assert (z + a) * (z + b) >= g - 1e-6
            if z > 0:
                z_minus = max(0.0, z - 1e-6)
                assert (z_minus + a) * (z_minus + b) < g

    def test_monotone_in_k_and_eps(self):
        values_k = [thm1_xc_lower(10**6, k, 0.0) for k in (1, 10, 100, 1000, 10**4)]
        assert all(b <= a for a, b in zip(values_k, values_k[1:]))
        values_eps = [thm1_xc_lower(10**6, 10, e) for e in (0.0, 0.5, 1.0, 5.0)]
        assert all(b <= a for a, b in zip(values_eps, values_eps[1:]))

    def test_regime_tracking_at_spec_scale(self):
        # ratio of values across the two regimes vs the ratio of the bound's
        # own regime asymptotes sqrt(g) and g/a, within a factor of 3
        n, eps = 10**6, 0.0
        c = DEFAULT_HW.c
        g = (n - 1) / (2 * math.e * c)
        observed = thm1_xc_lower(n, 1, eps) / thm1_xc_lower(n, 1000, eps)
        predicted = math.sqrt(g) / (g / (2 * 1000 * LN3))
        assert predicted / 3.0 <= observed <= predicted * 3.0

    def test_regime_tracking_deep(self):
        n, eps = 10**10, 0.0
        c = DEFAULT_HW.c
        g = (n - 1) / (2 * math.e * c)
        small_k = thm1_xc_lower(n, 1, eps) / math.sqrt(g)
        assert 1 / 3 <= small_k <= 3
        k = 300_000
        large_k = thm1_xc_lower(n, k, eps) / (g / (2 * k * LN3))
        assert 1 / 3 <= large_k <= 3


class TestDepressedCubic:
    def test_pure_cube(self):
        assert abs(depressed_cubic_positive_root(0.0, 8.0) - 2.0) < 1e-12

    def test_negative_discriminant_factorable(self):
        # z^3 - 3z - 2 = (z - 2)(z + 1)^2
        assert abs(depressed_cubic_positive_root(-3.0, 2.0) - 2.0) < 1e-12

    def test_constructed_identity(self):
        assert abs(depressed_cubic_positive_root(1.0, 2.0) - 1.0) < 1e-12

    def test_against_bisection_both_signs(self, rng):
        for _ in range(100):
            p = float(rng.uniform(-50.0, 50.0))
            q = float(rng.uniform(1e-3, 50.0))
            root = depressed_cubic_positive_root(p, q)
            poly = lambda z: z**3 + p * z - q
            hi = max(1.0, math.sqrt(abs(p)) + q)
            while poly(hi) < 0:
                hi *= 2.0
            expected = bisect_root(poly, 0.0, hi, tol=1e-14)
            assert abs(root - expected) <= 1e-10 * max(1.0, expected)

    def test_residual_contract(self, rng):
        for _ in range(200):
            p = float(rng.uniform(-100.0, 100.0))
            q = float(rng.uniform(1e-6, 100.0))
            z = depressed_cubic_positive_root(p, q)
            assert abs(z**3 + p * z - q) <= 1e-10 * max(1.0, q)

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_is_positive(self, p, q):
        assert depressed_cubic_positive_root(p, q) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            depressed_cubic_positive_root(1.0, 0.0)
        with pytest.raises(DomainError):
            depressed_cubic_positive_root(1.0, -2.0)


class TestThm2:
    def test_clamped_for_huge_k(self):
        assert thm2_xc_lower(10**6, 10**5, 0.0) == 0.0

    def test_vacuous_at_moderate_scale(self):
        # the 22000e constant keeps the bound at zero until n is astronomical
        assert thm2_xc_lower(10**9, 10, 0.0) == 0.0
        assert thm2_xc_lower(10**9, 10**5, 0.0) == 0.0

    def test_complex_branch_agreement(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 10**9))
            k = int(rng.integers(1, min(n, 500) + 1))
            eps = float(rng.uniform(0.0, 2.0))
            a = math.sqrt(n) / (22000 * math.e * (1 + eps))
            b = (
                math.log(16 * (1 + eps) * math.sqrt(k) * n**1.5 / (5 * math.sqrt(2 * LN3)))
                - 2 * k * LN3
            ) / 3.0
            direct = depressed_cubic_positive_root(3.0 * b, 2.0 * a)
            cardano = thm2_cardano_complex(n, k, eps)
            assert abs(direct - cardano) <= 1e-9 * max(1.0, abs(direct))

    def test_root_residual_contract(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 10**12))
            k = int(rng.integers(1, 300))
            eps = float(rng.uniform(0.0, 2.0))
            a = math.sqrt(n) / (22000 * math.e * (1 + eps))
            b = (
                math.log(16 * (1 + eps) * math.sqrt(k) * n**1.5 / (5 * math.sqrt(2 * LN3)))
                - 2 * k * LN3
            ) / 3.0
            z = depressed_cubic_positive_root(3.0 * b, 2.0 * a)
            assert abs(z**3 + 3 * b * z - 2 * a) <= 1e-9 * max(1.0, 2 * a)

    def test_monotone_in_k_and_eps(self):
        n = 10**20
        values_k = [thm2_xc_lower(n, k, 0.0) for k in (1, 10, 100, 10**4, 10**6)]
        assert all(b <= a for a, b in zip(values_k, values_k[1:]))
        values_eps = [thm2_xc_lower(n, 10, e) for e in (0.0, 0.5, 1.0, 5.0)]
        assert all(b <= a for a, b in zip(values_eps, values_eps[1:]))

    def test_regime_tracking_deep(self):
        # regimes only emerge at astronomical n because of the 22000e constant
        n, eps = 10**20, 0.0
        a = math.sqrt(n) / (22000 * math.e)
        cube_regime = thm2_xc_lower(n, 10, eps) / (2 * a) ** (2 / 3)
        assert 1 / 3 <= cube_regime <= 3
        k = 10**5
        b = (
            math.log(16 * math.sqrt(k) * n**1.5 / (5 * math.sqrt(2 * LN3))) - 2 * k * LN3
        ) / 3.0
        sqrt_regime = thm2_xc_lower(n, k, eps) / ((2 / math.sqrt(3)) * a / math.sqrt(-b))
        assert 1 / 3 <= sqrt_regime <= 3


class TestMaximalBound:
    def test_single_variable(self):
        assert maximal_bound(1.0, 1.0, 1) == 0.0

    def test_gaussian_case(self):
        n = round(math.e**2)
        # N = e^2 is not an integer; use exact arithmetic on ln N instead
        assert abs(maximal_bound(1.0, 0.0, n) - math.sqrt(2 * math.log(n))) < 1e-12

    def test_balanced_case(self):
        value = maximal_bound(1.0, 1.0, round(math.e))
        expected = max(math.sqrt(2 * math.log(3)), 2 * math.log(3))
        assert abs(value - expected) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            maximal_bound(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            maximal_bound(1.0, -1.0, 5)
        with pytest.raises(InvalidArgumentError):
            maximal_bound(1.0, 1.0, 0)


class TestCurves:
    def test_psi_curve_strictly_decreasing(self):
        curve = emit_curve("psi", np.linspace(0.1, 0.9, 9))
        values = curve_values(curve)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_delta_star_curve(self):
        curve = emit_curve("delta_star", [0.0, 0.2, 0.5])
        values = curve_values(curve)
        assert abs(values[0] - 0.137) <= 0.001
        assert values[0] > values[1] > values[2]

    def test_entropy_vs_bracket_single_crossing(self):
        grid = np.linspace(0.001, 0.999, 999)
        curve = emit_curve("entropy_vs_bracket", grid, eps=0.0)
        signs = np.sign(curve_values(curve))
        crossings = int((np.diff(signs) != 0).sum())
        assert crossings == 1

    def test_infinity_flagged_not_dropped(self):
        curve = emit_curve("zeta", [0.0, 0.5, 1.0])
        assert curve.points[0].flag == "inf"
        assert math.isinf(curve.points[0].value)
        assert curve.points[1].flag == "ok"

    def test_domain_flagged_per_point(self):
        curve = emit_curve("xi", [0.5, 1.0, 1.5])
        assert [p.flag for p in curve.points] == ["ok", "domain", "domain"]
        assert math.isnan(curve.points[2].value)
        gap = emit_curve("entropy_vs_bracket", [-0.5, 0.5])
        assert [p.flag for p in gap.points] == ["domain", "ok"]
        # a point breaking 1 <= k <= n or N >= 1 is out of the domain too
        thm1 = emit_curve("thm1", [0.0, 5.0, 10.0], n=8)
        assert [p.flag for p in thm1.points] == ["domain", "ok", "domain"]
        assert emit_curve("maximal", [0.0, 3.0], v=1.0, c=1.0).points[0].flag == "domain"

    def test_non_integral_grid_points_are_flagged_not_truncated(self):
        # they once evaluated at int(k) and int(N) and were flagged ok
        thm1 = emit_curve("thm1", [1.5, 2.5, 3.0], n=10)
        assert [p.flag for p in thm1.points] == ["domain", "domain", "ok"]
        assert curve_values(thm1)[2] == evaluate("thm1", {"n": 10, "k": 3})
        maximal = emit_curve("maximal", [2.0, 2.9], v=1.0, c=0.0)
        assert [p.flag for p in maximal.points] == ["ok", "domain"]
        # a fixed parameter breaks every point, so it rejects the curve
        with pytest.raises(InvalidArgumentError, match="parameter 'n' must be an integer, got 10.5"):
            emit_curve("thm1", [2.0, 3.0], n=10.5)

    def test_unknown_formula(self):
        with pytest.raises(InvalidArgumentError):
            emit_curve("nope", [0.1])

    def test_empty_grid(self):
        with pytest.raises(InvalidArgumentError):
            emit_curve("psi", [])

    def test_curve_invariants_enforced(self):
        with pytest.raises(InvalidArgumentError):
            BoundCurve("bad", (CurvePoint(0.2, 1.0), CurvePoint(0.1, 2.0)))
        with pytest.raises(InvalidArgumentError):
            BoundCurve("bad", (CurvePoint(0.1, math.nan, "ok"),))

    def test_phi_curve_with_width_ratio(self):
        tight = curve_values(emit_curve("phi", [0.04], eps=0.0, width_ratio=1.0))[0]
        finite = curve_values(emit_curve("phi", [0.04], eps=0.0, width_ratio=0.9))[0]
        assert finite < tight
        assert abs(tight - (1.0 - 0.2) ** 2) < 1e-14


class TestFormulaRegistry:
    # name -> (fixed params, grid value, expected value from a direct call)
    CASES = {
        "delta_star": ({}, 0.2, lambda: delta_star(0.2)),
        "thm1": (
            {"c1": 2.0}, 10.0, lambda: thm1_xc_lower(10**6, 10, 0.0, HansonWrightConstants(2.0))
        ),
        "thm2": ({"n": 10**20}, 10.0, lambda: thm2_xc_lower(10**20, 10, 0.0)),
        "phi": ({"eps": 0.1}, 0.04, lambda: phi(100, 4, 0.1)),
        "bracket": ({"eps": 0.2}, 0.1, lambda: max(1.0 / 1.2 - math.sqrt(0.1), 0.0) ** 2),
        "entropy_vs_bracket": (
            {}, 0.1, lambda: (1.0 - math.sqrt(0.1)) ** 2 - binary_entropy(0.1)
        ),
        "binary_entropy": ({}, 0.3, lambda: binary_entropy(0.3)),
        "entropy": ({}, 0.3, lambda: binary_entropy(0.3)),
        "xi": ({}, 0.01, lambda: xi(0.01)),
        "zeta": ({}, 0.2, lambda: zeta(0.2)),
        "psi": ({}, 0.3, lambda: psi(0.3)),
        "avg_ratio": ({}, 0.3, lambda: avg_ratio_lower(0.3)),
        "sparse_integral": ({}, 0.5, lambda: sparse_integral(0.5)),
        "normal_quantile": ({}, 0.975, lambda: normal_quantile(0.975)),
        "chi2_quantile": ({}, 0.95, lambda: chi2_quantile(0.95)),
        "maximal": ({"v": 1.0, "c": 1.0}, 3.0, lambda: maximal_bound(1.0, 1.0, 3)),
        "cubic_root": ({"p": -3.0}, 2.0, lambda: depressed_cubic_positive_root(-3.0, 2.0)),
    }

    def test_every_entry_evaluates_and_curves_alike(self):
        assert set(self.CASES) == set(FORMULAS)
        for name, (fixed, x, direct) in self.CASES.items():
            expected = direct()
            assert evaluate(name, {**fixed, FORMULAS[name].grid: x}) == expected, name
            assert curve_values(emit_curve(name, [x], **fixed)) == [expected], name

    @pytest.mark.parametrize(
        "which, params, name",
        [("phi", {"n": 10, "k": 3.5}, "k"), ("phi", {"n": 10.5, "k": 3}, "n"),
         ("thm1", {"n": 1e6 + 0.5, "k": 3}, "n"), ("thm2", {"k": 2.5}, "k"),
         ("maximal", {"v": 1, "c": 0, "N": 2.9}, "N"), ("maximal", {"v": 1, "c": 0, "N": -0.5}, "N")],
    )
    def test_integer_parameters_are_not_truncated(self, which, params, name):
        with pytest.raises(InvalidArgumentError, match=f"parameter {name!r} must be an integer"):
            evaluate(which, params)

    def test_integral_floats_are_integers(self):
        assert evaluate("phi", {"n": 1e1, "k": 3.0}) == evaluate("phi", {"n": 10, "k": 3})
        assert evaluate("thm1", {"n": 1e6, "k": 10.0}) == thm1_xc_lower(10**6, 10, 0.0)
        assert evaluate("thm2", {"n": 1e20, "k": 10.0}) == thm2_xc_lower(10**20, 10, 0.0)
        assert evaluate("maximal", {"v": 1, "c": 0, "N": 2.0}) == maximal_bound(1, 0, 2)

    def test_phi_takes_n_and_k_or_delta(self):
        assert evaluate("phi", {"n": 100, "k": 4}) == evaluate("phi", {"delta": 0.04})
        with pytest.raises(InvalidArgumentError):
            evaluate("phi", {"n": 4, "k": 100})

    def test_thm_bounds_default_to_a_million_dimensions(self):
        assert evaluate("thm1", {"k": 3}) == thm1_xc_lower(10**6, 3, 0.0)
        assert evaluate("thm2", {"k": 3}) == thm2_xc_lower(10**6, 3, 0.0)

    @pytest.mark.parametrize(
        "name, params, needle",
        [
            ("zeta", {}, "'delta'"),
            ("zeta", {"delta": "abc"}, "'delta'"),
            ("thm1", {"n": math.inf, "k": 1}, "'n'"),
            ("maximal", {"v": 1.0, "c": 1.0, "N": math.nan}, "'N'"),
            ("cubic_root", {"p": None, "q": 1.0}, "'p'"),
            ("nope", {}, "unknown formula"),
        ],
    )
    def test_bad_parameters_are_named(self, name, params, needle):
        with pytest.raises(InvalidArgumentError, match=needle):
            evaluate(name, params)

    def test_bad_fixed_parameter_rejects_the_whole_curve(self):
        with pytest.raises(InvalidArgumentError, match="'eps'"):
            emit_curve("bracket", [0.1, 0.2], eps="abc")

    def test_precondition_broken_at_every_point_rejects_the_whole_curve(self):
        with pytest.raises(InvalidArgumentError, match="c1 and c2"):
            emit_curve("thm1", [0.0, 5.0], c1=-1.0)
        with pytest.raises(InvalidArgumentError, match="need 1 <= k <= n"):
            emit_curve("thm2", [0.0, -1.0])
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            emit_curve("delta_star", [-1.0, 0.1], tol=-1.0)

    def test_float_overflow_and_division_by_zero_are_numerical_failures(self):
        with pytest.raises(NumericalFailureError):
            evaluate("delta_star", {"eps": 1e200})
        with pytest.raises(NumericalFailureError):
            evaluate("entropy_vs_bracket", {"delta": 0.5, "eps": -1.0})

    def test_curve_params_may_reuse_the_argument_names(self):
        assert curve_values(emit_curve("psi", [0.5], which=1, grid=2)) == [psi(0.5)]
