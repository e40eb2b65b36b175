"""Closed-form lower-bound curves and the root solves behind them.

Everything here is deterministic scalar math: the counting bound and its
critical sparsity ratio, the tailored sparse-cone bounds built on the
chi-square order-statistic integral, and the quadratic/cubic root solves that
turn slack-matrix inequalities into extension-complexity lower bounds.  All
logarithms are natural; the critical ratio at zero slack reproduces 0.1362
only with natural-log entropy, which pins the convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from ._rng import is_integer
from .errors import DomainError, InvalidArgumentError, NumericalFailureError
from .linalg import _check_nk

__all__ = [
    "LN3",
    "HansonWrightConstants",
    "DEFAULT_HW",
    "CurvePoint",
    "BoundCurve",
    "binary_entropy",
    "phi",
    "delta_star",
    "xi",
    "zeta",
    "normal_cdf",
    "normal_quantile",
    "chi2_quantile",
    "sparse_integral",
    "psi",
    "avg_ratio_lower",
    "thm1_xc_lower",
    "depressed_cubic_positive_root",
    "thm2_xc_lower",
    "maximal_bound",
    "Formula",
    "FORMULAS",
    "evaluate",
    "emit_curve",
]

LN3 = math.log(3.0)
_EPS = 2.0**-52


@dataclass(frozen=True)
class HansonWrightConstants:
    """Absolute constants of the order-2 chaos MGF bound.

    The derived constant is c = max(sqrt(c1 / (2 ln 3)), sqrt(2) c2).  The
    constants are not pinned numerically anywhere; both default to 1, which
    fixes the shape of the bounds but not their absolute scale.
    """

    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):
            raise InvalidArgumentError("c1 and c2 must be positive and finite")

    @property
    def c(self) -> float:
        return max(math.sqrt(self.c1 / (2.0 * LN3)), math.sqrt(2.0) * self.c2)


DEFAULT_HW = HansonWrightConstants()


def binary_entropy(p: float) -> float:
    """Natural-log binary entropy; endpoints return 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def phi(n: int, k: int, eps: float, width_ratio: float = 1.0) -> float:
    """Counting-bound exponent rate: [ratio/(1+eps) - sqrt(k/n)]_+^2.

    width_ratio is the finite-n width of the PSD base relative to sqrt(2n);
    the default 1 is the asymptotic value.
    """
    _check_nk(n, k)
    return _phi_rate(int(k) / int(n), eps, width_ratio)


def _phi_rate(delta: float, eps: float, width_ratio: float) -> float:
    """phi as a function of the sparsity ratio delta = k/n."""
    if not eps >= 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if not 0.0 < width_ratio <= 1.0:
        raise DomainError(f"width_ratio must lie in (0, 1], got {width_ratio}")
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    return max(width_ratio / (1.0 + eps) - math.sqrt(delta), 0.0) ** 2


def _entropy_gap(delta: float, eps: float) -> float:
    entropy = binary_entropy(delta)  # first, so delta < 0 is a DomainError
    bracket = max(1.0 / (1.0 + eps) - math.sqrt(delta), 0.0)
    return bracket * bracket - entropy


def delta_star(eps: float, tol: float = 1e-9) -> float:
    """Critical sparsity ratio: unique root of the bracket-vs-entropy gap on
    (0, 1/(1+eps)^2), located by bisection to absolute tolerance tol.
    """
    if not eps >= 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if not 0 < tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {tol}")
    upper = 1.0 / (1.0 + eps) ** 2
    lo = 1e-12
    hi = upper - 1e-12 * upper
    g_lo = _entropy_gap(lo, eps)
    g_hi = _entropy_gap(hi, eps)
    if not (g_lo > 0.0 > g_hi):
        raise NumericalFailureError(
            f"no sign change on ({lo:g}, {hi:g}) for eps={eps}: gap({lo:g})={g_lo:g}, "
            f"gap({hi:g})={g_hi:g}"
        )
    while hi - lo > 0.5 * tol and lo < (mid := 0.5 * (lo + hi)) < hi:  # ends at adjacent floats too
        if _entropy_gap(mid, eps) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def xi(delta: float) -> float:
    """Largest slack the counting bound can certify at sparsity ratio delta:
    1/(sqrt(H(delta)) + sqrt(delta)) - 1 when positive, else 0.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    value = 1.0 / (math.sqrt(binary_entropy(delta)) + math.sqrt(delta)) - 1.0
    return max(value, 0.0)


def zeta(delta: float) -> float:
    """Witness-certified slack floor (1 - delta)/delta."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    return (1.0 - delta) / delta


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Rational approximation coefficients for the inverse normal CDF (relative
# error ~1e-9 before refinement).
_ICDF_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ICDF_SPLIT = 0.02425


def _normal_quantile_guess(p: float) -> float:
    if p < _ICDF_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        c, d = _ICDF_C, _ICDF_D
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - _ICDF_SPLIT:
        return -_normal_quantile_guess(1.0 - p)
    q = p - 0.5
    r = q * q
    a, b = _ICDF_A, _ICDF_B
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: rational guess plus two Halley steps
    against the erfc-based CDF.  |Phi(result) - p| stays below 1e-9.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p}")
    x = _normal_quantile_guess(p)
    for _ in range(2):
        err = normal_cdf(x) - p
        if err == 0.0:
            break
        try:
            u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
        except OverflowError:  # exp(x^2/2) overflows near p = 1e-315: form u in log space
            u = math.copysign(math.exp(math.log(abs(err) * math.sqrt(2.0 * math.pi)) + 0.5 * x * x), err)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def chi2_quantile(p: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom,
    via the square of the normal quantile at (1+p)/2.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"quantile argument must lie in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    return normal_quantile(0.5 * (1.0 + p)) ** 2


def sparse_integral(delta: float) -> float:
    """Mass of the top delta-fraction of chi-square(1) order statistics:
    delta + sqrt(2/pi) * z * exp(-z^2/2) with z the normal quantile at
    1 - delta/2, or minus the one at delta/2 when 1 - delta/2 rounds to 1.
    Strictly increasing from 0 to 1 on [0, 1].
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if delta == 0.0:
        return 0.0
    if delta == 1.0:
        return 1.0
    p = 1.0 - 0.5 * delta
    z = normal_quantile(p) if p < 1.0 else -normal_quantile(0.5 * delta)
    return delta + math.sqrt(2.0 / math.pi) * z * math.exp(-0.5 * z * z)


def psi(delta: float) -> float:
    """Tailored dual-average slack floor: sparse_integral(delta)^(-1/2) - 1."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    return 1.0 / math.sqrt(sparse_integral(delta)) - 1.0


def avg_ratio_lower(delta: float) -> float:
    """Average-sense width-ratio floor: sparse_integral(delta)^(-1/2) / 4."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    return 0.25 / math.sqrt(sparse_integral(delta))


def thm1_xc_lower(
    n: int,
    k: int,
    eps: float,
    consts: HansonWrightConstants = DEFAULT_HW,
) -> float:
    """Lower bound on ln N for any k-block lifted description of a set
    sandwiching the PSD base within slack eps: the nonnegative root of
    (z + a)(z + b) >= g with a = 2k ln 3, b = ln(n^3 / (8 c ln 3)),
    g = (n-1) / (2 e c (1+eps)).
    """
    _check_nk(n, k)
    n, k = int(n), int(k)
    if not eps >= 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    c = consts.c
    a = 2.0 * k * LN3
    b = math.log(n**3 / (8.0 * c * LN3))
    g = (n - 1.0) / (2.0 * math.e * c * (1.0 + eps))
    root = -(a + b) / 2.0 + math.sqrt(((a - b) / 2.0) ** 2 + g)
    return max(root, 0.0)


def depressed_cubic_positive_root(p: float, q: float) -> float:
    """Unique positive real root of z^3 + p z - q = 0 for q > 0.

    Positive discriminant goes through real cube roots; otherwise the
    trigonometric branch picks the largest of the three real roots, which is
    the positive one.  Newton polishing repairs the cancellation both closed
    forms suffer at extreme coefficient scales; the residual must then sit
    below 1e-10 * max(1, |q|) plus the unavoidable float evaluation error of
    the polynomial itself.
    """
    if not q > 0.0:
        raise DomainError(f"constant term must be positive, got {q}")
    disc = (p / 3.0) ** 3 + (q / 2.0) ** 2
    if disc > 0.0:
        s = math.sqrt(disc)
        t_plus = math.copysign(abs(q / 2.0 + s) ** (1.0 / 3.0), q / 2.0 + s)
        t_minus = math.copysign(abs(q / 2.0 - s) ** (1.0 / 3.0), q / 2.0 - s)
        z = t_plus + t_minus
        if z <= 0.0:  # cancellation when the root is tiny relative to sqrt(p)
            z = q / p if p > 0.0 else q ** (1.0 / 3.0)
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3 = min(1.0, max(-1.0, 3.0 * q / (-p * m)))
        z = m * math.cos(math.acos(cos3) / 3.0)
    for _ in range(4):
        deriv = 3.0 * z * z + p
        if deriv == 0.0:
            break
        step = (z**3 + p * z - q) / deriv
        z -= step
        if abs(step) <= 1e-16 * abs(z):
            break
    residual = z**3 + p * z - q
    eval_noise = 8.0 * _EPS * (abs(z) ** 3 + abs(p * z) + abs(q))
    if not abs(residual) <= 1e-10 * max(1.0, abs(q)) + eval_noise:  # a NaN residual fails too
        raise NumericalFailureError(
            f"cubic root residual {residual:g} out of tolerance for p={p}, q={q}"
        )
    return z


def thm2_xc_lower(n: int, k: int, eps: float) -> float:
    """Lower bound on ln N for any k-block lifted description of a set whose
    Gaussian width exceeds the PSD base's by at most a factor 1 + eps:
    z*^2 - 2k ln 3, z* the positive root of z^3 + 3bz - 2a = 0 with
    a = sqrt(n) / (22000 e (1+eps)) and
    b = (ln(16 (1+eps) sqrt(k) n^{3/2} / (5 sqrt(2 ln 3))) - 2k ln 3) / 3.
    """
    _check_nk(n, k)
    n, k = int(n), int(k)
    if not eps >= 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    a = math.sqrt(n) / (22000.0 * math.e * (1.0 + eps))
    b = (
        math.log(16.0 * (1.0 + eps) * math.sqrt(k) * n**1.5 / (5.0 * math.sqrt(2.0 * LN3)))
        - 2.0 * k * LN3
    ) / 3.0
    z = depressed_cubic_positive_root(3.0 * b, 2.0 * a)
    return max(z * z - 2.0 * k * LN3, 0.0)


def maximal_bound(v: float, c: float, n_vars: int) -> float:
    """Expected-maximum bound for n_vars sub-exponential variables with MGF
    parameters (v, c): max(sqrt(2 v ln N), 2 c ln N).
    """
    if not v > 0:
        raise DomainError(f"variance proxy must be positive, got {v}")
    if not c >= 0:
        raise DomainError(f"scale parameter must be nonnegative, got {c}")
    if not (is_integer(n_vars) and n_vars >= 1):
        raise InvalidArgumentError(f"need an integer count of at least one variable, got {n_vars!r}")
    log_n = math.log(int(n_vars))
    return max(math.sqrt(2.0 * v * log_n), 2.0 * c * log_n)


# -- curve emission ------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    abscissa: float
    value: float
    flag: str = "ok"  # "ok" | "inf" | "domain"


@dataclass(frozen=True)
class BoundCurve:
    label: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        xs = [p.abscissa for p in pts]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidArgumentError("curve abscissae must be strictly increasing")
        for p in pts:
            if p.flag == "ok" and not math.isfinite(p.value):
                raise InvalidArgumentError(
                    f"non-finite unflagged value {p.value} at abscissa {p.abscissa}"
                )
        object.__setattr__(self, "points", pts)


def _number(params: dict, name: str, default=None):
    value = params.get(name, default)
    if value is None:
        raise InvalidArgumentError(f"missing parameter {name!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"parameter {name!r} must be a number, got {value!r}")
    return value


def _integer(params: dict, name: str, default=None) -> int:
    value = _number(params, name, default)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"parameter {name!r} must be finite, got {value!r}")
    if value != int(value):
        raise InvalidArgumentError(f"parameter {name!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Formula:
    """A named closed-form formula.

    fn reads its parameters by name from a dict and checks each one before
    any math runs; a curve binds its grid values to the parameter named by
    grid.  inf_at_zero marks formulas that diverge to +inf at grid value 0
    rather than leaving their domain there.
    """

    fn: Callable[[dict], float]
    grid: str
    inf_at_zero: bool = False


def _unary(fn: Callable[[float], float], name: str, inf_at_zero: bool = False) -> Formula:
    return Formula(lambda p: fn(_number(p, name)), name, inf_at_zero)


def _phi_params(p: dict) -> float:
    # a curve binds delta; a single evaluation may give n and k instead
    eps, ratio = _number(p, "eps", 0.0), _number(p, "width_ratio", 1.0)
    if "delta" in p:
        return _phi_rate(_number(p, "delta"), eps, ratio)
    return phi(_integer(p, "n"), _integer(p, "k"), eps, ratio)


_ENTROPY = _unary(binary_entropy, "p")

FORMULAS = {
    "delta_star": Formula(
        lambda p: delta_star(_number(p, "eps", 0.0), _number(p, "tol", 1e-9)), "eps"
    ),
    "thm1": Formula(
        lambda p: thm1_xc_lower(
            _integer(p, "n", 10**6),
            _integer(p, "k"),
            _number(p, "eps", 0.0),
            HansonWrightConstants(_number(p, "c1", 1.0), _number(p, "c2", 1.0)),
        ),
        "k",
    ),
    "thm2": Formula(
        lambda p: thm2_xc_lower(_integer(p, "n", 10**6), _integer(p, "k"), _number(p, "eps", 0.0)),
        "k",
    ),
    "phi": Formula(_phi_params, "delta"),
    "bracket": Formula(
        lambda p: _phi_rate(_number(p, "delta"), _number(p, "eps", 0.0), 1.0), "delta"
    ),
    # gap = bracket - entropy; its single sign change in (0, 1) is where the
    # two component curves cross
    "entropy_vs_bracket": Formula(
        lambda p: _entropy_gap(_number(p, "delta"), _number(p, "eps", 0.0)), "delta"
    ),
    "binary_entropy": _ENTROPY,
    "entropy": _ENTROPY,
    "xi": _unary(xi, "delta"),
    "zeta": _unary(zeta, "delta", inf_at_zero=True),
    "psi": _unary(psi, "delta", inf_at_zero=True),
    "avg_ratio": _unary(avg_ratio_lower, "delta", inf_at_zero=True),
    "sparse_integral": _unary(sparse_integral, "delta"),
    "normal_quantile": _unary(normal_quantile, "p"),
    "chi2_quantile": _unary(chi2_quantile, "p"),
    "maximal": Formula(
        lambda p: maximal_bound(_number(p, "v"), _number(p, "c"), _integer(p, "N")), "N"
    ),
    "cubic_root": Formula(
        lambda p: depressed_cubic_positive_root(_number(p, "p"), _number(p, "q")), "q"
    ),
}


def _formula(which: str) -> Formula:
    if which not in FORMULAS:
        raise InvalidArgumentError(
            f"unknown formula {which!r}; expected one of {sorted(FORMULAS)}"
        )
    return FORMULAS[which]


def evaluate(which: str, params: dict) -> float:
    """Value of a named formula at params, a parameter-name -> number dict.

    A missing or non-numeric parameter raises InvalidArgumentError naming it;
    float overflow, division by zero or a non-finite result raises
    NumericalFailureError.
    """
    fn = _formula(which).fn
    try:
        value = fn(params)
    except ArithmeticError as exc:
        raise NumericalFailureError(f"{which} failed at {params}: {exc}") from exc
    if not math.isfinite(value):
        raise NumericalFailureError(f"{which} is not finite at {params}: {value}")
    return value


def emit_curve(which: str, grid, /, **params) -> BoundCurve:
    """Evaluate a named formula on a grid bound to its grid parameter.

    Points where the formula diverges are flagged "inf"; points outside the
    domain, or breaking a precondition such as 1 <= k <= n, are flagged
    "domain" and carry NaN.  Nothing is silently dropped.  When no point
    evaluates and some point broke a precondition, the fixed parameters are
    at fault, not one point, and the first such error rejects the curve.
    """
    entry = _formula(which)
    grid = [float(x) for x in grid]
    if not grid:
        raise InvalidArgumentError("grid must be nonempty")
    points = []
    broken = []
    for x in grid:
        if entry.inf_at_zero and x == 0.0:
            points.append(CurvePoint(x, math.inf, "inf"))
            continue
        try:
            points.append(CurvePoint(x, evaluate(which, {**params, entry.grid: x}), "ok"))
        except DomainError:
            points.append(CurvePoint(x, math.nan, "domain"))
        except InvalidArgumentError as exc:
            broken.append(exc)
            points.append(CurvePoint(x, math.nan, "domain"))
    if broken and all(point.flag != "ok" for point in points):
        raise broken[0]
    return BoundCurve(which, tuple(points))
