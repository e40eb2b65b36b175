"""Exact Fourier analysis on the vertices of the sign hypercube.

Functions on {-1, 1}^n are tables of 2^n values.  Vertex index v encodes
coordinates by its bits: coordinate b is +1 when bit b of v is 0 and -1 when
it is 1.  Every transform, projection, and check in this module shares that
convention; a silent mismatch here is the dominant bug class, so the maps
from indices to sign vectors, vertex and all_vertices, are public.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from ._rng import check_seed, is_integer, normal_rows
from .errors import (
    InvalidArgumentError,
    NumericalFailureError,
    PreconditionError,
    SizeLimitError,
)
from .linalg import gaussian_sym_batch
from .linalg import _diagonal_sums, _project_traceless_stack
from .widths import _check_trials, _mean_and_var, _run_trials

# Not called in this module; kept as module attributes because the
# benchmark's tracer (perfbench/tracing.py) wraps them by name here.
from ._rng import substream  # noqa: F401
from .linalg import gaussian_sym, project_traceless  # noqa: F401

__all__ = [
    "MAX_TRANSFORM_BITS",
    "MAX_ENUMERATION_BITS",
    "HypercubeFunction",
    "FourierExpansion",
    "vertex",
    "all_vertices",
    "fourier_transform",
    "inverse_fourier",
    "project_degree",
    "bound_holds",
    "hypercontractivity_check",
    "harmonic_bound_check",
    "harmonic_trials",
    "hypercontractivity_trials",
    "proj2_norm",
    "q_poly_moments",
    "variance_identity_check",
    "random_bounded_function",
]

MAX_TRANSFORM_BITS = 24  # 16M values per table
MAX_ENUMERATION_BITS = 14  # per-trial full-vertex loops

# Values per stack of trial tables in a chunked verify loop: every transform
# and reduction runs once per chunk of trials, while the stacks stay small.
_STACK_VALUES = 8192


def _chunk_trials(n: int) -> int:
    """Trials per stack of 2^n-value rows: 32 at n = 8, one from n = 13 up."""
    return max(1, _STACK_VALUES >> n)


def _check_n(n: int) -> int:
    """2^n, the table size of a function of n bits; SizeLimitError unless n
    is an integer (_rng.is_integer) with 1 <= n <= MAX_TRANSFORM_BITS."""
    if not (is_integer(n) and 1 <= n <= MAX_TRANSFORM_BITS):
        raise SizeLimitError(f"need an integer 1 <= n <= {MAX_TRANSFORM_BITS}, got {n!r}")
    return 1 << n


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks.astype(np.uint32)).astype(np.int64)


def _degrees(n: int) -> np.ndarray:
    """Degree |S| of every subset mask S of n coordinates."""
    return _popcount(np.arange(1 << n, dtype=np.uint32))


@dataclass(frozen=True, eq=False)
class HypercubeFunction:
    """Real-valued function on the 2^n sign vertices."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        size = _check_n(self.n)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (size,):
            raise InvalidArgumentError(
                f"need exactly 2^{self.n} = {size} values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvalidArgumentError("hypercube function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Coefficient table indexed by subset bitmask."""

    n: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        size = _check_n(self.n)
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (size,):
            raise InvalidArgumentError(
                f"need exactly 2^{self.n} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def degrees(self) -> np.ndarray:
        return _degrees(self.n)


def vertex(n: int, index: int) -> np.ndarray:
    """Sign vector of a vertex index (bit 0 of the index is coordinate 0)."""
    _check_n(n)
    if not (is_integer(index) and 0 <= index < (1 << n)):
        raise InvalidArgumentError(f"vertex index must be an integer in [0, 2^{n}), got {index!r}")
    bits = (int(index) >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


def all_vertices(n: int) -> np.ndarray:
    """(2^n, n) matrix of sign vectors in index order."""
    _check_n(n)
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


def _wht(values: np.ndarray) -> np.ndarray:
    """Fast transform along the last axis of a (..., 2^n) stack: each row
    becomes sum_v f(v) * chi_S(v) per mask S.

    Each of the n levels pairs the entries that differ in bit 0 of the index
    and writes their sums to the first half of a second buffer and their
    differences to the second half, so every level runs over long strides
    of the row.  A level rotates the index right by one bit, which n levels
    undo; every entry meets the same additions and subtractions in the same
    order as in the in-place butterfly over bits 0, 1, ..., n-1, so a row's
    result does not depend on the stack around it or on the input's layout.
    """
    out = np.array(values, dtype=np.float64, order="C")
    spare = np.empty_like(out)
    half = out.shape[-1] // 2
    for _ in range(half.bit_length()):
        pairs = out.reshape(-1, half, 2)
        halves = spare.reshape(-1, 2, half)
        np.add(pairs[..., 0], pairs[..., 1], out=halves[:, 0])
        np.subtract(pairs[..., 0], pairs[..., 1], out=halves[:, 1])
        out, spare = spare, out
    return out


def fourier_transform(f: HypercubeFunction) -> FourierExpansion:
    """Coefficients E[f * chi_S] for every subset mask S, in O(n 2^n)."""
    return FourierExpansion(f.n, _wht(f.values) / (1 << f.n))


def inverse_fourier(expansion: FourierExpansion) -> HypercubeFunction:
    return HypercubeFunction(expansion.n, _wht(expansion.coefficients))


def project_degree(f: HypercubeFunction, d: int) -> HypercubeFunction:
    """Keep only the degree-d homogeneous part."""
    if not (is_integer(d) and 0 <= d <= f.n):
        raise InvalidArgumentError(f"degree must be an integer in [0, {f.n}], got {d!r}")
    expansion = fourier_transform(f)
    kept = np.where(expansion.degrees() == int(d), expansion.coefficients, 0.0)
    return inverse_fourier(FourierExpansion(f.n, kept))


def _noise_stack(values: np.ndarray, rho: float) -> np.ndarray:
    """T_rho of each row of a (T, 2^n) stack."""
    size = values.shape[-1]
    degrees = _degrees(size.bit_length() - 1)
    return _wht(_wht(values) / size * rho**degrees)


def _power_means(values: np.ndarray, p: float) -> np.ndarray:
    """Mean of |f|^p over each row of a (T, 2^n) stack.

    Callers take the root 1/p of each mean as a scalar power, trial by
    trial: numpy's array power can round differently in the last bit.
    """
    return np.mean(np.abs(values) ** p, axis=-1)


def bound_holds(value: float, bound: float) -> bool:
    """The verify pass rule for value <= bound: a slack of 1e-12; a NaN fails."""
    return value <= bound + 1e-12


def hypercontractivity_check(f: HypercubeFunction, rho: float, p: float) -> tuple[float, float, bool]:
    """Both sides of ||T_rho f||_q <= ||f||_p with q = 1 + (p-1)/rho^2."""
    [lhs], [rhs] = _hypercontractivity_sides(f.values[None], rho, p, _exponent_q(rho, p))
    return lhs, rhs, bound_holds(lhs, rhs)


def _exponent_q(rho: float, p: float) -> float:
    """q = 1 + (p-1)/rho^2 after checking rho and p; NumericalFailureError when q overflows."""
    if not 0.0 < rho <= 1.0:
        raise InvalidArgumentError(f"need 0 < rho <= 1, got {rho}")
    if not 1.0 <= p < math.inf:
        raise InvalidArgumentError(f"need a finite p >= 1, got {p}")
    rho2 = rho * rho
    if rho2 == 0.0:  # rho^2 underflows: q is 1 at p = 1 and overflows above
        q = 1.0 if p == 1.0 else math.inf
    else:
        q = 1.0 + (p - 1.0) / rho2
    if not math.isfinite(q):
        raise NumericalFailureError(f"q = 1 + (p-1)/rho^2 overflows at rho={rho}, p={p}")
    return q


def _hypercontractivity_sides(values: np.ndarray, rho: float, p: float, q: float) -> tuple[list, list]:
    """||T_rho f||_q and ||f||_p for each row f of a (T, 2^n) stack; NumericalFailureError
    when a norm overflows, since the comparison of an infinite side proves nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = [float(m ** (1.0 / q)) for m in _power_means(_noise_stack(values, rho), q)]
        rhs = [float(m ** (1.0 / p)) for m in _power_means(values, p)]
    if not all(map(math.isfinite, lhs + rhs)):
        raise NumericalFailureError(f"a hypercontractivity norm overflows at rho={rho}, p={p}")
    return lhs, rhs


def hypercontractivity_trials(n: int, trials: int, seed: int, rho: float, p: float):
    """Yield (trial, ||T_rho f||_q, ||f||_p) for trials 0 .. trials-1, where
    trial t's f holds the first 2^n standard normals of the (seed, t)
    substream.  Chunks of trials run as stacks, every trial's numbers are
    the bits of that trial computed alone, and all of them, 16 bytes a
    trial, are computed before the first yield."""
    _check_trials(trials, 1)
    size, q = _check_n(n), _exponent_q(rho, p)
    kernel = lambda start, stop: _hypercontractivity_sides(normal_rows(seed, start, stop, size), rho, p, q)
    lhs, rhs = _run_trials(trials, _chunk_trials(n), kernel, outputs=2)
    yield from zip(range(trials), map(float, lhs), map(float, rhs))


def proj2_norm(f: HypercubeFunction) -> float:
    """L2 norm of the degree-2 part, straight from the coefficient table.
    When the plain norm overflows although the coefficients are finite, it
    is taken as s * ||coeffs / s|| with s = max|coeffs|, the pattern of
    linalg._frobenius_parts, so a representable norm is finite; every
    finite plain norm keeps its bits.  Coefficients past the float range
    give the plain (inf or NaN) norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _proj2_coefficients(f.values[None])
        norm = float(_root_sum_squares(coeffs)[0])
        if norm == math.inf and np.isfinite(coeffs).all():
            scale = float(np.abs(coeffs).max())
            norm = scale * float(_root_sum_squares(coeffs / scale)[0])
    return norm


def _proj2_coefficients(values: np.ndarray) -> np.ndarray:
    """The degree-2 Fourier coefficients of each row of a (T, 2^n) stack."""
    size = values.shape[-1]
    pairs = np.flatnonzero(_degrees(size.bit_length() - 1) == 2)
    # np.take keeps the rows C-contiguous; a boolean-mask gather along the
    # last axis returns a transposed layout, whose row sums round differently
    return np.take(_wht(values) / size, pairs, axis=-1)


def _root_sum_squares(coeffs: np.ndarray) -> np.ndarray:
    return np.sqrt((coeffs**2).sum(axis=-1))


def _proj2_norms(values: np.ndarray) -> np.ndarray:
    """L2 norm of the degree-2 part of each row of a (T, 2^n) stack."""
    return _root_sum_squares(_proj2_coefficients(values))


def harmonic_bound_check(f: HypercubeFunction, lam: float) -> tuple[float, float, bool]:
    """Degree-2 norm of a [0, lam]-valued, mean-at-most-1 function against the
    bound lam (below e) or e ln lam (at or above e).
    """
    norm2, bound = float(_harmonic_norms(f.values[None], lam)[0]), _harmonic_bound(lam)
    return norm2, bound, bound_holds(norm2, bound)


def _harmonic_bound(lam: float) -> float:
    return lam if lam < math.e else math.e * math.log(lam)


def _harmonic_norms(values: np.ndarray, lam: float) -> np.ndarray:
    """Degree-2 norms of the rows of a (T, 2^n) stack, after checking every
    row against the preconditions; the first row that fails one raises,
    naming the first of them it fails.
    """
    if not math.isfinite(lam):
        raise InvalidArgumentError(f"lam must be finite, got {lam}")
    lo = values.min(axis=-1)
    hi = values.max(axis=-1)
    mean = values.mean(axis=-1)
    bad = np.flatnonzero((lo < 0.0) | (hi > lam) | (mean > 1.0))
    if bad.size:
        row = bad[0]
        if lo[row] < 0.0:
            raise PreconditionError(f"pointwise nonnegativity fails: min value {float(lo[row])}")
        if hi[row] > lam:
            raise PreconditionError(f"pointwise bound fails: max value {float(hi[row])} > {lam}")
        raise PreconditionError(f"mean bound fails: E f = {float(mean[row])} > 1")
    return _proj2_norms(values)


def harmonic_trials(n: int, trials: int, seed: int, lam: float):
    """Yield (trial, degree-2 norm, bound) for trials 0 .. trials-1, where
    trial t's function is random_bounded_function(n, lam, substream(seed, t)).
    Chunks of trials run as stacks, every trial's numbers are the bits of
    that trial computed alone, and all the norms, 8 bytes a trial, are
    computed before the first yield."""
    _check_trials(trials, 1)
    _check_n(n)
    _check_threshold(lam)
    width, bound = _low_degree_count(n), _harmonic_bound(lam)

    def kernel(start: int, stop: int) -> np.ndarray:
        return _harmonic_norms(_bounded_values(normal_rows(seed, start, stop, width), n, lam), lam)

    for t, norm2 in enumerate(map(float, _run_trials(trials, _chunk_trials(n), kernel))):
        yield t, norm2, bound


def q_poly_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact first and second moments of (x.y)^2 - n over uniform sign
    vectors x, for fixed y.

    The distribution of x.y does not depend on y (flipping coordinates of x is
    measure-preserving), so y is taken to be all ones and the enumeration
    collapses onto popcount classes with exact binomial weights.  Returns
    dyadic rationals; the values are 0 and 2n(n-1).
    """
    if not (is_integer(n) and 1 <= n <= 20):
        raise SizeLimitError(f"exact enumeration supports an integer 1 <= n <= 20, got {n!r}")
    total = Fraction(0)
    total_sq = Fraction(0)
    for ones in range(n + 1):
        weight = math.comb(n, ones)
        s = n - 2 * ones  # x.y for a vertex with this many -1 coordinates
        q = s * s - n
        total += weight * q
        total_sq += weight * q * q
    denom = 1 << n
    return total / denom, total_sq / denom


def variance_identity_check(
    f: HypercubeFunction, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical variance of the pairing of f with the quadratic form of a
    traceless Gaussian matrix, against the closed form 2 ||proj_2 f||^2.

    Each trial draws its own matrix from the (seed, trial) substream and
    evaluates E_x[f(x) * (-x^T G0 x)] by full vertex enumeration, in stacks
    of 256 trials.  _vertex_forms computes a stack's quadratic forms with the
    bits of np.einsum("vi,bij,vj->bv", ..., optimize=True), replaying that
    einsum's one matrix product where its plan has one.  Either side past
    the float range raises NumericalFailureError, as an overflowing norm
    does in hypercontractivity_trials.
    """
    if f.n > MAX_ENUMERATION_BITS:
        raise SizeLimitError(
            f"per-trial enumeration supports n <= {MAX_ENUMERATION_BITS}, got {f.n}"
        )
    _check_trials(trials)
    check_seed(seed)
    n = f.n
    forms, scale = _vertex_forms(n), 1.0 / (1 << n)

    def kernel(start: int, stop: int) -> np.ndarray:
        mats = gaussian_sym_batch(n, seed, start, stop)
        _project_traceless_stack(mats)
        return -(forms(mats) @ f.values) * scale

    # 256 trials a stack: einsum picks its contraction path by the stack size;
    # a side past the float range raises below, so no overflow warning escapes
    with np.errstate(over="ignore", invalid="ignore"):
        empirical = _mean_and_var(_run_trials(trials, 256, kernel))[1]
    try:
        theoretical = 2.0 * proj2_norm(f) ** 2
    except OverflowError:  # a float power past the float range raises
        theoretical = math.inf
    if not (math.isfinite(empirical) and math.isfinite(theoretical)):
        raise NumericalFailureError(
            f"a variance side leaves the float range: empirical {empirical}, closed form {theoretical}"
        )
    return empirical, theoretical


_VERTEX_FORMS = "vi,bij,vj->bv"
# einsum's plan for that contraction on larger stacks: the products
# s_v,i s_v,j first, then one matrix product with the stacked matrices
_GEMM_PLAN = ["einsum_path", (0, 2), (0, 1)]


def _vertex_forms(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a (T, n, n) stack to its (T, 2^n) quadratic forms x^T M x
    at every vertex x, bit for bit and stride for stride
    np.einsum("vi,bij,vj->bv", signs, mats, signs, optimize=True).

    The einsum plans from the shapes alone, so the map asks np.einsum_path
    once per stack size.  Where the plan is _GEMM_PLAN and n >= 2, the map
    replays the plan's one matrix product: the C-contiguous (2^n, n^2) sign
    products, built at the first such stack, times the flattened stack.  The
    einsum rebuilds those products, plans and parses on every call.  At
    n = 1 numpy runs that plan as an elementwise product; there, and under
    the other plans, the einsum runs on the recorded path.
    """
    signs = all_vertices(n)
    plans: dict[int, list] = {}
    products = None

    def forms(mats: np.ndarray) -> np.ndarray:
        nonlocal products
        count = len(mats)
        plan = plans.get(count)
        if plan is None:
            plan = plans[count] = np.einsum_path(_VERTEX_FORMS, signs, mats, signs, optimize=True)[0]
        if plan != _GEMM_PLAN or n < 2:
            return np.einsum(_VERTEX_FORMS, signs, mats, signs, optimize=plan)
        if products is None:
            products = (signs[:, :, None] * signs[:, None, :]).reshape(-1, n * n)
        return np.matmul(products, mats.reshape(count, n * n).T).T

    return forms


def random_bounded_function(n: int, lam: float, rng: np.random.Generator) -> HypercubeFunction:
    """Random function satisfying the harmonic-bound preconditions: values in
    [0, lam] and mean at most 1.

    Draws a random polynomial of degree at most 2, clips it into [0, 1],
    scales by lam, then rescales if the mean exceeds 1.
    """
    _check_n(n)
    _check_threshold(lam)
    draws = rng.standard_normal(_low_degree_count(n))
    return HypercubeFunction(n, _bounded_values(draws[None], n, lam)[0])


def _check_threshold(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise InvalidArgumentError(f"threshold lam must be positive and finite, got {lam}")


def _low_degree_count(n: int) -> int:
    """Number of subset masks of degree at most 2."""
    return 1 + n + n * (n - 1) // 2


def _bounded_values(draws: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Values of random_bounded_function for each row of a (T, L) stack of
    draws: row t holds trial t's standard normals, its coefficients of
    degree at most 2 in mask order.
    """
    coeffs = np.zeros((draws.shape[0], 1 << n))
    coeffs[:, _degrees(n) <= 2] = draws
    values = lam * np.clip(_wht(coeffs), 0.0, 1.0)
    mean = _diagonal_sums(values, values.shape[1])  # finite even when lam 2^n overflows
    over = mean > 1.0
    # slight undershoot so rounding cannot push the mean back above 1
    values[over] /= (mean[over] * (1.0 + 1e-12))[:, None]
    return values

