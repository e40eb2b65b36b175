"""Exact Fourier analysis on the vertices of the sign hypercube.

Functions on {-1, 1}^n are tables of 2^n values.  Vertex index v encodes
coordinates by its bits: coordinate b is +1 when bit b of v is 0 and -1 when
it is 1.  Every transform, projection, and check in this module shares that
convention; a silent mismatch here is the dominant bug class, so helpers to
convert between indices and sign vectors are part of the public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._rng import check_seed
from .errors import (
    InvalidArgumentError,
    PreconditionError,
    SizeLimitError,
)
from .linalg import SymmetricMatrix, gaussian_sym_batch

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
    "vertex_index",
    "all_vertices",
    "fourier_transform",
    "inverse_fourier",
    "project_degree",
    "noise_operator",
    "norm_p",
    "hypercontractivity_check",
    "harmonic_bound_check",
    "proj2_norm",
    "proj2_quadratic_form",
    "slack_value",
    "q_poly_moments",
    "variance_identity_check",
    "random_bounded_function",
    "threshold_split",
    "write_hfun",
    "read_hfun",
]

MAX_TRANSFORM_BITS = 24  # 16M values per table
MAX_ENUMERATION_BITS = 14  # per-trial full-vertex loops


def _check_n(n: int, limit: int = MAX_TRANSFORM_BITS) -> None:
    if not 1 <= n <= limit:
        raise SizeLimitError(f"need 1 <= n <= {limit}, got {n}")


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks.astype(np.uint32)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class HypercubeFunction:
    """Real-valued function on the 2^n sign vertices."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_n(self.n)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (1 << self.n,):
            raise InvalidArgumentError(
                f"need exactly 2^{self.n} = {1 << self.n} values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvalidArgumentError("hypercube function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Coefficient table indexed by subset bitmask."""

    n: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_n(self.n)
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (1 << self.n,):
            raise InvalidArgumentError(
                f"need exactly 2^{self.n} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def degrees(self) -> np.ndarray:
        return _popcount(np.arange(1 << self.n, dtype=np.uint32))


def vertex(n: int, index: int) -> np.ndarray:
    """Sign vector of a vertex index (bit 0 of the index is coordinate 0)."""
    _check_n(n)
    if not 0 <= index < (1 << n):
        raise InvalidArgumentError(f"vertex index {index} out of range for n={n}")
    bits = (index >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


def vertex_index(x) -> int:
    x = np.asarray(x)
    bits = (x < 0).astype(np.int64)
    return int((bits << np.arange(x.size)).sum())


def all_vertices(n: int) -> np.ndarray:
    """(2^n, n) matrix of sign vectors in index order."""
    _check_n(n)
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


def _wht(values: np.ndarray) -> np.ndarray:
    """In-place-style fast transform; returns sum_v f(v) * chi_S(v) per mask S."""
    out = values.copy()
    half = 1
    size = out.size
    while half < size:
        out = out.reshape(-1, 2 * half)
        low = out[:, :half].copy()
        high = out[:, half:].copy()
        out[:, :half] = low + high
        out[:, half:] = low - high
        out = out.reshape(size)
        half *= 2
    return out


def fourier_transform(f: HypercubeFunction) -> FourierExpansion:
    """Coefficients E[f * chi_S] for every subset mask S, in O(n 2^n)."""
    return FourierExpansion(f.n, _wht(f.values) / (1 << f.n))


def inverse_fourier(expansion: FourierExpansion) -> HypercubeFunction:
    return HypercubeFunction(expansion.n, _wht(expansion.coefficients))


def project_degree(f: HypercubeFunction, d: int) -> HypercubeFunction:
    """Keep only the degree-d homogeneous part."""
    if not 0 <= d <= f.n:
        raise InvalidArgumentError(f"degree must lie in [0, {f.n}], got {d}")
    expansion = fourier_transform(f)
    kept = np.where(expansion.degrees() == d, expansion.coefficients, 0.0)
    return inverse_fourier(FourierExpansion(f.n, kept))


def noise_operator(f: HypercubeFunction, rho: float) -> HypercubeFunction:
    """Attenuate degree-d coefficients by rho^d."""
    if not 0.0 <= rho <= 1.0:
        raise InvalidArgumentError(f"rho must lie in [0, 1], got {rho}")
    expansion = fourier_transform(f)
    damped = expansion.coefficients * rho ** expansion.degrees()
    return inverse_fourier(FourierExpansion(f.n, damped))


def norm_p(f: HypercubeFunction, p: float) -> float:
    """Normalized p-norm: (mean |f|^p)^(1/p)."""
    if p < 1.0:
        raise InvalidArgumentError(f"need p >= 1, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def hypercontractivity_check(
    f: HypercubeFunction, rho: float, p: float
) -> tuple[float, float, bool]:
    """Both sides of ||T_rho f||_q <= ||f||_p with q = 1 + (p-1)/rho^2."""
    if not 0.0 < rho <= 1.0:
        raise InvalidArgumentError(f"need 0 < rho <= 1, got {rho}")
    if p < 1.0:
        raise InvalidArgumentError(f"need p >= 1, got {p}")
    q = 1.0 + (p - 1.0) / (rho * rho)
    lhs = norm_p(noise_operator(f, rho), q)
    rhs = norm_p(f, p)
    return lhs, rhs, lhs <= rhs + 1e-12


def proj2_norm(f: HypercubeFunction) -> float:
    """L2 norm of the degree-2 part, straight from the coefficient table."""
    expansion = fourier_transform(f)
    mask = expansion.degrees() == 2
    return float(np.sqrt((expansion.coefficients[mask] ** 2).sum()))


def harmonic_bound_check(f: HypercubeFunction, lam: float) -> tuple[float, float, bool]:
    """Degree-2 norm of a [0, lam]-valued, mean-at-most-1 function against the
    bound lam (below e) or e ln lam (at or above e).
    """
    lo = float(f.values.min())
    hi = float(f.values.max())
    if lo < 0.0:
        raise PreconditionError(f"pointwise nonnegativity fails: min value {lo}")
    if hi > lam:
        raise PreconditionError(f"pointwise bound fails: max value {hi} > {lam}")
    mean = f.mean()
    if mean > 1.0:
        raise PreconditionError(f"mean bound fails: E f = {mean} > 1")
    norm2 = proj2_norm(f)
    bound = lam if lam < math.e else math.e * math.log(lam)
    return norm2, bound, norm2 <= bound + 1e-12


def proj2_quadratic_form(f: HypercubeFunction) -> SymmetricMatrix:
    """Zero-diagonal matrix A with x^T A x equal to the degree-2 part of f at
    every vertex: off-diagonal entries are half the pair coefficients.
    """
    n = f.n
    expansion = fourier_transform(f)
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dense[i, j] = dense[j, i] = 0.5 * expansion.coefficients[(1 << i) | (1 << j)]
    return SymmetricMatrix.from_dense(dense)


def slack_value(x, y, n: int, eps: float) -> float:
    """((x.y)^2 / n + eps) / (1 + eps) for sign vectors x, y.

    Always within [eps/(1+eps), (n+eps)/(1+eps)], hence nonnegative.
    """
    if eps < 0:
        raise InvalidArgumentError(f"eps must be nonnegative, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (n,) or y.shape != (n,):
        raise InvalidArgumentError(f"vertices must have shape ({n},)")
    if (np.abs(x) != 1.0).any() or (np.abs(y) != 1.0).any():
        raise InvalidArgumentError("vertex coordinates must be +1 or -1")
    return (float(x @ y) ** 2 / n + eps) / (1.0 + eps)


def q_poly_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact first and second moments of (x.y)^2 - n over uniform sign
    vectors x, for fixed y.

    The distribution of x.y does not depend on y (flipping coordinates of x is
    measure-preserving), so y is taken to be all ones and the enumeration
    collapses onto popcount classes with exact binomial weights.  Returns
    dyadic rationals; the values are 0 and 2n(n-1).
    """
    if not 1 <= n <= 20:
        raise SizeLimitError(f"exact enumeration supports 1 <= n <= 20, got {n}")
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
    evaluates E_x[f(x) * (-x^T G0 x)] by full vertex enumeration.
    """
    if f.n > MAX_ENUMERATION_BITS:
        raise SizeLimitError(
            f"per-trial enumeration supports n <= {MAX_ENUMERATION_BITS}, got {f.n}"
        )
    if trials < 2:
        raise InvalidArgumentError(f"need at least 2 trials, got {trials}")
    check_seed(seed)
    n = f.n
    signs = all_vertices(n)
    scale = 1.0 / (1 << n)
    values = np.empty(trials)
    chunk = 256
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        mats = gaussian_sym_batch(n, seed, start, stop, traceless=True)
        # quadratic forms at all vertices, then pair with f
        quad = np.einsum("vi,bij,vj->bv", signs, mats, signs, optimize=True)
        values[start:stop] = -(quad @ f.values) * scale
    empirical = float(values.var(ddof=1))
    theoretical = 2.0 * proj2_norm(f) ** 2
    return empirical, theoretical


def random_bounded_function(n: int, lam: float, rng: np.random.Generator) -> HypercubeFunction:
    """Random function satisfying the harmonic-bound preconditions: values in
    [0, lam] and mean at most 1.

    Draws a random polynomial of degree at most 2, clips it into [0, 1],
    scales by lam, then rescales if the mean exceeds 1.
    """
    _check_n(n)
    if lam <= 0:
        raise InvalidArgumentError(f"threshold must be positive, got {lam}")
    coeffs = np.zeros(1 << n)
    degrees = _popcount(np.arange(1 << n, dtype=np.uint32))
    low = degrees <= 2
    coeffs[low] = rng.standard_normal(int(low.sum()))
    g = inverse_fourier(FourierExpansion(n, coeffs))
    values = lam * np.clip(g.values, 0.0, 1.0)
    mean = values.mean()
    if mean > 1.0:
        # slight undershoot so rounding cannot push the mean back above 1
        values = values / (mean * (1.0 + 1e-12))
    return HypercubeFunction(n, values)


def threshold_split(
    f: HypercubeFunction, lam: float
) -> tuple[HypercubeFunction, HypercubeFunction]:
    """Split f into the part above the threshold and the part at or below it.

    For nonnegative f with E f <= 1, the above-threshold part is supported on
    fewer than 2^n / lam vertices.
    """
    if lam <= 0:
        raise InvalidArgumentError(f"threshold must be positive, got {lam}")
    above = f.values > lam
    sharp = np.where(above, f.values, 0.0)
    flat = np.where(above, 0.0, f.values)
    return HypercubeFunction(f.n, sharp), HypercubeFunction(f.n, flat)


# -- hfun v1 text format --------------------------------------------------------
#
# Header line: n.  Then 2^n floats in vertex-index order, 17 significant digits.


def write_hfun(f: HypercubeFunction, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{f.n}\n")
        for start in range(0, f.values.size, 8):
            row = f.values[start : start + 8]
            fh.write(" ".join(format(v, ".17g") for v in row))
            fh.write("\n")


def read_hfun(path) -> HypercubeFunction:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty hfun payload")
    n = int(tokens[0])
    values = [float(v) for v in tokens[1:]]
    if len(values) != (1 << n):
        raise ValueError(f"expected {1 << n} values for n={n}, got {len(values)}")
    return HypercubeFunction(n, np.array(values))
