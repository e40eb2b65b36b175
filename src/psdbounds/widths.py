"""Monte Carlo estimators of Gaussian widths.

Widths of matrix-cone bases reduce to expected extreme eigenvalues of random
symmetric Gaussian matrices; widths of generic convex sets are averaged
support-function values.  The relaxations' dual support functions live in
cones; this module draws the trials and averages.  Every estimator is
deterministic given its seed: matrix trials draw from per-trial substreams
keyed (seed, trial), oracle trials consume a prefix of the (seed, 0) stream,
and aggregation order is fixed, so results do not depend on the degree of
parallelism.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import check_seed, substream
from .cones import (
    ConeFamily,
    check_k_sparse,
    compressor,
    k_sparse_largest_eigenvalue,
    largest_block_eigenvalue,
)
from .errors import InvalidArgumentError, InvalidDimensionError, OracleFailureError
from .linalg import SymmetricMatrix, gaussian_sym_batch

# Not called in this module; kept as a module attribute because the
# benchmark's tracer (perfbench/tracing.py) wraps it by name here.
from .linalg import gaussian_sym  # noqa: F401

__all__ = [
    "WidthEstimate",
    "SupportOracle",
    "ConcentrationResult",
    "width_base_psd",
    "k_sparse_largest_eigenvalue",
    "width_dual_base_sparse",
    "width_general_dual",
    "width_via_oracle",
    "concentration_check",
    "kappa",
    "base_psd_width_ratio",
    "l2_ball_oracle",
    "ellipsoid_oracle",
    "l1_ball_oracle",
    "shifted_oracle",
]

_TRIAL_CHUNK = 64  # fixed so per-trial arithmetic is independent of threading
_TINY_STD = 2.0**-480  # a std this large has squared deviations far above the subnormals


def thread_count() -> int:
    """Worker cap for the matrix trial runner: every core."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class WidthEstimate:
    """Monte Carlo width estimate with its sampling record."""

    mean: float
    std_error: float
    trials: int
    seed: int
    per_trial_values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int, keep_values: bool = True) -> "WidthEstimate":
        """Mean and standard error of values.  When the plain mean or standard
        deviation leaves the float range, both are taken as s * (the moment
        of values / s) with s = max|values|, the pattern of
        linalg._frobenius_parts; finite values then give finite moments.
        When the plain standard deviation is below _TINY_STD, its squared
        deviations may have underflowed, so it alone is taken that way.
        Ordinary values, and constant ones, keep the plain moments' bits."""
        values = np.asarray(values, dtype=np.float64)
        trials = values.size
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(values.mean())
            std = float(values.std(ddof=1))
        overflowed = not (math.isfinite(mean) and math.isfinite(std))
        if overflowed or std < _TINY_STD:
            scale = float(np.abs(values).max())
            if 0.0 < scale < math.inf:
                unit = values / scale
                if overflowed:
                    mean = scale * float(unit.mean())
                std = scale * float(unit.std(ddof=1))
        return cls(mean, std / math.sqrt(trials), trials, seed, values if keep_values else None)


@dataclass(frozen=True)
class SupportOracle:
    """Support-function oracle h_S for a set S in R^dim, held as one formula.

    ``evaluate`` maps one direction to sup_{z in S} <g, z>; ``evaluate_batch``
    maps a (T, dim) block of directions to T values.  Given one, the oracle
    derives the other (the batch run on one row, or evaluate run on each
    row), so both give the same bits; given neither, it raises
    InvalidArgumentError.  Oracles must be pure.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float] | None = None
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __post_init__(self):
        # derived from the given callable, not self: an oracle holds no cycle
        one, batch = self.evaluate, self.evaluate_batch
        if one is None and batch is None:
            raise InvalidArgumentError("a support oracle needs evaluate or evaluate_batch")
        if one is None:
            one = lambda g: float(batch(np.asarray(g, dtype=np.float64)[None])[0])
        elif batch is None:
            batch = _batch_of(one)
        object.__setattr__(self, "evaluate", one)
        object.__setattr__(self, "evaluate_batch", batch)


def _batch_of(one: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    """The batch formula of a scalar one: evaluate run on each row, and an
    error naming evaluate when it returns something other than one value."""

    def batch(dirs: np.ndarray) -> np.ndarray:
        values = np.empty(len(dirs))
        for t, g in enumerate(dirs):
            value = one(g)
            if np.shape(value) != ():
                raise OracleFailureError(
                    f"evaluate returned shape {np.shape(value)}, expected ()", direction=g.copy()
                )
            values[t] = value
        return values

    return batch


@dataclass(frozen=True)
class ConcentrationResult:
    """Observed two-sided deviation frequency against the exp(-a^2/4pi) bound."""

    empirical: float
    bound: float
    alpha: float
    estimate: WidthEstimate


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise InvalidArgumentError(f"need at least 2 trials, got {trials}")


def _matrix_trials(
    n: int, trials: int, seed: int, keep_values: bool, per_stack: Callable, chunk: int = 0
) -> WidthEstimate:
    """Estimate from per-trial values of standard Gaussian n-by-n matrices.

    Each task draws the dense stack of trials [start, start + chunk) with
    gaussian_sym_batch (chunk 0 means _TRIAL_CHUNK) and per_stack maps it to
    one value per trial, which must depend only on that trial's matrix.
    Tasks run on a thread pool of up to thread_count() workers; a single
    worker runs them on the caller's thread.  The (trials,) value array is
    allocated before the first draw and each task writes its own slice, so
    a trial count past the free memory raises MemoryError at once.
    """
    _check_trials(trials)
    check_seed(seed)
    chunk = chunk or _TRIAL_CHUNK
    values = np.empty(trials)

    def task(start: int) -> None:
        stop = min(start + chunk, trials)
        values[start:stop] = per_stack(gaussian_sym_batch(n, seed, start, stop))

    starts = range(0, trials, chunk)
    workers = min(thread_count(), len(starts))
    if workers <= 1:
        for start in starts:
            task(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, starts))
    return WidthEstimate.from_values(values, seed, keep_values)


def width_base_psd(n: int, trials: int, seed: int, keep_values: bool = True) -> WidthEstimate:
    """Width of the unit-trace PSD base: per-trial largest eigenvalue of a
    standard Gaussian symmetric matrix (the -I/n translation contributes
    nothing under trace-zero test directions).
    """
    return _matrix_trials(n, trials, seed, keep_values, lambda mats: np.linalg.eigvalsh(mats)[:, -1])


def width_dual_base_sparse(
    n: int,
    k: int,
    trials: int,
    seed: int,
    mode: str = "exhaustive",
    keep_values: bool = True,
) -> WidthEstimate:
    """Width of the unit-trace slice of the factor-width-k cone: expected
    largest k-sparse eigenvalue of a standard Gaussian symmetric matrix.

    n, k, mode and, in exhaustive mode, the subset count are checked before
    any draw (cones.check_k_sparse).  Each trial goes through this module's
    k_sparse_largest_eigenvalue, the name the benchmark's tracer wraps, as
    SymmetricMatrix.from_dense(G), which keeps G's bits.
    """
    check_k_sparse(n, k, mode)

    def per_stack(mats: np.ndarray) -> np.ndarray:
        return np.array([k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(G), k, mode) for G in mats])

    return _matrix_trials(n, trials, seed, keep_values, per_stack)


_DUAL_STACK_BYTES = 1 << 24  # byte cap on the compressed matrices of one width_general_dual chunk


def width_general_dual(
    family: ConeFamily,
    trials: int,
    seed: int,
    keep_values: bool = True,
) -> WidthEstimate:
    """Width of the dual base of a general k-PSD relaxation: expected maximum
    over the family of the largest eigenvalue of U^T G U.

    Each trial's N blocks U^T G U come from cones.compressor, bit for bit
    the einsum "uik,ij,ujl->ukl" of each trial, and
    cones.largest_block_eigenvalue takes each trial's maximum over them.
    """
    n, count, k = family.ambient_dim, len(family), family.rank
    compress = compressor(family)

    def per_stack(mats: np.ndarray) -> np.ndarray:
        # one contraction per trial: a batched contraction is not bit-exact
        return largest_block_eigenvalue(np.stack([compress(G) for G in mats]))

    chunk = min(_TRIAL_CHUNK, max(1, _DUAL_STACK_BYTES // (count * k * k * 8)))
    return _matrix_trials(n, trials, seed, keep_values, per_stack, chunk)


def _oracle_values(oracle: SupportOracle, trials: int, seed: int) -> np.ndarray:
    """Per-trial support values on standard Gaussian directions.

    Directions are a prefix of the (seed, 0) stream, drawn in fixed-size
    blocks; trial t sees the same direction no matter the total trial count.
    """
    rng = substream(seed)
    values = np.empty(trials)
    pos = 0
    block = max(1, (1 << 16) // max(1, oracle.dim))
    while pos < trials:
        take = min(block, trials - pos)
        dirs = rng.standard_normal((take, oracle.dim))
        vals = np.asarray(oracle.evaluate_batch(dirs), dtype=np.float64)
        if vals.shape != (take,):
            raise OracleFailureError(f"evaluate_batch returned shape {vals.shape}, expected ({take},)")
        if not np.isfinite(vals).all():
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise OracleFailureError(
                f"oracle {oracle.label or '<anonymous>'} returned a non-finite value "
                f"at trial {pos + bad}",
                direction=dirs[bad].copy(),
            )
        values[pos : pos + take] = vals
        pos += take
    return values


def width_via_oracle(
    oracle: SupportOracle,
    trials: int,
    seed: int,
    keep_values: bool = True,
) -> WidthEstimate:
    """Monte Carlo Gaussian width of the set behind a support oracle."""
    _check_trials(trials)
    check_seed(seed)
    return WidthEstimate.from_values(_oracle_values(oracle, trials, seed), seed, keep_values)


def concentration_check(
    oracle: SupportOracle,
    alpha: float,
    trials: int,
    seed: int,
) -> ConcentrationResult:
    """Frequency of support values outside (1 +- alpha) times the in-sample
    width, reported with the Gaussian concentration bound exp(-alpha^2/4pi).
    The oracle's set must contain the origin.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not alpha >= 0:
        raise InvalidArgumentError(f"alpha must be a nonnegative number, got {alpha!r}")
    _check_trials(trials)
    values = _oracle_values(oracle, trials, seed)
    estimate = WidthEstimate.from_values(values, seed, keep_values=False)
    w = estimate.mean
    outside = (values > (1.0 + alpha) * w) | (values < (1.0 - alpha) * w)
    empirical = float(outside.mean())
    bound = math.exp(-(alpha**2) / (4.0 * math.pi))
    return ConcentrationResult(empirical, bound, float(alpha), estimate)


def kappa(d: int) -> float:
    """Expected norm of a standard Gaussian vector in R^d (gamma-ratio form)."""
    if d < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
    return math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def base_psd_width_ratio(n: int, trials: int, seed: int) -> float:
    """Finite-n estimate of the PSD-base width relative to sqrt(2n), clipped
    into (0, 1].  Feeds the width_ratio hook of the counting-bound rate
    formula, whose default of 1 is the asymptotic value.
    """
    estimate = width_base_psd(n, trials, seed, keep_values=False)
    return min(estimate.mean / math.sqrt(2.0 * n), 1.0)


# -- built-in oracles ----------------------------------------------------------


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1) of a 2-D float array, bit for bit.

    numpy sums each row with its own inner loop, which costs more than the
    arithmetic when rows are short.  Below 8 columns numpy adds the terms in
    order and the row sum to 0.0, so this adds whole columns in order;
    wider blocks go to x.sum.
    """
    if x.shape[1] >= 8:
        return x.sum(axis=1)
    total = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += x[:, j]
    return 0.0 + total


# With the largest semi-axis s between these bounds, no (s g)^2 overflows for a
# Gaussian g, and the squares that underflow are negligible next to their sum.
_PLAIN_AXES = (2.0**-300, 2.0**300)


def _check_ball(dim: int, radius: float) -> None:
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real):
        raise InvalidArgumentError(f"parameter 'radius' must be a number, got {radius!r}")
    if not (math.isfinite(radius) and radius >= 0):
        raise InvalidArgumentError(f"radius must be a nonnegative finite number, got {radius!r}")


def l2_ball_oracle(dim: int, radius: float = 1.0) -> SupportOracle:
    """Support function radius * ||g|| of the centered Euclidean ball.

    The radius scales the norm of g itself, so no square leaves the float
    range on its account.  Squares are summed with _row_sums, bit for bit
    np.linalg.norm(dirs, axis=1).
    """
    _check_ball(dim, radius)
    return SupportOracle(
        dim,
        evaluate_batch=lambda dirs: radius * np.sqrt(_row_sums(dirs * dirs)),
        label=f"l2-ball(d={dim}, r={radius:g})",
    )


def ellipsoid_oracle(semi_axes) -> SupportOracle:
    """Support function ||a o g|| of the centered ellipsoid with semi-axes a.

    When the largest semi-axis s lies outside _PLAIN_AXES, a square could
    overflow or underflow, so the value is s * ||(a / s) o g||; otherwise
    it is the plain norm.  Squares are summed with _row_sums.
    """
    axes = np.asarray(semi_axes, dtype=np.float64)
    if axes.ndim != 1 or axes.size < 1 or not (np.isfinite(axes) & (axes > 0)).all():
        raise InvalidArgumentError("semi-axes must be a nonempty vector of positive finite numbers")
    scale = float(axes.max())
    if _PLAIN_AXES[0] <= scale <= _PLAIN_AXES[1]:
        scale, unit = 1.0, axes  # x * 1.0 is exactly x
    else:
        unit = axes / scale
    return SupportOracle(
        axes.size,
        evaluate_batch=lambda dirs: scale * np.sqrt(_row_sums((dirs * unit) ** 2)),
        label=f"ellipsoid(axes={','.join(format(a, 'g') for a in axes)})",
    )


def l1_ball_oracle(dim: int, radius: float = 1.0) -> SupportOracle:
    """Support function radius * max|g_i| of the centered cross-polytope."""
    _check_ball(dim, radius)
    return SupportOracle(
        dim,
        evaluate_batch=lambda dirs: radius * np.abs(dirs).max(axis=1),
        label=f"l1-ball(d={dim}, r={radius:g})",
    )


def shifted_oracle(oracle: SupportOracle, shift) -> SupportOracle:
    """Oracle for S + shift: the value of each direction g moves by <g, shift>.

    Its one formula is oracle's batch plus _row_sums(dirs * shift).  A BLAS
    product dirs @ shift can round a row differently in a block than alone; a
    row sum cannot, so evaluate has the bits of the batch row.
    """
    t = np.asarray(shift, dtype=np.float64)
    if t.shape != (oracle.dim,):
        raise InvalidArgumentError(f"shift must have shape ({oracle.dim},), got {t.shape}")
    inner = oracle.evaluate_batch
    batch = lambda dirs: np.asarray(inner(dirs)) + _row_sums(dirs * t)
    label = f"{oracle.label}+shift" if oracle.label else "shifted"
    return SupportOracle(oracle.dim, evaluate_batch=batch, label=label)
