"""Monte Carlo estimators of Gaussian widths.

Widths of matrix-cone bases reduce to expected extreme eigenvalues of random
symmetric Gaussian matrices; widths of generic convex sets are averaged
support-function values.  The relaxations' dual support functions live in
cones; this module draws the trials and averages.  Every estimator is
deterministic given its seed: matrix trials draw from per-trial substreams
keyed (seed, trial), oracle trials consume a prefix of the (seed, 0) stream,
and aggregation order is fixed, so results do not depend on the degree of
parallelism.  With more than one allowed core, base-psd chunks run on a
thread pool, and one helper thread draws each next block of oracle
directions, in stream order, while the caller evaluates the current block.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

import numpy as np

from ._rng import check_seed, is_integer, substream
from .cones import (
    _GREEDY_RESTARTS,
    ConeFamily,
    check_k_sparse,
    compressor,
    k_sparse_largest_eigenvalue,
    largest_block_eigenvalue,
)
from .errors import InvalidArgumentError, OracleFailureError
from .linalg import _check_dim, gaussian_sym_batch

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
    "l2_ball_oracle",
    "ellipsoid_oracle",
    "l1_ball_oracle",
    "shifted_oracle",
]

_TRIAL_CHUNK = 64  # fixed so per-trial arithmetic is independent of threading
# Rows a greedy width_dual_base_sparse chunk's first step screens, 21 k (n-k) a trial.  Sparse-search
# wall_ref_s, median of 4 runs on 2 cores: 0.099 s at 2,048 (one trial a chunk at (20, 4)), 0.086 s at
# 4,096, 0.085 s at 8,192, 0.088 s at 32,768 with peak RSS 44.2 -> 49.0 MB; the least that gains.
_GREEDY_STEP_ROWS = 4096
_TINY_STD = 2.0**-480  # a std this large has squared deviations far above the subnormals


def thread_count() -> int:
    """Every core this process may run on: the base-psd pool's worker cap,
    and above 1 the switch for the oracle draw-ahead helper; at 1, no loop
    starts a thread."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
        Ordinary values, and constant ones, keep the plain moments' bits.
        values must be 1-D with at least 2 entries, as an estimator's are;
        they are read, never written."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise InvalidArgumentError(f"need a 1-D array of at least 2 values, got shape {values.shape}")
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

    ``evaluate_batch``, keyword-only, maps a (T, dim) block of directions g
    to the T values sup_{z in S} <g, z>; a value must not depend on the rows
    around it.  dim must be an integer >= 1, else InvalidDimensionError; a
    formula that is not callable raises InvalidArgumentError.  Oracles must
    be pure.
    """

    dim: int
    _: KW_ONLY
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        _check_dim(self.dim)
        if not callable(self.evaluate_batch):
            raise InvalidArgumentError(f"evaluate_batch must be callable, got {self.evaluate_batch!r}")


@dataclass(frozen=True)
class ConcentrationResult:
    """Observed two-sided deviation frequency against the exp(-a^2/4pi) bound."""

    empirical: float
    bound: float
    alpha: float
    estimate: WidthEstimate


def _check_trials(trials: int, least: int = 2) -> None:
    if not is_integer(trials):
        raise InvalidArgumentError(f"trials must be an integer, got {trials!r}")
    if trials < least:
        raise InvalidArgumentError(f"need at least {least} trials, got {trials}")


def _run_trials(trials: int, chunk: int, kernel: Callable, outputs=1, workers=1) -> np.ndarray:
    """The (trials,) values, or (outputs, trials) rows, that kernel(start, stop)
    gives for each chunk [start, start + chunk) of trials.  The array exists
    before the first call, so a trial count past the free memory raises
    MemoryError at once.  Chunks run in order on the caller's thread, or with
    workers > 1 on a pool of up to that many threads: one task a thread, each
    taking the next chunk until none is left, and writing its own slice.  A
    chunk that raises stops every worker at its next chunk, and its error
    propagates."""
    values = np.empty((outputs, trials) if outputs > 1 else trials)
    starts = range(0, trials, chunk)
    pending, lock = iter(starts), threading.Lock()

    def work() -> None:
        nonlocal pending
        while True:
            with lock:
                start = next(pending, None)
            if start is None:
                return
            stop = min(start + chunk, trials)
            try:
                values[..., start:stop] = kernel(start, stop)
            except BaseException:
                with lock:
                    pending = iter(())
                raise

    workers = min(workers, len(starts))
    if workers <= 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for task in [pool.submit(work) for _ in range(workers)]:
                task.result()
    return values


def _run_drawn_trials(trials: int, chunk: int, draw: Callable, kernel: Callable) -> np.ndarray:
    """_run_trials of kernel(start, draw(stop - start)), kernel always on the
    caller's thread: each chunk's block is the next draw(take) from one
    sequential stream, in order.  When thread_count() > 1 and there is more than one chunk, one
    helper thread draws block i + 1 while the caller runs kernel on block i;
    only the helper calls draw, in the same order and with the same sizes,
    so every block keeps its bits.  At most two blocks are alive at once.
    An error from either side propagates once the helper has stopped."""
    if thread_count() <= 1 or trials <= chunk:
        return _run_trials(trials, chunk, lambda start, stop: kernel(start, draw(stop - start)))
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw, chunk)

        def work(start: int, stop: int) -> np.ndarray:
            nonlocal ahead
            block = ahead.result()
            if stop < trials:
                ahead = helper.submit(draw, min(chunk, trials - stop))
            return kernel(start, block)

        try:
            return _run_trials(trials, chunk, work)
        finally:
            ahead.cancel()  # the pool's exit waits out a draw already running


def _mean_and_var(values: np.ndarray) -> tuple[float, float]:
    """values.mean() and values.var(ddof=1) of a 1-D float array, bit for
    bit, by numpy's own steps (numpy/_core/_methods.py, _var): the
    (1,)-shaped mean, then the squared deviations, written over values.  So
    the caller must own values and read them no more."""
    mean = np.add.reduce(values, keepdims=True)
    np.true_divide(mean, values.size, out=mean)
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return float(mean[0]), float(np.add.reduce(values)) / (values.size - 1)


def _plain_moments(values: np.ndarray) -> bool:
    """True when WidthEstimate.from_values is certain to keep the plain
    moments of the (T,) values: their spread max - min >= 2^-400 and
    m = max|v| <= 2^500 / sqrt(T).

    - The sum is at most T m <= sqrt(T) 2^500, so the mean is finite.
    - Each computed deviation d is at most 2m (1 + eps) in size, so d^2
      stays below 2^1003 / T and their rounded sum S below 2^1004: no
      overflow, and the variance S / (T - 1) is finite.
    - The mean lies at least (max - min) / 2 from max or from min, so some
      d is at least 2^-401 (1 - eps) and its square a normal number above
      2^-804.  A rounded sum of nonnegative terms is at least its largest
      term, so S >= 2^-804, and for T < 2^64 the standard deviation is above
      2^-434, far over _TINY_STD.

    NaN fails both tests."""
    top, bottom = float(values.max()), float(values.min())
    return 2.0**-400 <= top - bottom and max(top, -bottom) <= 2.0**500 / math.sqrt(values.size)


def _estimate(values: np.ndarray, seed: int, keep_values: bool) -> WidthEstimate:
    """WidthEstimate.from_values(values, seed, keep_values), bit for bit, for
    (trials,) values the caller owns and reads no more.  Unless they are
    kept, _mean_and_var writes the squared deviations over them, so the
    estimate takes no second array, whenever _plain_moments holds.
    Otherwise from_values takes them: its fallback rescales the values as
    they were drawn."""
    if not keep_values and _plain_moments(values):
        mean, var = _mean_and_var(values)
        trials = values.size
        return WidthEstimate(mean, math.sqrt(var) / math.sqrt(trials), trials, seed)
    return WidthEstimate.from_values(values, seed, keep_values)


def _matrix_trials(
    n: int, trials: int, seed: int, keep_values: bool, per_stack: Callable, chunk: int = 0, pooled=False
) -> WidthEstimate:
    """Estimate from per-trial values of standard Gaussian n-by-n matrices:
    per_stack maps the dense stack of each chunk's trials, drawn with
    gaussian_sym_batch (chunk 0 means _TRIAL_CHUNK) on thread_count() workers
    when pooled, else on the caller's thread, to one value per trial, which
    must depend only on that trial's matrix."""
    _check_trials(trials)
    check_seed(seed)
    kernel = lambda start, stop: per_stack(gaussian_sym_batch(n, seed, start, stop))
    values = _run_trials(trials, chunk or _TRIAL_CHUNK, kernel, workers=thread_count() if pooled else 1)
    return _estimate(values, seed, keep_values)


def width_base_psd(n: int, trials: int, seed: int, keep_values: bool = True) -> WidthEstimate:
    """Width of the unit-trace PSD base: per-trial largest eigenvalue of a
    standard Gaussian symmetric matrix (the -I/n translation contributes
    nothing under trace-zero test directions).
    """
    largest = lambda mats: np.linalg.eigvalsh(mats)[:, -1]
    return _matrix_trials(n, trials, seed, keep_values, largest, pooled=True)


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
    any draw (cones.check_k_sparse).  Each chunk's (T, n, n) stack goes in
    one call through this module's k_sparse_largest_eigenvalue, the name
    the benchmark's tracer wraps.  A greedy chunk holds at most
    _GREEDY_STEP_ROWS // (21 k (n-k)) trials, so its first swap step
    screens at most that many rows.  The chunks run on the caller's thread:
    the searches hold the GIL, and two threads took longer than one.
    """
    check_k_sparse(n, k, mode)
    per_stack = lambda mats: k_sparse_largest_eigenvalue(mats, k, mode)
    chunk = min(_TRIAL_CHUNK, max(1, _GREEDY_STEP_ROWS // max(1, (_GREEDY_RESTARTS + 1) * k * (n - k))))
    return _matrix_trials(n, trials, seed, keep_values, per_stack, 0 if mode == "exhaustive" else chunk)


_DUAL_STACK_BYTES = 1 << 24  # byte cap on the compressed matrices of one width_general_dual chunk


def width_general_dual(
    family: ConeFamily,
    trials: int,
    seed: int,
    keep_values: bool = True,
) -> WidthEstimate:
    """Width of the dual base of a general k-PSD relaxation: expected maximum
    over the family of the largest eigenvalue of U^T G U.

    cones.compressor contracts each chunk of T trials, bit for bit the einsum
    "uik,ij,ujl->ukl" of each trial, into one (T, N, k, k) buffer of blocks
    U^T G U; cones.largest_block_eigenvalue takes each trial's maximum over
    its N blocks, screening the whole buffer in one call.  The chunks run
    on the caller's thread: the per-trial contractions hold the GIL, and two
    threads took longer than one.
    """
    n, count, k = family.ambient_dim, len(family), family.rank
    compress = compressor(family)

    def per_stack(mats: np.ndarray) -> np.ndarray:
        blocks = np.empty((len(mats), count, k, k))
        for G, out in zip(mats, blocks):  # one contraction per trial: a batched one is not bit-exact
            compress(G, out)
        return largest_block_eigenvalue(blocks)

    chunk = min(_TRIAL_CHUNK, max(1, _DUAL_STACK_BYTES // (count * k * k * 8)))
    return _matrix_trials(n, trials, seed, keep_values, per_stack, chunk)


def _oracle_values(oracle: SupportOracle, trials: int, seed: int) -> np.ndarray:
    """Per-trial support values on standard Gaussian directions.

    Directions are a prefix of the (seed, 0) stream, drawn in fixed-size
    blocks by _run_drawn_trials; trial t sees the same direction no matter
    the total trial count or the thread count.
    """
    rng = substream(seed)
    draw = lambda take: rng.standard_normal((take, oracle.dim))

    def kernel(start: int, dirs: np.ndarray) -> np.ndarray:
        take = len(dirs)
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check names the trial
            vals = np.asarray(oracle.evaluate_batch(dirs), dtype=np.float64)
        if vals.shape != (take,):
            raise OracleFailureError(f"evaluate_batch returned shape {vals.shape}, expected ({take},)")
        if not np.isfinite(vals).all():
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise OracleFailureError(
                f"oracle {oracle.label or '<anonymous>'} returned a non-finite value "
                f"at trial {start + bad}",
                direction=dirs[bad].copy(),
            )
        return vals

    return _run_drawn_trials(trials, max(1, (1 << 16) // oracle.dim), draw, kernel)


def width_via_oracle(
    oracle: SupportOracle,
    trials: int,
    seed: int,
    keep_values: bool = True,
) -> WidthEstimate:
    """Monte Carlo Gaussian width of the set behind a support oracle."""
    _check_trials(trials)
    check_seed(seed)
    return _estimate(_oracle_values(oracle, trials, seed), seed, keep_values)


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
    # the frequency is counted before _estimate writes over values, with the mean it returns
    if _plain_moments(values):
        w = float(values.mean())
    else:
        w = WidthEstimate.from_values(values, seed, keep_values=False).mean
    empirical = float(((values > (1.0 + alpha) * w) | (values < (1.0 - alpha) * w)).mean())
    estimate = _estimate(values, seed, keep_values=False)
    bound = math.exp(-(alpha**2) / (4.0 * math.pi))
    return ConcentrationResult(empirical, bound, float(alpha), estimate)


def kappa(d: int) -> float:
    """Expected norm of a standard Gaussian vector in R^d (gamma-ratio form)."""
    if not (is_integer(d) and d >= 1):
        raise InvalidArgumentError(f"dimension must be an integer >= 1, got {d!r}")
    return math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


# -- built-in oracles ----------------------------------------------------------


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1) of a 2-D float array, bit for bit.

    numpy sums each row with its own inner loop, which costs more than the
    arithmetic when rows are short.  Below 8 columns numpy adds the terms in
    order and the row sum to 0.0, so this adds whole columns in order, in
    one new array; wider blocks go to x.sum.
    """
    if x.shape[1] >= 8:
        return x.sum(axis=1)
    total = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += x[:, j]
    return np.add(0.0, total, out=total)


def _scaled_norms(squares: np.ndarray, scale: float) -> np.ndarray:
    """scale * np.sqrt(_row_sums(squares)), bit for bit, with the root and
    the scaling taken in place on the one array of row sums."""
    norms = _row_sums(squares)
    np.sqrt(norms, out=norms)
    return np.multiply(scale, norms, out=norms)


# With the largest semi-axis s between these bounds, no (s g)^2 overflows for a
# Gaussian g, and the squares that underflow are negligible next to their sum.
_PLAIN_AXES = (2.0**-300, 2.0**300)


def _check_ball(dim: int, radius: float) -> None:
    _check_dim(dim)
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
    scale = float(radius)  # a Real times a float array is float(radius) times it
    return SupportOracle(
        dim,
        evaluate_batch=lambda dirs: _scaled_norms(dirs * dirs, scale),
        label=f"l2-ball(d={dim}, r={scale:g})",
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

    def batch(dirs: np.ndarray) -> np.ndarray:
        terms = dirs * unit
        return _scaled_norms(np.square(terms, out=terms), scale)

    return SupportOracle(
        axes.size,
        evaluate_batch=batch,
        label=f"ellipsoid(axes={','.join(format(a, 'g') for a in axes)})",
    )


def l1_ball_oracle(dim: int, radius: float = 1.0) -> SupportOracle:
    """Support function radius * max|g_i| of the centered cross-polytope."""
    _check_ball(dim, radius)
    scale = float(radius)  # as in l2_ball_oracle
    return SupportOracle(
        dim,
        evaluate_batch=lambda dirs: scale * np.abs(dirs).max(axis=1),
        label=f"l1-ball(d={dim}, r={scale:g})",
    )


def shifted_oracle(oracle: SupportOracle, shift) -> SupportOracle:
    """Oracle for S + shift: the value of each direction g moves by <g, shift>.

    Its formula is oracle's batch plus _row_sums(dirs * shift).  A BLAS
    product dirs @ shift can round a row differently in a block than alone; a
    row sum cannot, so a trial's value does not depend on the block of
    directions, or the trial window, it lands in.
    """
    t = np.asarray(shift, dtype=np.float64)
    if t.shape != (oracle.dim,):
        raise InvalidArgumentError(f"shift must have shape ({oracle.dim},), got {t.shape}")
    inner = oracle.evaluate_batch
    batch = lambda dirs: np.asarray(inner(dirs)) + _row_sums(dirs * t)
    label = f"{oracle.label}+shift" if oracle.label else "shifted"
    return SupportOracle(oracle.dim, evaluate_batch=batch, label=label)
