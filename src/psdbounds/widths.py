"""Monte Carlo estimators of Gaussian widths.

Widths of matrix-cone bases reduce to expected extreme eigenvalues of random
symmetric Gaussian matrices; widths of generic convex sets are averaged
support-function values.  Every estimator is deterministic given its seed:
matrix trials draw from per-trial substreams keyed (seed, trial), oracle
trials consume a prefix of the (seed, 0) stream, and aggregation order is
fixed, so results do not depend on the degree of parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import check_seed, substream
from .cones import DEFAULT_ENUMERATION_CAP, ConeFamily, principal_submatrices, subset_chunks
from .errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    OracleFailureError,
)
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


def thread_count() -> int:
    """Worker cap from PSDB_THREADS; defaults to all cores."""
    raw = os.environ.get("PSDB_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
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
        values = np.asarray(values, dtype=np.float64)
        trials = values.size
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(trials))
        return cls(mean, std_error, trials, seed, values if keep_values else None)


@dataclass(frozen=True)
class SupportOracle:
    """Support-function oracle h_S for a set S in R^dim.

    ``evaluate`` maps one direction to sup_{z in S} <g, z>; an optional
    ``evaluate_batch`` maps a (T, dim) block of directions to T values and is
    used when present.  Oracles must be pure.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""


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


def _run_trials(trials: int, per_chunk: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Evaluate fixed-size trial chunks, in parallel when allowed.

    per_chunk(start, stop) must return the values for trials [start, stop) and
    must depend only on the trial indices.
    """
    values = np.empty(trials)
    chunks = [(s, min(s + _TRIAL_CHUNK, trials)) for s in range(0, trials, _TRIAL_CHUNK)]
    workers = min(thread_count(), len(chunks))
    if workers <= 1:
        for start, stop in chunks:
            values[start:stop] = per_chunk(start, stop)
        return values
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(per_chunk, start, stop): (start, stop) for start, stop in chunks}
        for fut, (start, stop) in futures.items():
            values[start:stop] = fut.result()
    return values


def width_base_psd(n: int, trials: int, seed: int, keep_values: bool = True) -> WidthEstimate:
    """Width of the unit-trace PSD base: per-trial largest eigenvalue of a
    standard Gaussian symmetric matrix (the -I/n translation contributes
    nothing under trace-zero test directions).
    """
    _check_trials(trials)
    check_seed(seed)

    def per_chunk(start: int, stop: int) -> np.ndarray:
        return np.linalg.eigvalsh(gaussian_sym_batch(n, seed, start, stop))[:, -1]

    return WidthEstimate.from_values(_run_trials(trials, per_chunk), seed, keep_values)


def _max_lambda1_subsets(dense: np.ndarray, k: int, cap: int) -> float:
    n = dense.shape[0]
    count = math.comb(n, k)
    if count > cap:
        raise EnumerationLimitError(
            f"C({n},{k}) = {count} subsets exceed the cap {cap}; use greedy mode"
        )
    best = -math.inf
    for idx in subset_chunks(n, k):
        best = max(best, float(_lambda1_batch(dense, idx).max()))
    return best


_GREEDY_STREAM_KEY = 0x6B5053  # fixed internal stream; greedy output is a function of (G, k)
_GREEDY_RESTARTS = 20


def _lambda1_batch(dense: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(principal_submatrices(dense, subsets))[:, -1]


def _swap_ascent(dense: np.ndarray, support: list[int]) -> float:
    n = dense.shape[0]
    support = sorted(support)
    best = float(np.linalg.eigvalsh(dense[np.ix_(support, support)])[-1])
    while True:
        outside = [j for j in range(n) if j not in support]
        if not outside:
            return best
        cands = [
            sorted(set(support) - {i} | {j})
            for i in support
            for j in outside
        ]
        vals = _lambda1_batch(dense, np.asarray(cands, dtype=np.intp))
        top = int(vals.argmax())
        if vals[top] <= best + 1e-12:
            return best
        best = float(vals[top])
        support = cands[top]


def _greedy_k_sparse(dense: np.ndarray, k: int) -> float:
    n = dense.shape[0]
    # grow from the best single coordinate
    support = [int(np.argmax(np.diag(dense)))]
    while len(support) < k:
        cands = [sorted(support + [j]) for j in range(n) if j not in support]
        vals = _lambda1_batch(dense, np.asarray(cands, dtype=np.intp))
        support = cands[int(vals.argmax())]
    best = _swap_ascent(dense, support)
    rng = substream(_GREEDY_STREAM_KEY)
    for _ in range(_GREEDY_RESTARTS):
        start = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        best = max(best, _swap_ascent(dense, start))
    return best


def k_sparse_largest_eigenvalue(
    G: SymmetricMatrix,
    k: int,
    mode: str = "exhaustive",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Largest eigenvalue over k-by-k principal submatrices.

    Exhaustive mode maximizes over all C(n, k) subsets.  Greedy mode returns a
    lower bound from local swap ascent (best-single-coordinate start plus 20
    random restarts from a fixed internal stream; deterministic given G, k).
    """
    n = G.dim
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")
    dense = G.to_dense()
    if k == n:
        return float(np.linalg.eigvalsh(dense)[-1])
    if k == 1:
        return float(np.diag(dense).max())
    if mode == "exhaustive":
        return _max_lambda1_subsets(dense, k, cap)
    if mode == "greedy":
        return _greedy_k_sparse(dense, k)
    raise InvalidArgumentError(f"unknown mode {mode!r}; expected 'exhaustive' or 'greedy'")


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
    """
    _check_trials(trials)
    check_seed(seed)
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")

    def per_chunk(start: int, stop: int) -> np.ndarray:
        return np.array([
            k_sparse_largest_eigenvalue(SymmetricMatrix.from_dense(G), k, mode=mode)
            for G in gaussian_sym_batch(n, seed, start, stop)
        ])

    return WidthEstimate.from_values(_run_trials(trials, per_chunk), seed, keep_values)


def width_general_dual(
    family: ConeFamily,
    trials: int,
    seed: int,
    keep_values: bool = True,
) -> WidthEstimate:
    """Width of the dual base of a general k-PSD relaxation: expected maximum
    over the family of the largest eigenvalue of U^T G U.
    """
    _check_trials(trials)
    check_seed(seed)
    n = family.ambient_dim
    stacked = family.stacked()

    def per_chunk(start: int, stop: int) -> np.ndarray:
        out = np.empty(stop - start)
        # one einsum per trial: a batched contraction is not bit-exact
        for offset, G in enumerate(gaussian_sym_batch(n, seed, start, stop)):
            compressed = np.einsum("uik,ij,ujl->ukl", stacked, G, stacked, optimize=True)
            out[offset] = np.linalg.eigvalsh(compressed)[:, -1].max()
        return out

    return WidthEstimate.from_values(_run_trials(trials, per_chunk), seed, keep_values)


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
        if oracle.evaluate_batch is not None:
            vals = np.asarray(oracle.evaluate_batch(dirs), dtype=np.float64)
            if vals.shape != (take,):
                raise OracleFailureError(
                    f"evaluate_batch returned shape {vals.shape}, expected ({take},)"
                )
        else:
            vals = np.array([oracle.evaluate(d) for d in dirs], dtype=np.float64)
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
    if alpha < 0:
        raise InvalidArgumentError(f"alpha must be nonnegative, got {alpha}")
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


def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius >= 0):
        raise InvalidArgumentError(f"radius must be a nonnegative finite number, got {radius!r}")


def l2_ball_oracle(dim: int, radius: float = 1.0) -> SupportOracle:
    _check_radius(radius)
    return SupportOracle(
        dim=dim,
        evaluate=lambda g: radius * float(np.linalg.norm(g)),
        evaluate_batch=lambda dirs: radius * np.linalg.norm(dirs, axis=1),
        label=f"l2-ball(d={dim}, r={radius:g})",
    )


def ellipsoid_oracle(semi_axes) -> SupportOracle:
    axes = np.asarray(semi_axes, dtype=np.float64)
    if axes.ndim != 1 or axes.size < 1 or not (np.isfinite(axes) & (axes > 0)).all():
        raise InvalidArgumentError("semi-axes must be a nonempty vector of positive finite numbers")
    return SupportOracle(
        dim=axes.size,
        evaluate=lambda g: float(np.sqrt(((axes * g) ** 2).sum())),
        evaluate_batch=lambda dirs: np.sqrt(((dirs * axes) ** 2).sum(axis=1)),
        label=f"ellipsoid(axes={','.join(format(a, 'g') for a in axes)})",
    )


def l1_ball_oracle(dim: int, radius: float = 1.0) -> SupportOracle:
    _check_radius(radius)
    return SupportOracle(
        dim=dim,
        evaluate=lambda g: radius * float(np.abs(g).max()),
        evaluate_batch=lambda dirs: radius * np.abs(dirs).max(axis=1),
        label=f"l1-ball(d={dim}, r={radius:g})",
    )


def shifted_oracle(oracle: SupportOracle, shift) -> SupportOracle:
    """Oracle for S + shift; per-direction value moves by <g, shift> exactly."""
    t = np.asarray(shift, dtype=np.float64)
    if t.shape != (oracle.dim,):
        raise InvalidArgumentError(f"shift must have shape ({oracle.dim},), got {t.shape}")
    batch = None
    if oracle.evaluate_batch is not None:
        inner_batch = oracle.evaluate_batch
        batch = lambda dirs: np.asarray(inner_batch(dirs)) + dirs @ t
    return SupportOracle(
        dim=oracle.dim,
        evaluate=lambda g, _e=oracle.evaluate: float(_e(g)) + float(g @ t),
        evaluate_batch=batch,
        label=f"{oracle.label}+shift" if oracle.label else "shifted",
    )
