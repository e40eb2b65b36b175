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
from .linalg import SymmetricMatrix, gaussian_sym_batch, require_finite

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


_SOLVE_SLICE = 64  # blocks per eigvalsh call in the bound-ordered search


def _lambda1_upper_bounds(blocks: np.ndarray, scale: float) -> np.ndarray:
    """Per block B of an (m, k, k) stack, a bound that eigvalsh's computed
    largest eigenvalue of B never exceeds; scale is max |entry| of the
    matrix the blocks come from.

    In exact arithmetic lambda_1(B) is at most the Gershgorin bound
    max_i (b_ii + sum_{j != i} |b_ij|) and the Wolkowicz-Styan bound
    m + sqrt((k - 1)(F/k - m^2)), with m = tr B / k and F = ||B||_F^2
    (Wolkowicz & Styan, Linear Algebra Appl. 1980).  Rounding:

    - Inside the root: F/k - m^2 cancels.  Summed in any order, F has
      absolute error at most k^2 eps F, and sum |b_ii| <= sqrt(k F), so m is
      off by at most 2 eps sqrt(k F) and m^2 by about 4 eps F; with the
      divisions and the subtraction the spread is off by at most
      (k + 6) eps F, below the 8 k eps F added.  Squares that underflow lose
      at most one subnormal unit eta each, so k^2 eta is added as well.
    - Outside the root: both bounds are off by at most about
      4 k^2 eps scale, since every |b_ij| <= scale and the root is at most
      k scale.  eigvalsh is backward stable: its lambda_1 is that of B + E
      with ||E|| <= p(k) eps ||B|| and ||B|| <= k scale.  The
      64 k^2 (eps scale + eta) added to the smaller bound covers both for
      any p(k) up to 60 k; eta covers the subnormal range.

    An overflowing Wolkowicz-Styan bound (inf or NaN) leaves the Gershgorin
    bound, which only overflows to +inf.
    """
    k = blocks.shape[1]
    eps = np.finfo(np.float64).eps
    eta = np.finfo(np.float64).smallest_subnormal
    diag = np.diagonal(blocks, axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        gershgorin = np.full(blocks.shape[0], -math.inf)
        for i in range(k):  # one row at a time: no full-size copy of the stack
            row = np.abs(blocks[:, i, :]).sum(axis=1) + (diag[:, i] - np.abs(diag[:, i]))
            np.maximum(gershgorin, row, out=gershgorin)
        mean = diag.sum(axis=1) / k
        fro = np.einsum("mij,mij->m", blocks, blocks)
        spread = fro / k - mean * mean + 8.0 * k * eps * fro + k * k * eta
        wolkowicz_styan = mean + np.sqrt((k - 1) * np.maximum(spread, 0.0))
        return np.fmin(gershgorin, wolkowicz_styan) + 64.0 * k * k * (eps * scale + eta)


def _max_lambda1_subsets(dense: np.ndarray, k: int, cap: int) -> float:
    """Largest eigvalsh lambda_1 over every k-by-k principal submatrix.

    Per chunk of subsets, the blocks are solved in descending order of
    _lambda1_upper_bounds, _SOLVE_SLICE at a time, and a block whose bound
    is below the best value solved so far is never solved: its own value
    would be below that bound.  eigvalsh solves each matrix of a stack on
    its own and max over floats ignores order, so the result is the bits of
    solving every block.
    """
    n = dense.shape[0]
    count = math.comb(n, k)
    if count > cap:
        raise EnumerationLimitError(
            f"C({n},{k}) = {count} subsets exceed the cap {cap}; use greedy mode"
        )
    scale = float(np.abs(dense).max())
    best = -math.inf
    for idx in subset_chunks(n, k):
        best = _max_lambda1_blocks(principal_submatrices(dense, idx), scale, best)
    return best


def _max_lambda1_blocks(blocks: np.ndarray, scale: float, best: float) -> float:
    """max(best, largest eigvalsh lambda_1 in the stack), solving only the
    blocks whose bound reaches the best value so far.  The stack is freed
    on return, so the caller never holds two chunks at once."""
    bounds = _lambda1_upper_bounds(blocks, scale)
    order = np.argsort(-bounds)
    bounds = bounds[order]
    for start in range(0, order.size, _SOLVE_SLICE):
        live = order[start : start + _SOLVE_SLICE][bounds[start : start + _SOLVE_SLICE] >= best]
        if not live.size:
            break
        best = max(best, float(np.linalg.eigvalsh(blocks[live])[:, -1].max()))
    return best


_GREEDY_STREAM_KEY = 0x6B5053  # fixed internal stream; greedy output is a function of (G, k)
_GREEDY_RESTARTS = 20


def _lambda1_batch(dense: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(principal_submatrices(dense, subsets))[:, -1]


def _swap_neighbourhoods(supports: np.ndarray, n: int) -> np.ndarray:
    """Every single swap of each row of supports, as an (A, k*(n-k), k) array.

    Row r, candidate i*(n-k) + j swaps out the i-th smallest member of
    supports[r] for its j-th smallest outside index; each candidate is sorted.
    """
    count, k = supports.shape
    inside = np.zeros((count, n), dtype=bool)
    inside[np.arange(count)[:, None], supports] = True
    outside = np.nonzero(~inside)[1].reshape(count, n - k)
    kept = supports[:, None, :].repeat(k, axis=1)[:, ~np.eye(k, dtype=bool)].reshape(count, k, k - 1)
    cands = np.empty((count, k, n - k, k), dtype=np.intp)
    cands[..., :-1] = kept[:, :, None, :]
    cands[..., -1] = outside[:, None, :]
    cands.sort(axis=-1)
    return cands.reshape(count, k * (n - k), k)


def _swap_ascents(dense: np.ndarray, supports) -> list[float]:
    """Steepest-ascent single swaps from each row of supports, run in lockstep.

    Each ascent starts from the largest eigenvalue of its start block and
    moves to the first best swap while that beats its value by more than
    1e-12.  Every step solves, in one eigvalsh call, only the candidates no
    ascent has met before; a dict keyed by the candidate's index bytes keeps
    the rest, and eigvalsh solves each matrix of a stack on its own, so the
    memo changes no value.
    """
    supports = np.array(supports, dtype=np.intp)
    k = supports.shape[1]
    n = dense.shape[0]
    best = _lambda1_batch(dense, supports)
    memo: dict[bytes, float] = {}
    row_key = np.dtype((np.void, k * np.dtype(np.intp).itemsize))
    active = np.arange(len(supports))
    while active.size:
        cands = _swap_neighbourhoods(supports[active], n)
        flat = cands.reshape(-1, k)
        keys = flat.view(row_key).ravel().tolist()
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            rows = np.frombuffer(b"".join(fresh), dtype=np.intp).reshape(-1, k)
            memo.update(zip(fresh, _lambda1_batch(dense, rows).tolist()))
        vals = np.array([memo[key] for key in keys]).reshape(cands.shape[:2])
        top = vals.argmax(axis=1)
        top_vals = vals[np.arange(active.size), top]
        moved = ~(top_vals <= best[active] + 1e-12)
        best[active[moved]] = top_vals[moved]
        supports[active[moved]] = cands[moved, top[moved]]
        active = active[moved]
    return best.tolist()


def _greedy_k_sparse(dense: np.ndarray, k: int) -> float:
    n = dense.shape[0]
    # grow from the best single coordinate
    support = np.array([np.argmax(np.diag(dense))])
    while support.size < k:
        outside = np.setdiff1d(np.arange(n), support)
        cands = np.sort(np.column_stack([np.tile(support, (outside.size, 1)), outside]), axis=1)
        support = cands[_lambda1_batch(dense, cands).argmax()]
    rng = substream(_GREEDY_STREAM_KEY)
    restarts = [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(_GREEDY_RESTARTS)]
    return max(_swap_ascents(dense, [support, *restarts]))


def k_sparse_largest_eigenvalue(
    G: SymmetricMatrix,
    k: int,
    mode: str = "exhaustive",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Largest eigenvalue over k-by-k principal submatrices.

    Exhaustive mode maximizes over all C(n, k) subsets, solving only the
    blocks an eigenvalue bound cannot rule out.  Greedy mode returns a
    lower bound from local swap ascent (best-single-coordinate start plus 20
    random restarts from a fixed internal stream; deterministic given G, k).
    Non-finite entries raise NumericalFailureError.
    """
    n = G.dim
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")
    require_finite(G)
    return _k_sparse_lambda1(G.to_dense(), k, mode, cap)


def _k_sparse_lambda1(
    dense: np.ndarray, k: int, mode: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """k_sparse_largest_eigenvalue on a finite dense matrix with 1 <= k <= n."""
    n = dense.shape[0]
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
        # Gaussian trial matrices are finite: no round trip through SymmetricMatrix
        return np.array([_k_sparse_lambda1(G, k, mode) for G in gaussian_sym_batch(n, seed, start, stop)])

    return WidthEstimate.from_values(_run_trials(trials, per_chunk), seed, keep_values)


_DUAL_STACK_BYTES = 1 << 24  # compressed matrices per eigvalsh call in width_general_dual


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
    subscripts = "uik,ij,ujl->ukl"
    # the path optimize=True would search on every trial, searched once
    path = np.einsum_path(subscripts, stacked, np.empty((n, n)), stacked, optimize=True)[0]
    per_trial_bytes = len(family) * family.rank**2 * 8
    per_solve = max(1, _DUAL_STACK_BYTES // per_trial_bytes)

    def per_chunk(start: int, stop: int) -> np.ndarray:
        mats = gaussian_sym_batch(n, seed, start, stop)
        out = np.empty(stop - start)
        for lo in range(0, stop - start, per_solve):
            # one einsum per trial: a batched contraction is not bit-exact;
            # one eigvalsh per stack: it solves each matrix on its own
            compressed = np.stack([
                np.einsum(subscripts, stacked, G, stacked, optimize=path)
                for G in mats[lo : lo + per_solve]
            ])
            out[lo : lo + per_solve] = np.linalg.eigvalsh(compressed)[..., -1].max(axis=1)
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
