"""Membership tests and dual support functions of the PSD cone's block relaxations.

The sparse relaxation keeps only the PSD constraints on k-by-k principal
submatrices, with the largest k-sparse eigenvalue as its dual support
function; the general relaxation keeps the constraints restricted to a
family of k-dimensional subspaces, with max_u lambda_1(U_u^T G U_u).  Every
search over blocks runs through one LDL screen.  Also provides the rank-one
spiked matrix that sits inside the sparse relaxation but far from the PSD
cone, and the (n-k)/(k-1) separation it certifies.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import check_seed, is_integer, k_subsets, substream
from .errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidDimensionError,
    NumericalFailureError,
    SizeLimitError,
)
from .linalg import SymmetricMatrix, psd_tolerance, require_finite
from .linalg import _check_nk, _diagonal_sums, _dumps_v1, _loads_v1, _read_text, _store_frozen, _write_text

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "MAX_WITNESS_DIM",
    "SubspaceBasis",
    "ConeFamily",
    "sparse_kpsd_member",
    "sparse_kpsd_refute",
    "general_kpsd_member",
    "check_k_sparse",
    "k_sparse_largest_eigenvalue",
    "largest_block_eigenvalue",
    "g_abn",
    "witness_matrix",
    "witness_trace",
    "eps_star_lower_sparse",
    "coordinate_family",
    "write_conefam",
    "read_conefam",
]

DEFAULT_ENUMERATION_CAP = 10**7
MAX_WITNESS_DIM = 2048  # witness_matrix's dense n-by-n: 32 MiB, about 180 MB at peak

_ORTHO_DRIFT = 1e-10


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Column-orthonormal n-by-k matrix spanning one subspace of a family.

    Columns whose Gram matrix drifts from the identity by more than 1e-10 are
    re-orthonormalized with a QR factorization (sign-fixed for determinism)
    rather than rejected; user-supplied families accumulate rounding.
    Non-finite columns are rejected.
    """

    ambient_dim: int
    rank: int
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_nk(self.ambient_dim, self.rank)
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.shape != (self.ambient_dim, self.rank):
            raise InvalidArgumentError(
                f"columns must have shape ({self.ambient_dim}, {self.rank}), got {cols.shape}"
            )
        if not np.isfinite(cols).all():
            raise InvalidArgumentError("basis columns must be finite")
        gram = cols.T @ cols
        if np.abs(gram - np.eye(self.rank)).max() > _ORTHO_DRIFT:
            q, r = np.linalg.qr(cols)
            pivots = np.abs(np.diag(r))
            if pivots.min() <= 1e-10 * max(pivots.max(), 1.0):
                raise InvalidArgumentError("columns are rank-deficient; cannot orthonormalize")
            cols = q * np.sign(np.diag(r))
        _store_frozen(self, "columns", cols)


@dataclass(frozen=True, eq=False)
class ConeFamily:
    """Nonempty list of subspace bases sharing ambient dimension and rank."""

    ambient_dim: int
    bases: tuple[SubspaceBasis, ...]

    def __post_init__(self):
        bases = tuple(self.bases)
        if not bases:
            raise InvalidArgumentError("a cone family needs at least one basis")
        ranks = {b.rank for b in bases}
        dims = {b.ambient_dim for b in bases}
        if dims != {self.ambient_dim}:
            raise InvalidArgumentError(f"mixed ambient dimensions {sorted(dims)}")
        if len(ranks) != 1:
            raise InvalidArgumentError(f"mixed ranks {sorted(ranks)} in one family")
        object.__setattr__(self, "bases", bases)

    @property
    def rank(self) -> int:
        return self.bases[0].rank

    def __len__(self) -> int:
        return len(self.bases)

    def stacked(self) -> np.ndarray:
        """All bases as one (N, n, k) array."""
        return np.stack([b.columns for b in self.bases])


def check_enumeration(n: int, k: int, advice: str = "") -> None:
    """EnumerationLimitError, its message ending in advice, when C(n, k)
    exceeds DEFAULT_ENUMERATION_CAP, read as the check runs."""
    count, cap = math.comb(n, k), DEFAULT_ENUMERATION_CAP
    if count > cap:
        raise EnumerationLimitError(f"C({n},{k}) = {count} subsets exceed the cap {cap}{advice}")


def _ldl_positive(A: list[np.ndarray], shift: float | np.ndarray) -> np.ndarray:
    """Which lanes of the k-by-k matrices M + shift*I are positive definite,
    given as the rows of their upper triangles: A[a] is the (k - a, *lanes)
    array of the entries M[a, b], b >= a, one matrix per lane.  shift is a
    float or an array that broadcasts against the lanes.  A is overwritten.

    Up-looking LDL, one lane per matrix; a lane passes iff every pivot is
    strictly positive.  Each pivot updates each later row in one numpy
    expression, about 3k^2/2 calls per screen.  Much cheaper than one
    eigendecomposition per matrix.
    """
    ok = np.ones(A[0].shape[1:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row in A:
            row[0] += shift
        for j, pivot in enumerate(A):
            d = pivot[0]
            ok &= d > 0.0
            inv = 1.0 / d  # a lane with d <= 0 has failed, whatever it computes next
            for i, row in enumerate(A[j + 1 :], 1):  # row a = j + i: M[a, b] -= (M[j, a] / d) M[j, b]
                row -= (pivot[i] * inv) * pivot[i:]
    return ok


def _screen_shift(scale: float, k: int, c: float | np.ndarray) -> float | np.ndarray:
    """Diagonal shift c - margin for the LDL screen of k-by-k blocks Y_S,
    margin = 64 k^2 (eps (scale + |c|) + eta), where scale bounds every
    entry the screen reads: max|Y| when the blocks are principal
    submatrices of Y, max|block| over the whole stack when they are a stack
    of blocks.  c is a float or one float per block, and the shift has its
    shape.  The screen must read the triangle eigvalsh reads (the lower
    one, which is the upper one for a principal submatrix of a symmetric
    matrix; a stack computed as U^T G U is not bitwise symmetric), so Y_S
    below is the symmetric block that triangle defines.

    A block S passes when the screen's LDL factorization of Y_S + shift*I
    ends with every pivot positive.  The margin makes that certify computed
    smallest eigenvalues, for c of either sign:

    - The shifted block's entries are at most M = scale + |c| in size, and
      no diagonal overflows, as Y_ii + shift <= scale + |c| - margin.  An
      LDL factorization that completes with positive pivots is the exact
      one of Y_S + shift*I + F with |F_ij| <= (k + 1) eps M per entry
      (Higham, Accuracy and Stability, ch. 10), so ||F|| <= k (k + 1) eps M.
      Underflow costs each product at most eta, and a subnormal 1/pivot at
      most eta M^2 <= 4 eps M per update, since M < 2^1024 = 4 eps / eta.
      The pivots are positive, so lambda_min(Y_S) > -shift - ||F||.
    - eigvalsh is backward stable: each eigenvalue it computes for Y_S or
      -Y_S is an exact one of that block plus E, with ||E|| <= p(k) eps k
      scale.
    - The margin covers ||F|| and ||E|| together for any p(k) up to 58 k;
      the eta term covers the subnormal range.  So for a passing S the
      smallest eigenvalue eigvalsh computes for Y_S, and minus the largest
      it computes for -Y_S, are both above -c.

    The arithmetic runs under np.errstate, so no FP warning escapes.  When c
    or scale is infinite, or scale + |c| overflows, the margin is infinite
    and the shift is -inf or NaN; then no pivot is positive and every subset
    it applies to fails, which is safe.
    """
    eps = float(np.finfo(np.float64).eps)
    eta = float(np.finfo(np.float64).smallest_subnormal)
    with np.errstate(over="ignore", invalid="ignore"):
        return c - 64.0 * k * k * (eps * (scale + abs(c)) + eta)


def screen_clears(Y: np.ndarray, idx: np.ndarray, c: float | np.ndarray, mats=None) -> np.ndarray:
    """Which rows S of idx the LDL screen clears at c, a float or one float
    per row; with mats, row r is screened on Y[mats[r]] of the (T, n, n)
    stack Y, at that matrix's own max|Y|.

    Every cleared row has a block Y_S whose smallest eigenvalue, as eigvalsh
    computes it, is above -c; so is minus the largest eigenvalue eigvalsh
    computes for -Y_S (see _screen_shift).  The screen treats each row on
    its own, so how idx is sliced changes nothing.  Membership runs it on
    Y = X at c = tol, the k-sparse searches on Y = -G at a value to beat.
    One np.take per triangle row, indexed from the contiguous rows of idx.T,
    gathers the layout of _ldl_positive.
    """
    n, k = Y.shape[-1], idx.shape[1]
    flat = np.ascontiguousarray(Y).ravel()
    cols = np.ascontiguousarray(idx.T)
    rows = cols if mats is None else cols + n * mats  # rows of Y as one (T n, n) matrix
    scale = np.abs(Y).max(axis=(-2, -1))
    A = [np.take(flat, n * rows[a] + cols[a:]) for a in range(k)]
    return _ldl_positive(A, _screen_shift(float(scale) if mats is None else scale[mats], k, c))


def screen_clears_blocks(blocks: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which blocks B of the (..., k, k) stack blocks the LDL screen clears
    below c, an array that broadcasts against blocks.shape[:-2].

    The screen runs on minus the lower triangle of each block, the triangle
    eigvalsh reads, with scale = max|B| over the stack.  Every cleared block
    has a largest eigenvalue, as eigvalsh computes it, below c (see
    _screen_shift).  Each block is screened on its own, so how the stack is
    sliced changes nothing but the margin.  The one working copy holds
    k(k + 1)/2 of each block's k^2 entries; max|B| is max(max B, -min B).
    """
    k = blocks.shape[-1]
    # row a holds -B[b, a] for b >= a, the lower triangle
    A = [np.negative(np.moveaxis(blocks[..., a:, a], -1, 0), order="C") for a in range(k)]
    return _ldl_positive(A, _screen_shift(float(np.maximum(blocks.max(), -blocks.min())), k, c))


_CHUNK_ROWS = 32768  # most rows of one subset_chunks chunk; subset tables of at most one chunk ...
_TABLE_ENTRIES = 1 << 18  # ... and at most this many entries are cached


def subset_chunks(n: int, k: int):
    """All k-subsets of range(n) in lexicographic order, as (rows, k) intp
    arrays of at most _CHUNK_ROWS rows.

    When C(n, k) <= _CHUNK_ROWS and C(n, k) k <= _TABLE_ENTRIES, the one
    chunk is a fresh intp copy of the whole table, unranked once per process
    and cached by _subset_table.  Larger enumerations are unranked chunk by
    chunk, as _unranked_chunks yields them.  Either way the rows and chunk
    boundaries are the same.
    """
    count = math.comb(n, k)
    if count > _CHUNK_ROWS or count * k > _TABLE_ENTRIES:
        yield from _unranked_chunks(n, k, _CHUNK_ROWS)
        return
    yield _subset_table(n, k).astype(np.intp)


@functools.lru_cache(maxsize=32)
def _subset_table(n: int, k: int) -> np.ndarray:
    """The read-only (C(n, k), k) table of subset_chunks, one piece of
    _unranked_chunks, stored in np.min_scalar_type(n - 1).

    A cached table has at most 2^18 entries, and n <= 2^18 (n <= 256 takes
    one byte per entry, n <= 65536 two, larger n four), so one table holds
    at most 1 MiB and the 32 the cache keeps at most 32 MiB; with n <= 256,
    at most 256 KiB and 8 MiB.
    """
    table = next(_unranked_chunks(n, k, math.comb(n, k))).astype(np.min_scalar_type(n - 1))
    table.setflags(write=False)
    return table


def _unranked_chunks(n: int, k: int, chunk: int):
    """All k-subsets of range(n) in lexicographic order, unranked as index
    arrays of at most chunk rows.

    Each chunk is a range of lexicographic ranks, unranked with one
    searchsorted per position, so memory stays at one chunk.  below[p, v]
    sums C(n-1-u, k-1-p), the ways to complete a subset whose p-th member is
    u, over p <= u < v.  Given the members before position p, the last of
    them q, and the rank r left among their completions, the p-th member is
    the last v with below[p, v] <= r + below[p, q + 1].  The p-th member is
    never below p, so leaving out u < p changes no difference the lookup
    uses, and row p tops out at C(n-p, k-p) <= C(n, k): the table fits int64
    whenever the subset count does.
    """
    count = math.comb(n, k)
    below = np.zeros((k, n + 1), dtype=np.int64)
    for p in range(k):
        below[p, p + 1 :] = np.cumsum([math.comb(n - 1 - v, k - 1 - p) for v in range(p, n)])
    for first in range(0, count, chunk):
        rank = np.arange(first, min(first + chunk, count), dtype=np.int64)
        idx = np.empty((rank.size, k), dtype=np.intp)
        floor = np.zeros(rank.size, dtype=np.intp)  # smallest value the next member may take
        for p in range(k):
            rank += below[p, floor]
            member = np.searchsorted(below[p], rank, side="right") - 1
            rank -= below[p, member]
            idx[:, p] = member
            floor = member + 1
        yield idx


def principal_submatrices(dense: np.ndarray, idx: np.ndarray, mats=None) -> np.ndarray:
    """Stack of the principal submatrices dense[I, I], one per row I of idx;
    with mats, dense is a (T, n, n) stack and row r's block is dense[mats[r]][I, I]."""
    pick = (idx[:, :, None], idx[:, None, :])
    return dense[pick if mats is None else (mats[:, None, None], *pick)]


def _screened_max(Y: np.ndarray, solve, chunks, c: float, first: int, stop: float = math.inf) -> float:
    """The largest value solve gives a row of chunks when that is at least
    c, and a value below c otherwise; returned as soon as it exceeds stop.

    Each chunk of index rows is scanned in slices of first, 2 first, 4
    first, ... rows.  Each slice goes through the LDL screen on Y at
    max(c, best), best the largest value solved so far, and solve gets the
    rows it rejects in one call.  solve must give a row the screen clears at
    c a value below c, so a cleared row is never that maximum; the screen and
    eigvalsh treat each row on its own, so the slicing changes no answer.
    Chunks are drawn only as far as the scan gets.
    """
    best = -math.inf
    for idx in chunks:
        start, step = 0, first
        while start < len(idx):
            rows = idx[start : start + step]
            rows = rows[~screen_clears(Y, rows, max(c, best))]
            if rows.size:
                best = max(best, float(solve(rows).max()))
                if best > stop:
                    return best
            start += step
            step *= 2
    return best


def _worst_block(dense: np.ndarray, chunks, tol: float, first: int) -> float:
    """Minus the smallest eigenvalue eigvalsh computes for some block: above
    tol iff one is below -tol, as negation is exact.  best stays at most tol
    until the scan returns, so every slice is screened at tol."""
    solve = lambda rows: -np.linalg.eigvalsh(principal_submatrices(dense, rows))[:, 0]
    return _screened_max(dense, solve, chunks, tol, first, stop=tol)


def sparse_kpsd_member(X: SymmetricMatrix, k: int, tol: float | None = None) -> bool:
    """True iff every k-by-k principal submatrix of X is PSD at tolerance tol.

    Checking |I| = k suffices: PSD-ness of a matrix is inherited by all of its
    principal submatrices.  _worst_block scans the subsets in lexicographic
    slices of 64, 128, 256, ...: a factorization test on X_I + (tol - margin)
    I screens each slice, only the subsets it rejects go to eigvalsh, and the
    first slice holding a violation ends the search.  With k = n the one
    block is X itself, so eigvalsh solves it unscreened.  More than
    DEFAULT_ENUMERATION_CAP subsets raise EnumerationLimitError.  Non-finite
    entries raise NumericalFailureError; a tol that is not finite and
    nonnegative raises InvalidArgumentError.
    """
    n = X.dim
    _check_nk(n, k)
    require_finite(X)
    tol = psd_tolerance(X, tol)
    check_enumeration(n, k, "; use sparse_kpsd_refute for a randomized refutation")
    if k == n:
        return bool(np.linalg.eigvalsh(X.to_dense())[0] >= -tol)
    return not _worst_block(X.to_dense(), subset_chunks(n, k), tol, 64) > tol


def sparse_kpsd_refute(
    X: SymmetricMatrix,
    k: int,
    tol: float | None = None,
    samples: int = 10000,
    seed: int = 0,
) -> bool:
    """Randomized refutation of sparse k-PSD membership.

    Returns True iff some sampled k-subset has a non-PSD principal submatrix,
    which certifies non-membership.  False only means no violation was found
    among the samples; membership remains unconfirmed.  The samples are the
    subsets successive np.sort(rng.choice(n, size=k, replace=False)) draw
    from the seed's stream, drawn 1024 at a time by _rng.k_subsets in one
    vectorized pass, and scanned as in sparse_kpsd_member, one slice a
    batch.  With k = n, eigvalsh solves X alone and nothing is drawn.
    Non-finite entries raise NumericalFailureError, and tol is checked as in
    sparse_kpsd_member.
    """
    n = X.dim
    _check_nk(n, k)
    if not (is_integer(samples) and samples >= 1):
        raise InvalidArgumentError(f"need an integer count of at least one sample, got {samples!r}")
    require_finite(X)
    tol = psd_tolerance(X, tol)
    dense = X.to_dense()
    rng = substream(check_seed(seed))
    if k == n:
        return bool(np.linalg.eigvalsh(dense)[0] < -tol)
    batches = (k_subsets(rng, n, k, min(1024, samples - done)) for done in range(0, samples, 1024))
    return _worst_block(dense, batches, tol, 1024) > tol


def general_kpsd_member(X: SymmetricMatrix, family: ConeFamily, tol: float | None = None) -> bool:
    """True iff U^T X U is PSD at tolerance tol for every basis U in the family;
    non-finite entries raise NumericalFailureError."""
    if family.ambient_dim != X.dim:
        raise InvalidArgumentError(
            f"family ambient dimension {family.ambient_dim} != matrix dimension {X.dim}"
        )
    require_finite(X)
    tol = psd_tolerance(X, tol)
    compressed = compressor(family)(X.to_dense())
    return bool(np.linalg.eigvalsh(compressed)[:, 0].min() >= -tol)


def compressor(family: ConeFamily) -> Callable[..., np.ndarray]:
    """The map from an n-by-n matrix G to the (N, k, k) stack of U^T G U,
    one block per basis U of the family, written into out when given.

    Each call replays the plan np.einsum("uik,ij,ujl->ukl", stacked, G,
    stacked, optimize=True) runs, bit for bit: G^T times every basis side by
    side, then one batched product of each basis with its slice of that.
    The einsum re-parses its subscripts and re-plans on every call, which
    costs more than the arithmetic for small families.  The transposed G
    and the strided view are part of the plan: a contiguous copy of the
    intermediate changes bits.
    """
    stacked = family.stacked()
    count, n, k = stacked.shape
    right = stacked.transpose(1, 0, 2).reshape(n, count * k)
    return lambda G, out=None: np.matmul(
        (G.T @ right).reshape(n, count, k).transpose(1, 2, 0), stacked, out=out
    )


def largest_block_eigenvalue(blocks: np.ndarray) -> np.ndarray:
    """Per stack of the (T, N, k, k) array blocks, the largest eigenvalue
    over its N blocks, bit for bit as if eigvalsh solved every block.

    eigvalsh first solves each stack's block holding its largest diagonal
    entry, whose lambda_1 c is attained.  One screen_clears_blocks call then
    screens all T N blocks, each at its own stack's c, and eigvalsh solves
    only those it rejects; a cleared block has a computed lambda_1 below c.
    """
    stacks, count, k = blocks.shape[:3]
    rows = np.arange(stacks)
    seeds = blocks.diagonal(axis1=2, axis2=3).reshape(stacks, count * k).argmax(axis=1) // k
    best = np.linalg.eigvalsh(blocks[rows, seeds])[:, -1]
    if count == 1:
        return best
    live = ~screen_clears_blocks(blocks, best[:, None])
    live[rows, seeds] = False
    stack, block = np.nonzero(live)
    if stack.size:
        np.maximum.at(best, stack, np.linalg.eigvalsh(blocks[stack, block])[:, -1])
    return best


# -- the largest k-sparse eigenvalue ------------------------------------------

_GREEDY_STREAM_KEY = 0x6B5053  # fixed internal stream; greedy output is a function of (G, k)
_GREEDY_RESTARTS = 20
# Rows a greedy group's first swap step screens, 21 k (n-k) a matrix.  Sparse-search wall_ref_s with
# the Ritz pick, median of 4 interleaved 8 s runs on 2 cores: 0.095 s at 2,048 (one matrix a group at
# (20, 4)), 0.080 s at 4,096, 0.075 s at 8,192, 0.077 s at 32,768 with peak RSS 44.1 -> 48.6 MB.
_GREEDY_STEP_ROWS = 4096


def greedy_group(n: int, k: int) -> int:
    """Matrices a greedy search runs in lockstep: at least one, and at most
    _GREEDY_STEP_ROWS // (21 k (n-k)), so a group's first swap step screens
    at most _GREEDY_STEP_ROWS rows unless one matrix alone has more."""
    return max(1, _GREEDY_STEP_ROWS // max(1, (_GREEDY_RESTARTS + 1) * k * (n - k)))


def check_k_sparse(n: int, k: int, mode: str) -> None:
    """The checks of k_sparse_largest_eigenvalue that need no matrix: n, k,
    the mode, and in exhaustive mode with 1 < k < n the subset count."""
    _check_nk(n, k)
    if mode not in ("exhaustive", "greedy"):
        raise InvalidArgumentError(f"unknown mode {mode!r}; expected 'exhaustive' or 'greedy'")
    if mode == "exhaustive" and 1 < k < n:
        check_enumeration(n, k, "; use greedy mode")


def k_sparse_largest_eigenvalue(G, k: int, mode: str = "exhaustive"):
    """Largest eigenvalue over k-by-k principal submatrices: of G, a
    SymmetricMatrix, as a float, or of each matrix of G, a (T, n, n) array
    of symmetric matrices, as T values, each bit for bit that matrix's own.

    Both modes first grow a support for every matrix (_grown_support).
    Exhaustive mode maximizes over all C(n, k) subsets, bit for bit as if it
    solved every block; more than DEFAULT_ENUMERATION_CAP raise
    EnumerationLimitError.  The grown support's lambda_1 is attained, so
    _screened_max screens each chunk on -G at that value, one matrix at a
    time, and solves only the blocks it rejects.  Greedy mode returns a
    lower bound from swap ascent from the grown support and 20 restarts
    drawn once a call from a fixed internal stream (_swap_ascents), run in
    groups of greedy_group(n, k) matrices.
    Non-finite entries raise NumericalFailureError, and an asymmetric stack
    InvalidArgumentError.
    """
    single = isinstance(G, SymmetricMatrix)
    stack = G.to_dense()[None] if single else np.asarray(G, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidDimensionError(f"expected a (T, n, n) stack, got shape {stack.shape}")
    count, n = stack.shape[:2]
    check_k_sparse(n, k, mode)
    if single:
        require_finite(G)
    elif not np.isfinite(stack).all():
        raise NumericalFailureError(f"eigensolver cannot converge on non-finite entries in a {n}x{n} stack")
    elif not np.array_equal(stack, stack.transpose(0, 2, 1)):
        raise InvalidArgumentError("every matrix of the stack must be symmetric")
    if k == n:
        values = np.linalg.eigvalsh(stack)[:, -1]
    elif k == 1:
        values = stack.diagonal(axis1=1, axis2=2).max(axis=1)
    elif mode == "exhaustive":
        scans = zip(stack, _grown_support(stack, k)[1].tolist())
        values = np.array([_screened_max(-dense, functools.partial(_lambda1_batch, dense),
                                         subset_chunks(n, k), c, _CHUNK_ROWS) for dense, c in scans])
    else:
        restarts = k_subsets(substream(_GREEDY_STREAM_KEY), n, k, _GREEDY_RESTARTS)
        group, values = greedy_group(n, k), np.empty(count)
        for i in range(0, count, group):
            part = stack[i : i + group]
            starts = np.concatenate([_grown_support(part, k)[0][:, None], restarts[None].repeat(len(part), 0)], 1)
            values[i : i + group] = [max(row) for row in _swap_ascents(part, starts).tolist()]  # first of tied maxima
    return float(values[0]) if single else values


def _lambda1_batch(dense: np.ndarray, subsets: np.ndarray, mats=None) -> np.ndarray:
    return np.linalg.eigvalsh(principal_submatrices(dense, subsets, mats))[:, -1]


def _grown_support(stack: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of the (T, n, n) stack, a k-support grown from its
    best single coordinate, one coordinate at a time, each the first that
    maximizes the largest eigenvalue: (T, k) rows and their (T,) values.
    A step's candidates are the support plus each outside index in
    increasing order, each row sorted, solved for every matrix at once."""
    count, n = stack.shape[:2]
    mats = np.arange(count)
    diag = stack.diagonal(axis1=1, axis2=2)
    support = diag.argmax(axis=1)[:, None]
    value = diag[mats, support[:, 0]]
    for size in range(1, k):
        inside = np.zeros((count, n), dtype=bool)
        inside[mats[:, None], support] = True
        cands = np.empty((count, n - size, size + 1), dtype=np.intp)
        cands[..., :-1] = support[:, None]
        cands[..., -1] = np.nonzero(~inside)[1].reshape(count, n - size)
        cands.sort(axis=2)
        values = _lambda1_batch(stack, cands.reshape(-1, size + 1), mats.repeat(n - size))
        values = values.reshape(count, n - size)
        top = values.argmax(axis=1)
        support, value = cands[mats, top], values[mats, top]
    return support, value


def _swap_neighbourhoods(supports: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every single swap of each row of supports, as an (A, k*(n-k), k)
    array, and the (A, n-k) outside indices of each row, increasing.

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
    return cands.reshape(count, k * (n - k), k), outside


def _ritz_picks(stack: np.ndarray, supports: np.ndarray, outside: np.ndarray, on: np.ndarray) -> np.ndarray:
    """For each sorted row S of supports, on matrix G = stack[on], the swap
    of _swap_neighbourhoods with the largest 2-D Rayleigh-Ritz value.

    With (lam, v) the top eigenpair of G_SS, the swap of member i = S[p]
    for o is valued on span{u, e_o}, u = (v - v_p e_i) / sqrt(1 - v_p^2):
    the larger eigenvalue of [[alpha, beta], [beta, gamma]] with
    alpha = (lam - 2 lam v_p^2 + v_p^2 G_ii) / (1 - v_p^2),
    beta = (G_oS v - v_p G_oi) / sqrt(1 - v_p^2) and gamma = G_oo.
    In exact arithmetic it bounds the swap's lambda_1 from below; it is a
    guess only, as any pick gives the same bits.  A NaN value, from
    v_p^2 = 1 or an overflow, counts as -inf, and if eigh fails every pick
    is swap 0.
    """
    try:
        lam, vecs = np.linalg.eigh(principal_submatrices(stack, supports, on))
    except np.linalg.LinAlgError:
        return np.zeros(len(supports), dtype=np.intp)
    lam, v = lam[:, -1, None], vecs[..., -1]
    cross = stack[on[:, None, None], supports[:, :, None], outside[:, None, :]]  # G_io, (A, k, n-k)
    with np.errstate(all="ignore"):
        sq = v * v
        alpha = ((lam - 2.0 * lam * sq + sq * stack[on[:, None], supports, supports]) / (1.0 - sq))[:, :, None]
        beta = ((v[:, None, :] @ cross) - v[:, :, None] * cross) / np.sqrt(1.0 - sq)[:, :, None]
        gamma = stack[on[:, None], outside, outside][:, None, :]
        ritz = (alpha + gamma) / 2.0 + np.hypot((alpha - gamma) / 2.0, beta)
    ritz = ritz.reshape(len(supports), -1)
    ritz[np.isnan(ritz)] = -math.inf
    return ritz.argmax(axis=1)


def _swap_ascents(stack: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Steepest-ascent single swaps from the (T, A, k) start supports, all
    in lockstep, ascent (t, a) on stack[t]; returns the (T, A) end values.

    Each ascent starts from the largest eigenvalue of its start block, the
    row sorted, and moves to the first best swap while that exceeds its
    bar, value + 1e-12.  A path depends on its matrix and support alone, so
    ascents that meet merge: one that starts on, or moves to, a support an
    earlier ascent on its matrix already held stops, and at the end takes
    the value of the ascent it joined.

    Each step makes one eigh call on the active supports, one pick solve,
    one screen and one eigvalsh call for every active ascent.  It solves
    each ascent's swap of largest 2-D Rayleigh-Ritz value (_ritz_picks),
    the pick, then screens every candidate on -stack at c = max(bar, the
    pick's value), at its own matrix's max|G|.  A candidate the screen
    clears has a computed lambda_1 below c, so it can neither trigger a
    move nor be the first maximum when one happens; it counts as -inf.
    eigvalsh solves every rejected candidate but the picks, each matrix of
    a stack on its own, so neither lockstep, merge, screen nor pick changes
    a value or tie-break.  For width_dual_base_sparse(20, 4, 20, 1,
    "greedy") they cut the blocks sent to eigvalsh from 105,884 to 3,060
    (19,791 with the screen alone at c = bar), and eigh solves 1,068
    supports.
    """
    count, width, k = starts.shape
    supports = np.sort(starts.reshape(-1, k).astype(np.intp), axis=1)  # ascent a runs on matrix a // width
    negated = -stack
    holder = np.arange(len(supports))  # the ascent each one joined; itself while it runs
    first_held = {}

    def unmet(ascents: np.ndarray) -> np.ndarray:
        """The ascents on supports no earlier one on their matrix held;
        each joins the first holder of its support."""
        kept = []
        for a in ascents.tolist():
            a_holder = first_held.setdefault((a // width, supports[a].tobytes()), a)
            holder[a] = a_holder
            if a_holder == a:
                kept.append(a)
        return np.array(kept, dtype=np.intp)

    active = unmet(holder)
    best = np.zeros(len(supports))
    best[active] = _lambda1_batch(stack, supports[active], active // width)
    while active.size:
        held = supports[active]
        cands, outside = _swap_neighbourhoods(held, stack.shape[-1])
        rows, swaps, on = np.arange(len(cands)), cands.shape[1], active // width
        picks = _ritz_picks(stack, held, outside, on)
        pick_vals = _lambda1_batch(stack, cands[rows, picks], on)
        bar = best[active] + 1e-12
        lanes = on.repeat(swaps)
        live = ~screen_clears(negated, cands.reshape(-1, k), np.maximum(bar, pick_vals).repeat(swaps), lanes)
        live = live.reshape(len(cands), swaps)
        live[rows, picks] = False
        vals = np.full(live.shape, -math.inf)
        vals[live] = _lambda1_batch(stack, cands[live], lanes[live.ravel()])
        vals[rows, picks] = pick_vals
        top = vals.argmax(axis=1)
        top_vals = vals[rows, top]
        moved = ~(top_vals <= bar)
        best[active[moved]] = top_vals[moved]
        supports[active[moved]] = cands[moved, top[moved]]
        active = unmet(active[moved])
    while not np.array_equal(holder[holder], holder):  # follow the links to an ascent that finished
        holder = holder[holder]
    return best[holder].reshape(count, width)


def g_abn(a: float, b: float, n: int) -> SymmetricMatrix:
    """a * (all-ones projector) + b * (its complement): spectrum {a, b^(n-1)}."""
    if not (is_integer(n) and n >= 2):
        raise InvalidDimensionError(f"need an integer n >= 2, got {n!r}")
    p1 = np.full((n, n), 1.0 / n)
    dense = a * p1 + b * (np.eye(n) - p1)
    return SymmetricMatrix.from_dense(dense)


def _witness_ab(n: int, k: int) -> tuple[float, float]:
    """The witness's eigenvalue a on the all-ones vector and b on its
    complement, once n and k pass the witness's checks."""
    if k <= 1:
        raise InvalidArgumentError("the construction needs k >= 2")
    _check_nk(n, k)
    if n > MAX_WITNESS_DIM:  # before the dense n-by-n matrix is allocated
        raise SizeLimitError(f"the witness matrix supports n <= {MAX_WITNESS_DIM}, got {n}")
    return (k - n) / (n * (k - 1)), k / (n * (k - 1))


def witness_matrix(n: int, k: int) -> SymmetricMatrix:
    """Unit-trace matrix with every k-by-k principal submatrix PSD but whose
    smallest eigenvalue forces any PSD shift to be at least (n-k)/(k-1)/n.
    """
    a, b = _witness_ab(n, k)
    return g_abn(a, b, n)


def witness_trace(n: int, k: int) -> float:
    """witness_matrix(n, k).trace(), bit for bit, from the diagonal alone.

    g_abn's diagonal holds n copies of a * (1/n) + b * (1 - 1/n), and the
    trace sums it as SymmetricMatrix.trace does, so no n-by-n matrix is built.
    """
    a, b = _witness_ab(n, k)
    return float(_diagonal_sums(np.full((1, n), a * (1.0 / n) + b * (1.0 - 1.0 / n)))[0])


def eps_star_lower_sparse(n: int, k: int) -> float:
    """Separation (n-k)/(k-1) certified by the witness matrix."""
    if k <= 1:
        raise InvalidArgumentError("the bound needs k >= 2")
    _check_nk(n, k)
    return (n - k) / (k - 1)


def coordinate_family(n: int, k: int) -> ConeFamily:
    """All C(n, k) axis-aligned coordinate subspaces; more than
    DEFAULT_ENUMERATION_CAP raise EnumerationLimitError."""
    _check_nk(n, k)
    check_enumeration(n, k)
    eye = np.eye(n)
    bases = tuple(
        SubspaceBasis(n, k, eye[:, subset]) for chunk in subset_chunks(n, k) for subset in chunk
    )
    return ConeFamily(n, bases)


# -- conefam v1 text format ---------------------------------------------------
#
# The v1 convention of linalg, with header "n k N" and then N blocks of n
# rows, k floats per row (row-major basis columns).


def _conefam_size(n: int, k: int, count: int) -> int:
    """n k N floats follow a conefam header "n k N" that passes its checks."""
    _check_nk(n, k)
    if count < 1:
        raise InvalidArgumentError(f"a cone family needs at least one basis, got N={count}")
    return n * k * count


def write_conefam(family: ConeFamily, path: str | os.PathLike) -> None:
    rows = (row for basis in family.bases for row in basis.columns)
    _write_text(path, _dumps_v1((family.ambient_dim, family.rank, len(family)), rows))


def read_conefam(path: str | os.PathLike) -> ConeFamily:
    (n, k, count), values = _loads_v1(_read_text(path), "conefam", 3, _conefam_size)
    return ConeFamily(n, tuple(SubspaceBasis(n, k, block) for block in values.reshape(count, n, k)))
