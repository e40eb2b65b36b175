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

from ._rng import check_seed, k_subsets, substream
from .errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidDimensionError,
    SizeLimitError,
)
from .linalg import SymmetricMatrix, psd_tolerance, require_finite
from .linalg import _diagonal_sums, _dumps_v1, _loads_v1, _read_text, _write_text

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
    "sample_factor_width_extreme",
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
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.shape != (self.ambient_dim, self.rank):
            raise InvalidArgumentError(
                f"columns must have shape ({self.ambient_dim}, {self.rank}), got {cols.shape}"
            )
        if not 1 <= self.rank <= self.ambient_dim:
            raise InvalidArgumentError(
                f"need 1 <= k <= n, got k={self.rank}, n={self.ambient_dim}"
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
        cols = cols.copy()
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def from_columns(cls, columns) -> "SubspaceBasis":
        columns = np.asarray(columns, dtype=np.float64)
        return cls(columns.shape[0], columns.shape[1], columns)


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


def _check_nk(n: int, k: int) -> None:
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")


def check_enumeration(n: int, k: int, cap: int, advice: str = "") -> None:
    """EnumerationLimitError, its message ending in advice, when C(n, k) > cap."""
    count = math.comb(n, k)
    if count > cap:
        raise EnumerationLimitError(f"C({n},{k}) = {count} subsets exceed the cap {cap}{advice}")


def _ldl_positive(A: np.ndarray, shift: float | np.ndarray) -> np.ndarray:
    """Which lanes of the (k, k, batch) stack A + shift*I are positive
    definite, reading only A[a, b] for a <= b; shift is a float or one float
    per lane.  A is overwritten.

    Up-looking LDL, one lane per matrix; a lane passes iff every pivot is
    strictly positive.  Much cheaper than one eigendecomposition per matrix.
    """
    k = A.shape[0]
    ok = np.ones(A.shape[2], dtype=bool)
    tmp = np.empty(A.shape[2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(k):
            A[a, a] += shift
        for j in range(k):
            d = A[j, j]
            ok &= d > 0.0
            if j == k - 1:
                break
            inv = np.where(d > 0.0, 1.0 / d, 0.0)
            for a in range(j + 1, k):
                w = A[j, a] * inv
                for b in range(a, k):
                    np.multiply(w, A[j, b], out=tmp)
                    np.subtract(A[a, b], tmp, out=A[a, b])
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


def screen_clears(Y: np.ndarray, idx: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """Which rows S of idx the LDL screen clears at c, a float or one float
    per row.

    Every cleared row has a block Y_S whose smallest eigenvalue, as eigvalsh
    computes it, is above -c; so is minus the largest eigenvalue eigvalsh
    computes for -Y_S (see _screen_shift).  The screen treats each row on
    its own, so how idx is sliced changes nothing.  Membership runs it on
    Y = X at c = tol, the k-sparse searches on Y = -G at a value to beat.
    Each row's upper triangle is gathered into the (k, k, rows) layout of
    _ldl_positive.
    """
    n, k = Y.shape[0], idx.shape[1]
    flat = np.ascontiguousarray(Y).ravel()
    A = np.empty((k, k, idx.shape[0]))
    row_off = (idx * n).T
    for a in range(k):
        for b in range(a, k):
            np.take(flat, row_off[a] + idx[:, b], out=A[a, b])
    return _ldl_positive(A, _screen_shift(float(np.abs(Y).max()), k, c))


def screen_clears_blocks(blocks: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which blocks B of the (M, k, k) stack blocks the LDL screen clears
    below c, one float per block.

    The screen runs on minus the lower triangle of each block, the triangle
    eigvalsh reads, with scale = max|B| over the stack.  Every cleared block
    has a largest eigenvalue, as eigvalsh computes it, below c (see
    _screen_shift).  Each block is screened on its own, so how the stack is
    sliced changes nothing but the margin.
    """
    k = blocks.shape[-1]
    A = np.empty((k, k, len(blocks)))
    np.negative(blocks.transpose(2, 1, 0), out=A)  # A[a, b] = -B[b, a]: the lower triangle at a <= b
    return _ldl_positive(A, _screen_shift(float(np.abs(blocks).max()), k, c))


_TABLE_ROWS = 32768  # subset tables with at most this many rows ...
_TABLE_ENTRIES = 1 << 18  # ... and at most this many entries are cached


def subset_chunks(n: int, k: int, chunk: int = 32768):
    """All k-subsets of range(n) in lexicographic order, as (rows, k) intp
    arrays of at most chunk rows.

    When C(n, k) <= _TABLE_ROWS and C(n, k) k <= _TABLE_ENTRIES, the rows
    are slices of the whole table, unranked once per process and cached by
    _subset_table; each chunk is a fresh intp copy of its slice.  Larger
    enumerations are unranked chunk by chunk, as _unranked_chunks yields
    them.  Either way the rows and chunk boundaries are the same.
    """
    count = math.comb(n, k)
    if count > _TABLE_ROWS or count * k > _TABLE_ENTRIES:
        yield from _unranked_chunks(n, k, chunk)
        return
    table = _subset_table(n, k)
    for first in range(0, count, chunk):
        yield table[first : first + chunk].astype(np.intp)


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


def principal_submatrices(dense: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Stack of the principal submatrices dense[I, I], one per row I of idx."""
    return dense[idx[:, :, None], idx[:, None, :]]


def _first_violation(dense: np.ndarray, chunks, tol: float, first: int) -> bool:
    """True at the first slice of subsets holding one whose block's smallest
    eigenvalue, as eigvalsh computes it, is below -tol.

    Each chunk of subsets is scanned in slices of first, 2 first, 4 first,
    ... rows; the rows of a slice the LDL screen cannot clear go to eigvalsh
    in one call.  Chunks are drawn only as far as the scan gets.
    """
    for idx in chunks:
        start, step = 0, first
        while start < len(idx):
            block = idx[start : start + step]
            block = block[~screen_clears(dense, block, tol)]
            if block.size and np.linalg.eigvalsh(principal_submatrices(dense, block))[:, 0].min() < -tol:
                return True
            start += step
            step *= 2
    return False


def sparse_kpsd_member(
    X: SymmetricMatrix,
    k: int,
    tol: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> bool:
    """True iff every k-by-k principal submatrix of X is PSD at tolerance tol.

    Checking |I| = k suffices: PSD-ness of a matrix is inherited by all of its
    principal submatrices.  Subsets are screened with a factorization test on
    X_I + (tol - margin) I; only subsets failing the screen pay for an exact
    eigenvalue check, so the screen never changes the answer.  The exact
    check runs in lexicographic slices of 64, 128, 256, ... subsets: each
    slice is screened, its rejected subsets go to eigvalsh in one call, and
    the first slice holding a violation ends the search.  The screen and
    eigvalsh treat each subset on its own, so slicing changes no answer.
    With k = n the one block is X itself, so eigvalsh solves it unscreened.
    Non-finite entries raise NumericalFailureError; a tol that is not finite
    and nonnegative raises InvalidArgumentError.
    """
    n = X.dim
    _check_nk(n, k)
    require_finite(X)
    tol = psd_tolerance(X, tol)
    check_enumeration(n, k, cap, "; use sparse_kpsd_refute for a randomized refutation")
    if k == n:
        return bool(np.linalg.eigvalsh(X.to_dense())[0] >= -tol)
    return not _first_violation(X.to_dense(), subset_chunks(n, k), tol, 64)


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
    vectorized pass.  Each batch passes the LDL screen of sparse_kpsd_member
    first, and only the samples it rejects get an exact eigenvalue check, so
    the screen changes no answer.  With k = n, eigvalsh solves X alone and
    nothing is drawn.  Non-finite entries raise NumericalFailureError, and
    tol is checked as in sparse_kpsd_member.
    """
    n = X.dim
    _check_nk(n, k)
    if samples < 1:
        raise InvalidArgumentError(f"need at least one sample, got {samples}")
    require_finite(X)
    tol = psd_tolerance(X, tol)
    dense = X.to_dense()
    rng = substream(check_seed(seed))
    if k == n:
        return bool(np.linalg.eigvalsh(dense)[0] < -tol)
    batches = (k_subsets(rng, n, k, min(1024, samples - done)) for done in range(0, samples, 1024))
    return _first_violation(dense, batches, tol, 1024)


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


def compressor(family: ConeFamily) -> Callable[[np.ndarray], np.ndarray]:
    """The map from an n-by-n matrix G to the (N, k, k) stack of U^T G U,
    one block per basis U of the family.

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
    return lambda G: np.matmul((G.T @ right).reshape(n, count, k).transpose(1, 2, 0), stacked)


_SCREEN_BLOCKS = 1024  # blocks per LDL screen call, to keep its working set small


def largest_block_eigenvalue(blocks: np.ndarray) -> np.ndarray:
    """Per stack of the (T, N, k, k) array blocks, the largest eigenvalue
    over its N blocks, bit for bit as if eigvalsh solved every block.

    eigvalsh first solves each stack's block holding its largest diagonal
    entry, whose lambda_1 c is attained.  screen_clears_blocks then screens
    the other blocks at c, and eigvalsh solves only those it rejects; a
    cleared block has a computed lambda_1 below c.
    """
    stacks, count, k = blocks.shape[:3]
    rows = np.arange(stacks)
    seeds = blocks.diagonal(axis1=2, axis2=3).reshape(stacks, count * k).argmax(axis=1) // k
    best = np.linalg.eigvalsh(blocks[rows, seeds])[:, -1]
    if count == 1:
        return best
    live = np.ones((stacks, count), dtype=bool)
    step = max(1, _SCREEN_BLOCKS // count)
    for start in range(0, stacks, step):
        part = slice(start, start + step)
        cleared = screen_clears_blocks(blocks[part].reshape(-1, k, k), best[part].repeat(count))
        live[part] = ~cleared.reshape(-1, count)
    live[rows, seeds] = False
    stack, block = np.nonzero(live)
    if stack.size:
        np.maximum.at(best, stack, np.linalg.eigvalsh(blocks[stack, block])[:, -1])
    return best


# -- the largest k-sparse eigenvalue ------------------------------------------

_GREEDY_STREAM_KEY = 0x6B5053  # fixed internal stream; greedy output is a function of (G, k)
_GREEDY_RESTARTS = 20


def check_k_sparse(n: int, k: int, mode: str, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """The checks of k_sparse_largest_eigenvalue that need no matrix: n, k,
    the mode, and in exhaustive mode with 1 < k < n the subset count."""
    _check_nk(n, k)
    if mode not in ("exhaustive", "greedy"):
        raise InvalidArgumentError(f"unknown mode {mode!r}; expected 'exhaustive' or 'greedy'")
    if mode == "exhaustive" and 1 < k < n:
        check_enumeration(n, k, cap, "; use greedy mode")


def k_sparse_largest_eigenvalue(
    G: SymmetricMatrix,
    k: int,
    mode: str = "exhaustive",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Largest eigenvalue over k-by-k principal submatrices.

    Exhaustive mode maximizes over all C(n, k) subsets, bit for bit as if
    it solved every block (see _max_lambda1_subsets); more than cap subsets
    raise EnumerationLimitError.  Greedy mode returns a lower bound from
    local swap ascent from the best single coordinate and 20 random
    restarts of a fixed internal stream, deterministic given G and k (see
    _swap_ascents).  Non-finite entries raise NumericalFailureError.
    """
    check_k_sparse(G.dim, k, mode, cap)
    require_finite(G)
    dense = G.to_dense()
    if k == G.dim:
        return float(np.linalg.eigvalsh(dense)[-1])
    if k == 1:
        return float(np.diag(dense).max())
    if mode == "exhaustive":
        return _max_lambda1_subsets(dense, k)
    return _greedy_k_sparse(dense, k)


def _lambda1_batch(dense: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(principal_submatrices(dense, subsets))[:, -1]


def _grown_support(dense: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """A k-support grown from the best single coordinate, one coordinate at
    a time, each the first that maximizes the largest eigenvalue; returned
    with that eigenvalue.  The candidates of a step are the support plus
    each outside index in increasing order, each row sorted."""
    n = dense.shape[0]
    diag = np.diag(dense)
    inside = np.zeros(n, dtype=bool)
    support = np.array([np.argmax(diag)])
    value = float(diag[support[0]])
    while support.size < k:
        inside[support] = True
        cands = np.empty((n - support.size, support.size + 1), dtype=np.intp)
        cands[:, :-1] = support
        cands[:, -1] = np.flatnonzero(~inside)
        cands.sort(axis=1)
        values = _lambda1_batch(dense, cands)
        top = values.argmax()
        support, value = cands[top], float(values[top])
    return support, value


def _max_lambda1_subsets(dense: np.ndarray, k: int) -> float:
    """Largest eigvalsh lambda_1 over every k-by-k principal submatrix.

    The grown support's lambda_1 is attained, so the maximum is at least
    that.  Each chunk of subsets goes through the LDL screen on -dense at c,
    the larger of that value and the best one solved so far; a block the
    screen clears cannot be the maximum, and only the rejected blocks are
    solved.  eigvalsh solves each matrix of a stack on its own and max over
    floats ignores order, so the result is the bits of solving every block.
    """
    n = dense.shape[0]
    grown = _grown_support(dense, k)[1]
    negated = -dense
    best = -math.inf
    for idx in subset_chunks(n, k):
        idx = idx[~screen_clears(negated, idx, max(best, grown))]
        if idx.size:
            best = max(best, float(_lambda1_batch(dense, idx).max()))
    return best


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
    1e-12, that is, exceeds its threshold c = value + 1e-12.  Each step runs
    the LDL screen on -dense over every candidate at its own ascent's c.  A
    candidate the screen clears has a computed lambda_1 below c, so it can
    neither trigger a move nor be the first maximum when one happens; it
    counts as -inf.  eigvalsh solves, in one call, only the rejected
    candidates no ascent has met before; a dict keyed by the candidate's
    index bytes keeps the rest.  eigvalsh solves each matrix of a stack on
    its own, so neither the screen nor the memo changes a value or a
    tie-break.  The screen cuts the blocks width_dual_base_sparse(20, 4,
    20, 1, "greedy") sends to eigvalsh from 39,772 to 15,995.
    """
    supports = np.array(supports, dtype=np.intp)
    k = supports.shape[1]
    n = dense.shape[0]
    negated = -dense
    best = _lambda1_batch(dense, supports)
    memo: dict[bytes, float] = {}
    row_key = np.dtype((np.void, k * np.dtype(np.intp).itemsize))
    active = np.arange(len(supports))
    while active.size:
        cands = _swap_neighbourhoods(supports[active], n)
        flat = cands.reshape(-1, k)
        bar = best[active] + 1e-12
        live = ~screen_clears(negated, flat, bar.repeat(cands.shape[1]))
        keys = flat[live].view(row_key).ravel().tolist()
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            rows = np.frombuffer(b"".join(fresh), dtype=np.intp).reshape(-1, k)
            memo.update(zip(fresh, _lambda1_batch(dense, rows).tolist()))
        vals = np.full(flat.shape[0], -math.inf)
        vals[live] = [memo[key] for key in keys]
        vals = vals.reshape(cands.shape[:2])
        top = vals.argmax(axis=1)
        top_vals = vals[np.arange(active.size), top]
        moved = ~(top_vals <= bar)
        best[active[moved]] = top_vals[moved]
        supports[active[moved]] = cands[moved, top[moved]]
        active = active[moved]
    return best.tolist()


@functools.lru_cache(maxsize=32)
def _greedy_restarts(n: int, k: int) -> np.ndarray:
    """The read-only (20, k) restart supports of greedy mode, the first 20
    k-subsets of the fixed internal stream.  They depend only on (n, k), so
    each shape is drawn once per process; an entry holds 160 k bytes, and
    the 32 the cache keeps at most 5 KiB k."""
    restarts = k_subsets(substream(_GREEDY_STREAM_KEY), n, k, _GREEDY_RESTARTS)
    restarts.setflags(write=False)
    return restarts


def _greedy_k_sparse(dense: np.ndarray, k: int) -> float:
    support = _grown_support(dense, k)[0]
    return max(_swap_ascents(dense, [support, *_greedy_restarts(dense.shape[0], k)]))


def g_abn(a: float, b: float, n: int) -> SymmetricMatrix:
    """a * (all-ones projector) + b * (its complement): spectrum {a, b^(n-1)}."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
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


def coordinate_family(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> ConeFamily:
    """All C(n, k) axis-aligned coordinate subspaces."""
    _check_nk(n, k)
    check_enumeration(n, k, cap)
    eye = np.eye(n)
    bases = tuple(
        SubspaceBasis(n, k, eye[:, subset]) for chunk in subset_chunks(n, k) for subset in chunk
    )
    return ConeFamily(n, bases)


def sample_factor_width_extreme(n: int, k: int, seed: int) -> SymmetricMatrix:
    """Random unit-trace rank-one v v^T with support on a uniform k-subset.

    These are exactly the extreme points of the unit-trace slice of the dual
    of the sparse k-PSD relaxation.
    """
    _check_nk(n, k)
    rng = substream(check_seed(seed))
    support = k_subsets(rng, n, k, 1)[0]
    v = np.zeros(n)
    u = rng.standard_normal(k)
    norm = np.linalg.norm(u)
    while norm == 0.0:  # probability zero, but keep the contract total
        u = rng.standard_normal(k)
        norm = np.linalg.norm(u)
    v[support] = u / norm
    return SymmetricMatrix.from_dense(np.outer(v, v))


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
