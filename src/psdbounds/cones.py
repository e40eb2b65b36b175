"""Membership oracles for the PSD cone and its block relaxations.

The sparse relaxation keeps only the PSD constraints on k-by-k principal
submatrices; the general relaxation keeps the constraints restricted to an
arbitrary family of k-dimensional subspaces.  Also provides the rank-one
spiked matrix that sits inside the sparse relaxation but far from the PSD
cone, and the (n-k)/(k-1) separation it certifies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_seed, substream
from .errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidDimensionError,
)
from .linalg import SymmetricMatrix, psd_tolerance, require_finite

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "SubspaceBasis",
    "ConeFamily",
    "sparse_kpsd_member",
    "sparse_kpsd_refute",
    "general_kpsd_member",
    "g_abn",
    "witness_matrix",
    "eps_star_lower_sparse",
    "coordinate_family",
    "sample_factor_width_extreme",
    "write_conefam",
    "read_conefam",
]

DEFAULT_ENUMERATION_CAP = 10**7

_ORTHO_DRIFT = 1e-10


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Column-orthonormal n-by-k matrix spanning one subspace of a family.

    Columns whose Gram matrix drifts from the identity by more than 1e-10 are
    re-orthonormalized with a QR factorization (sign-fixed for determinism)
    rather than rejected; user-supplied families accumulate rounding.
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


def _screen_pd(flat: np.ndarray, idx: np.ndarray, n: int, k: int, shift: float) -> np.ndarray:
    """Vectorized check that X_I + shift*I is positive definite, per subset.

    Up-looking LDL on a (k, k, batch) layout; a lane passes iff every pivot is
    strictly positive.  Much cheaper than one eigendecomposition per subset.
    """
    batch = idx.shape[0]
    A = np.empty((k, k, batch))
    row_off = (idx * n).T
    for a in range(k):
        for b in range(a, k):
            np.take(flat, row_off[a] + idx[:, b], out=A[a, b])
        A[a, a] += shift
    ok = np.ones(batch, dtype=bool)
    tmp = np.empty(batch)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _screen_shift(dense: np.ndarray, k: int, tol: float) -> float:
    """Diagonal shift tol - margin for the LDL screen of k-subsets of dense.

    The margin, 64 k eps max|X|, covers the rounding of the screen's
    factorization and eigvalsh's backward error, so a subset that passes the
    screen never has a computed smallest eigenvalue below -tol.  The
    argument does not use the sign of the shift.  For tol >= 0 the shift is
    at least -margin, so the screened matrix's entries stay within
    max|X| + margin = (1 + 64 k eps) max|X|, and the factorization's
    rounding bound grows by that factor at most, which the margin's constant
    absorbs.  So the screen runs at every tolerance, tol = 0 included: with
    a shift in [-margin, 0] it passes only subsets whose smallest eigenvalue
    clears margin - tol >= 0.
    """
    return tol - 64.0 * k * np.finfo(np.float64).eps * float(np.abs(dense).max())


def subset_chunks(n: int, k: int, chunk: int = 32768):
    """All k-subsets of range(n) in lexicographic order, as index arrays of
    at most chunk rows.

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
    Non-finite entries raise NumericalFailureError; a tol that is not finite
    and nonnegative raises InvalidArgumentError.
    """
    n = X.dim
    _check_nk(n, k)
    require_finite(X)
    tol = psd_tolerance(X, tol)
    count = math.comb(n, k)
    if count > cap:
        raise EnumerationLimitError(
            f"C({n},{k}) = {count} subsets exceed the cap {cap}; "
            "use sparse_kpsd_refute for a randomized refutation"
        )
    dense = X.to_dense()
    flat = np.ascontiguousarray(dense).ravel()
    shift = _screen_shift(dense, k, tol)
    for idx in subset_chunks(n, k):
        start, step = 0, 64
        while start < len(idx):
            block = idx[start : start + step]
            block = block[~_screen_pd(flat, block, n, k, shift)]
            if block.size and np.linalg.eigvalsh(principal_submatrices(dense, block))[:, 0].min() < -tol:
                return False
            start += step
            step *= 2
    return True


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
    among the samples; membership remains unconfirmed.  Each batch of samples
    passes the LDL screen of sparse_kpsd_member first, and only the samples
    it rejects get an exact eigenvalue check, so the screen changes no
    answer.  Non-finite entries raise NumericalFailureError, and tol is
    checked as in sparse_kpsd_member.
    """
    n = X.dim
    _check_nk(n, k)
    if samples < 1:
        raise InvalidArgumentError(f"need at least one sample, got {samples}")
    require_finite(X)
    tol = psd_tolerance(X, tol)
    dense = X.to_dense()
    flat = np.ascontiguousarray(dense).ravel()
    shift = _screen_shift(dense, k, tol)
    rng = substream(check_seed(seed))
    batch = 1024
    done = 0
    while done < samples:
        take = min(batch, samples - done)
        idx = np.empty((take, k), dtype=np.intp)
        for row in range(take):
            idx[row] = np.sort(rng.choice(n, size=k, replace=False))
        idx = idx[~_screen_pd(flat, idx, n, k, shift)]
        if idx.size and np.linalg.eigvalsh(principal_submatrices(dense, idx))[:, 0].min() < -tol:
            return True
        done += take
    return False


def general_kpsd_member(X: SymmetricMatrix, family: ConeFamily, tol: float | None = None) -> bool:
    """True iff U^T X U is PSD at tolerance tol for every basis U in the family."""
    if family.ambient_dim != X.dim:
        raise InvalidArgumentError(
            f"family ambient dimension {family.ambient_dim} != matrix dimension {X.dim}"
        )
    tol = psd_tolerance(X, tol)
    dense = X.to_dense()
    stacked = family.stacked()
    compressed = np.einsum("uik,ij,ujl->ukl", stacked, dense, stacked, optimize=True)
    return bool(np.linalg.eigvalsh(compressed)[:, 0].min() >= -tol)


def g_abn(a: float, b: float, n: int) -> SymmetricMatrix:
    """a * (all-ones projector) + b * (its complement): spectrum {a, b^(n-1)}."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    p1 = np.full((n, n), 1.0 / n)
    dense = a * p1 + b * (np.eye(n) - p1)
    return SymmetricMatrix.from_dense(dense)


def witness_matrix(n: int, k: int) -> SymmetricMatrix:
    """Unit-trace matrix with every k-by-k principal submatrix PSD but whose
    smallest eigenvalue forces any PSD shift to be at least (n-k)/(k-1)/n.
    """
    if k <= 1:
        raise InvalidArgumentError("the construction needs k >= 2")
    _check_nk(n, k)
    a = (k - n) / (n * (k - 1))
    b = k / (n * (k - 1))
    return g_abn(a, b, n)


def eps_star_lower_sparse(n: int, k: int) -> float:
    """Separation (n-k)/(k-1) certified by the witness matrix."""
    if k <= 1:
        raise InvalidArgumentError("the bound needs k >= 2")
    _check_nk(n, k)
    return (n - k) / (k - 1)


def coordinate_family(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> ConeFamily:
    """All C(n, k) axis-aligned coordinate subspaces."""
    _check_nk(n, k)
    count = math.comb(n, k)
    if count > cap:
        raise EnumerationLimitError(f"C({n},{k}) = {count} bases exceed the cap {cap}")
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
    support = np.sort(rng.choice(n, size=k, replace=False))
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
# Header line: "n k N".  Then N blocks of n rows, k floats per row (row-major
# basis columns), 17 significant digits.


def write_conefam(family: ConeFamily, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{family.ambient_dim} {family.rank} {len(family)}\n")
        for basis in family.bases:
            for row in basis.columns:
                fh.write(" ".join(format(v, ".17g") for v in row))
                fh.write("\n")


def read_conefam(path: str | os.PathLike) -> ConeFamily:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError("conefam payload too short")
    n, k, count = int(tokens[0]), int(tokens[1]), int(tokens[2])
    values = np.array([float(v) for v in tokens[3:]])
    if values.size != n * k * count:
        raise ValueError(
            f"expected {n * k * count} floats for n={n} k={k} N={count}, got {values.size}"
        )
    blocks = values.reshape(count, n, k)
    return ConeFamily(n, tuple(SubspaceBasis(n, k, block) for block in blocks))
