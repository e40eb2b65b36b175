"""Symmetric-matrix primitives.

A :class:`SymmetricMatrix` stores the upper triangle of a real symmetric matrix
in row-major packed order, so the reconstructed dense matrix satisfies
``M == M.T`` bitwise.  All operations in this module are pure; matrices are
immutable values.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._rng import check_seed, normal_rows, substream
from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidIndexError,
    NumericalFailureError,
)

__all__ = [
    "SymmetricMatrix",
    "IndexSet",
    "sample_standard_gaussian_sym",
    "gaussian_sym",
    "gaussian_sym_batch",
    "require_finite",
    "eigenvalues_descending",
    "principal_submatrix",
    "is_psd",
    "default_psd_tol",
    "psd_tolerance",
    "project_traceless",
    "write_symmat",
    "read_symmat",
    "dumps_symmat",
    "loads_symmat",
]


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


class _Layout(NamedTuple):
    """Where the packed entries of an n-by-n matrix live."""

    rows: np.ndarray  # row of each packed entry
    cols: np.ndarray  # column of each packed entry
    diag: np.ndarray  # packed positions of the diagonal, in order
    dense: np.ndarray  # packed position of each dense entry, row-major
    divisor: np.ndarray  # per packed entry: 1 on the diagonal, sqrt(2) off it


@functools.lru_cache(maxsize=128)
def _layout(n: int) -> _Layout:
    rows, cols = np.triu_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    layout = _Layout(
        rows,
        cols,
        np.flatnonzero(rows == cols),
        position.ravel(),
        np.where(rows == cols, 1.0, math.sqrt(2.0)),
    )
    for a in layout:
        a.setflags(write=False)  # shared by every caller
    return layout


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Dense (..., n, n) matrices from (..., n(n+1)/2) packed upper triangles.

    C-contiguous, as the per-matrix path always was: BLAS may round a
    contraction differently on another memory layout (a fancy-index gather
    such as ``packed[..., idx]`` returns a transposed one).
    """
    return np.take(packed, _layout(n).dense, axis=-1).reshape(packed.shape[:-1] + (n, n))


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense n-by-n real symmetric matrix, upper triangle stored row-major."""

    dim: int
    packed: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {self.dim}")
        packed = np.asarray(self.packed, dtype=np.float64)
        if packed.shape != (_packed_size(self.dim),):
            raise InvalidDimensionError(
                f"packed storage must have length n(n+1)/2 = {_packed_size(self.dim)}, "
                f"got shape {packed.shape}"
            )
        packed = packed.copy()
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_dense(cls, dense) -> "SymmetricMatrix":
        """Build from a dense array; the strict lower triangle is ignored."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise InvalidDimensionError(f"expected a square matrix, got shape {dense.shape}")
        lay = _layout(dense.shape[0])
        return cls(dense.shape[0], dense[lay.rows, lay.cols])

    def to_dense(self) -> np.ndarray:
        return _unpack(self.packed, self.dim)

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        if not 0 <= i <= j < self.dim:
            raise InvalidIndexError(f"entry ({i}, {j}) outside a {self.dim}x{self.dim} matrix")
        return float(self.packed[i * self.dim - i * (i - 1) // 2 + (j - i)])

    def trace(self) -> float:
        return float(self.packed[_layout(self.dim).diag].sum())

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.to_dense()))

    def fingerprint(self) -> str:
        """Short content hash, used in error messages."""
        h = hashlib.sha256(self.packed.tobytes())
        return h.hexdigest()[:12]


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing row/column indices selecting a principal submatrix."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise InvalidIndexError("index set must be nonempty")
        if any(i < 0 for i in idx):
            raise InvalidIndexError(f"negative index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidIndexError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def validate_against(self, dim: int) -> None:
        if self.indices[-1] >= dim:
            raise InvalidIndexError(
                f"index {self.indices[-1]} out of range for dimension {dim}"
            )


def gaussian_sym(n: int, rng: np.random.Generator) -> SymmetricMatrix:
    """Standard Gaussian symmetric matrix drawn from an explicit generator.

    Diagonal entries are N(0, 1); off-diagonal entries are N(0, 1/2).  The
    packed upper triangle is filled row-major in a single draw, so the result
    is a deterministic function of the generator state.
    """
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    packed = rng.standard_normal(_packed_size(n))
    packed /= _layout(n).divisor  # x / 1.0 is exactly x
    return SymmetricMatrix(n, packed)


def gaussian_sym_batch(
    n: int, seed: int, start: int, stop: int, traceless: bool = False
) -> np.ndarray:
    """Dense (stop - start, n, n) stack of the trial matrices
    ``gaussian_sym(n, substream(seed, t))`` for t in [start, stop), bit for
    bit; with ``traceless``, each one after ``project_traceless``.

    Every trial still draws its packed triangle from its own (seed, t)
    substream, so a trial's matrix does not depend on the window it is
    drawn in.
    """
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    packed = normal_rows(seed, start, stop, _packed_size(n))
    packed /= _layout(n).divisor
    mats = _unpack(packed, n)
    if traceless:
        _project_traceless_stack(mats)
    return mats


def sample_standard_gaussian_sym(n: int, seed: int) -> SymmetricMatrix:
    """Standard Gaussian symmetric matrix; deterministic given the seed."""
    return gaussian_sym(n, substream(check_seed(seed)))


def require_finite(M: SymmetricMatrix) -> None:
    """Raise NumericalFailureError if M holds a NaN or an infinity.

    LAPACK cannot converge on non-finite data (and may return garbage
    silently), so every eigenvalue routine treats it as that failure.
    """
    if not np.isfinite(M.packed).all():
        raise NumericalFailureError(
            f"eigensolver cannot converge on non-finite entries in a {M.dim}x{M.dim} matrix",
            fingerprint=M.fingerprint(),
        )


def eigenvalues_descending(M: SymmetricMatrix) -> np.ndarray:
    """Eigenvalues of M in nonincreasing order."""
    require_finite(M)
    try:
        w = np.linalg.eigvalsh(M.to_dense())
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigensolver failed on a {M.dim}x{M.dim} matrix: {exc}",
            fingerprint=M.fingerprint(),
        ) from exc
    return w[::-1].copy()


def principal_submatrix(M: SymmetricMatrix, subset: IndexSet) -> SymmetricMatrix:
    """Principal submatrix of M with rows/columns in the index set."""
    subset.validate_against(M.dim)
    idx = np.asarray(subset.indices, dtype=np.intp)
    dense = M.to_dense()
    return SymmetricMatrix.from_dense(dense[np.ix_(idx, idx)])


def default_psd_tol(M: SymmetricMatrix) -> float:
    """Default PSD tolerance, 1e-9 * max(1, ||M||_F)."""
    return 1e-9 * max(1.0, M.frobenius_norm())


def psd_tolerance(M: SymmetricMatrix, tol: float | None) -> float:
    """The tolerance a PSD test of M runs at: default_psd_tol(M) for None,
    else tol, which must be finite and nonnegative (a NaN would make every
    comparison with -tol false)."""
    if tol is None:
        return default_psd_tol(M)
    if not 0.0 <= tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be finite and nonnegative, got {tol}")
    return tol


def is_psd(M: SymmetricMatrix, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue is >= -tol (ties count as PSD)."""
    tol = psd_tolerance(M, tol)
    return bool(eigenvalues_descending(M)[-1] >= -tol)


def _trace_at_roundoff(t: float, n: int, frobenius: float) -> bool:
    return abs(t) <= 1e-13 * n * frobenius


def project_traceless(M: SymmetricMatrix) -> SymmetricMatrix:
    """M minus (trace(M)/n) * I.

    Traces already at roundoff level (<= 1e-13 * n * ||M||_F) are left
    untouched, which makes the projection exactly idempotent.
    """
    t = M.trace()
    if _trace_at_roundoff(t, M.dim, M.frobenius_norm()):
        return M
    n = M.dim
    packed = M.packed.copy()
    packed[_layout(n).diag] -= t / n
    return SymmetricMatrix(n, packed)


def _project_traceless_stack(mats: np.ndarray) -> None:
    """``project_traceless`` on each of the dense (T, n, n) ``mats``, in place.

    Each trace sums a contiguous copy of the diagonal, in the order
    ``SymmetricMatrix.trace`` sums the packed one.  A Frobenius norm from one batched contraction settles the rows
    whose trace is clearly above the roundoff threshold; the rest, normally
    none, get the exact per-matrix test.
    """
    n = mats.shape[-1]
    traces = np.diagonal(mats, axis1=1, axis2=2).copy().sum(axis=1)
    approx = np.sqrt(np.einsum("bij,bij->b", mats, mats))
    keep = np.abs(traces) <= 2e-13 * n * approx  # twice the threshold: margin for the estimate
    for b in np.flatnonzero(keep):
        keep[b] = _trace_at_roundoff(float(traces[b]), n, float(np.linalg.norm(mats[b])))
    shift = np.where(keep, 0.0, traces / n)  # x - 0.0 is exactly x
    idx = np.arange(n)
    mats[:, idx, idx] -= shift[:, None]


# -- symmat v1 text format ----------------------------------------------------
#
# First line: n.  Then n(n+1)/2 whitespace-separated floats in row-major
# upper-triangle order.  17 significant digits, so float64 values round-trip
# bit-exactly.


def dumps_symmat(M: SymmetricMatrix) -> str:
    buf = io.StringIO()
    buf.write(f"{M.dim}\n")
    pos = 0
    for i in range(M.dim):
        row_len = M.dim - i
        row = M.packed[pos : pos + row_len]
        buf.write(" ".join(format(v, ".17g") for v in row))
        buf.write("\n")
        pos += row_len
    return buf.getvalue()


def loads_symmat(text: str) -> SymmetricMatrix:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty symmat payload")
    n = int(tokens[0])
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    values = tokens[1:]
    if len(values) != _packed_size(n):
        raise ValueError(
            f"expected {_packed_size(n)} entries for n={n}, got {len(values)}"
        )
    return SymmetricMatrix(n, np.array([float(v) for v in values]))


def write_symmat(M: SymmetricMatrix, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_symmat(M))


def read_symmat(path: str | os.PathLike) -> SymmetricMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return loads_symmat(fh.read())
