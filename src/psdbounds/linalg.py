"""Symmetric-matrix primitives.

A :class:`SymmetricMatrix` stores the upper triangle of a real symmetric matrix
in row-major packed order, so the reconstructed dense matrix satisfies
``M == M.T`` bitwise.  All operations in this module are pure; matrices are
immutable values.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._rng import check_seed, is_integer, normal_rows, substream
from .errors import InvalidArgumentError, InvalidDimensionError, NumericalFailureError

__all__ = [
    "SymmetricMatrix",
    "sample_standard_gaussian_sym",
    "gaussian_sym",
    "gaussian_sym_batch",
    "require_finite",
    "eigenvalues_descending",
    "is_psd",
    "default_psd_tol",
    "psd_tolerance",
    "project_traceless",
    "write_symmat",
    "read_symmat",
]


def _check_dim(n: int) -> None:
    """InvalidDimensionError unless n is an integer (_rng.is_integer) >= 1."""
    if not is_integer(n):
        raise InvalidDimensionError(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")


def _check_nk(n: int, k: int) -> None:
    """_check_dim(n), then InvalidArgumentError unless k is an integer in [1, n]."""
    _check_dim(n)
    if not is_integer(k):
        raise InvalidArgumentError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")


def _store_frozen(obj, name: str, array: np.ndarray) -> None:
    """Set the field name of the frozen dataclass obj to a read-only copy of array."""
    array = array.copy()
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


def _packed_size(n: int) -> int:
    """n(n+1)/2, the packed length of an n-by-n matrix, once _check_dim(n) passes."""
    _check_dim(n)
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
        size = _packed_size(self.dim)
        packed = np.asarray(self.packed, dtype=np.float64)
        if packed.shape != (size,):
            raise InvalidDimensionError(
                f"packed storage must have length n(n+1)/2 = {size}, "
                f"got shape {packed.shape}"
            )
        _store_frozen(self, "packed", packed)

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

    def trace(self) -> float:
        return float(_diagonal_sums(self.packed[_layout(self.dim).diag][None])[0])

    def fingerprint(self) -> str:
        """Short content hash, used in error messages."""
        h = hashlib.sha256(self.packed.tobytes())
        return h.hexdigest()[:12]


def gaussian_sym(n: int, rng: np.random.Generator) -> SymmetricMatrix:
    """Standard Gaussian symmetric matrix drawn from an explicit generator.

    Diagonal entries are N(0, 1); off-diagonal entries are N(0, 1/2).  The
    packed upper triangle is filled row-major in a single draw, so the result
    is a deterministic function of the generator state.
    """
    packed = rng.standard_normal(_packed_size(n))
    packed /= _layout(n).divisor  # x / 1.0 is exactly x
    return SymmetricMatrix(n, packed)


def gaussian_sym_batch(n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Dense (stop - start, n, n) stack of the trial matrices
    ``gaussian_sym(n, substream(seed, t))`` for t in [start, stop), bit for
    bit.

    Every trial still draws its packed triangle from its own (seed, t)
    substream, so a trial's matrix does not depend on the window it is
    drawn in.
    """
    packed = normal_rows(seed, start, stop, _packed_size(n))
    packed /= _layout(n).divisor
    return _unpack(packed, n)


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


def _frobenius_parts(dense: np.ndarray) -> tuple[float, float]:
    """||dense||_F as the product scale * norm: (1.0, the plain norm) unless
    that overflows, else s = max|dense| and ||dense / s||_F, which is finite
    for finite entries.  Callers multiply their own factors into scale first,
    so a finite result does not overflow on the way; x * 1.0 is exactly x,
    so the plain case keeps its bits.  Non-finite entries give the plain
    (inf or NaN) norm."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(dense))
    if norm < math.inf or not np.isfinite(dense).all():
        return 1.0, norm
    scale = float(np.abs(dense).max())
    return scale, float(np.linalg.norm(dense / scale))


def default_psd_tol(M: SymmetricMatrix) -> float:
    """Default PSD tolerance, 1e-9 * max(1, ||M||_F); a norm past the float
    range is taken as s * ||M / s||_F with s = max|M|, so it is finite for
    every finite M.  Non-finite entries raise NumericalFailureError."""
    require_finite(M)
    scale, norm = _frobenius_parts(M.to_dense())
    # ||M / s||_F >= 1 when scaled, so max changes only the plain case
    return 1e-9 * scale * max(1.0, norm)


def psd_tolerance(M: SymmetricMatrix, tol: float | None) -> float:
    """The tolerance a PSD test of M runs at, as a Python float: default_psd_tol(M)
    for None, else tol, which must be finite and nonnegative (a NaN would make
    every comparison with -tol false)."""
    if tol is None:
        return default_psd_tol(M)
    if not 0.0 <= tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be finite and nonnegative, got {tol}")
    return float(tol)


def is_psd(M: SymmetricMatrix, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue is >= -tol (ties count as PSD)."""
    tol = psd_tolerance(M, tol)
    return bool(eigenvalues_descending(M)[-1] >= -tol)


def _diagonal_sums(diags: np.ndarray, parts: int = 1) -> np.ndarray:
    """Row sums of a C-contiguous (T, n) stack, each divided by parts.  A
    row whose plain sum overflows although its entries are finite is taken
    as s * (sum(d / s) / parts) with s = max|d|, so a representable result
    stays finite; every other row keeps the bits of the plain sum divided
    by parts (x / 1 is exactly x)."""
    with np.errstate(over="ignore"):
        sums = diags.sum(axis=1)
        over = ~np.isfinite(sums) & np.isfinite(diags).all(axis=1)
        sums /= parts
        if over.any():
            scale = np.abs(diags[over]).max(axis=1)
            sums[over] = scale * ((diags[over] / scale[:, None]).sum(axis=1) / parts)
    return sums


def project_traceless(M: SymmetricMatrix) -> SymmetricMatrix:
    """M minus (trace(M)/n) * I.

    Traces already at roundoff level (<= 1e-13 * n * ||M||_F) are left
    untouched, which makes the projection exactly idempotent: M itself is
    returned then.
    """
    mats = M.to_dense()[None]
    if _project_traceless_stack(mats)[0]:
        return M
    return SymmetricMatrix.from_dense(mats[0])


def _project_traceless_stack(mats: np.ndarray) -> np.ndarray:
    """``project_traceless`` on each of the dense (T, n, n) ``mats``, in place;
    returns which of them kept their trace.

    Each trace sums a contiguous copy of the diagonal, in the order
    ``SymmetricMatrix.trace`` sums the packed one, and the shift is that sum
    divided by n; a row whose plain sum overflows takes both scaled, so a
    trace past the float range still gives a finite shift.  A Frobenius norm from
    one batched contraction settles the rows whose trace is clearly above
    the roundoff threshold; the rest, normally none, get the exact
    per-matrix test.
    """
    n = mats.shape[-1]
    diags = np.diagonal(mats, axis1=1, axis2=2).copy()
    traces = _diagonal_sums(diags)
    with np.errstate(over="ignore"):  # an overflowing estimate sends the row to the exact test
        approx = np.sqrt(np.einsum("bij,bij->b", mats, mats))
    keep = np.abs(traces) <= 2e-13 * n * approx  # twice the threshold: margin for the estimate
    for b in np.flatnonzero(keep):
        scale, norm = _frobenius_parts(mats[b])
        keep[b] = abs(float(traces[b])) <= 1e-13 * n * scale * norm
    shift = np.where(keep, 0.0, _diagonal_sums(diags, n))  # x - 0.0 is exactly x
    idx = np.arange(n)
    mats[:, idx, idx] -= shift[:, None]
    return keep


# -- v1 text formats ------------------------------------------------------------
#
# symmat and conefam files share one convention: ASCII text, a header
# line of integers, then rows of floats separated by single spaces, each row
# ending in "\n".  Floats are written with 17 significant digits, so float64
# values round-trip bit-exactly, and are read back with Python's float().
#
# symmat v1: header "n", then the n rows of the packed upper triangle.


def _dumps_v1(header: tuple[int, ...], rows) -> str:
    """The v1 text of a header and an iterable of float rows."""
    lines = [" ".join(map(str, header))]
    lines += [" ".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _loads_v1(text: str, kind: str, width: int, count) -> tuple[tuple[int, ...], np.ndarray]:
    """The width header integers of a v1 text and the floats after them.

    count(*header) checks the header, raising a ValueError subclass, and only
    then works out how many floats follow it.  A bad header, a wrong float
    count or a payload token float() rejects raises an error that names the
    header; the last one also names the token and its 0-based position.
    """
    tokens = text.split()
    head = f"{kind} header {' '.join(tokens[:width])!r}"
    try:
        if len(tokens) < width:
            raise ValueError("the text ends inside the header")
        header = tuple(int(t) for t in tokens[:width])
        expected = count(*header)
    except ValueError as exc:
        raise type(exc)(f"{head}: {exc}") from None
    if len(tokens) - width != expected:
        raise ValueError(f"{head}: expected {expected} floats, got {len(tokens) - width}")
    values = []
    for token in tokens[width:]:
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(
                f"{head}: payload float {len(values)} (0-based) is not a number: {token!r}"
            ) from None
    return header, np.array(values)


def _write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _read_text(path: str | os.PathLike) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def write_symmat(M: SymmetricMatrix, path: str | os.PathLike) -> None:
    _write_text(path, _dumps_v1((M.dim,), np.split(M.packed, np.cumsum(np.arange(M.dim, 1, -1)))))


def read_symmat(path: str | os.PathLike) -> SymmetricMatrix:
    (n,), values = _loads_v1(_read_text(path), "symmat", 1, _packed_size)
    return SymmetricMatrix(n, values)
