"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed by
(seed, lane).  Streams for distinct lanes are statistically independent and can
be created in any order, which makes per-trial substreams reproducible and
order-independent.
"""

from __future__ import annotations

import numpy as np

_U64 = 2**64


def is_integer(x) -> bool:
    """True for a Python or numpy integer; False for a bool, a float (even
    3.0) or a str.  Every size, count and seed argument must pass it."""
    return type(x) is int or (not isinstance(x, bool) and hasattr(type(x), "__index__"))


def check_seed(seed: int) -> int:
    """Validate and return a 64-bit unsigned seed, a Python or numpy integer."""
    if type(seed) is not int:  # substream checks every lane's seed: int takes one test
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


class _ZeroSeed(np.random.bit_generator.ISeedSequence):
    """Constant seed material.  Philox's own seeding reads OS entropy, which
    substream would discard at once by setting the key."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeed()


_ZEROS = (0, 0, 0, 0)


def substream(
    seed: int, lane: int = 0, into: np.random.Generator | None = None
) -> np.random.Generator:
    """Generator for the (seed, lane) substream.

    Same stream as np.random.Philox(key=[seed, lane mod 2**64]): counter
    zero, empty output buffer.  Without ``into``, the call builds a new bit
    generator, since callers and pool threads hold several streams at once.
    With ``into``, a generator an earlier call returned, it re-keys that
    generator in place and returns it; a loop over trials can then keep one
    generator instead of building one per trial.
    """
    if into is None:
        into = np.random.Generator(np.random.Philox(_ZERO_SEED))
    elif not isinstance(getattr(into, "bit_generator", None), np.random.Philox):
        raise TypeError(f"into must be a Philox-backed Generator, got {into!r}")
    # the setter copies every field, so the buffer and the cached 32-bit
    # half are cleared along with the key and the counter
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (check_seed(seed), lane % _U64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return into


def normal_rows(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) array whose row i holds the first width standard
    normals of the (seed, start + i) substream, bit for bit.

    A row does not depend on the window it is drawn in.  The call keeps one
    generator and re-keys it for every row; it is its own, so pool threads
    never share one.
    """
    rows = np.empty((stop - start, width))
    rng = None
    for lane, row in enumerate(rows, start):
        rng = substream(seed, lane, into=rng)
        rng.standard_normal(out=row)
    return rows


# numpy's Generator.choice(n, k, replace=False) leaves Floyd's algorithm for a
# partial shuffle of arange(n) when n > _FLOYD_MAX_N and k > n // _FLOYD_DIVISOR
_FLOYD_MAX_N = 10_000
_FLOYD_DIVISOR = 50
_LOW32 = np.uint64(0xFFFFFFFF)


def _choice_rows(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """count rows of np.sort(rng.choice(n, size=k, replace=False)), one draw each."""
    rows = np.empty((count, k), dtype=np.intp)
    for row in rows:
        row[:] = np.sort(rng.choice(n, size=k, replace=False))
    return rows


def k_subsets(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """(count, k) rows equal to count successive
    ``np.sort(rng.choice(n, size=k, replace=False))``, with rng left in the
    same state, bit for bit, for a Philox-backed generator and 1 <= k <= n.

    Where numpy draws the samples by Floyd's algorithm, the batch is drawn in
    one vectorized pass (_floyd_rows); elsewhere, and for a batch holding a
    Lemire rejection, rng.choice draws it from the batch's starting state.
    """
    # past 2^32, numpy draws on [0, j] from 64-bit words
    if n > 2**32 or (n > _FLOYD_MAX_N and k > n // _FLOYD_DIVISOR):
        return _choice_rows(rng, n, k, count)
    rows = _floyd_rows(rng, n, k, count)
    return _choice_rows(rng, n, k, count) if rows is None else rows


def _floyd_rows(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray | None:
    """k_subsets by numpy's Floyd's algorithm, or None, with rng untouched,
    when a word of the batch is rejected.

    numpy draws each sample by Floyd's algorithm (Bentley & Floyd, CACM
    1987): for j = n-k, ..., n-1 it draws v uniform on [0, j], keeps v if it
    is new and j otherwise, then shuffles the sample with k-1 draws on
    [0, i], i = k-1, ..., 1.  Each draw on [0, j], j > 0, is Lemire's method
    (ACM TOMACS 2019) on one 32-bit word w: v = (w (j+1)) >> 32, unless the
    low half of the product falls below (2^32 - (j+1)) mod (j+1), which
    rejects w and draws again.  Philox hands out the low, then the high half
    of each 64-bit output, after a cached half if it holds one.

    So a batch's words are one random_raw call, and its sets are k
    vectorized steps, each checked against the values the rows hold so far;
    the shuffle only uses up words, and the sort discards its order.  A
    rejection changes the number of words a sample uses, so the batch is
    then left to rng.choice.
    """
    bitgen = rng.bit_generator
    # ranges of the draws per sample: Floyd's steps, then the shuffle; a
    # range of 0 (j = 0, only when k = n) draws no word
    floyd = np.arange(max(n - k, 1), n, dtype=np.uint64)
    ranges = np.concatenate([floyd, np.arange(k - 1, 0, -1, dtype=np.uint64)])
    needed = count * ranges.size
    if needed == 0:
        return np.zeros((count, k), dtype=np.intp)
    start = bitgen.state
    cached = start["has_uint32"]
    raw = bitgen.random_raw((needed - cached + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")
    if cached:
        words = np.concatenate([np.array([start["uinteger"]], dtype=np.uint32), words])
    bound = ranges + np.uint64(1)
    product = words[:needed].reshape(count, ranges.size) * bound
    if ((product & _LOW32) < (np.uint64(2**32) - bound) % bound).any():
        bitgen.state = start
        return None
    # the generator caches the high half of its last output, and keeps it
    # cached only when no word of the batch used it
    end = bitgen.state
    end["has_uint32"] = int(words.size > needed)
    if raw.size:
        end["uinteger"] = int(raw[-1] >> np.uint64(32))
    bitgen.state = end
    values = (product[:, : floyd.size] >> np.uint64(32)).astype(np.intp)
    skip = k - floyd.size  # 1 when k = n: the step on [0, 0] takes 0 from no word
    rows = np.zeros((count, k), dtype=np.intp)
    for t in range(skip, k):
        v = values[:, t - skip]
        rows[:, t] = np.where((rows[:, :t] == v[:, None]).any(axis=1), n - k + t, v)
    rows.sort(axis=1)
    return rows
