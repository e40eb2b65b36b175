"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed by
(seed, lane).  Streams for distinct lanes are statistically independent and can
be created in any order, which makes per-trial substreams reproducible and
order-independent.
"""

from __future__ import annotations

import numpy as np

_U64 = 2**64


def check_seed(seed: int) -> int:
    """Validate and return a 64-bit unsigned seed."""
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
