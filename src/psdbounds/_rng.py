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


def substream(seed: int, lane: int = 0) -> np.random.Generator:
    """Generator for the (seed, lane) substream.

    Same stream as np.random.Philox(key=[seed, lane mod 2**64]): counter
    zero, empty output buffer.  Every call builds a new bit generator, since
    callers and pool threads hold several streams at once.
    """
    bitgen = np.random.Philox(_ZERO_SEED)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([check_seed(seed), lane % _U64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)
