import tracemalloc

import numpy as np
import pytest


def peak_traced_bytes(fn) -> int:
    """Most bytes that fn() holds at once, as tracemalloc counts them.  numpy
    reports its array buffers to tracemalloc, so this counts them too."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
