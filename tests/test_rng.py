import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds._rng import substream


def philox_stream(seed, lane):
    """The stream substream promises: numpy's own Philox keyed by (seed, lane)."""
    key = np.array([seed, lane % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestSubstream:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        lane=st.one_of(
            st.sampled_from([0, -1, 2**64 - 1, 2**64, -(2**70), 2**100 + 3]),
            st.integers(-(2**80), 2**80),
        ),
    )
    @example(seed=0, lane=0)
    @example(seed=2**64 - 1, lane=-1)
    def test_draws_equal_numpy_philox(self, seed, lane):
        ours, ref = substream(seed, lane), philox_stream(seed, lane)
        state = ours.bit_generator.state
        assert state["state"]["key"].tolist() == ref.bit_generator.state["state"]["key"].tolist()
        assert ours.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
        # integers draws 32-bit halves, so a buffered half must carry over too
        assert (ours.integers(0, 1000, 5) == ref.integers(0, 1000, 5)).all()
        assert (ours.choice(20, size=4, replace=False) == ref.choice(20, size=4, replace=False)).all()
        assert ours.random(3).tobytes() == ref.random(3).tobytes()

    def test_each_call_is_a_fresh_stream(self):
        a, b = substream(5, 1), substream(5, 1)
        assert a.bit_generator is not b.bit_generator
        first = a.standard_normal(4)
        assert b.standard_normal(4).tobytes() == first.tobytes()
