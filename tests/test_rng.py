import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds._rng import normal_rows, substream


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


class TestRekey:
    @staticmethod
    def used(seed, lane):
        """A generator with a half-used buffer and a cached 32-bit half."""
        g = substream(seed ^ 1, lane + 3)
        g.integers(0, 1000, 3, dtype=np.uint32)
        g.random(3)
        g.standard_normal(5)
        while g.bit_generator.state["buffer_pos"] in (0, 4):  # ziggurat draws vary in count
            g.random()
        state = g.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
        assert state["state"]["counter"].any()
        return g

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("lane", [0, 1, 7, 12345, 2**64 + 3])
    def test_rekeyed_draws_equal_a_new_stream(self, seed, lane):
        g = self.used(seed, lane)
        assert substream(seed, lane, into=g) is g
        fresh = substream(seed, lane)
        assert g.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()
        # full-range draws are raw 32-bit halves, so a stale cached half would
        # come first here (a bounded draw may reject it and hide it)
        assert g.integers(0, 2**32, 5, dtype=np.uint32).tobytes() == fresh.integers(
            0, 2**32, 5, dtype=np.uint32
        ).tobytes()
        assert g.integers(0, 1000, 5).tobytes() == fresh.integers(0, 1000, 5).tobytes()

    @pytest.mark.parametrize(
        "other",
        [np.random.default_rng(3), np.random.Generator(np.random.MT19937(3)), np.random.Philox(3), object()],
    )
    def test_only_a_philox_generator_can_be_rekeyed(self, other):
        with pytest.raises(TypeError, match="Philox-backed"):
            substream(5, 1, into=other)


class TestNormalRows:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        start=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**40)),
        rows=st.sampled_from([0, 1, 63, 64, 65]),
        width=st.integers(1, 300),
    )
    @example(seed=0, start=0, rows=65, width=300)
    @example(seed=2**64 - 1, start=2**64 - 1, rows=64, width=1)
    @example(seed=2**64 - 1, start=5, rows=0, width=7)
    def test_each_row_is_its_own_lane_stream(self, seed, start, rows, width):
        got = normal_rows(seed, start, start + rows, width)
        assert got.shape == (rows, width)
        for lane, row in enumerate(got, start):
            assert row.tobytes() == substream(seed, lane).standard_normal(width).tobytes()
