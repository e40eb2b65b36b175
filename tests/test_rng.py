import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds import _rng
from psdbounds._rng import _floyd_rows, check_seed, k_subsets, normal_rows, substream


def philox_stream(seed, lane):
    """The stream substream promises: numpy's own Philox keyed by (seed, lane)."""
    key = np.array([seed, lane % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestCheckSeed:
    @pytest.mark.parametrize(
        "seed", [0, 12, 2**64 - 1, np.int8(12), np.int64(12), np.uint64(2**64 - 1)]
    )
    def test_python_and_numpy_integers_are_seeds(self, seed):
        got = check_seed(seed)
        assert type(got) is int and got == seed

    @pytest.mark.parametrize("seed", [True, False, np.True_, 3.7, 3.0, np.float64(3.0), "12", None])
    def test_anything_else_is_no_seed(self, seed):
        # int() would take 3.7 for 3, True for 1 and "12" for 12
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1)])
    def test_out_of_range(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            check_seed(seed)

    def test_substream_takes_a_numpy_seed_as_its_value(self):
        assert substream(np.uint64(7), 2).random() == substream(7, 2).random()
        with pytest.raises(ValueError, match="seed must be an integer"):
            substream(7.0)


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


class TestRekeyContract:
    def test_a_plain_philox_generator_is_not_rekeyed(self):
        # only a generator substream returned carries the state record
        with pytest.raises(TypeError, match="Philox-backed"):
            substream(5, 1, np.random.Generator(np.random.Philox(3)))

    @pytest.mark.parametrize("kind", [np.uint64, np.int64])
    def test_numpy_integer_seeds_give_the_int_rows(self, kind):
        want = normal_rows(2**62 + 9, 3, 40, 17)
        assert normal_rows(kind(2**62 + 9), 3, 40, 17).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 3.0])
    @pytest.mark.parametrize("rows", [0, 3])
    def test_bad_seeds_raise_from_normal_rows_as_from_substream(self, seed, rows):
        with pytest.raises(ValueError, match="seed must be"):
            substream(seed)
        with pytest.raises(ValueError, match="seed must be"):
            normal_rows(seed, 5, 5 + rows, 4)

    def test_two_threads_drawing_windows_give_the_serial_rows(self):
        seed, trials, width = 11, 300, 36
        serial = normal_rows(seed, 0, trials, width)
        got, errors = {7: [], 13: []}, []

        def draw(step):
            try:
                for _ in range(4):
                    windows = [normal_rows(seed, a, min(a + step, trials), width) for a in range(0, trials, step)]
                    got[step].append(np.concatenate(windows))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(step,)) for step in (7, 13)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors, errors
        for step, passes in got.items():
            assert len(passes) == 4, step
            assert all(rows.tobytes() == serial.tobytes() for rows in passes), step


def choice_loop(rng, n, k, count):
    """The rows k_subsets promises, drawn by the installed numpy's rng.choice."""
    return np.array([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(count)]).reshape(count, k)


def plain(state):
    """A bit generator state with its arrays as lists, for ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def stream_pair(seed, cached):
    """Two generators on the same (seed, 0) stream; with cached, each has
    drawn one 32-bit word and holds the other half of its output."""
    pair = substream(seed), substream(seed)
    for g in pair:
        g.integers(0, 2**32, cached, dtype=np.uint32)
    assert pair[0].bit_generator.state["has_uint32"] == cached
    return pair


@pytest.fixture
def fallback_calls(monkeypatch):
    """The (n, k, count) of every batch k_subsets leaves to rng.choice."""
    calls = []
    loop = _rng._choice_rows

    def recording(rng, n, k, count):
        calls.append((n, k, count))
        return loop(rng, n, k, count)

    monkeypatch.setattr(_rng, "_choice_rows", recording)
    return calls


class TestKSubsets:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        nk=st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        count=st.integers(1, 300),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        cached=st.sampled_from([0, 1]),
    )
    @example(nk=(1, 1), count=3, seed=0, cached=1)  # draws no word
    @example(nk=(2, 1), count=1, seed=0, cached=1)  # the cached half is the batch
    @example(nk=(9, 9), count=7, seed=2**64 - 1, cached=0)  # k = n: j = 0 draws no word
    @example(nk=(40, 11), count=300, seed=2**64 - 1, cached=1)
    def test_equals_the_choice_loop_and_its_final_state(self, nk, count, seed, cached):
        n, k = nk
        ours, ref = stream_pair(seed, cached)
        got = k_subsets(ours, n, k, count)
        assert got.dtype == np.intp and got.shape == (count, k) and got.flags.c_contiguous
        assert np.array_equal(got, choice_loop(ref, n, k, count))
        assert plain(ours.bit_generator.state) == plain(ref.bit_generator.state)

    @pytest.mark.parametrize("n, k", [(40, 11), (20, 20), (60, 1)])
    def test_floyd_sizes_draw_without_rng_choice(self, n, k, fallback_calls):
        ours, ref = stream_pair(12345, 1)
        assert np.array_equal(k_subsets(ours, n, k, 1024), choice_loop(ref, n, k, 1024))
        assert fallback_calls == []

    def test_a_rejected_word_hands_the_batch_to_rng_choice(self, fallback_calls):
        # found by search: seed 6's first 1024 samples at (10000, 100) hold a
        # Lemire rejection (about one sample in 8,600 does)
        ours, ref = stream_pair(6, 0)
        before = plain(ours.bit_generator.state)
        assert _floyd_rows(ours, 10_000, 100, 1024) is None
        assert plain(ours.bit_generator.state) == before
        assert np.array_equal(k_subsets(ours, 10_000, 100, 1024), choice_loop(ref, 10_000, 100, 1024))
        assert plain(ours.bit_generator.state) == plain(ref.bit_generator.state)
        assert fallback_calls == [(10_000, 100, 1024)]

    @pytest.mark.parametrize("k, floyd", [(200, True), (201, False)])
    def test_numpy_leaves_floyd_past_n_10000_and_k_n_over_50(self, k, floyd, fallback_calls):
        n = 10_001
        a, ref = stream_pair(7, 1)
        want = choice_loop(ref, n, k, 20)
        assert np.array_equal(_floyd_rows(a, n, k, 20), want) == floyd
        ours, _ = stream_pair(7, 1)
        assert np.array_equal(k_subsets(ours, n, k, 20), want)
        assert plain(ours.bit_generator.state) == plain(ref.bit_generator.state)
        assert fallback_calls == ([] if floyd else [(n, k, 20)])
