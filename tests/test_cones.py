import itertools

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds.cones import (
    ConeFamily,
    SubspaceBasis,
    coordinate_family,
    eps_star_lower_sparse,
    g_abn,
    general_kpsd_member,
    read_conefam,
    sparse_kpsd_member,
    sparse_kpsd_refute,
    subset_chunks,
    witness_matrix,
    write_conefam,
)
from psdbounds import cones
from psdbounds._rng import k_subsets, substream
from psdbounds.errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidDimensionError,
    NumericalFailureError,
    SizeLimitError,
)
from psdbounds.hypercube import HypercubeFunction
from psdbounds.linalg import SymmetricMatrix, default_psd_tol, eigenvalues_descending, is_psd
from psdbounds.widths import l2_ball_oracle, shifted_oracle

from _oracles import (
    brute_sparse_member,
    nan_identity,
    random_sparse_cone_member,
    random_symmetric,
    reference_screen_clears,
    reference_screen_clears_blocks,
    reference_sparse_refute,
)


def sym(dense):
    return SymmetricMatrix.from_dense(dense)


def chunk_rows(chunks):
    return [c.tolist() for c in chunks]


class TestSubsetChunks:
    """The numpy enumeration yields itertools.combinations, chunk by chunk:
    _unranked_chunks in chunks of any size, subset_chunks in the chunks of
    _unranked_chunks(n, k, 32768)."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, 32768])
    @pytest.mark.parametrize(
        "n, k",
        # C(n, k) up to 32,768 rows reads a cached table, (32769, 1) streams
        [(1, 1), (5, 1), (5, 5), (6, 3), (9, 4), (12, 6), (14, 5), (16, 8), (32768, 1), (32769, 1)],
    )
    def test_rows_and_chunks_equal_itertools(self, n, k, chunk):
        want = list(itertools.combinations(range(n), k))
        got = list(cones._unranked_chunks(n, k, chunk))
        assert [len(c) for c in got] == [len(want[i : i + chunk]) for i in range(0, len(want), chunk)]
        assert all(c.dtype == np.intp and c.shape[1] == k for c in got)
        assert np.concatenate(got).tolist() == [list(row) for row in want]
        if chunk == cones._CHUNK_ROWS:
            chunks = list(subset_chunks(n, k))
            assert all(c.dtype == np.intp for c in chunks) and chunk_rows(chunks) == chunk_rows(got)

    @pytest.mark.parametrize("n, k", [(20, 10), (18, 9)])
    def test_crossing_chunk_boundaries(self, n, k):
        got = list(subset_chunks(n, k))
        assert [len(c) for c in got[:-1]] == [32768] * (len(got) - 1) and len(got) > 1
        assert np.array_equal(np.concatenate(got), np.array(list(itertools.combinations(range(n), k))))

    @pytest.mark.parametrize("n, k", [(67, 65), (68, 66), (70, 67)])
    def test_few_subsets_of_a_large_ground_set(self, n, k):
        # C(n, k) is small, but C(n, k - p) for middle positions p is beyond int64
        got = np.concatenate(list(subset_chunks(n, k)))
        assert np.array_equal(got, np.array(list(itertools.combinations(range(n), k))))


class TestSubsetTableCache:
    """Small shapes read a cached table; larger ones stream; the rows agree."""

    @pytest.fixture(autouse=True)
    def cold(self):
        cones._subset_table.cache_clear()
        yield
        cones._subset_table.cache_clear()

    @pytest.mark.parametrize("chunk", [7, 64, 32768])  # one row per chunk would take seconds
    @pytest.mark.parametrize("n, k", [(23, 5), (100, 98)])  # 33,649 rows; 485,100 entries
    def test_shapes_past_a_cap_stream_the_same_rows(self, n, k, chunk):
        want = list(itertools.combinations(range(n), k))
        got = list(cones._unranked_chunks(n, k, chunk))
        assert [len(c) for c in got] == [len(want[i : i + chunk]) for i in range(0, len(want), chunk)]
        assert all(c.dtype == np.intp and c.shape[1] == k for c in got)
        assert np.concatenate(got).tolist() == [list(row) for row in want]
        streamed = list(subset_chunks(n, k))
        assert chunk_rows(streamed) == chunk_rows(cones._unranked_chunks(n, k, cones._CHUNK_ROWS))
        assert cones._subset_table.cache_info().currsize == 0

    @pytest.mark.parametrize("n, k, dtype", [(14, 5, np.uint8), (256, 2, np.uint8), (300, 299, np.uint16)])
    def test_cached_table_is_compact_and_read_only(self, n, k, dtype):
        list(subset_chunks(n, k))
        table = cones._subset_table(n, k)
        assert table.dtype == dtype and table.shape == (math.comb(n, k), k)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_a_chunk_is_a_writable_intp_copy(self):
        want = [list(row) for row in itertools.combinations(range(9), 4)]
        first = next(subset_chunks(9, 4))
        assert first.dtype == np.intp and first.flags.writeable
        assert not np.shares_memory(first, cones._subset_table(9, 4))
        first[:] = 0
        assert np.concatenate(list(subset_chunks(9, 4))).tolist() == want

    def test_a_table_past_a_cap_is_not_cached(self):
        info = cones._subset_table.cache_info
        assert info().maxsize >= 32
        for n, k in [(100, 98), (23, 5), (20, 10)]:
            for _ in subset_chunks(n, k):
                pass
        assert info().currsize == 0 and info().misses == 0
        for _ in range(3):
            list(subset_chunks(14, 5))
        assert (info().currsize, info().misses, info().hits) == (1, 1, 2)

    def test_cold_and_warm_runs_give_the_same_bits(self, rng):
        shapes = [(6, 3), (9, 4), (10, 2), (12, 6)]
        members = [witness_matrix(n, k) for n, k in shapes]
        gauss = [sym(random_symmetric(n, rng, diag_shift=0.5)) for n, _ in shapes]

        def run():
            found = []
            for (n, k), W, G in zip(shapes, members, gauss):
                found += [sparse_kpsd_member(W, k, 1e-9), sparse_kpsd_member(W, k + 1, 1e-9),
                          sparse_kpsd_member(G, k), sparse_kpsd_member(W, k, 0.0)]
                found.append(coordinate_family(n, k).stacked().tobytes())
            return found

        cold = run()
        assert cones._subset_table.cache_info().currsize == 2 * len(shapes)  # k and k + 1
        assert run() == cold


class TestSparseMembership:
    def test_psd_matrices_always_member(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            g = rng.standard_normal((n, n))
            X = sym(g @ g.T)
            for k in range(1, n + 1):
                assert sparse_kpsd_member(X, k, 1e-9)

    def test_witness_in_at_k_out_at_k_plus_one(self):
        W = witness_matrix(6, 3)
        assert sparse_kpsd_member(W, 3, 1e-9)
        assert not sparse_kpsd_member(W, 4, 1e-9)

    def test_agrees_with_bruteforce_reference(self, rng):
        # mixes members, boundary cases, and non-members
        for trial in range(60):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(2, n + 1))
            shift = float(rng.uniform(-0.5, 1.5))
            dense = random_symmetric(n, rng, diag_shift=shift)
            expected = brute_sparse_member(dense, k, 1e-9)
            assert sparse_kpsd_member(sym(dense), k, 1e-9) == expected

    def test_boundary_matrices_accepted(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 7))
            k = int(rng.integers(2, n))
            dense = random_sparse_cone_member(n, k, rng)
            assert sparse_kpsd_member(sym(dense), k, 1e-8)

    def test_nesting_in_k(self, rng):
        for _ in range(15):
            n = 6
            dense = random_symmetric(n, rng, diag_shift=float(rng.uniform(0, 1)))
            X = sym(dense)
            members = [sparse_kpsd_member(X, k, 1e-9) for k in range(1, n + 1)]
            # once membership fails at k, it fails for all larger k
            for k1, k2 in itertools.combinations(range(n), 2):
                if members[k2]:
                    assert members[k1]

    def test_scaling_invariance(self, rng):
        for _ in range(10):
            dense = random_symmetric(5, rng, diag_shift=0.4)
            X = sym(dense)
            base = sparse_kpsd_member(X, 3, 1e-9)
            for t in (0.5, 2.0, 10.0):
                assert sparse_kpsd_member(sym(t * dense), 3, t * 1e-9) == base

    def test_enumeration_cap(self, monkeypatch):
        with pytest.raises(EnumerationLimitError):
            sparse_kpsd_member(sym(np.eye(40)), 20, 1e-9)
        X = sym(np.eye(12))
        assert sparse_kpsd_member(X, 6, 1e-9)  # C(12,6) = 924 under the default cap
        monkeypatch.setattr(cones, "DEFAULT_ENUMERATION_CAP", 100)
        with pytest.raises(EnumerationLimitError) as raised:
            sparse_kpsd_member(X, 6, 1e-9)
        assert str(raised.value) == (
            "C(12,6) = 924 subsets exceed the cap 100; use sparse_kpsd_refute for a randomized refutation"
        )

    @pytest.mark.parametrize("k", [4, 0, 2.5, 2.0, True, "2"])
    def test_bad_arguments(self, k):
        with pytest.raises(InvalidArgumentError):
            sparse_kpsd_member(sym(np.eye(3)), k)
        with pytest.raises(InvalidArgumentError):
            sparse_kpsd_refute(sym(np.eye(3)), k)

    @pytest.mark.parametrize("samples", [0, 10.5, 10.0, True, "10"])
    def test_refute_needs_an_integer_count_of_samples(self, samples):
        with pytest.raises(InvalidArgumentError, match="sample"):
            sparse_kpsd_refute(sym(np.eye(5)), 3, samples=samples)


def membership_case(kind, n, k, seed):
    """(dense, k, tol) for one membership query of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "witness":  # a member at k, for k >= 2
        return witness_matrix(n, max(k, 2)).to_dense(), max(k, 2), 1e-9
    if kind == "witness k+1":  # its non-member test, for k + 1 <= n
        k = min(max(k, 2), n - 1)
        return witness_matrix(n, k).to_dense(), k + 1, 1e-9
    if kind == "boundary":  # smallest block eigenvalue -1e-9, give or take rounding
        k = max(k, 2)
        return witness_matrix(n, k).to_dense() - 1e-9 * np.eye(n), k, 1e-9
    if kind == "boundary tol=0":  # singular blocks: rounding decides, at tol exactly 0
        k = max(k, 2)
        return witness_matrix(n, k).to_dense(), k, 0.0
    if kind == "psd":
        g = rng.standard_normal((n, n))
        return g @ g.T, k, None
    if kind == "late violation":  # only subsets holding both last indices fail
        dense = np.eye(n)
        dense[n - 1, n - 2] = dense[n - 2, n - 1] = 2.0
        return dense, max(k, 2), None
    dense = random_symmetric(n, rng, diag_shift=float(rng.uniform(-0.5, 2.5)))
    return dense, k, 0.0 if kind == "gaussian tol=0" else None


def check_scan_slicing(dense, chunks, tol, violated):
    """The scan under membership and refutation, for every first slice size:
    it finds a violation iff violated, and without its stop it returns the
    worst block's value, minus its smallest eigenvalue, whenever that
    reaches tol.  chunks() yields the index rows afresh."""
    solve = lambda rows: -np.linalg.eigvalsh(cones.principal_submatrices(dense, rows))[:, 0]
    worst = max(float(solve(rows).max()) for rows in chunks())
    for first in (1, 3, 64, cones._CHUNK_ROWS):
        assert (cones._worst_block(dense, chunks(), tol, first) > tol) == violated
        got = cones._screened_max(dense, solve, chunks(), tol, first)
        assert got.hex() == worst.hex() if worst >= tol else got < tol


class TestSparseMembershipEarlyExit:
    """Exact checks run in growing slices and stop at the first violation."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        kind=st.sampled_from(
            ["witness", "witness k+1", "boundary", "boundary tol=0", "psd", "late violation",
             "gaussian", "gaussian tol=0"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(12, 6), kind="psd", seed=0)
    @example(shape=(12, 6), kind="late violation", seed=0)
    @example(shape=(12, 6), kind="gaussian tol=0", seed=3)
    # without the screen's margin, these would pass the screen although
    # eigvalsh puts some block's smallest eigenvalue below -tol
    @example(shape=(10, 3), kind="boundary", seed=0)
    @example(shape=(12, 6), kind="boundary", seed=0)
    # the screen's shift is negative at tol 0; both answers occur here
    @example(shape=(12, 6), kind="boundary tol=0", seed=0)
    @example(shape=(10, 3), kind="boundary tol=0", seed=0)
    def test_equals_bruteforce(self, shape, kind, seed):
        n, k = shape
        dense, k, tol = membership_case(kind, n, k, seed)
        X = sym(dense)
        scan_tol = default_psd_tol(X) if tol is None else tol
        expected = brute_sparse_member(dense, k, scan_tol)
        assert sparse_kpsd_member(X, k, tol) == expected
        check_scan_slicing(dense, lambda: subset_chunks(n, k), scan_tol, not expected)
        if kind in ("witness", "psd"):
            assert expected
        if kind in ("witness k+1", "late violation"):
            assert not expected

    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize(
        "kind", ["witness", "witness k+1", "boundary", "boundary tol=0", "psd", "late violation",
                 "gaussian", "gaussian tol=0"]
    )
    def test_equals_bruteforce_at_k_n_minus_1(self, kind, n):
        # n blocks of n - 1: the screen's widest rows over the fewest lanes
        dense, k, tol = membership_case(kind, n, n - 2 if kind == "witness k+1" else n - 1, n)
        assert k == n - 1
        X = sym(dense)
        expected = brute_sparse_member(dense, k, default_psd_tol(X) if tol is None else tol)
        assert sparse_kpsd_member(X, k, tol) == expected

    @staticmethod
    def solved(monkeypatch):
        counts = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            counts.append(math.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return counts

    @pytest.mark.parametrize("n, k", [(12, 4), (16, 5), (20, 8)])
    def test_first_violation_stops_after_64_subsets(self, monkeypatch, n, k):
        counts = self.solved(monkeypatch)
        assert not sparse_kpsd_member(sym(-np.eye(n)), k)
        assert counts == [64]
        counts.clear()
        assert not sparse_kpsd_member(witness_matrix(n, k), k + 1, 1e-9)
        assert counts == [64]

    @staticmethod
    def screened(monkeypatch):
        sizes = []
        screen = cones.screen_clears
        monkeypatch.setattr(
            cones, "screen_clears", lambda Y, idx, *rest: sizes.append(len(idx)) or screen(Y, idx, *rest)
        )
        return sizes

    def test_strictly_pd_member_at_tol_zero_needs_no_eigensolve(self, monkeypatch):
        sizes, counts = self.screened(monkeypatch), self.solved(monkeypatch)
        assert sparse_kpsd_member(sym(np.eye(12) + 0.1), 6, tol=0.0)
        assert sizes == [64, 128, 256, 476] and counts == []

    def test_singular_blocks_at_tol_zero_are_screened_then_solved(self, monkeypatch):
        # identity beside the 6-by-6 witness: the 3-subsets inside the witness
        # (the last C(6, 3) = 20 rows) are singular and fail the screen at
        # tol 0, every other subset clears the margin and passes it
        dense = np.eye(12)
        dense[6:, 6:] = witness_matrix(6, 3).to_dense()
        expected = brute_sparse_member(dense, 3, 0.0)
        sizes, counts = self.screened(monkeypatch), self.solved(monkeypatch)
        assert sparse_kpsd_member(sym(dense), 3, tol=0.0) == expected
        assert sizes == [64, 128, 28] and counts == [20]

    def test_screen_runs_on_the_solved_slices(self, monkeypatch):
        sizes, counts = self.screened(monkeypatch), self.solved(monkeypatch)
        assert not sparse_kpsd_member(witness_matrix(16, 5), 6, 1e-9)
        assert sizes == [64] and counts == [64]
        sizes.clear()
        counts.clear()
        # a member passes the screen on every slice and needs no eigensolve
        assert sparse_kpsd_member(witness_matrix(12, 4), 4, 1e-9)
        assert sizes == [64, 128, 256, 47] and counts == []

    def test_each_slice_solves_only_its_rejected_subsets(self, monkeypatch):
        # the 1e12 entry widens the screen's margin to about 0.23, so with
        # tol = 0.1 the subsets holding both 0 and 1 (smallest eigenvalue
        # -0.07) fail the screen without violating; they are the first
        # C(10, 2) = 45 lexicographic rows
        dense = np.eye(12)
        dense[11, 11] = 1e12
        dense[0, 1] = dense[1, 0] = 1.07
        sizes, counts = self.screened(monkeypatch), self.solved(monkeypatch)
        assert sparse_kpsd_member(sym(dense), 4, 0.1)
        assert sizes == [64, 128, 256, 47] and counts == [45]


_SCREEN_C = [0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]


def screen_case(rng, shape, n, k, kind, exponent, subnormal):
    """A stack of n-by-n matrices whose lower triangles hold Gaussian entries,
    a diagonally dominant matrix or a PSD one of rank k - 1, times 10^exponent;
    a fraction subnormal of the entries is replaced by subnormals of either
    sign.  The strict upper triangles are independent Gaussians."""
    if kind == "low rank":
        v = rng.standard_normal(shape + (n, k - 1))  # every k-by-k block is singular
        mats = v @ np.swapaxes(v, -1, -2)
    else:
        mats = rng.standard_normal(shape + (n, n))
        mats += np.swapaxes(mats, -1, -2)
        mats += (8.0 * k if kind == "dominant" else 0.0) * np.eye(n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    mats[..., upper] = rng.standard_normal(shape + (int(upper.sum()),))
    mats *= 10.0**exponent
    tiny = rng.random(mats.shape) < subnormal
    mats[tiny] = rng.integers(-(2**52) + 1, 2**52, size=int(tiny.sum())) * 5e-324
    return mats


def screen_case_c(rng, shape, scale, k):
    """One c per entry of shape, each of either sign, 0, +-inf, NaN, or the
    c whose screen shift is zero up to rounding, so that the pivots of a
    singular block are rounding noise."""
    eps = float(np.finfo(np.float64).eps)
    margin = 64.0 * k * k
    zero_shift = margin * (eps * scale + 5e-324) / (1.0 - margin * eps)
    choices = np.asarray(_SCREEN_C + [zero_shift] * 4)
    return choices[rng.integers(len(choices), size=shape)]


class TestScreenKernel:
    """The screen takes one row of the upper triangle per numpy call; every
    lane equals the per-entry reference kernel's."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 40),
        extra=st.integers(0, 8),
        rows=st.integers(0, 24),
        kind=st.sampled_from(["gaussian", "dominant", "low rank"]),
        exponent=st.integers(-300, 300),
        subnormal=st.sampled_from([0.0, 0.1, 1.0]),
        per_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=40, extra=0, rows=0, kind="low rank", exponent=0, subnormal=0.0, per_row=True, seed=0)
    @example(k=40, extra=2, rows=24, kind="dominant", exponent=300, subnormal=0.1, per_row=True, seed=1)
    @example(k=12, extra=4, rows=24, kind="low rank", exponent=-300, subnormal=1.0, per_row=False, seed=2)
    def test_screen_clears_equals_the_reference(
        self, k, extra, rows, kind, exponent, subnormal, per_row, seed
    ):
        rng = np.random.default_rng(seed)
        n = k + extra
        Y = screen_case(rng, (), n, k, kind, exponent, subnormal)
        Y = np.tril(Y) + np.tril(Y, -1).T
        idx = np.sort(rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)[:, :k], axis=1)
        c = screen_case_c(rng, rows if per_row else (), float(np.abs(Y).max()), k)
        c = c if per_row else float(c)
        got = cones.screen_clears(Y, idx, c)
        assert got.tolist() == reference_screen_clears(Y, idx, c).tolist()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 40),
        stack=st.tuples(st.integers(1, 4), st.integers(1, 6)),
        kind=st.sampled_from(["gaussian", "dominant", "low rank"]),
        exponent=st.integers(-300, 300),
        subnormal=st.sampled_from([0.0, 0.1, 1.0]),
        c_shape=st.sampled_from(["scalar", "trial", "block"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=40, stack=(4, 6), kind="low rank", exponent=300, subnormal=0.1, c_shape="block", seed=0)
    @example(k=7, stack=(3, 5), kind="dominant", exponent=-300, subnormal=1.0, c_shape="trial", seed=1)
    def test_screen_clears_blocks_equals_the_reference(
        self, k, stack, kind, exponent, subnormal, c_shape, seed
    ):
        # a (T, N, k, k) stack of minus the matrices, not bitwise symmetric
        rng = np.random.default_rng(seed)
        blocks = -screen_case(rng, stack, k, k, kind, exponent, subnormal)
        c = screen_case_c(rng, stack, float(np.abs(blocks).max()), k)
        c = {"scalar": float(c[0, 0]), "trial": c[:, :1], "block": c}[c_shape]
        got = cones.screen_clears_blocks(blocks, c)
        assert got.shape == stack
        assert got.tolist() == reference_screen_clears_blocks(blocks, c).tolist()


class TestWholeMatrixBlock:
    """With k = n the one block is X itself: membership and refutation
    answer as linalg.is_psd does, from one eigensolve and no screen."""

    CASES = {
        "identity": np.eye(7),
        "singular": np.ones((7, 7)) / 7,
        "indefinite": witness_matrix(7, 3).to_dense(),
        "small negative eigenvalue": np.diag([1.0, 2.0, -1e-3, 4.0, 5.0, 6.0, 7.0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-2])
    def test_answers_as_is_psd_from_one_eigensolve(self, case, tol, monkeypatch):
        X = sym(self.CASES[case])
        want = is_psd(X, tol)
        monkeypatch.setattr(cones, "screen_clears", lambda *args: pytest.fail("the screen ran"))
        counts = TestSparseMembershipEarlyExit.solved(monkeypatch)
        assert sparse_kpsd_member(X, 7, tol) is want
        assert sparse_kpsd_refute(X, 7, tol, samples=5, seed=1) is (not want)
        assert counts == [1, 1]

    def test_checks_still_run_first(self, monkeypatch):
        X = sym(np.eye(4))
        with pytest.raises(InvalidArgumentError):
            sparse_kpsd_refute(X, 4, samples=0)
        with pytest.raises(InvalidArgumentError):
            sparse_kpsd_member(X, 4, tol=-1.0)
        monkeypatch.setattr(cones, "DEFAULT_ENUMERATION_CAP", 0)
        with pytest.raises(EnumerationLimitError):
            sparse_kpsd_member(X, 4)
        with pytest.raises(NumericalFailureError):
            sparse_kpsd_member(sym(nan_identity()), 6)


class TestSparseNonFinite:
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-9])
    def test_member_raises(self, tol):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            sparse_kpsd_member(sym(nan_identity()), 3, tol)

    def test_refute_raises(self):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            sparse_kpsd_refute(sym(nan_identity()), 3, samples=10)
        with pytest.raises(NumericalFailureError):
            sparse_kpsd_refute(sym(np.diag([1.0, -np.inf, 1.0])), 2, samples=10)


class TestGeneralNonFinite:
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-9])
    def test_member_raises(self, tol):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            general_kpsd_member(sym(nan_identity()), coordinate_family(6, 3), tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_basis_rejects_non_finite_columns(self, bad):
        # a NaN once passed the drift check, which compares NaN
        cols = np.eye(4)[:, :2].copy()
        cols[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            SubspaceBasis(4, 2, cols)

    def test_conefam_with_a_nan_is_rejected(self, tmp_path):
        path = tmp_path / "nan.conefam"
        path.write_text("3 1 1\n1\nnan\n0\n")
        with pytest.raises(InvalidArgumentError, match="finite"):
            read_conefam(path)


# ||X||_F overflows; the {0, 1} block's smallest eigenvalue is about -4.7e307
_NEAR_OVERFLOW = np.array([[1.7976931348623157e308, -1.7e308, 0.0], [-1.7e308, 8e307, 0.0], [0.0, 0.0, 1.0]])


class TestToleranceNearOverflow:
    def test_default_tolerance_is_finite_and_every_test_refutes(self):
        X = sym(_NEAR_OVERFLOW)
        tol = default_psd_tol(X)
        assert type(tol) is float and 3e299 < tol < 3.2e299
        assert not sparse_kpsd_member(X, 2)
        assert sparse_kpsd_refute(X, 2, samples=20)
        assert not is_psd(X)
        assert not general_kpsd_member(X, coordinate_family(3, 2))

    def test_numpy_scalar_tolerance_runs_as_a_python_float(self):
        # max|X| + tol overflows in the screen's margin: to inf on Python
        # floats, with a RuntimeWarning on numpy scalars
        X = sym(np.diag([1.7e308, 1.7e308]))
        for tol in (1e308, np.float64(1e308)):
            assert sparse_kpsd_member(X, 1, tol)
            assert not sparse_kpsd_refute(X, 1, tol, samples=5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tol once made -I a member: every comparison with -tol is false
    X = sym(-np.eye(5))
    for call in (
        lambda: sparse_kpsd_member(X, 2, tol),
        lambda: sparse_kpsd_refute(X, 2, tol, samples=5),
        lambda: general_kpsd_member(X, coordinate_family(5, 2), tol),
    ):
        with pytest.raises(InvalidArgumentError, match="finite and nonnegative"):
            call()


def refutation_case(kind, n, k, tol, seed):
    """(dense, k, tol) for one refutation query of the given kind."""
    rng = np.random.default_rng(seed)
    k = min(max(k, 2), n - 1)
    if kind == "member":
        return witness_matrix(n, k).to_dense(), k, tol
    if kind == "witness k+1":
        return witness_matrix(n, k).to_dense(), k + 1, tol
    if kind == "boundary":  # smallest block eigenvalue -tol, give or take rounding
        tol = 1e-9 if tol is None else tol
        return witness_matrix(n, k).to_dense() - tol * np.eye(n), k, tol
    return random_symmetric(n, rng, diag_shift=float(rng.uniform(0.0, 3.0))), k, tol


class TestRandomizedRefutation:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 16),
        k=st.integers(2, 15),
        kind=st.sampled_from(["member", "witness k+1", "boundary", "gaussian"]),
        tol=st.sampled_from([None, 0.0, 1e-9, 1e-12, 2.0**-30]),
        samples=st.sampled_from([1, 50, 1024, 1500]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=16, k=3, kind="gaussian", tol=None, samples=1500, seed=4)
    # without the screen's margin, these boundary samples would pass the
    # screen although eigvalsh puts their smallest eigenvalue below -tol
    @example(n=16, k=5, kind="boundary", tol=1e-9, samples=50, seed=3)
    @example(n=15, k=13, kind="boundary", tol=1e-12, samples=50, seed=3)
    # singular blocks at tol exactly 0: the screen runs with a negative shift
    @example(n=16, k=5, kind="boundary", tol=0.0, samples=50, seed=3)
    @example(n=12, k=6, kind="boundary", tol=0.0, samples=50, seed=3)
    def test_equals_unscreened_reference(self, n, k, kind, tol, samples, seed):
        dense, k, tol = refutation_case(kind, n, k, tol, seed)
        X = sym(dense)
        scan_tol = default_psd_tol(X) if tol is None else tol
        want = reference_sparse_refute(dense, k, scan_tol, samples, seed)
        assert sparse_kpsd_refute(X, k, tol, samples=samples, seed=seed) == want

        def batches():
            rng = substream(seed)
            return (k_subsets(rng, n, k, min(1024, samples - done)) for done in range(0, samples, 1024))

        check_scan_slicing(dense, batches, scan_tol, want)
        if kind == "witness k+1":
            assert want

    def test_first_violation_in_a_later_batch(self):
        # {7, 41} is the one 2-subset with a non-PSD block; seed 2's stream
        # first draws it as sample 4050, in the fourth batch of 1024
        dense = np.eye(60)
        dense[7, 41] = dense[41, 7] = 2.0
        rng = substream(2)
        first = next(i for i in range(5000) if set(rng.choice(60, size=2, replace=False).tolist()) == {7, 41})
        assert first == 4050
        for samples in (first, first + 1):
            want = reference_sparse_refute(dense, 2, 1e-9, samples, 2)
            assert want == (samples > first)
            assert sparse_kpsd_refute(sym(dense), 2, 1e-9, samples=samples, seed=2) == want

    def test_member_samples_pass_the_screen_without_eigensolves(self, monkeypatch):
        counts = TestSparseMembershipEarlyExit.solved(monkeypatch)
        assert not sparse_kpsd_refute(witness_matrix(40, 8), 8, samples=3000, seed=5)
        assert counts == []


    def test_refutes_non_member(self):
        W = witness_matrix(40, 10)
        # every 11-subset block has a negative eigenvalue, so one sample suffices
        assert sparse_kpsd_refute(W, 11, 1e-9, samples=5, seed=3)

    def test_no_refutation_on_member(self):
        g = np.random.default_rng(0).standard_normal((12, 12))
        X = sym(g @ g.T)
        assert not sparse_kpsd_refute(X, 4, 1e-9, samples=2000, seed=3)

    def test_deterministic(self):
        W = witness_matrix(14, 3)
        runs = [sparse_kpsd_refute(W, 4, 1e-9, samples=50, seed=11) for _ in range(2)]
        assert runs[0] == runs[1]


class TestGeneralMembership:
    def test_matches_sparse_on_coordinate_family(self, rng):
        family = coordinate_family(6, 3)
        for trial in range(100):
            shift = float(rng.uniform(-0.3, 1.2))
            dense = random_symmetric(6, rng, diag_shift=shift)
            X = sym(dense)
            assert general_kpsd_member(X, family, 1e-9) == sparse_kpsd_member(X, 3, 1e-9)

    def test_full_basis_equals_psd_test(self, rng):
        family = ConeFamily(5, (SubspaceBasis(5, 5, np.eye(5)),))
        for _ in range(20):
            dense = random_symmetric(5, rng, diag_shift=float(rng.uniform(-0.5, 1.5)))
            X = sym(dense)
            assert general_kpsd_member(X, family, 1e-9) == is_psd(X, 1e-9)

    def test_negative_identity_never_member(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        family = ConeFamily(6, (SubspaceBasis(6, 4, q),))
        assert not general_kpsd_member(sym(-np.eye(6)), family, 1e-9)

    def test_psd_cone_contained_in_every_relaxation(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(1, n + 1))
            bases = []
            for _ in range(int(rng.integers(1, 6))):
                q, _ = np.linalg.qr(rng.standard_normal((n, k)))
                bases.append(SubspaceBasis(n, k, q[:, :k]))
            family = ConeFamily(n, tuple(bases))
            g = rng.standard_normal((n, n))
            assert general_kpsd_member(sym(g @ g.T), family, 1e-9)

    def test_dimension_mismatch(self):
        family = coordinate_family(4, 2)
        with pytest.raises(InvalidArgumentError):
            general_kpsd_member(sym(np.eye(5)), family, 1e-9)


class TestSubspaceBasis:
    def test_orthonormality_repair(self, rng):
        raw = rng.standard_normal((6, 3))  # far from orthonormal
        basis = SubspaceBasis(6, 3, raw)
        gram = basis.columns.T @ basis.columns
        assert np.abs(gram - np.eye(3)).max() <= 1e-10
        # repaired columns span the same subspace
        proj_raw = raw @ np.linalg.pinv(raw)
        proj_fixed = basis.columns @ basis.columns.T
        assert np.allclose(proj_raw, proj_fixed, atol=1e-8)

    def test_rank_deficient_rejected(self):
        cols = np.zeros((4, 2))
        cols[:, 0] = cols[:, 1] = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(InvalidArgumentError):
            SubspaceBasis(4, 2, cols)

    def test_family_validation(self):
        with pytest.raises(InvalidArgumentError):
            ConeFamily(4, ())
        b1 = SubspaceBasis(4, 1, np.eye(4)[:, :1])
        b2 = SubspaceBasis(4, 2, np.eye(4)[:, :2])
        with pytest.raises(InvalidArgumentError):
            ConeFamily(4, (b1, b2))


    @pytest.mark.parametrize("n, k, error", [(4.0, 2, InvalidDimensionError), (4, 2.0, InvalidArgumentError),
                                             (True, 1, InvalidDimensionError), (4, True, InvalidArgumentError)])
    def test_basis_sizes_must_be_integers(self, n, k, error):
        with pytest.raises(error, match="must be an integer"):
            SubspaceBasis(n, k, np.eye(4)[:, :2])


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: SubspaceBasis(3, 2, np.zeros((3, 3))), r"columns must have shape \(3, 2\), got \(3, 3\)"),
        (lambda: SubspaceBasis(2, 3, np.zeros((2, 3))), "need 1 <= k <= n, got k=3, n=2"),
        (lambda: ConeFamily(3, (SubspaceBasis(3, 1, np.eye(3)[:, :1]), SubspaceBasis(2, 1, np.eye(2)[:, :1]))),
         r"mixed ambient dimensions \[2, 3\]"),
        (lambda: HypercubeFunction(3, np.zeros(7)), r"need exactly 2\^3 = 8 values, got shape \(7,\)"),
        (lambda: shifted_oracle(l2_ball_oracle(3), np.zeros(2)), r"shift must have shape \(3,\), got \(2,\)"),
    ],
    ids=["basis-shape", "basis-rank", "family-dims", "hypercube-values", "oracle-shift"],
)
def test_inconsistent_shapes_are_named(build, needle):
    with pytest.raises(InvalidArgumentError, match=needle):
        build()


class TestSpikedConstructions:
    def test_g_abn_identity(self):
        assert np.allclose(g_abn(1.0, 1.0, 4).to_dense(), np.eye(4))

    def test_g_abn_rank_one_part(self):
        assert np.allclose(g_abn(1.0, 0.0, 2).to_dense(), np.full((2, 2), 0.5))
        assert np.allclose(g_abn(3.0, 0.0, 3).to_dense(), np.ones((3, 3)))

    def test_g_abn_trace(self, rng):
        for _ in range(10):
            a, b = rng.standard_normal(2)
            n = int(rng.integers(2, 9))
            assert abs(g_abn(a, b, n).trace() - (a + b * (n - 1))) < 1e-12

    @pytest.mark.parametrize("n", [1, 0, 2.5, 3.0, True, "3"])
    def test_g_abn_needs_n_at_least_two(self, n):
        with pytest.raises(InvalidDimensionError):
            g_abn(1.0, 1.0, n)

    def test_witness_values_6_3(self):
        W = witness_matrix(6, 3)
        assert abs(W.to_dense()[0, 0] - (-0.25 / 6 + 0.25 * (1 - 1 / 6) - 0.0)) < 1e-12
        w = np.sort(eigenvalues_descending(W))
        assert np.allclose(w, [-0.25, 0.25, 0.25, 0.25, 0.25, 0.25])

    def test_witness_unit_trace(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 15))
            k = int(rng.integers(2, n))
            assert abs(witness_matrix(n, k).trace() - 1.0) < 1e-12

    def test_witness_boundary_k_equals_n(self):
        W = witness_matrix(5, 5)
        assert is_psd(W, 1e-12)
        assert abs(W.to_dense()[0, 0] - 1 / 5) < 1e-15  # a=0, b=1/(n-1), diag = b(1-1/n)... = 1/n

    def test_witness_transition_10_2(self):
        W = witness_matrix(10, 2).to_dense()
        eps = eps_star_lower_sparse(10, 2)
        assert eps == 8.0
        assert is_psd(sym(W + (eps + 1e-6) / 10 * np.eye(10)), 1e-9)
        assert not is_psd(sym(W + (eps - 1e-6) / 10 * np.eye(10)), 1e-9)

    def test_witness_past_the_size_cap_is_rejected_before_allocation(self):
        n = cones.MAX_WITNESS_DIM + 1
        with pytest.raises(SizeLimitError, match=f"n <= {cones.MAX_WITNESS_DIM}, got {n}"):
            witness_matrix(n, 2)
        assert eps_star_lower_sparse(10**5, 2) == 99_998.0  # the bound needs no matrix
        with pytest.raises(SizeLimitError, match=f"n <= {cones.MAX_WITNESS_DIM}, got {n}"):
            cones.witness_trace(n, 2)

    @pytest.mark.parametrize("n", [*range(2, 60), 100, 257, 1000, 2048])
    def test_witness_trace_is_the_matrix_trace_bit_for_bit(self, n):
        for k in sorted({2, 3, n // 2, n} & set(range(2, n + 1))):
            assert cones.witness_trace(n, k).hex() == witness_matrix(n, k).trace().hex()

    def test_witness_rejects_k_one(self):
        with pytest.raises(InvalidArgumentError):
            witness_matrix(5, 1)
        with pytest.raises(InvalidArgumentError):
            cones.witness_trace(5, 1)
        with pytest.raises(InvalidArgumentError):
            eps_star_lower_sparse(5, 1)

    def test_eps_star_values(self):
        assert eps_star_lower_sparse(10, 2) == 8.0
        assert eps_star_lower_sparse(7, 7) == 0.0
        assert abs(eps_star_lower_sparse(100, 50) - 50 / 49) < 1e-12


class TestCoordinateFamily:
    @pytest.mark.parametrize("n,k,count", [(3, 2, 3), (4, 1, 4), (5, 5, 1)])
    def test_counts(self, n, k, count):
        family = coordinate_family(n, k)
        assert len(family) == count

    @pytest.mark.parametrize("n, k, error", [(4, 2.0, InvalidArgumentError), (4, True, InvalidArgumentError),
                                             (2.5, 2, InvalidDimensionError), (4.0, 2, InvalidDimensionError)])
    def test_sizes_must_be_integers(self, n, k, error):
        with pytest.raises(error, match="must be an integer"):
            coordinate_family(n, k)

    def test_single_full_basis_is_identity(self):
        family = coordinate_family(5, 5)
        assert np.array_equal(family.bases[0].columns, np.eye(5))

    def test_basis_columns_are_standard_vectors(self):
        family = coordinate_family(4, 2)
        for basis in family.bases:
            assert set(np.abs(basis.columns).sum(axis=1)) <= {0.0, 1.0}
            assert basis.columns.sum() == 2.0

    def test_cap(self, monkeypatch):
        with pytest.raises(EnumerationLimitError):
            coordinate_family(40, 20)
        monkeypatch.setattr(cones, "DEFAULT_ENUMERATION_CAP", 5)
        with pytest.raises(EnumerationLimitError) as raised:
            coordinate_family(4, 2)
        assert str(raised.value) == "C(4,2) = 6 subsets exceed the cap 5"
        assert len(coordinate_family(5, 4)) == 5


class TestSparseDuality:
    def test_k_sparse_rank_one_matrices_pair_nonnegatively_with_members(self, rng):
        # <vv^T, Y> = v_I^T Y_I v_I >= 0 for a unit v supported on a k-subset I
        # whenever Y's k-blocks are PSD: vv^T lies in the dual cone
        n, k = 6, 3
        for _ in range(100):
            v = np.zeros(n)
            v[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
            v /= np.linalg.norm(v)
            Y = random_sparse_cone_member(n, k, rng)
            assert float((np.outer(v, v) * Y).sum()) >= -1e-9


class TestConefamFormat:
    def test_round_trip(self, tmp_path, rng):
        bases = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
            bases.append(SubspaceBasis(5, 2, q[:, :2]))
        family = ConeFamily(5, tuple(bases))
        path = tmp_path / "f.conefam"
        write_conefam(family, path)
        loaded = read_conefam(path)
        assert loaded.ambient_dim == 5 and loaded.rank == 2 and len(loaded) == 4
        for got, want in zip(loaded.bases, family.bases):
            assert np.array_equal(got.columns, want.columns)

    def test_header(self, tmp_path):
        family = coordinate_family(3, 2)
        path = tmp_path / "c.conefam"
        write_conefam(family, path)
        assert path.read_text().splitlines()[0] == "3 2 3"

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "bad.conefam"
        path.write_text("3 2 2\n1 0\n0 1\n0 0\n")
        with pytest.raises(ValueError):
            read_conefam(path)
