import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds._rng import substream
from psdbounds.cones import principal_submatrices
from psdbounds.errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    NumericalFailureError,
)
from psdbounds.linalg import (
    SymmetricMatrix,
    _frobenius_parts,
    default_psd_tol,
    eigenvalues_descending,
    _project_traceless_stack,
    gaussian_sym,
    gaussian_sym_batch,
    is_psd,
    project_traceless,
    psd_tolerance,
    read_symmat,
    sample_standard_gaussian_sym,
    write_symmat,
)

from _oracles import ks_statistic, reference_project_traceless


def diag(*entries):
    return SymmetricMatrix.from_dense(np.diag(np.array(entries, dtype=float)))


def frobenius(M):
    """||M||_F as the library takes it: scaled only where the plain norm overflows."""
    scale, norm = _frobenius_parts(M.to_dense())
    return scale * norm


@st.composite
def scaled_matrices(draw):
    """Symmetric Gaussian matrices from 1e-320 (subnormal) to 1e300 in size,
    half of them with the trace taken out, so it is at roundoff level."""
    n = draw(st.integers(1, 8))
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, n))
    dense = (raw + raw.T) * 10.0 ** draw(st.integers(-320, 300))
    if draw(st.booleans()):
        dense[np.diag_indices(n)] -= np.trace(dense) / n
    return dense


class TestSymmetricMatrix:
    def test_dense_round_trip_is_exactly_symmetric(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            raw = rng.standard_normal((n, n))
            M = SymmetricMatrix.from_dense((raw + raw.T) / 2)
            dense = M.to_dense()
            assert np.array_equal(dense, dense.T)

    def test_packed_is_the_row_major_upper_triangle(self, rng):
        dense = _random_sym(5, rng)
        M = SymmetricMatrix.from_dense(dense)
        assert M.packed.tobytes() == dense[np.triu_indices(5)].tobytes()
        assert M.to_dense().tobytes() == dense.tobytes()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            SymmetricMatrix(0, np.array([]))
        with pytest.raises(InvalidDimensionError):
            SymmetricMatrix(3, np.zeros(5))
        with pytest.raises(InvalidDimensionError):
            SymmetricMatrix.from_dense(np.zeros((2, 3)))

    def test_packed_is_immutable(self):
        M = diag(1.0, 2.0)
        with pytest.raises(ValueError):
            M.packed[0] = 5.0

    # the squares overflow; the suite turns every RuntimeWarning into an error
    def test_frobenius_norm_past_the_float_range(self):
        assert frobenius(diag(1e200, 1e200)) == 1e200 * math.sqrt(2.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dense=scaled_matrices())
    def test_plain_trace_and_norm_keep_their_bits(self, dense):
        M = SymmetricMatrix.from_dense(dense)
        assert same_bits(np.float64(M.trace()), dense.diagonal().copy().sum())
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(dense)
        if np.isfinite(plain):
            assert same_bits(np.float64(frobenius(M)), plain)


class TestGaussianSampling:
    def test_deterministic_given_seed(self):
        a = sample_standard_gaussian_sym(5, 12345)
        b = sample_standard_gaussian_sym(5, 12345)
        assert np.array_equal(a.packed, b.packed)

    def test_different_seeds_differ(self):
        a = sample_standard_gaussian_sym(5, 1)
        b = sample_standard_gaussian_sym(5, 2)
        assert not np.array_equal(a.packed, b.packed)

    def test_scalar_moments_over_seeds(self):
        # n=1 entries are N(0,1): sample mean ~ 0 +- 0.02, variance ~ 1 +- 0.03
        draws = np.array(
            [sample_standard_gaussian_sym(1, s).packed[0] for s in range(100_000)]
        )
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var(ddof=1) - 1.0) < 0.03

    def test_offdiagonal_variance_is_half(self):
        draws = np.array(
            [sample_standard_gaussian_sym(2, s).to_dense()[0, 1] for s in range(100_000)]
        )
        assert abs(draws.var(ddof=1) - 0.5) < 0.02

    def test_rejects_zero_dimension(self):
        with pytest.raises(InvalidDimensionError):
            sample_standard_gaussian_sym(0, 1)

    def test_orthogonal_invariance_of_spectrum(self, rng):
        # eigenvalue samples of G and U G' U^T over 1e4 independent draws each
        n = 5
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        plain = np.empty((10_000, n))
        rotated = np.empty((10_000, n))
        gen = np.random.default_rng(2718)
        for t in range(10_000):
            plain[t] = np.linalg.eigvalsh(_gaussian_dense(n, gen))
            rotated[t] = np.linalg.eigvalsh(q @ _gaussian_dense(n, gen) @ q.T)
        assert ks_statistic(plain.ravel(), rotated.ravel()) <= 0.02


def _gaussian_dense(n, rng):
    return gaussian_sym(n, rng).to_dense()


def _random_sym(n, rng):
    raw = rng.standard_normal((n, n))
    return (raw + raw.T) / 2


class TestEigenvalues:
    def test_identity(self):
        assert np.array_equal(
            eigenvalues_descending(SymmetricMatrix.from_dense(np.eye(3))), np.ones(3)
        )

    def test_diag(self):
        w = eigenvalues_descending(diag(2.0, -1.0))
        assert np.allclose(w, [2.0, -1.0])

    def test_witness_spectrum(self):
        from psdbounds.cones import witness_matrix

        w = eigenvalues_descending(witness_matrix(6, 3))
        assert np.allclose(np.sort(w), [-0.25, 0.25, 0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_order_and_trace_identity(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            M = SymmetricMatrix.from_dense(_random_sym(n, rng))
            w = eigenvalues_descending(M)
            assert (np.diff(w) <= 0).all()
            assert abs(w.sum() - M.trace()) <= 1e-8 * n * frobenius(M) + 1e-14

    def test_failure_carries_fingerprint(self):
        # non-finite entries are the one reliable way to make LAPACK give up
        M = diag(1.0, math.nan)
        with pytest.raises(NumericalFailureError) as err:
            eigenvalues_descending(M)
        assert M.fingerprint() in str(err.value)
        assert err.value.fingerprint == M.fingerprint()

    def test_lapack_failure_carries_fingerprint(self, monkeypatch):
        # a finite matrix LAPACK gives up on: the LinAlgError becomes the package's error
        def failing(a, *rest):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        M = diag(1.0, 2.0)
        with pytest.raises(NumericalFailureError, match="eigensolver failed on a 2x2 matrix") as err:
            eigenvalues_descending(M)
        assert "did not converge" in str(err.value)
        assert err.value.fingerprint == M.fingerprint()
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def submatrix(M, indices):
    """M's principal submatrix on indices, through the package's one gather."""
    idx = np.array([indices], dtype=np.intp)
    return SymmetricMatrix.from_dense(principal_submatrices(M.to_dense(), idx)[0])


class TestPrincipalSubmatrix:
    def test_diag_selection(self):
        sub = submatrix(diag(1.0, 2.0, 3.0), (0, 2))
        assert np.array_equal(sub.to_dense(), np.diag([1.0, 3.0]))

    def test_full_selection_is_identity_operation(self, rng):
        M = SymmetricMatrix.from_dense(_random_sym(4, rng))
        sub = submatrix(M, (0, 1, 2, 3))
        assert np.array_equal(sub.packed, M.packed)

    def test_singleton(self):
        M = sample_standard_gaussian_sym(5, 99)
        sub = submatrix(M, (1,))
        assert sub.dim == 1
        assert sub.packed[0] == M.to_dense()[1, 1]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            submatrix(diag(1.0, 2.0), (0, 2))

    def test_psd_inherited_by_submatrices(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = rng.standard_normal((n, n))
            M = SymmetricMatrix.from_dense(g @ g.T)
            assert is_psd(M, 1e-9)
            size = int(rng.integers(1, n + 1))
            subset = tuple(sorted(rng.choice(n, size=size, replace=False)))
            assert is_psd(submatrix(M, subset), 1e-9)


class TestIsPsd:
    def test_identity_zero_tol(self):
        assert is_psd(SymmetricMatrix.from_dense(np.eye(4)), 0.0)

    def test_small_negative_rejected(self):
        assert not is_psd(diag(1.0, -1e-6), 1e-9)

    def test_tiny_negative_within_tol(self):
        assert is_psd(diag(1.0, -1e-12), 1e-9)

    def test_default_tolerance_scales(self):
        # default tol = 1e-9 * max(1, ||M||_F)
        assert is_psd(diag(1.0, -0.5e-9))
        assert not is_psd(diag(1.0, -1e-8))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(diag(1.0), -1.0)

    @pytest.mark.parametrize("tol", [-1e-300, math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(InvalidArgumentError, match="finite and nonnegative"):
            is_psd(diag(1.0), tol)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
    def test_default_tolerance_keeps_its_bits_while_the_norm_is_finite(self, scale, rng):
        M = SymmetricMatrix.from_dense(scale * rng.standard_normal((5, 5)))
        tol = default_psd_tol(M)
        assert type(tol) is float and tol == 1e-9 * max(1.0, float(np.linalg.norm(M.to_dense())))

    def test_default_tolerance_past_the_float_range_is_finite(self):
        M = diag(1.7e308, -1.7e308, 1.7e308)
        assert psd_tolerance(M, None) == 1e-9 * 1.7e308 * math.sqrt(3.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_default_tolerance_rejects_non_finite_entries(self, entry):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            default_psd_tol(diag(1.0, entry))

    def test_tolerance_is_a_python_float(self):
        assert type(psd_tolerance(diag(1.0), np.float64(0.5))) is float
        assert type(psd_tolerance(diag(1.0), 0)) is float


class TestProjectTraceless:
    def test_identity_maps_to_zero(self):
        out = project_traceless(SymmetricMatrix.from_dense(np.eye(3)))
        assert np.array_equal(out.to_dense(), np.zeros((3, 3)))

    def test_traceless_input_unchanged_bitwise(self):
        M = SymmetricMatrix.from_dense(np.array([[1.0, 2.0], [2.0, -1.0]]))
        out = project_traceless(M)
        assert out is M

    def test_diag_example(self):
        out = project_traceless(diag(3.0, 0.0, 0.0))
        assert np.allclose(out.to_dense(), np.diag([2.0, -1.0, -1.0]))

    def test_idempotent_bitwise(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            M = SymmetricMatrix.from_dense(_random_sym(n, rng))
            once = project_traceless(M)
            twice = project_traceless(once)
            assert np.array_equal(once.packed, twice.packed)

    def test_trace_tolerance(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 20))
            M = SymmetricMatrix.from_dense(_random_sym(n, rng) * 100)
            out = project_traceless(M)
            assert abs(out.trace()) <= 1e-12 * n * frobenius(M)

    # the squares of these entries overflow, so ||M||_F is taken scaled; the
    # suite turns every RuntimeWarning into an error
    def test_norm_past_the_float_range_still_projects(self):
        d = np.array([1e200, 2e200, -1e200])
        out = project_traceless(diag(*d))
        assert np.array_equal(out.to_dense(), np.diag(d - d.sum() / 3))

    def test_roundoff_trace_past_the_float_range_is_kept(self):
        M = diag(1e200, -1e200, 1e185)  # 1e185 <= 1e-13 * 3 * sqrt(2) * 1e200
        assert project_traceless(M) is M

    # the plain diagonal sum overflows, though the trace, 1e308, is a float
    def test_trace_past_the_float_range_projects_to_a_traceless_matrix(self):
        M = diag(1e308, 1e308, -1e308)
        assert M.trace() == 1e308
        out = project_traceless(M)
        assert np.isfinite(out.packed).all()
        shift = 1e308 / 3
        assert np.array_equal(out.to_dense(), np.diag([1e308 - shift, 1e308 - shift, -1e308 - shift]))
        assert project_traceless(out) is out

    # the trace, 3e308, is past the float range, but the shift 1e308 is not
    def test_trace_beyond_the_float_range_projects_to_zero(self):
        M = diag(1e308, 1e308, 1e308)
        assert M.trace() == math.inf
        assert np.array_equal(project_traceless(M).to_dense(), np.zeros((3, 3)))
        # in a stack, beside a row whose scaled sum 2.5 * 2^1023 is exact
        h = 2.0**1023
        mats = np.stack([np.diag([1e308, 1e308, 1e308, 0.0]), np.diag([h, h, h / 2, 0.0])])
        _project_traceless_stack(mats)
        assert np.array_equal(mats[0], np.diag([0.25e308, 0.25e308, 0.25e308, -0.75e308]))
        assert np.array_equal(mats[1], np.diag([0.375 * h, 0.375 * h, -0.125 * h, -0.625 * h]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dense=scaled_matrices())
    @example(dense=np.diag([1.0, -1.0, 4.24e-13]))
    @example(dense=np.diag([1.0, -1.0, 4.25e-13]))
    @example(dense=np.diag([1e200, 2e200, -1e200]))
    def test_matches_the_per_matrix_rule(self, dense):
        M = SymmetricMatrix.from_dense(dense)
        expected, kept = reference_project_traceless(dense)
        out = project_traceless(M)
        assert same_bits(out.to_dense(), expected)
        assert (out is M) == kept


def same_bits(a, b):
    """Equal bits and equal memory layout, which BLAS rounding can depend on."""
    return (
        a.shape == b.shape
        and a.strides == b.strides
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def per_trial_stack(n, seed, start, stop, traceless):
    """The batched sampler's reference: one gaussian_sym per trial."""
    mats = []
    for t in range(start, stop):
        G = gaussian_sym(n, substream(seed, t))
        mats.append((project_traceless(G) if traceless else G).to_dense())
    return np.stack(mats)


@st.composite
def trial_windows(draw):
    start = draw(st.integers(0, 300))
    return start, start + draw(st.sampled_from([1, 1, 2, 7, 64, 65]))


class TestGaussianSymBatch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        window=trial_windows(),
        traceless=st.booleans(),
    )
    @example(n=1, seed=0, window=(0, 1), traceless=False)
    @example(n=1, seed=2**64 - 1, window=(5, 6), traceless=True)
    @example(n=12, seed=2**64 - 1, window=(63, 130), traceless=True)
    def test_equals_per_trial_matrices_bit_for_bit(self, n, seed, window, traceless):
        start, stop = window
        mats = gaussian_sym_batch(n, seed, start, stop)
        if traceless:  # the variance lemma's draw: each matrix projected in place
            _project_traceless_stack(mats)
        assert same_bits(mats, per_trial_stack(n, seed, start, stop, traceless))

    def test_layout_matches_triu_indices(self, rng):
        for n in range(1, 13):
            packed = rng.standard_normal(n * (n + 1) // 2)
            M = SymmetricMatrix(n, packed)
            iu = np.triu_indices(n)
            dense = np.zeros((n, n))
            dense[iu] = packed
            dense.T[iu] = packed
            assert same_bits(M.to_dense(), dense)
            assert same_bits(SymmetricMatrix.from_dense(dense).packed, M.packed)
            assert M.trace() == float(packed[iu[0] == iu[1]].sum())

    @pytest.mark.parametrize("n", [0, 2.5, 3.0, True, "3"])
    def test_rejects_empty_dimension(self, n):
        with pytest.raises(InvalidDimensionError):
            gaussian_sym_batch(n, 1, 0, 4)


class TestTracelessStack:
    """The batched projection keeps project_traceless's roundoff rule."""

    # diag(1, -1, x): ||M||_F ~ sqrt(2), so the rule's threshold on the trace x
    # is 1e-13 * 3 * sqrt(2) ~ 4.243e-13, and the batched pre-test's is twice that
    CASES = {
        "trace exactly 0": np.diag([1.0, -1.0, 0.0]),
        "zero matrix": np.zeros((3, 3)),
        "far below threshold": np.diag([1.0, -1.0, 1e-15]),
        "just below threshold": np.diag([1.0, -1.0, 4.24e-13]),
        "just above threshold": np.diag([1.0, -1.0, 4.25e-13]),
        "between 1x and 2x": np.diag([1.0, -1.0, 7e-13]),
        "far above threshold": np.diag([1.0, -1.0, 1e-3]),
    }
    UNCHANGED = {"trace exactly 0", "zero matrix", "far below threshold", "just below threshold"}

    def test_hand_built_matrices(self):
        names = list(self.CASES)
        mats = np.stack([self.CASES[name] for name in names])
        _project_traceless_stack(mats)
        for name, got in zip(names, mats):
            M = SymmetricMatrix.from_dense(self.CASES[name])
            expected = project_traceless(M)
            assert same_bits(got, expected.to_dense()), name
            assert (expected is M) == (name in self.UNCHANGED), name

    def test_off_diagonal_matrix_with_roundoff_trace(self, rng):
        raw = rng.standard_normal((7, 7))
        dense = (raw + raw.T) / 2
        dense[np.diag_indices(7)] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.0]
        dense[6, 6] = 1e-14
        M = SymmetricMatrix.from_dense(dense)
        assert project_traceless(M) is M
        mats = dense[None].copy()
        _project_traceless_stack(mats)
        assert same_bits(mats[0], dense)

    def test_norms_past_the_float_range(self):
        cases = [np.diag([1e200, 2e200, -1e200]), np.diag([1e200, -1e200, 1e185]), np.diag([1.0, -1.0, 1e-3])]
        mats = np.stack(cases)
        _project_traceless_stack(mats)
        for got, dense in zip(mats, cases):
            assert same_bits(got, project_traceless(SymmetricMatrix.from_dense(dense)).to_dense())
        assert not np.array_equal(mats[0], cases[0]) and np.array_equal(mats[1], cases[1])

    def test_projecting_twice_changes_nothing(self):
        once = gaussian_sym_batch(9, 4, 0, 200)
        _project_traceless_stack(once)
        twice = once.copy()
        _project_traceless_stack(twice)
        reference = np.stack(
            [project_traceless(SymmetricMatrix.from_dense(m)).to_dense() for m in once]
        )
        assert same_bits(twice, reference)
        assert same_bits(twice, once)


class TestSymmatFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        path = tmp_path / "m.symmat"
        for _ in range(20):
            n = int(rng.integers(1, 10))
            M = SymmetricMatrix.from_dense(_random_sym(n, rng) * 10.0 ** rng.integers(-8, 9))
            write_symmat(M, path)
            assert np.array_equal(read_symmat(path).packed, M.packed)

    def test_file_round_trip(self, tmp_path, rng):
        M = SymmetricMatrix.from_dense(_random_sym(6, rng))
        path = tmp_path / "m.symmat"
        write_symmat(M, path)
        assert np.array_equal(read_symmat(path).packed, M.packed)

    def test_header_is_dimension(self, tmp_path):
        path = tmp_path / "d.symmat"
        write_symmat(diag(1.5, -2.0), path)
        assert path.read_text().splitlines()[0] == "2"

    @pytest.mark.parametrize("text, error", [("", ValueError), ("2\n1.0 2.0\n", ValueError),
                                             ("0\n", InvalidDimensionError)])
    def test_rejects_bad_payloads(self, tmp_path, text, error):
        path = tmp_path / "bad.symmat"
        path.write_text(text)
        with pytest.raises(error):
            read_symmat(path)
