"""Independent oracles used by the test suite.

Everything here recomputes quantities by a route different from the library:
brute-force enumeration, bisection, and adaptive quadrature.  Keeping these
separate from the package is the point; they must not call the code paths
they check.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def thm2_cardano_complex(n: int, k: int, eps: float) -> float:
    """Same root as inside thm2_xc_lower via the Cardano cube-root sum
    T_+ + T_-; an independent route for cross-checking.

    Nonnegative discriminant takes real cube roots; otherwise the principal
    complex branches have conjugate arguments and their sum is the positive
    real root.
    """
    ln3 = math.log(3.0)
    a = math.sqrt(n) / (22000.0 * math.e * (1.0 + eps))
    b = (
        math.log(16.0 * (1.0 + eps) * math.sqrt(k) * n**1.5 / (5.0 * math.sqrt(2.0 * ln3)))
        - 2.0 * k * ln3
    ) / 3.0
    disc = a * a + b**3
    if disc >= 0.0:
        s = math.sqrt(disc)
        return math.copysign(abs(a + s) ** (1.0 / 3.0), a + s) + math.copysign(
            abs(a - s) ** (1.0 / 3.0), a - s
        )
    inner = cmath.sqrt(complex(disc))
    t_plus = (a + inner) ** (1.0 / 3.0)
    t_minus = (a - inner) ** (1.0 / 3.0)
    return (t_plus + t_minus).real


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile_bisect(p: float) -> float:
    """Inverse normal CDF by bisection on the erfc-based CDF."""
    return bisect_root(lambda x: normal_cdf(x) - p, -40.0, 40.0, tol=1e-13)


def chi2_cdf_1df(x: float) -> float:
    """CDF of the square of a standard normal."""
    if x <= 0.0:
        return 0.0
    return math.erf(math.sqrt(x / 2.0))


def chi2_quantile_bisect(p: float) -> float:
    return bisect_root(lambda x: chi2_cdf_1df(x) - p, 0.0, 200.0, tol=1e-13)


# halvings before a panel may stop: two Simpson levels must agree on at
# least 2^4 subpanels of [a, b]
_SIMPSON_MIN_DEPTH = 4


def _simpson_adaptive(fn, a: float, b: float, tol: float, depth: int = 48) -> float:
    """Adaptive Simpson integral of fn over [a, b].

    A panel stops when its two Simpson levels agree within 15 tol, but only
    _SIMPSON_MIN_DEPTH or more halvings down: two levels of one wide panel
    can agree by chance, and then the whole panel stops with a wrong value
    (x 6 phi(x) Phi(x)^5 on [-12, 12] gave 1.270073 where the truth is
    1.267206 without that floor).
    """
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)

    def recurse(a, b, fa, fm, fb, whole, tol, level):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if level >= depth or (level >= _SIMPSON_MIN_DEPTH and abs(left + right - whole) <= 15.0 * tol):
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, level + 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, level + 1
        )

    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def expected_max_of_normals(n: int, steps: int = 1536) -> float:
    """E max of n iid N(0, 1): the integral of x n phi(x) Phi(x)^(n-1) on
    [-12, 12], outside which the integrand is below 1e-30, by the trapezoid
    rule, which converges geometrically on a smooth integrand that vanishes
    at both ends."""
    h = 24.0 / steps
    total = 0.0
    for i in range(1, steps):
        x = -12.0 + i * h
        total += x * n * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * normal_cdf(x) ** (n - 1)
    return total * h


def ellipse_width(a: float, b: float, steps: int = 256) -> float:
    """E ||(a g_1, b g_2)|| for g ~ N(0, I_2): the radius |g| is Rayleigh,
    mean sqrt(pi/2), and independent of the angle, which is uniform.  The
    angle's mean of sqrt(a^2 cos^2 + b^2 sin^2) is a periodic integral, which
    the trapezoid rule on an even grid resolves geometrically fast."""
    total = 0.0
    for i in range(steps):
        t = 2.0 * math.pi * i / steps
        total += math.sqrt((a * math.cos(t)) ** 2 + (b * math.sin(t)) ** 2)
    return math.sqrt(0.5 * math.pi) * total / steps


def expected_max_abs_normals(d: int) -> float:
    """E max |g_i| of d iid N(0, 1): the integral of P(max > x) =
    1 - (2 Phi(x) - 1)^d over [0, 12], past which it is below 1e-31 d."""
    return _simpson_adaptive(lambda x: 1.0 - math.erf(x / math.sqrt(2.0)) ** d, 0.0, 12.0, 1e-13)


def chi2_tail_mass_quadrature(delta: float, tol: float = 1e-12, quantile=None) -> float:
    """Adaptive-Simpson value of the chi-square(1) upper-order-statistic mass
    integral on [0, delta].

    The integrand Q(1 - s) blows up logarithmically at s = 0, so the panel
    closest to zero is split dyadically down to 2^-60 of the interval; the
    truncated mass below that is ~1e-16 and ignored.  The normal quantile
    defaults to the slow bisection route; callers sweeping many grid points
    may pass a faster (independently validated) quantile function.
    """
    if delta <= 0.0:
        return 0.0
    if quantile is None:
        quantile = normal_quantile_bisect
    integrand = lambda s: quantile(1.0 - 0.5 * s) ** 2
    total = 0.0
    hi = delta
    for _ in range(60):
        lo = hi / 2.0
        total += _simpson_adaptive(integrand, lo, hi, tol / 60.0)
        hi = lo
        # below ~1e-15 the argument 1 - s/2 rounds to 1.0; the mass left
        # under the truncation point is O(1e-13), far inside the tolerance
        if hi < 1e-15:
            break
    return total


def naive_fourier(values: np.ndarray) -> np.ndarray:
    """O(4^n) Fourier coefficients straight from the definition."""
    size = values.size
    n = size.bit_length() - 1
    coeffs = np.empty(size)
    idx = np.arange(size, dtype=np.uint32)
    for mask in range(size):
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(mask)) % 2)
        coeffs[mask] = float((values * signs).mean())
    return coeffs


def proj2_quadratic_form(values: np.ndarray) -> np.ndarray:
    """Zero-diagonal matrix A with x^T A x equal to the degree-2 part of the
    function with these vertex values, at every vertex: off-diagonal entries
    are half the pair coefficients, read from naive_fourier."""
    n = values.size.bit_length() - 1
    coeffs = naive_fourier(values)
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dense[i, j] = dense[j, i] = 0.5 * coeffs[(1 << i) | (1 << j)]
    return dense


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def brute_sparse_member(dense: np.ndarray, k: int, tol: float) -> bool:
    """Reference sparse membership: eigensolver on every subset, no screening."""
    n = dense.shape[0]
    for subset in itertools.combinations(range(n), k):
        block = dense[np.ix_(subset, subset)]
        if np.linalg.eigvalsh(block)[0] < -tol:
            return False
    return True


def brute_max_ksparse_lambda1(dense: np.ndarray, k: int) -> float:
    n = dense.shape[0]
    best = -math.inf
    for subset in itertools.combinations(range(n), k):
        block = dense[np.ix_(subset, subset)]
        best = max(best, float(np.linalg.eigvalsh(block)[-1]))
    return best


def nan_identity(n: int = 6) -> np.ndarray:
    """The n-by-n identity with a NaN at (2, 3) and (3, 2)."""
    dense = np.eye(n)
    dense[2, 3] = dense[3, 2] = np.nan
    return dense


def random_symmetric(n: int, rng: np.random.Generator, diag_shift: float = 0.0) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0 + diag_shift * np.eye(n)


def random_psd(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T


def random_sparse_cone_member(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A matrix on the boundary of the sparse relaxation: shift a random
    symmetric matrix so its worst k-subset block becomes exactly PSD.
    """
    g = random_symmetric(n, rng)
    worst = min(
        float(np.linalg.eigvalsh(g[np.ix_(s, s)])[0])
        for s in itertools.combinations(range(n), k)
    )
    return g - worst * np.eye(n) if worst < 0 else g


def _lambda1_rows(dense: np.ndarray, cands) -> np.ndarray:
    idx = np.asarray(cands, dtype=np.intp)
    return np.linalg.eigvalsh(dense[idx[:, :, None], idx[:, None, :]])[:, -1]


def reference_swap_path(dense: np.ndarray, support) -> list[tuple[list[int], float]]:
    """Steepest single-swap ascent from one support, one candidate list per
    step: stop unless the first best swap beats the value by over 1e-12.
    Every support it holds, sorted, with its value, in order."""
    n = dense.shape[0]
    support = sorted(support)
    path = [(support, float(np.linalg.eigvalsh(dense[np.ix_(support, support)])[-1]))]
    while True:
        outside = [j for j in range(n) if j not in support]
        if not outside:
            return path
        cands = [sorted(set(support) - {i} | {j}) for i in support for j in outside]
        vals = _lambda1_rows(dense, cands)
        top = int(vals.argmax())
        if vals[top] <= path[-1][1] + 1e-12:
            return path
        support = cands[top]
        path.append((support, float(vals[top])))


def reference_swap_ascent(dense: np.ndarray, support) -> float:
    """The value reference_swap_path ends on."""
    return reference_swap_path(dense, support)[-1][1]


def reference_swap_ritz_values(dense: np.ndarray, support) -> np.ndarray:
    """The 2-D Rayleigh-Ritz value of every single swap of a support, in the
    order of reference_swap_path's candidates: the largest eigenvalue of
    dense compressed to span{u, e_j}, u the support's top eigenvector with
    the leaving member's entry zeroed and rescaled to unit length; -inf
    where that entry is the whole vector."""
    n = dense.shape[0]
    support = sorted(support)
    vec = np.linalg.eigh(dense[np.ix_(support, support)])[1][:, -1]
    values = []
    for p in range(len(support)):
        u = np.zeros(n)
        u[support] = vec
        u[support[p]] = 0.0
        norm = float(np.linalg.norm(u))
        for j in (j for j in range(n) if j not in support):
            if norm == 0.0:
                values.append(-math.inf)
                continue
            basis = np.zeros((n, 2))
            basis[:, 0], basis[j, 1] = u / norm, 1.0
            values.append(float(np.linalg.eigvalsh(basis.T @ dense @ basis)[-1]))
    return np.array(values)


def reference_greedy_k_sparse(dense: np.ndarray, k: int) -> float:
    """The greedy k-sparse search one ascent at a time: grow from the best
    diagonal entry, then swap ascent from that support and from 20 random
    starts of the fixed greedy stream, re-solving every candidate."""
    from psdbounds._rng import substream
    from psdbounds.cones import _GREEDY_RESTARTS, _GREEDY_STREAM_KEY

    n = dense.shape[0]
    support = [int(np.argmax(np.diag(dense)))]
    while len(support) < k:
        cands = [sorted(support + [j]) for j in range(n) if j not in support]
        support = cands[int(_lambda1_rows(dense, cands).argmax())]
    best = reference_swap_ascent(dense, support)
    rng = substream(_GREEDY_STREAM_KEY)
    for _ in range(_GREEDY_RESTARTS):
        start = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        best = max(best, reference_swap_ascent(dense, start))
    return best


def reference_max_lambda1_subsets(dense: np.ndarray, k: int) -> float:
    """The exhaustive k-sparse search without bounds: every block of every
    32,768-subset lexicographic chunk goes to eigvalsh, and the chunk maxima
    are combined in order."""
    n = dense.shape[0]
    subsets = itertools.combinations(range(n), k)
    best = -math.inf
    while True:
        chunk = list(itertools.islice(subsets, 32768))
        if not chunk:
            return best
        best = max(best, float(_lambda1_rows(dense, chunk).max()))


def reference_largest_block_eigenvalue(blocks: np.ndarray) -> np.ndarray:
    """Per stack of the (T, N, k, k) blocks, the largest lambda_1 over its
    N blocks, every block solved by eigvalsh."""
    return np.linalg.eigvalsh(blocks)[..., -1].max(axis=1)


def reference_sparse_refute(dense: np.ndarray, k: int, tol: float, samples: int, seed: int) -> bool:
    """Randomized refutation without the screen: the same sorted samples from
    the seed's stream, 1,024 per batch, each checked by eigvalsh."""
    from psdbounds._rng import substream

    n = dense.shape[0]
    rng = substream(seed)
    done = 0
    while done < samples:
        take = min(1024, samples - done)
        idx = np.array([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(take)])
        if np.linalg.eigvalsh(dense[idx[:, :, None], idx[:, None, :]])[:, 0].min() < -tol:
            return True
        done += take
    return False


def reference_general_dual(stacked: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Per-trial values of width_general_dual one trial at a time: a new
    generator per trial, the einsum path searched on every trial and one
    eigvalsh call per trial."""
    from psdbounds._rng import substream
    from psdbounds.linalg import gaussian_sym

    n = stacked.shape[1]
    values = np.empty(trials)
    for t in range(trials):
        G = gaussian_sym(n, substream(seed, t)).to_dense()
        compressed = np.einsum("uik,ij,ujl->ukl", stacked, G, stacked, optimize=True)
        values[t] = np.linalg.eigvalsh(compressed)[:, -1].max()
    return values


def reference_maximal_moments(trials: int, seed: int) -> list[tuple[str, int, float, float]]:
    """(family, N, mean, std error) of each sample of the maximal lemma,
    drawn as whole (trials, N) arrays from the (seed, N) substream: the
    Gaussian maxima, then the centered chi-square ones."""
    from psdbounds._rng import substream

    moments = []
    for count in (2, 10, 100):
        rng = substream(seed, count)
        gauss = rng.standard_normal((trials, count)).max(axis=1)
        chi = (rng.standard_normal((trials, count)) ** 2 - 1.0).max(axis=1)
        for name, sample in (("gaussian", gauss), ("chi2", chi)):
            se = float(sample.std(ddof=1) / math.sqrt(trials))
            moments.append((name, count, float(sample.mean()), se))
    return moments


def reference_ldl_positive(A: list[np.ndarray], shift) -> np.ndarray:
    """The LDL screen's kernel with one numpy call per triangle entry and
    pivot: which lanes of the matrices whose upper-triangle rows are A (A[a]
    of shape (k - a, *lanes)) stay positive definite after adding shift to
    the diagonal.  A is overwritten."""
    lanes = A[0].shape[1:]
    ok = np.ones(lanes, dtype=bool)
    inv, w, tmp = np.empty(lanes), np.empty(lanes), np.empty(lanes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row in A:
            row[0] += shift
        for j, pivot in enumerate(A):
            d = pivot[0]
            ok &= d > 0.0
            if j == len(A) - 1:
                break
            np.divide(1.0, d, out=inv)  # a lane with d <= 0 has failed, whatever it computes next
            for i, row in enumerate(A[j + 1 :], 1):  # row a = j + i: M[a, b] -= (M[j, a] / d) M[j, b]
                np.multiply(pivot[i], inv, out=w)
                for src, dst in zip(pivot[i:], row):
                    np.multiply(w, src, out=tmp)
                    np.subtract(dst, tmp, out=dst)
    return ok


def reference_screen_clears(Y: np.ndarray, idx: np.ndarray, c) -> np.ndarray:
    """cones.screen_clears with one np.take per triangle entry and the
    per-entry kernel; only the shift is the library's."""
    from psdbounds.cones import _screen_shift

    n, k = Y.shape[0], idx.shape[1]
    flat = np.ascontiguousarray(Y).ravel()
    A = [np.empty((k - a, idx.shape[0])) for a in range(k)]
    row_off = (idx * n).T
    for a in range(k):
        for b in range(a, k):
            np.take(flat, row_off[a] + idx[:, b], out=A[a][b - a])
    return reference_ldl_positive(A, _screen_shift(float(np.abs(Y).max()), k, c))


def reference_screen_clears_blocks(blocks: np.ndarray, c) -> np.ndarray:
    """cones.screen_clears_blocks on the per-entry kernel; only the shift is
    the library's."""
    from psdbounds.cones import _screen_shift

    k = blocks.shape[-1]
    A = [np.negative(np.moveaxis(blocks[..., a:, a], -1, 0), order="C") for a in range(k)]
    return reference_ldl_positive(A, _screen_shift(float(np.maximum(blocks.max(), -blocks.min())), k, c))


def reference_project_traceless(dense: np.ndarray) -> tuple[np.ndarray, bool]:
    """The traceless projection of one finite matrix whose diagonal sum does
    not overflow, by the per-matrix rule: M - (tr M / n) I unless
    |tr M| <= 1e-13 n ||M||_F.  The trace is the plain sum of a contiguous
    copy of the diagonal, and the norm is np.linalg.norm, taken as
    s * ||M / s||_F with s = max|M| when it overflows.  Returns the result
    and whether the trace was kept."""
    n = dense.shape[0]
    trace = float(dense.diagonal().copy().sum())
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(dense))
    scale = 1.0
    if norm == math.inf:
        scale = float(np.abs(dense).max())
        norm = float(np.linalg.norm(dense / scale))
    out = dense.copy()
    kept = abs(trace) <= 1e-13 * n * scale * norm
    if not kept:
        out[np.diag_indices(n)] -= trace / n
    return out, kept


def reference_wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of one table, level by level
    with copied halves: sum_v f(v) * chi_S(v) for every mask S."""
    out = np.array(values, dtype=np.float64)
    size = out.size
    half = 1
    while half < size:
        out = out.reshape(-1, 2 * half)
        low = out[:, :half].copy()
        high = out[:, half:].copy()
        out[:, :half] = low + high
        out[:, half:] = low - high
        out = out.reshape(size)
        half *= 2
    return out


def _mask_degrees(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


def reference_harmonic_trial(n: int, lam: float, seed: int, t: int) -> float:
    """Degree-2 norm of trial t of `hypercube verify --lemma harmonic`, one
    trial alone on 1-D tables: a new (seed, t) generator, the degree <= 2
    coefficients, clip, scale, rescale, transform, mask, sum."""
    from psdbounds._rng import substream

    degrees = _mask_degrees(n)
    coeffs = np.zeros(1 << n)
    coeffs[degrees <= 2] = substream(seed, t).standard_normal(int((degrees <= 2).sum()))
    values = lam * np.clip(reference_wht(coeffs), 0.0, 1.0)
    mean = values.mean()
    if mean > 1.0:
        values = values / (mean * (1.0 + 1e-12))
    coefficients = reference_wht(values) / (1 << n)
    return float(np.sqrt((coefficients[degrees == 2] ** 2).sum()))


def reference_hypercontractivity_trial(
    n: int, rho: float, p: float, seed: int, t: int
) -> tuple[float, float]:
    """(||T_rho f||_q, ||f||_p) of trial t of `hypercube verify --lemma
    hypercontractivity`, one trial alone on 1-D tables, each root a scalar
    power."""
    from psdbounds._rng import substream

    values = substream(seed, t).standard_normal(1 << n)
    q = 1.0 + (p - 1.0) / (rho * rho)
    noisy = reference_wht(reference_wht(values) / (1 << n) * rho ** _mask_degrees(n))
    lhs = float(np.mean(np.abs(noisy) ** q) ** (1.0 / q))
    rhs = float(np.mean(np.abs(values) ** p) ** (1.0 / p))
    return lhs, rhs
