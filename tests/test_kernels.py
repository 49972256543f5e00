import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from tailagg import kernels, rare_event
from tailagg.kernels import _equicorr_cholesky, equicorr_chunk, gauss_legendre


def _phibar(z):
    return 0.5 * erfc(z * (1.0 / math.sqrt(2.0)))


def _cholesky(d, rho):
    """Cholesky factor of the d x d equicorrelated matrix, in Python floats, as a full matrix.

    Column k is L[k][k] = sqrt((1 - rho)(1 + k rho) / (1 + (k-1) rho)) on the
    diagonal and rho (1 - rho) / ((1 + (k-1) rho) L[k][k]) below it, the
    closed form the kernel uses (checked against mpmath in
    `test_equicorr_cholesky_is_within_2_ulp_of_mpmath`).
    """
    L = [[0.0] * d for _ in range(d)]
    for k in range(d):
        den = 1.0 + (k - 1) * rho
        L[k][k] = math.sqrt((1.0 - rho) * (1.0 + k * rho) / den)
        for i in range(k + 1, d):
            L[i][k] = rho * ((1.0 - rho) / (den * L[k][k]))
    return L


def _unblocked_values(z, nu, sig, rho, xs):
    """`equicorr_chunk`'s values from its formulas, over the whole chunk in one pass per expression.

    The mix is w_i = sum_{k<i} L[i,k] z_k + L[i,i] z_i.  The last term's
    conditional mean is its prefix sum_{k<i} L[i,k] z_k; every other term's is
    rho / (1 + (d-2) rho) times the sum of the other w.  The largest and the
    sum of the other terms fold the other columns in index order.  At d = 2
    these are the expressions of the two-term kernel this one replaced:
    w2 = rho z1 + sqrt((1-rho)(1+rho)) z2, conditional means rho w2 and rho w1.
    """
    n, d = z.shape
    L = _cholesky(d, rho)
    w = [z[:, 0]]
    for i in range(1, d):
        prefix = functools.reduce(np.add, [L[i][k] * z[:, k] for k in range(i)])
        w.append(prefix + L[i][i] * z[:, i])
    c = rho / (1.0 + (d - 2) * rho)
    means = [c * functools.reduce(np.add, w[:i] + w[i + 1 :]) for i in range(d - 1)] + [prefix]
    t = [np.exp(nu[i] + sig[i] * w[i]) for i in range(d)]
    out = np.empty((len(xs), n))
    for j, x in enumerate(xs):
        for i in range(d):
            others = t[:i] + t[i + 1 :]
            b = np.maximum(functools.reduce(np.maximum, others), x - functools.reduce(np.add, others))
            term = _phibar(((np.log(b) - nu[i]) / sig[i] - means[i]) / L[d - 1][d - 1])
            out[j] = term if i == 0 else out[j] + term
    return out


def _unblocked(z, nu, sig, rho, xs):
    """(sum, sum of squares) of `_unblocked_values` at each threshold."""
    return np.array([(v.sum(), np.square(v).sum()) for v in _unblocked_values(z, nu, sig, rho, xs)])


def _moments(z, nu, sig, rho, xs):
    """(sum, sum of squares) of the kernel's values at each threshold, reduced as the estimator reduces a chunk."""
    v = equicorr_chunk(z, nu, sig, rho, xs, np.empty((len(xs), len(z))))
    return np.array([(vj.sum(), np.square(vj, out=vj).sum()) for vj in v])


def test_python_kernel_values_are_probability_like():
    z = np.random.default_rng(1).standard_normal((10_000, 2))
    out = _moments(z, np.zeros(2), np.ones(2), 0.3, [20.0])
    assert out.shape == (1, 2)
    tot, totsq = out[0]
    assert 0.0 <= tot / 10_000 <= 1.0
    assert totsq >= 0.0


def test_pair_kernel_rows_equal_one_threshold_calls():
    z = np.random.default_rng(5).standard_normal((20_000, 2))
    nu, sig = np.array([0.2, -0.1]), np.array([1.0, 1.4])
    xs = [3.0, 10.0, 50.0, 2000.0]
    for rho in (-0.9, 0.0, 0.9):
        rows = _moments(z, nu, sig, rho, xs)
        assert rows.shape == (len(xs), 2)
        for x, row in zip(xs, rows):
            assert row.tolist() == _moments(z, nu, sig, rho, [x])[0].tolist()


def test_equicorr_kernel_rows_equal_one_threshold_calls():
    z = np.random.default_rng(6).standard_normal((20_000, 3))
    nu, sig = np.array([0.0, 0.3, -0.2]), np.array([1.0, 0.8, 1.2])
    xs = [5.0, 40.0, 300.0]
    rows = _moments(z, nu, sig, 0.25, xs)
    for x, row in zip(xs, rows):
        assert row.tolist() == _moments(z, nu, sig, 0.25, [x])[0].tolist()


def _equicorr_by_argsort(z, nu, sig, rho, xs):
    """The previous d >= 3 kernel's arithmetic, with the top two terms found by a full argsort.

    It mixes by a BLAS matmul and takes the sum of the other terms as the row
    sum minus t_i, so it agrees with `equicorr_chunk` up to rounding only.
    """
    n, d = z.shape
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    w = z @ np.linalg.cholesky(corr).T
    t = np.exp(nu + sig * w)
    order = np.argsort(t, axis=1)
    top = order[:, -1]
    t_top = t[np.arange(n), top]
    t_second = t[np.arange(n), order[:, -2]]
    s_all = t.sum(axis=1)
    denom = 1.0 + (d - 2) * rho
    cond_sd = math.sqrt(1.0 - (d - 1) * rho * rho / denom)
    w_sum = w.sum(axis=1)
    out = np.empty((len(xs), 2))
    for j, x in enumerate(xs):
        v = np.zeros(n)
        for i in range(d):
            m_other = np.where(top == i, t_second, t_top)
            b = np.maximum(m_other, x - (s_all - t[:, i]))
            cond_mean = rho * (w_sum - w[:, i]) / denom
            v += _phibar(((np.log(b) - nu[i]) / sig[i] - cond_mean) / cond_sd)
        out[j] = v.sum(), np.square(v, out=v).sum()
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_equicorr_kernel_equals_argsort_reference_with_ties(d):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((5_000, d))
    # at rho = 0 with equal (nu, sig), equal columns of z give exactly tied terms
    z[::3, -1] = z[::3, 0]
    z[::5, 1] = z[::5, 0]
    xs = [2.0, 20.0, 200.0]
    for nu, sig in ((np.zeros(d), np.ones(d)), (rng.normal(size=d) * 0.2, 0.8 + 0.4 * rng.random(d))):
        for rho in (0.0, 0.4):
            got = _moments(z, nu, sig, rho, xs)
            np.testing.assert_allclose(got, _equicorr_by_argsort(z, nu, sig, rho, xs), rtol=1e-12, atol=0)


# one row, the sizes around a chunk (the rows the estimator passes per call), and a ragged multiple
_SIZES = [1, rare_event.CHUNK - 1, rare_event.CHUNK, rare_event.CHUNK + 1, 3 * rare_event.CHUNK + 17]
# NaN and extreme thresholds between ordinary ones, so a value carried over from one
# threshold to the next, or a row left unwritten, shows in the next row
_XS = [4.0, float("nan"), 1e-3, 30.0, 1e12, 250.0]


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
def test_pair_kernel_equals_unblocked_reference(n, rho):
    # the normals are a strided view, with some equal draws
    z = np.random.default_rng(n).standard_normal((n, 3))[:, ::2]
    z[::3, 1] = z[::3, 0]
    before = z.copy()
    nu, sig = np.array([0.2, -0.1]), np.array([1.0, 1.4])
    got = _moments(z, nu, sig, rho, _XS)
    assert np.array_equal(z, before)
    assert np.array_equal(got, _unblocked(np.ascontiguousarray(z), nu, sig, rho, _XS), equal_nan=True)
    assert np.isnan(got[1]).all() and np.isfinite(np.delete(got, 1, axis=0)).all()


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("d", [3, 5])
def test_equicorr_kernel_equals_unblocked_reference(n, d):
    rng = np.random.default_rng(100 * d + n)
    # every other column of a wider draw: non-contiguous rows
    z = rng.standard_normal((n, 2 * d))[:, ::2]
    # equal (nu, sig) and equal columns of z give exactly tied terms
    z[::3, -1] = z[::3, 0]
    z[::5, 1] = z[::5, 0]
    before = z.copy()
    for nu, sig in ((np.zeros(d), np.ones(d)), (rng.normal(size=d) * 0.2, 0.8 + 0.4 * rng.random(d))):
        for rho in (-0.9 / (d - 1), 0.0, 0.9):
            got = _moments(z, nu, sig, rho, _XS)
            assert np.array_equal(z, before)
            assert np.array_equal(got, _unblocked(np.ascontiguousarray(z), nu, sig, rho, _XS), equal_nan=True)


def test_kernel_writes_only_its_column_slice():
    # out may be a column slice of wider scratch: its rows need only be contiguous
    z = np.random.default_rng(3).standard_normal((700, 3))
    nu, sig, xs = np.zeros(3), np.ones(3), [5.0, 50.0]
    buf = np.full((2, 1000), -1.0)
    got = equicorr_chunk(z, nu, sig, 0.2, xs, buf[:, 200:900])
    assert np.shares_memory(got, buf)
    assert (buf[:, :200] == -1.0).all() and (buf[:, 900:] == -1.0).all()
    assert np.array_equal(buf[:, 200:900], equicorr_chunk(z, nu, sig, 0.2, xs, np.empty((2, 700))))


def _bell(z):
    return np.exp(-0.5 * z * z) * (1.5 + np.sin(3.0 * z))


def test_gauss_legendre_scan_shared_or_per_row_gives_the_same_bits():
    scan = np.linspace(-6.0, 6.0, 97)
    first, last = np.array([40, 28, 16]), np.array([56, 68, 80])  # scan points +-1, +-2.5, +-4
    kinks = np.array([[0.3], [-0.5], [9.0]])  # the last is clipped into the range
    shared = gauss_legendre(_bell, scan, first, last, kinks, 8)
    per_row = gauss_legendre(_bell, np.tile(scan, (3, 1)), first, last, kinks, 8)
    assert shared.view(np.int64).tolist() == per_row.view(np.int64).tolist()
    # row 2 ends at +-4, widened by one scan point to +-4.125; the sine part is odd
    assert shared[2] == pytest.approx(1.5 * math.sqrt(2.0 * math.pi) * math.erf(4.125 / math.sqrt(2.0)), rel=1e-12)


def test_gauss_legendre_integrates_each_row_over_its_own_scan():
    base = np.linspace(0.0, 8.0, 81)
    scan = base + np.array([[-4.0], [-1.0], [2.0]])
    first, last = np.array([10, 0, 0]), np.array([70, 40, 10])  # the scan points in [-3, 3]
    kinks = np.array([[0.0, 1.0], [0.5, 2.0], [2.5, 2.6]])
    got = gauss_legendre(_bell, scan, first, last, kinks, 12)
    for r in range(3):
        one = gauss_legendre(_bell, scan[r], first[r : r + 1], last[r : r + 1], kinks[r : r + 1], 12)
        assert got[r : r + 1].view(np.int64).tolist() == one.view(np.int64).tolist()
    # row 2's scan starts at 2: its range is [2, 3.1], not [-3.1, 3.1]
    assert got[0] == pytest.approx(math.sqrt(2.0 * math.pi) * 1.5, rel=1e-2)
    assert got[2] < 0.1 * got[0]


def _ulps(got, want):
    return abs(got - want) / math.ulp(want)


# rho = +-0.9999 at d = 2, and at d = 3 and 5 0.9999 and the same distance from
# the lower bound -1/(d-1): cells where the textbook recurrence, 1 - (sum of
# squares), loses up to 13 bits
CHOLESKY_CELLS = [(2, 0.9999), (2, -0.9999), (3, 0.9999), (3, -0.9999 / 2), (5, 0.9999), (5, -0.9999 / 4), (5, 0.3)]


@pytest.mark.parametrize("d, rho", CHOLESKY_CELLS)
def test_equicorr_cholesky_is_within_2_ulp_of_mpmath(d, rho):
    with mpmath.workdps(50):
        corr = mpmath.matrix([[1 if i == j else mpmath.mpf(rho) for j in range(d)] for i in range(d)])
        L = mpmath.cholesky(corr)
        want_below = [float(L[k + 1, k]) for k in range(d - 1)]
        want_diag = [float(L[k, k]) for k in range(d)]
    below, diag = _equicorr_cholesky(d, rho)
    assert max(_ulps(g, w) for g, w in zip(below, want_below)) <= 2
    assert max(_ulps(g, w) for g, w in zip(diag, want_diag)) <= 2
    assert below[0] == rho and diag[0] == 1.0


@pytest.mark.parametrize("rho", [0.9999, -0.9999, 0.9, -0.3, 1e-8])
def test_estimator_and_exact_pair_score_with_one_s_within_1_ulp_of_mpmath(monkeypatch, rho):
    # both routes score through kernels._score, whose 7th argument is the conditional sd s
    seen = []
    score = kernels._score

    def spy(*args):
        seen.append(args[6])
        score(*args)

    monkeypatch.setattr(kernels, "_score", spy)
    equicorr_chunk(np.zeros((4, 2)), np.zeros(2), np.ones(2), rho, [3.0], np.empty((1, 4)))
    rare_event.exact_lognormal_pair(0.0, 1.0, rho, 1.0, 1.0, 3.0)
    assert len(set(seen)) == 1
    with mpmath.workdps(50):
        want = float(mpmath.sqrt(1 - mpmath.mpf(rho) ** 2))
    assert _ulps(seen[0], want) <= 1
