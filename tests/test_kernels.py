import math

import numpy as np
import pytest
from scipy.special import erfc

from tailagg.kernels import _BLOCK, equicorr_chunk, pair_chunk


def _phibar(z):
    return 0.5 * erfc(z * (1.0 / math.sqrt(2.0)))


def _pair_unblocked(z1, z2, nu1, nu2, s1, s2, rho, xs):
    """`pair_chunk` scored over the whole chunk in one pass per expression."""
    sc = math.sqrt(1.0 - rho * rho)
    w1 = z1
    w2 = rho * z1 + sc * z2
    t1 = np.exp(nu1 + s1 * w1)
    t2 = np.exp(nu2 + s2 * w2)
    out = np.empty((len(xs), 2))
    for j, x in enumerate(xs):
        b = np.maximum(t2, x - t2)
        v = _phibar(((np.log(b) - nu1) / s1 - rho * w2) / sc)
        b = np.maximum(t1, x - t1)
        v += _phibar(((np.log(b) - nu2) / s2 - rho * w1) / sc)
        out[j] = v.sum(), np.dot(v, v)
    return out


def _normals(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n)


def test_python_kernel_values_are_probability_like():
    z1, z2 = _normals(10_000, 1)
    out = pair_chunk(z1, z2, 0.0, 0.0, 1.0, 1.0, 0.3, [20.0])
    assert out.shape == (1, 2)
    tot, totsq = out[0]
    assert 0.0 <= tot / 10_000 <= 1.0
    assert totsq >= 0.0


def test_general_kernel_reduces_to_pair_kernel_at_d2():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((30_000, 2))
    for rho in (-0.6, 0.0, 0.7):
        t_pair, tsq_pair = pair_chunk(
            np.ascontiguousarray(z[:, 0]), np.ascontiguousarray(z[:, 1]), 0.1, -0.2, 1.0, 1.3, rho, [25.0]
        )[0]
        t_gen, tsq_gen = equicorr_chunk(z, np.array([0.1, -0.2]), np.array([1.0, 1.3]), rho, [25.0])[0]
        assert t_gen == pytest.approx(t_pair, rel=1e-10)
        assert tsq_gen == pytest.approx(tsq_pair, rel=1e-10)


def test_pair_kernel_rows_equal_one_threshold_calls():
    z1, z2 = _normals(20_000, 5)
    xs = [3.0, 10.0, 50.0, 2000.0]
    for rho in (-0.9, 0.0, 0.9):
        args = (z1, z2, 0.2, -0.1, 1.0, 1.4, rho)
        rows = pair_chunk(*args, xs)
        assert rows.shape == (len(xs), 2)
        for x, row in zip(xs, rows):
            assert row.tolist() == pair_chunk(*args, [x])[0].tolist()


def test_equicorr_kernel_rows_equal_one_threshold_calls():
    z = np.random.default_rng(6).standard_normal((20_000, 3))
    nu, sig = np.array([0.0, 0.3, -0.2]), np.array([1.0, 0.8, 1.2])
    xs = [5.0, 40.0, 300.0]
    rows = equicorr_chunk(z, nu, sig, 0.25, xs)
    for x, row in zip(xs, rows):
        assert row.tolist() == equicorr_chunk(z, nu, sig, 0.25, [x])[0].tolist()


def _equicorr_by_argsort(z, nu, sig, rho, xs):
    """`equicorr_chunk` with the top two terms of each row found by a full argsort."""
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
        out[j] = v.sum(), np.dot(v, v)
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
            got = equicorr_chunk(z, nu, sig, rho, xs)
            assert got.tolist() == _equicorr_by_argsort(z, nu, sig, rho, xs).tolist()


# block boundaries: empty-tail, one-short, exact, one-over and ragged multi-block chunks
_SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17]
# NaN and extreme thresholds between ordinary ones, so a v carried over from one
# threshold to the next, or a block left unwritten, shows in the next row
_XS = [4.0, float("nan"), 1e-3, 30.0, 1e12, 250.0]


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
def test_pair_kernel_equals_unblocked_reference(n, rho):
    # the normals are strided column views, as the estimator passes them
    z = np.random.default_rng(n).standard_normal((n, 3))
    args = (0.2, -0.1, 1.0, 1.4, rho, _XS)
    got = pair_chunk(z[:, 0], z[:, 2], *args)
    want = _pair_unblocked(np.ascontiguousarray(z[:, 0]), np.ascontiguousarray(z[:, 2]), *args)
    assert np.array_equal(got, want, equal_nan=True)
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
    nu, sig = np.zeros(d), np.ones(d)
    for rho in (-0.9 / (d - 1), 0.0, 0.9):
        got = equicorr_chunk(z, nu, sig, rho, _XS)
        want = _equicorr_by_argsort(np.ascontiguousarray(z), nu, sig, rho, _XS)
        assert np.array_equal(got, want, equal_nan=True)
