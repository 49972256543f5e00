import math

import numpy as np
import pytest

from tailagg.kernels import _phibar, equicorr_chunk, pair_chunk


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
