import numpy as np
import pytest

from tailagg.kernels import equicorr_chunk, pair_chunk


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

