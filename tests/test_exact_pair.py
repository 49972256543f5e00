"""exact_lognormal_pair against checks that do not share its code."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from tailagg import cond_mc_lognormal, exact_lognormal_pair, exact_lognormal_single


def _trapezoid_pair(rho, a1, a2, x, points=400_001):
    """P(a1 X1 + a2 X2 > x) at mu 0, sigma 1 by brute-force trapezoids over the first normal z.

        P = Phibar(z*) + int_{-40}^{z*} phi(z) Phibar((t(z) - rho z) / s) dz,
        t(z) = log((x - a1 e^z) / a2),  z* = log(x / a1)

    The conditional probability steps from 0 to 1 just left of z*, where the
    grid is refined geometrically.
    """
    z_star = math.log(x / a1)
    z = np.unique(np.concatenate([np.linspace(-40.0, z_star, points), z_star - np.logspace(-14, 0, 20_001)]))
    z = z[z < z_star]
    t = np.log((x - a1 * np.exp(z)) / a2)
    f = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(-(t - rho * z) / math.sqrt(1.0 - rho * rho))
    return float(ndtr(-z_star)) + float(np.trapezoid(f, z))


@pytest.mark.parametrize(
    "rho, a1, a2, x",
    [
        (0.0, 1.0, 1.0, 2000.0),
        (0.9, 1.0, 1.0, 100.0),
        (-0.9, 0.26, 0.16, 20.0),
        (0.99, 0.333, 0.001, 20.0),
        (-0.99, 1.0, 1.0, 10.0),
        (-0.5, 0.2, 0.2, 3.0),
        (0.9999, 0.333, 0.001, 20.0),
        (-0.9999, 1.0, 1.0, 10.0),
    ],
)
def test_matches_brute_force_trapezoids(rho, a1, a2, x):
    want = _trapezoid_pair(rho, a1, a2, x)
    assert float(exact_lognormal_pair(0.0, 1.0, rho, a1, a2, x)) == pytest.approx(want, rel=1e-7)


def test_resolves_a_step_next_to_z_star():
    # the cell and the 8M-point trapezoid reference of the benchmark oracle's own test
    got = float(exact_lognormal_pair(0.0, 1.0, -0.9, 0.48, 0.013333333333333345, 5.0))
    assert got == pytest.approx(0.0095633860368, rel=1e-9)


@pytest.mark.parametrize(
    "rho, a, x",
    [(0.0, (1.0, 1.0), 10.0), (-0.5, (0.2, 0.2), 3.0), (0.5, (1.0, 1.0), 20.0), (0.3, (0.26, 0.16), 5.0)],
)
def test_conditional_mc_mean_within_ten_standard_errors(rho, a, x):
    # cells where the estimator is healthy: its ESS is a large share of n
    n = 10**6
    est = cond_mc_lognormal(0.0, 1.0, rho, list(a), x, n, seed=11)
    assert est.ess > 0.1 * n
    truth = float(exact_lognormal_pair(0.0, 1.0, rho, a[0], a[1], x))
    assert abs(est.estimate - truth) <= 10.0 * est.std_error


def test_vectorised_call_equals_scalar_calls_bit_for_bit():
    a1 = np.array([[0.0], [0.2], [0.26], [1.0]])
    a2 = np.array([[1 / 3], [0.2], [0.16], [0.0]])
    x = np.array([-1.0, 0.0, 1.0, 5.0, 20.0, 2000.0])
    got = exact_lognormal_pair(0.3, 0.8, -0.7, a1, a2, x)
    assert got.shape == (4, 6)
    want = [[exact_lognormal_pair(0.3, 0.8, -0.7, p, q, v) for v in x] for p, q in zip(a1[:, 0], a2[:, 0])]
    assert all(w.shape == () for row in want for w in row)
    assert np.array_equal(got, np.array(want, dtype=float))


def test_one_term_and_certain_cells_are_closed_forms():
    got = exact_lognormal_pair(0.0, 1.0, 0.5, [0.0, 0.5, 0.0, 1.0, 1.0], [2.0, 0.0, 0.0, 1.0, 1.0], [10.0, 10.0, 10.0, 0.0, -3.0])
    want = [exact_lognormal_single(0.0, 1.0, 2.0, 10.0), exact_lognormal_single(0.0, 1.0, 0.5, 10.0), 0.0, 1.0, 1.0]
    assert got.tolist() == want


def test_symmetric_in_the_two_terms():
    p = exact_lognormal_pair(0.0, 1.0, 0.6, [0.3, 0.1], [0.1, 0.3], 4.0)
    assert p[0] == pytest.approx(p[1], rel=1e-13)


@pytest.mark.parametrize(
    "kw",
    [
        {"rho": -1.0},
        {"rho": 1.0},
        {"rho": 1.5},
        {"rho": 0.99995},
        {"rho": -0.99995},
        {"rho": math.nan},
        {"a1": -0.1},
        {"a2": [0.1, -1e-300]},
        {"a1": math.nan},
        {"a2": math.inf},
        {"x": math.nan},
        {"x": [1.0, math.nan]},
        {"sigma": 0.0},
        {"sigma": math.nan},
        {"mu": math.inf},
    ],
)
def test_malformed_input_is_rejected(kw):
    args = {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a1": 0.2, "a2": 0.2, "x": 5.0, **kw}
    with pytest.raises(ValueError):
        exact_lognormal_pair(**args)
