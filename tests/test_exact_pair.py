"""exact_lognormal_pair against checks that do not share its code."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from tailagg import (
    bivariate_lognormal,
    cond_mc_lognormal,
    exact_comonotone_lognormal,
    exact_lognormal_pair,
    exact_lognormal_single,
    plain_mc,
)
from tailagg import bivariate_normal_orthant_log, kernels, rare_event


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
    assert float(exact_lognormal_pair(0.0, 1.0, rho, a1, a2, x)) == pytest.approx(want, rel=1e-7, abs=0)


def test_resolves_a_step_next_to_z_star():
    # the cell and the 8M-point trapezoid reference of the benchmark oracle's own test
    got = float(exact_lognormal_pair(0.0, 1.0, -0.9, 0.48, 0.013333333333333345, 5.0))
    assert got == pytest.approx(0.0095633860368, rel=1e-9, abs=0)


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


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.3, 0.9])
def test_plain_mc_within_ten_standard_errors(rho):
    # every cell has at least 100 hits, so its binomial standard error means something
    n, xs = 10**6, [2.0, 5.0, 10.0, 20.0, 40.0]
    truth = exact_lognormal_pair(0.0, 1.0, rho, 1.0, 1.0, np.array(xs))
    for x, p in zip(xs, truth.tolist()):
        est = plain_mc(bivariate_lognormal(0.0, 1.0, rho), [1.0, 1.0], x, n, seed=11)
        assert est.ess >= 100
        assert abs(est.estimate - p) <= 10.0 * est.std_error


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


@pytest.mark.parametrize(
    "tail",
    [
        lambda x: exact_lognormal_single(0.0, 1.0, 0.0, x),
        lambda x: float(exact_lognormal_pair(0.0, 1.0, 0.3, 0.0, 0.0, x)),
        lambda x: cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 0.0], x, 100, 1).estimate,
    ],
    ids=["single", "pair", "cond_mc"],
)
def test_a_sum_with_no_positive_coefficient_exceeds_only_negative_thresholds(tail):
    # the sum is 0, and P(0 > x) is 0 for every x >= 0
    assert [tail(x) for x in (0.0, 1.0, -1.0)] == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("a", [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], ids=["none", "one", "two"])
def test_a_nan_threshold_gives_nan_whatever_the_coefficients(a):
    # a NaN threshold decides nothing, also where the sum is the constant 0
    assert math.isnan(exact_lognormal_single(0.0, 1.0, a[0], math.nan))
    assert math.isnan(cond_mc_lognormal(0.0, 1.0, 0.3, a, math.nan, 100, 1).estimate)


def test_pair_tends_to_the_countermonotone_closed_form_at_rate_one_minus_rho_squared():
    """The gap to `exact_comonotone_lognormal` vanishes at the rate q = 1 - rho^2 as rho -> -1.

    With Z2 = rho Z1 + s V, s = sqrt(q), the tail is E[K(s V)] for a smooth
    K, and V -> -V cancels the odd orders in s: the tail is
    K(0) + q K''(0) / 2 + O(q^2).  K(0), the tail of exp(Z1) + exp(rho Z1),
    differs from the rho = -1 closed form by O(1 + rho) = O(q).  So the
    relative gap is C q (1 + D q + O(q^2)), and the observed order
    p = log(gap_a / gap_b) / log(q_a / q_b) between two values of rho is
    1 + D (q_a - q_b) / log(q_a / q_b) + O(q_a^2).  Each bound lies halfway
    between this expansion and the nearest failure it guards against:

    * |p - 1| < 1/4, since an odd first-order term (gap ~ s) gives p = 1/2,
      and a quadrature error that does not shrink with q gives p near 0;
    * on the ladder rho = -0.99, -0.999, -0.9999, p - 1 keeps its sign and
      shrinks by the factor `even` (about 0.10) from the first pair to the
      second; were the next term odd (gap ~ q (1 + D s)) the factor would be
      `odd` (about 0.32), so it must lie below their geometric mean.
    """
    xs = [3.0, 10.0, 30.0, 100.0, 1000.0, 2000.0]
    rhos = np.array([-0.99, -0.999, -0.9999])
    q = 1.0 - rhos * rhos
    s = np.sqrt(q)
    closed = np.array([exact_comonotone_lognormal(0.0, x).estimate for x in xs])
    gap = np.array([exact_lognormal_pair(0.0, 1.0, rho, 1.0, 1.0, xs) for rho in rhos]) / closed - 1.0
    shrink = gap[:-1] / gap[1:]
    assert np.all(shrink > 0.0)
    log_q = np.log(q[:-1] / q[1:])
    p = np.log(shrink) / log_q[:, None]
    assert np.all(np.abs(p - 1.0) < 0.25)
    even = (q[1] - q[2]) / log_q[1] / ((q[0] - q[1]) / log_q[0])
    odd = (s[1] - s[2]) / log_q[1] / ((s[0] - s[1]) / log_q[0])
    factor = (p[1] - 1.0) / (p[0] - 1.0)
    assert np.all((factor > 0.0) & (factor < math.sqrt(even * odd)))


def test_symmetric_in_the_two_terms():
    p = exact_lognormal_pair(0.0, 1.0, 0.6, [0.3, 0.1], [0.1, 0.3], 4.0)
    assert p[0] == pytest.approx(p[1], rel=1e-13, abs=0)


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
        # kw10 and kw11 were NaN thresholds, which now give NaN: see the test below
        pytest.param({"sigma": 0.0}, id="kw12"),
        pytest.param({"sigma": math.nan}, id="kw13"),
        pytest.param({"mu": math.inf}, id="kw14"),
        pytest.param({"sigma": math.inf}, id="kw15"),
        pytest.param({"mu": math.nan}, id="kw16"),
    ],
)
def test_malformed_input_is_rejected(kw):
    args = {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a1": 0.2, "a2": 0.2, "x": 5.0, **kw}
    with pytest.raises(ValueError):
        exact_lognormal_pair(**args)


@pytest.mark.parametrize(
    "a1, a2, x",
    [
        (0.2, 0.2, math.nan),
        (0.2, 0.2, [1.0, math.nan]),
        # NaN cells beside pair cells, a zero coefficient and x <= 0
        ([0.2, 0.2, 0.0, 0.3, 0.2, 0.0, 0.1], [0.2, 0.2, 0.4, 0.3, 0.2, 0.0, 0.5],
         [5.0, math.nan, 2.0, 30.0, -1.0, math.nan, 0.7]),
    ],
    ids=["scalar", "array", "mixed"],
)
def test_a_nan_threshold_gives_nan_in_its_cell_only(a1, a2, x):
    # a NaN threshold is a threshold, not a parameter: NaN in its own cell, as in every
    # other route, and the other cells keep the bits of a call without it
    a1, a2, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a1, a2, x)))
    p = exact_lognormal_pair(0.0, 1.0, 0.3, a1, a2, x)
    nan = np.isnan(x)
    assert p.shape == x.shape and np.isnan(p[nan]).all()
    assert np.array_equal(p[~nan], exact_lognormal_pair(0.0, 1.0, 0.3, a1[~nan], a2[~nan], x[~nan]))


# -- the range finder --------------------------------------------------------------

# the audit grid of a table 6 row: 51 allocations on the binding line 2 a1 + 3 a2 = 1
_AUDIT_A1 = np.arange(51) * 0.01
_AUDIT_A2 = np.maximum((1.0 - 2.0 * _AUDIT_A1) / 3.0, 0.0)


def _dense_range(f, points, kinks):
    """(first, last, peak) from log f at every scan point: the reference `kernels.scan_range` must equal."""
    vals = f(np.arange(points))
    peak = vals.max(axis=1)
    keep = vals >= peak[:, None] - kernels._RANGE_NATS
    return np.argmax(keep, axis=1), keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1), peak


def _finder_sweep():
    """The single-cell call, 56 seeded calls of 7 or 51 random cells, and the audit grid: 2,072 cells.

    The random cells take (mu, sigma) on the line from (2, 0.1) to
    (-1, 2.5), a1 and a2 in [1e-4, 1e2] and x in [1e-3, 1e16], all
    log-uniform; the first two calls are at rho = -0.9999 and 0.9999.
    """
    rng = np.random.default_rng(18)
    calls = [(0.0, 1.0, 0.0, 0.3, 0.13, 10.0)]
    for k in range(56):
        rho = (-0.9999, 0.9999)[k] if k < 2 else rng.uniform(-0.9999, 0.9999)
        t = rng.uniform()
        size = 51 if k % 3 else 7
        a1, a2 = 10.0 ** rng.uniform(-4.0, 2.0, (2, size))
        calls.append((2.0 - 3.0 * t, 0.1 + 2.4 * t, rho, a1, a2, 10.0 ** rng.uniform(-3.0, 16.0, size)))
    return calls + [(0.0, 1.0, 0.0, _AUDIT_A1, _AUDIT_A2, 10.0)]


def _spy_on_the_finder(monkeypatch, rows: list):
    """Replace `kernels.scan_range` by a call that asserts it equals `_dense_range`, and append (rows, kinks, rows -inf on the whole scan) per call."""
    finder = kernels.scan_range

    def spy(f, points, kinks):
        got, want = finder(f, points, kinks), _dense_range(f, points, kinks)
        rows.append((len(kinks), kinks.shape[1], int((want[2] == -np.inf).sum())))
        for g, w in zip(got, want):
            assert g.view(np.int64).tolist() == w.view(np.int64).tolist()
        return got

    monkeypatch.setattr(kernels, "scan_range", spy)


def test_range_finder_returns_the_dense_scans_ends_and_bits(monkeypatch):
    calls = _finder_sweep()
    assert sum(np.size(c[3]) for c in calls) >= 2000
    with monkeypatch.context() as m:
        m.setattr(kernels, "scan_range", _dense_range)
        dense = [exact_lognormal_pair(*c) for c in calls]

    rows = []
    _spy_on_the_finder(monkeypatch, rows)
    for c, want in zip(calls, dense):
        got = exact_lognormal_pair(*c)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert rows[0][:2] == (2, 1) and 102 in [n for n, _, _ in rows]  # the single-cell call and 51-cell calls
    assert sum(zero for _, _, zero in rows) > 0  # rows whose integrand is 0 on the whole scan


def _orthant_sweep():
    """40 (t1, t2, rho) calls of 60 random corners each: |rho| <= 0.9999, and t1, t2 in [-60, 60], or within 3 of 0 at every third corner.

    Each call also has a threshold at +inf and one at -inf, which answer in
    closed form, and a corner at (1.8e154, 1.8e154), whose log integrand
    overflows to -inf on the whole scan.
    """
    rng = np.random.default_rng(31)
    calls = []
    for k in range(40):
        rho = float(rng.uniform(-0.9999, 0.9999)) if k > 1 else (-0.9999, 0.9999)[k]
        t = rng.uniform(-60.0, 60.0, (2, 60))
        t[:, ::3] = rng.uniform(-3.0, 3.0, (2, 20))
        t[0, 7], t[1, 11], t[:, 13] = np.inf, -np.inf, 1.8e154
        calls.append((t[0], t[1], rho))
    return calls


def test_range_finder_returns_the_dense_scans_ends_and_bits_on_the_orthant(monkeypatch):
    calls = _orthant_sweep()
    with monkeypatch.context() as m:
        m.setattr(kernels, "scan_range", _dense_range)
        dense = [bivariate_normal_orthant_log(*c) for c in calls]

    rows = []
    _spy_on_the_finder(monkeypatch, rows)
    for c, want in zip(calls, dense):
        got = bivariate_normal_orthant_log(*c)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert sum(n for n, _, _ in rows) >= 2000 and {k for _, k, _ in rows} == {0}
    assert sum(zero for _, _, zero in rows) > 0  # rows whose log integrand is -inf on the whole scan


def test_an_orthant_call_evaluates_at_most_96_scan_points_a_row(monkeypatch):
    finder, counts = kernels.scan_range, []

    def counted(f, points, kinks):
        def g(i):
            out = f(i)
            counts[-1] += out.size
            return out

        counts.append(0)
        return finder(g, points, kinks)

    monkeypatch.setattr(kernels, "scan_range", counted)
    # the 9 corners (log x, log x) of the checks' default grid, x from 10 to 1e5
    t = np.log(np.logspace(1.0, 5.0, 9))
    for rho in (-0.9999, -0.9, 0.3, 0.9999):
        bivariate_normal_orthant_log(t, t, rho)
    # one row per corner, on a 501-point scan, which a dense scan reads whole
    assert len(counts) == 4 and 0 < max(counts) <= 96 * len(t)


def test_an_audit_call_evaluates_at_most_200_scan_points_a_row(monkeypatch):
    integrand, scan_points = rare_event._pair_integrand, [0]

    def counted(w, phi, x, *args):
        out = integrand(w, phi, x, *args)
        scan_points[0] += int(np.isin(np.broadcast_to(w, out.shape), rare_event._SCAN).sum())
        return out

    monkeypatch.setattr(rare_event, "_pair_integrand", counted)
    exact_lognormal_pair(0.0, 1.0, 0.0, _AUDIT_A1, _AUDIT_A2, 10.0)
    # one row per term of each cell with two positive coefficients (a dense scan: 1601 points a row)
    rows = 2 * np.count_nonzero((_AUDIT_A1 > 0.0) & (_AUDIT_A2 > 0.0))
    assert 0 < scan_points[0] <= 200 * rows
