import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.stats import kstest, multivariate_normal

import tailagg

from tailagg import (
    UnsupportedKind,
    bivariate_lognormal,
    bivariate_normal_orthant_log,
    check_asy_indep,
    comonotone_inverse,
    exponential,
    iid_pair,
    joint_from_config,
    joint_to_config,
    lognormal,
    min_construction,
    mixed_min,
)
from tailagg.joint import JointModel

KINDS = {
    "iid": iid_pair(lognormal(0.0, 1.0)),
    "bivln": bivariate_lognormal(0.0, 1.0, -0.9),
    "como": comonotone_inverse(exponential(1.0)),
    "minc": min_construction(2.0),
    "mixed": mixed_min(lognormal(0.0, 1.0), exponential(1.0)),
}


# ---------------------------------------------------------------- sampling


def test_sampler_determinism_and_streams():
    for m in KINDS.values():
        a = m.sample(1000, seed=5)
        b = m.sample(1000, seed=5)
        assert np.array_equal(a, b)
        c = m.sample(1000, seed=5, stream=1)
        assert not np.array_equal(a, c)
        assert np.all(a > 0)


def test_sample_is_chunk_stream_of_key_seed():
    from tailagg import rare_event

    for m in KINDS.values():
        _, _, u = next(rare_event._block_draws((5,), 3, 1000, m.uniform_dim, rare_event._uniforms))
        assert np.array_equal(m.sample(1000, seed=5, stream=3), m.rows(u))


@pytest.mark.parametrize("seed, stream", [(1.7, 0), (True, 0), (-1, 0), (1, -1), (1, 0.5), (1, 2**32)])
def test_sample_rejects_malformed_keys(seed, stream):
    with pytest.raises(ValueError, match="seed key"):
        KINDS["iid"].sample(10, seed, stream)


def test_comonotone_exponential_is_minus_log_uniforms():
    # X = -log U and Y = -log(1-U): e^{-X} + e^{-Y} = 1 row by row
    m = comonotone_inverse(exponential(1.0))
    s = m.sample(2000, seed=11)
    assert np.allclose(np.exp(-s[:, 0]) + np.exp(-s[:, 1]), 1.0, atol=1e-12)


def test_comonotone_deterministic_relation():
    m = comonotone_inverse(lognormal(0.0, 1.0))
    s = m.sample(2000, seed=3)
    y_expected = m.marginal.quantile(np.clip(m.marginal.survival(s[:, 0]), 0, 1 - 1e-16))
    assert np.allclose(s[:, 1], y_expected, rtol=1e-9)


def test_bivln_rho_minus_one_product_is_constant():
    m = bivariate_lognormal(0.7, 1.0, -1.0)
    s = m.sample(1000, seed=9)
    assert np.allclose(s[:, 0] * s[:, 1], math.exp(1.4), rtol=1e-12)


def test_bivln_log_correlation_matches_rho():
    for rho in (-0.9, 0.0, 0.9):
        m = bivariate_lognormal(0.0, 1.0, rho)
        s = np.log(m.sample(10**5, seed=21))
        r = np.corrcoef(s[:, 0], s[:, 1])[0, 1]
        assert abs(r - rho) < 0.01


def test_iid_pair_log_correlation_near_zero():
    s = np.log(iid_pair(lognormal(0.0, 1.0)).sample(10**5, seed=2))
    assert abs(np.corrcoef(s[:, 0], s[:, 1])[0, 1]) < 0.01


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        bivariate_lognormal(0.0, 1.0, -1.5)
    with pytest.raises(ValueError):
        bivariate_lognormal(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        JointModel("iid_pair", marginal=lognormal(), dim=1)
    with pytest.raises(ValueError):
        JointModel("min_construction", alpha=0.8)
    with pytest.raises(ValueError):
        KINDS["iid"].sample(0, seed=1)


def test_marginals_match_empirically_ks():
    # KS distance of 1e5 samples below the 1% critical value 1.628/sqrt(n)
    crit = 1.628 / math.sqrt(10**5)
    for name, m in KINDS.items():
        s = m.sample(10**5, seed=31)
        for i in (0, 1):
            def cdf(x, _i=i):
                return 1.0 - np.exp(m.marginal_log_survival(_i, x))

            stat = kstest(s[:, i], cdf).statistic
            assert stat < crit, (name, i, stat)


# ---------------------------------------------------------------- joint survival


def test_min_construction_joint_survival_factorization():
    m = min_construction(2.0)
    # at x = y = e each of the three components contributes exp(-1)
    assert math.exp(m.joint_log_survival(math.e, math.e)) == pytest.approx(math.exp(-3.0), rel=1e-12)
    # marginal is the doubled-exponent log-Weibull
    assert m.marginal_model(0).survival(math.e) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_comonotone_joint_survival_interval_overlap():
    m = comonotone_inverse(exponential(1.0))
    assert math.exp(m.joint_log_survival(math.log(2.0), math.log(2.0))) == 0.0
    assert math.exp(m.joint_log_survival(math.log(4.0 / 3.0), math.log(4.0 / 3.0))) == pytest.approx(0.5, abs=1e-15)


def test_comonotone_overlap_keeps_a_small_cdf_against_a_deep_survival():
    # sf(40) + sf(1e-20) - 1 cancels to 0 in linear space; the overlap is e^-40 - 1e-20
    got = comonotone_inverse(exponential(1.0)).joint_log_survival(40.0, 1e-20)
    assert got == pytest.approx(math.log(math.exp(-40.0) - 1e-20), rel=1e-12)


def test_bivln_closed_form_only_at_rho_extreme():
    assert math.exp(bivariate_lognormal(0.0, 1.0, -1.0).joint_log_survival(1.0, 1.0)) >= 0.0


def test_exchangeability_of_symmetric_kinds():
    pts = [(0.5, 2.0), (1.5, 3.0), (2.0, 2.0), (4.0, 1.1)]
    for name in ("iid", "como", "minc", "mixed"):
        m = KINDS[name]
        for x, y in pts:
            assert math.exp(m.joint_log_survival(x, y)) == pytest.approx(math.exp(m.joint_log_survival(y, x)), rel=1e-12)


# every kind, and each branch of the bivariate lognormal: countermonotone, product, orthant
SURVIVAL_KINDS = {
    **KINDS,
    "bivln_m1": bivariate_lognormal(0.1, 1.2, -1.0),
    "bivln_0": bivariate_lognormal(0.1, 1.2, 0.0),
    "bivln_p5": bivariate_lognormal(0.1, 1.2, 0.5),
}


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("name", SURVIVAL_KINDS)
def test_nan_threshold_gives_nan_for_every_kind(name):
    # a NaN corner must not read as one margin, e.g. log sf(2) = -1.41 for iid lognormal(0, 1) at (nan, 2)
    m, nan = SURVIVAL_KINDS[name], math.nan
    for x, y in ((nan, 2.0), (2.0, nan), (nan, nan), (nan, -1.0), (math.inf, nan)):
        assert math.isnan(m.joint_log_survival(x, y)), (x, y)


@pytest.mark.parametrize("name", SURVIVAL_KINDS)
def test_joint_log_survival_array_call_equals_its_scalar_calls(name):
    # corners inside, on one margin (a threshold <= 0), trivial, beyond the support, and NaN
    m, nan = SURVIVAL_KINDS[name], math.nan
    x = np.array([0.5, 2.0, 30.0, -1.0, 0.0, 2.0, math.inf, nan, 3.0, 1.5])
    y = np.array([0.7, 2.0, 1.1, 3.0, -2.0, 0.0, 2.0, 2.0, nan, 8.0])
    got = m.joint_log_survival(x, y)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert _bits(got) == _bits([m.joint_log_survival(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert np.isnan(got).tolist() == [False] * 7 + [True, True, False]
    # x and y broadcast against each other
    grid = m.joint_log_survival(x[:3, None], y[None, :2])
    assert grid.shape == (3, 2)
    assert _bits(grid) == _bits([[m.joint_log_survival(a, b) for b in y[:2].tolist()] for a in x[:3].tolist()])
    assert isinstance(m.joint_log_survival(np.float64(2.0), 3.0), float)


def test_sampler_agrees_with_closed_form_joint_survival():
    n = 10**6
    for name, m in KINDS.items():
        if name == "bivln":
            continue  # no closed form inside (-1, 1); quadrature is checked separately
        s = m.sample(n, seed=41)
        q = np.exp(m.marginal_log_survival(0, 0.0))  # noqa: F841  (support sanity)
        marg = m.sample(1, seed=0)  # noqa: F841
        probe = [
            (np.quantile(s[:, 0], 0.5), np.quantile(s[:, 1], 0.5)),
            (np.quantile(s[:, 0], 0.8), np.quantile(s[:, 1], 0.2)),
            (np.quantile(s[:, 0], 0.9), np.quantile(s[:, 1], 0.9)),
            (np.quantile(s[:, 0], 0.2), np.quantile(s[:, 1], 0.7)),
            (np.quantile(s[:, 0], 0.99), np.quantile(s[:, 1], 0.5)),
        ]
        for x, y in probe:
            p = math.exp(m.joint_log_survival(float(x), float(y)))
            emp = float(np.mean((s[:, 0] > x) & (s[:, 1] > y)))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 3.0 * se + 1e-9, (name, x, y, emp, p)


def test_mixed_min_marginal_is_product_survival():
    m = KINDS["mixed"]
    xs = np.array([0.5, 1.0, 3.0])
    expect = m.base.log_survival(xs) + m.lighter.log_survival(xs)
    assert np.allclose(m.marginal_log_survival(0, xs), expect, rtol=1e-14)
    with pytest.raises(UnsupportedKind):
        m.marginal_model(0)


# ---------------------------------------------------------------- orthant quadrature


def test_orthant_quadrature_vs_scipy_mvn():
    for rho in (-0.7, 0.3, 0.9):
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        for t1, t2 in ((0.5, 0.5), (1.0, 2.0), (2.0, 1.5)):
            ours = math.exp(bivariate_normal_orthant_log(t1, t2, rho))
            ref = float(mvn.cdf([-t1, -t2]))  # orthant by central symmetry
            assert ours == pytest.approx(ref, rel=1e-8)


def test_orthant_quadrature_deep_tail_no_underflow():
    lv = bivariate_normal_orthant_log(11.5, 11.5, -0.9)
    assert -600 > lv > -5000
    lv9 = bivariate_normal_orthant_log(11.5, 11.5, 0.9)
    assert math.isfinite(lv9) and lv9 > lv


def _orthant_log_50_digits(t1, t2, rho):
    # log P(Z1 > t1, Z2 > t2): the integral over z > t1 of phi(z) Phibar((t2 - rho z)/s),
    # s = sqrt(1 - rho^2), at 50 digits.  The breakpoints sit near t1, where the mass
    # lies when the step is below t1, and across the step at z = t2/rho, of width s.
    # mpmath's tolerance is absolute, so the integrand is divided by its largest
    # value at the breakpoints.
    with mpmath.workdps(50):
        t1, t2, rho = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho * rho)

        def f(z):
            return mpmath.npdf(z) * mpmath.ncdf(-(t2 - rho * z) / s)

        near_t1 = {t1 + d for d in (0, 1e-5, 1e-3, 0.1, 1, 10)}
        step = {t2 / rho + k * s for k in (0, 1, 4, 16, 64, -1, -4, -16, -64)}
        points = sorted(z for z in near_t1 | step if z >= t1)
        scale = max(f(z) for z in points)
        return float(mpmath.log(mpmath.quad(lambda z: f(z) / scale, points + [mpmath.inf]) * scale))


_LOG_1E4, _LOG_1E3_5 = math.log(1e4), 3.5 * math.log(10.0)


@pytest.mark.parametrize(
    "t1, t2, rho, known",
    # every cell at rho <= -0.99 was off by tens of nats, or -inf, through the
    # adaptive quadrature this rule replaced; at (20, 20, -0.9999) the mass lies
    # within 1e-3 of t1; `known` pins the reference itself to the digits given
    [
        (1.0, 1.0, -0.9999, "-10016.00009"),
        (0.0, 1.0, -0.9999, None),
        (20.0, 20.0, -0.9999, None),
        (_LOG_1E3_5, _LOG_1E3_5, -0.999, "-64964.971"),
        (20.0, 20.0, -0.999, None),
        (_LOG_1E4, _LOG_1E4, -0.99, "-8496.5675071"),
        (_LOG_1E3_5, 5.0, -0.99, None),
        (5.0, 3.0, -0.9, None),
        (5.0, 3.0, 0.3, None),
        (-1.0, 8.0, 0.9, None),
        (5.0, 3.0, 0.999, None),
        (1.0, 1.0, 0.9999, None),
    ],
)
def test_orthant_equals_a_50_digit_reference(t1, t2, rho, known):
    got, want = bivariate_normal_orthant_log(t1, t2, rho), _orthant_log_50_digits(t1, t2, rho)
    if known is not None:
        assert abs(want - float(known)) <= 0.5 * 10.0 ** -len(known.split(".")[1]), want
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_asy_indep_value_at_strong_negative_correlation_equals_a_50_digit_reference():
    # P(Y > x | X > x) at rho = -0.999 is e^-490.86 at x = 2 and e^-668.17 at 2.25:
    # above double underflow, so the check prints them; the adaptive quadrature
    # this rule replaced printed e^-520.84 and e^-703.74
    grid = [2.0, 2.25]
    rep = check_asy_indep(bivariate_lognormal(0.0, 1.0, -0.999), grid)
    for x, got in zip(grid, rep.values):
        t = math.log(x)
        with mpmath.workdps(50):
            log_marginal = float(mpmath.log(mpmath.ncdf(-t)))
        assert got == pytest.approx(math.exp(_orthant_log_50_digits(t, t, -0.999) - log_marginal), rel=1e-10, abs=0.0), x


def test_orthant_keeps_a_nan_threshold_nan():
    nan = math.nan
    assert math.isnan(bivariate_normal_orthant_log(nan, 1.0, 0.5))
    assert math.isnan(bivariate_normal_orthant_log(1.0, nan, -0.5))
    m = bivariate_lognormal(0.0, 1.0, 0.5)
    assert math.isnan(m.joint_log_survival(nan, 2.0)) and math.isnan(m.joint_log_survival(2.0, nan))


@pytest.mark.parametrize("rho", [-0.9999, -0.999, -0.99, -0.9, 0.0, 0.3, 0.9, 0.999, 0.9999])
def test_orthant_array_call_equals_its_scalar_calls_bit_for_bit(rho):
    # the rho of test_orthant_equals_a_50_digit_reference and 0, over a grid of its cells' thresholds
    t = np.array([-1.0, 0.0, 1.0, 3.0, _LOG_1E4, 20.0])
    t1, t2 = np.meshgrid(t, t[::-1])
    got = bivariate_normal_orthant_log(t1, t2, rho)
    assert got.shape == t1.shape
    assert _bits(got) == _bits([[bivariate_normal_orthant_log(a, b, rho) for a, b in zip(r1, r2)]
                                for r1, r2 in zip(t1.tolist(), t2.tolist())])
    assert isinstance(bivariate_normal_orthant_log(1.0, 2.0, rho), float)


@pytest.mark.parametrize("rho", [-0.9, 0.5])
def test_orthant_batch_keeps_finite_minus_inf_and_nan_rows_apart(rho):
    # t = inf makes the integrand 0 on the whole scan (-inf), NaN makes it NaN
    inf, nan = math.inf, math.nan
    t1 = np.array([1.0, inf, 0.5, nan, 2.0, 1.0, -0.5])
    t2 = np.array([2.0, 1.0, inf, 1.0, nan, nan, 3.0])
    got = bivariate_normal_orthant_log(t1, t2, rho)
    assert _bits(got) == _bits([bivariate_normal_orthant_log(a, b, rho) for a, b in zip(t1.tolist(), t2.tolist())])
    assert np.isfinite(got).tolist() == [True, False, False, False, False, False, True]
    assert got[1] == got[2] == -inf and np.isnan(got[3:6]).all()


@pytest.mark.parametrize("rho", [0.99995, -0.99995, 1.0 - 1e-12, math.nan])
def test_orthant_rejects_rho_the_rule_cannot_resolve(rho):
    # the pieces narrow with sqrt(1 - rho^2): about 1e6 of them at 1 - 1e-12
    msg = r"resolves \|rho\| <= 0\.9999"
    with pytest.raises(ValueError, match=msg):
        bivariate_normal_orthant_log(1.0, 1.0, rho)
    with pytest.raises(ValueError, match=msg):
        tailagg.exact_lognormal_pair(0.0, 1.0, rho, 1.0, 1.0, 10.0)
    if not math.isnan(rho):
        with pytest.raises(ValueError, match=msg):
            bivariate_lognormal(0.0, 1.0, rho).joint_log_survival(2.0, 3.0)


def test_scipy_integrate_is_never_loaded():
    # both exact quadratures are numpy Gauss-Legendre; scipy.integrate costs about 0.4 s and 25 MB
    code = (
        "import sys, tailagg, tailagg.cli\n"
        "tailagg.bivariate_normal_orthant_log(1.0, 2.0, 0.5)\n"
        "tailagg.exact_lognormal_pair(0.0, 1.0, 0.5, 1.0, 1.0, 10.0)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tailagg.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_asy_indep_ratio_decreasing_for_all_rho():
    grid = np.logspace(1, 5, 9)
    for rho in (-0.9, 0.0, 0.9):
        rep = check_asy_indep(bivariate_lognormal(0.0, 1.0, rho), grid)
        vals = np.array(rep.values)
        # strictly decreasing until the ratio underflows linear space (rho < 0)
        pos = vals > 0
        assert np.all(np.diff(vals[pos]) < 0), rho
        assert np.all(np.diff(vals) <= 0), rho
        assert vals[-1] < 0.05


def test_asy_indep_ratio_vs_monte_carlo():
    m = bivariate_lognormal(0.0, 1.0, 0.9)
    x = 3.0
    ratio = math.exp(m.joint_log_survival(x, x) - m.marginal_model(0).log_survival(x))
    s = m.sample(10**6, seed=17)
    hits = s[:, 0] > x
    emp = float(np.mean(s[hits, 1] > x))
    se = math.sqrt(emp * (1 - emp) / hits.sum())
    assert abs(emp - ratio) <= 3.0 * se


# ---------------------------------------------------------------- config


def test_joint_config_round_trip():
    for m in KINDS.values():
        assert joint_from_config(joint_to_config(m)) == m


def test_joint_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        joint_from_config({"kind": "gaussian_copula"})
    with pytest.raises(ValueError):
        joint_from_config({"rho": 0.5})
