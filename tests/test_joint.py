import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
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
        _, _, u = next(rare_event._block_uniforms((5,), 3, 1000, m.uniform_dim))
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


def _orthant_log_scalar_scan(t1, t2, rho):
    # the orthant routine with its peak scan as a per-point Python loop
    s = math.sqrt(1.0 - rho * rho)
    log_sf1 = float(log_ndtr(-t1))

    def log_integrand(z):
        return float(log_ndtr(-(t2 - rho * z) / s)) + (-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)) - log_sf1

    hi = t1 + 45.0
    zs = np.linspace(t1, hi, 200)
    logs = np.array([log_integrand(z) for z in zs])
    shift = float(np.max(logs))
    if shift == -math.inf:
        return -math.inf
    val, _ = quad(lambda z: math.exp(log_integrand(z) - shift), t1, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    if val <= 0.0:
        return -math.inf
    return shift + math.log(val) + log_sf1


_ORTHANT_SWEEP = [(11.5, 11.5, 0.9), (11.5, 11.5, -0.9)] + [
    (t1, t2, rho)
    for t1 in (-3.0, -0.4, 0.0, 1.7, 6.0, 12.0)
    for t2 in (-2.5, 0.0, 2.2, 8.0, 12.0)
    for rho in (-0.95, -0.5, 0.3, 0.99)
]


def test_orthant_array_scan_equals_scalar_scan():
    # the one-call scan does the scalar loop's IEEE operations in its order
    for t1, t2, rho in _ORTHANT_SWEEP:
        assert bivariate_normal_orthant_log(t1, t2, rho) == _orthant_log_scalar_scan(t1, t2, rho), (t1, t2, rho)


def test_scipy_integrate_loads_on_first_quadrature():
    code = (
        "import sys, tailagg, tailagg.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        "tailagg.bivariate_normal_orthant_log(1.0, 2.0, 0.5)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tailagg.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "True"]


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
