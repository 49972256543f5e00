import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
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
from tailagg.joint import _KINDS, JointModel
from tailagg.models import log_weibull, norm_log_sf

KINDS = {
    "iid": iid_pair(lognormal(0.0, 1.0)),
    "bivln": bivariate_lognormal(0.0, 1.0, -0.9),
    "como": comonotone_inverse(exponential(1.0)),
    "minc": min_construction(2.0),
    "mixed": mixed_min(lognormal(0.0, 1.0), exponential(1.0)),
}


def test_kinds_cover_every_declared_kind():
    # a kind added to joint._KINDS must join the sampler, NaN and array-vs-scalar tests below
    assert sorted(m.kind for m in KINDS.values()) == sorted(_KINDS)


# ---------------------------------------------------------------- sampling


def test_sampler_determinism_and_streams():
    for m in KINDS.values():
        a = m.sample(1000, seed=5)
        b = m.sample(1000, seed=5)
        assert np.array_equal(a, b)
        c = m.sample(1000, seed=5, stream=1)
        assert not np.array_equal(a, c)
        assert np.all(a > 0)


def reference_rows(model, gen, size):
    # size rows of the joint law from gen, each kind written out from its definition:
    # the bivariate lognormal is exp(mu + sigma W) with W1 = Z0, W2 = rho Z0 + s Z1 for
    # ziggurat normals Z, every other kind an inverse CDF of uniforms clipped into (0, 1)
    if model.kind == "bivariate_lognormal":
        z = gen.standard_normal((size, 2))
        s = math.sqrt((1.0 - model.rho) * (1.0 + model.rho))
        w = np.column_stack([z[:, 0], model.rho * z[:, 0] + s * z[:, 1]])
        return np.exp(model.mu + model.sigma * w)
    width = {"iid_pair": model.dim, "comonotone_inverse": 1, "min_construction": 3, "mixed_min": 3}[model.kind]
    u = np.clip(gen.random((size, width)), 1e-300, 1.0 - 1e-16)
    v = np.clip(1.0 - u[:, 0], 1e-300, 1.0 - 1e-16)  # the countermonotone partner of u[:, 0]
    if model.kind == "iid_pair":
        return model.marginal.quantile(u)
    if model.kind == "comonotone_inverse":
        return np.column_stack([model.marginal.quantile(u[:, 0]), model.marginal.quantile(v)])
    if model.kind == "min_construction":
        c = log_weibull(model.alpha).quantile(u)
        return np.column_stack([np.minimum(c[:, 0], c[:, 1]), np.minimum(c[:, 1], c[:, 2])])
    base, lighter = model.base.quantile, model.lighter.quantile
    return np.column_stack([np.minimum(base(u[:, 0]), lighter(u[:, 1])), np.minimum(base(v), lighter(u[:, 2]))])


def test_sample_is_chunk_stream_of_key_seed():
    from tailagg import rare_event

    for m in KINDS.values():
        want = reference_rows(m, rare_event._stream(5, 3), 1000)
        assert np.array_equal(m.sample(1000, seed=5, stream=3), want)


@pytest.mark.parametrize("seed, stream", [(1.7, 0), (True, 0), (-1, 0), (1, -1), (1, 0.5), (1, 2**32)])
def test_sample_rejects_malformed_keys(seed, stream):
    with pytest.raises(ValueError, match="seed key"):
        KINDS["iid"].sample(10, seed, stream)


def test_comonotone_exponential_is_minus_log_uniforms():
    # X = -log U and Y = -log(1-U): e^{-X} + e^{-Y} = 1 row by row
    m = comonotone_inverse(exponential(1.0))
    s = m.sample(2000, seed=11)
    assert np.allclose(np.exp(-s[:, 0]) + np.exp(-s[:, 1]), 1.0, rtol=0, atol=1e-12)


def test_comonotone_deterministic_relation():
    m = comonotone_inverse(lognormal(0.0, 1.0))
    s = m.sample(2000, seed=3)
    y_expected = m.marginal.quantile(np.clip(m.marginal.survival(s[:, 0]), 0, 1 - 1e-16))
    assert np.allclose(s[:, 1], y_expected, rtol=1e-9, atol=0)


def test_bivln_rho_minus_one_product_is_constant():
    m = bivariate_lognormal(0.7, 1.0, -1.0)
    s = m.sample(1000, seed=9)
    assert np.allclose(s[:, 0] * s[:, 1], math.exp(1.4), rtol=1e-12, atol=0)


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

        def cdf(x, m=m):
            return 1.0 - np.exp(m.marginal_log_survival(x))

        for i in (0, 1):
            stat = kstest(s[:, i], cdf).statistic
            assert stat < crit, (name, i, stat)


# ---------------------------------------------------------------- joint survival


def test_min_construction_joint_survival_factorization():
    m = min_construction(2.0)
    # at x = y = e each of the three components contributes exp(-1)
    assert math.exp(m.joint_log_survival(math.e, math.e)) == pytest.approx(math.exp(-3.0), rel=1e-12, abs=0)
    # marginal is the doubled-exponent log-Weibull
    assert m.marginal_model().survival(math.e) == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0)


def test_comonotone_joint_survival_interval_overlap():
    m = comonotone_inverse(exponential(1.0))
    assert math.exp(m.joint_log_survival(math.log(2.0), math.log(2.0))) == 0.0
    assert math.exp(m.joint_log_survival(math.log(4.0 / 3.0), math.log(4.0 / 3.0))) == pytest.approx(0.5, rel=0, abs=1e-15)


def test_comonotone_overlap_keeps_a_small_cdf_against_a_deep_survival():
    # sf(40) + sf(1e-20) - 1 cancels to 0 in linear space; the overlap is e^-40 - 1e-20
    got = comonotone_inverse(exponential(1.0)).joint_log_survival(40.0, 1e-20)
    assert got == pytest.approx(math.log(math.exp(-40.0) - 1e-20), rel=1e-12, abs=0)


def test_bivln_closed_form_only_at_rho_extreme():
    assert math.exp(bivariate_lognormal(0.0, 1.0, -1.0).joint_log_survival(1.0, 1.0)) >= 0.0


def test_exchangeability_of_symmetric_kinds():
    pts = [(0.5, 2.0), (1.5, 3.0), (2.0, 2.0), (4.0, 1.1)]
    for name in ("iid", "como", "minc", "mixed"):
        m = KINDS[name]
        for x, y in pts:
            assert math.exp(m.joint_log_survival(x, y)) == pytest.approx(math.exp(m.joint_log_survival(y, x)), rel=1e-12, abs=0)


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


@pytest.mark.parametrize("rho", [-0.9, 0.3, 0.9])
def test_both_thresholds_at_infinity_give_minus_inf_for_every_kind(rho):
    # the orthant's scan from t1 = inf read NaN at rho = 0.3 and 0.9, and the joint survival with it
    inf = math.inf
    assert bivariate_normal_orthant_log(inf, inf, rho) == -inf
    for m in [*KINDS.values(), bivariate_lognormal(0.1, 1.2, rho)]:
        if m.dim == 2:
            assert m.joint_log_survival(inf, inf) == -inf, m


@pytest.mark.parametrize("rho", [-0.9999, -0.9, 0.0, 0.3, 0.9999])
def test_orthant_with_a_threshold_at_minus_inf_is_the_other_margin_bit_for_bit(rho):
    # with t2 = -inf the rule integrated: +3.33e-16 at t1 = -45, a probability above 1,
    # and -5.55e-16 at t1 = -8, where log Phibar(-8) = -6.22e-16
    t = np.array([-45.0, -8.0, -1.0, 0.0, 0.5, 3.0, 20.0, 40.0])
    want = _bits(norm_log_sf(t))
    assert _bits(bivariate_normal_orthant_log(t, -math.inf, rho)) == want
    assert _bits(bivariate_normal_orthant_log(-math.inf, t, rho)) == want
    assert _bits([bivariate_normal_orthant_log(v, -math.inf, rho) for v in t.tolist()]) == want
    # log 1, with a plus sign: log Phibar(-inf) is -0.0
    assert _bits([bivariate_normal_orthant_log(-math.inf, -math.inf, rho)]) == _bits([0.0])


def test_orthant_at_rho_zero_is_the_product_of_its_margins():
    t1, t2 = np.meshgrid([-math.inf, -8.0, 0.0, 1.0, 20.0, math.inf], [-45.0, 0.5, 3.0, 40.0])
    assert _bits(bivariate_normal_orthant_log(t1, t2, 0.0)) == _bits(norm_log_sf(t1) + norm_log_sf(t2))


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
        q = np.exp(m.marginal_log_survival(0.0))  # noqa: F841  (support sanity)
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
    assert np.allclose(m.marginal_log_survival(xs), expect, rtol=1e-14, atol=0)
    with pytest.raises(UnsupportedKind):
        m.marginal_model()


# ---------------------------------------------------------------- orthant quadrature


def test_orthant_quadrature_vs_scipy_mvn():
    for rho in (-0.7, 0.3, 0.9):
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        for t1, t2 in ((0.5, 0.5), (1.0, 2.0), (2.0, 1.5)):
            ours = math.exp(bivariate_normal_orthant_log(t1, t2, rho))
            ref = float(mvn.cdf([-t1, -t2]))  # orthant by central symmetry
            assert ours == pytest.approx(ref, rel=1e-8, abs=0)


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
    # value at the breakpoints.  Below both thresholds' zero P is near 1, and an
    # absolute tolerance of 1e-50 would leave nothing of a log like -1e-442, so
    # there it is log1p(-(Phi(t1) + Phi(t2) - P(Z1 > -t1, Z2 > -t2)))
    if t1 <= 0 and t2 <= 0 and t1 + t2 < 0:
        with mpmath.workdps(50):
            below = mpmath.ncdf(t1) + mpmath.ncdf(t2) - mpmath.exp(_orthant_log_50_digits(-t1, -t2, rho))
            return float(mpmath.log1p(-below))
    with mpmath.workdps(50):
        t1, t2, rho = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho * rho)

        def f(z):
            return mpmath.npdf(z) * mpmath.ncdf(-(t2 - rho * z) / s)

        near_t1 = {t1 + d for d in (0, 1e-5, 1e-3, 0.1, 1, 10)}
        step = {t2 / rho + k * s for k in (0, 1, 4, 16, 64, -1, -4, -16, -64)}
        # and around rho max(t2, 0), where the mass of Z1 given Z2 > t2 lies when it is far above t1
        mass = {rho * max(t2, 0) + k for k in (-8, -2, 0, 2, 8)}
        points = sorted(z for z in near_t1 | step | mass if z >= t1)
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
        # mass more than 32 above t1, beyond the scan [t1, t1 + 45] that once held every
        # range: -7.077, -inf, -1809.44 and 1.3e-6 off before the scan moved to the mode
        (-47.0, 1.0, 0.3, "-1.8410216450"),
        (-math.inf, 1.0, 0.3, None),
        (-100.0, 60.0, -0.9, "-1805.0135606806"),
        (-40.0, 1.0, 0.3, None),
        (-60.0, 20.0, 0.9999, None),
        (-math.inf, 20.0, -0.9999, None),
        (-40.0, 3.0, 0.9999, None),
        # both thresholds <= 0, most with P near 1, where the rule's absolute error read
        # +3.33e-16 at (-45, -45, 0.3), a probability above 1, and -1.11e-15 at
        # (-8, -8, 0.9), where log(1 - 2 Phi(-8)) alone is -1.24e-15
        (-45.0, -45.0, 0.3, None),
        (-8.0, -8.0, 0.9, None),
        (-12.0, -3.0, 0.5, None),
        (-3.0, -5.0, -0.5, None),
        (-1.0, -2.0, 0.9999, None),
        (-0.5, -0.5, -0.9, None),
        (0.0, 0.0, -0.9999, None),
        (-2.0, 0.0, 0.3, None),
    ],
)
def test_orthant_equals_a_50_digit_reference(t1, t2, rho, known):
    got, want = bivariate_normal_orthant_log(t1, t2, rho), _orthant_log_50_digits(t1, t2, rho)
    if known is not None:
        assert abs(want - float(known)) <= 0.5 * 10.0 ** -len(known.split(".")[1]), want
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


@pytest.mark.parametrize(
    "t1, t2, rho", [(0.0, 0.0, -0.9999), (-0.1, -0.1, -0.99), (0.0, 0.0, -0.99), (-0.3, -0.3, -0.9), (-0.2, -0.3, -0.99)]
)
def test_a_small_orthant_below_both_zeros_keeps_its_relative_accuracy(t1, t2, rho):
    # both thresholds <= 0 but P far from 1 (0.00225 at (0, 0, -0.9999)): the complement
    # 1 - Phi(t1) - Phi(t2) + P(opposite) would cancel to ulp(1) / P, 5e-14 of P there,
    # so these stay with the rule, whose error is relative to P: the log's absolute error
    got, want = bivariate_normal_orthant_log(t1, t2, rho), _orthant_log_50_digits(t1, t2, rho)
    assert abs(got - want) <= 2e-15, (got, want)


@pytest.mark.parametrize(
    "t1, t2, rho, bits",
    [
        (5.0, 3.0, -0.9, "-0x1.51d779f24cf83p+7"),
        (1.0, 1.0, -0.9999, "-0x1.3900002d30699p+13"),
        (-1.0, 8.0, 0.9, "-0x1.181b84f11312cp+5"),
        (-30.0, 1.0, 0.3, "-0x1.d74d31cc8afc0p+0"),
        (-12.0, -3.0, 0.5, "-0x1.621b527ca0143p-10"),
        (2.0, 2.0, 0.9999, "-0x1.e5f914f69b68cp+1"),
    ],
)
def test_orthant_whose_range_fits_the_first_scan_keeps_its_bits(t1, t2, rho, bits):
    # the values of the scan over [t1, t1 + 45], which holds every range here.  Two
    # moved when the orthant took over the joint survival's cap and its corners below
    # zero: (-1, 8, 0.9) was -0x1.181b84f11312bp+5, one ulp above its margin log
    # Phibar(8), and is that margin; (-12, -3, 0.5) was -0x1.621b527c9fe00p-10, by
    # the rule, and is 3 ulps from the 50-digit -0x1.621b527ca0146p-10, by complement
    assert bivariate_normal_orthant_log(t1, t2, rho) == float.fromhex(bits)


_HUGE = (1e154, -1e154, 1.5e154, 1e300, -1e300)


@pytest.mark.parametrize("rho", [-0.9999, -0.9, 0.3, 0.9999])
def test_orthant_at_huge_thresholds_never_warns_and_stays_below_its_margins(rho):
    # (1e300, 1, 0.3) warned of an overflow in z * z, and (1e154, 1, 0.3) raised a math
    # domain error: every scan point rounded to t1, so the rule's range had no width
    t1, t2 = (c.ravel() for c in np.meshgrid([*_HUGE, -2.0, 0.0, 1.0], [*_HUGE, -2.0, 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bivariate_normal_orthant_log(t1, t2, rho)
        assert _bits(got) == _bits([bivariate_normal_orthant_log(a, b, rho) for a, b in zip(t1.tolist(), t2.tolist())])
    cap = np.minimum(norm_log_sf(t1), norm_log_sf(t2))
    assert not np.isnan(got).any() and (got <= cap).all()
    # a margin whose log is -inf (beyond about 1.9e154) makes the orthant -inf, and far
    # below both means it is log 1
    assert (got[cap == -np.inf] == -np.inf).all()
    assert (got[(t1 == -1e300) & (t2 == -1e300)] == 0.0).all()
    # Z1 > 1e154 and Z2 > 1 at rho > 0: Z2 given Z1 is about rho 1e154, so Z2 > 1 holds
    if rho > 0:
        assert bivariate_normal_orthant_log(1e154, 1.0, rho) == pytest.approx(float(norm_log_sf(1e154)), rel=1e-15, abs=0)


def test_the_mode_of_z1_given_z2_above_t2_lies_within_0_55_of_rho_max_t2_0():
    # the orthant's one scan, from max(t1, m - 22.5) with m = rho max(t2, 0), holds every
    # point within 80 nats of the peak because this bound holds: the mode of
    # phi(z) Phibar((t2 - rho z)/s), at the root of its log's slope
    # (rho/s) phi(a)/Phi(a) - z, a = (rho z - t2)/s, found by bisection
    rho = np.concatenate([np.linspace(-0.9999, 0.9999, 201), [-0.84, 0.84]])[:, None]
    rho, t2 = np.broadcast_arrays(rho, np.linspace(-40.0, 40.0, 321)[None, :])
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    m = rho * np.maximum(t2, 0.0)

    def slope(z):
        a = (rho * z - t2) / s
        return rho / s * np.exp(-0.5 * a * a - 0.5 * math.log(2.0 * math.pi) - log_ndtr(a)) - z

    lo, hi = m - 5.0, m + 5.0
    assert (slope(lo) > 0.0).all() and (slope(hi) < 0.0).all()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    gap = np.abs(0.5 * (lo + hi) - m)
    # the largest gap is 0.5427, at rho = +-0.84 and t2 = 0
    assert 0.54 < gap.max() <= 0.55


def test_asy_indep_far_below_the_location_is_one():
    # t = (log x - 10) / 0.2 = -50 and -38.5: the orthant's mass lay beyond its scan, and
    # the check reported 2.87e-7 and 1 - 3.7e-11
    rep = check_asy_indep(bivariate_lognormal(10.0, 0.2, 0.3), [1.0, 10.0])
    assert rep.values == pytest.approx([1.0, 1.0], rel=1e-14, abs=0.0)
    assert max(rep.values) <= 1.0  # it read 1 + 4.4e-16: the orthant above its margin


@pytest.mark.parametrize("mu, sigma, rho", [(10.0, 0.2, 0.3), (0.0, 1.0, 0.9), (0.0, 1.0, -0.5), (5.0, 0.5, 0.9999)])
def test_joint_survival_never_exceeds_a_margin(mu, sigma, rho):
    # corners far below the location put the orthant near 1, where the rule's absolute
    # error lifted it above its margins: P = 1 + 3.3e-16 at x = y = 1 on (10, 0.2, 0.3)
    m = bivariate_lognormal(mu, sigma, rho)
    x = np.array([1e-3, 1.0, 10.0, math.exp(mu), math.exp(mu + 3.0 * sigma), 1e3, 1e5])
    u, v = (c.ravel() for c in np.meshgrid(x, x))
    got = m.joint_log_survival(u, v)
    lsf = [norm_log_sf(np.array([(math.log(c) - mu) / sigma for c in w])) for w in (u, v)]
    assert (got <= lsf[0]).all() and (got <= lsf[1]).all()


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
    ratio = math.exp(m.joint_log_survival(x, x) - m.marginal_model().log_survival(x))
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
