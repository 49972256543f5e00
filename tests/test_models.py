import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr

from tailagg import (
    AuxiliaryUnavailable,
    TailModel,
    exponential,
    lognormal,
    log_weibull,
    log_weibull_min,
    model_from_config,
    model_to_config,
    self_neglect_profile,
    std_normal,
    weibull_type,
)

ALL_FAMILIES = [
    lognormal(0.0, 1.0),
    log_weibull(2.0),
    log_weibull_min(2.0),
    weibull_type(0.5),
    exponential(1.0),
    std_normal(),
]


def phibar(z):
    return ndtr(-np.asarray(z, dtype=float))


# ---------------------------------------------------------------- survival


def test_survival_lognormal_at_10():
    # Phibar(log 10) = 1.06511e-2, so the two-term value 2*survival rounds to 0.0213
    s = lognormal(0.0, 1.0).survival(10.0)
    assert s == pytest.approx(float(phibar(math.log(10.0))), rel=1e-12)
    assert s == pytest.approx(1.06511e-2, rel=1e-4)
    assert round(2.0 * s, 4) == 0.0213


def test_survival_is_one_below_support_edge():
    assert lognormal(0.0, 1.0).survival(0.0) == 1.0
    assert lognormal(0.0, 1.0).survival(-3.0) == 1.0
    assert log_weibull(2.0).survival(1.0) == 1.0
    assert log_weibull(2.0).survival(0.2) == 1.0
    assert weibull_type(0.5).survival(0.0) == 1.0
    assert exponential(2.0).survival(-1.0) == 1.0


@pytest.mark.parametrize(
    "model", ALL_FAMILIES + [lognormal(0.0, 1.0).transformed(2.0, 3.0), weibull_type(0.5).transformed(3.0, 0.5)],
    ids=lambda m: f"{m.family}-{m.scale:g}-{m.power:g}",
)
def test_nan_threshold_gives_nan_in_its_own_element_only(model):
    # a NaN threshold is no evidence of a certain event: NaN, not log 1 = 0
    assert math.isnan(model.log_survival(math.nan))
    x = np.array([math.nan, -1.0, 0.5, 3.0, math.inf])
    got = model.log_survival(x)
    assert math.isnan(got[0])
    assert got[1:].tolist() == [model.log_survival(v) for v in x[1:]]
    assert not np.isnan(got[1:]).any()
    assert math.isnan(model.survival(math.nan)) and math.isnan(model.cdf(math.nan))


def test_survival_weibull_type_direct():
    assert weibull_type(0.5).survival(4.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_log_survival_matches_log_of_survival():
    for m in ALL_FAMILIES:
        xs = m.quantile(np.array([0.3, 0.9, 0.999, 1 - 1e-9]))
        ls = m.log_survival(xs)
        s = m.survival(xs)
        mask = s > 1e-300
        assert np.allclose(ls[mask], np.log(s[mask]), rtol=0, atol=1e-12)


def test_log_survival_stays_finite_past_underflow():
    assert weibull_type(0.5).log_survival(1e6) == -1000.0
    assert np.isfinite(lognormal(0.0, 1.0).log_survival(1e40))
    assert lognormal(0.0, 1.0).survival(1e40) == 0.0


def test_survival_nonincreasing_and_in_unit_interval():
    xs = np.logspace(-2, 8, 200)
    for m in ALL_FAMILIES:
        s = m.survival(xs)
        assert np.all(s <= 1.0) and np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 1e-15)


def test_quantile_survival_round_trip_1000():
    rng = np.random.default_rng(1234)
    for m in ALL_FAMILIES:
        p = np.clip(rng.random(1000), 1e-9, 1 - 1e-10)
        x = m.quantile(p)
        assert np.allclose(m.survival(x), 1.0 - p, rtol=1e-9, atol=0)


def test_quantile_rejects_bad_p():
    with pytest.raises(ValueError):
        lognormal().quantile(1.0)
    with pytest.raises(ValueError):
        lognormal().quantile(-0.1)


def test_density_matches_survival_slope():
    # central difference of the survival function as an independent check
    for m in ALL_FAMILIES:
        for p in (0.3, 0.7, 0.95):
            x = float(m.quantile(p))
            h = 1e-6 * max(abs(x), 1.0)
            slope = (m.survival(x - h) - m.survival(x + h)) / (2.0 * h)
            assert m.density(x) == pytest.approx(slope, rel=1e-6)


def test_density_with_scale_and_power_modifiers():
    m = weibull_type(0.5, scale=3.0, power=1.0)
    mp = lognormal(0.2, 0.7, scale=2.0, power=1.5)
    for mm in (m, mp):
        x = float(mm.quantile(0.8))
        h = 1e-6 * x
        slope = (mm.survival(x - h) - mm.survival(x + h)) / (2.0 * h)
        assert mm.density(x) == pytest.approx(slope, rel=1e-6)


# ---------------------------------------------------------------- transforms


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(0.05, 20.0),
    power=st.floats(0.3, 3.0),
    p=st.floats(0.01, 0.995),
)
def test_transform_consistency(scale, power, p):
    base = lognormal(0.1, 0.9)
    t = base.transformed(scale=scale, power=power)
    x = float(base.quantile(p))
    y = scale * x**power
    assert t.survival(y) == pytest.approx(float(base.survival(x)), rel=1e-9)
    assert float(t.quantile(p)) == pytest.approx(y, rel=1e-9)


def test_canonical_forms_agree_with_generic_transform():
    cases = [
        lognormal(0.3, 0.8, scale=2.0, power=1.7),
        exponential(0.5, scale=3.0),
        exponential(2.0, power=2.5),
        weibull_type(0.6, power=2.0),
    ]
    xs = np.array([0.5, 2.0, 10.0, 123.0])
    for m in cases:
        canon = m.canonical()
        assert canon.scale == 1.0 or canon.family == "weibull_type"
        assert np.allclose(canon.log_survival(xs), m.log_survival(xs), rtol=1e-12, atol=1e-12)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TailModel("lognormal", sigma=0.0)
    with pytest.raises(ValueError):
        log_weibull(1.0)
    with pytest.raises(ValueError):
        weibull_type(1.2)
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        TailModel("std_normal", power=2.0)
    with pytest.raises(ValueError):
        TailModel("mystery")


# ---------------------------------------------------------------- auxiliary


def test_auxiliary_closed_forms():
    f = lognormal(0.0, 1.0).auxiliary()
    x = math.e**2
    assert f(x) == pytest.approx(x / 2.0, rel=1e-14)
    assert f.source == "mean_excess" and f.diverges

    g = exponential(1.0).auxiliary()
    assert np.all(g(np.array([1.0, 10.0, 1e5])) == 1.0)
    assert not g.diverges

    w = weibull_type(0.5).auxiliary()
    assert w(100.0) == pytest.approx(20.0, rel=1e-14)

    mn = log_weibull_min(2.0).auxiliary()
    assert mn(math.e**4) == pytest.approx(math.e**4 / (2 * 2 * 4.0), rel=1e-14)

    n = std_normal().auxiliary()
    assert n(4.0) == pytest.approx(0.25, rel=1e-14)


def test_auxiliary_rejects_untabulated_modifiers():
    with pytest.raises(AuxiliaryUnavailable):
        log_weibull(2.0, power=2.0).auxiliary()
    with pytest.raises(AuxiliaryUnavailable):
        exponential(1.0, power=0.5).auxiliary()
    # lognormal modifiers always reduce
    lognormal(0.0, 1.0, scale=5.0, power=2.0).auxiliary()


def test_auxiliary_ratio_to_x_eventually_decreasing():
    xs = np.logspace(1, 6, 6)
    for m in ALL_FAMILIES:
        f = m.auxiliary()
        r = f(xs) / xs
        assert np.all(np.diff(r[2:]) <= 1e-15)
        assert np.all(f(xs[2:]) > 0)


def test_self_neglect_profiles():
    grid = np.logspace(2, 6, 5)
    ones = self_neglect_profile(exponential(1.0).auxiliary(), grid, t=3.0)
    assert np.allclose(ones, 1.0, atol=0)

    ln = self_neglect_profile(lognormal(0.0, 1.0).auxiliary(), grid, t=1.0)
    assert np.allclose(ln, [1.16725, 1.12277, 1.09630, 1.07906, 1.06697], rtol=1e-3)
    assert abs(ln[-1] - 1.0) < 0.15
    assert np.all(np.diff(ln) < 0) and np.all(ln > 1.0)

    wt = self_neglect_profile(weibull_type(0.5).auxiliary(), grid, t=1.0)
    assert abs(wt[-1] - 1.0) < 0.01
    assert np.all(np.diff(wt) < 0)


def test_self_neglect_rejects_bad_grid():
    with pytest.raises(ValueError):
        self_neglect_profile(exponential(1.0).auxiliary(), [10.0, 5.0], t=1.0)


# ---------------------------------------------------------------- limit behavior


def _gumbel_worst_error(m: TailModel, n: float) -> float:
    bn = float(m.quantile(1.0 - 1.0 / n))
    an = float(m.auxiliary()(bn))
    worst = 0.0
    for x in (-1.0, 0.0, 1.0, 2.0):
        val = n * math.exp(float(m.log_survival(bn + an * x)))
        worst = max(worst, abs(val - math.exp(-x)) / math.exp(-x))
    return worst


# worst relative deviation of n*sf(a_n x + b_n) from exp(-x) at n = 1e8,
# x in {-1, 0, 1, 2}; frozen from an independent closed-form evaluation.
GUMBEL_ERR_1E8 = {
    "lognormal": 0.2126,
    "log_weibull": 0.1715,
    "log_weibull_min": 0.1075,
    "weibull_type": 0.1032,
    "exponential": 0.0,
    "std_normal": 0.1147,
}


def test_gumbel_limit_profile_matches_frozen_and_converges():
    for m in ALL_FAMILIES:
        err8 = _gumbel_worst_error(m, 1e8)
        assert err8 == pytest.approx(GUMBEL_ERR_1E8[m.family], abs=3e-3)
        if m.family != "exponential":
            assert _gumbel_worst_error(m, 1e12) < err8


def test_rapid_variation():
    # survival(2x)/survival(x) -> 0; frozen reference values at x = 1e4
    frozen = {
        "lognormal": 1.2373e-3,
        "log_weibull": 1.7626e-6,
        "log_weibull_min": 3.1069e-12,
        "weibull_type": 1.0248e-18,
    }
    for m in ALL_FAMILIES:
        if m.family in frozen:
            r4 = math.exp(m.log_survival(2e4) - m.log_survival(1e4))
            assert r4 == pytest.approx(frozen[m.family], rel=1e-3)
        x = 10.0 if m.family == "std_normal" else 1e5
        r = math.exp(m.log_survival(2 * x) - m.log_survival(x))
        assert r < 1e-3


# ---------------------------------------------------------------- config


def test_config_round_trip():
    cases = [
        lognormal(0.5, 2.0),
        log_weibull(3.0),
        weibull_type(0.25, scale=2.0),
        exponential(0.7),
        std_normal(),
        lognormal(0.0, 1.0, scale=3.0, power=2.0),
    ]
    for m in cases:
        assert model_from_config(model_to_config(m)) == m


def test_config_accepts_lambda_alias_and_rejects_junk():
    m = model_from_config({"family": "exponential", "lambda": 2.0})
    assert m.rate == 2.0
    with pytest.raises(ValueError):
        model_from_config({"family": "lognormal", "mu": 0, "sigma": 1, "bogus": 3})
    with pytest.raises(ValueError):
        model_from_config({"family": "pareto"})


def test_log_ndtr_agreement():
    # the package-wide normal tail is the erfc route; cross-check vs log_ndtr
    z = np.array([1.0, 5.0, 13.0, 30.0])
    m = std_normal()
    assert np.allclose(m.log_survival(z), log_ndtr(-z), rtol=1e-13)
