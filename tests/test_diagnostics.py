import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import log_ndtr

from tailagg import rare_event
from tailagg import (
    AuxiliaryNotDiverging,
    bivariate_lognormal,
    bivariate_normal_orthant_log,
    check_asy_indep,
    check_conditional,
    check_joint_aux,
    check_mda_gumbel,
    check_subexp_criterion,
    check_tail_ratio,
    classify_trend,
    comonotone_inverse,
    default_grid,
    exponential,
    iid_pair,
    lognormal,
    log_weibull,
    min_construction,
    mixed_min,
    weibull_type,
)
from tailagg.diagnostics import (
    CONVERGING_TO_CONSTANT,
    DECREASING_TO_ZERO,
    DIVERGING,
    INCONCLUSIVE,
    _first_marginal,
    _safe_exp,
    _sampled_hits,
)
from test_joint import reference_rows

LN = lognormal(0.0, 1.0)


# ---------------------------------------------------------------- classifier


def test_classifier_rules():
    assert classify_trend([1.0, 0.5, 0.2, 0.05, 0.01]).kind == DECREASING_TO_ZERO
    assert classify_trend([0.2, 0.5, 1.0, 5.0, 30.0]).kind == DIVERGING
    t = classify_trend([0.9, 0.8, 0.75, 0.748, 0.75])
    assert t.kind == CONVERGING_TO_CONSTANT and t.limit == pytest.approx(0.75)
    zero = classify_trend([0.0, 0.0, 0.0, 0.0])
    assert zero.kind == CONVERGING_TO_CONSTANT and zero.limit == 0.0
    assert classify_trend([1.0, 0.5, 0.9, 0.3, 0.8]).kind == INCONCLUSIVE
    assert classify_trend([1.0, 0.5, 0.2, math.nan, 0.01]).kind == INCONCLUSIVE
    assert classify_trend([1.0, 10.0, 1e300, math.inf, math.inf]).kind == DIVERGING
    # decreasing but plateauing above a tenth of the start is not "to zero"
    assert classify_trend([1.0, 0.6, 0.45, 0.40, 0.38]).kind == INCONCLUSIVE


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 9 and g[0] == 10.0 and g[-1] == pytest.approx(1e5)
    assert np.all(np.diff(np.log(g)) > 0)


def test_report_validation():
    from tailagg import AssumptionReport, Trend

    with pytest.raises(ValueError):
        AssumptionReport("A1_MDA", (1.0, 2.0), (0.1,), Trend(INCONCLUSIVE), "closed_form")
    with pytest.raises(ValueError):
        AssumptionReport("A1_MDA", (2.0, 1.0), (0.1, 0.2), Trend(INCONCLUSIVE), "closed_form")


# ---------------------------------------------------------------- MDA profile


def test_mda_exponential_exact_memorylessness():
    rep = check_mda_gumbel(exponential(1.0))
    assert max(rep.values) < 1e-12
    assert rep.trend.kind == CONVERGING_TO_CONSTANT and abs(rep.trend.limit) < 1e-12


def test_mda_lognormal_profile_matches_oracle():
    grid = np.logspace(2, 6, 5)
    rep = check_mda_gumbel(LN, grid)
    # oracle: direct formula with the mean-excess auxiliary x/log x
    expect = []
    for x in grid:
        fx = x / math.log(x)
        worst = 0.0
        for t in (-1.0, 0.0, 1.0, 2.0):
            r = math.exp(float(log_ndtr(-math.log(x + t * fx))) - float(log_ndtr(-math.log(x))))
            worst = max(worst, abs(r - math.exp(-t)))
        expect.append(worst)
    assert np.allclose(rep.values, expect, rtol=1e-12)
    assert np.allclose(rep.values, [0.43241, 0.25601, 0.18031, 0.13876, 0.11269], rtol=1e-3)
    assert np.all(np.diff(rep.values) < 0)


def test_mda_lognormal_classifies_to_zero_on_wide_grid():
    rep = check_mda_gumbel(LN, np.logspace(2, 20, 10))
    assert rep.trend.kind == DECREASING_TO_ZERO


def test_mda_weibull_type_fast_convergence():
    rep = check_mda_gumbel(weibull_type(0.5), np.logspace(2, 6, 5))
    assert rep.values[-1] < 0.05
    assert rep.trend.kind == DECREASING_TO_ZERO


# ---------------------------------------------------------------- tail ratio


def test_tail_ratio_profile():
    rep = check_tail_ratio(LN, LN, default_grid())
    assert rep.trend.kind == CONVERGING_TO_CONSTANT and rep.trend.limit == 1.0
    rep = check_tail_ratio(LN, lognormal(0.0, 0.25), default_grid())
    assert rep.trend.kind == DECREASING_TO_ZERO


# ---------------------------------------------------------------- conditionals


def test_conditional_comonotone_lognormal_exact_zero():
    rep = check_conditional(comonotone_inverse(LN), "A3", t=1.0)
    assert all(v == 0.0 for v in rep.values)


def test_conditional_min_construction_matches_component_survival():
    m = min_construction(2.0)
    grid = default_grid()
    rep = check_conditional(m, "A3", t=1.0, x_grid=grid)
    f = m.marginal_model(0).auxiliary()
    lw = log_weibull(2.0)
    # P(Y > s | X > x) = sf(x or s) * sf(s) / sf(x) over the single component
    expect = []
    for x in grid:
        s = float(f(x))
        expect.append(
            math.exp(
                float(lw.log_survival(max(x, s))) + float(lw.log_survival(s)) - float(lw.log_survival(x))
            )
        )
    assert np.allclose(rep.values, expect, rtol=1e-12)
    assert rep.trend.kind == DECREASING_TO_ZERO


def test_conditional_iid_pair_factorizes():
    rep = check_conditional(iid_pair(LN), "A3", t=1.0, x_grid=default_grid())
    f = LN.auxiliary()
    expect = [float(LN.survival(f(x))) for x in default_grid()]
    assert np.allclose(rep.values, expect, rtol=1e-12)
    assert rep.trend.kind == DECREASING_TO_ZERO


def test_conditional_a4_on_asymmetric_kind():
    m = mixed_min(LN, exponential(1.0))
    g = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    rep3 = check_conditional(m, "A3", t=1.0, x_grid=g)
    rep4 = check_conditional(m, "A4", t=1.0, x_grid=g)
    assert rep3.assumption == "A3_CondY" and rep4.assumption == "A4_CondX"
    assert np.allclose(rep3.values, rep4.values, rtol=1e-12)  # exchangeable construction


def test_conditional_mc_agrees_with_closed_form():
    m = min_construction(2.0)
    grid = np.array([1.5, 2.0, 2.5, 3.0, 4.0])
    exact = check_conditional(m, "A3", t=1.0, x_grid=grid)
    mc = check_conditional(m, "A3", t=1.0, x_grid=grid, method="mc", mc_n=200_000, seed=8)
    assert mc.method == "monte_carlo"
    for x, v_mc, v_ex in zip(grid, mc.values, exact.values):
        hits = 200_000 * float(np.exp(m.marginal_log_survival(0, x)))
        se = math.sqrt(max(v_ex * (1 - v_ex), 1e-12) / hits)
        assert abs(v_mc - v_ex) <= 3.0 * se + 1e-3, x


def test_conditional_mc_marks_starved_points_inconclusive():
    rep = check_conditional(iid_pair(LN), "A3", t=1.0, x_grid=np.array([10.0, 1e3, 1e6]), method="mc", mc_n=2000, seed=1)
    assert math.isnan(rep.values[-1])
    assert rep.trend.kind == INCONCLUSIVE


def test_conditional_deep_grid_weibull_pair_does_not_underflow():
    # A3 of an iid pair is sf(f(x)); f(1e6) = 2000 for weibull_type(0.5), while
    # P(X > x, Y > f(x)) = e^-1000 e^-sqrt(2000) underflows in linear space
    rep = check_conditional(iid_pair(weibull_type(0.5)), "A3", 1.0, [10.0, 1e3, 1e6])
    assert rep.values[-1] == pytest.approx(math.exp(-math.sqrt(2000.0)), rel=1e-12, abs=0.0)


def test_conditional_deep_grid_min_construction_does_not_underflow():
    # X = X1 ^ X2, Y = X2 ^ X3, P(Xi > t) = exp(-(log t)^2): A3 is P(X3 > f(x))
    # with f(x) = x / (4 log x), about 3.4e-177 at x = 10^10.75
    x = 10**10.75
    rep = check_conditional(min_construction(2.0), "A3", 1.0, [10.0, 1e3, x])
    fx = x / (4.0 * math.log(x))
    assert rep.values[-1] == pytest.approx(math.exp(-math.log(fx) ** 2), rel=1e-12, abs=0.0)


def test_conditional_report_determinism():
    kw = dict(t=1.0, x_grid=np.array([2.0, 4.0, 8.0]), method="mc", mc_n=50_000, seed=77)
    a = check_conditional(min_construction(2.0), "A3", **kw)
    b = check_conditional(min_construction(2.0), "A3", **kw)
    assert a == b


# ---------------------------------------------------------------- joint auxiliary


def test_joint_aux_comonotone_exponential_small_l_diverges():
    rep = check_joint_aux(comonotone_inverse(exponential(1.0)), L=-math.log(0.75))
    assert rep.trend.kind == DIVERGING
    # the overlap never empties: value = 1/2 / survival(x)
    assert rep.values[0] == pytest.approx(0.5 / math.exp(-10.0), rel=1e-9)


def test_joint_aux_comonotone_exponential_l2_exactly_zero():
    rep = check_joint_aux(comonotone_inverse(exponential(1.0)), L=2.0)
    assert all(v == 0.0 for v in rep.values)


def test_joint_aux_weibull_pair_diverges_for_all_l():
    pair = iid_pair(weibull_type(0.5))
    for L in (0.1, 1.0, 10.0):
        rep = check_joint_aux(pair, L=L)
        assert rep.trend.kind == DIVERGING, L


def test_joint_aux_bivariate_lognormal_uses_quadrature():
    from tailagg import bivariate_lognormal

    # the profile hums upward through moderate thresholds and only turns over
    # around x ~ e^28; the log-space quadrature keeps the deep grid exact
    near = check_joint_aux(bivariate_lognormal(0.0, 1.0, 0.5), L=1.0, x_grid=np.logspace(1, 3, 5))
    assert near.method == "quadrature"
    assert near.trend.kind == DIVERGING
    far = check_joint_aux(bivariate_lognormal(0.0, 1.0, 0.5), L=1.0, x_grid=np.logspace(6, 24, 7))
    assert far.trend.kind == DECREASING_TO_ZERO


def test_unknown_method_rejected():
    m = comonotone_inverse(exponential(1.0))
    with pytest.raises(ValueError, match="method"):
        check_joint_aux(m, L=1.0, method="quadrature")
    with pytest.raises(ValueError, match="method"):
        check_conditional(m, "A3", 1.0, method="quadrature")


def test_joint_aux_mc_cross_check():
    m = comonotone_inverse(exponential(1.0))
    grid = np.array([2.0, 4.0, 6.0])
    L = 0.5
    exact = check_joint_aux(m, L=L, x_grid=grid)
    mc = check_joint_aux(m, L=L, x_grid=grid, method="mc", mc_n=400_000, seed=3)
    for v_mc, v_ex, x in zip(mc.values, exact.values, grid):
        # numerator is binomial; denominator exact
        p_num = v_ex * math.exp(-x)
        se = math.sqrt(p_num * (1 - p_num) / 400_000) / math.exp(-x)
        assert abs(v_mc - v_ex) <= 3.0 * se + 1e-6


def test_joint_aux_mc_without_hits_reads_zero_where_the_marginal_underflows():
    # P(X > 1e6) = e^-1000 underflows; no row hits the corner, so the ratio is 0, not inf
    rep = check_joint_aux(iid_pair(weibull_type(0.5)), 1.0, [10.0, 1e3, 1e6], method="mc", mc_n=1000, seed=1)
    assert rep.values[1:] == (0.0, 0.0) and rep.values[0] > 0
    assert rep.trend.kind == CONVERGING_TO_CONSTANT and rep.trend.limit == 0.0


# ---------------------------------------------------------------- per-point reference

_EVERY_KIND = {
    "iid-lognormal": iid_pair(LN),
    "iid-weibull": iid_pair(weibull_type(0.5)),
    "bivln-rho-0.9": bivariate_lognormal(0.0, 1.0, -0.9),
    "bivln-rho0.5": bivariate_lognormal(0.3, 0.7, 0.5),
    "bivln-rho0": bivariate_lognormal(0.0, 1.0, 0.0),
    "bivln-rho-1": bivariate_lognormal(0.0, 1.0, -1.0),
    "comonotone": comonotone_inverse(exponential(1.0)),
    "min": min_construction(2.0),
    "mixed-min": mixed_min(LN, exponential(1.0)),
}


def _per_point(model, corner, focal, level, grid):
    # one scalar marginal_log_survival call per grid point; corner(x, s) is
    # the orthant (x, y) whose joint survival the check divides
    s = level * _first_marginal(model).auxiliary()(grid)
    vals = []
    for xi, si in zip(grid, s):
        log_joint = model.joint_log_survival(*corner(xi, si))
        log_marg = float(model.marginal_log_survival(focal, xi))
        vals.append(_safe_exp(log_joint - log_marg) if log_joint > -math.inf else 0.0)
    return tuple(vals)


@pytest.mark.parametrize("name", _EVERY_KIND)
def test_check_values_equal_a_per_point_reference(name):
    model = _EVERY_KIND[name]
    grid = np.logspace(0.2, 3.0, 7)
    a3 = check_conditional(model, "A3", 1.5, grid)
    assert a3.values == _per_point(model, lambda x, s: (x, s), 0, 1.5, grid)
    a4 = check_conditional(model, "A4", 0.5, grid)
    assert a4.values == _per_point(model, lambda x, s: (s, x), 1, 0.5, grid)
    for L in (0.5, 2.0):
        a5 = check_joint_aux(model, L, grid)
        assert a5.values == _per_point(model, lambda x, s: (s, s), 0, L, grid)
    if model.kind == "bivariate_lognormal":
        asy = check_asy_indep(model, grid)
        assert asy.values == _per_point(model, lambda x, s: (x, x), 0, 1.0, grid)


def _orthant_log_reference(model, x, y):
    # log P(X > x, Y > y) by kind: for a bivariate lognormal with rho in
    # (-1, 1) the trivial and one-margin orthants, the product at rho = 0 and
    # the quadrature otherwise; for the rest the closed form at 50 digits
    if model.kind == "bivariate_lognormal" and -1.0 < model.rho < 1.0:
        if x <= 0 and y <= 0:
            return 0.0
        t1 = (math.log(x) - model.mu) / model.sigma if x > 0 else -math.inf
        t2 = (math.log(y) - model.mu) / model.sigma if y > 0 else -math.inf
        if t1 == -math.inf:
            return float(log_ndtr(-t2))
        if t2 == -math.inf:
            return float(log_ndtr(-t1))
        if model.rho == 0.0:
            return float(log_ndtr(-t1) + log_ndtr(-t2))
        return bivariate_normal_orthant_log(t1, t2, model.rho)
    with mpmath.workdps(50):
        if model.kind == "iid_pair":
            p = _sf_reference(model.marginal, x) * _sf_reference(model.marginal, y)
        elif model.kind == "min_construction":
            # X = X1 ^ X2, Y = X2 ^ X3 with P(Xi > t) = exp(-(log t)^alpha) above 1
            p = mpmath.mpf(1)
            for t in (x, max(x, y), y):
                p *= mpmath.exp(-mpmath.log(t) ** model.alpha) if t > 1 else 1
        elif model.kind == "mixed_min":
            # the base pair's countermonotone overlap times the independent lighter minima
            p = _overlap_reference(model.base, x, y)
            p *= _sf_reference(model.lighter, x) * _sf_reference(model.lighter, y)
        elif model.kind == "comonotone_inverse":
            p = _overlap_reference(model.marginal, x, y)
        else:  # bivariate lognormal at rho = -1: Y = exp(2 mu) / X
            p = _overlap_reference(lognormal(model.mu, model.sigma), x, y)
        return float(mpmath.log(p)) if p > 0 else -math.inf


def _overlap_reference(m, x, y):
    # P(Q(U) > x, Q(1 - U) > y): the length of the U-interval F(x) < U < 1 - F(y)
    return max(_sf_reference(m, x) + _sf_reference(m, y) - 1, 0)


def _sf_reference(m, t):
    # P(X > t) for the catalog marginals of _EVERY_KIND, at the working precision
    t = mpmath.mpf(t)
    if t <= 0:
        return mpmath.mpf(1)
    if m.family == "lognormal":
        return mpmath.ncdf(-(mpmath.log(t) - m.mu) / m.sigma)
    if m.family == "exponential":
        return mpmath.exp(-m.rate * t)
    assert m.family == "weibull_type"
    return mpmath.exp(-(t**m.alpha))


_CORNER_ENDS = (-1.0, 0.0, 0.5, 1.0, 3.0, 40.0)


@pytest.mark.parametrize("name", _EVERY_KIND)
def test_joint_log_survival_equals_the_orthant_by_kind(name):
    model = _EVERY_KIND[name]
    for x in _CORNER_ENDS:
        for y in _CORNER_ENDS:
            got, want = model.joint_log_survival(x, y), _orthant_log_reference(model, x, y)
            if model.kind == "bivariate_lognormal" and -1.0 < model.rho < 1.0:
                assert got == want, (x, y)  # the same route, bit for bit
            else:
                # the closed form to 1e-12 relative in the probability
                assert got == want or abs(got - want) <= 1e-12, (x, y, got, want)


def _conditional_mc_reference(model, pairs, focal, n, seed):
    # rejection estimate of P(other > s | focal > x) per (x, s), the rows of
    # key (seed, k) at point k, blank below 100 conditioning hits
    other = 1 - focal
    vals = []
    for k, (x, s) in enumerate(pairs):
        rows = _keyed_rows(model, n, (seed, k))
        hits = rows[:, focal] > x
        if int(hits.sum()) < 100:
            vals.append(math.nan)
        else:
            vals.append(float(np.mean(rows[hits, other] > s)))
    return vals


def _joint_aux_mc_reference(model, s, grid, n, seed):
    # sampled P(X > s, Y > s) over the exact P(X > x), divided in log space,
    # the rows of key (seed, k) at point k
    vals = []
    for k, (si, log_marg) in enumerate(zip(s, model.marginal_log_survival(0, grid).tolist())):
        rows = _keyed_rows(model, n, (seed, k))
        num = float(np.mean((rows[:, 0] > si) & (rows[:, 1] > si)))
        vals.append(_safe_exp(math.log(num) - log_marg) if num > 0 else 0.0)
    return vals


@pytest.mark.parametrize("name", _EVERY_KIND)
def test_mc_checks_equal_rejection_references(name):
    model = _EVERY_KIND[name]
    grid = np.logspace(0.2, 2.5, 5)
    n, seed = 3000, 11
    f = _first_marginal(model).auxiliary()
    for which, focal, t in (("A3", 0, 1.5), ("A4", 1, 0.5)):
        rep = check_conditional(model, which, t, grid, method="mc", mc_n=n, seed=seed)
        ref = _conditional_mc_reference(model, list(zip(grid, t * f(grid))), focal, n, seed)
        np.testing.assert_array_equal(rep.values, ref)
        assert rep.method == "monte_carlo" and (rep.mc_n, rep.seed) == (n, seed)
        # the deepest point has too few conditioning hits
        assert math.isnan(ref[-1]) and not math.isnan(ref[0])
    for L in (0.5, 2.0):
        rep = check_joint_aux(model, L, grid, method="mc", mc_n=n, seed=seed)
        np.testing.assert_array_equal(rep.values, _joint_aux_mc_reference(model, L * f(grid), grid, n, seed))


def _keyed_rows(model, n, key):
    # the n rows of key, each chunk drawn whole from its own stream
    return np.concatenate([reference_rows(model, rare_event._stream(*key, c), size) for c, size in rare_event._chunk_ranges(n)])


def _keyed_hits(model, corners, focal, n, seed):
    # (corner hits, focal hits) at grid point k among the rows of key (seed, k)
    hits = []
    for k, corner in enumerate(corners):
        above = _keyed_rows(model, n, (seed, k)) > corner
        hits.append((int(np.count_nonzero(above.all(axis=1))), int(np.count_nonzero(above[:, focal]))))
    return hits


@pytest.mark.parametrize("name", _EVERY_KIND)
def test_mc_checks_equal_per_chunk_references_across_chunks(monkeypatch, name):
    # three full chunks, then a partial one
    monkeypatch.setattr(rare_event, "CHUNK", 2500)
    model = _EVERY_KIND[name]
    grid = np.logspace(0.2, 2.5, 5)
    n, seed = 3 * 2500 + 700, 5
    f = _first_marginal(model).auxiliary()
    for which, focal, t in (("A3", 0, 1.5), ("A4", 1, 0.5)):
        s = t * f(grid)
        corners = list(zip(grid, s)) if focal == 0 else list(zip(s, grid))
        hits = _keyed_hits(model, corners, focal, n, seed)
        # the focal counts catch a lost row even where no row hits the corner
        assert _sampled_hits(model, corners, focal, n, seed) == hits
        rep = check_conditional(model, which, t, grid, method="mc", mc_n=n, seed=seed)
        np.testing.assert_array_equal(rep.values, [c / m if m >= 100 else math.nan for c, m in hits])
        assert not math.isnan(rep.values[0])
    log_margs = model.marginal_log_survival(0, grid).tolist()
    for L in (0.5, 2.0):
        corners = [(s, s) for s in L * f(grid)]
        hits = _keyed_hits(model, corners, 0, n, seed)
        assert _sampled_hits(model, corners, 0, n, seed) == hits
        rep = check_joint_aux(model, L, grid, method="mc", mc_n=n, seed=seed)
        want = [_safe_exp(math.log(c / n) - lm) if c else 0.0 for (c, _), lm in zip(hits, log_margs)]
        np.testing.assert_array_equal(rep.values, want)


@pytest.mark.parametrize("name", _EVERY_KIND)
def test_mc_check_counts_are_bit_identical_at_every_worker_count(monkeypatch, name):
    # `check --method mc` counts its rows with `_count_rows`; five full chunks and a
    # partial one, so 7 workers are more than chunks
    monkeypatch.setattr(rare_event, "CHUNK", 1000)
    model = _EVERY_KIND[name]
    n, seed, corner = 5 * 1000 + 300, 5, (1.5, 1.2)
    want = _keyed_hits(model, [corner], 0, n, seed)[0]

    def test(rows):
        above = rows > corner
        return np.stack((above.all(axis=1), above[:, 0]))

    for workers in (1, 2, 3, 4, 7):
        assert tuple(rare_event._count_rows(model, test, n, (seed, 0), workers)) == want


def test_pair_checks_take_auto_or_mc_only():
    with pytest.raises(ValueError, match="method must be auto or mc"):
        check_conditional(iid_pair(LN), "A3", 1.0, method="closed_form")


def test_mc_check_memory_stays_one_block_whatever_mc_n():
    # 62 chunks of 16384 rows: a whole draw would hold n x 3 uniforms of 8 B
    model, n, width = min_construction(2.0), 10**6, 3
    tracemalloc.start()
    try:
        rep = check_conditional(model, "A3", 1.0, np.array([2.0, 4.0]), method="mc", mc_n=n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not math.isnan(rep.values[0])
    assert peak < n * width * 8 / 8


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.5])
def test_pair_checks_name_their_exact_route(rho):
    # only a correlated bivariate lognormal needs the orthant quadrature
    model = bivariate_lognormal(0.0, 1.0, rho)
    want = "quadrature" if rho in (-0.5, 0.5) else "closed_form"
    reports = [
        check_conditional(model, "A3", 1.0),
        check_conditional(model, "A4", 1.0),
        check_joint_aux(model, 1.0),
        check_asy_indep(model),
    ]
    assert [r.method for r in reports] == [want] * 4
    assert check_joint_aux(model, 1.0, method="mc", mc_n=1000).method == "monte_carlo"


def test_other_kinds_are_closed_form():
    for name, model in _EVERY_KIND.items():
        if model.kind != "bivariate_lognormal":
            assert check_conditional(model, "A4", 1.0).method == "closed_form", name
            assert check_joint_aux(model, 1.0).method == "closed_form", name


_BELOW_E_MU = np.logspace(-0.5, 3.0, 8)  # starts at 0.316 < e^0 and passes x = 1


@pytest.mark.parametrize(
    "check",
    [
        lambda g: check_conditional(bivariate_lognormal(0.0, 1.0, -0.9), "A3", 1.0, g),
        lambda g: check_conditional(bivariate_lognormal(0.0, 1.0, -0.9), "A4", 1.0, g),
        lambda g: check_conditional(iid_pair(LN), "A3", 1.0, g, method="mc", mc_n=1000),
        lambda g: check_joint_aux(bivariate_lognormal(0.0, 1.0, 0.5), 1.0, g),
        lambda g: check_mda_gumbel(LN, g),
        lambda g: check_subexp_criterion(LN, 1.0, g),
    ],
)
def test_levels_reject_a_non_positive_auxiliary(check):
    # f(x) = x / log x is negative below x = 1 and infinite at x = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"x = 0\.316.*f\(x\) = -"):
            check(_BELOW_E_MU)
        with pytest.raises(ValueError, match=r"x = 1\.0 \(f\(x\) = inf\)"):
            check(_BELOW_E_MU[1:])
        check(_BELOW_E_MU[2:])


def test_levels_reject_a_nan_auxiliary():
    # log_weibull(1.5): f(x) = x / (1.5 sqrt(log x)) is nan below x = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"x = 0\.5 \(f\(x\) = nan\)"):
            check_mda_gumbel(log_weibull(1.5), np.array([0.5, 2.0]))


def test_constant_auxiliary_keeps_grids_below_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_joint_aux(comonotone_inverse(exponential(1.0)), 2.0, _BELOW_E_MU)
    assert rep.grid == tuple(_BELOW_E_MU)


# ---------------------------------------------------------------- subexponentiality


def test_subexp_log_weibull_vanishes():
    rep = check_subexp_criterion(log_weibull(2.0), L=1.0)
    assert rep.trend.kind == DECREASING_TO_ZERO


def test_subexp_weibull_type_diverges():
    rep = check_subexp_criterion(weibull_type(0.5), L=1.0)
    assert rep.trend.kind == DIVERGING


def test_subexp_lognormal_vanishes():
    rep = check_subexp_criterion(LN, L=1.0)
    assert rep.trend.kind == DECREASING_TO_ZERO
    # oracle at the last grid point: [sf(f(x))]^2 / sf(x)
    x = rep.grid[-1]
    f = x / math.log(x)
    expect = math.exp(2.0 * float(LN.log_survival(f)) - float(LN.log_survival(x)))
    assert rep.values[-1] == pytest.approx(expect, rel=1e-12)


def test_subexp_requires_diverging_auxiliary():
    with pytest.raises(AuxiliaryNotDiverging):
        check_subexp_criterion(exponential(1.0), L=1.0)


def test_subexp_values_match_direct_formula():
    grid = default_grid()
    rep = check_subexp_criterion(log_weibull(2.0), L=1.0, x_grid=grid)
    lw = log_weibull(2.0)
    f = lw.auxiliary()
    expect = np.exp(2.0 * lw.log_survival(f(grid)) - lw.log_survival(grid))
    assert np.allclose(rep.values, expect, rtol=1e-12)
