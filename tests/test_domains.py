"""Every public numeric entry rejects a parameter outside its domain, and keeps a NaN threshold NaN.

One property over the entries exported by `tailagg`: a value outside a
parameter's domain (NaN, +-inf, 0, a negative value, a count that is not an
integer, ...) either raises ValueError or a TailAggError, or, for a NaN
threshold, gives NaN; it never gives a finite number.  Left out, as they take
no numeric parameter of their own: `solve_two_stage` and
`single_asset_extremes` (their problem and model are checked when built), the
config readers (tests/test_config.py), `default_grid` and `classify_trend`,
whose NaN profile points mark blank points of a check.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailagg as ta
from tailagg import TailAggError

NAN, INF = math.nan, math.inf
_SPECIAL = st.sampled_from([NAN, INF, -INF])

# kind of parameter -> values outside its domain; every float is outside a count's
# domain, 1000.0 included, and a threshold's only malformed value is NaN
OUTSIDE = {
    "finite": _SPECIAL,
    "positive": st.floats(max_value=0.0) | _SPECIAL,
    "nonnegative": st.floats(max_value=0.0, exclude_max=True) | _SPECIAL,
    "above_one": st.floats(max_value=1.0) | _SPECIAL,
    "unit": st.floats(max_value=0.0) | st.floats(min_value=1.0) | _SPECIAL,
    "count": st.integers(max_value=0) | st.floats(),
    "dim": st.integers(max_value=1) | st.floats(),
    "seed": st.integers(max_value=-1) | st.floats(),
    "rho_joint": st.floats(min_value=1.0) | st.floats(max_value=-1.0, exclude_max=True) | _SPECIAL,
    "rho_estimator": st.floats(min_value=1.0) | st.floats(max_value=-1.0) | _SPECIAL,
    # three terms, zero coefficients included, are positive definite only for rho in (-1/2, 1);
    # (-1, -1/2] has a branch of its own, as the two-term domain holds it
    "rho_estimator_d3": st.floats(min_value=1.0) | st.floats(-1.0, -0.5) | st.floats(max_value=-1.0) | _SPECIAL,
    "rho_quadrature": st.floats(min_value=math.nextafter(0.9999, 2.0))
    | st.floats(max_value=math.nextafter(-0.9999, -2.0))
    | _SPECIAL,
    "model": st.sampled_from([NAN, INF, 0.0, -1.0, None]),
    "threshold": st.just(NAN),
}

LN = ta.lognormal(0.0, 1.0)
BL = ta.bivariate_lognormal(0.0, 1.0, 0.3)
GRID = [10.0, 100.0]
LINEAR = ta.LinearConstraint((2.0, 3.0), 1.0)
PROBLEM = ta.PortfolioProblem((LN, LN), (1.0, 1.0), LINEAR, 10.0)
MC = {"n": "count", "seed": "seed", "workers": "count"}


@dataclass(frozen=True)
class Entry:
    fn: object
    args: dict  # valid arguments
    kinds: dict  # parameter -> kind, a key of OUTSIDE
    label: str = ""  # tells apart the test ids of two entries of one fn


ENTRIES = [
    Entry(ta.lognormal, {"mu": 0.0, "sigma": 1.0, "scale": 1.0, "power": 1.0},
          {"mu": "finite", "sigma": "positive", "scale": "positive", "power": "positive"}),
    Entry(ta.log_weibull, {"alpha": 2.0, "scale": 1.0, "power": 1.0},
          {"alpha": "above_one", "scale": "positive", "power": "positive"}),
    Entry(ta.log_weibull_min, {"alpha": 2.0}, {"alpha": "above_one"}),
    Entry(ta.weibull_type, {"alpha": 0.5, "scale": 1.0}, {"alpha": "unit", "scale": "positive"}),
    Entry(ta.exponential, {"rate": 1.0, "power": 1.0}, {"rate": "positive", "power": "positive"}),
    Entry(ta.std_normal, {"scale": 1.0}, {"scale": "positive"}),
    Entry(ta.iid_pair, {"marginal": LN, "dim": 2}, {"marginal": "model", "dim": "dim"}),
    Entry(ta.bivariate_lognormal, {"mu": 0.0, "sigma": 1.0, "rho": 0.3},
          {"mu": "finite", "sigma": "positive", "rho": "rho_joint"}),
    Entry(ta.comonotone_inverse, {"marginal": LN}, {"marginal": "model"}),
    Entry(ta.min_construction, {"alpha": 2.0}, {"alpha": "above_one"}),
    Entry(ta.mixed_min, {"base": LN, "lighter": ta.log_weibull(2.0)}, {"base": "model", "lighter": "model"}),
    Entry(ta.bivariate_normal_orthant_log, {"t1": 1.0, "t2": 2.0, "rho": 0.5},
          {"t1": "threshold", "t2": "threshold", "rho": "rho_quadrature"}),
    Entry(ta.approx_linear, {"models": [LN, LN], "a": [1.0, 1.0], "x": 100.0, "c": [1.0, 1.0]},
          {"a": "nonnegative", "x": "threshold", "c": "nonnegative"}),
    Entry(ta.approx_sum_d, {"models": [LN, LN], "x": 100.0, "c": [1.0, 1.0]}, {"x": "threshold", "c": "nonnegative"}),
    Entry(ta.approx_sum_pair, {"model_x": LN, "model_y": LN, "x": 100.0, "c": 1.0},
          {"x": "threshold", "c": "nonnegative"}),
    Entry(ta.approx_powers, {"base_marginal": LN, "a": [1.0, 1.0], "beta": [1.0, 2.0], "x": 100.0},
          {"a": "nonnegative", "beta": "nonnegative", "x": "threshold"}),
    Entry(ta.probe_tail_ratio, {"model_num": LN, "model_den": LN, "x": 10.0}, {"x": "positive"}),
    Entry(ta.check_mda_gumbel, {"model": LN, "x_grid": GRID}, {"x_grid": "threshold"}),
    Entry(ta.check_tail_ratio, {"model_x": LN, "model_y": LN, "x_grid": GRID}, {"x_grid": "threshold"}),
    Entry(ta.check_conditional,
          {"model": BL, "which": "A3", "t": 1.0, "x_grid": GRID, "method": "mc", "mc_n": 100, "seed": 0},
          {"t": "positive", "x_grid": "threshold", "mc_n": "count", "seed": "seed"}),
    Entry(ta.check_joint_aux, {"model": BL, "L": 1.0, "x_grid": GRID, "method": "mc", "mc_n": 100, "seed": 0},
          {"L": "positive", "x_grid": "threshold", "mc_n": "count", "seed": "seed"}),
    Entry(ta.check_subexp_criterion, {"model": LN, "L": 1.0, "x_grid": GRID}, {"L": "positive", "x_grid": "threshold"}),
    Entry(ta.check_asy_indep, {"model": BL, "x_grid": GRID}, {"x_grid": "threshold"}),
    Entry(ta.self_neglect_profile, {"aux": LN.auxiliary(), "x_grid": GRID, "t": 1.0},
          {"x_grid": "threshold", "t": "finite"}),
    Entry(ta.exact_comonotone_lognormal, {"mu": 0.0, "x": 10.0}, {"mu": "finite", "x": "threshold"}),
    Entry(ta.exact_lognormal_single, {"mu": 0.0, "sigma": 1.0, "a": 1.0, "x": 10.0},
          {"mu": "finite", "sigma": "positive", "a": "nonnegative", "x": "threshold"}),
    Entry(ta.exact_lognormal_pair, {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a1": 1.0, "a2": [1.0, 0.5], "x": 10.0},
          {"mu": "finite", "sigma": "positive", "rho": "rho_quadrature", "a1": "nonnegative", "a2": "nonnegative",
           "x": "threshold"}),
    Entry(ta.plain_mc, {"model": BL, "a": [1.0, 1.0], "x": 10.0, "n": 100, "seed": 1, "workers": 1},
          {"a": "nonnegative", "x": "threshold", **MC}),
    Entry(ta.cond_mc_lognormal,
          {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a": [1.0, 1.0], "x": 10.0, "n": 100, "seed": 1, "workers": 1},
          {"mu": "finite", "sigma": "positive", "rho": "rho_estimator", "a": "nonnegative", "x": "threshold", **MC}),
    Entry(ta.cond_mc_lognormal_curve,
          {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a": [1.0, 1.0], "xs": [10.0, 20.0], "n": 100, "seed": 1, "workers": 1},
          {"mu": "finite", "sigma": "positive", "rho": "rho_estimator", "a": "nonnegative", "xs": "threshold", **MC}),
    *[Entry(ta.cond_mc_lognormal,
            {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a": a, "x": 10.0, "n": 100, "seed": 1, "workers": 1},
            {"rho": "rho_estimator_d3"}, label) for a, label in (([1.0, 1.0, 0.0], "_a110"), ([1.0, 0.0, 0.0], "_a100"))],
    Entry(ta.cond_mc_lognormal_curve,
          {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a": [1.0, 1.0, 0.0], "xs": [10.0, 20.0], "n": 100, "seed": 1,
           "workers": 1}, {"rho": "rho_estimator_d3"}, "_a110"),
    Entry(ta.cond_mc_terms, {"nu": [0.0, 0.0], "sig": [1.0, 1.0], "rho": 0.3, "x": 10.0, "n": 100, "seed": 1, "workers": 1},
          {"nu": "finite", "sig": "positive", "rho": "rho_estimator", "x": "threshold", **MC}),
    Entry(ta.ratio_vs_asymptotic, {"est": ta.EstimateResult(0.5, 10, 0.01, "plain_mc", 1), "approx": 0.5},
          {"approx": "positive"}),
    Entry(ta.LinearConstraint, {"l": (2.0, 3.0), "L": 1.0}, {"l": "positive", "L": "finite"}),
    Entry(ta.GridConstraint, {"candidates": ((1.0, 2.0), (2.0, 1.0)), "h": sum, "L": 3.0}, {"L": "finite"}),
    Entry(ta.PortfolioProblem, {"models": (LN, LN), "c": (1.0, 1.0), "constraint": LINEAR, "threshold": 10.0},
          {"c": "nonnegative", "threshold": "positive"}),
    Entry(ta.grid_verify, {"p": PROBLEM, "joint": BL, "grid_step": 0.1, "n": 100, "seed": 1, "workers": 1},
          {"grid_step": "positive", **MC}),
]
CASES = [(e, name) for e in ENTRIES for name in e.kinds]


def _with(value, bad, threshold: bool):
    """The valid value with bad in its place: every entry of a threshold list, the last entry of any other list."""
    if not isinstance(value, (list, tuple)):
        return bad
    return type(value)([bad] * len(value) if threshold else [*value[:-1], bad])


def _numbers(result) -> list:
    if isinstance(result, ta.EstimateResult):
        return [result.estimate]
    if isinstance(result, ta.ApproxResult):
        return [result.value]
    if isinstance(result, ta.AssumptionReport):
        return list(result.values)
    if isinstance(result, (list, tuple)):
        return [v for r in result for v in _numbers(r)]
    return np.ravel(np.asarray(result, dtype=float)).tolist()


@pytest.mark.parametrize("entry, name", CASES, ids=[f"{e.fn.__name__}{e.label}-{name}" for e, name in CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_value_outside_its_domain_raises_or_gives_nan(entry, name, data):
    kind = entry.kinds[name]
    bad = data.draw(OUTSIDE[kind], label=name)
    args = {**entry.args, name: _with(entry.args[name], bad, kind == "threshold")}
    try:
        result = entry.fn(**args)
    except (ValueError, TailAggError):
        return
    assert kind == "threshold", f"{entry.fn.__name__}({name}={bad!r}) returned {result!r}"
    assert all(math.isnan(v) for v in _numbers(result)), f"{entry.fn.__name__}({name}=nan) returned {result!r}"


def test_the_valid_arguments_are_accepted():
    # each case changes one argument of a call that succeeds
    for entry in ENTRIES:
        entry.fn(**entry.args)
