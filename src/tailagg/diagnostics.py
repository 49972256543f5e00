"""Finite-threshold convergence checks for the tail-aggregation hypotheses.

Every check returns a convergence profile over an explicit threshold grid,
classified into a trend, never a certified limit: the conditions being probed
are asymptotic statements and no finite grid can decide them.  The default
grid (9 log-spaced thresholds from 1e1 to 1e5) covers the probability range
1e-2 .. 1e-12 exercised by the reference tables.

Checks:
  check_mda_gumbel       sup_t |sf(x + t f(x))/sf(x) - exp(-t)|  -> 0
  check_tail_ratio       sf_Y(x)/sf_X(x)                         -> c
  check_conditional      P(other > t f(x) | focal > x)           -> 0
  check_joint_aux        P(X > L f(x), Y > L f(x))/P(X > x)      -> 0
  check_subexp_criterion sf(L f(x))^2 / sf(x)                    -> 0
  check_asy_indep        P(Y > x | X > x)                        -> 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AuxiliaryNotDiverging, UnsupportedKind
from .joint import BIVARIATE_LOGNORMAL, JointModel, bivln_joint_log_survival
from .models import TailModel

A1_MDA = "A1_MDA"
A2_TAIL_RATIO = "A2_TailRatio"
A3_COND_Y = "A3_CondY"
A4_COND_X = "A4_CondX"
A5_JOINT_AUX = "A5_JointAux"
SUBEXP_CRITERION = "SubexpCriterion"
ASY_INDEP_RATIO = "AsyIndepRatio"

DECREASING_TO_ZERO = "decreasing_to_zero"
CONVERGING_TO_CONSTANT = "converging_to_constant"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte_carlo"

_FLAT_RTOL = 0.02  # last-half relative span for "converging to a constant"
_MC_MIN_HITS = 100  # conditioning events below this leave the point blank


def _safe_exp(v: float) -> float:
    if v > 709.0:
        return math.inf
    return math.exp(v)


@dataclass(frozen=True)
class Trend:
    kind: str
    limit: Optional[float] = None


@dataclass(frozen=True)
class AssumptionReport:
    """A convergence profile over a threshold grid, with its classification."""

    assumption: str
    grid: tuple
    values: tuple
    trend: Trend
    method: str
    mc_n: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must align")
        if len(self.grid) >= 2 and any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")


def default_grid(lo_log10: float = 1.0, hi_log10: float = 5.0, count: int = 9) -> np.ndarray:
    return np.logspace(lo_log10, hi_log10, count)


def classify_trend(values: Sequence[float]) -> Trend:
    """Deterministic trend call on a profile.

    Rules, in order:
      * any blank (nan) point -> inconclusive;
      * flat over the last half (relative span <= 2%) -> converging to that
        constant (covers the all-zero profile, limit 0);
      * nonincreasing over the last half with final < 0.1 x initial ->
        decreasing to zero;
      * nondecreasing over the last half with final > 10 x initial (or an
        infinite final value) -> diverging;
      * otherwise inconclusive.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return Trend(INCONCLUSIVE)
    if np.any(np.isnan(v)):
        return Trend(INCONCLUSIVE)
    half = v[len(v) // 2 :]
    if not np.any(np.isinf(half)):
        span = float(np.max(half) - np.min(half))
        scale = float(np.max(np.abs(half)))
        if span == 0.0 or (scale > 0 and span <= _FLAT_RTOL * scale):
            return Trend(CONVERGING_TO_CONSTANT, float(v[-1]))
    # pairwise comparisons (not diffs): inf >= inf holds, inf - inf does not
    nonincreasing = bool(np.all(half[1:] <= half[:-1]))
    if nonincreasing and v[-1] < 0.1 * v[0]:
        return Trend(DECREASING_TO_ZERO)
    nondecreasing = bool(np.all(half[1:] >= half[:-1]))
    if nondecreasing and (math.isinf(v[-1]) or v[-1] > 10.0 * v[0]):
        return Trend(DIVERGING)
    return Trend(INCONCLUSIVE)


def _as_grid(x_grid) -> np.ndarray:
    g = np.asarray(default_grid() if x_grid is None else x_grid, dtype=float)
    if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("x_grid must be strictly increasing with >= 2 points")
    return g


def check_mda_gumbel(model: TailModel, x_grid=None, t_grid=(-1.0, 0.0, 1.0, 2.0)) -> AssumptionReport:
    """Worst deviation of sf(x + t f(x))/sf(x) from exp(-t) over t_grid."""
    g = _as_grid(x_grid)
    aux = model.auxiliary()
    fx = aux(g)
    vals = np.zeros(len(g))
    base = model.log_survival(g)
    for t in t_grid:
        ratio = np.exp(model.log_survival(g + t * fx) - base)
        vals = np.maximum(vals, np.abs(ratio - math.exp(-t)))
    return AssumptionReport(A1_MDA, tuple(g), tuple(vals), classify_trend(vals), CLOSED_FORM)


def check_tail_ratio(model_x: TailModel, model_y: TailModel, x_grid=None) -> AssumptionReport:
    g = _as_grid(x_grid)
    vals = np.exp(model_y.log_survival(g) - model_x.log_survival(g))
    return AssumptionReport(A2_TAIL_RATIO, tuple(g), tuple(vals), classify_trend(vals), CLOSED_FORM)


def _joint_log_survival(model: JointModel, x: float, y: float):
    """(log P(X > x, Y > y), method) using the best available exact route."""
    if model.kind == BIVARIATE_LOGNORMAL and -1.0 < model.rho < 1.0:
        return bivln_joint_log_survival(model, x, y), QUADRATURE
    p = model.joint_survival(x, y)
    return (math.log(p) if p > 0 else -math.inf), CLOSED_FORM


def _conditional_mc(model: JointModel, pairs, focal: int, n: int, seed: int):
    """Rejection estimate of P(other > s_i | focal > x_i) for each (x_i, s_i)."""
    other = 1 - focal
    vals = []
    for k, (x, s) in enumerate(pairs):
        rows = model.sample(n, seed, stream=k)
        hits = rows[:, focal] > x
        m = int(hits.sum())
        if m < _MC_MIN_HITS:
            vals.append(math.nan)
        else:
            vals.append(float(np.mean(rows[hits, other] > s)))
    return vals


def check_conditional(
    model: JointModel,
    which: str,
    t: float,
    x_grid=None,
    method: str = "auto",
    mc_n: int = 10**6,
    seed: int = 0,
) -> AssumptionReport:
    """P(|other| > t f(x) | focal > x) along the grid; A3 conditions on X, A4 on Y.

    f is the auxiliary function of the first marginal.  All catalog kinds have
    an exact route (closed form or quadrature); method="mc" forces the
    rejection estimator, whose hit-starved grid points are left blank and make
    the trend inconclusive.
    """
    if which not in ("A3", "A4"):
        raise ValueError("which must be 'A3' or 'A4'")
    if t <= 0:
        raise ValueError("t must be positive")
    g = _as_grid(x_grid)
    aux = _first_marginal(model).auxiliary()
    s = t * aux(g)
    focal = 0 if which == "A3" else 1
    assumption = A3_COND_Y if which == "A3" else A4_COND_X

    if method == "mc":
        pairs = list(zip(g, s))
        vals = _conditional_mc(model, pairs, focal, mc_n, seed)
        return AssumptionReport(
            assumption, tuple(g), tuple(vals), classify_trend(vals), MONTE_CARLO, mc_n, seed
        )
    if method not in ("auto", "closed_form"):
        raise ValueError("method must be auto, closed_form or mc")

    vals = []
    used = CLOSED_FORM
    for xi, si, log_marg in zip(g, s, model.marginal_log_survival(focal, g).tolist()):
        if focal == 0:
            log_joint, used = _joint_log_survival(model, xi, si)
        else:
            log_joint, used = _joint_log_survival(model, si, xi)
        vals.append(_safe_exp(log_joint - log_marg) if log_joint > -math.inf else 0.0)
    return AssumptionReport(assumption, tuple(g), tuple(vals), classify_trend(vals), used)


def _first_marginal(model: JointModel) -> TailModel:
    if model.kind == "mixed_min":
        # the product marginal keeps the base's auxiliary up to asymptotic
        # equivalence in all catalog configurations; use the heavier factor
        return model.base
    return model.marginal_model(0)


def check_joint_aux(
    model: JointModel,
    L: float,
    x_grid=None,
    method: str = "auto",
    mc_n: int = 10**6,
    seed: int = 0,
) -> AssumptionReport:
    """P(Y > L f(x), X > L f(x)) / P(X > x) along the grid."""
    if L <= 0:
        raise ValueError("L must be positive")
    g = _as_grid(x_grid)
    aux = _first_marginal(model).auxiliary()
    s = L * aux(g)

    if method == "mc":
        vals = []
        for k, (si, log_marg) in enumerate(zip(s, model.marginal_log_survival(0, g).tolist())):
            rows = model.sample(mc_n, seed, stream=k)
            num = float(np.mean((rows[:, 0] > si) & (rows[:, 1] > si)))
            den = math.exp(log_marg)
            vals.append(num / den if den > 0 else math.inf)
        return AssumptionReport(
            A5_JOINT_AUX, tuple(g), tuple(vals), classify_trend(vals), MONTE_CARLO, mc_n, seed
        )
    if method not in ("auto", "closed_form"):
        raise ValueError("method must be auto, closed_form or mc")

    vals = []
    used = CLOSED_FORM
    for si, log_marg in zip(s, model.marginal_log_survival(0, g).tolist()):
        log_joint, used = _joint_log_survival(model, si, si)
        if log_joint == -math.inf:
            vals.append(0.0)
        else:
            vals.append(_safe_exp(log_joint - log_marg))
    return AssumptionReport(A5_JOINT_AUX, tuple(g), tuple(vals), classify_trend(vals), used)


def check_subexp_criterion(model: TailModel, L: float, x_grid=None) -> AssumptionReport:
    """sf(L f(x))^2 / sf(x) along the grid; vanishing is sufficient for the
    sum tail to double the marginal tail (and, on [0, inf), for
    subexponentiality)."""
    if L <= 0:
        raise ValueError("L must be positive")
    g = _as_grid(x_grid)
    aux = model.auxiliary()
    if not aux.diverges:
        raise AuxiliaryNotDiverging("the criterion requires f(x) -> infinity")
    s = L * aux(g)
    vals = np.exp(2.0 * model.log_survival(s) - model.log_survival(g))
    return AssumptionReport(SUBEXP_CRITERION, tuple(g), tuple(vals), classify_trend(vals), CLOSED_FORM)


def check_asy_indep(model: JointModel, x_grid=None) -> AssumptionReport:
    """P(Y > x | X > x) along the grid for a bivariate lognormal."""
    if model.kind != BIVARIATE_LOGNORMAL:
        raise UnsupportedKind("asymptotic-independence ratio is tabulated for the bivariate lognormal")
    g = _as_grid(x_grid)
    vals = []
    for xi, log_marg in zip(g, model.marginal_log_survival(0, g).tolist()):
        log_joint, _ = _joint_log_survival(model, xi, xi)
        vals.append(_safe_exp(log_joint - log_marg) if log_joint > -math.inf else 0.0)
    method = QUADRATURE if -1.0 < model.rho < 1.0 and model.rho != 0.0 else CLOSED_FORM
    return AssumptionReport(ASY_INDEP_RATIO, tuple(g), tuple(vals), classify_trend(vals), method)
