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
from .joint import BIVARIATE_LOGNORMAL, MIXED_MIN, JointModel
from .models import COUNT, FINITE, POSITIVE, AuxiliaryFn, Domain, TailModel, check_value
from .rare_event import _count_rows

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
    check_value("lo_log10 and hi_log10", [lo_log10, hi_log10], FINITE)
    check_value("count", count, COUNT)
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
    if g.ndim != 1 or len(g) < 2 or not np.all(np.diff(g) > 0):  # NaN fails too
        raise ValueError("x_grid must be strictly increasing with >= 2 points")
    return g


def _levels(aux: AuxiliaryFn, g: np.ndarray, L: float) -> np.ndarray:
    """L f(x) on the grid; ValueError at the first x where f(x) is not positive and finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fx = aux(g)
    bad = ~(np.isfinite(fx) & (fx > 0))
    if np.any(bad):
        k = int(np.argmax(bad))
        x, f = float(g[k]), float(fx[k])
        raise ValueError(f"the auxiliary function is not positive and finite at grid point x = {x!r} (f(x) = {f!r})")
    return L * fx


def check_mda_gumbel(model: TailModel, x_grid=None, t_grid=(-1.0, 0.0, 1.0, 2.0)) -> AssumptionReport:
    """Worst deviation of sf(x + t f(x))/sf(x) from exp(-t) over t_grid."""
    check_value("t_grid", t_grid, FINITE)
    g = _as_grid(x_grid)
    fx = _levels(model.auxiliary(), g, 1.0)
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


def _pair_method(model: JointModel) -> str:
    """How the exact route gets an orthant: quadrature for a correlated bivariate lognormal."""
    if model.kind == BIVARIATE_LOGNORMAL and model.rho not in (-1.0, 0.0):
        return QUADRATURE
    return CLOSED_FORM


def _sampled_hits(model: JointModel, corners, focal: int, n: int, seed: int):
    """(corner hits, focal hits) among n draws per corner (u, v), keyed (seed, k) at grid point k.

    A corner hit has X > u and Y > v; a focal hit passes the corner in the
    focal coordinate alone.
    """

    def test(rows, corner):
        above = rows > corner
        return np.stack((above.all(axis=1), above[:, focal]))

    return [tuple(_count_rows(model, lambda r: test(r, c), n, (seed, k))) for k, c in enumerate(corners)]


def _pair_report(assumption: str, model: JointModel, g, u, v, focal: int, method="auto", mc_n=None, seed=None):
    """P(X > u, Y > v) / P(focal > x) over the grid, with corner arrays u and v aligned with it.

    method="mc" samples the corners instead.  A3/A4 then report the share of
    focal hits that are corner hits, blank below _MC_MIN_HITS focal hits;
    A5 divides the corner-hit frequency by the exact marginal, in log space,
    so a marginal that underflows does not turn zero hits into inf.
    """
    if method == "mc":
        check_value("mc_n", mc_n, COUNT)
        hits = _sampled_hits(model, zip(u, v), focal, mc_n, seed)
        if assumption == A5_JOINT_AUX:
            log_margs = model.marginal_log_survival(focal, g).tolist()
            vals = [_safe_exp(math.log(c / mc_n) - lm) if c else 0.0 for (c, _), lm in zip(hits, log_margs)]
        else:
            vals = [c / m if m >= _MC_MIN_HITS else math.nan for c, m in hits]
        return AssumptionReport(assumption, tuple(g), tuple(vals), classify_trend(vals), MONTE_CARLO, mc_n, seed)
    check_value("method", method, Domain(lambda m: m in ("auto", "mc"), "auto or mc"))
    log_margs = model.marginal_log_survival(focal, g).tolist()
    log_joints = model.joint_log_survival(u, v).tolist()
    vals = [_safe_exp(lj - lm) if lj > -math.inf else 0.0 for lj, lm in zip(log_joints, log_margs)]
    return AssumptionReport(assumption, tuple(g), tuple(vals), classify_trend(vals), _pair_method(model))


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
    check_value("which", which, Domain(lambda w: w in ("A3", "A4"), "'A3' or 'A4'"))
    check_value("t", t, POSITIVE)
    g = _as_grid(x_grid)
    s = _levels(_first_marginal(model).auxiliary(), g, t)
    if which == "A3":
        return _pair_report(A3_COND_Y, model, g, g, s, 0, method, mc_n, seed)
    return _pair_report(A4_COND_X, model, g, s, g, 1, method, mc_n, seed)


def _first_marginal(model: JointModel) -> TailModel:
    if model.kind == MIXED_MIN:
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
    check_value("L", L, POSITIVE)
    g = _as_grid(x_grid)
    s = _levels(_first_marginal(model).auxiliary(), g, L)
    return _pair_report(A5_JOINT_AUX, model, g, s, s, 0, method, mc_n, seed)


def check_subexp_criterion(model: TailModel, L: float, x_grid=None) -> AssumptionReport:
    """sf(L f(x))^2 / sf(x) along the grid; vanishing is sufficient for the
    sum tail to double the marginal tail (and, on [0, inf), for
    subexponentiality)."""
    check_value("L", L, POSITIVE)
    g = _as_grid(x_grid)
    aux = model.auxiliary()
    if not aux.diverges:
        raise AuxiliaryNotDiverging("the criterion requires f(x) -> infinity")
    s = _levels(aux, g, L)
    vals = np.exp(2.0 * model.log_survival(s) - model.log_survival(g))
    return AssumptionReport(SUBEXP_CRITERION, tuple(g), tuple(vals), classify_trend(vals), CLOSED_FORM)


def check_asy_indep(model: JointModel, x_grid=None) -> AssumptionReport:
    """P(Y > x | X > x) along the grid for a bivariate lognormal."""
    if model.kind != BIVARIATE_LOGNORMAL:
        raise UnsupportedKind("asymptotic-independence ratio is tabulated for the bivariate lognormal")
    g = _as_grid(x_grid)
    return _pair_report(ASY_INDEP_RATIO, model, g, g, g, 0)
