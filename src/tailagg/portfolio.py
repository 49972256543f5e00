"""Tail-risk-minimal portfolio allocation via the two-stage surrogate.

The exact problem - minimize P(sum_i a_i X_i > x) subject to an earnings
constraint - is intractable; replacing the objective by its asymptotic form
N_d * P(X_1 > x/m_d) splits it into two stages solved in sequence:

  (i)  minimize m_d = max_i a_i over the feasible set, then
  (ii) among allocations attaining that minimax value m, minimize
       N_d = sum of tail-ratio constants over the argmax set.

For a linear constraint sum_i a_i l_i >= L with positive l_i the stage-(i)
optimum forces every coordinate to the common maximum, so the solution is the
equal allocation a_i = L / sum_j l_j and stage (ii) is degenerate.

The surrogate is a heuristic at finite thresholds; `grid_verify` is the audit
path.  It sweeps the binding constraint of the 2-asset study on the grid of
the reference simulation study, but scores every point by exact quadrature
where that study used one simulation per point, and checks the conditional
Monte Carlo estimator at the two-stage solution against the exact value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import _resolve_c, _surrogate
from .errors import InfeasibleConstraint, UnsupportedConstraint
from .joint import BIVARIATE_LOGNORMAL, JointModel
from .models import FINITE, POSITIVE, check_value
from .rare_event import EstimateResult, cond_mc_lognormal, exact_lognormal_pair


@dataclass(frozen=True)
class LinearConstraint:
    """sum_i a_i * l_i >= L with positive per-unit earnings l_i."""

    l: tuple
    L: float

    def __post_init__(self):
        check_value("l", self.l, POSITIVE, UnsupportedConstraint)
        check_value("L", self.L, FINITE)


@dataclass(frozen=True)
class GridConstraint:
    """A finite candidate set filtered by a general feasibility function h(a) >= L."""

    candidates: tuple
    h: Callable[[Sequence[float]], float]
    L: float

    def __post_init__(self):
        check_value("L", self.L, FINITE)

    def satisfied(self, a: Sequence[float]) -> bool:
        return float(self.h(a)) >= self.L - 1e-9


@dataclass(frozen=True)
class PortfolioProblem:
    models: tuple
    c: tuple  # tail-ratio constants vs models[0], c[0] = 1
    constraint: object
    threshold: float

    def __post_init__(self):
        if len(self.models) != len(self.c):
            raise ValueError("need one tail-ratio constant per model")
        _resolve_c(self.models, self.threshold, self.c, allow_zero=True)  # c[0] = 1, each finite and >= 0
        check_value("threshold", self.threshold, POSITIVE)


@dataclass(frozen=True)
class PortfolioSolution:
    a: tuple
    m_d: float
    N_d: float
    approx_prob: float


def _solution(p: PortfolioProblem, a: tuple) -> PortfolioSolution:
    """The surrogate at allocation a; the all-zero allocation has m_d = 0 and probability 0."""
    if max(a) == 0.0:
        return PortfolioSolution(a, 0.0, float(sum(p.c)), 0.0)
    s = _surrogate(p.models[0], a, p.c, p.threshold)
    return PortfolioSolution(a, s.recipe.m_d, s.recipe.N_d, s.value)


def solve_two_stage(p: PortfolioProblem) -> PortfolioSolution:
    """Minimize the asymptotic tail surrogate over the constraint set."""
    if isinstance(p.constraint, LinearConstraint):
        l = np.asarray(p.constraint.l, dtype=float)
        if len(l) != len(p.models):
            raise ValueError("constraint and model dimensions differ")
        L = p.constraint.L
        m = 0.0 if L <= 0 else L / float(l.sum())
        return _solution(p, tuple(m for _ in l))

    if isinstance(p.constraint, GridConstraint):
        feasible = [tuple(float(v) for v in cand) for cand in p.constraint.candidates if p.constraint.satisfied(cand)]
        feasible = [cand for cand in feasible if all(v >= 0 for v in cand)]
        if not feasible:
            raise InfeasibleConstraint("no candidate satisfies the constraint")
        m_star = min(max(cand) for cand in feasible)
        stage2 = [_solution(p, cand) for cand in feasible if max(cand) == m_star]
        # among minimax-optimal candidates minimize the tie constant,
        # breaking remaining ties lexicographically
        return min(stage2, key=lambda sol: (sol.N_d, sol.a))

    raise UnsupportedConstraint(f"unknown constraint type {type(p.constraint).__name__}")


@dataclass(frozen=True)
class GridPoint:
    """One audited allocation and its exact probability."""

    a1: float
    a2: float
    estimate: float


@dataclass(frozen=True)
class GridAudit:
    """Exact sweep of the 2-asset constraint set, with one Monte Carlo check at a*."""

    a_tilde: tuple
    E1: float
    E2: float
    relative_error: float
    points: tuple
    n: int
    seed: int
    threshold: float
    E2_mc: EstimateResult


def grid_verify(
    p: PortfolioProblem,
    joint: JointModel,
    grid_step: float = 0.01,
    n: int = 10**4,
    seed: int = 0,
    workers: int = 1,
) -> GridAudit:
    """Audit the two-stage solution on a grid over the binding 2-asset constraint.

    a1 sweeps 0, grid_step, ... up to L/l1; a2 is set from the binding
    constraint.  Every point, and the two-stage solution a* when it is off the
    grid, is scored exactly by one `exact_lognormal_pair` call, which gives a
    point with a zero coefficient `exact_lognormal_single`.  E1 is the grid
    minimum, attained at a_tilde, E2 the exact probability at a* (read from
    the grid only when a* is a grid point, within 1e-9 of the smaller of
    grid_step and L/l1), and relative_error their gap (E2 - E1)/E1.  E2_mc
    is the audit's one Monte Carlo estimate: `cond_mc_lognormal` at a* with
    n replications keyed by seed, which checks the estimator against E2 and
    is the same for every worker count.
    """
    if not isinstance(p.constraint, LinearConstraint) or len(p.models) != 2:
        raise UnsupportedConstraint("grid_verify audits the 2-asset linear-constraint study")
    if joint.kind != BIVARIATE_LOGNORMAL:
        raise UnsupportedConstraint("the audit estimator is the bivariate-lognormal conditional MC")
    check_value("grid_step", grid_step, POSITIVE)
    l1, l2 = (float(v) for v in p.constraint.l)
    L = p.constraint.L
    x = p.threshold
    k_max = int(math.floor(L / l1 / grid_step + 1e-9))
    a1s = [k * grid_step for k in range(k_max + 1)]
    a2s = [max((L - l1 * a1) / l2, 0.0) for a1 in a1s]
    star = solve_two_stage(p).a
    k_star = int(round(star[0] / grid_step))
    # a step beyond L/l1 leaves a1 = 0 alone on the grid, so the slack is on the scale of both
    on_grid = 0 <= k_star <= k_max and abs(a1s[k_star] - star[0]) <= 1e-9 * min(grid_step, L / l1)
    cells = (a1s, a2s) if on_grid else (a1s + [star[0]], a2s + [star[1]])

    probs = exact_lognormal_pair(joint.mu, joint.sigma, joint.rho, *cells, x).tolist()
    e2 = probs[k_star] if on_grid else probs.pop()
    points = tuple(GridPoint(a1, a2, pr) for a1, a2, pr in zip(a1s, a2s, probs))
    k_min = int(np.argmin(probs))
    e1 = probs[k_min]
    rel = (e2 - e1) / e1 if e1 > 0 else math.inf
    e2_mc = cond_mc_lognormal(joint.mu, joint.sigma, joint.rho, list(star), x, n, seed, workers=workers)
    return GridAudit((a1s[k_min], a2s[k_min]), e1, e2, rel, points, n, seed, x, e2_mc)


def single_asset_extremes(p: PortfolioProblem, joint: JointModel) -> tuple:
    """Exact tail probabilities P(a X > x) of the two all-in-one-asset allocations a = L / l_i, from the joint's marginal.

    An allocation of 0 (L <= 0) makes the sum 0, which never exceeds the positive threshold.
    """
    if not isinstance(p.constraint, LinearConstraint) or len(p.models) != 2:
        raise UnsupportedConstraint("single-asset extremes are a 2-asset notion")
    L, x = p.constraint.L, p.threshold
    return tuple(float(np.exp(joint.marginal_log_survival(x / (L / float(l))))) if L > 0 else 0.0 for l in p.constraint.l)
