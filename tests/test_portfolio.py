import math

import numpy as np
import pytest
from scipy.special import ndtr

from tailagg import (
    GridConstraint,
    InfeasibleConstraint,
    LinearConstraint,
    PortfolioProblem,
    UnsupportedConstraint,
    approx_linear,
    bivariate_lognormal,
    cond_mc_lognormal,
    exact_lognormal_pair,
    grid_verify,
    lognormal,
    single_asset_extremes,
    solve_two_stage,
)

LN = lognormal(0.0, 1.0)


def _problem(threshold=10.0, l=(2.0, 3.0), L=1.0, d=2):
    return PortfolioProblem(
        tuple([LN] * d), tuple([1.0] * d), LinearConstraint(tuple(l), L), threshold
    )


def phibar(z):
    return float(ndtr(-z))


# ---------------------------------------------------------------- two-stage solver


def test_linear_reference_solution_is_exact_fifth():
    sol = solve_two_stage(_problem())
    assert sol.a == (0.2, 0.2)
    assert sol.m_d == 0.2 and sol.N_d == 2.0
    assert sol.heuristic
    assert sol.approx_prob == pytest.approx(2.0 * phibar(math.log(50.0)), rel=1e-12)


def test_linear_unit_earnings_gives_unit_allocation():
    d = 4
    p = PortfolioProblem(tuple([LN] * d), tuple([1.0] * d), LinearConstraint((1.0,) * d, float(d)), 30.0)
    sol = solve_two_stage(p)
    assert sol.a == (1.0,) * d
    assert sol.N_d == float(d)


def test_linear_vanishing_revenue_target_gives_boundary():
    sol = solve_two_stage(_problem(L=0.0))
    assert sol.a == (0.0, 0.0)
    assert sol.approx_prob == 0.0


def test_linear_constraint_satisfied_within_tolerance():
    p = _problem(l=(2.0, 3.0), L=1.0)
    sol = solve_two_stage(p)
    assert p.constraint.satisfied(sol.a)
    assert float(np.dot(p.constraint.l, sol.a)) >= p.constraint.L - 1e-9


def test_nonpositive_earnings_rejected():
    with pytest.raises(UnsupportedConstraint):
        LinearConstraint((2.0, 0.0), 1.0)
    with pytest.raises(UnsupportedConstraint):
        LinearConstraint((2.0, -1.0), 1.0)


def test_grid_constraint_minimax_then_tie_count():
    cands = ((2.0, 1.0), (1.0, 2.0), (1.5, 1.5), (3.0, 0.5))
    p = PortfolioProblem(
        (LN, LN), (1.0, 0.5), GridConstraint(cands, h=lambda a: a[0] + a[1], L=3.0), 20.0
    )
    sol = solve_two_stage(p)
    # minimax value 1.5 is attained only by the balanced candidate
    assert sol.a == (1.5, 1.5)
    assert sol.m_d == 1.5 and sol.N_d == 1.5

    # with the balanced point infeasible, stage (ii) picks the smaller tie constant
    p2 = PortfolioProblem(
        (LN, LN), (1.0, 0.5), GridConstraint(((2.0, 1.0), (1.0, 2.0)), h=lambda a: a[0] + a[1], L=3.0), 20.0
    )
    sol2 = solve_two_stage(p2)
    assert sol2.a == (1.0, 2.0)  # argmax on coordinate 2, constant 0.5 < 1.0


def test_grid_constraint_lexicographic_tie_break():
    cands = ((2.0, 1.0), (1.0, 2.0))
    p = PortfolioProblem((LN, LN), (1.0, 1.0), GridConstraint(cands, h=lambda a: sum(a), L=3.0), 20.0)
    sol = solve_two_stage(p)
    assert sol.a == (1.0, 2.0)


def test_grid_constraint_infeasible():
    p = PortfolioProblem((LN, LN), (1.0, 1.0), GridConstraint(((0.1, 0.1),), h=lambda a: sum(a), L=3.0), 20.0)
    with pytest.raises(InfeasibleConstraint):
        solve_two_stage(p)


def test_solution_reconstructs_recipe_value():
    sol = solve_two_stage(_problem(threshold=25.0))
    expect = sol.N_d * float(LN.survival(25.0 / sol.m_d))
    assert sol.approx_prob == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- grid audit


def test_grid_verify_shapes_and_determinism():
    p = _problem(threshold=10.0)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    a1 = grid_verify(p, joint, grid_step=0.05, n=2000, seed=5)
    a2 = grid_verify(p, joint, grid_step=0.05, n=2000, seed=5, workers=3)
    assert a1 == a2
    assert len(a1.points) == 11
    assert a1.points[0].a1 == 0.0 and a1.points[-1].a2 == 0.0
    assert a1.E1 <= a1.E2
    assert a1.relative_error >= 0.0


def test_grid_verify_endpoints_are_exact():
    p = _problem(threshold=10.0)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    audit = grid_verify(p, joint, grid_step=0.1, n=1000, seed=5)
    first, last = audit.points[0], audit.points[-1]
    assert first.exact and last.exact
    assert first.estimate == pytest.approx(phibar(math.log(30.0)), rel=1e-12)
    assert last.estimate == pytest.approx(phibar(math.log(20.0)), rel=1e-12)
    assert first.std_error == 0.0


def test_grid_verify_requires_supported_shapes():
    p = _problem()
    with pytest.raises(UnsupportedConstraint):
        grid_verify(p, __import__("tailagg").iid_pair(LN), n=100, seed=1)
    p3 = PortfolioProblem((LN, LN, LN), (1.0,) * 3, LinearConstraint((1.0,) * 3, 1.0), 10.0)
    with pytest.raises(UnsupportedConstraint):
        grid_verify(p3, bivariate_lognormal(0.0, 1.0, 0.0), n=100, seed=1)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
def test_grid_verify_rejects_nonpositive_step(step):
    with pytest.raises(ValueError, match="grid_step"):
        grid_verify(_problem(), bivariate_lognormal(0.0, 1.0, 0.0), grid_step=step, n=100, seed=1)


def test_two_stage_is_minimax_over_grid():
    p = _problem(threshold=20.0)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    audit = grid_verify(p, joint, grid_step=0.01, n=200, seed=2)
    sol = solve_two_stage(p)
    max_coeffs = [max(pt.a1, pt.a2) for pt in audit.points]
    assert sol.m_d <= min(max_coeffs) + 1e-12
    assert min(max_coeffs) == pytest.approx(sol.m_d, abs=1e-12)


def test_two_stage_dominates_larger_minimax_candidates_in_the_recipe():
    # The minimax stage pins the survival factor: every rival allocation with a
    # strictly larger max coefficient has a strictly larger survival factor at
    # any threshold.  Full-value dominance (constant included) is asymptotic -
    # a just-off-tie rival halves the constant and wins until x/m_d is deep -
    # so the value comparison is made at a threshold where rapid variation has
    # taken over.
    p = _problem(threshold=20.0)
    sol = solve_two_stage(p)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    audit = grid_verify(p, joint, grid_step=0.02, n=200, seed=3)
    rivals = [pt for pt in audit.points if max(pt.a1, pt.a2) > sol.m_d + 1e-12 and pt.a1 > 0 and pt.a2 > 0]
    assert rivals
    for pt in rivals:
        assert float(LN.survival(20.0 / sol.m_d)) <= float(LN.survival(20.0 / max(pt.a1, pt.a2)))

    deep = 1e7
    sol_deep = solve_two_stage(_problem(threshold=deep))
    for pt in rivals:
        rival = approx_linear((LN, LN), (pt.a1, pt.a2), deep, c=(1.0, 1.0))
        assert sol_deep.approx_prob <= rival.value * (1.0 + 1e-12)


def test_single_asset_extremes_exact_values():
    p = _problem(threshold=10.0)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    e1, e2 = single_asset_extremes(p, joint)
    assert e1 == pytest.approx(phibar(math.log(20.0)), rel=1e-12)
    assert e2 == pytest.approx(phibar(math.log(30.0)), rel=1e-12)
    assert e1 == pytest.approx(1.3689e-3, rel=1e-4)
    assert e2 == pytest.approx(3.3546e-4, rel=1e-4)


def test_problem_validation():
    with pytest.raises(ValueError):
        PortfolioProblem((LN,), (1.0, 1.0), LinearConstraint((1.0,), 1.0), 10.0)
    with pytest.raises(ValueError):
        PortfolioProblem((LN, LN), (0.5, 1.0), LinearConstraint((1.0, 1.0), 1.0), 10.0)
    with pytest.raises(ValueError):
        PortfolioProblem((LN, LN), (1.0, 1.0), LinearConstraint((1.0, 1.0), 1.0), -1.0)


@pytest.mark.parametrize("step", [0.03, 1.0])
def test_grid_verify_E2_off_the_grid_is_the_estimate_at_the_solution(step):
    # a* = (0.2, 0.2) is no grid point for these steps; the nearest one
    # (a1 = 0.21, or the endpoint a1 = 0) must not stand in for it
    p = _problem(threshold=5.0)
    joint = bivariate_lognormal(0.0, 1.0, 0.0)
    audit = grid_verify(p, joint, grid_step=step, n=10**4, seed=3)
    at_star = cond_mc_lognormal(0.0, 1.0, 0.0, [0.2, 0.2], 5.0, 10**4, 3)
    assert audit.E2_mc.estimate == at_star.estimate
    assert audit.E2_mc.estimate == pytest.approx(0.0017204, rel=1e-4)
    assert audit.E2 == float(exact_lognormal_pair(0.0, 1.0, 0.0, 0.2, 0.2, 5.0))
    assert abs(audit.E2_mc.estimate - audit.E2) < 10.0 * audit.E2_mc.std_error
    assert audit.E2 == pytest.approx(1.7196e-3, rel=1e-4)
    assert audit.E2 != audit.points[round(0.2 / step)].estimate


@pytest.mark.parametrize("step", [0.01, 0.02, 0.05, 0.1])
def test_grid_verify_E2_on_the_grid_is_read_from_the_grid(step):
    p = _problem(threshold=5.0)
    audit = grid_verify(p, bivariate_lognormal(0.0, 1.0, 0.0), grid_step=step, n=200, seed=3)
    k = round(0.2 / step)
    assert audit.points[k].a1 == 0.2
    assert audit.E2 == audit.points[k].estimate


def test_grid_verify_rejects_rho_beyond_the_exact_route():
    with pytest.raises(ValueError, match="rho"):
        grid_verify(_problem(), bivariate_lognormal(0.0, 1.0, 0.99995), n=100, seed=1)


@pytest.mark.parametrize("step", [0.01, 0.03])
def test_grid_verify_makes_one_monte_carlo_call_at_the_solution(monkeypatch, step):
    from tailagg import portfolio

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cond_mc_lognormal(*args, **kwargs)

    monkeypatch.setattr(portfolio, "cond_mc_lognormal", counted)
    audit = grid_verify(_problem(threshold=5.0), bivariate_lognormal(0.0, 1.0, 0.3), grid_step=step, n=1000, seed=4)
    assert [(c[3], c[6]) for c in calls] == [([0.2, 0.2], 4)]
    assert all(pt.exact and pt.std_error == 0.0 for pt in audit.points)
