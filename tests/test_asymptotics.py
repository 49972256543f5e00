import contextlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from tailagg import (
    AuxiliaryNotDiverging,
    HeavierLaterTail,
    NearTieWarning,
    NonStabilizingRatio,
    ZeroTailRatio,
    approx_linear,
    approx_powers,
    approx_sum_d,
    approx_sum_pair,
    cond_mc_terms,
    exact_comonotone_lognormal,
    exponential,
    lognormal,
    probe_tail_ratio,
    weibull_type,
)

LN = lognormal(0.0, 1.0)


def phibar(z):
    return float(ndtr(-z))


# ---------------------------------------------------------------- pair


def test_pair_iid_lognormal_at_30():
    res = approx_sum_pair(LN, LN, 30.0)
    assert res.value == pytest.approx(2.0 * phibar(math.log(30.0)), rel=1e-12, abs=0)
    assert res.value == pytest.approx(6.7091e-4, rel=2e-5, abs=0)
    assert res.recipe.c == (1.0, 1.0)
    assert res.recipe.N_d == 2.0 and res.recipe.m_d == 1.0


def test_pair_supplied_zero_constant():
    res = approx_sum_pair(LN, exponential(1.0), 50.0, c=0.0)
    assert res.value == pytest.approx(float(LN.survival(50.0)), rel=1e-12, abs=0)


def test_pair_probed_vanishing_ratio():
    # a much thinner lognormal: probe collapses, c -> 0
    res = approx_sum_pair(LN, lognormal(0.0, 0.25), 100.0)
    assert res.recipe.c[1] == 0.0
    assert res.value == pytest.approx(phibar(math.log(100.0)), rel=1e-12, abs=0)


def test_pair_wrong_order_raises():
    with pytest.raises(NonStabilizingRatio):
        approx_sum_pair(lognormal(0.0, 0.5), LN, 50.0)


def test_probe_statuses():
    _, status = probe_tail_ratio(LN, LN, 30.0)
    assert status == "stable"
    _, status = probe_tail_ratio(lognormal(0.0, 0.25), LN, 100.0)
    assert status == "zero"
    _, status = probe_tail_ratio(lognormal(0.5, 1.0), LN, 100.0)
    assert status == "diverging"
    # crossover inside the probe window still resolves to a vanishing ratio
    _, status = probe_tail_ratio(weibull_type(0.5), LN, 100.0)
    assert status == "zero"


def test_probe_zero_unstable_and_probed_stable_routes():
    # both last ratios underflow to 0 at x = 200; at x = 5 they vanish, decreasing, by the drop rule
    assert probe_tail_ratio(exponential(2.0), exponential(1.0), 200.0)[1] == "zero"
    assert probe_tail_ratio(exponential(2.0), exponential(1.0), 5.0)[1] == "zero"
    # the ratio creeps from 1.051 to 1.151 over the probe grid: neither stable nor growing 1.5-fold
    ratios, status = probe_tail_ratio(weibull_type(0.5, scale=1.01), weibull_type(0.5), 100.0)
    assert status == "unstable" and 1.05 < ratios[0] < ratios[-1] < 1.16
    with pytest.raises(NonStabilizingRatio):
        approx_linear([weibull_type(0.5), weibull_type(0.5, scale=1.01)], [1.0, 1.0], 100.0)
    # equal in law but not ==, so c is probed: the last ratio, 1 up to rounding
    m0, m1 = exponential(2.0), exponential(1.0, scale=0.5)
    assert m0 != m1
    ratios, status = probe_tail_ratio(m1, m0, 5.0)
    assert status == "stable"
    c = approx_linear([m0, m1], [1.0, 1.0], 5.0).recipe.c
    assert c == (1.0, ratios[-1]) and c[1] == pytest.approx(1.0, rel=1e-13, abs=0)


def test_linear_supplied_c_may_omit_its_leading_one():
    assert approx_linear([LN, LN], [1.0, 2.0], 30.0, c=[1.0]).recipe.c == (1.0, 1.0)
    with pytest.raises(ValueError, match="one tail-ratio constant per model"):
        approx_linear([LN, LN], [1.0, 2.0], 30.0, c=[1.0, 1.0, 1.0])


# ---------------------------------------------------------------- sums


def test_sum_three_iid_lognormals():
    res = approx_sum_d([LN, LN, LN], 50.0)
    assert res.value == pytest.approx(3.0 * phibar(math.log(50.0)), rel=1e-12, abs=0)
    assert res.value == pytest.approx(1.5 * 9.1526e-5, rel=2e-5, abs=0)


def test_sum_single_model_is_plain_survival():
    res = approx_sum_d([LN], 20.0)
    assert res.value == pytest.approx(float(LN.survival(20.0)), rel=1e-15, abs=0)
    assert res.recipe.N_d == 1.0


def test_sum_drops_lighter_weibull_term():
    res = approx_sum_d([LN, weibull_type(0.5)], 100.0)
    assert res.recipe.c == (1.0, 0.0)
    assert res.value == pytest.approx(phibar(math.log(100.0)), rel=1e-12, abs=0)


def test_sum_heavier_later_tail_raises():
    with pytest.raises(HeavierLaterTail):
        approx_sum_d([LN, lognormal(0.5, 1.0)], 100.0)


def test_sum_rejects_signed_risks():
    from tailagg import std_normal

    with pytest.raises(ValueError):
        approx_sum_d([std_normal(), std_normal()], 10.0)


# ---------------------------------------------------------------- linear combinations


def test_linear_unequal_coefficients_single_argmax():
    res = approx_linear([LN, LN], [3.0, 2.0], 30.0, c=[1.0, 1.0])
    assert res.recipe.m_d == 3.0 and res.recipe.N_d == 1.0
    assert res.value == pytest.approx(float(LN.survival(10.0)), rel=1e-12, abs=0)


def test_linear_equal_coefficients_full_tie():
    res = approx_linear([LN, LN], [0.5, 0.5], 20.0)
    assert res.recipe.N_d == 2.0
    assert res.value == pytest.approx(2.0 * float(LN.survival(40.0)), rel=1e-12, abs=0)


def test_linear_small_equal_coefficients_reference_value():
    res = approx_linear([LN, LN], [0.2, 0.2], 10.0)
    assert res.value == pytest.approx(2.0 * phibar(math.log(50.0)), rel=1e-12, abs=0)
    assert res.value == pytest.approx(9.1526e-5, rel=2e-5, abs=0)


def test_linear_zero_tail_ratio_refused():
    with pytest.raises(ZeroTailRatio):
        approx_linear([LN, lognormal(0.0, 0.25)], [1.0, 2.0], 100.0)
    with pytest.raises(ZeroTailRatio):
        approx_linear([LN, LN], [1.0, 2.0], 100.0, c=[1.0, 0.0])


def test_linear_near_tie_lint():
    with pytest.warns(NearTieWarning):
        approx_linear([LN, LN], [1.0, 1.0 + 1e-13], 30.0, c=[1.0, 1.0])


def test_linear_validation():
    with pytest.raises(ValueError):
        approx_linear([LN, LN], [1.0], 30.0)
    with pytest.raises(ValueError):
        approx_linear([LN, LN], [-1.0, 2.0], 30.0)
    with pytest.raises(ValueError):
        approx_linear([LN, LN], [0.0, 0.0], 30.0)
    with pytest.raises(ValueError):
        approx_linear([LN, LN], [1.0, 1.0], 30.0, c=[2.0, 1.0])


# ---------------------------------------------------------------- power transforms


def test_powers_reduces_to_linear_on_common_base():
    # sum_i a_i Y^beta with equal beta == linear combination of the powered base
    base = lognormal(0.3, 0.8)
    a = [2.0, 5.0, 5.0]
    res_p = approx_powers(base, a, [1.3, 1.3, 1.3], 1e5)
    powered = base.transformed(power=1.3).canonical()
    res_l = approx_linear([powered] * 3, a, 1e5, c=[1.0, 1.0, 1.0])
    assert res_p.recipe.J_d == 2 and res_p.recipe.q_d == 5.0
    assert res_p.value == pytest.approx(res_l.value, rel=1e-12, abs=0)


def test_powers_equal_everything_gives_full_tie():
    res = approx_powers(LN, [2.0, 2.0, 2.0], [1.5, 1.5, 1.5], 1e4)
    assert res.recipe.J_d == 3


def test_powers_recipe_c_has_one_entry_per_coefficient_as_linear_does():
    # a zero coefficient keeps its place: c read (0.0, 1.0) here, so index 1 named coefficient 2
    res = approx_powers(lognormal(), [1.0, 0.0, 2.0], [1.0, 1.0, 1.0], 100.0)
    assert res.recipe.c == (0.0, 0.0, 1.0)
    assert len(approx_linear([LN] * 3, [1.0, 0.0, 2.0], 100.0).recipe.c) == 3
    assert approx_powers(LN, [1.0, 1000.0], [2.0, 1.0], 1e6).recipe.c == (1.0, 0.0)


def test_powers_highest_power_dominates_regardless_of_coefficient():
    res = approx_powers(LN, [1.0, 1000.0], [2.0, 1.0], 1e6)
    assert res.recipe.beta == 2.0 and res.recipe.q_d == 1.0 and res.recipe.J_d == 1
    # the approximation is the survival of the squared base, untouched by a2
    assert res.value == pytest.approx(float(lognormal(0.0, 2.0).survival(1e6)), rel=1e-12, abs=0)
    res_other = approx_powers(LN, [1.0, 10.0**6], [2.0, 1.0], 1e6)
    assert res_other.value == res.value


def test_powers_dominance_cross_checked_by_conditional_mc():
    # P(Y1^2 + 1000 Y2 > x) at x = 1e7 against the one-term approximation
    x = 1e7
    res = approx_powers(LN, [1.0, 1000.0], [2.0, 1.0], x)
    est = cond_mc_terms([0.0, math.log(1000.0)], [2.0, 1.0], 0.0, x, 2 * 10**5, 99)
    ratio = est.estimate / res.value
    assert abs(ratio - 1.0) <= 0.01
    assert est.half_width95 / res.value < 0.005


def test_powers_requires_diverging_auxiliary():
    with pytest.raises(AuxiliaryNotDiverging):
        approx_powers(exponential(1.0), [1.0, 1.0], [1.0, 1.0], 100.0)
    # a power > 1 lifts the exponential into a stretched tail and is fine
    res = approx_powers(exponential(1.0), [1.0, 1.0], [2.0, 2.0], 100.0)
    assert res.recipe.J_d == 2


def test_powers_validation():
    with pytest.raises(ValueError):
        approx_powers(LN, [1.0], [1.0, 2.0], 10.0)
    with pytest.raises(ValueError):
        approx_powers(LN, [-1.0, 1.0], [1.0, 1.0], 10.0)


# ---------------------------------------------------------------- invariants


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(1e-3, 1e3), a1=st.floats(0.1, 5.0), a2=st.floats(0.1, 5.0))
@example(kappa=801.0, a1=0.1, a2=0.10000000000000002)  # 801 * a1 == 801 * a2 in floating point
def test_scaling_covariance(kappa, a1, a2):
    x = 40.0
    # Ties use exact equality, so rounding of kappa * a_i can turn a near-tie
    # into a tie and change N_d; approx_linear flags such a base input.
    tie_changes = (kappa * a1 == kappa * a2) != (a1 == a2)
    with pytest.warns(NearTieWarning) if tie_changes else contextlib.nullcontext():
        base = approx_linear([LN, LN], [a1, a2], x, c=[1.0, 1.0])
    scaled = approx_linear([LN, LN], [kappa * a1, kappa * a2], kappa * x, c=[1.0, 1.0])
    assert scaled.recipe.m_d == pytest.approx(kappa * base.recipe.m_d, rel=1e-12, abs=0)
    if tie_changes:
        return
    assert scaled.recipe.N_d == base.recipe.N_d
    assert scaled.log_value == pytest.approx(base.log_value, rel=1e-9, abs=1e-9)


def test_permutation_invariance():
    a = [3.0, 2.0, 1.0, 3.0]
    models = [LN] * 4
    ref = approx_linear(models, a, 25.0, c=[1.0] * 4)
    for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]):
        pa = [a[i] for i in perm]
        res = approx_linear(models, pa, 25.0, c=[1.0] * 4)
        assert res.value == ref.value
        assert res.recipe.m_d == ref.recipe.m_d and res.recipe.N_d == ref.recipe.N_d


def test_unit_coefficients_equal_plain_sum_exactly():
    models = [LN, LN, LN]
    for c in (None, [1.0, 0.7, 0.4]):
        lin = approx_linear(models, [1.0, 1.0, 1.0], 60.0, c=c)
        plain = approx_sum_d(models, 60.0, c=c)
        assert lin.value == plain.value
        assert lin.log_value == plain.log_value
        assert lin.recipe == plain.recipe


def test_recipe_reconstructs_value_in_log_space():
    res = approx_linear([LN, LN], [2.0, 3.0], 45.0, c=[1.0, 0.8])
    rebuilt = math.log(res.recipe.N_d) + float(res.dominant_model.log_survival(45.0 / res.recipe.m_d))
    assert res.log_value == pytest.approx(rebuilt, rel=1e-12, abs=1e-12)
    assert math.exp(res.log_value) == res.value


def test_n_d_stays_within_proof_bounds():
    c = [1.0, 0.3, 2.5]
    res = approx_linear([LN] * 3, [1.0, 1.0, 1.0], 30.0, c=c)
    assert min(c) <= res.recipe.N_d <= 3 * max(c)


def test_desk_scale_ratio_rounds_to_one():
    exact = exact_comonotone_lognormal(0.0, 1000.0)
    approx = approx_sum_pair(LN, LN, 1000.0, c=1.0)
    assert round(exact.estimate / approx.value, 4) == 1.0000
