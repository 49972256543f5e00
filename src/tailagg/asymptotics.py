"""Closed-form tail approximations for sums and linear combinations.

For risks X_1..X_d that are pairwise asymptotically independent with rapidly
varying marginals, the sum's tail collapses onto the heaviest terms:

  P(X + Y > x)            ~ (1 + c) P(X > x),   c = lim P(Y > x)/P(X > x)
  P(sum_i X_i > x)        ~ (1 + sum_{i>=2} c_i) P(X_1 > x)
  P(sum_i a_i X_i > x)    ~ N_d P(X_1 > x / m_d)
  P(sum_i a_i Y_i^b_i > x)~ J_d P(Y_1^beta > x / q_d)

with m_d = max a_i, N_d the sum of the tail-ratio constants over the argmax
set, and (beta, q_d, J_d) the max power, max coefficient among max-power
terms, and the size of that argmax set.

Argmax ties use exact floating-point equality, never a tolerance: the
constants N_d and J_d are defined by exact ties, and a tolerance would
silently change them.  A NearTieWarning fires when two coefficients differ by
less than 1e-12 relative so near-misses are at least visible.

Tail-ratio constants may be supplied analytically (preferred) or probed
numerically on the geometric grid {x, 2x, 4x, 8x}; rapid variation makes
strictly lighter tails collapse within a couple of doublings, so the short
probe either stabilizes, vanishes, or visibly diverges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AuxiliaryNotDiverging,
    HeavierLaterTail,
    NearTieWarning,
    NonStabilizingRatio,
    ZeroTailRatio,
)
from .models import NONNEGATIVE, POSITIVE, Domain, TailModel, check_value

PROBE_FACTORS = (1.0, 2.0, 4.0, 8.0)
_STABLE_RTOL = 0.01  # last two probe ratios within 1% relative
_VANISH_FLOOR = 1e-9  # a monotone-decreasing probe ending below this is a zero limit
_VANISH_DROP = 0.05  # ... or shrinking by 20x per doubling at the end
_DIVERGE_GROWTH = 1.5  # monotone-increasing probe growing 1.5x overall

RATIO_STABLE = "stable"
RATIO_ZERO = "zero"
RATIO_DIVERGING = "diverging"
RATIO_UNSTABLE = "unstable"

# the recipes for sums of risks take models whose support is bounded below
_NONNEGATIVE_RISK = Domain(lambda m: m.nonnegative, "a nonnegative risk")


@dataclass(frozen=True)
class ApproxRecipe:
    """The symbolic pieces behind an approximation value."""

    c: tuple
    m_d: float
    N_d: float
    beta: Optional[float] = None
    q_d: Optional[float] = None
    J_d: Optional[int] = None


@dataclass(frozen=True)
class ApproxResult:
    """An asymptotic tail approximation plus the recipe that produced it."""

    value: float
    log_value: float
    recipe: ApproxRecipe
    dominant_model: TailModel


def probe_tail_ratio(model_num: TailModel, model_den: TailModel, x: float):
    """Estimate lim sf_num / sf_den on {x, 2x, 4x, 8x}.

    Returns (ratios, status) with status one of stable/zero/diverging/unstable.
    """
    check_value("x", x, POSITIVE)
    xs = np.array([f * x for f in PROBE_FACTORS])
    log_r = model_num.log_survival(xs) - model_den.log_survival(xs)
    r = np.exp(log_r)
    if r[-1] == 0.0 and r[-2] == 0.0:
        return r, RATIO_ZERO
    if r[-2] > 0 and abs(r[-1] - r[-2]) <= _STABLE_RTOL * r[-2]:
        return r, RATIO_STABLE
    decreasing = bool(np.all(np.diff(r) < 0))
    if decreasing and (r[-1] <= _VANISH_FLOOR or r[-1] <= _VANISH_DROP * r[-2]):
        return r, RATIO_ZERO
    increasing = bool(np.all(np.diff(r) > 0))
    if increasing and r[-1] >= _DIVERGE_GROWTH * r[0]:
        return r, RATIO_DIVERGING
    return r, RATIO_UNSTABLE


def _resolve_c(models: Sequence[TailModel], x: float, c, allow_zero: bool):
    """Tail-ratio constants of models[i] vs models[0], probed or supplied."""
    d = len(models)
    if c is not None:
        c = [float(v) for v in c]
        if len(c) == d - 1:
            c = [1.0] + c
        if len(c) != d:
            raise ValueError("need one tail-ratio constant per model (c_1 = 1 may be omitted)")
        if c[0] != 1.0:
            raise ValueError("the first tail-ratio constant is 1 by definition")
        check_value("c", c, NONNEGATIVE)
        if 0.0 in c and not allow_zero:
            raise ZeroTailRatio("a zero tail-ratio constant is outside this recipe; drop the term")
        return c
    out = [1.0]
    for i in range(1, d):
        if models[i] == models[0]:
            out.append(1.0)
            continue
        ratios, status = probe_tail_ratio(models[i], models[0], x)
        if status == RATIO_STABLE:
            out.append(float(ratios[-1]))
        elif status == RATIO_ZERO:
            if not allow_zero:
                raise ZeroTailRatio(
                    f"model {i} has a strictly lighter tail (probe ratio -> 0); "
                    "drop the term or use the plain-sum recipe"
                )
            out.append(0.0)
        elif status == RATIO_DIVERGING:
            raise HeavierLaterTail(
                f"model {i} is tail-heavier than model 0 (probe ratios {np.array2string(ratios, precision=3)}); "
                "pass the heaviest marginal first"
            )
        else:
            raise NonStabilizingRatio(
                f"tail ratio of model {i} vs model 0 did not stabilize on the probe grid "
                f"(ratios {np.array2string(ratios, precision=3)}); supply c analytically"
            )
    return out


def _coefficients(a: Sequence[float]) -> list:
    """a as floats, each finite and >= 0 and one positive; warns of near ties among the positive ones."""
    a = [float(v) for v in a]
    check_value("a", a, NONNEGATIVE)
    pos = [v for v in a if v > 0]
    if not pos:
        raise ValueError("at least one coefficient must be positive")
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            hi, lo = max(pos[i], pos[j]), min(pos[i], pos[j])
            if hi != lo and (hi - lo) <= 1e-12 * hi:
                warnings.warn(
                    f"coefficients {lo!r} and {hi!r} differ by < 1e-12 relative but are not "
                    "an exact tie; the argmax set uses exact equality",
                    NearTieWarning,
                    stacklevel=3,
                )
    return a


def _surrogate(model: TailModel, a: Sequence[float], c: Sequence[float], x: float) -> ApproxResult:
    """N_d * P(X_1 > x/m_d), X_1 ~ model, for coefficients a with max a_i > 0.

    m_d = max a_i and N_d sums c_i over the exact argmax set; the value is
    formed in log space.
    """
    m_d = max(a)
    n_d = float(sum(c[i] for i in range(len(a)) if a[i] == m_d))
    log_value = math.log(n_d) + float(model.log_survival(x / m_d))
    return ApproxResult(math.exp(log_value), log_value, ApproxRecipe(tuple(c), m_d, n_d), model)


def approx_linear(
    models: Sequence[TailModel],
    a: Sequence[float],
    x: float,
    c: Optional[Sequence[float]] = None,
) -> ApproxResult:
    """N_d * P(X_1 > x/m_d) for the combination sum_i a_i X_i.

    models[0] must carry the (weakly) heaviest tail; every tail-ratio constant
    must land in (0, inf) (a vanishing ratio raises ZeroTailRatio - with a
    negligible term the limit depends on the scaled, not the raw, tails).
    """
    models = list(models)
    a = _coefficients(a)
    if len(models) != len(a):
        raise ValueError("need one coefficient per model")
    return _surrogate(models[0], a, _resolve_c(models, x, c, allow_zero=False), x)


def approx_sum_d(
    models: Sequence[TailModel],
    x: float,
    c: Optional[Sequence[float]] = None,
) -> ApproxResult:
    """(1 + sum_{i>=2} c_i) * P(X_1 > x) for a plain sum of nonnegative risks.

    Identical to approx_linear with unit coefficients except that vanishing
    tail-ratio constants are fine here (lighter terms simply drop out of the
    constant).
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    check_value("models", models, _NONNEGATIVE_RISK)
    return _surrogate(models[0], [1.0] * len(models), _resolve_c(models, x, c, allow_zero=True), x)


def approx_sum_pair(
    model_x: TailModel,
    model_y: TailModel,
    x: float,
    c: Optional[float] = None,
) -> ApproxResult:
    """(1 + c) * P(X > x) for a pair; c probed on {x, 2x, 4x, 8x} if omitted."""
    cl = None if c is None else [1.0, float(c)]
    try:
        return approx_sum_d([model_x, model_y], x, c=cl)
    except HeavierLaterTail as exc:
        raise NonStabilizingRatio(str(exc)) from exc


def approx_powers(
    base_marginal: TailModel,
    a: Sequence[float],
    beta: Sequence[float],
    x: float,
) -> ApproxResult:
    """J_d * P(Y^beta > x/q_d) for sum_i a_i Y_i^beta_i on identical bases.

    Only the highest power survives in the limit, and among those only the
    largest coefficient; the induced model q_d * Y^beta must reduce to a
    family with a tabulated auxiliary function that diverges (a bounded
    auxiliary function, e.g. the exponential's constant, is outside this
    recipe's hypotheses).
    """
    a = _coefficients(a)
    beta = [float(b) for b in beta]
    if len(a) != len(beta):
        raise ValueError("need one coefficient per power")
    check_value("beta", beta, NONNEGATIVE)
    check_value("base_marginal", base_marginal, _NONNEGATIVE_RISK)
    live = [(ai, bi) for ai, bi in zip(a, beta) if ai > 0]
    b_max = max(bi for _, bi in live)
    q_d = max(ai for ai, bi in live if bi == b_max)
    j_d = sum(1 for ai, bi in live if bi == b_max and ai == q_d)

    induced = base_marginal.transformed(scale=q_d, power=b_max).canonical()
    aux = induced.auxiliary()  # raises AuxiliaryUnavailable when not reducible
    if not aux.diverges:
        raise AuxiliaryNotDiverging(
            f"the induced model {induced.family} has a bounded auxiliary function"
        )
    powered = base_marginal.transformed(power=b_max).canonical()
    log_value = math.log(j_d) + float(powered.log_survival(x / q_d))
    cs = tuple(1.0 if (bi == b_max and ai == q_d) else 0.0 for ai, bi in zip(a, beta))
    recipe = ApproxRecipe(cs, m_d=q_d, N_d=float(j_d), beta=b_max, q_d=q_d, J_d=j_d)
    return ApproxResult(math.exp(log_value), log_value, recipe, powered)
