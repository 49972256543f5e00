"""Bivariate dependence structures with seeded samplers and closed forms.

Every draw comes from numpy's SFC64 generator.  A stream is named by a seed
and a spawn key of further words, through numpy's `SeedSequence(seed,
spawn_key=...)`, so any key regenerates the same draws and distinct keys name
distinct streams.  Each chunk of Monte Carlo rows has a key of its own and
draws from the start of its stream, so a counter-based generator such as
Philox, whose advantage is random access into one long stream, buys nothing
here, and SFC64 draws faster (`BENCH_25.json`: 35 against 49 ns a row for a
chunk's d = 2 normals, 10 against 25 for its uniforms, on a 2-vCPU x86-64
machine).
Each kind is declared once, in `_KINDS`: its config fields, the tail models
whose survivals make up each coordinate's, its rows and its joint survival.
`JointModel.rows` draws a chunk's rows from its generator: the bivariate
lognormal by numpy's ziggurat normals, mixed as the conditional estimator
mixes them at d = 2, every other kind by inverse CDF on `_uniforms`.  Plain
Monte Carlo gets for a chunk, row for row, what `JointModel.sample` returns
for it.  The conditional estimator (`rare_event`) draws standard normals from
its chunk's generator directly; one generator per chunk keeps the draws the
same at any worker count, though the ziggurat takes a varying number of raw
words per normal.

The joint survival P(X > x, Y > y) has one route, `joint_log_survival`, which
works in log space for every kind, at a corner or at arrays of corners.  It
is exact for every kind except the bivariate lognormal with rho strictly
inside (-1, 1) and not 0, whose orthant probabilities have no closed form;
those are computed by 1-d Gauss-Legendre quadrature (`kernels.gauss_legendre`)
of the integrand shifted by its peak log value, over the range that
`kernels.scan_range` finds on one scan per corner: the rule and the finder of
the exact d = 2 pair, one row per corner and one call for all of them.  Both
stay accurate far below the double-precision underflow threshold.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import log_ndtr

from . import kernels
from .errors import UnsupportedKind
from .models import (
    _FAMILIES,
    COUNT,
    LOGNORMAL,
    LOG_WEIBULL,
    MODEL,
    Domain,
    TailModel,
    check_fields,
    check_unread,
    check_value,
    config_fields,
    config_integer,
    config_tag,
    lognormal,
    log_weibull,
    log_weibull_min,
    model_from_config,
    model_to_config,
    norm_log_sf,
)

IID_PAIR = "iid_pair"
BIVARIATE_LOGNORMAL = "bivariate_lognormal"
COMONOTONE_INVERSE = "comonotone_inverse"
MIN_CONSTRUCTION = "min_construction"
MIXED_MIN = "mixed_min"

# keys whose values are not plain numbers: nested model configs and the dimension
_READERS = {"marginal": model_from_config, "base": model_from_config, "lighter": model_from_config, "dim": config_integer}

_U_LO = 1e-300
_U_HI = 1.0 - 1e-16


def _seed_key(seed) -> tuple:
    """The key a seed names, validated: (seed,) for one word, the words of a tuple or list.

    Every word must be a nonnegative integer (not a bool): the seed below
    2^128 and each further word below 2^32.  SeedSequence splits a larger
    integer into 32-bit words, so (0, 2^32) and (0, 0, 1) would name one
    stream.  Anything else raises ValueError naming the key.
    """
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    bounds = [2**128] + [2**32] * (len(key) - 1)
    if not key or not all(
        isinstance(w, numbers.Integral) and not isinstance(w, bool) and 0 <= w < b for w, b in zip(key, bounds)
    ):
        raise ValueError(f"a seed key is a seed in [0, 2^128) and words in [0, 2^32), got {seed!r}")
    return tuple(int(w) for w in key)


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """SFC64 generator for `SeedSequence(seed, spawn_key=spawn_key)`: the one way a key becomes draws.

    Every caller draws from the start of its own key's stream, never at an
    offset into another's, so nothing needs a counter-based generator.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous out with gen's next uniforms, clipped into (0, 1); return out.

    The clip keeps the quantiles finite.
    """
    gen.random(out=out)
    return np.clip(out, _U_LO, _U_HI, out=out)


# -- the kinds ---------------------------------------------------------------------


def _countermonotone(marginal: TailModel, u: np.ndarray) -> np.ndarray:
    """The rows (Q(u), Q(1 - u)) for the marginal's quantile Q, with 1 - u clipped into (0, 1) as u is."""
    return np.column_stack([marginal.quantile(u), marginal.quantile(np.clip(1.0 - u, _U_LO, _U_HI))])


def _countermonotone_log_overlap(marginal: TailModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log P(Q(U) > x, Q(1 - U) > y) at each corner: the log length of the U-interval F(x) < U < 1 - F(y).

    The length is sf(a) - F(b), a the threshold with the smaller survival, and
    is formed as log sf(a) + log1p(-F(b)/sf(a)), so neither a deep sf(a) nor a
    small F(b) is lost to the cancellation in sf(x) + sf(y) - 1.  A NaN
    threshold gives NaN.
    """
    out = []
    for log_sf_x, log_sf_y in zip(marginal.log_survival(x).tolist(), marginal.log_survival(y).tolist()):
        if math.isnan(log_sf_x) or math.isnan(log_sf_y):
            out.append(math.nan)
            continue
        log_sf_a, log_sf_b = sorted((log_sf_x, log_sf_y))
        cdf_b = -math.expm1(log_sf_b)
        if cdf_b == 0.0:
            out.append(log_sf_a)
            continue
        log_ratio = math.log(cdf_b) - log_sf_a
        out.append(log_sf_a + math.log1p(-math.exp(log_ratio)) if log_ratio < 0.0 else -math.inf)
    return np.array(out)


def _lognormal_rows(m, gen: np.random.Generator, size: int) -> np.ndarray:
    w = gen.standard_normal((size, 2))
    # below[0] is rho, diag[1] the s of the exact pair, sqrt((1 - rho)(1 + rho))
    below, diag = kernels._equicorr_cholesky(2, m.rho)
    w[:, 1] *= diag[1]
    w[:, 1] += below[0] * w[:, 0]
    w *= m.sigma
    w += m.mu
    return np.exp(w, out=w)


def _lognormal_log_joint(m, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if m.rho == -1.0:
        # Y = exp(2 mu) / X: the pair is countermonotone
        return _countermonotone_log_overlap(lognormal(m.mu, m.sigma), x, y)
    # math.log per corner: numpy's log rounds some values differently in the last bit,
    # and the check outputs are pinned to math's; a threshold <= 0 gives t = -inf, a NaN one NaN
    t1, t2 = (np.array([(math.log(v) - m.mu) / m.sigma if not v <= 0 else -math.inf for v in c.tolist()]) for c in (x, y))
    return bivariate_normal_orthant_log(t1, t2, m.rho)


def _min_rows(m, gen: np.random.Generator, size: int) -> np.ndarray:
    c = log_weibull(m.alpha).quantile(_uniforms(gen, np.empty((size, 3))))
    return np.minimum(c[:, :2], c[:, 1:])


def _min_log_joint(m, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # X > x and Y > y: X1 > x, X2 > max(x, y) and X3 > y
    f = log_weibull(m.alpha)
    return f.log_survival(x) + f.log_survival(np.maximum(x, y)) + f.log_survival(y)


def _mixed_min_rows(m, gen: np.random.Generator, size: int) -> np.ndarray:
    u = _uniforms(gen, np.empty((size, 3)))
    lighter = np.column_stack([m.lighter.quantile(u[:, 1]), m.lighter.quantile(u[:, 2])])
    return np.minimum(_countermonotone(m.base, u[:, 0]), lighter)


# a joint kind: `fields` maps its config keys to (default, domain), None marking a
# required key.  The forms take the model m: factors(m) the TailModels whose
# survivals multiply to each coordinate's (one factor: the marginal), rows(m, gen,
# size) size rows drawn from gen as a (size, dim) array, log_joint(m, x, y) the log
# joint survival at flat arrays of corners, and integrates(m) whether log_joint
# takes its orthants from the quadrature rather than a closed form
_Kind = namedtuple("_Kind", "fields factors rows log_joint integrates", defaults=(lambda m: False,))
_KINDS = {
    IID_PAIR: _Kind(
        {"marginal": (None, MODEL), "dim": (2, Domain(lambda v: COUNT.test(v) and v >= 2, "an integer >= 2"))},
        lambda m: (m.marginal,),
        lambda m, gen, size: m.marginal.quantile(_uniforms(gen, np.empty((size, m.dim)))),
        lambda m, x, y: m.marginal.log_survival(x) + m.marginal.log_survival(y),
    ),
    BIVARIATE_LOGNORMAL: _Kind(
        {k: _FAMILIES[LOGNORMAL].params[k] for k in ("mu", "sigma")} | {"rho": (None, Domain(lambda v: -1.0 <= v < 1.0, "in [-1, 1)"))},
        lambda m: (lognormal(m.mu, m.sigma),),
        _lognormal_rows,
        _lognormal_log_joint,
        lambda m: m.rho not in (-1.0, 0.0),
    ),
    COMONOTONE_INVERSE: _Kind(
        {"marginal": (None, MODEL)},
        lambda m: (m.marginal,),
        lambda m, gen, size: _countermonotone(m.marginal, _uniforms(gen, np.empty(size))),
        lambda m, x, y: _countermonotone_log_overlap(m.marginal, x, y),
    ),
    MIN_CONSTRUCTION: _Kind(
        {"alpha": _FAMILIES[LOG_WEIBULL].params["alpha"]},
        lambda m: (log_weibull_min(m.alpha),),
        _min_rows,
        _min_log_joint,
    ),
    MIXED_MIN: _Kind(
        {"base": (None, MODEL), "lighter": (None, MODEL)},
        lambda m: (m.base, m.lighter),
        _mixed_min_rows,
        # the countermonotone overlap of the base pair times the independent minima
        lambda m, x, y: _countermonotone_log_overlap(m.base, x, y)
        + (m.lighter.log_survival(x) + m.lighter.log_survival(y)),
    ),
}


@dataclass(frozen=True)
class JointModel:
    """A d-variate dependence structure (d = 2 except iid_pair), declared in `_KINDS`.

    Kinds:
      iid_pair             independent copies of `marginal` (dim >= 2)
      bivariate_lognormal  (exp(Z1), exp(Z2)), Z bivariate normal(mu, sigma^2, rho)
      comonotone_inverse   X = Q(U), Y = Q(1-U) for the marginal's quantile Q
      min_construction     X = X1 ^ X2, Y = X2 ^ X3, Xi iid log_weibull(alpha)
      mixed_min            X = Q(U) ^ H1, Y = Q(1-U) ^ H2 with H1, H2 iid
    """

    kind: str
    marginal: Optional[TailModel] = None
    mu: float = 0.0
    sigma: float = 1.0
    rho: float = 0.0
    alpha: float = 2.0
    base: Optional[TailModel] = None
    lighter: Optional[TailModel] = None
    dim: int = 2

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown joint kind {self.kind!r}")
        check_fields(_KINDS[self.kind].fields, **vars(self))
        check_unread(self, _KINDS[self.kind].fields)

    # -- marginals ------------------------------------------------------------

    def factors(self) -> tuple:
        """The TailModels whose survivals multiply to each coordinate's survival: the marginal alone, or mixed_min's (base, lighter)."""
        return _KINDS[self.kind].factors(self)

    def marginal_model(self) -> TailModel:
        """The marginal, shared by every coordinate, as a TailModel where one exists in the catalog."""
        marginal, *rest = self.factors()
        if rest:
            raise UnsupportedKind(f"{self.kind} marginal is a product law; use marginal_log_survival")
        return marginal

    def marginal_log_survival(self, x):
        """log P(X > x): the factors' log-survivals at x, added in their order."""
        first, *rest = (f.log_survival(x) for f in self.factors())
        return sum(rest, first)

    # -- sampling ---------------------------------------------------------------

    def sample(self, n: int, seed: int, stream: int = 0) -> np.ndarray:
        """n iid rows, by `rows`, from the SFC64 stream of chunk `stream` of key (seed,): at n <= `rare_event.CHUNK`, that chunk's rows."""
        check_value("n", n, COUNT)
        return self.rows(_stream(*_seed_key((seed, stream))), n)

    def rows(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """size iid rows of the joint law, drawn from gen (a chunk's SFC64 generator, `_stream`), as a (size, dim) array.

        The bivariate lognormal draws (size, 2) standard normals Z by numpy's
        ziggurat and mixes them as `kernels.equicorr_chunk` does at d = 2,
        W1 = Z0 and W2 = rho Z0 + s Z1, bit for bit; its rows are
        exp(mu + sigma W), the terms the conditional estimator scores at unit
        coefficients.  Every other kind draws uniforms (`_uniforms`) and
        transforms them elementwise by its quantiles.
        """
        return _KINDS[self.kind].rows(self, gen, size)

    # -- joint survival -----------------------------------------------------------

    def joint_log_survival(self, x, y):
        """log P(X > x, Y > y), computed in log space for every kind.

        x and y broadcast against each other; a scalar pair gives a float,
        arrays an array of the broadcast shape with each corner's value.  A
        NaN threshold gives NaN in its own corner only.  Each closed form adds
        log-survivals, so it stays finite where the probability underflows.
        The bivariate lognormal at rho = -1 is the countermonotone overlap;
        inside (-1, 1) it makes one `bivariate_normal_orthant_log` call for
        all its corners, which answers a threshold <= 0 (one margin, and 0
        for both), rho = 0 and an infinite threshold in closed form and every
        other corner by quadrature, capped at its margins.  A model of
        dim != 2 raises UnsupportedKind.
        """
        if self.dim != 2:
            raise UnsupportedKind("the joint survival is a pair quantity")
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = _KINDS[self.kind].log_joint(self, x.ravel(), y.ravel())
        return float(out[0]) if not x.shape else out.reshape(x.shape)

    def integrates(self) -> bool:
        """Whether `joint_log_survival` takes its orthants from the quadrature: a bivariate lognormal with rho not -1 or 0."""
        return _KINDS[self.kind].integrates(self)


# -- bivariate normal orthant via quadrature --------------------------------------


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the orthant's range scan, as offsets from its start: a linear grid, and a geometric
# one for an integrand that falls from t1 faster than the linear spacing resolves
# (by 2e5 nats per unit of z at t1 = t2 = 20, rho = -0.9999, where the linear
# grid alone left the log 1.5e-4 off)
_ORTHANT_SCAN = np.union1d(np.linspace(0.0, 45.0, 401), np.geomspace(1e-6, 45.0, 100))
# a peak of the log integrand below this (thresholds beyond about 1e8) is the orthant's
# value: there log f carries rounding errors of up to hundreds of nats between the rule's
# nodes (and beyond 4e17 every scan point rounds to one value), while the log of the
# integral shifted by the peak lies within about 400 nats of 0, under 2.2e-14 of the value
_PEAK_ONLY = -(2.0**54)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call; nothing calls it, the benchmark tracer wraps it by name."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# a log below -1.8e308, as a sum of two margins' logs or the log integrand can be at
# thresholds near 1.9e154, overflows to -inf, which is its value
@np.errstate(over="ignore")
def bivariate_normal_orthant_log(t1, t2, rho: float):
    """log P(Z1 > t1, Z2 > t2) for standard bivariate normal correlation rho.

    t1 and t2 broadcast against each other; a scalar pair gives a float,
    arrays an array of the broadcast shape, each element bit-identical to its
    own scalar call.  The corners with a closed form answer first: a
    threshold at -inf leaves the other margin, log Phibar(t), and both at
    -inf give 0; rho = 0 gives the product of the margins; a threshold at
    +inf, or one whose margin's log is -inf, gives -inf and a NaN one NaN.
    Where Phi(t1) + Phi(t2) <= 1/2 the orthant is at least 1/2 and may be
    near 1, where the rule's absolute error (about 1e-16) would be the
    log's, so it is taken as log1p(-Phi(t1) - Phi(t2) + P(Z1 > -t1, Z2 >
    -t2)), which cancels at most 2x.  Every other orthant, and each opposite
    one, integrates phi(z) Phibar((t2 - rho z)/sqrt(1 - rho^2)) over z > t1,
    all in one call of `kernels.gauss_legendre`, the rule of the exact d = 2
    pair, and is capped at both margins.  The log
    integrand is concave with curvature >= 1, and the mode of Z1 given
    Z2 > t2 lies within 0.55 of m = rho max(t2, 0), so every point within
    80 nats of the peak lies in [max(t1, m - 13.2), max(t1, m + 0.55) + 12.65].
    One scan of 45 units (`_ORTHANT_SCAN`) from max(t1, m - 22.5) holds that
    range, which `kernels.scan_range` finds with the peak; the rule
    integrates the integrand shifted by the peak, so results stay meaningful
    far below the double-precision underflow threshold; an integrand that
    underflows on the whole scan gives -inf, and a peak below `_PEAK_ONLY`
    (thresholds beyond about 1e8) is the value.  |rho| must be at most
    `kernels._RHO_MAX` = 0.9999.
    """
    check_value("rho", rho, kernels.QUAD_RHO)
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    low1, low2, lsf1, lsf2 = t1 == -math.inf, t2 == -math.inf, norm_log_sf(t1), norm_log_sf(t2)
    out = np.where(low1, np.where(low2, 0.0, lsf2), np.where(low2, lsf1, lsf1 + lsf2))
    inner = np.isfinite(t1) & np.isfinite(t2) & (rho != 0.0)
    if inner.any():
        t1, t2 = t1[inner], t2[inner]
        # where Phi(t1) + Phi(t2) <= 1/2 (so both thresholds are <= 0) the orthant is at least 1/2, and
        # near 1 the rule's absolute error would be the log's own: it is 1 - Phi(t1) - Phi(t2) +
        # P(Z1 > -t1, Z2 > -t2), the opposite orthant, which cancels at most 2x.  Elsewhere the
        # rule's error is relative to P, which the complement's cancellation would not keep
        u1, u2, lsf_u1, lsf_u2 = t1, t2, lsf1[inner], lsf2[inner]
        flip = np.exp(lsf_u1) + np.exp(lsf_u2) >= 1.5
        if flip.any():
            u1, u2 = np.where(flip, -t1, t1), np.where(flip, -t2, t2)
            lsf_u1, lsf_u2 = norm_log_sf(u1), norm_log_sf(u2)
        val = _orthant_rule(u1, u2, lsf_u1, lsf_u2, rho)
        if flip.any():
            # math per corner, for the same bits as a scalar call
            val[flip] = [
                math.log1p(-math.exp(a) - math.exp(b) + math.exp(v))
                for a, b, v in zip(lsf_u1[flip].tolist(), lsf_u2[flip].tolist(), val[flip].tolist())
            ]
        # the rule's absolute error (~1e-16) can lift an orthant near 1 above its margins
        out[inner] = np.minimum(val, np.minimum(lsf1[inner], lsf2[inner]))
    return float(out) if not out.ndim else out


def _orthant_rule(t1, t2, lsf1, lsf2, rho: float) -> np.ndarray:
    """log P(Z1 > t1, Z2 > t2) at 1-D arrays of finite thresholds, with their margins' logs lsf1, lsf2, by the rule.

    A margin whose log is -inf (a threshold above about 1.9e154) makes the
    orthant -inf without a scan, which would square the threshold.
    """
    s = math.sqrt((1.0 - rho) * (1.0 + rho))  # exact to rounding as |rho| -> 1, unlike 1 - rho^2

    def log_f(z, t2):
        return log_ndtr(-(t2 - rho * z) / s) - 0.5 * z * z - _LOG_SQRT_2PI

    out = np.full(len(t1), -math.inf)
    rows = np.isfinite(lsf1) & np.isfinite(lsf2)
    if not rows.any():
        return out
    # one row per orthant and one scan, from 22.5 below m = rho max(t2, 0), clipped to t1
    t1, t2 = t1[rows][:, None], t2[rows][:, None]
    start = np.maximum(t1, rho * np.maximum(t2, 0.0) - 22.5)
    first, last, peak = kernels.scan_range(
        lambda i: log_f(start + _ORTHANT_SCAN[i], t2), len(_ORTHANT_SCAN), np.empty((len(t1), 0), dtype=int)
    )
    # a peak below _PEAK_ONLY (or -inf) is the orthant's value
    live = peak > _PEAK_ONLY
    if live.any():
        shift, t2 = peak[live][:, None], t2[live]
        val = kernels.gauss_legendre(
            lambda z: np.exp(log_f(z, t2) - shift), start[live] + _ORTHANT_SCAN, first[live], last[live],
            np.empty((len(t2), 0)), kernels.step_pieces(s),
        )
        # math.log per orthant, for the same bits as math's log of a scalar call
        peak[live] = [p + math.log(v) for p, v in zip(shift[:, 0].tolist(), val.tolist())]
    out[rows] = peak
    return out


# -- configs ---------------------------------------------------------------------


def joint_from_config(cfg: dict) -> JointModel:
    """Build a JointModel from a JSON-style dict.

    Example: {"kind": "bivariate_lognormal", "mu": 0, "sigma": 1, "rho": -0.9}
    """
    kind = config_tag(cfg, "kind", _KINDS)
    return JointModel(kind, **config_fields(cfg, "kind", _KINDS[kind].fields, _READERS))


def joint_to_config(m: JointModel) -> dict:
    """The config of m; dim is written only when it is not 2."""
    fields = [(k, getattr(m, k)) for k, (d, _) in _KINDS[m.kind].fields.items() if k != "dim" or m.dim != d]
    return {"kind": m.kind, **{k: model_to_config(v) if isinstance(v, TailModel) else v for k, v in fields}}


def iid_pair(marginal: TailModel, dim: int = 2) -> JointModel:
    return JointModel(IID_PAIR, marginal=marginal, dim=dim)


def bivariate_lognormal(mu: float, sigma: float, rho: float) -> JointModel:
    return JointModel(BIVARIATE_LOGNORMAL, mu=mu, sigma=sigma, rho=rho)


def comonotone_inverse(marginal: TailModel) -> JointModel:
    return JointModel(COMONOTONE_INVERSE, marginal=marginal)


def min_construction(alpha: float) -> JointModel:
    return JointModel(MIN_CONSTRUCTION, alpha=alpha)


def mixed_min(base: TailModel, lighter: TailModel) -> JointModel:
    return JointModel(MIXED_MIN, base=base, lighter=lighter)
