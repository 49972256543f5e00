"""Bivariate dependence structures with seeded samplers and closed forms.

Sampling from a joint model is inverse-CDF on a counter-based Philox stream:
every kind is a transform of uniforms.  A stream is named by a seed and a
spawn key of further words, through numpy's `SeedSequence(seed,
spawn_key=...)`, so any key regenerates the same draws and distinct keys name
distinct streams.
A draw is two steps: `_uniforms` fills an array from the stream, and
`JointModel.rows` transforms it elementwise into rows of the joint law.  So
plain Monte Carlo can draw a chunk block by block into reused scratch and
get, row for row, what `JointModel.sample` returns for the whole chunk.  The
conditional estimator (`rare_event`) needs only standard normals, and draws
them from its chunk's Philox stream directly, by numpy's ziggurat; one
generator per chunk, filled block after block in order, keeps those draws
the same at any block size and worker count.

The joint survival P(X > x, Y > y) has one route, `joint_log_survival`, which
works in log space for every kind, at a corner or at arrays of corners.  It
is exact for every kind except the bivariate lognormal with rho strictly
inside (-1, 1), whose orthant probabilities have no closed form; those are
computed by 1-d Gauss-Legendre quadrature (`kernels.gauss_legendre`, the rule
of the exact d = 2 pair) of the integrand shifted by its peak log value, one
row per corner and one call for all of them.  Both stay accurate far below
the double-precision underflow threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtri

from . import kernels
from .errors import UnsupportedKind
from .models import (
    TailModel,
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

# kind -> its config keys with their defaults, None marking a required key
_FIELDS = {
    IID_PAIR: {"marginal": None, "dim": 2},
    BIVARIATE_LOGNORMAL: {"mu": 0.0, "sigma": 1.0, "rho": None},
    COMONOTONE_INVERSE: {"marginal": None},
    MIN_CONSTRUCTION: {"alpha": None},
    MIXED_MIN: {"base": None, "lighter": None},
}
# uniforms each pair construction turns into one row
_UNIFORMS_PER_ROW = {BIVARIATE_LOGNORMAL: 2, COMONOTONE_INVERSE: 1, MIN_CONSTRUCTION: 3, MIXED_MIN: 3}
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
    """Philox generator for `SeedSequence(seed, spawn_key=spawn_key)`: the one way a key becomes draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous out with gen's next uniforms, clipped into (0, 1); return out.

    The clip keeps ndtri and the quantiles finite.  Successive calls continue
    gen's stream, so filling the row blocks of an array one after another
    gives the same values as one fill of the whole.
    """
    gen.random(out=out)
    return np.clip(out, _U_LO, _U_HI, out=out)


@dataclass(frozen=True)
class JointModel:
    """A d-variate dependence structure (d = 2 except iid_pair).

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
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.kind != IID_PAIR and self.dim != 2:
            raise ValueError(f"{self.kind} is a pair construction (dim = 2)")
        if self.kind == BIVARIATE_LOGNORMAL:
            if not -1.0 <= self.rho < 1.0:
                raise ValueError("bivariate_lognormal requires rho in [-1, 1)")
            if not self.sigma > 0:
                raise ValueError("sigma must be positive")
        if self.kind in (IID_PAIR, COMONOTONE_INVERSE) and self.marginal is None:
            raise ValueError(f"{self.kind} requires a marginal model")
        if self.kind == MIN_CONSTRUCTION and not self.alpha > 1:
            raise ValueError("min_construction requires alpha > 1")
        if self.kind == MIXED_MIN and (self.base is None or self.lighter is None):
            raise ValueError("mixed_min requires base and lighter models")

    # -- marginals ------------------------------------------------------------

    def marginal_model(self, i: int = 0) -> TailModel:
        """The i-th marginal as a TailModel, where one exists in the catalog."""
        if self.kind == IID_PAIR or self.kind == COMONOTONE_INVERSE:
            return self.marginal
        if self.kind == BIVARIATE_LOGNORMAL:
            return lognormal(self.mu, self.sigma)
        if self.kind == MIN_CONSTRUCTION:
            return log_weibull_min(self.alpha)
        raise UnsupportedKind("mixed_min marginal is a product law; use marginal_log_survival")

    def marginal_log_survival(self, i: int, x):
        if self.kind == MIXED_MIN:
            return self.base.log_survival(x) + self.lighter.log_survival(x)
        return self.marginal_model(i).log_survival(x)

    # -- sampling ---------------------------------------------------------------

    @property
    def uniform_dim(self) -> int:
        """Uniforms per row: the width of the block `rows` takes."""
        return self.dim if self.kind == IID_PAIR else _UNIFORMS_PER_ROW[self.kind]

    def sample(self, n: int, seed: int, stream: int = 0) -> np.ndarray:
        """n iid rows from the joint law: the rows of chunk `stream` of key (seed,), drawn whole."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.rows(_uniforms(_stream(*_seed_key((seed, stream))), np.empty((n, self.uniform_dim))))

    def rows(self, u: np.ndarray) -> np.ndarray:
        """Rows of the joint law from a (k, uniform_dim) block of uniforms in (0, 1).

        Every step is elementwise along the rows, so the rows of a block equal
        the same rows of a transform of the whole array.
        """
        kind = self.kind
        if kind == IID_PAIR:
            return self.marginal.quantile(u)
        if kind == BIVARIATE_LOGNORMAL:
            g = ndtri(u)
            z1 = g[:, 0]
            z2 = self.rho * g[:, 0] + math.sqrt(1.0 - self.rho * self.rho) * g[:, 1]
            return np.exp(self.mu + self.sigma * np.column_stack([z1, z2]))
        if kind == COMONOTONE_INVERSE:
            u = u[:, 0]
            v = np.clip(1.0 - u, _U_LO, _U_HI)
            return np.column_stack([self.marginal.quantile(u), self.marginal.quantile(v)])
        if kind == MIN_CONSTRUCTION:
            c = log_weibull(self.alpha).quantile(u)
            return np.column_stack([np.minimum(c[:, 0], c[:, 1]), np.minimum(c[:, 1], c[:, 2])])
        # mixed_min
        v = np.clip(1.0 - u[:, 0], _U_LO, _U_HI)
        x = np.minimum(self.base.quantile(u[:, 0]), self.lighter.quantile(u[:, 1]))
        y = np.minimum(self.base.quantile(v), self.lighter.quantile(u[:, 2]))
        return np.column_stack([x, y])

    # -- joint survival -----------------------------------------------------------

    def joint_log_survival(self, x, y):
        """log P(X > x, Y > y), computed in log space for every kind.

        x and y broadcast against each other; a scalar pair gives a float,
        arrays an array of the broadcast shape with each corner's value.  A
        NaN threshold gives NaN in its own corner only.  Each closed form adds
        log-survivals, so it stays finite where the probability underflows; a
        bivariate lognormal with rho in (-1, 1) goes through one orthant
        quadrature call for all its corners, except at rho = 0 and where a
        threshold is <= 0 (a one-margin or trivial orthant).
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        kind = self.kind
        if kind == IID_PAIR:
            if self.dim != 2:
                raise UnsupportedKind("the joint survival is a pair quantity")
            out = self.marginal.log_survival(x) + self.marginal.log_survival(y)
        elif kind == COMONOTONE_INVERSE:
            out = _countermonotone_log_overlap(self.marginal, x, y)
        elif kind == MIN_CONSTRUCTION:
            f = log_weibull(self.alpha)
            out = f.log_survival(x) + f.log_survival(np.maximum(x, y)) + f.log_survival(y)
        elif kind == MIXED_MIN:
            # countermonotone overlap of the base pair times the independent minima
            lighter = self.lighter.log_survival(x) + self.lighter.log_survival(y)
            out = _countermonotone_log_overlap(self.base, x, y) + lighter
        elif self.rho == -1.0:
            # Y = exp(2 mu) / X: the pair is countermonotone
            out = _countermonotone_log_overlap(lognormal(self.mu, self.sigma), x, y)
        else:
            # math.log per corner: numpy's log rounds some values differently in the last bit,
            # and the check outputs are pinned to math's; a NaN threshold gives a NaN t, not -inf
            t1, t2 = (
                np.array([(math.log(v) - self.mu) / self.sigma if not v <= 0 else -math.inf for v in c.tolist()])
                for c in (x, y)
            )
            # a threshold <= 0 leaves one margin, or none; rho = 0 the product of the two
            lsf1, lsf2 = norm_log_sf(t1), norm_log_sf(t2)
            out = np.where(t1 == -math.inf, lsf2, np.where(t2 == -math.inf, lsf1, lsf1 + lsf2))
            out[(t1 == -math.inf) & (t2 == -math.inf)] = 0.0
            inner = (t1 > -math.inf) & (t2 > -math.inf)
            if self.rho != 0.0 and inner.any():
                out[inner] = bivariate_normal_orthant_log(t1[inner], t2[inner], self.rho)
        return float(out[0]) if not shape else out.reshape(shape)


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


# -- bivariate normal orthant via quadrature --------------------------------------


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the orthant's range scan, as offsets from t1: a linear grid, and a geometric one
# for an integrand that falls from t1 faster than the linear spacing resolves
# (by 2e5 nats per unit of z at t1 = t2 = 20, rho = -0.9999, where the linear
# grid alone left the log 1.5e-4 off)
_ORTHANT_SCAN = np.union1d(np.linspace(0.0, 45.0, 401), np.geomspace(1e-6, 45.0, 100))


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call; nothing calls it, the benchmark tracer wraps it by name."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def bivariate_normal_orthant_log(t1, t2, rho: float):
    """log P(Z1 > t1, Z2 > t2) for standard bivariate normal correlation rho.

    t1 and t2 broadcast against each other; a scalar pair gives a float,
    arrays an array of the broadcast shape, each element bit-identical to its
    own scalar call.  Each one integrates phi(z) Phibar((t2 - rho z)/sqrt(1 - rho^2))
    over z > t1, all in one call of `kernels.gauss_legendre`, the rule of the
    exact d = 2 pair.  A scan of the log integrand over [t1, t1 + 45]
    (`_ORTHANT_SCAN`) finds its peak and the range within 80 nats of it; the
    rule integrates the integrand shifted by the peak, so results stay
    meaningful far below the double-precision underflow threshold.  |rho|
    must be at most `kernels._RHO_MAX` = 0.9999; a NaN threshold gives NaN,
    and an orthant whose integrand is 0 on the whole scan (t1 or t2 = inf)
    gives -inf.
    """
    kernels.check_rho(rho)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))  # exact to rounding as |rho| -> 1, unlike 1 - rho^2
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    shape = t1.shape

    def log_f(z, t2):
        return log_ndtr(-(t2 - rho * z) / s) - 0.5 * z * z - _LOG_SQRT_2PI

    # one row per orthant: its scan, and its peak
    t2 = t2.reshape(-1, 1)
    scan = t1.reshape(-1, 1) + _ORTHANT_SCAN
    logs = log_f(scan, t2)
    out = logs.max(axis=1)
    live = np.isfinite(out)  # a NaN or -inf peak is the orthant's value
    if live.any():
        shift = out[live][:, None]
        keep = logs[live] >= shift - kernels._RANGE_NATS
        first, last = np.argmax(keep, axis=1), keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        t2 = t2[live]
        val = kernels.gauss_legendre(
            lambda z: np.exp(log_f(z, t2) - shift), scan[live], first, last, np.empty((len(t2), 0)), kernels.step_pieces(s)
        )
        # math.log per orthant, for the same bits as math's log of a scalar call
        out[live] = [p + math.log(v) for p, v in zip(shift[:, 0].tolist(), val.tolist())]
    return float(out[0]) if not shape else out.reshape(shape)


# -- configs ---------------------------------------------------------------------


def joint_from_config(cfg: dict) -> JointModel:
    """Build a JointModel from a JSON-style dict.

    Example: {"kind": "bivariate_lognormal", "mu": 0, "sigma": 1, "rho": -0.9}
    """
    kind = config_tag(cfg, "kind", _FIELDS)
    return JointModel(kind, **config_fields(cfg, "kind", _FIELDS[kind], _READERS))


def joint_to_config(m: JointModel) -> dict:
    """The config of m; dim is written only when it is not 2."""
    fields = [(k, getattr(m, k)) for k, d in _FIELDS[m.kind].items() if k != "dim" or m.dim != d]
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
