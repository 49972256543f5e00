"""Bivariate dependence structures with seeded samplers and closed forms.

Sampling is inverse-CDF on a counter-based Philox stream (no ziggurat, no
Box-Muller).  A stream is named by a seed and a spawn key of further words,
through numpy's `SeedSequence(seed, spawn_key=...)`, so any key regenerates
the same draws and distinct keys name distinct streams.  Determinism outranks
raw speed here.
A draw is two steps: `_uniforms` fills an array from the stream, and
`JointModel.rows` transforms it elementwise into rows of the joint law.  So
the Monte Carlo estimators can draw a chunk block by block into reused
scratch and get, row for row, what `JointModel.sample` returns for the
whole chunk.

The joint survival P(X > x, Y > y) has one route, `joint_log_survival`, which
works in log space for every kind.  It is exact for every kind except the
bivariate lognormal with rho strictly inside (-1, 1), whose orthant
probabilities have no closed form; those are computed by adaptive 1-d
quadrature on an exponent-shifted integrand (absolute tolerance 1e-14 after
shifting).  Both stay accurate far below the double-precision underflow
threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtri

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

    def joint_log_survival(self, x: float, y: float) -> float:
        """log P(X > x, Y > y), computed in log space for every kind.

        Each closed form adds log-survivals, so it stays finite where the
        probability underflows; a bivariate lognormal with rho in (-1, 1) goes
        through the orthant quadrature, except at rho = 0 and where a
        threshold is <= 0 (a one-margin or trivial orthant).
        """
        kind = self.kind
        if kind == IID_PAIR:
            if self.dim != 2:
                raise UnsupportedKind("the joint survival is a pair quantity")
            return self.marginal.log_survival(x) + self.marginal.log_survival(y)
        if kind == COMONOTONE_INVERSE:
            return _countermonotone_log_overlap(self.marginal, x, y)
        if kind == MIN_CONSTRUCTION:
            f = log_weibull(self.alpha)
            return f.log_survival(x) + f.log_survival(max(x, y)) + f.log_survival(y)
        if kind == MIXED_MIN:
            # countermonotone overlap of the base pair times the independent minima
            lighter = self.lighter.log_survival(x) + self.lighter.log_survival(y)
            return _countermonotone_log_overlap(self.base, x, y) + lighter
        if self.rho == -1.0:
            # Y = exp(2 mu) / X: the pair is countermonotone
            return _countermonotone_log_overlap(lognormal(self.mu, self.sigma), x, y)
        if x <= 0 and y <= 0:
            return 0.0
        t1 = (math.log(x) - self.mu) / self.sigma if x > 0 else -math.inf
        t2 = (math.log(y) - self.mu) / self.sigma if y > 0 else -math.inf
        if t1 == -math.inf:
            return float(norm_log_sf(t2))
        if t2 == -math.inf:
            return float(norm_log_sf(t1))
        if self.rho == 0.0:
            return float(norm_log_sf(t1) + norm_log_sf(t2))
        return bivariate_normal_orthant_log(t1, t2, self.rho)


def _countermonotone_log_overlap(marginal: TailModel, x, y) -> float:
    """log P(Q(U) > x, Q(1 - U) > y): the log length of the U-interval F(x) < U < 1 - F(y).

    The length is sf(a) - F(b), a the threshold with the smaller survival, and
    is formed as log sf(a) + log1p(-F(b)/sf(a)), so neither a deep sf(a) nor a
    small F(b) is lost to the cancellation in sf(x) + sf(y) - 1.
    """
    log_sf_a, log_sf_b = sorted((marginal.log_survival(x), marginal.log_survival(y)))
    cdf_b = -math.expm1(log_sf_b)
    if cdf_b == 0.0:
        return log_sf_a
    log_ratio = math.log(cdf_b) - log_sf_a
    return log_sf_a + math.log1p(-math.exp(log_ratio)) if log_ratio < 0.0 else -math.inf


# -- bivariate normal orthant via quadrature --------------------------------------


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call.

    scipy.integrate pulls in scipy.optimize, linalg, sparse and more (about
    0.4 s), and only the orthant quadrature needs it, so a command that runs
    no quadrature never loads it.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _norm_log_pdf(z: float) -> float:
    return -0.5 * z * z - _LOG_SQRT_2PI


def bivariate_normal_orthant_log(t1: float, t2: float, rho: float) -> float:
    """log P(Z1 > t1, Z2 > t2) for standard bivariate normal correlation rho.

    Integrates Phibar((t2 - rho z)/sqrt(1-rho^2)) over the conditional law of
    Z1 above t1.  The integrand is shifted by its peak exponent before adaptive
    quadrature (absolute tolerance 1e-14 on the shifted integrand), so results
    are meaningful even when the orthant probability underflows double
    precision in linear space.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1, 1)")
    s = math.sqrt(1.0 - rho * rho)
    log_sf1 = float(log_ndtr(-t1))

    def log_integrand(z: float) -> float:
        return float(log_ndtr(-(t2 - rho * z) / s)) + _norm_log_pdf(z) - log_sf1

    # locate the peak on a coarse grid, then integrate the shifted integrand;
    # the scan is log_integrand's arithmetic, elementwise in the same order
    hi = t1 + 45.0
    zs = np.linspace(t1, hi, 200)
    logs = log_ndtr(-(t2 - rho * zs) / s) + (-0.5 * zs * zs - _LOG_SQRT_2PI) - log_sf1
    shift = float(np.max(logs))
    if shift == -math.inf:
        return -math.inf

    val, _ = quad(lambda z: math.exp(log_integrand(z) - shift), t1, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    if val <= 0.0:
        return -math.inf
    return shift + math.log(val) + log_sf1


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
