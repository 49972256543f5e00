"""Univariate tail models with survival, quantile and auxiliary functions.

Every built-in family has a rapidly varying upper tail (survival(2x)/survival(x)
-> 0), which is why all tail arithmetic here is carried out on log-survival:
at thresholds like x = 2000 the probabilities of interest reach 1e-14 and a
naive 1 - cdf(x) would be pure rounding noise.  The normal tail is evaluated
through the complementary error function, accurate to ~1e-15 relative far into
the tail.

A model is a base family optionally wrapped by `scale * X ** power`
(scale > 0, power > 0).  The transform is applied generically for survival
and quantiles; auxiliary functions are only tabulated for shapes that reduce
to a closed form (see `canonical`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtri

from .errors import AuxiliaryUnavailable

LOGNORMAL = "lognormal"
LOG_WEIBULL = "log_weibull"
LOG_WEIBULL_MIN = "log_weibull_min"
WEIBULL_TYPE = "weibull_type"
EXPONENTIAL = "exponential"
STD_NORMAL = "std_normal"

_MODIFIERS = {"scale": 1.0, "power": 1.0}

# family -> its config keys with their defaults, None marking a required key;
# std_normal takes no power, since a power of a signed variable is undefined
_PARAMS = {
    LOGNORMAL: {"mu": 0.0, "sigma": 1.0, **_MODIFIERS},
    LOG_WEIBULL: {"alpha": None, **_MODIFIERS},
    LOG_WEIBULL_MIN: {"alpha": None, **_MODIFIERS},
    WEIBULL_TYPE: {"alpha": None, **_MODIFIERS},
    EXPONENTIAL: {"rate": 1.0, **_MODIFIERS},
    STD_NORMAL: {"scale": 1.0},
}

# family -> largest value of the base variable X with survival 1
_EDGE = {LOGNORMAL: 0.0, LOG_WEIBULL: 1.0, LOG_WEIBULL_MIN: 1.0, WEIBULL_TYPE: 0.0, EXPONENTIAL: 0.0, STD_NORMAL: -math.inf}


def norm_log_sf(z):
    """log of the standard normal survival function, tail-accurate."""
    return log_ndtr(-np.asarray(z, dtype=float))


def norm_sf(z):
    return np.exp(norm_log_sf(z))


@dataclass(frozen=True)
class AuxiliaryFn:
    """Closed-form auxiliary (scaling) function of a tail model.

    `closed_form` maps x to f(x) > 0 above the support edge; `source` records
    where the form comes from ("von_mises", "mean_excess" or "supplied");
    `diverges` tells whether f(x) -> infinity.
    """

    closed_form: Callable[[np.ndarray], np.ndarray]
    source: str
    diverges: bool

    def __call__(self, x):
        return self.closed_form(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TailModel:
    """A univariate distribution `scale * X ** power` with X from `family`.

    Parameter roles by family:
      lognormal        mu, sigma        survival  Phibar((log x - mu)/sigma)
      log_weibull      alpha > 1        survival  exp(-(log x)^alpha), x > 1
      log_weibull_min  alpha > 1        survival  exp(-2 (log x)^alpha), x > 1
      weibull_type     alpha in (0,1)   survival  exp(-x^alpha), x > 0
      exponential      rate > 0         survival  exp(-rate x), x > 0
      std_normal       (none)           survival  Phibar(x)
    """

    family: str
    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 2.0
    rate: float = 1.0
    scale: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        if self.family not in _PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == LOGNORMAL and not self.sigma > 0:
            raise ValueError("lognormal requires sigma > 0")
        if self.family in (LOG_WEIBULL, LOG_WEIBULL_MIN) and not self.alpha > 1:
            raise ValueError("log-Weibull families require alpha > 1")
        if self.family == WEIBULL_TYPE and not 0 < self.alpha < 1:
            raise ValueError("weibull_type requires alpha in (0, 1)")
        if self.family == EXPONENTIAL and not self.rate > 0:
            raise ValueError("exponential requires rate > 0")
        if not (self.scale > 0 and self.power > 0):
            raise ValueError("scale and power modifiers must be positive")
        if self.family == STD_NORMAL and self.power != 1.0:
            raise ValueError("power transform of a signed variable is undefined")

    # -- support ------------------------------------------------------------

    @property
    def support_edge(self) -> float:
        """Largest x with survival(x) = 1 (or -inf for std_normal)."""
        edge = _EDGE[self.family]
        return edge if edge == -math.inf else self.scale * edge**self.power

    @property
    def nonnegative(self) -> bool:
        return self.support_edge > -math.inf

    # -- transform plumbing ---------------------------------------------------

    def _base_arg(self, x: np.ndarray) -> np.ndarray:
        """Map an observation of scale*X**power back to the base variable X."""
        if self.scale == 1.0 and self.power == 1.0:
            return x
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x > 0, np.exp((np.log(np.where(x > 0, x, 1.0)) - math.log(self.scale)) / self.power), x)
        return out

    def transformed(self, scale: float = 1.0, power: float = 1.0) -> "TailModel":
        """Return the model of `scale * Y ** power` where Y is this model."""
        return replace(self, scale=scale * self.scale**power, power=power * self.power)

    def canonical(self) -> "TailModel":
        """Fold scale/power into base parameters where a closed form exists.

        lognormal absorbs any (scale, power); exponential absorbs scale and,
        for power > 1, turns into a scaled weibull_type; weibull_type absorbs
        power while the transformed shape stays inside (0, 1).  Anything else
        is returned unchanged (still evaluable, but without a tabulated
        auxiliary function).
        """
        s, b = self.scale, self.power
        if s == 1.0 and b == 1.0:
            return self
        if self.family == LOGNORMAL:
            return TailModel(LOGNORMAL, mu=b * self.mu + math.log(s), sigma=b * self.sigma)
        if self.family == EXPONENTIAL:
            if b == 1.0:
                return TailModel(EXPONENTIAL, rate=self.rate / s)
            if b > 1.0:
                # survival exp(-rate (x/s)^(1/b)) = weibull_type(1/b) scaled
                return TailModel(WEIBULL_TYPE, alpha=1.0 / b, scale=s * self.rate**-b)
        if self.family == WEIBULL_TYPE:
            a = self.alpha / b
            if 0 < a < 1:
                return TailModel(WEIBULL_TYPE, alpha=a, scale=s)
        return self

    # -- distribution functions ----------------------------------------------

    def log_survival(self, x):
        """log P(X > x), exact to the floating-point limit (never -inf early).

        Values whose linear-space survival underflows (e.g. weibull_type at
        x = 1e6, where log-survival is -1000) stay finite here.  A NaN x gives
        NaN: each family tests z <= edge for its certain part, which NaN fails.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        z = self._base_arg(x)
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam == LOGNORMAL:
                out = np.where(z <= 0, 0.0, norm_log_sf((np.log(np.where(z <= 0, 1.0, z)) - self.mu) / self.sigma))
            elif fam == LOG_WEIBULL:
                lz = np.log(np.where(z <= 1, np.e, z))
                out = np.where(z <= 1, 0.0, -(lz**self.alpha))
            elif fam == LOG_WEIBULL_MIN:
                lz = np.log(np.where(z <= 1, np.e, z))
                out = np.where(z <= 1, 0.0, -2.0 * lz**self.alpha)
            elif fam == WEIBULL_TYPE:
                out = np.where(z <= 0, 0.0, -np.where(z <= 0, 0.0, z) ** self.alpha)
            elif fam == EXPONENTIAL:
                out = np.where(z <= 0, 0.0, -self.rate * z)
            else:  # std_normal
                out = norm_log_sf(x / self.scale)
        out = np.where(np.isposinf(x), -np.inf, out)
        return float(out[0]) if scalar else out

    def survival(self, x):
        """P(X > x); underflows below ~1e-308 round to 0 (use log_survival there)."""
        return np.exp(self.log_survival(x))

    def cdf(self, x):
        return -np.expm1(self.log_survival(x))

    def quantile(self, p):
        """Inverse cdf; p in [0, 1)."""
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if np.any((p < 0) | (p >= 1)):
            raise ValueError("quantile defined for p in [0, 1)")
        nlog1mp = -np.log1p(-p)  # -log(1-p), accurate near p=1
        fam = self.family
        if fam == LOGNORMAL:
            base = np.exp(self.mu + self.sigma * ndtri(p))
        elif fam == LOG_WEIBULL:
            base = np.exp(nlog1mp ** (1.0 / self.alpha))
        elif fam == LOG_WEIBULL_MIN:
            base = np.exp((nlog1mp / 2.0) ** (1.0 / self.alpha))
        elif fam == WEIBULL_TYPE:
            base = nlog1mp ** (1.0 / self.alpha)
        elif fam == EXPONENTIAL:
            base = nlog1mp / self.rate
        else:
            base = self.scale * ndtri(p)
            return float(base[0]) if scalar else base
        out = self.scale * base**self.power
        return float(out[0]) if scalar else out

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        z = self._base_arg(x)
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = np.where(z > _EDGE[fam], z, np.nan)
            lz = np.log(safe)
            if fam == LOGNORMAL:
                out = -0.5 * ((lz - self.mu) / self.sigma) ** 2 - lz - math.log(self.sigma) - 0.5 * math.log(2 * math.pi)
            elif fam == LOG_WEIBULL:
                out = math.log(self.alpha) + (self.alpha - 1) * np.log(lz) - lz - lz**self.alpha
            elif fam == LOG_WEIBULL_MIN:
                out = math.log(2 * self.alpha) + (self.alpha - 1) * np.log(lz) - lz - 2.0 * lz**self.alpha
            elif fam == WEIBULL_TYPE:
                out = math.log(self.alpha) + (self.alpha - 1) * np.log(safe) - safe**self.alpha
            elif fam == EXPONENTIAL:
                out = math.log(self.rate) - self.rate * safe
            else:
                zz = x / self.scale
                out = -0.5 * zz**2 - 0.5 * math.log(2 * math.pi) - math.log(self.scale)
                out = np.where(np.isfinite(x), out, -np.inf)
                return float(out[0]) if scalar else out
            # jacobian of y = scale * x**power: dx/dy = x / (power * y)
            if self.scale != 1.0 or self.power != 1.0:
                out = out + (1.0 - self.power) * lz - math.log(self.power) - math.log(self.scale)
        out = np.where(np.isnan(out), -np.inf, out)
        return float(out[0]) if scalar else out

    def density(self, x):
        return np.exp(self.log_density(x))

    # -- auxiliary function ---------------------------------------------------

    def auxiliary(self) -> AuxiliaryFn:
        """Closed-form auxiliary function f of the model.

        Mean-excess-based forms drop their (1 + o(1)) factor; asymptotically
        equivalent auxiliary functions are interchangeable for every use in
        this package.  Raises AuxiliaryUnavailable for scale/power shapes
        that do not reduce to a tabulated family (re-express the model first,
        e.g. through `canonical`).
        """
        m = self.canonical()
        if m.scale != 1.0 or m.power != 1.0:
            if not (m.family == WEIBULL_TYPE and m.power == 1.0):
                raise AuxiliaryUnavailable(
                    f"no tabulated auxiliary function for {self.family} with scale={self.scale}, power={self.power}"
                )
        fam = m.family
        if fam == LOGNORMAL:
            mu, sig2 = m.mu, m.sigma**2
            return AuxiliaryFn(lambda x: sig2 * x / (np.log(x) - mu), "mean_excess", True)
        if fam == LOG_WEIBULL:
            a = m.alpha
            return AuxiliaryFn(lambda x: x / (a * np.log(x) ** (a - 1.0)), "von_mises", True)
        if fam == LOG_WEIBULL_MIN:
            a = m.alpha
            return AuxiliaryFn(lambda x: x / (2.0 * a * np.log(x) ** (a - 1.0)), "von_mises", True)
        if fam == WEIBULL_TYPE:
            a, s = m.alpha, m.scale
            return AuxiliaryFn(lambda x: (s**a) * x ** (1.0 - a) / a, "von_mises", True)
        if fam == EXPONENTIAL:
            r = m.rate
            return AuxiliaryFn(lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / r), "von_mises", False)
        # std_normal: standard Von Mises choice
        return AuxiliaryFn(lambda x: 1.0 / np.asarray(x, dtype=float), "von_mises", False)


def self_neglect_profile(aux: AuxiliaryFn, x_grid, t: float):
    """f(x + t f(x)) / f(x) along a strictly increasing grid.

    Converges to 1 for a self-neglecting auxiliary function; diagnostics use
    this to show the convergence rather than assert the limit.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be strictly increasing")
    fx = aux(x)
    return aux(x + t * fx) / fx


# -- constructors -------------------------------------------------------------


def lognormal(mu: float = 0.0, sigma: float = 1.0, scale: float = 1.0, power: float = 1.0) -> TailModel:
    return TailModel(LOGNORMAL, mu=mu, sigma=sigma, scale=scale, power=power)


def log_weibull(alpha: float, scale: float = 1.0, power: float = 1.0) -> TailModel:
    return TailModel(LOG_WEIBULL, alpha=alpha, scale=scale, power=power)


def log_weibull_min(alpha: float, scale: float = 1.0, power: float = 1.0) -> TailModel:
    return TailModel(LOG_WEIBULL_MIN, alpha=alpha, scale=scale, power=power)


def weibull_type(alpha: float, scale: float = 1.0, power: float = 1.0) -> TailModel:
    return TailModel(WEIBULL_TYPE, alpha=alpha, scale=scale, power=power)


def exponential(rate: float = 1.0, scale: float = 1.0, power: float = 1.0) -> TailModel:
    return TailModel(EXPONENTIAL, rate=rate, scale=scale, power=power)


def std_normal(scale: float = 1.0) -> TailModel:
    return TailModel(STD_NORMAL, scale=scale)


_FAMILY_ALIASES = {"log_normal": LOGNORMAL, "logweibull": LOG_WEIBULL, "stdnormal": STD_NORMAL}


def config_number(v) -> float:
    """A finite JSON number as a float; booleans, strings and null are refused."""
    # abs(v) <= the largest float also refuses nan, inf and ints too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def config_integer(v) -> int:
    """A JSON number with an integral value, as an int."""
    if config_number(v) != int(v):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def config_tag(cfg, tag: str, names, aliases=None) -> str:
    """The entry of `names` that cfg[tag] names, case-insensitively or through `aliases`."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a config must be a JSON object, got {cfg!r}")
    if tag not in cfg:
        raise ValueError(f"config needs a {tag!r} key")
    name = str(cfg[tag]).lower()
    name = (aliases or {}).get(name, name)
    if name not in names:
        raise ValueError(f"unknown {tag} {cfg[tag]!r}")
    return name


def config_fields(cfg: dict, tag: str, fields: dict, readers=None) -> dict:
    """Keyword arguments read from every key of cfg but `tag`.

    `fields` maps each key the config may hold to its default, None marking
    a required key; a value is read by readers[key], by default as a number.
    A key outside `fields`, a missing required key or a value its reader
    refuses raises ValueError naming the key.
    """
    unknown = sorted(set(cfg) - set(fields) - {tag})
    if unknown:
        raise ValueError(f"unknown config keys for {cfg[tag]!r}: {unknown}")
    kw = {}
    for key, default in fields.items():
        if key in cfg:
            try:
                kw[key] = (readers or {}).get(key, config_number)(cfg[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        elif default is None:
            raise ValueError(f"{cfg[tag]!r} config needs the key {key!r}")
        else:
            kw[key] = default
    return kw


def model_from_config(cfg: dict) -> TailModel:
    """Build a TailModel from a JSON-style dict; 'lambda' is an alias of 'rate'.

    Example: {"family": "lognormal", "mu": 0.0, "sigma": 1.0,
              "scale": 1.0, "power": 1.0}
    """
    fam = config_tag(cfg, "family", _PARAMS, _FAMILY_ALIASES)
    if "lambda" in cfg and "rate" in _PARAMS[fam]:
        if "rate" in cfg:
            raise ValueError("give 'rate' or its alias 'lambda', not both")
        cfg = {("rate" if k == "lambda" else k): v for k, v in cfg.items()}
    return TailModel(fam, **config_fields(cfg, "family", _PARAMS[fam]))


def model_to_config(m: TailModel) -> dict:
    """The config of m; the modifiers are written only where they transform."""
    params = _PARAMS[m.family].items()
    return {"family": m.family, **{k: getattr(m, k) for k, d in params if k not in _MODIFIERS or getattr(m, k) != d}}
