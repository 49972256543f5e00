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

import functools
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, fields as dataclass_fields, replace
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

# the values a parameter may take: test(v) says whether v is one, text names them in an error
Domain = namedtuple("Domain", "test text")

# the shared parameter domains; a NaN fails every comparison, so no domain holds it
FINITE = Domain(math.isfinite, "finite")
POSITIVE = Domain(lambda v: 0.0 < v < math.inf, "positive and finite")
NONNEGATIVE = Domain(lambda v: 0.0 <= v < math.inf, "finite and >= 0")
ABOVE_ONE = Domain(lambda v: 1.0 < v < math.inf, "in (1, inf)")
UNIT = Domain(lambda v: 0.0 < v < 1.0, "in (0, 1)")
COUNT = Domain(lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1, "an integer >= 1")
MODEL = Domain(lambda v: isinstance(v, TailModel), "a TailModel")


def check_value(name: str, value, domain: Domain, error=ValueError) -> None:
    """Raise `error` naming `name` unless value, or each entry of a list, tuple or array value, lies in domain."""
    # on the few values of a call Python beats numpy's ufunc set-up
    for v in np.ravel(value).tolist() if isinstance(value, (list, tuple, np.ndarray)) else (value,):
        if not domain.test(v):
            raise error(f"{name} must be {domain.text}, got {v!r}")


def check_fields(fields: dict, **values) -> None:
    """check_value each keyword value whose key `fields` declares, against its declared domain."""
    for key, value in values.items():
        if key in fields:
            check_value(key, value, fields[key][1])


def check_unread(model, declared: dict) -> None:
    """Raise ValueError naming each field of the dataclass model that `declared` does not declare and that is off its default.

    The first field, the family or kind, names the declaration and is not checked.
    """
    tag, *rest = dataclass_fields(model)
    unread = [f.name for f in rest if f.name not in declared and getattr(model, f.name) != f.default]
    if unread:
        raise ValueError(f"{getattr(model, tag.name)} does not read {', '.join(unread)}")


_MODIFIERS = {"scale": (1.0, POSITIVE), "power": (1.0, POSITIVE)}
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def norm_log_sf(z):
    """log of the standard normal survival function, tail-accurate."""
    return log_ndtr(-np.asarray(z, dtype=float))


def norm_sf(z):
    return np.exp(norm_log_sf(z))


# a tail family: `params` maps its config keys to (default, domain), None marking a
# required key, and `edge` is the largest value of its base variable X with survival 1.
# The forms take the model m and act on X above the edge: log_sf(m, z) is log P(X > z),
# quantile(m, p, e) the p-quantile given e = -log(1 - p), log_pdf(m, z, lz) the log
# density given lz = log z, and aux(m) the (closed form, source, diverges) of AuxiliaryFn
_Family = namedtuple("_Family", "params edge log_sf quantile log_pdf aux")
_FAMILIES = {
    LOGNORMAL: _Family(
        {"mu": (0.0, FINITE), "sigma": (1.0, POSITIVE), **_MODIFIERS},
        0.0,
        lambda m, z: norm_log_sf((np.log(z) - m.mu) / m.sigma),
        lambda m, p, e: np.exp(m.mu + m.sigma * ndtri(p)),
        lambda m, z, lz: -0.5 * ((lz - m.mu) / m.sigma) ** 2 - lz - math.log(m.sigma) - _HALF_LOG_2PI,
        lambda m: (lambda x: m.sigma**2 * x / (np.log(x) - m.mu), "mean_excess", True),
    ),
    LOG_WEIBULL: _Family(
        {"alpha": (None, ABOVE_ONE), **_MODIFIERS},
        1.0,
        lambda m, z: -(np.log(z) ** m.alpha),
        lambda m, p, e: np.exp(e ** (1.0 / m.alpha)),
        lambda m, z, lz: math.log(m.alpha) + (m.alpha - 1) * np.log(lz) - lz - lz**m.alpha,
        lambda m: (lambda x: x / (m.alpha * np.log(x) ** (m.alpha - 1.0)), "von_mises", True),
    ),
    LOG_WEIBULL_MIN: _Family(
        {"alpha": (None, ABOVE_ONE), **_MODIFIERS},
        1.0,
        lambda m, z: -2.0 * np.log(z) ** m.alpha,
        lambda m, p, e: np.exp((e / 2.0) ** (1.0 / m.alpha)),
        lambda m, z, lz: math.log(2 * m.alpha) + (m.alpha - 1) * np.log(lz) - lz - 2.0 * lz**m.alpha,
        lambda m: (lambda x: x / (2.0 * m.alpha * np.log(x) ** (m.alpha - 1.0)), "von_mises", True),
    ),
    WEIBULL_TYPE: _Family(
        {"alpha": (None, UNIT), **_MODIFIERS},
        0.0,
        lambda m, z: -(z**m.alpha),
        lambda m, p, e: e ** (1.0 / m.alpha),
        lambda m, z, lz: math.log(m.alpha) + (m.alpha - 1) * lz - z**m.alpha,
        lambda m: (lambda x: (m.scale**m.alpha) * x ** (1.0 - m.alpha) / m.alpha, "von_mises", True),
    ),
    EXPONENTIAL: _Family(
        {"rate": (1.0, POSITIVE), **_MODIFIERS},
        0.0,
        lambda m, z: -m.rate * z,
        lambda m, p, e: e / m.rate,
        lambda m, z, lz: math.log(m.rate) - m.rate * z,
        lambda m: (lambda x: np.full_like(x, 1.0 / m.rate), "von_mises", False),
    ),
    # no power, since a power of a signed variable is undefined
    STD_NORMAL: _Family(
        {"scale": _MODIFIERS["scale"]},
        -math.inf,
        lambda m, z: norm_log_sf(z),
        lambda m, p, e: ndtri(p),
        lambda m, z, lz: -0.5 * z**2 - _HALF_LOG_2PI,
        lambda m: (lambda x: 1.0 / x, "von_mises", False),
    ),
}


def _elementwise(form):
    """Make form(model, a), which maps a 1-d float array a, take and return a scalar or an array."""
    @functools.wraps(form)
    def method(self, values):
        a = np.asarray(values, dtype=float)
        out = form(self, np.atleast_1d(a))
        return float(out[0]) if a.ndim == 0 else out

    return method


@dataclass(frozen=True)
class AuxiliaryFn:
    """Closed-form auxiliary (scaling) function of a tail model.

    `closed_form` maps a float array x to f(x) > 0 above the support edge;
    `source` records where the form comes from ("von_mises", "mean_excess" or
    "supplied"); `diverges` tells whether f(x) -> infinity.
    """

    closed_form: Callable[[np.ndarray], np.ndarray]
    source: str
    diverges: bool

    def __call__(self, x):
        return self.closed_form(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TailModel:
    """A univariate distribution `scale * X ** power` with X from `family`.

    Each family is declared once, in `_FAMILIES`: its parameter domains, its
    support edge and the formulas of X.  Parameter roles by family:
      lognormal        mu, sigma   survival  Phibar((log x - mu)/sigma)
      log_weibull      alpha       survival  exp(-(log x)^alpha), x > 1
      log_weibull_min  alpha       survival  exp(-2 (log x)^alpha), x > 1
      weibull_type     alpha       survival  exp(-x^alpha), x > 0
      exponential      rate        survival  exp(-rate x), x > 0
      std_normal       (none)      survival  Phibar(x)
    """

    family: str
    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 2.0
    rate: float = 1.0
    scale: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        check_fields(_FAMILIES[self.family].params, **vars(self))
        check_unread(self, _FAMILIES[self.family].params)

    # -- support ------------------------------------------------------------

    @property
    def support_edge(self) -> float:
        """Largest x with survival(x) = 1 (or -inf for std_normal)."""
        return self.scale * _FAMILIES[self.family].edge ** self.power

    @property
    def nonnegative(self) -> bool:
        return self.support_edge > -math.inf

    # -- transform plumbing ---------------------------------------------------

    def _base_arg(self, x: np.ndarray) -> np.ndarray:
        """Map an observation of scale*X**power back to the base variable X."""
        if self.scale == 1.0 and self.power == 1.0:
            return x
        if not self.nonnegative:  # a signed X takes no power
            return x / self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0, np.exp((np.log(np.where(x > 0, x, 1.0)) - math.log(self.scale)) / self.power), x)

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

    @_elementwise
    def log_survival(self, x):
        """log P(X > x), exact to the floating-point limit (never -inf early).

        Values whose linear-space survival underflows (e.g. weibull_type at
        x = 1e6, where log-survival is -1000) stay finite here.  A NaN x gives
        NaN: the certain part is z <= edge, which NaN fails.
        """
        fam = _FAMILIES[self.family]
        z = self._base_arg(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam.edge == -math.inf:  # no certain part; log_sf(-inf) is the -0.0 this keeps
                out = fam.log_sf(self, z)
            else:
                out = np.where(z <= fam.edge, 0.0, fam.log_sf(self, np.where(z > fam.edge, z, np.nan)))
        return np.where(np.isposinf(x), -np.inf, out)

    def survival(self, x):
        """P(X > x); underflows below ~1e-308 round to 0 (use log_survival there)."""
        return np.exp(self.log_survival(x))

    def cdf(self, x):
        return -np.expm1(self.log_survival(x))

    @_elementwise
    def quantile(self, p):
        """Inverse cdf; p in [0, 1)."""
        if np.any((p < 0) | (p >= 1)):
            raise ValueError("quantile defined for p in [0, 1)")
        base = _FAMILIES[self.family].quantile(self, p, -np.log1p(-p))  # -log(1-p), accurate near p=1
        return self.scale * base**self.power

    @_elementwise
    def log_density(self, x):
        """log of the density at x: -inf outside the support and at +-inf, NaN at a NaN x."""
        fam = _FAMILIES[self.family]
        z = self._base_arg(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = np.where(z > fam.edge, z, np.nan)
            lz = np.log(safe)
            out = fam.log_pdf(self, safe, lz)
            # jacobian of y = scale * x**power: dx/dy = x / (power * y)
            if self.power != 1.0:
                out = out + (1.0 - self.power) * lz - math.log(self.power)
            if self.scale != 1.0:
                out = out - math.log(self.scale)
        return np.where(np.isnan(out) & ~np.isnan(x), -np.inf, out)

    def density(self, x):
        return np.exp(self.log_density(x))

    # -- auxiliary function ---------------------------------------------------

    def auxiliary(self) -> AuxiliaryFn:
        """Closed-form auxiliary function f of the model.

        Mean-excess-based forms drop their (1 + o(1)) factor; asymptotically
        equivalent auxiliary functions are interchangeable for every use in
        this package.  Raises AuxiliaryUnavailable for scale/power shapes
        that do not reduce to a tabulated family (re-express the model first,
        e.g. through `canonical`); only weibull_type's form reads a scale.
        """
        m = self.canonical()
        if (m.scale != 1.0 or m.power != 1.0) and not (m.family == WEIBULL_TYPE and m.power == 1.0):
            raise AuxiliaryUnavailable(
                f"no tabulated auxiliary function for {self.family} with scale={self.scale}, power={self.power}"
            )
        return AuxiliaryFn(*_FAMILIES[m.family].aux(m))


def self_neglect_profile(aux: AuxiliaryFn, x_grid, t: float):
    """f(x + t f(x)) / f(x) along a strictly increasing grid.

    Converges to 1 for a self-neglecting auxiliary function, so the profile
    shows the convergence rather than asserting the limit.  Nothing in the
    package calls it; it is public API.
    """
    check_value("t", t, FINITE)
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or len(x) < 2 or not np.all(np.diff(x) > 0):  # NaN fails too
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

    `fields` maps each key the config may hold to its (default, domain),
    a default of None marking a required key; a value is read by
    readers[key], by default as a number.
    A key outside `fields`, a missing required key or a value its reader
    refuses raises ValueError naming the key.
    """
    unknown = sorted(set(cfg) - set(fields) - {tag})
    if unknown:
        raise ValueError(f"unknown config keys for {cfg[tag]!r}: {unknown}")
    kw = {}
    for key, (default, _) in fields.items():
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
    fam = config_tag(cfg, "family", _FAMILIES, _FAMILY_ALIASES)
    params = _FAMILIES[fam].params
    if "lambda" in cfg and "rate" in params:
        if "rate" in cfg:
            raise ValueError("give 'rate' or its alias 'lambda', not both")
        cfg = {("rate" if k == "lambda" else k): v for k, v in cfg.items()}
    return TailModel(fam, **config_fields(cfg, "family", params))


def model_to_config(m: TailModel) -> dict:
    """The config of m; the modifiers are written only where they transform."""
    params = _FAMILIES[m.family].params.items()
    return {"family": m.family, **{k: getattr(m, k) for k, (d, _) in params if k not in _MODIFIERS or getattr(m, k) != d}}
