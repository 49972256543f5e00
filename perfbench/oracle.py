"""Exact d = 2 ground truth for the lognormal pair, by 1-D quadrature.

    P(a1 e^{W1} + a2 e^{W2} > x),   W ~ N(mu, sigma^2) pairwise correlation rho

With Z_i = (W_i - mu)/sigma the event splits at z*, the point beyond which the
first term alone exceeds x:

    P = Phibar(z*) + int_{-inf}^{z*} phi(z) Phibar((t(z) - rho z)/sqrt(1 - rho^2)) dz
    t(z) = (log((x - a1 e^{mu + sigma z})/a2) - mu)/sigma

The integrand is shifted by its peak log value before adaptive quadrature, so
probabilities far below 1e-300 relative scale (1e-14 and deeper) keep full
relative accuracy.  The benchmark uses this only outside its timed region.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_Z_LO = -40.0  # phi(-40) ~ e^-800: nothing below it can matter
_GEOM = np.logspace(-14, 0, 15)


def _single(mu: float, sigma: float, a: float, x: float) -> float:
    if a <= 0.0:
        return 0.0 if x > 0 else 1.0
    if x <= 0.0:
        return 1.0
    return float(ndtr(-(math.log(x / a) - mu) / sigma))


def lognormal_pair_exceedance(mu: float, sigma: float, rho: float, a1: float, a2: float, x: float) -> float:
    """P(a1 e^{W1} + a2 e^{W2} > x) for a bivariate normal W, rho in (-1, 1)."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1, 1)")
    if sigma <= 0.0 or a1 < 0.0 or a2 < 0.0:
        raise ValueError("need sigma > 0 and nonnegative coefficients")
    if a1 == 0.0 or a2 == 0.0:
        return _single(mu, sigma, max(a1, a2), x)
    if x <= 0.0:
        return 1.0
    s = math.sqrt(1.0 - rho * rho)
    z_star = (math.log(x / a1) - mu) / sigma
    tail = float(ndtr(-z_star))

    def arg(z: float) -> float:
        # conditional-probability argument: Phibar(arg) = P(second term > x - first | z)
        rest = x - a1 * math.exp(mu + sigma * z)
        if rest <= 0.0:
            return -math.inf
        return ((math.log(rest / a2) - mu) / sigma - rho * z) / s

    def log_integrand(z: float) -> float:
        return float(log_ndtr(-arg(z))) - _LOG_SQRT_2PI - 0.5 * z * z

    # The conditional probability steps from 0 to 1 where arg crosses zero.
    # Steps can be far narrower than the interval around them (near rho = -1,
    # and within ~1/x^2 of z*), where a single adaptive quad would sample
    # nothing but zeros and converge to a wrong answer.  So the scan is refined
    # geometrically towards z*, and the quadrature is split at breakpoints
    # spaced geometrically on both sides of every crossing, the peak and z*.
    lo = min(_Z_LO, z_star - 1.0)
    zs = np.unique(np.concatenate([np.linspace(lo, z_star, 400)[:-1], z_star - _GEOM]))
    logs = np.array([log_integrand(z) for z in zs])
    k = int(np.argmax(logs))
    shift = float(logs[k])
    if shift == -math.inf:
        return tail
    centers = [float(zs[k]), z_star]
    args = np.array([arg(z) for z in zs])
    for i in np.nonzero(np.signbit(args[:-1]) != np.signbit(args[1:]))[0]:
        centers.append(brentq(arg, zs[i], zs[i + 1], xtol=1e-15, rtol=1e-15))
    edges = np.concatenate([[lo, z_star], centers] + [c + sign * _GEOM for c in centers for sign in (-1.0, 1.0)])
    edges = np.unique(np.clip(edges, lo, z_star))
    val = 0.0
    with warnings.catch_warnings():
        # pieces as narrow as 1e-14 reach roundoff before epsrel; the sum is
        # checked against brute-force trapezoids in test_perfbench.py
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            part, _ = quad(lambda z: math.exp(log_integrand(z) - shift), a, b, epsabs=0.0, epsrel=1e-10, limit=100)
            val += part
    return tail + math.exp(shift) * val
