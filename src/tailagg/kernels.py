"""Numpy kernels of the conditional Monte Carlo estimator.

Each kernel consumes pre-generated standard normal draws and a sequence of
thresholds xs, and returns an (len(xs), 2) array whose row j holds the
(sum, sum of squares) of the per-replication estimator values at xs[j], so
the caller can merge chunks in a fixed order regardless of how they were
scheduled.  The work that does not depend on the threshold (the correlation
mix and the lognormal terms) is done once per chunk; the thresholds are then
scored one after another on those draws, so memory does not grow with their
number and every row equals the result of a one-threshold call.

The conditional estimator replaces the exceedance indicator of a sum of
correlated lognormal terms exp(nu_i + sig_i Z_i) by its conditional
expectation given all coordinates but one: for each i the event
  {term_i > max(others), sum > x}
has conditional probability Phibar(((log b_i - nu_i)/sig_i - m_i)/s) where
b_i = max(M_-i, x - S_-i) and (m_i, s) are the conditional mean and standard
deviation of Z_i given Z_-i under the equicorrelated law.  Summed over i, the
events partition {sum > x} up to null sets, so the replication value is an
unbiased, strictly-inside-(0,1)-factor estimate with far lower variance than
the raw indicator.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erfc

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _phibar(z: np.ndarray) -> np.ndarray:
    return 0.5 * erfc(z * _INV_SQRT2)


def pair_chunk(
    z1: np.ndarray,
    z2: np.ndarray,
    nu1: float,
    nu2: float,
    s1: float,
    s2: float,
    rho: float,
    xs: Sequence[float],
) -> np.ndarray:
    """One chunk of the two-term conditional estimator at every threshold in xs.

    z1, z2 are iid standard normals; the kernel applies the correlation mix
    w2 = rho*w1 + sqrt(1-rho^2)*z2 itself.
    """
    sc = math.sqrt(1.0 - rho * rho)
    w1 = z1
    w2 = rho * z1 + sc * z2
    t1 = np.exp(nu1 + s1 * w1)
    t2 = np.exp(nu2 + s2 * w2)
    out = np.empty((len(xs), 2))
    for j, x in enumerate(xs):
        b = np.maximum(t2, x - t2)
        v = _phibar(((np.log(b) - nu1) / s1 - rho * w2) / sc)
        b = np.maximum(t1, x - t1)
        v += _phibar(((np.log(b) - nu2) / s2 - rho * w1) / sc)
        out[j] = v.sum(), np.dot(v, v)
    return out


def equicorr_chunk(
    z: np.ndarray,
    nu: np.ndarray,
    sig: np.ndarray,
    rho: float,
    xs: Sequence[float],
) -> np.ndarray:
    """General-d conditional estimator chunk; z is (n, d) iid standard normal.

    Requires rho in (-1/(d-1), 1) so the equicorrelated matrix is positive
    definite.  The conditional law of Z_i given the others has
      mean  rho * sum_{j != i} Z_j / (1 + (d-2) rho)
      var   1 - (d-1) rho^2 / (1 + (d-2) rho)
    The terms, their order and their sums are shared by all thresholds; the
    per-term vectors are rebuilt for each threshold, so memory stays that of
    one threshold.
    """
    n, d = z.shape
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    w = z @ np.linalg.cholesky(corr).T

    t = np.exp(nu + sig * w)
    s_all = t.sum(axis=1)
    top = np.argmax(t, axis=1)
    # partitioning at d - 2 leaves the two largest terms in the last two places
    part = np.partition(t, d - 2, axis=1)
    t_top, t_second = part[:, -1], part[:, -2]
    del part

    denom = 1.0 + (d - 2) * rho
    cond_sd = math.sqrt(1.0 - (d - 1) * rho * rho / denom)
    w_sum = w.sum(axis=1)

    out = np.empty((len(xs), 2))
    for j, x in enumerate(xs):
        v = np.zeros(n)
        for i in range(d):
            m_other = np.where(top == i, t_second, t_top)
            s_other = s_all - t[:, i]
            b = np.maximum(m_other, x - s_other)
            cond_mean = rho * (w_sum - w[:, i]) / denom
            v += _phibar(((np.log(b) - nu[i]) / sig[i] - cond_mean) / cond_sd)
        out[j] = v.sum(), np.dot(v, v)
    return out
