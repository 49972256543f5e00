"""Numpy kernels of the conditional Monte Carlo estimator.

Each kernel consumes pre-generated standard normal draws and a sequence of
thresholds xs, and returns an (len(xs), 2) array whose row j holds the
(sum, sum of squares) of the per-replication estimator values at xs[j], so
the caller can merge chunks in a fixed order regardless of how they were
scheduled.  The work that does not depend on the threshold (the correlation
mix and the lognormal terms) is done once per chunk; the thresholds are then
scored one after another on those draws, so memory does not grow with their
number and every row equals the result of a one-threshold call.

Each threshold walks the chunk in row blocks of _BLOCK rows.  A block's
scratch (a few arrays of _BLOCK doubles) stays in the per-core L2 cache
while the dozen-odd elementwise passes of the score run over it with `out=`,
instead of each pass streaming and allocating a chunk-long temporary.  The
blocks write the replication values into one chunk-long vector v, reused by
every threshold, and the (sum, sum of squares) are taken over the whole of v.
The result is bit-identical to scoring the whole chunk in one pass: every
elementwise operation is the same IEEE operation on the same operands in the
same order (an elementwise ufunc's value for one element does not depend on
where the array starts or ends), and the two reductions see the same vector.

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

# rows per block: 16384 doubles (128 kB) per scratch array
_BLOCK = 1 << 14


def _blocks(n: int):
    for lo in range(0, n, _BLOCK):
        yield lo, min(lo + _BLOCK, n)


def _score(m, x: float, s, nu: float, sig: float, mean, sd: float, out: np.ndarray) -> None:
    """out = Phibar(((log(max(m, x - s)) - nu) / sig - mean) / sd), one pass at a time in out."""
    np.subtract(x, s, out=out)
    np.maximum(m, out, out=out)
    np.log(out, out=out)
    out -= nu
    out /= sig
    out -= mean
    out /= sd
    out *= _INV_SQRT2
    erfc(out, out=out)
    out *= 0.5


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

    z1, z2 are iid standard normals (any strides); the kernel applies the
    correlation mix w2 = rho*w1 + sqrt(1-rho^2)*z2 itself.
    """
    n = len(z1)
    sc = math.sqrt(1.0 - rho * rho)
    # the threshold-independent work, in place where it can be; a sum's
    # operands may swap (IEEE addition commutes), the operations may not change
    rw1 = rho * z1
    w2 = sc * z2
    w2 += rw1
    t1 = s1 * z1
    t1 += nu1
    np.exp(t1, out=t1)
    t2 = s2 * w2
    t2 += nu2
    np.exp(t2, out=t2)
    rw2 = np.multiply(rho, w2, out=w2)

    out = np.empty((len(xs), 2))
    v = np.empty(n)
    scratch = np.empty(min(n, _BLOCK))
    for j, x in enumerate(xs):
        for lo, hi in _blocks(n):
            vb, b = v[lo:hi], scratch[: hi - lo]
            # term 1 conditions on w2, term 2 on w1
            _score(t2[lo:hi], x, t2[lo:hi], nu1, s1, rw2[lo:hi], sc, vb)
            _score(t1[lo:hi], x, t1[lo:hi], nu2, s2, rw1[lo:hi], sc, b)
            vb += b
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
    per-term vectors are rebuilt block by block for each threshold, so memory
    beyond the terms is one chunk-long vector and a few blocks.
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
    v = np.empty(n)
    size = min(n, _BLOCK)
    s_other, cond_mean, b = (np.empty(size) for _ in range(3))
    is_top = np.empty(size, dtype=bool)
    for j, x in enumerate(xs):
        for lo, hi in _blocks(n):
            k = hi - lo
            vb, sb, cb, bb, tb = v[lo:hi], s_other[:k], cond_mean[:k], b[:k], is_top[:k]
            vb.fill(0.0)
            for i in range(d):
                # the largest other term: the second largest where term i is the largest
                # (np.where has no out=, but beats np.copyto(..., where=) here)
                np.equal(top[lo:hi], i, out=tb)
                mb = np.where(tb, t_second[lo:hi], t_top[lo:hi])
                np.subtract(s_all[lo:hi], t[lo:hi, i], out=sb)
                np.subtract(w_sum[lo:hi], w[lo:hi, i], out=cb)
                np.multiply(rho, cb, out=cb)
                cb /= denom
                _score(mb, x, sb, nu[i], sig[i], cb, cond_sd, bb)
                vb += bb
        out[j] = v.sum(), np.dot(v, v)
    return out
