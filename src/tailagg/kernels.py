"""Numpy kernel of the conditional Monte Carlo estimator.

The conditional estimator replaces the exceedance indicator of a sum of
equicorrelated lognormal terms t_i = exp(nu_i + sig_i W_i) by its conditional
expectation given all coordinates but one: for each i the event
  {t_i > max(others), sum > x}
has conditional probability Phibar(((log b_i - nu_i)/sig_i - m_i)/s) where
b_i = max(M_-i, x - S_-i), M_-i and S_-i are the largest and the sum of the
other terms, and (m_i, s) are the conditional mean and standard deviation of
W_i given W_-i.  Summed over i, the events partition {sum > x} up to null
sets, so the replication value is an unbiased estimate with far lower
variance than the raw indicator.

One kernel serves every d >= 2, column by column: the correlation mix, the
terms, the conditional means and the largest and sum of the other terms are
elementwise passes over chunk-long columns, never reductions along rows of d
elements.  Each column of the Cholesky factor L of the equicorrelated matrix
is constant below the diagonal, so W_i = p_i + L[i,i] Z_i where the prefix
p_i = sum_{k<i} L[i,k] Z_k grows by one column per term; p_{d-1} is also the
last term's conditional mean, and L[d-1,d-1] every term's conditional
standard deviation.  At d = 2 the largest and the sum of the other terms are
the other column itself, uncopied, and each value is the same IEEE operation
on the same operands as in the two-term kernel this one replaced
(W_1 = rho Z_0 + sqrt(1 - rho^2) Z_1, conditional means rho W_1 and rho Z_0),
so d = 2 results are bit-identical to it.

The kernel returns an (len(xs), 2) array whose row j holds the (sum, sum of
squares) of the per-replication values at xs[j], so the caller can merge
chunks in a fixed order regardless of how they were scheduled.  The work that
does not depend on the threshold is done once per chunk; the thresholds are
then scored one after another on those draws, so memory does not grow with
their number and every row equals the result of a one-threshold call.

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


def _fold(op, cols: list, out: np.ndarray) -> np.ndarray:
    """op over cols in order, into out; a single column is returned itself, uncopied."""
    if len(cols) == 1:
        return cols[0]
    op(cols[0], cols[1], out=out)
    for col in cols[2:]:
        op(out, col, out=out)
    return out


def _equicorr_cholesky(d: int, rho: float):
    """Cholesky factor L of the d x d equicorrelated matrix, as (below, diag).

    Each column is constant below the diagonal: L[i, k] = below[k] for i > k,
    and diag[k] = L[k, k].  Row 0 is e_1, so below[0] = rho and
    diag[1] = sqrt(1 - rho^2).  The recurrence runs in Python floats, not
    LAPACK, so these values do not depend on how the BLAS build rounds.
    """
    below, diag, q = [], [1.0], 0.0  # q = below[0]^2 + ... + below[k-1]^2
    for k in range(d - 1):
        below.append((rho - q) / diag[k])
        q += below[k] * below[k]
        diag.append(math.sqrt(1.0 - q))
    return below, diag


def equicorr_chunk(
    z: np.ndarray,
    nu: np.ndarray,
    sig: np.ndarray,
    rho: float,
    xs: Sequence[float],
) -> np.ndarray:
    """One chunk of the conditional estimator at every threshold in xs.

    z is (n, d) iid standard normal, d >= 2, with any strides; it is not
    written.  rho must lie in (-1/(d-1), 1) so the equicorrelated matrix is
    positive definite.  The conditional law of W_i given the others has
      mean  rho * sum_{j != i} W_j / (1 + (d-2) rho)
      var   L[d-1, d-1]^2 = 1 - (d-1) rho^2 / (1 + (d-2) rho)
    """
    n, d = z.shape
    below, diag = _equicorr_cholesky(d, rho)
    w = [z[:, 0]]
    p = np.multiply(below[0], z[:, 0])
    for i in range(1, d):
        if i > 1:
            p += below[i - 1] * z[:, i - 1]
        wi = np.multiply(diag[i], z[:, i])
        wi += p
        w.append(wi)

    # the last term's conditional mean is its prefix p; every other term's is c times
    # the sum of the other w
    c = rho / (1.0 + (d - 2) * rho)
    means = []
    for i in range(d - 1):
        m = np.empty(n)
        np.multiply(c, _fold(np.add, w[:i] + w[i + 1 :], m), out=m)
        means.append(m)
    means.append(p)

    t = []
    for i, wi in enumerate(w):
        # each term overwrites its mixed column, but for the first: that column is the caller's z
        ti = np.multiply(sig[i], wi, out=wi if i else None)
        ti += nu[i]
        t.append(np.exp(ti, out=ti))

    out = np.empty((len(xs), 2))
    v = np.empty(n)
    size = min(n, _BLOCK)
    b, m_other, s_other = (np.empty(size) for _ in range(3))
    for j, x in enumerate(xs):
        for lo, hi in _blocks(n):
            k = hi - lo
            vb = v[lo:hi]
            tb = [ti[lo:hi] for ti in t]
            for i in range(d):
                others = tb[:i] + tb[i + 1 :]
                mb = _fold(np.maximum, others, m_other[:k])
                sb = _fold(np.add, others, s_other[:k])
                # the first term writes v, the others are added to it
                _score(mb, x, sb, nu[i], sig[i], means[i][lo:hi], diag[-1], b[:k] if i else vb)
                if i:
                    vb += b[:k]
        out[j] = v.sum(), np.dot(v, v)
    return out


# the benchmark tracer looks this name up when it installs; nothing else uses it
pair_chunk = equicorr_chunk
