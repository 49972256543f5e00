"""Numpy kernels: the conditional Monte Carlo estimator and the exact quadrature rule.

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
elementwise passes over columns, never reductions along rows of d elements.
Each column of the Cholesky factor L of the equicorrelated matrix is constant
below the diagonal, so W_i = p_i + L[i,i] Z_i where the prefix
p_i = sum_{k<i} L[i,k] Z_k grows by one column per term; p_{d-1} is also the
last term's conditional mean, and L[d-1,d-1] every term's conditional
standard deviation.  At d = 2 the largest and the sum of the other terms are
the other column itself, uncopied, and each value is the same IEEE operation
on the same operands as in the two-term kernel this one replaced
(W_1 = rho Z_0 + s Z_1 with s = sqrt((1 - rho)(1 + rho)), conditional means
rho W_1 and rho Z_0), so d = 2 results are bit-identical to it.

A call scores the rows it is given, one row block of a chunk in the
estimator, and writes their replication values at xs[j] into row j of the
caller's out: the block's columns of the chunk's buffer of shape
(len(xs), chunk rows), whose rows the caller reduces to (sum, sum of
squares) once the chunk is done.  The threshold-independent work is done
once per call, that is once per block, and the thresholds are then scored
one after another on it, so every row equals the result of a one-threshold
call.  The chunk's buffer is what grows with the number of thresholds m:
m x chunk x 8 B per chunk in flight (28 MiB at m = 7 and 2^19 rows).  A
block's own arrays (at most 4d + 1 of _BLOCK doubles, 5 at d = 2) stay in
the per-core L2 cache while the elementwise passes run over them, most with
`out=`, instead of each pass streaming a chunk-long array through DRAM.

The result is bit-identical to running the whole chunk in one pass: every
elementwise operation is the same IEEE operation on the same operands in the
same order (an elementwise ufunc's value for one element does not depend on
where the array starts or ends), and the two reductions, numpy pairwise sums
of the values and of their squares with no BLAS call, see the same whole
vector.

The module also holds the one quadrature rule behind both exact routes,
`gauss_legendre`: `rare_event.exact_lognormal_pair` integrates the
estimator's own replication value (scored by `_score`) with it, and
`joint.bivariate_normal_orthant_log` the bivariate normal orthant.  Each
route finds its own range on a scan grid and hands the rule the indices of
the range's first and last scan points.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.polynomial import legendre
from scipy.special import erfc

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# rows per block of a chunk: 16384 doubles (128 kB) per array of the block
_BLOCK = 1 << 14


def _blocks(n: int):
    """(lo, hi) of each row block of n rows, in order; the last may be partial."""
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


# the exact quadratures' rule: 24-node Gauss-Legendre on equal pieces of each
# segment between kinks.  Both integrands (`rare_event._pair_integrand` and the
# bivariate normal orthant's) step from 0 to 1 over a width s = sqrt(1 - rho^2),
# and pieces that span many step widths miss the step (a relative error of 3e-3
# at rho = -0.9999 with 16 pieces), so the piece count grows as |rho| -> 1 and
# both routes reject |rho| above _RHO_MAX.  Each route's range reaches
# _RANGE_NATS below the peak its scan finds.
_GL_NODES, _GL_WEIGHTS = legendre.leggauss(24)
_RHO_MAX = 0.9999
_RANGE_NATS = 80.0


def check_rho(rho: float) -> None:
    """Raise ValueError unless |rho| <= _RHO_MAX, the largest the quadrature resolves."""
    if not abs(rho) <= _RHO_MAX:
        raise ValueError(f"the quadrature resolves |rho| <= {_RHO_MAX}, got rho = {rho!r}")


def step_pieces(s: float) -> int:
    """Pieces per segment for a step of width s: at least 8 and 1.5 / s (107 at |rho| = _RHO_MAX)."""
    return max(8, math.ceil(1.5 / s))


def gauss_legendre(f, scan: np.ndarray, first: np.ndarray, last: np.ndarray, kinks: np.ndarray, pieces: int) -> np.ndarray:
    """The integral of f over each row's range: Gauss-Legendre pieces between its kinks.

    scan is one grid shared by every row, or a (rows, points) grid per row; a
    shared grid gives the same bits as that grid repeated in every row.  A
    row's range runs from its scan point first[r] to its scan point last[r]
    (integer indices), widened by one scan point on each side within the
    scan.  kinks (rows, k) are clipped into the range and split it into
    k + 1 segments of `pieces` equal pieces each; the edges are lo, then
    cut_j + (cut_{j+1} - cut_j) * i / pieces for i = 1..pieces in each
    segment j.  f takes the (rows, points) nodes and returns the integrand
    at them.
    """
    rows = len(first)
    scan = np.broadcast_to(scan, (rows, np.shape(scan)[-1]))
    end = scan.shape[1] - 1
    lo = np.take_along_axis(scan, np.maximum(first - 1, 0)[:, None], axis=1)
    hi = np.take_along_axis(scan, np.minimum(last + 1, end)[:, None], axis=1)
    cuts = [lo, *np.clip(kinks, lo, hi).T[:, :, None], hi]
    frac = np.arange(1, pieces + 1) / pieces
    edges = np.concatenate([lo] + [a + (b - a) * frac for a, b in zip(cuts, cuts[1:])], axis=1)
    half = 0.5 * np.diff(edges, axis=1)
    vals = f((edges[:, :-1, None] + half[:, :, None] * (1.0 + _GL_NODES)).reshape(rows, -1))
    return ((vals.reshape(half.shape + (-1,)) * _GL_WEIGHTS).sum(axis=2) * half).sum(axis=1)


def _fold(op, cols: list) -> np.ndarray:
    """op over cols in order; a single column is returned itself, uncopied."""
    if len(cols) == 1:
        return cols[0]
    out = op(cols[0], cols[1])
    for col in cols[2:]:
        op(out, col, out=out)
    return out


def _equicorr_cholesky(d: int, rho: float):
    """Cholesky factor L of the d x d equicorrelated matrix, as (below, diag).

    Each column is constant below the diagonal: L[i, k] = below[k] for i > k,
    and diag[k] = L[k, k].  Both are taken in closed form,
      diag[k]^2 = (1 - rho) (1 + k rho) / (1 + (k-1) rho)
      below[k]  = rho (1 - rho) / ((1 + (k-1) rho) diag[k]),
    factored so that no difference of nearby numbers is formed: the
    textbook 1 - (sum of squares above the diagonal) loses about 12 bits at
    |rho| = 0.9999.  Row 0 is e_1, so below[0] = rho and
    diag[1] = sqrt((1 - rho)(1 + rho)), bit for bit the s of the exact pair
    (`rare_event._pair_quadrature`).  The values are Python floats, not
    LAPACK's, so they do not depend on how the BLAS build rounds.
    """
    below, diag = [], []
    for k in range(d):
        den = 1.0 + (k - 1) * rho
        diag.append(math.sqrt((1.0 - rho) * (1.0 + k * rho) / den))
        if k < d - 1:
            below.append(rho * ((1.0 - rho) / (den * diag[k])))
    return below, diag


def equicorr_chunk(
    z: np.ndarray,
    nu: np.ndarray,
    sig: np.ndarray,
    rho: float,
    xs: Sequence[float],
    out: np.ndarray,
) -> np.ndarray:
    """The conditional estimator's replication values of the rows of z, at every threshold in xs.

    z is (k, d) iid standard normal, d >= 2, with any strides; it is not
    written.  out is (len(xs), k) with contiguous rows, such as a column slice
    of a chunk's replication buffer; row j receives the values at xs[j], and
    out is returned.  rho must lie in (-1/(d-1), 1) so the equicorrelated
    matrix is positive definite.  The conditional law of W_i given the others
    has
      mean  rho * sum_{j != i} W_j / (1 + (d-2) rho)
      var   L[d-1, d-1]^2 = 1 - (d-1) rho^2 / (1 + (d-2) rho)
    """
    k, d = z.shape
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
    means = [np.multiply(c, _fold(np.add, w[:i] + w[i + 1 :])) for i in range(d - 1)] + [p]

    t = []
    for i, wi in enumerate(w):
        # each term overwrites its mixed column, but for the first: that column is the caller's z
        ti = np.multiply(sig[i], wi, out=wi if i else None)
        ti += nu[i]
        t.append(np.exp(ti, out=ti))
    # the largest and the sum of the other terms; at d = 2 the other term itself
    others = [t[:i] + t[i + 1 :] for i in range(d)]
    m_other = [_fold(np.maximum, o) for o in others]
    s_other = [_fold(np.add, o) for o in others]

    b = np.empty(k)
    for j, x in enumerate(xs):
        for i in range(d):
            # the first term writes row j, the others are added to it
            _score(m_other[i], x, s_other[i], nu[i], sig[i], means[i], diag[-1], b if i else out[j])
            if i:
                out[j] += b
    return out


# the benchmark tracer looks this name up when it installs; nothing else uses it
pair_chunk = equicorr_chunk
