"""Ground-truth tail probability estimation.

Four routes:
  * exact_comonotone_lognormal - closed form for the countermonotone pair
    X + exp(2 mu)/X with lognormal X,
  * exact_lognormal_pair       - the exact d = 2 lognormal tail, by quadrature
    of the conditional estimator's own replication value,
  * plain_mc                   - indicator Monte Carlo on any joint model,
  * cond_mc_lognormal          - conditional Monte Carlo for sums of
    equicorrelated lognormal terms (the workhorse for deep tails);
    cond_mc_lognormal_curve scores one set of draws at several thresholds.

Replications are partitioned into chunks of `CHUNK` rows.  Chunk k of the
key (seed, *words) draws its whole array from its own SFC64 stream, that of
`SeedSequence(seed, spawn_key=(*words, k))` (`joint._stream`; `joint` says why
SFC64 and a generator per chunk), so distinct (key, chunk) pairs never share a
stream while k < 2^32, which `_map_chunks` enforces.  Conditional MC scores
the chunk's ziggurat normals; plain MC counts the rows of `JointModel.rows`.
A chunk's replication values are reduced by `_chunk_moments`, in numpy and
never by BLAS (whose threaded dot product would make the last bits depend on
its build and thread count), to a sum and a centred sum of squares, which
`_map_chunks` adds as exact ints as each chunk finishes.  So results are
bit-identical in any chunk order and at any worker count, and each chunk in
flight holds CHUNK rows, whatever n.

The conditional route samples each chunk once and scores it at every
requested threshold (common random numbers): a curve entry equals, bit for
bit, the call at its threshold alone, and the entries' errors are correlated.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np
# nothing here calls ndtri or _uniforms: the benchmark tracer wraps `rare_event.ndtri`
# and `rare_event._uniforms` by name
from scipy.special import ndtri  # noqa: F401

from . import kernels
from .joint import JointModel, _seed_key, _stream, _uniforms  # noqa: F401
from .models import _FAMILIES, COUNT, FINITE, LOGNORMAL, NONNEGATIVE, POSITIVE, check_fields, check_value, norm_sf

CHUNK = 1 << 14
_ULP = 2**1074  # a double times _ULP is an int, and a product of two doubles times _ULP**2
# `_chunk_moments` scales a row whose sum S is below this before it squares.  Above it,
# Q >= S^2 / CHUNK >= 2^-814, and the centred squares that underflow (each below 2^-1022,
# at most CHUNK of them) change Q by under 2^-194 of itself
_SCALE_BELOW = 2.0**-400

EXACT = "exact"
PLAIN_MC = "plain_mc"
COND_MC = "cond_mc"

# the parameters the routes below check, as (default, domain); mu and sigma are the lognormal family's
_ARGS = {
    **{k: _FAMILIES[LOGNORMAL].params[k] for k in ("mu", "sigma")},
    **dict.fromkeys(("a", "a1", "a2"), (None, NONNEGATIVE)),
    "nu": (None, FINITE),
    "sig": (None, POSITIVE),
    **dict.fromkeys(("n", "workers"), (None, COUNT)),
}


@dataclass(frozen=True)
class EstimateResult:
    """A tail probability estimate with its Monte Carlo error."""

    estimate: float
    n: int
    std_error: float
    method: str
    # the seed key the estimate was drawn from (`_seed_key`); None for closed forms
    seed: Optional[tuple] = None
    # effective sample size (sum v)^2 / sum v^2 of the replication values v;
    # NaN for exact results
    ess: float = math.nan

    @property
    def half_width95(self) -> float:
        """The half-width of the normal 95% confidence interval, 1.96 std_error."""
        return 1.96 * self.std_error

    @staticmethod
    def from_moments(total, total_sq, n: int, method: str, seed) -> "EstimateResult":
        """From the exact sum a / b and sum of squares c / e of n replication values (floats, ints or Fractions), each output rounded once."""
        (a, b), (c, e) = total.as_integer_ratio(), total_sq.as_integer_ratio()
        se = _sqrt(max(n * c * b * b - a * a * e, 0), n * n * (n - 1) * b * b * e) if n > 1 else math.nan
        return EstimateResult(min(a / (b * n), 1.0), n, se, method, seed, a * a * e / (b * b * c) if c > 0 else 0.0)


def _sqrt(num: int, den: int) -> float:
    """sqrt(num / den) for num >= 0, rounded once (above 2^-1022): an integer root of 55 bits or more, its last bit set if inexact."""
    shift = max(0, 112 - num.bit_length() + den.bit_length()) // 2
    scaled, rem = divmod(num << 2 * shift, den)
    return math.ldexp((root := math.isqrt(scaled)) | (rem > 0 or root * root < scaled), -shift)


@dataclass(frozen=True)
class RatioVsAsymptotic:
    """Simulation-to-approximation ratio with the CI half-width on its scale."""

    ratio: float
    half_width: float


def exact_comonotone_lognormal(mu: float, x: float) -> EstimateResult:
    """P(X + exp(2 mu)/X > x) for X lognormal(mu, 1), exactly.

    The event splits at the roots of t^2 - x t + exp(2 mu) = 0, so the
    discriminant is sqrt(x^2 - 4 exp(2 mu)); by log-symmetry of the two roots
    around mu the probability collapses to 2 Phibar(log(root_plus) - mu).
    Below x = 2 exp(mu) the sum exceeds x with probability one.
    """
    check_fields(_ARGS, mu=mu)
    lo = 2.0 * math.exp(mu)
    if x <= lo:
        return EstimateResult(1.0, 0, 0.0, EXACT)
    root = (x + math.sqrt(x * x - lo * lo)) / 2.0
    p = 2.0 * float(norm_sf(math.log(root) - mu))
    return EstimateResult(p, 0, 0.0, EXACT)


def exact_lognormal_single(mu: float, sigma: float, a: float, x: float) -> float:
    """P(a X > x) for X lognormal(mu, sigma); the degenerate one-asset case."""
    check_fields(_ARGS, mu=mu, sigma=sigma, a=a)
    if a <= 0:  # the sum is 0
        return 0.0 if x >= 0 else 1.0 if x < 0 else math.nan
    if x <= 0:
        return 1.0
    return float(norm_sf((math.log(x / a) - mu) / sigma))


# the d = 2 quadrature's scan grid, on which `kernels.scan_range` finds each
# row's range; `kernels.gauss_legendre` then integrates it in
# `kernels.step_pieces` pieces either side of the kink
_SCAN = np.linspace(-40.0, 40.0, 1601)
_SCAN_PHI = np.exp(-0.5 * _SCAN * _SCAN) / math.sqrt(2.0 * math.pi)


def _pair_integrand(w, phi, x, nu_i, nu_j, sigma: float, rho: float, s: float) -> np.ndarray:
    """2 phi(w) g_i(w): twice term i's conditional probability in the estimator, given the other term's normal w.

    2 g_i is `kernels._score` with the other term t_j = exp(nu_j + sigma w) as
    both the largest and the sum of the others, slope scale / sigma and offset
    scale (rho w + nu_i / sigma), scale = 1 / (s sqrt2): conditional mean rho w
    and standard deviation s, as `kernels.equicorr_chunk` scores term i at
    d = 2.  The caller halves the sum of the two terms' integrals, as the
    kernel halves each row.  Rows are cells (x, nu_i, nu_j are columns), w the
    points of each.
    """
    scale = kernels._INV_SQRT2 / s
    t = np.multiply(sigma, w) + nu_j
    np.exp(t, out=t)
    off = rho * w + nu_i / sigma
    off *= scale
    out = np.empty(t.shape)
    kernels._score(t, x, t, scale / sigma, off, out)
    out *= phi
    return out


def _pair_quadrature(mu: float, sigma: float, rho: float, a1, a2, x) -> np.ndarray:
    """P(a1 X1 + a2 X2 > x) for 1-D arrays of positive a1, a2 and positive x."""
    s = math.sqrt((1.0 - rho) * (1.0 + rho))  # exact to rounding as |rho| -> 1, unlike 1 - rho^2
    # row r < n integrates term 1 over the normal of term 2, row n + r term 2 over term 1's
    nu = mu + np.log(np.concatenate([a1, a2]))[:, None]
    nu_j = np.roll(nu, len(a1), axis=0)
    xx = np.concatenate([x, x])[:, None]
    args = (xx, nu, nu_j, sigma, rho, s)

    # g_i has one kink, where t_j = x/2 switches max(t_j, x - t_j)
    kink = (np.log(xx / 2.0) - nu_j) / sigma
    # each row's range: the scan points within 80 nats of its peak (a row 0 on the whole scan is -inf)
    with np.errstate(divide="ignore"):
        first, last, _ = kernels.scan_range(
            lambda i: np.log(_pair_integrand(_SCAN[i], _SCAN_PHI[i], *args)), len(_SCAN), np.searchsorted(_SCAN, kink, side="right") - 1
        )
    per_row = kernels.gauss_legendre(
        lambda w: _pair_integrand(w, np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi), *args),
        _SCAN, first, last, kink, kernels.step_pieces(s),
    )
    return 0.5 * (per_row[: len(a1)] + per_row[len(a1) :])


def exact_lognormal_pair(mu: float, sigma: float, rho: float, a1, a2, x) -> np.ndarray:
    """P(a1 X1 + a2 X2 > x) exactly, (log X1, log X2) bivariate normal (mu, sigma, rho).

    Vectorised over broadcastable a1, a2 and x; returns an array of their
    broadcast shape.  At d = 2 the conditional estimator's replication value
    is g_1(W_2) + g_2(W_1), so P = sum_i of the integral of phi(w) g_i(w) dw,
    a 1-D integral of a continuous function with one kink (`_pair_integrand`,
    which shares the kernel's `_score`), over the range `kernels.scan_range` finds, by
    `kernels.gauss_legendre` in pieces either side of the kink, as the
    bivariate normal orthant is.  |rho| must be at most `kernels._RHO_MAX` =
    0.9999: the pieces narrow with sqrt(1 - rho^2), so their number and cost
    grow as rho nears +-1.  A cell with a zero coefficient, x <= 0 or a NaN x
    is `exact_lognormal_single` of a1 + a2: a NaN x gives NaN in its own cell.
    """
    a1, a2, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a1, a2, x)))
    check_fields(_ARGS, mu=mu, sigma=sigma, a1=a1, a2=a2)
    check_value("rho", rho, kernels.QUAD_RHO)
    shape = x.shape
    a1, a2, x = a1.ravel(), a2.ravel(), x.ravel()
    out = np.empty(x.shape)
    pair = (a1 > 0.0) & (a2 > 0.0) & (x > 0.0)
    for i in np.flatnonzero(~pair):
        # at most one positive coefficient (a1 + a2), x <= 0 makes the event certain, or x is NaN
        out[i] = exact_lognormal_single(mu, sigma, float(a1[i] + a2[i]), float(x[i]))
    if pair.any():
        out[pair] = _pair_quadrature(mu, sigma, rho, a1[pair], a2[pair], x[pair])
    return out.reshape(shape)


def _chunk_ranges(n: int, ks: Optional[range] = None):
    """(k, rows) of each chunk k in ks of n rows, by default every chunk, one at a time."""
    for k in range(-(-n // CHUNK)) if ks is None else ks:
        yield k, min(CHUNK, n - k * CHUNK)


def plain_mc(
    model: JointModel,
    a: Sequence[float],
    x: float,
    n: int,
    seed,
    workers: int = 1,
) -> EstimateResult:
    """Fraction of sampled rows with sum_i a_i X_i > x, counted chunk by chunk (`_count_rows`).

    std_error is the binomial sqrt(p(1-p)/n).  A NaN threshold gives NaN, as in
    conditional MC, and draws nothing.
    """
    a = np.asarray(a, dtype=float)
    if len(a) != model.dim:
        raise ValueError(f"need {model.dim} coefficients, got {len(a)}")
    check_fields(_ARGS, a=a, n=n, workers=workers)
    key = _seed_key(seed)
    hits = math.nan if math.isnan(x) else float(_count_rows(model, lambda rows: rows @ a > x, n, key, workers)[0])
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    # for 0/1 replication values (sum v)^2 / sum v^2 is the hit count
    return EstimateResult(p, n, se, PLAIN_MC, key, hits)


def _count_rows(model: JointModel, test, n: int, seed, workers: int = 1) -> list:
    """Sums of count_nonzero(test(rows), axis=-1), as a flat list of ints, over n rows of model drawn and tested chunk by chunk."""
    key = _seed_key(seed)

    def run(item):
        k, size = item
        return np.count_nonzero(test(model.rows(_stream(*key, k), size)), axis=-1).reshape(-1).tolist()

    return _map_chunks(run, n, workers)


def _map_chunks(fn, n: int, workers: int) -> list:
    """The element-by-element sum of the lists of ints fn((k, size)) over every chunk of n rows.

    Up to `workers` threads each run one share, a range of chunk indices read
    from `_chunk_ranges` as they are run, as one pool task (with a task per
    chunk, `simulate` ran slower), adding each chunk's list into the share's
    sum as it finishes.  Int sums are exact, so their order changes no bit.
    """
    if n > CHUNK * 2**32:
        # chunk 2^32 of key (s, w) would draw what chunk 1 of key (s, w, 0) draws (see `_seed_key`)
        raise ValueError(f"n = {n} needs more than 2^32 chunks of {CHUNK} rows")
    add = lambda acc, part: [s + t for s, t in zip_longest(acc, part, fillvalue=0)]  # noqa: E731
    chunks = -(-n // CHUNK)
    workers = min(workers, chunks)
    if workers <= 1:  # a pool cannot split one chunk
        return reduce(add, map(fn, _chunk_ranges(n)), [])
    shares = [range(chunks * i // workers, chunks * (i + 1) // workers) for i in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reduce(add, pool.map(lambda share: reduce(add, map(fn, _chunk_ranges(n, share)), []), shares), [])


def _chunk_moments(v: np.ndarray) -> list:
    """[S_0 _ULP, Q_0 _ULP^2, S_1 _ULP, ...] as exact ints: for each row of v (overwritten), its sum S and sum of squares Q.

    A double p / q, q = 2^k, is p 2^(1074 - k) in units of 1 / _ULP.  Q is
    sum (v - c)^2 + 2 c S - size c^2 about c = S / size, so its error is
    relative to the centred sum, and a small variance does not cancel.  A row
    whose sum is below _SCALE_BELOW, where a centred square could be
    subnormal or 0, is first scaled by 2^-e, e <= 0 the exponent of its
    largest value, so that value lies in [0.5, 1); its ints are then shifted
    back by e and 2e bits, which drops only bits below 2^-1074 and 2^-2148.
    Scaling by a power of two is exact and commutes with the sums, the
    centring and the squares wherever none of them is subnormal, so a row
    whose squares did not underflow keeps every bit.
    """
    total = v.sum(axis=1)
    # the smallest sum is NaN if any is, and gates the scaling, so a chunk with no small row pays nothing more
    if math.isnan(low := total.min()):
        raise ValueError("a replication value is NaN: a term overflows a double")
    shifts = [0] * len(v)
    if low < _SCALE_BELOW and (tiny := (total < _SCALE_BELOW) & (total > 0.0)).any():
        e = np.zeros(len(v), dtype=np.int64)
        e[tiny] = np.minimum(np.frexp(v[tiny].max(axis=1))[1], 0)
        v[tiny] = np.ldexp(v[tiny], -e[tiny, None])
        total[tiny] = v[tiny].sum(axis=1)
        shifts = (-e).tolist()
    mean = total / v.shape[1]
    v -= mean[:, None]
    out = []
    for s, c, q, k in zip(total.tolist(), mean.tolist(), np.square(v, out=v).sum(axis=1).tolist(), shifts):
        (s, a), (c, b), (q, d) = s.as_integer_ratio(), c.as_integer_ratio(), q.as_integer_ratio()
        s, c = s << 1075 - a.bit_length(), c << 1075 - b.bit_length()
        out += [s >> k, ((q << 2149 - d.bit_length()) + c * (2 * s - v.shape[1] * c)) >> 2 * k]
    return out


def _check_equicorrelation(rho: float, d: int) -> None:
    """Raise ValueError unless rho makes the d x d equicorrelation matrix positive definite."""
    rho_min = -1.0 / (d - 1)
    if not rho_min < rho < 1.0:
        raise ValueError(f"rho must lie in ({rho_min:.4g}, 1) for {d} terms; its endpoints are exact or degenerate")


def _cond_mc_curve(nu, sig, rho: float, xs: Sequence[float], n: int, seed, workers: int) -> list:
    """Conditional MC of P(sum_i exp(nu_i + sig_i Z_i) > x) for every x in xs.

    One pass over the chunks samples each chunk once and scores it at every
    positive finite threshold: the kernel reads the chunk's normals in place
    and writes its replication values into v, one row per threshold, for
    `_chunk_moments`.  An x <= 0 is certain, an x = inf impossible (a term
    that overflows to inf would score it inf - inf) and a NaN x gives NaN;
    none of them draws.
    """
    nu, sig = np.asarray(nu, dtype=float), np.asarray(sig, dtype=float)
    d = len(nu)
    if d < 2 or len(sig) != d:
        raise ValueError("need at least two terms with matching volatilities")
    check_fields(_ARGS, nu=nu, sig=sig, n=n, workers=workers)
    _check_equicorrelation(rho, d)
    key = _seed_key(seed)
    xs = [float(x) for x in xs]
    drawn = [x for x in xs if 0.0 < x < math.inf]

    def run(item):
        k, size = item
        z = _stream(*key, k).standard_normal((size, d))
        return _chunk_moments(kernels.equicorr_chunk(z, nu, sig, rho, drawn, np.empty((len(drawn), size))))

    moments = iter(_map_chunks(run, n, workers) if drawn else [])
    return [
        EstimateResult.from_moments(Fraction(next(moments), _ULP), Fraction(next(moments), _ULP**2), n, COND_MC, key)
        if 0.0 < x < math.inf
        else EstimateResult(1.0, n, 0.0, COND_MC, key) if x <= 0.0
        else EstimateResult(0.0, n, 0.0, COND_MC, key, 0.0) if x == math.inf
        else EstimateResult(math.nan, n, math.nan, COND_MC, key)
        for x in xs
    ]


def cond_mc_terms(
    nu: Sequence[float],
    sig: Sequence[float],
    rho: float,
    x: float,
    n: int,
    seed,
    workers: int = 1,
) -> EstimateResult:
    """Conditional MC for P(sum_i exp(nu_i + sig_i Z_i) > x), Z equicorrelated: the engine behind `cond_mc_lognormal`.

    nu absorbs per-term coefficients and location shifts, sig the per-term
    volatilities, so power transforms of a common base fit the same mold.
    """
    return _cond_mc_curve(nu, sig, rho, [x], n, seed, workers)[0]


def _lognormal_terms(mu: float, sigma: float, rho: float, a: Sequence[float], n: int, workers: int):
    """Validate; return the positive coefficients and the (nu, sig) of their terms."""
    a = np.asarray(a, dtype=float)
    check_fields(_ARGS, mu=mu, sigma=sigma, a=a, n=n, workers=workers)
    if len(a) < 2:
        raise ValueError("need at least two coefficients")
    _check_equicorrelation(rho, len(a))  # over all the terms, zero coefficients or not
    a_pos = a[a > 0]
    return a_pos, mu + np.log(a_pos), np.full(len(a_pos), float(sigma))


def _exact_below_two_terms(mu: float, sigma: float, a_pos: np.ndarray, x: float, seed) -> EstimateResult:
    # with no positive coefficient the sum is 0, which exact_lognormal_single covers at a = 0
    a1 = float(a_pos[0]) if len(a_pos) else 0.0
    return EstimateResult(exact_lognormal_single(mu, sigma, a1, x), 0, 0.0, EXACT, _seed_key(seed))


def cond_mc_lognormal(
    mu: float,
    sigma: float,
    rho: float,
    a: Sequence[float],
    x: float,
    n: int,
    seed,
    workers: int = 1,
) -> EstimateResult:
    """Unbiased conditional-MC estimate of P(sum_i a_i exp(Z_i) > x).

    Z is d-variate normal, d = len(a), with common mean mu, volatility sigma
    and pairwise correlation rho in (-1/(d-1), 1), where its matrix is
    positive definite; at d = 2, rho = -1 has the closed form
    `exact_comonotone_lognormal`, and rho = 1 is degenerate.  Zero
    coefficients are dropped after that check (they cannot move the sum); if
    only one positive term remains the probability is computed exactly.
    """
    a_pos, nu, sig = _lognormal_terms(mu, sigma, rho, a, n, workers)
    if len(a_pos) < 2:
        return _exact_below_two_terms(mu, sigma, a_pos, x, seed)
    return cond_mc_terms(nu, sig, rho, x, n, seed, workers=workers)


def cond_mc_lognormal_curve(
    mu: float,
    sigma: float,
    rho: float,
    a: Sequence[float],
    xs: Sequence[float],
    n: int,
    seed,
    workers: int = 1,
) -> list:
    """`cond_mc_lognormal` at every threshold in xs, on one set of draws.

    Entry j equals `cond_mc_lognormal(mu, sigma, rho, a, xs[j], n, seed)` bit
    for bit, but the chunks are sampled once for all thresholds, so the
    entries' errors are correlated.
    """
    a_pos, nu, sig = _lognormal_terms(mu, sigma, rho, a, n, workers)
    if len(a_pos) < 2:
        return [_exact_below_two_terms(mu, sigma, a_pos, x, seed) for x in xs]
    return _cond_mc_curve(nu, sig, rho, xs, n, seed, workers)


def ratio_vs_asymptotic(est: EstimateResult, approx) -> RatioVsAsymptotic:
    """Estimate / approximation, with the half-width mapped to the ratio scale.

    The denominator is deterministic, so the CI scales straight through.
    """
    value = float(approx.value) if hasattr(approx, "value") else float(approx)
    check_value("approx", value, POSITIVE)
    return RatioVsAsymptotic(est.estimate / value, est.half_width95 / value)

