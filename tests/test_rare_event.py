import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr

from tailagg import (
    approx_sum_pair,
    bivariate_lognormal,
    check_joint_aux,
    comonotone_inverse,
    cond_mc_lognormal,
    cond_mc_lognormal_curve,
    cond_mc_terms,
    exact_comonotone_lognormal,
    exact_lognormal_single,
    iid_pair,
    lognormal,
    min_construction,
    mixed_min,
    plain_mc,
    ratio_vs_asymptotic,
    weibull_type,
)
from tailagg import kernels, rare_event, tables
from tailagg.rare_event import EstimateResult
from test_joint import reference_rows
from test_kernels import _unblocked_values

LN = lognormal(0.0, 1.0)


def phibar(z):
    return float(ndtr(-z))


# ---------------------------------------------------------------- exact formula


def test_exact_published_anchor_values():
    assert exact_comonotone_lognormal(0.0, 10.0).estimate == pytest.approx(0.0219, abs=1e-4)
    assert exact_comonotone_lognormal(0.0, 1000.0).estimate == pytest.approx(4.923859e-12, rel=1e-6)


def test_exact_boundary_is_one():
    assert exact_comonotone_lognormal(0.0, 2.0).estimate == 1.0
    assert exact_comonotone_lognormal(0.0, 0.5).estimate == 1.0
    assert exact_comonotone_lognormal(0.3, 2.0 * math.exp(0.3)).estimate == 1.0


def test_exact_formula_structure():
    # P(X + 1/X > x) needs the roots of t^2 - x t + 1, i.e. sqrt(x^2 - 4);
    # the sqrt(x^2 - 2) variant lands far from the tabulated anchor value.
    x = 10.0
    root4 = (x + math.sqrt(x * x - 4.0)) / 2.0
    good = phibar(math.log(root4)) + (1.0 - phibar(-math.log(root4)))
    assert exact_comonotone_lognormal(0.0, x).estimate == pytest.approx(good, rel=1e-12)
    assert good == pytest.approx(0.0219, abs=1e-4)

    rp = (x + math.sqrt(x * x - 2.0)) / 2.0
    rm = (x - math.sqrt(x * x - 2.0)) / 2.0
    bad = phibar(math.log(rp)) + (1.0 - phibar(math.log(rm)))
    assert bad == pytest.approx(0.01219, abs=1e-4)
    assert abs(bad - 0.0219) > 5e-3  # the variant cannot reproduce the anchor


def test_exact_two_sided_symmetry_identity():
    # 2 Phibar(log t+) equals the two-sided form Phibar(log t+) + Phi(log t-)
    for x in (3.0, 10.0, 100.0):
        tp = (x + math.sqrt(x * x - 4.0)) / 2.0
        tm = (x - math.sqrt(x * x - 4.0)) / 2.0
        two_sided = phibar(math.log(tp)) + (1.0 - phibar(math.log(tm)))
        assert exact_comonotone_lognormal(0.0, x).estimate == pytest.approx(two_sided, rel=1e-12)


def test_exact_nonzero_mu():
    # general countermonotone pair: X + exp(2 mu)/X with X lognormal(mu, 1)
    mu, x = 0.4, 12.0
    est = exact_comonotone_lognormal(mu, x)
    m = bivariate_lognormal(mu, 1.0, -1.0)
    s = m.sample(2 * 10**6, seed=6)
    emp = float(np.mean(s.sum(axis=1) > x))
    se = math.sqrt(emp * (1 - emp) / len(s))
    assert abs(emp - est.estimate) <= 3.0 * se


def test_exact_result_fields():
    r = exact_comonotone_lognormal(0.0, 30.0)
    assert r.method == "exact" and r.std_error == 0.0 and r.half_width95 == 0.0
    assert 0.0 <= r.estimate <= 1.0


# ---------------------------------------------------------------- plain MC


def test_plain_mc_threshold_zero_is_certain():
    r = plain_mc(iid_pair(LN), [1.0, 1.0], 0.0, 10_000, seed=1)
    assert r.estimate == 1.0 and r.std_error == 0.0


def test_plain_mc_nan_threshold_gives_nan_as_conditional_mc_does(monkeypatch):
    def fields(r):
        return [r.estimate, r.std_error, r.half_width95, r.ess]

    r = plain_mc(bivariate_lognormal(0.0, 1.0, 0.3), [1.0, 1.0], math.nan, 1000, seed=1)
    assert all(math.isnan(v) for v in fields(r))
    assert all(math.isnan(v) for v in fields(cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 1.0], math.nan, 1000, seed=1)))
    # among other thresholds, every entry is its one-threshold call, bit for bit
    xs = [5.0, math.nan, 50.0]
    curve = cond_mc_lognormal_curve(0.0, 1.0, 0.3, [1.0, 1.0], xs, 1000, 1)
    assert [repr(r) for r in curve] == [repr(cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 1.0], x, 1000, 1)) for x in xs]

    def no_draws(*args):
        raise AssertionError("drew for a NaN threshold")

    # a NaN-only curve draws nothing, as plain MC at a NaN threshold draws nothing
    monkeypatch.setattr(rare_event, "_stream", no_draws)
    assert math.isnan(plain_mc(iid_pair(LN), [1.0, 1.0], math.nan, 1000, seed=1).estimate)
    curve = cond_mc_lognormal_curve(0.0, 1.0, 0.3, [1.0, 1.0], [math.nan, math.nan], 1000, 1)
    assert all(math.isnan(v) for r in curve for v in fields(r))


def test_plain_mc_countermonotone_matches_exact():
    r = plain_mc(bivariate_lognormal(0.0, 1.0, -1.0), [1.0, 1.0], 10.0, 400_000, seed=2)
    assert abs(r.estimate - 0.0219) <= 3.0 * r.half_width95 / 1.96 * 1.96 + 1e-4
    assert abs(r.estimate - exact_comonotone_lognormal(0.0, 10.0).estimate) <= 3.0 * r.std_error


def test_plain_mc_independent_pair_anchor():
    r = plain_mc(iid_pair(LN), [1.0, 1.0], 10.0, 10**6, seed=3)
    assert abs(r.estimate - 0.0338) <= 3.0 * r.std_error + 2e-4


def test_plain_mc_fields_and_determinism():
    r1 = plain_mc(iid_pair(LN), [1.0, 1.0], 5.0, 50_000, seed=4, workers=1)
    r2 = plain_mc(iid_pair(LN), [1.0, 1.0], 5.0, 50_000, seed=4, workers=3)
    assert r1 == r2
    assert r1.half_width95 == 1.96 * r1.std_error
    p = r1.estimate
    assert r1.std_error == pytest.approx(math.sqrt(p * (1 - p) / 50_000), rel=1e-12)
    with pytest.raises(ValueError):
        plain_mc(iid_pair(LN), [1.0], 5.0, 100, seed=1)


# ---------------------------------------------------------------- conditional MC


def test_cond_mc_threshold_zero_is_certain():
    r = cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 0.0, 1000, seed=5)
    assert r.estimate == 1.0


def test_cond_mc_published_anchor_rho0_x100():
    est = cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 100.0, 10**6, seed=42)
    approx = approx_sum_pair(LN, LN, 100.0, c=1.0)
    rv = ratio_vs_asymptotic(est, approx)
    assert abs(rv.ratio - 1.0927) <= 3.0 * math.hypot(rv.half_width, 0.0001)


def test_cond_mc_published_anchor_rho_neg09_x20():
    est = cond_mc_lognormal(0.0, 1.0, -0.9, [1.0, 1.0], 20.0, 10**6, seed=42)
    approx = approx_sum_pair(LN, LN, 20.0, c=1.0)
    rv = ratio_vs_asymptotic(est, approx)
    assert abs(rv.ratio - 1.0082) <= 3.0 * math.hypot(rv.half_width, 0.0064)


def test_cond_mc_agrees_with_plain_and_reduces_variance():
    n = 300_000
    rho, a, x = 0.4, [1.0, 1.5], 55.0
    cond = cond_mc_lognormal(0.0, 1.0, rho, a, x, n, seed=11)
    plain = plain_mc(bivariate_lognormal(0.0, 1.0, rho), a, x, n, seed=12)
    assert abs(cond.estimate - plain.estimate) <= 3.0 * math.hypot(cond.std_error, plain.std_error)
    assert plain.estimate < 1e-3
    assert cond.std_error < plain.std_error


def test_cond_mc_rejects_rho_endpoints():
    for rho in (-1.0, 1.0, -1.2, 1.5):
        with pytest.raises(ValueError):
            cond_mc_lognormal(0.0, 1.0, rho, [1.0, 1.0], 10.0, 100, seed=1)
    with pytest.raises(ValueError):
        cond_mc_terms([0.0] * 3, [1.0] * 3, -0.6, 10.0, 100, seed=1)  # not PD for d=3


@pytest.mark.parametrize(
    "call",
    [
        lambda args: cond_mc_lognormal(**args, x=10.0, n=1000, seed=1),
        lambda args: cond_mc_lognormal_curve(**args, xs=[10.0, 20.0], n=1000, seed=1),
    ],
    ids=["point", "curve"],
)
@pytest.mark.parametrize(
    "kw",
    [
        {"a": [1.0, math.nan]},
        {"a": [1.0, math.inf]},
        {"a": [1.0, -1.0]},
        {"mu": math.nan},
        {"mu": -math.inf},
        {"sigma": math.inf},
        {"sigma": math.nan},
        {"sigma": 0.0},
    ],
)
def test_cond_mc_rejects_what_the_exact_pair_rejects(kw, call):
    # a NaN coefficient was dropped as if zero, an infinite one gave 1.0 with SE 0
    args = {"mu": 0.0, "sigma": 1.0, "rho": 0.3, "a": [1.0, 1.0], **kw}
    with pytest.raises(ValueError, match="finite"):
        call(args)


def test_cond_mc_drops_zero_coefficients():
    r = cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 2.0], 10.0, 1000, seed=9)
    assert r.method == "exact" and r.std_error == 0.0
    assert r.estimate == pytest.approx(exact_lognormal_single(0.0, 1.0, 2.0, 10.0), rel=1e-14)
    r0 = cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 0.0], 10.0, 1000, seed=9)
    assert r0.estimate == 0.0
    with pytest.raises(ValueError):
        cond_mc_lognormal(0.0, 1.0, 0.3, [2.0], 10.0, 100, seed=1)


def test_cond_mc_three_terms_vs_plain():
    # equicorrelated triple via the general kernel against indicator MC
    rho, x = 0.25, 25.0
    cond = cond_mc_terms([0.0, 0.2, -0.1], [1.0, 1.0, 1.0], rho, x, 200_000, seed=13)
    corr = np.full((3, 3), rho)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    rng = np.random.default_rng(14)
    z = rng.standard_normal((10**6, 3)) @ chol.T
    terms = np.exp(np.array([0.0, 0.2, -0.1]) + z)
    p = float(np.mean(terms.sum(axis=1) > x))
    se = math.sqrt(p * (1 - p) / 10**6)
    assert abs(cond.estimate - p) <= 3.0 * math.hypot(se, cond.std_error)


def test_cond_mc_determinism_and_worker_invariance():
    kw = dict(mu=0.0, sigma=1.0, rho=0.3, a=[1.0, 1.0], x=50.0, n=2 * 10**6, seed=11)
    r1 = cond_mc_lognormal(**kw, workers=1)
    r2 = cond_mc_lognormal(**kw, workers=4)
    r3 = cond_mc_lognormal(**kw, workers=1)
    assert r1.estimate == r2.estimate == r3.estimate
    assert r1.std_error == r2.std_error == r3.std_error


def test_cond_mc_bits_do_not_depend_on_the_blas_thread_count():
    # The worker-count tests with CHUNK set to 4096 reduce rows below
    # OpenBLAS's 10,000-element cutoff for threading a dot product, so they
    # never reach a threaded BLAS reduction.  n = 10**6 runs 61 real chunks of
    # 2^14 rows, above that cutoff, and a partial one; the environment
    # variable is read by OpenBLAS only.
    code = (
        "import tailagg\n"
        "r = tailagg.cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 50.0, 10**6, 5)\n"
        "print(repr((r.estimate, r.std_error, r.ess)))\n"
    )
    src = str(Path(rare_event.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


def test_deep_tail_resolution():
    # the conditional route resolves 1e-14 probabilities with a tight CI
    est = cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 2000.0, 10**6, seed=21)
    assert 1e-14 < est.estimate < 1e-13
    assert est.half_width95 / est.estimate < 0.05


# ---------------------------------------------------------------- draw reuse across thresholds

SMALL_CHUNK = 4096
N_SPAN = 3 * SMALL_CHUNK + 1000  # three full chunks and a partial one


@pytest.fixture()
def small_chunks(monkeypatch):
    monkeypatch.setattr(rare_event, "CHUNK", SMALL_CHUNK)


def _table_thresholds():
    xs = {r[0] for t in (tables.TABLE2, tables.TABLE3, tables.TABLE4) for r in t}
    return [float(x) for x in sorted(xs)]


def _chunk_normals(key, k, shape):
    # chunk k's standard normals in one draw of the whole chunk
    return rare_event._stream(*key, k).standard_normal(shape)


def _exact_moments(chunks):
    # the exact (sum, sum of squares) of the values of every chunk, as Fractions: a
    # chunk of values v gives its pairwise sum s and, about c = s / len(v) as a
    # double, its sum of squares as sum (v - c)^2 + 2 c s - len(v) c^2
    total = total_sq = Fraction(0)
    for v in chunks:
        s = float(v.sum())
        c = s / len(v)
        total += Fraction(s)
        total_sq += Fraction(float(np.square(v - c).sum())) + 2 * Fraction(c) * Fraction(s) - len(v) * Fraction(c) ** 2
    return total, total_sq


def _pair_values(mu, rho, x, key, k, size):
    # chunk k's replication values, the d = 2 estimator written out inline
    sc = math.sqrt((1.0 - rho) * (1.0 + rho))
    z = _chunk_normals(key, k, (size, 2))
    w1, w2 = z[:, 0], rho * z[:, 0] + sc * z[:, 1]
    t1, t2 = np.exp(mu + w1), np.exp(mu + w2)
    v = 0.5 * erfc((((np.log(np.maximum(t2, x - t2)) - mu) - rho * w2) / sc) * (1.0 / math.sqrt(2.0)))
    v += 0.5 * erfc((((np.log(np.maximum(t1, x - t1)) - mu) - rho * w1) / sc) * (1.0 / math.sqrt(2.0)))
    return v


def _reference_pair_estimate(mu, rho, x, n, seed):
    # one threshold at a time, with the d = 2 estimator written out inline and
    # the chunk moments added exactly: the arithmetic every curve entry must match
    key = rare_event._seed_key(seed)
    chunks = (_pair_values(mu, rho, x, key, k, size) for k, size in rare_event._chunk_ranges(n))
    return EstimateResult.from_moments(*_exact_moments(chunks), n, "cond_mc", key)


def test_curve_matches_a_per_threshold_reference(small_chunks):
    xs = [3.0, 50.0, 600.0]
    for rho in (-0.9, 0.0, 0.9):
        curve = cond_mc_lognormal_curve(0.2, 1.0, rho, [1.0, 1.0], xs, N_SPAN, 17)
        assert curve == [_reference_pair_estimate(0.2, rho, x, N_SPAN, 17) for x in xs]


def test_curve_equals_one_threshold_calls_for_tables_2_to_4(small_chunks):
    xs = _table_thresholds()
    for rho in (-0.9, 0.0, 0.9):
        curve = cond_mc_lognormal_curve(0.0, 1.0, rho, [1.0, 1.0], xs, N_SPAN, 42)
        singles = [cond_mc_lognormal(0.0, 1.0, rho, [1.0, 1.0], x, N_SPAN, 42) for x in xs]
        assert curve == singles
        assert all(r.method == "cond_mc" and r.n == N_SPAN for r in curve)


def test_curve_equals_one_threshold_calls_at_d3(small_chunks):
    mu, sigma, rho, a = 0.1, 0.9, 0.3, [1.0, 0.5, 2.0]
    xs = [2.0, 20.0, 100.0]
    curve = cond_mc_lognormal_curve(mu, sigma, rho, a, xs, N_SPAN, (5, 2))
    nu = mu + np.log(np.asarray(a))
    singles = [cond_mc_terms(nu, [sigma] * 3, rho, x, N_SPAN, (5, 2)) for x in xs]
    assert curve == singles


def test_curve_is_worker_invariant(small_chunks):
    xs = [3.0, 30.0, 300.0]
    for a in ([1.0, 1.0], [1.0, 1.0, 1.0]):
        one = cond_mc_lognormal_curve(0.0, 1.0, 0.2, a, xs, N_SPAN, 9, workers=1)
        two = cond_mc_lognormal_curve(0.0, 1.0, 0.2, a, xs, N_SPAN, 9, workers=2)
        assert one == two


def test_curve_nonpositive_threshold_is_certain(small_chunks):
    curve = cond_mc_lognormal_curve(0.0, 1.0, -0.5, [1.0, 1.0], [0.0, 10.0, -3.0], N_SPAN, 4)
    for r in (curve[0], curve[2]):
        assert r.estimate == 1.0 and r.std_error == 0.0 and r.half_width95 == 0.0
    assert curve[1] == cond_mc_lognormal(0.0, 1.0, -0.5, [1.0, 1.0], 10.0, N_SPAN, 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replication_values_that_overflow_to_nan_are_refused():
    # terms of 1e300 e^(50 z) overflow to inf, and at x = inf the kernel's x - inf is NaN:
    # a NaN has no exact int, so the call raises rather than return a NaN estimate
    with pytest.raises(ValueError, match="replication value is NaN"):
        cond_mc_lognormal(0.0, 50.0, 0.5, [1e300, 1e300], math.inf, 20000, 1, workers=2)


def test_curve_draws_nothing_without_a_positive_threshold(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled for a certain event")

    monkeypatch.setattr(rare_event, "_stream", no_draws)
    curve = cond_mc_lognormal_curve(0.0, 1.0, 0.0, [1.0, 1.0], [0.0, -1.0], 1000, 1)
    assert [r.estimate for r in curve] == [1.0, 1.0]


def test_one_element_curve_equals_scalar_call(small_chunks):
    kw = dict(mu=0.0, sigma=1.0, rho=0.6, a=[2.0, 1.0], n=N_SPAN, seed=12)
    assert cond_mc_lognormal_curve(xs=[40.0], **kw) == [cond_mc_lognormal(x=40.0, **kw)]


def test_curve_with_one_positive_coefficient_is_exact():
    curve = cond_mc_lognormal_curve(0.0, 1.0, 0.3, [0.0, 2.0], [5.0, 10.0], 1000, 9)
    assert curve == [cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 2.0], x, 1000, 9) for x in (5.0, 10.0)]
    assert all(r.method == "exact" for r in curve)


# ---------------------------------------------------------------- whole-chunk references

# a full chunk, and three full chunks and a partial one
N_ONE = rare_event.CHUNK
N_MULTI = 3 * rare_event.CHUNK + 1003
WORKER_COUNTS = [1, 2, 3, 4, 7]  # 7 workers for at most 4 chunks
# x = 1e-3 is all but certain, so every row counts in the sums and a dropped one shows
CHUNK_XS = [1e-3, 4.0, 30.0, 1e12]


def _whole_chunk_curve(nu, sig, rho, xs, n, seed):
    # each chunk drawn, transformed and scored whole, with whole-vector reductions
    key = rare_event._seed_key(seed)
    nu, sig = np.asarray(nu, dtype=float), np.asarray(sig, dtype=float)
    values = [_unblocked_values(_chunk_normals(key, k, (size, len(nu))), nu, sig, rho, xs) for k, size in rare_event._chunk_ranges(n)]
    return [EstimateResult.from_moments(*_exact_moments(v[j] for v in values), n, "cond_mc", key) for j in range(len(xs))]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [N_ONE, N_MULTI], ids=["one_chunk", "chunks"])
def test_blocked_chunks_equal_a_whole_chunk_reference(d, n):
    nu, sig = np.linspace(-0.2, 0.3, d), np.linspace(0.8, 1.2, d)
    for rho, seed in ((0.4, 8), (-0.8 / (d - 1), (3, 1))):
        ref = _whole_chunk_curve(nu, sig, rho, CHUNK_XS, n, seed)
        for workers in WORKER_COUNTS:
            assert rare_event._cond_mc_curve(nu, sig, rho, CHUNK_XS, n, seed, workers) == ref
        assert [cond_mc_terms(nu, sig, rho, x, n, seed) for x in CHUNK_XS] == ref


PLAIN_KINDS = [
    iid_pair(LN),
    iid_pair(LN, dim=3),
    bivariate_lognormal(0.0, 1.0, 0.4),
    bivariate_lognormal(0.0, 1.0, -1.0),
    comonotone_inverse(weibull_type(0.5)),
    min_construction(2.0),
    mixed_min(LN, lognormal(0.0, 0.5)),
]


@pytest.mark.parametrize("model", PLAIN_KINDS, ids=lambda m: f"{m.kind}-{m.dim}")
@pytest.mark.parametrize("n", [N_ONE, N_MULTI], ids=["one_chunk", "chunks"])
def test_blocked_plain_mc_equals_whole_chunk_sample_count(model, n):
    a = np.linspace(1.0, 1.5, model.dim)
    key = (6, 2)
    # x = 0.5 is passed by most rows of every kind, so a dropped row shows in the count
    for x in (0.5, 8.0):
        hits = sum(
            int(np.count_nonzero(reference_rows(model, rare_event._stream(*key, k), size) @ a > x))
            for k, size in rare_event._chunk_ranges(n)
        )
        for workers in WORKER_COUNTS:
            r = plain_mc(model, a, x, n, key, workers)
            assert (r.estimate, r.ess) == (hits / n, hits)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.4])
def test_plain_rows_are_the_terms_the_d2_kernel_scores(small_chunks, rho):
    # plain MC's rows of chunk k are exp(mu + sigma W), W = (Z0, rho Z0 + s Z1) for the
    # chunk's normals Z, and the conditional kernel's d = 2 values on those Z, written
    # out on the rows and W, are its values bit for bit: its terms are the rows
    mu, sigma, key, xs = 0.2, 0.8, (6, 2), [3.0, 30.0]
    model = bivariate_lognormal(mu, sigma, rho)
    seen = []
    rare_event._count_rows(model, lambda rows: seen.append(rows.copy()) or rows[:, 0] > 1.0, N_SPAN, key)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    assert [len(rows) for rows in seen] == [size for _, size in rare_event._chunk_ranges(N_SPAN)]
    for k, rows in enumerate(seen):
        z = rare_event._stream(*key, k).standard_normal((len(rows), 2))
        w1, w2 = z[:, 0], rho * z[:, 0] + s * z[:, 1]
        assert np.array_equal(rows, np.exp(mu + sigma * np.column_stack([w1, w2])))
        got = kernels.equicorr_chunk(z, np.full(2, mu), np.full(2, sigma), rho, xs, np.empty((len(xs), len(rows))))
        t1, t2 = rows[:, 0], rows[:, 1]
        for j, x in enumerate(xs):
            v = 0.5 * erfc((((np.log(np.maximum(t2, x - t2)) - mu) / sigma - rho * w2) / s) * (1.0 / math.sqrt(2.0)))
            v += 0.5 * erfc((((np.log(np.maximum(t1, x - t1)) - mu) / sigma - rho * w1) / s) * (1.0 / math.sqrt(2.0)))
            assert np.array_equal(got[j], v)


def test_call_memory_is_one_chunk_of_values_not_n_rows():
    # 32 chunks at 19 thresholds: 19 x 2^19 x 8 B = 76 MiB as an n-wide buffer,
    # 19 x CHUNK x 8 B = 2.4 MiB as one chunk's replication values
    xs = np.geomspace(3.0, 1000.0, 19).tolist()
    tracemalloc.start()
    try:
        cond_mc_lognormal_curve(0.0, 1.0, 0.0, [1.0, 1.0], xs, 1 << 19, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_call_memory_does_not_grow_with_the_chunk_count(monkeypatch):
    # 16-row chunks at 7 thresholds: a result held per chunk, about 855 B, would
    # take 1.3 MB more at 2000 chunks than at 500
    monkeypatch.setattr(rare_event, "CHUNK", 16)
    xs = [float(r[0]) for r in tables.TABLE3]

    def peak(chunks):
        tracemalloc.start()
        try:
            cond_mc_lognormal_curve(0.0, 1.0, 0.0, [1.0, 1.0], xs, 16 * chunks, 42)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # what a first call allocates once
    assert abs(peak(2000) - peak(500)) < 64 * 2**10


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_deep_x_std_error_matches_a_two_pass_reference(n):
    # at x = 1e9 the values spread about 3e-8 of their mean, so
    # sum v^2 - n mean^2 keeps few digits; two passes keep them all
    key = rare_event._seed_key(7)
    v = np.concatenate([_pair_values(0.0, 0.0, 1e9, key, k, size) for k, size in rare_event._chunk_ranges(n)])
    mean = math.fsum(v) / n
    se = math.sqrt(math.fsum(np.square(v - mean)) / (n - 1) / n)
    # relative, as pytest.approx's default absolute tolerance of 1e-12 would pass any SE near 1e-105
    assert abs(cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 1e9, n, 7).std_error / se - 1.0) < 1e-5


# ---------------------------------------------------------------- seed keys


def _first_draws(key, k):
    return rare_event._uniforms(rare_event._stream(*key, k), np.empty((100, 2)))


def test_a_trailing_zero_word_names_another_key():
    kw = dict(mu=0.0, sigma=1.0, rho=0.3, a=[1.0, 1.0], x=50.0, n=10**5)
    assert cond_mc_lognormal(seed=(42, 0), **kw).estimate != cond_mc_lognormal(seed=42, **kw).estimate


@pytest.mark.parametrize("s, k", [(1, 1), (42, 3)])
def test_chunk_0_of_key_s_k_is_not_chunk_k_of_key_s(s, k):
    assert not np.array_equal(_first_draws((s, k), 0), _first_draws((s,), k))


def test_estimates_carry_their_seed_key():
    assert cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 1.0], 50.0, 100, 7).seed == (7,)
    assert cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 1.0], 50.0, 100, [7, np.int64(2)]).seed == (7, 2)
    assert plain_mc(iid_pair(LN), [1.0, 1.0], 10.0, 100, (7, 2)).seed == (7, 2)


MALFORMED_KEYS = [1.7, (1, 0.5), True, (1, True), np.bool_(True), -1, (1, -1), (), "3", None, 2**128, (1, 2**32)]


@pytest.mark.parametrize("seed", MALFORMED_KEYS, ids=repr)
def test_malformed_seed_keys_are_rejected_before_any_draw(monkeypatch, seed):
    def no_draws(*args):
        raise AssertionError("drew for a malformed key")

    monkeypatch.setattr(rare_event, "_stream", no_draws)
    calls = [
        lambda: cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 1.0], 50.0, 100, seed),
        # calls that draw nothing check the key too: certain thresholds, a one-term sum
        lambda: cond_mc_lognormal_curve(0.0, 1.0, 0.3, [1.0, 1.0], [0.0, -1.0], 100, seed),
        lambda: cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 2.0], 10.0, 100, seed),
        lambda: plain_mc(iid_pair(LN), [1.0, 1.0], 10.0, 100, seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed key") as exc:
            call()
        assert repr(seed) in str(exc.value)


# ---------------------------------------------------------------- effective sample size


def test_ess_of_constant_replication_values_is_n():
    for n, c in ((100, 0.5), (10**6, 0.25), (7, 1.0)):
        assert EstimateResult.from_moments(n * c, n * c * c, n, "cond_mc", 1).ess == n


def test_ess_is_nan_for_exact_results():
    assert math.isnan(exact_comonotone_lognormal(0.0, 10.0).ess)
    assert math.isnan(cond_mc_lognormal(0.0, 1.0, 0.3, [0.0, 2.0], 10.0, 1000, seed=9).ess)
    assert math.isnan(cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 2.0], 0.0, 1000, seed=9).ess)


def test_ess_of_estimates():
    r = cond_mc_lognormal(0.0, 1.0, 0.0, [1.0, 1.0], 100.0, 50_000, seed=3)
    assert 0.0 < r.ess <= r.n
    # the ESS is the moment ratio, so it also fixes the relative error: with
    # mean m and ESS e, Var v = m^2 (n/e - 1) up to the n-1 correction
    rel_var = (r.std_error / r.estimate) ** 2 * r.n
    assert rel_var == pytest.approx((r.n / r.ess - 1.0) * r.n / (r.n - 1), rel=1e-9)
    p = plain_mc(iid_pair(LN), [1.0, 1.0], 10.0, 20_000, seed=4)
    assert p.ess == round(p.estimate * p.n)


# ---------------------------------------------------------------- ratio helper


def test_ratio_vs_asymptotic_identity_and_anchor():
    approx = approx_sum_pair(LN, LN, 10.0, c=1.0)
    est = EstimateResult(approx.value, 100, 0.0, 0.0, "exact", None)
    rv = ratio_vs_asymptotic(est, approx)
    assert rv.ratio == 1.0 and rv.half_width == 0.0

    exact = exact_comonotone_lognormal(0.0, 10.0)
    rv = ratio_vs_asymptotic(exact, approx)
    assert round(rv.ratio, 4) == 1.0272


def test_ratio_published_table_row_arithmetic():
    # the rho = 0.9 row at threshold 50 reproduces its printed ratio
    est = EstimateResult(5.2652e-4, 10**7, 0.0, 0.0, "cond_mc", 0)
    approx = approx_sum_pair(LN, LN, 50.0, c=1.0)
    assert round(ratio_vs_asymptotic(est, approx).ratio, 4) == pytest.approx(5.7527, abs=2e-4)


def test_ratio_rejects_nonpositive_approximation():
    est = EstimateResult(0.5, 10, 0.01, 0.0196, "plain_mc", 1)
    with pytest.raises(ValueError):
        ratio_vs_asymptotic(est, 0.0)


def test_estimate_result_moment_reduction():
    r = EstimateResult.from_moments(50.0, 30.0, 100, "cond_mc", 3)
    assert r.estimate == 0.5
    var = (30.0 - 100 * 0.25) / 99
    assert r.std_error == pytest.approx(math.sqrt(var / 100), rel=1e-12)
    assert r.half_width95 == 1.96 * r.std_error


# ---------------------------------------------------------------- weibull-type pair


def test_weibull_pair_sum_ratio_matches_quadrature():
    # numeric convolution oracle for P(X+Y > x)/(2 P(X > x)) at x = 50
    from scipy.integrate import quad

    alpha = 0.5
    sf = lambda t: math.exp(-(t**alpha))
    pdf = lambda t: alpha * t ** (alpha - 1.0) * math.exp(-(t**alpha))
    x = 50.0
    inner, _ = quad(lambda y: sf(x - y) * pdf(y), 0.0, x / 2.0, limit=400)
    oracle = (2.0 * inner + sf(x / 2.0) ** 2) / (2.0 * sf(x))
    assert oracle == pytest.approx(1.2080, abs=2e-3)

    r = plain_mc(iid_pair(weibull_type(alpha)), [1.0, 1.0], x, 10**6, seed=33)
    denom = 2.0 * sf(x)
    ratio = r.estimate / denom
    assert abs(ratio - oracle) <= 3.0 * r.std_error / denom


def test_one_chunk_runs_inline_without_a_pool(monkeypatch):
    kw = dict(mu=0.0, sigma=1.0, rho=0.3, a=[1.0, 2.0], x=20.0, n=5000, seed=11)
    serial = cond_mc_lognormal(**kw, workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool built")

    monkeypatch.setattr(rare_event, "ThreadPoolExecutor", no_pool)
    assert cond_mc_lognormal(**kw, workers=4) == serial
    # two chunks still go to the pool
    with pytest.raises(AssertionError, match="thread pool built"):
        plain_mc(iid_pair(LN), [1.0, 1.0], 5.0, rare_event.CHUNK + 1, seed=4, workers=2)


# ---------------------------------------------------------------- worker shares


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_each_worker_gets_one_pool_task_of_contiguous_chunks(small_chunks, monkeypatch, workers):
    tasks, seen = [], []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(rare_event, "ThreadPoolExecutor", CountingPool)
    chunks = list(rare_event._chunk_ranges(N_SPAN))
    # each chunk adds [1, size], so the sum is [chunks, rows]
    assert rare_event._map_chunks(lambda item: seen.append(item) or [1, item[1]], N_SPAN, workers) == [len(chunks), N_SPAN]
    assert sorted(seen) == chunks
    assert len(tasks) == (0 if workers == 1 else min(workers, len(chunks)))
    assert all(type(share) is range and share.step == 1 for (share,) in tasks)


class _ReversedPool(ThreadPoolExecutor):
    # runs and returns the shares last first
    def map(self, fn, *iterables, **kwargs):
        return super().map(fn, *(list(it)[::-1] for it in iterables), **kwargs)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_bits_do_not_depend_on_the_order_chunks_run_or_are_added_in(small_chunks, monkeypatch, workers):
    nu, sig, key = np.zeros(3), np.ones(3), (3, 1)
    calls = [
        lambda w: rare_event._cond_mc_curve(nu, sig, 0.4, CHUNK_XS, N_SPAN, key, w),
        lambda w: plain_mc(bivariate_lognormal(0.0, 1.0, 0.4), [1.0, 1.0], 4.0, N_SPAN, key, w),
    ]
    want = [call(1) for call in calls]
    chunk_ranges = rare_event._chunk_ranges
    monkeypatch.setattr(rare_event, "ThreadPoolExecutor", _ReversedPool)
    assert [call(workers) for call in calls] == want
    # each share's chunks last first, too
    monkeypatch.setattr(rare_event, "_chunk_ranges", lambda n, ks=None: reversed(list(chunk_ranges(n, ks))))
    assert [call(workers) for call in calls] == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_the_chunk_sum_is_the_correctly_rounded_sum_in_any_order(values, rnd):
    # a value a chunk: the exact int sum, rounded once, is math.fsum's sum
    def total(vals, workers):
        (acc,) = rare_event._map_chunks(lambda item: [int(Fraction(vals[item[0]]) * rare_event._ULP)], len(vals) * rare_event.CHUNK, workers)
        return acc / rare_event._ULP

    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert total(values, 1) == total(shuffled, 3) == math.fsum(values)


class _FirstCall(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_nothing_per_chunk_is_held_before_the_first_call(workers):
    # 10^5 chunks: a (k, size) tuple for each would take about 9.2 MB before the first draw
    peaks = []

    def first(item):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _FirstCall

    tracemalloc.start()
    try:
        with pytest.raises(_FirstCall):
            rare_event._map_chunks(first, rare_event.CHUNK * 10**5, workers)
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) < 2**20


@pytest.mark.parametrize("n", [rare_event.CHUNK * 2**32 + 1, 10**15])
def test_more_than_2_32_chunks_are_refused_before_any_is_listed(monkeypatch, n):
    # chunk 2^32 of a key would draw what chunk 1 of the key with a further word 0 draws
    def unreachable(*args):
        raise AssertionError("chunks listed or drawn")

    monkeypatch.setattr(rare_event, "_chunk_ranges", unreachable)
    monkeypatch.setattr(rare_event, "_stream", unreachable)
    calls = [
        lambda: cond_mc_lognormal_curve(0.0, 1.0, 0.3, [1.0, 1.0], [5.0, 50.0], n, 1, workers=2),
        lambda: plain_mc(iid_pair(LN), [1.0, 1.0], 5.0, n, 1),
        lambda: check_joint_aux(iid_pair(LN), 1.0, [2.0, 4.0], method="mc", mc_n=n, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n = {n} needs more than 2\\^32 chunks"):
            call()


def test_exactly_2_32_chunks_are_allowed(monkeypatch):
    monkeypatch.setattr(rare_event, "_chunk_ranges", lambda n: iter([]))
    assert rare_event._map_chunks(None, rare_event.CHUNK * 2**32, 1) == []


# estimates of one full chunk, pinned to the bits of SFC64 draws: chunk 0 draws
# its whole array from stream 0 of the key, so these move only with the draw
# and with the reduction (`_chunk_moments`, `EstimateResult.from_moments`)
ONE_CHUNK_BITS = {
    "cond_d2": (
        lambda: [cond_mc_lognormal(0.0, 1.0, 0.3, [1.0, 1.0], 20.0, 16384, (7, 3))],
        [("0x1.583fb00ae461fp-8", "0x1.013fbc9a43b0fp-14", "0x1.3cadfed0b44cfp+12")],
    ),
    "cond_d3": (
        lambda: cond_mc_lognormal_curve(0.1, 0.9, 0.3, [1.0, 0.5, 2.0], [5.0, 50.0], 16384, 11, workers=2),
        [
            ("0x1.c050228cd46a0p-2", "0x1.ebfda58b4e333p-10", "0x1.8985d7e963d68p+13"),
            ("0x1.246dc0ffac99dp-11", "0x1.3d4ad1671fabfp-16", "0x1.9d00507f2a64ep+9"),
        ],
    ),
    "plain": (
        lambda: [plain_mc(bivariate_lognormal(0.0, 1.0, 0.4), [1.0, 1.0], 8.0, 16384, 5)],
        [("0x1.2a80000000000p-4", "0x1.0a2bd3f7dee74p-9", "0x1.2a80000000000p+10")],
    ),
}


@pytest.mark.parametrize("route", ONE_CHUNK_BITS)
def test_a_one_chunk_estimate_keeps_its_bits(route):
    call, bits = ONE_CHUNK_BITS[route]
    assert [tuple(v.hex() for v in (r.estimate, r.std_error, r.ess)) for r in call()] == bits


def test_a_one_chunk_mc_check_keeps_its_bits():
    rep = check_joint_aux(iid_pair(LN), 1.0, [1.5, 3.0], method="mc", mc_n=16384, seed=2)
    assert [float(v).hex() for v in rep.values] == ["0x1.9e8435e0c1a96p-6", "0x1.91bf44edbd307p-3"]
