import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from tailagg import (
    approx_sum_pair,
    bivariate_lognormal,
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
from tailagg import rare_event, tables
from tailagg.kernels import _BLOCK, _blocks
from tailagg.rare_event import EstimateResult
from test_kernels import _unblocked

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
    # never reach a threaded BLAS reduction.  n = 10**6 runs two real
    # 2^19-row chunks; the environment variable is read by OpenBLAS only.
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


def _chunk_uniforms(key, k, shape):
    # chunk k's uniforms in one draw of the whole chunk
    return rare_event._uniforms(rare_event._stream(*key, k), np.empty(shape))


def _chunk_normals(key, k, shape):
    # chunk k's standard normals in one draw of the whole chunk
    return rare_event._stream(*key, k).standard_normal(shape)


def _reference_pair_estimate(mu, rho, x, n, seed):
    # one threshold at a time, with the d = 2 estimator written out inline and
    # the chunks reduced in order: the arithmetic every curve entry must match
    key = rare_event._seed_key(seed)
    sc = math.sqrt((1.0 - rho) * (1.0 + rho))
    total = total_sq = 0.0
    for k, size in rare_event._chunk_ranges(n):
        z = _chunk_normals(key, k, (size, 2))
        w1, w2 = z[:, 0], rho * z[:, 0] + sc * z[:, 1]
        t1, t2 = np.exp(mu + w1), np.exp(mu + w2)
        v = 0.5 * erfc((((np.log(np.maximum(t2, x - t2)) - mu) - rho * w2) / sc) * (1.0 / math.sqrt(2.0)))
        v += 0.5 * erfc((((np.log(np.maximum(t1, x - t1)) - mu) - rho * w1) / sc) * (1.0 / math.sqrt(2.0)))
        total += float(v.sum())
        total_sq += float(np.square(v, out=v).sum())
    return EstimateResult.from_moments(total, total_sq, n, "cond_mc", key)


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


# ---------------------------------------------------------------- row blocks within a chunk

# a chunk runs one row block of kernels._BLOCK rows at a time, end to end; these
# chunks span several blocks and end in a partial one
N_BLOCKS = 2 * _BLOCK + 17  # inside one chunk
MULTI_CHUNK = 2 * _BLOCK + 5
N_MULTI = 3 * MULTI_CHUNK + _BLOCK + 3  # three multi-block chunks and a partial one
# x = 1e-3 is all but certain, so every row counts in the sums and a dropped one shows
BLOCK_XS = [1e-3, 4.0, 30.0, 1e12]


def _whole_chunk_curve(nu, sig, rho, xs, n, seed):
    # each chunk drawn, transformed and scored whole, with whole-vector reductions
    key = rare_event._seed_key(seed)
    nu, sig = np.asarray(nu, dtype=float), np.asarray(sig, dtype=float)
    sums = np.zeros((len(xs), 2))
    for k, size in rare_event._chunk_ranges(n):
        sums += _unblocked(_chunk_normals(key, k, (size, len(nu))), nu, sig, rho, xs)
    return [EstimateResult.from_moments(t, tsq, n, "cond_mc", key) for t, tsq in sums.tolist()]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("chunk, n", [(rare_event.CHUNK, N_BLOCKS), (MULTI_CHUNK, N_MULTI)], ids=["one_chunk", "chunks"])
def test_blocked_chunks_equal_a_whole_chunk_reference(monkeypatch, d, chunk, n):
    monkeypatch.setattr(rare_event, "CHUNK", chunk)
    nu, sig = np.linspace(-0.2, 0.3, d), np.linspace(0.8, 1.2, d)
    for rho, seed in ((0.4, 8), (-0.8 / (d - 1), (3, 1))):
        ref = _whole_chunk_curve(nu, sig, rho, BLOCK_XS, n, seed)
        assert rare_event._cond_mc_curve(nu, sig, rho, BLOCK_XS, n, seed, 2) == ref
        assert [cond_mc_terms(nu, sig, rho, x, n, seed) for x in BLOCK_XS] == ref


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
@pytest.mark.parametrize("chunk, n", [(rare_event.CHUNK, N_BLOCKS), (MULTI_CHUNK, N_MULTI)], ids=["one_chunk", "chunks"])
def test_blocked_plain_mc_equals_whole_chunk_sample_count(monkeypatch, model, chunk, n):
    monkeypatch.setattr(rare_event, "CHUNK", chunk)
    a = np.linspace(1.0, 1.5, model.dim)
    key = (6, 2)
    # x = 0.5 is passed by most rows of every kind, so a dropped row shows in the count
    for x in (0.5, 8.0):
        hits = sum(
            int(np.count_nonzero(model.rows(_chunk_uniforms(key, k, (size, model.uniform_dim))) @ a > x))
            for k, size in rare_event._chunk_ranges(n)
        )
        for workers in (1, 2):
            r = plain_mc(model, a, x, n, key, workers)
            assert (r.estimate, r.ess) == (hits / n, hits)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_draws_continue_one_philox_stream(d):
    key, k, n = (4, 9), 2, N_BLOCKS
    whole = _chunk_uniforms(key, k, (n, d))
    # each block's uniforms live in scratch the next block overwrites
    blocks = [(lo, hi, u.copy()) for lo, hi, u in rare_event._block_draws(key, k, n, d, rare_event._uniforms)]
    assert [(lo, hi) for lo, hi, _ in blocks] == list(_blocks(n))
    for lo, hi, u in blocks:
        assert np.array_equal(u, whole[lo:hi])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_normals_continue_one_philox_stream(d):
    # the ziggurat takes a varying number of raw words per normal, so this
    # holds only because the blocks fill in order from the chunk's one generator
    key, k, n = (4, 9), 2, N_BLOCKS
    whole = _chunk_normals(key, k, (n, d))
    fill = np.random.Generator.standard_normal
    blocks = [(lo, hi, z.copy()) for lo, hi, z in rare_event._block_draws(key, k, n, d, fill)]
    assert [(lo, hi) for lo, hi, _ in blocks] == list(_blocks(n))
    for lo, hi, z in blocks:
        assert np.array_equal(z, whole[lo:hi])


# ---------------------------------------------------------------- seed keys


def _first_block(key, k):
    return next(rare_event._block_draws(key, k, 100, 2, rare_event._uniforms))[2].copy()


def test_a_trailing_zero_word_names_another_key():
    kw = dict(mu=0.0, sigma=1.0, rho=0.3, a=[1.0, 1.0], x=50.0, n=10**5)
    assert cond_mc_lognormal(seed=(42, 0), **kw).estimate != cond_mc_lognormal(seed=42, **kw).estimate


@pytest.mark.parametrize("s, k", [(1, 1), (42, 3)])
def test_chunk_0_of_key_s_k_is_not_chunk_k_of_key_s(s, k):
    assert not np.array_equal(_first_block((s, k), 0), _first_block((s,), k))


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
