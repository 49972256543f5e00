"""Benchmark: conditional-MC cost per row of one chunk, stage by stage.

Every stage runs on one chunk of `rare_event.CHUNK` rows, the size the
estimator hands to its kernels, so cache effects are those of a real run:
  uniforms   Philox uniforms plus the in-place clip (`joint._uniforms`),
             d per row
  ndtri      the in-place inverse normal CDF on those uniforms
  kernel     `kernels.equicorr_chunk` on the normals, at d = 2 and d = 3,
             per threshold scored; it includes the threshold-independent
             work (correlation mix, conditional means, exp), shared by all
             thresholds, and the reduction below
  reduction  `v.sum()` and `np.dot(v, v)` over one chunk-long vector of
             replication values, the kernel's per-threshold reduction
  estimator  `cond_mc_lognormal_curve` on one chunk end to end, per
             threshold, one worker
The thresholds are those of reference table 3 (rho = 0): x = 100 alone
(m = 1) and all seven (m = 7) on the same draws.  The sampling stages are
done once per chunk whatever m is, so the estimator's per-threshold cost
falls as thresholds are added.

Run:  python benchmarks/bench_cond_mc.py [repeats]
"""

import sys
import time

import numpy as np
from scipy.special import ndtri

from tailagg import cond_mc_lognormal_curve, kernels
from tailagg.joint import _uniforms
from tailagg.rare_event import CHUNK
from tailagg.tables import TABLE3

RHO = 0.0
XS = {1: [100.0], 7: [float(r[0]) for r in TABLE3]}


def _best(fn, repeats: int, setup=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def bench(repeats: int = 5):
    n = CHUNK
    per_row = 1e9 / n
    print(f"rows = {n} (rare_event.CHUNK), rho = {RHO}, best of {repeats}; ns per row")
    v = np.random.default_rng(1).random(n)
    reduction = _best(lambda _: (v.sum(), np.dot(v, v)), repeats) * per_row
    for d in (2, 3):
        uniforms = _best(lambda _: _uniforms(12345, 0, (n, d)), repeats) * per_row
        u = _uniforms(12345, 0, (n, d))
        # in place, as the estimator runs it, on a fresh copy each time
        ndtri_s = _best(lambda w: ndtri(w, out=w), repeats, u.copy) * per_row
        z = ndtri(u, out=u)
        print(f"d = {d}: uniforms {uniforms:6.2f}   ndtri {ndtri_s:6.2f}   reduction {reduction:5.2f} per threshold")
        for m, xs in XS.items():
            k = _best(lambda _: kernels.equicorr_chunk(z, np.zeros(d), np.ones(d), RHO, xs), repeats)
            e = _best(lambda _: cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0] * d, xs, n, 42), repeats)
            print(f"  m = {m}: kernel {k * per_row / m:7.2f}   estimator {e * per_row / m:7.2f}   per threshold")


if __name__ == "__main__":
    bench(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
