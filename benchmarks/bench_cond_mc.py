"""Benchmark: conditional-MC cost per replication per threshold, 1 vs 7 thresholds.

The seven thresholds are those of reference table 3 (rho = 0); the single
threshold is x = 100 among them.  Two stages are timed on the same draws:
  kernel     `kernels.pair_chunk` on pre-generated normals (correlation mix,
             exp/log, erfc), the x-independent work shared by all thresholds;
             the d = 3 rows time `kernels.equicorr_chunk` on three terms;
  estimator  `cond_mc_lognormal_curve` end to end (Philox uniforms, ndtri,
             kernel, chunk reduction), one worker.
Sampling is done once per chunk whatever the number of thresholds, so the
per-threshold cost falls as thresholds are added.

Run:  python benchmarks/bench_cond_mc.py [n]
"""

import sys
import time

import numpy as np
from scipy.special import ndtri

from tailagg import cond_mc_lognormal_curve, kernels
from tailagg.tables import TABLE3

RHO = 0.0
XS = {1: [100.0], 7: [float(r[0]) for r in TABLE3]}


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(n: int = 2_000_000, repeats: int = 3):
    rng = np.random.Generator(np.random.Philox(seed=12345))
    z = ndtri(rng.random((n, 3)))
    z1 = np.ascontiguousarray(z[:, 0])
    z2 = np.ascontiguousarray(z[:, 1])
    zeros, ones = np.zeros(3), np.ones(3)

    print(f"n = {n}, rho = {RHO}, best of {repeats}; ns per replication per threshold")
    for m, xs in XS.items():
        k = _best(lambda: kernels.pair_chunk(z1, z2, 0.0, 0.0, 1.0, 1.0, RHO, xs), repeats)
        e = _best(lambda: cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0, 1.0], xs, n, 42), repeats)
        print(f"d = 2, m = {m}:  kernel {k * 1e9 / (n * m):7.2f}   estimator {e * 1e9 / (n * m):7.2f}")
    for m, xs in XS.items():
        k = _best(lambda: kernels.equicorr_chunk(z, zeros, ones, RHO, xs), repeats)
        e = _best(lambda: cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0, 1.0, 1.0], xs, n, 42), repeats)
        print(f"d = 3, m = {m}:  kernel {k * 1e9 / (n * m):7.2f}   estimator {e * 1e9 / (n * m):7.2f}")


if __name__ == "__main__":
    bench(int(float(sys.argv[1])) if len(sys.argv) > 1 else 2_000_000)
