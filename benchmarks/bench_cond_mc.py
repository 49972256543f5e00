"""Benchmark: conditional-MC cost per row, end to end and stage by stage, and memory per call.

The figures of its record:
  pipeline_ns_per_row  `cond_mc_lognormal_curve` end to end over 2^20 rows
                       (64 chunks of `rare_event.CHUNK` rows), ns per row
                       (not per threshold), best of --repeats, keyed
                       d<d>_m<m>_w<workers> for d = 2, 3, m = 1, 7 and 1
                       and 2 workers
  cpu_per_wall         for the same keys, process CPU seconds
                       (`time.process_time`) over wall seconds of the call
                       timed in pipeline_ns_per_row: about 1 at w1 and up
                       to 2 at w2 on two cores; a thread outside the worker
                       pool, such as a spinning BLAS helper, shows as ~2 at
                       w1
  peak_mb_per_call     tracemalloc peak of one one-worker
                       `cond_mc_lognormal_curve` call over 2^19 rows, MB,
                       keyed d<d>_m<m> for m = 1, 7, 19: each chunk's
                       replication values grow with the number of
                       thresholds m, and n does not show.  Records taken
                       with 2^19-row chunks call this peak_mb_per_chunk
  stages_ns_per_row    the stages of 2^19 rows as the estimator runs them,
                       one chunk of `rare_event.CHUNK` rows at a time:
                         normals    standard normals by numpy's ziggurat
                                    from `joint._stream` (SFC64; Philox in
                                    records before BENCH_25.json), d per
                                    row, each chunk from its own generator
                                    in one call: how the estimator and the
                                    bivariate lognormal's plain MC draw
                         uniforms   the same with uniforms plus the
                                    in-place clip (`_uniforms`): how plain
                                    MC draws the other joint kinds
                         ndtri      in place on those uniforms: with
                                    uniforms, the inverse-CDF route to
                                    normals that `normals` replaced
                         kernel     `kernels.equicorr_chunk` per chunk, per
                                    threshold scored, including the
                                    threshold-independent work (mix, terms,
                                    conditional means) shared by all m
                         reduction  per chunk, the sum and the sum of the
                                    squares of one row of replication
                                    values, per threshold
Beside each best-of figure, pipeline_ns_per_row and stages_ns_per_row, the
record holds the median (`..._median`) and the interquartile range Q3 - Q1
(`..._iqr`) of its --repeats timings, in the same unit: the same stage code
has read up to 43% apart between two records, and a best-of figure means
little where its spread is of that size.
The thresholds are those of reference table 3 (rho = 0): x = 100 alone
(m = 1), all seven (m = 7), and for the memory figure 19 spread over
x = 3-1000.  `_record.main` stores the record, with `chunk`, the rows of a
chunk, and the speed probes (see `_record`).
"""

import sys
import time
import tracemalloc

import _record  # first: it puts src/ and perfbench/ on sys.path
import numpy as np
from _record import summaries, timings
from scipy.special import ndtri

from tailagg import cond_mc_lognormal_curve, kernels
from tailagg.joint import _stream, _uniforms
from tailagg.rare_event import CHUNK
from tailagg.tables import TABLE3

RHO = 0.0
XS = {1: [100.0], 7: [float(r[0]) for r in TABLE3], 19: np.geomspace(3.0, 1000.0, 19).tolist()}
PIPELINE_ROWS = 1 << 20
PEAK_ROWS = STAGE_ROWS = 1 << 19
# (k, lo, hi) of each chunk of the stages' rows
CHUNKS = [(k, lo, lo + CHUNK) for k, lo in enumerate(range(0, STAGE_ROWS, CHUNK))]


def pipeline(repeats: int) -> tuple:
    # ns per row of repeats calls per key, and the cpu per wall of the fastest
    n = PIPELINE_ROWS
    raw, cpu = {}, {}
    for d in (2, 3):
        for m in (1, 7):
            for workers in (1, 2):
                runs = []
                for _ in range(repeats):
                    w0, c0 = time.perf_counter(), time.process_time()
                    cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0] * d, XS[m], n, 42, workers)
                    wall = time.perf_counter() - w0
                    runs.append((wall, (time.process_time() - c0) / wall))
                key = f"d{d}_m{m}_w{workers}"
                raw[key], cpu[key] = ([wall for wall, _ in runs], 1e9 / n), min(runs)[1]
    return summaries(raw), cpu


def peak_per_call() -> dict:
    out = {}
    for d in (2, 3):
        for m in (1, 7, 19):
            tracemalloc.start()
            cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0] * d, XS[m], PEAK_ROWS, 42)
            out[f"d{d}_m{m}"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    return out


def stages(repeats: int) -> tuple:
    per_row = 1e9 / STAGE_ROWS
    out = {}
    # one threshold's values of the stages' rows, and a chunk's worth for the squares
    v = np.random.default_rng(1).random((1, STAGE_ROWS))
    sq = np.empty((1, CHUNK))

    def reduction(_):
        for _k, lo, hi in CHUNKS:
            v[:, lo:hi].sum(axis=1)
            np.square(v[:, lo:hi], out=sq).sum(axis=1)

    out["reduction"] = timings(reduction, repeats), per_row
    for d in (2, 3):

        def normals(_):
            for k, _lo, _hi in CHUNKS:
                _stream(12345, k).standard_normal((CHUNK, d))

        def uniforms(_):
            for k, _lo, _hi in CHUNKS:
                _uniforms(_stream(12345, k), np.empty((CHUNK, d)))

        def inverse_cdf(_):
            for _k, lo, hi in CHUNKS:
                ndtri(uu[lo:hi], out=uu[lo:hi])

        out[f"d{d}_normals"] = timings(normals, repeats), per_row
        out[f"d{d}_uniforms"] = timings(uniforms, repeats), per_row
        u0 = np.concatenate([_uniforms(_stream(12345, k), np.empty((CHUNK, d))) for k, _lo, _hi in CHUNKS])
        uu = np.empty_like(u0)
        out[f"d{d}_ndtri"] = timings(inverse_cdf, repeats, lambda: np.copyto(uu, u0)), per_row
        z = np.concatenate([_stream(12345, k).standard_normal((CHUNK, d)) for k, _lo, _hi in CHUNKS])
        nu, sig = np.zeros(d), np.ones(d)
        for m in (1, 7):

            def kernel(_):
                for _k, lo, hi in CHUNKS:
                    kernels.equicorr_chunk(z[lo:hi], nu, sig, RHO, XS[m], np.empty((m, CHUNK)))

            out[f"d{d}_m{m}_kernel"] = timings(kernel, repeats), per_row / m
    return summaries(out)


def figures(args) -> dict:
    (ns, ns_median, ns_iqr), cpu = pipeline(args.repeats)
    stage, stage_median, stage_iqr = stages(args.repeats)
    return {
        "pipeline_ns_per_row": ns,
        "pipeline_ns_per_row_median": ns_median,
        "pipeline_ns_per_row_iqr": ns_iqr,
        "cpu_per_wall": cpu,
        "peak_mb_per_call": peak_per_call(),
        "stages_ns_per_row": stage,
        "stages_ns_per_row_median": stage_median,
        "stages_ns_per_row_iqr": stage_iqr,
        "chunk": CHUNK,
    }


def main(argv=None) -> int:
    return _record.main(__doc__, figures, argv, repeats=_record.REPEATS)


if __name__ == "__main__":
    sys.exit(main())
