"""Benchmark: conditional-MC cost per row, end to end and stage by stage, and memory per chunk.

Prints, and writes as one JSON record:
  pipeline_ns_per_row  `cond_mc_lognormal_curve` end to end over two chunks
                       of `rare_event.CHUNK` rows, ns per row (not per
                       threshold), best of --repeats, keyed d<d>_m<m>_w<workers>
                       for d = 2, 3, m = 1, 7 and 1 and 2 workers
  cpu_per_wall         for the same keys, process CPU seconds
                       (`time.process_time`) over wall seconds of the call
                       timed in pipeline_ns_per_row: about 1 at w1 and up
                       to 2 at w2 on two cores; a thread outside the worker
                       pool, such as a spinning BLAS helper, shows as ~2 at
                       w1
  peak_mb_per_chunk    tracemalloc peak of one one-chunk, one-worker
                       `cond_mc_lognormal_curve` call, MB, keyed d<d>_m<m>
                       for m = 1, 7, 19: the chunk's replication values grow
                       with the number of thresholds m
  stages_ns_per_row    the stages of one chunk as the estimator runs them,
                       one row block of `kernels._BLOCK` rows at a time:
                         normals    Philox standard normals by numpy's
                                    ziggurat into the block's scratch, d
                                    per row: how the estimator draws
                         uniforms   Philox uniforms into the block's scratch
                                    plus the in-place clip, d per row: how
                                    plain MC draws
                         ndtri      in place on those uniforms: with
                                    uniforms, the inverse-CDF route to
                                    normals that `normals` replaced
                         kernel     `kernels.equicorr_chunk` per block, per
                                    threshold scored, including the
                                    threshold-independent work (mix, terms,
                                    conditional means) shared by all m
                         reduction  sum, then sum of the squares taken in
                                    place, of one chunk-long row of
                                    replication values, per threshold
  leads                the two open kernel leads of ROADMAP item 4 at d = 2:
                         ndtr       the kernel with `ndtr(-z)` in place of
                                    `0.5 * erfc(z / sqrt 2)`, ns per row per
                                    threshold, and whether its values equal
                                    the kernel's bit for bit
                         log_skip   the upper bound on what skipping the
                                    exp -> log round trip (log b = log t_j
                                    where b = t_j) could save: one log pass,
                                    ns per row; and the share of terms whose
                                    round trip is not exact, so the skip
                                    cannot keep the bits where it is above 0
  speed_probe_s        the machine's speed before and after the timings:
                       the median of 5 runs of `perfbench/run.py`'s
                       `speed_probe` (about 0.01 s on an idle reference
                       machine), so records taken at different times can be
                       told apart from a machine that slowed down
The thresholds are those of reference table 3 (rho = 0): x = 100 alone
(m = 1), all seven (m = 7), and for the memory figure 19 spread over
x = 3-1000.  The stage and lead figures need the block API
(`JointModel.rows`, the per-block kernel); on an older tree only the
end-to-end and memory figures are taken, so two trees can be compared on
those.

Run from the root of the tree to measure (the script imports `tailagg`
from the `src/` beside it, and the speed probe from `perfbench/`):

    python benchmarks/bench_cond_mc.py BENCH_<n>.json --label change

The record is stored under `--label` in the output file, before anything
is printed; records under other labels already in the file are kept.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from run import speed_probe  # noqa: E402
from scipy.special import ndtr, ndtri  # noqa: E402

from tailagg import cond_mc_lognormal_curve, kernels  # noqa: E402
from tailagg.joint import JointModel, _stream, _uniforms  # noqa: E402
from tailagg.rare_event import CHUNK  # noqa: E402
from tailagg.tables import TABLE3  # noqa: E402

RHO = 0.0
XS = {1: [100.0], 7: [float(r[0]) for r in TABLE3], 19: np.geomspace(3.0, 1000.0, 19).tolist()}


def _best(fn, repeats: int, setup=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def pipeline(repeats: int) -> tuple:
    # (ns per row, cpu per wall) of the fastest of repeats calls per key
    n = 2 * CHUNK
    ns, cpu = {}, {}
    for d in (2, 3):
        for m in (1, 7):
            for workers in (1, 2):
                best = (float("inf"), float("nan"))
                for _ in range(repeats):
                    w0, c0 = time.perf_counter(), time.process_time()
                    cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0] * d, XS[m], n, 42, workers)
                    wall = time.perf_counter() - w0
                    best = min(best, (wall, (time.process_time() - c0) / wall))
                key = f"d{d}_m{m}_w{workers}"
                ns[key], cpu[key] = best[0] * 1e9 / n, best[1]
    return ns, cpu


def peak_per_chunk() -> dict:
    out = {}
    for d in (2, 3):
        for m in (1, 7, 19):
            tracemalloc.start()
            cond_mc_lognormal_curve(0.0, 1.0, RHO, [1.0] * d, XS[m], CHUNK, 42)
            out[f"d{d}_m{m}"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    return out


def probe_s() -> float:
    """Median seconds of 5 speed probes: the machine's speed now."""
    return statistics.median(speed_probe() for _ in range(5))


def _normals(d: int) -> np.ndarray:
    return _stream(12345, 0).standard_normal((CHUNK, d))


def _per_block(fn):
    # fn(lo, hi) over the row blocks of one chunk
    def run(_):
        for lo, hi in kernels._blocks(CHUNK):
            fn(lo, hi)

    return run


def stages(repeats: int) -> dict:
    per_row = 1e9 / CHUNK
    out = {}
    v0 = np.random.default_rng(1).random(CHUNK)
    v = np.empty_like(v0)
    out["reduction"] = _best(
        lambda _: (v.sum(), np.square(v, out=v).sum()), repeats, lambda: np.copyto(v, v0)
    ) * per_row
    for d in (2, 3):
        u = np.empty((kernels._BLOCK, d))

        def draw(gen):
            for lo, hi in kernels._blocks(CHUNK):
                _uniforms(gen, u[: hi - lo])

        def draw_normals(gen):
            for lo, hi in kernels._blocks(CHUNK):
                gen.standard_normal(out=u[: hi - lo])

        out[f"d{d}_normals"] = _best(draw_normals, repeats, lambda: _stream(12345, 0)) * per_row
        out[f"d{d}_uniforms"] = _best(draw, repeats, lambda: _stream(12345, 0)) * per_row
        u0 = _uniforms(_stream(12345, 0), np.empty((CHUNK, d)))
        uu = np.empty_like(u0)
        out[f"d{d}_ndtri"] = _best(
            _per_block(lambda lo, hi: ndtri(uu[lo:hi], out=uu[lo:hi])), repeats, lambda: np.copyto(uu, u0)
        ) * per_row
        z = _normals(d)
        for m in (1, 7):
            buf = np.empty((m, CHUNK))
            nu, sig = np.zeros(d), np.ones(d)
            kern = _per_block(lambda lo, hi: kernels.equicorr_chunk(z[lo:hi], nu, sig, RHO, XS[m], buf[:, lo:hi]))
            out[f"d{d}_m{m}_kernel"] = _best(kern, repeats) * per_row / m
    return out


def _score_ndtr(m, x, s, nu, sig, mean, sd, out):
    # kernels._score with ndtr(-z) for its last three passes
    np.subtract(x, s, out=out)
    np.maximum(m, out, out=out)
    np.log(out, out=out)
    out -= nu
    out /= sig
    out -= mean
    out /= sd
    np.negative(out, out=out)
    ndtr(out, out=out)


def leads(repeats: int) -> dict:
    per_row = 1e9 / CHUNK
    z = _normals(2)
    nu, sig, xs = np.zeros(2), np.ones(2), XS[7]
    buf, ref = np.empty((7, CHUNK)), np.empty((7, CHUNK))
    kern = _per_block(lambda lo, hi: kernels.equicorr_chunk(z[lo:hi], nu, sig, RHO, xs, buf[:, lo:hi]))
    kern(None)
    ref[:] = buf
    erfc_ns = _best(kern, repeats) * per_row / 7
    score = kernels._score
    kernels._score = _score_ndtr
    try:
        kern(None)
        ndtr_ns = _best(kern, repeats) * per_row / 7
    finally:
        kernels._score = score
    # the round trip exp -> log of the terms t_j = exp(nu_j + sig_j w_j), at rho = 0 w = z
    y = z.ravel()
    inexact = float(np.count_nonzero(np.log(np.exp(y)) != y)) / y.size
    t = np.exp(z[:, 0])
    scratch = np.empty(kernels._BLOCK)
    log_pass = _best(_per_block(lambda lo, hi: np.log(t[lo:hi], out=scratch[: hi - lo])), repeats) * per_row
    return {
        "erfc_kernel_ns_per_row_per_threshold": erfc_ns,
        "ndtr_kernel_ns_per_row_per_threshold": ndtr_ns,
        "ndtr_bit_identical": bool(np.array_equal(buf, ref)),
        "log_skip_max_saving_ns_per_row_per_term": log_pass,
        "log_round_trip_inexact_share": inexact,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="JSON file to write the record into")
    ap.add_argument("--label", default="change", help="key of the record in the file")
    ap.add_argument("--repeats", type=int, default=5, help="timings per figure; the best is kept")
    args = ap.parse_args(argv)

    before = probe_s()
    ns, cpu = pipeline(args.repeats)
    record = {"pipeline_ns_per_row": ns, "cpu_per_wall": cpu, "peak_mb_per_chunk": peak_per_chunk()}
    if hasattr(JointModel, "rows"):
        record["stages_ns_per_row"] = stages(args.repeats)
        record["leads"] = leads(args.repeats)
    record["speed_probe_s"] = {"before": before, "after": probe_s()}
    record.update(
        python=platform.python_version(),
        numpy=np.__version__,
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
        chunk=CHUNK,
        repeats=args.repeats,
    )
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    for group, values in record.items():
        if isinstance(values, dict):
            for name, value in values.items():
                print(f"{group:20s} {name:40s} {value:.4g}" if not isinstance(value, bool) else f"{group:20s} {name:40s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
