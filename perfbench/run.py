#!/usr/bin/env python3
"""tailagg benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tables_sim --seed 1 --seconds 24 --trace 0

One client drives `tailagg.cli.main(argv)` in-process, issuing each op after
the previous one returns, and checks every output (see workloads.py).  Passes
of the workload's op list, each with fresh inputs, run until --seconds have
passed and p90 has ten executions beyond it (three on tables_sim).

Other tenants of a shared machine slow everything on it by up to 1.5x, for
seconds to minutes.  So every timing is scaled by the machine's speed at the
time, read from a speed probe (`speed_probe`: fixed numpy and pure-Python
work, no tailagg code) run between ops, outside their timed region, at least
every PROBE_EVERY_S:

    scaled = measured * REF_S / (mean of the probe seconds before and after)

a time in seconds on a machine where the probe takes REF_S.  The raw figures
are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics:
  setup_s      median over 5 fresh processes of process start -> ready
               (import tailagg and scipy, write the JSON configs, one
               untimed warm-up op of each kind), as measured: speed
               probes track set-up too loosely to scale it (NOTES.md)
  wall_s       one pass of the op list: the sum over its ops of each op's
               median scaled latency in the run
  op_ms_p50    median of the scaled latencies of every op executed
  op_ms_p90    90th percentile of the same latencies
  peak_rss_mb  median over the same 5 processes of each one's peak resident
               memory (4 run the warm-up ops only, 1 measures)
--trace 1 spends half of --seconds untraced and half with spans installed
(tracing.py) and prints the per-layer metrics, including the tracing overhead.
On tables_opt it then audits the rows left out of the timed workload, where
the estimator's ESS collapses, once and untimed, and reports the share of
their points that miss the exact oracle (rare_event.ess_collapse_miss_share).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
An op that raises, exits nonzero or fails its output check counts as failed.
Each run starts its own child processes and waits for all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
REF_S = 0.01  # probe seconds that scaled timings refer to
PROBE_EVERY_S = 0.1  # no op starts later than this after the last probe
RUN_LIMIT_S = 170.0  # every child is killed past this, so a run ends within 180 s

# -- statistics ------------------------------------------------------------------


def percentile(values, q: float, beyond: int = 10) -> float:
    """q-th percentile (linear interpolation), only where >= `beyond` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q / 100.0) < beyond - 1e-9:
        raise ValueError(f"p{q:g} needs at least {int(round(beyond / (1 - q / 100)))} samples, got {n}")
    v = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def speed_probe() -> float:
    """Seconds one fixed piece of work takes now: the machine's current speed.

    Half numpy (Philox uniforms, ndtri, exp over 2^17 values), half a
    pure-Python loop, since tailagg ops mix both; about 10 ms.  It calls no
    tailagg code, so a change to tailagg cannot move it.
    """
    import numpy as np
    from scipy.special import ndtri

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    float(np.exp(ndtri(rng.random(1 << 17))).sum())
    acc, slots = 0.0, {}
    for i in range(20000):
        slots[i & 255] = acc
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


# -- the measuring process ------------------------------------------------------


def _run_op(cli, op, tracer, op_id):
    out, err = io.StringIO(), io.StringIO()
    token = None
    if tracer is not None:
        tracer.op = op_id
        token = tracer.open()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a dead benchmark
        rc = -1
        err.write(repr(exc))
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(token, "cli.op")
        tracer.op = None
    return rc, out.getvalue(), err.getvalue(), dt


class Loop:
    """Closed loop over passes of a workload, each with fresh inputs, every output checked."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.oracle = {}
        self.zs, self.failures = [], {}  # op without its seed -> [count, last reason]
        self.attempted = self.failed = 0
        self.passes = 0  # pass 0 holds the warm-up ops
        speed_probe()  # first call pays numpy's lazy set-up

    def _prepare(self) -> list:
        """Ops of the next pass, with configs written and oracle cells computed (untimed)."""
        shutil.rmtree(workloads.pass_dir(str(self.work), self.passes), ignore_errors=True)
        self.passes += 1
        configs, ops = workloads.build(self.workload, self.seed, str(self.work), self.passes)
        workloads.write_configs(configs, str(self.work), self.passes)
        workloads.extend_oracle(self.oracle, ops)
        return ops

    def run(self, seconds: float, min_ops: int = 1, tracer=None):
        """Whole passes for `seconds` and >= min_ops ops.

        Returns (raw, scaled): latencies per op position, as measured and
        scaled by the speed probes on either side of the op.
        """
        ops = self._prepare()
        lat, scaled = [[] for _ in ops], [[] for _ in ops]
        pending = []  # (op position, latency) since the last probe

        def probe_now():
            # ops between two probes are scaled by their mean
            p = speed_probe()
            for i, dt in pending:
                scaled[i].append(dt * 2.0 * REF_S / (probe + p))
            pending.clear()
            return time.perf_counter(), p

        probe_at, probe = time.perf_counter(), speed_probe()
        deadline = time.perf_counter() + seconds
        while True:
            for i, op in enumerate(ops):
                if time.perf_counter() - probe_at >= PROBE_EVERY_S:
                    probe_at, probe = probe_now()
                rc, out, err, dt = _run_op(self.cli, op, tracer, (self.passes, i))
                lat[i].append(dt)
                pending.append((i, dt))
                self.attempted += 1
                res = workloads.check(op, rc, out, self.oracle)
                self.zs.extend(res.z)
                if not res.ok:
                    self.failed += 1
                    self._record_failure(op, f"{res.why} {err.strip()[-200:]}")
            if time.perf_counter() >= deadline and sum(map(len, lat)) >= min_ops:
                probe_now()
                return lat, scaled
            ops = self._prepare()

    def ess_collapse_audits(self):
        """Audit workloads.ESS_COLLAPSE_ROWS once, untimed: (points beyond Z_FAIL, MC points, max z).

        Their ops count as attempted and fail on every check but the oracle
        distance, which is what this reports.
        """
        configs, ops = workloads.build_ess_collapse(self.seed, str(self.work))
        workloads.write_configs(configs, str(self.work), workloads.ESS_COLLAPSE_PASS)
        workloads.extend_oracle(self.oracle, ops)
        zs = []
        for op in ops:
            rc, out, err, _ = _run_op(self.cli, op, None, None)
            self.attempted += 1
            res = workloads.check(op, rc, out, self.oracle)
            zs.extend(res.z)
            if not res.ok:
                self.failed += 1
                self._record_failure(op, f"{res.why} {err.strip()[-200:]}")
        return sum(z > workloads.Z_FAIL for z in zs), len(zs), max(zs, default=0.0)

    def _record_failure(self, op, why: str) -> None:
        argv = list(op.argv)
        if "--seed" in argv:
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
        key = " ".join(os.path.basename(a) for a in argv)
        self.failures.setdefault(key, [0, ""])
        self.failures[key][0] += 1
        self.failures[key][1] = why


def timings(raw, scaled, beyond: int) -> dict:
    """End-to-end timings from per-op-position latencies of one run, raw and scaled.

    wall_s sums each op's median scaled latency over the op list.  The
    percentiles are over every scaled execution, so slow executions count;
    p90 needs `beyond` executions past it.
    """
    flat, flat_raw = [t for v in scaled for t in v], [t for v in raw for t in v]
    p50, p90 = percentile(flat, 50, beyond), percentile(flat, 90, beyond)
    passes = len(raw[0])
    median_pass = statistics.median(sum(v[j] for v in raw) for j in range(passes))
    base = f"{len(flat)} executions of {len(raw)} ops"
    return {
        "wall_s": (sum(map(statistics.median, scaled)), "s",
                   f"{passes} passes of {len(raw)} ops; raw median pass {median_pass:.4f} s"),
        "op_ms_p50": (p50 * 1e3, "ms", f"{base}; raw {percentile(flat_raw, 50, beyond) * 1e3:.4g} ms"),
        "op_ms_p90": (p90 * 1e3, "ms", f"{base}, {sum(t > p90 for t in flat)} beyond;"
                                       f" raw {percentile(flat_raw, 90, beyond) * 1e3:.4g} ms"),
    }


def _setup(args):
    """Everything a user pays before the first useful op; returns (cli, workdir)."""
    sys.path.insert(0, str(SRC))
    from tailagg import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported tailagg from {cli.__file__}, not from {SRC}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    configs, ops = workloads.build(args.workload, args.seed, str(work), 0)
    workloads.write_configs(configs, str(work), 0)
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        _run_op(cli, op, None, None)
    return cli, work


def child_main(args) -> int:
    work = None
    try:
        cli, work = _setup(args)
        print("READY", flush=True)
        if args.child == "setup":
            return 0
        loop = Loop(cli, args.workload, args.seed, work)
        if not args.trace:
            beyond = workloads.P90_BEYOND.get(args.workload, 10)
            result = timings(*loop.run(args.seconds, 10 * beyond), beyond)
        else:
            result = _traced(args, loop)
        print(json.dumps({
            "metrics": result,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "failures": loop.failures,
            "z_max": max(loop.zs, default=0.0),
        }), flush=True)
        return 0
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


def _traced(args, loop) -> dict:
    import tracing

    _, plain = loop.run(args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced = loop.run(args.seconds / 2.0, tracer=tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    m = tracing.layer_metrics(tracer.spans, len(traced[0]), max(loop.zs, default=0.0))
    base, over = (sum(map(statistics.median, v)) for v in (plain, traced))
    m["trace.overhead_pct"] = (100.0 * (over - base) / base, "%",
                               f"wall_s traced {over:.4f} s vs untraced {base:.4f} s,"
                               f" {len(traced[0])}/{len(plain[0])} passes")
    if args.workload == "tables_opt":
        miss, points, z = loop.ess_collapse_audits()
        m["rare_event.ess_collapse_miss_share"] = (
            miss / points if points else 0.0, "share",
            f"{miss} of {points} MC points of {len(workloads.ESS_COLLAPSE_ROWS)} audits"
            f" beyond {workloads.Z_FAIL:g} SE; max z {z:.1f}")
    else:
        m["rare_event.ess_collapse_miss_share"] = (0.0, "share", "no ESS-collapse audit on this workload")
    return m


# -- the orchestrating process ----------------------------------------------------


def _spawn(args, mode: str, deadline: float):
    """Run a child; return (seconds from start to its READY line, its peak RSS in MB, its result line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--child", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        rc = proc.returncode = os.waitstatus_to_exitcode(status)
    if rc != 0 or ready is None:
        raise RuntimeError(f"{mode} child exited with code {rc}")
    return ready, usage.ru_maxrss / 1024.0, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "tailagg" / "__init__.py").is_file():
        print(f"error: no tailagg sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        # set-up samples before and after the measuring process, so their median
        # spans the run's changes in machine load
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        before = [_spawn(args, "setup", deadline)[:2] for _ in range(extra // 2)]
        *measured, line = _spawn(args, "measure", deadline)
        after = [_spawn(args, "setup", deadline)[:2] for _ in range(extra - extra // 2)]
        procs = before + [measured] + after  # (set-up s, peak RSS MB) each
        child = json.loads(line)
    except (RuntimeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = child["metrics"]
    if not args.trace:
        ready, rss = zip(*procs)
        metrics["setup_s"] = (statistics.median(ready), "s",
                              f"median of {len(procs)} processes, unscaled; measuring process {measured[0]:.4f} s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB",
                                  f"median of {len(procs)} processes; measuring process {measured[1]:.1f} MB")
    for op, (count, why) in child["failures"].items():
        print(f"failed {count}x: {op} -> {why}", file=sys.stderr)
    attempted, failed = child["attempted"], child["failed"]
    print(f"{args.workload} seed {args.seed}: {failed}/{attempted} ops failed"
          f" (share {failed / attempted:.4f}); max oracle z {child['z_max']:.2f}")
    out = {}
    for name in sorted(metrics):
        value, unit, base = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.6g} {unit:6s} ({base})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
