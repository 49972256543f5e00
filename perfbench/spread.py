#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload simulate --seeds 1-10 [--trace 0]

Spread is (Q3 - Q1) / median over the runs, with statistics.quantiles(n=4),
printed beside the metric's bound from BENCHMARK.json (a third of the bound
is the steadiness target).  Each run is a separate `perfbench/run.py` call.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({elapsed:.0f} s): correct={result['correct']} {result['failed']}/{result['attempted']} failed  "
              + "  ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items()) if k in bounds),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in sorted(values.items()):
        if len(vs) < 2 or statistics.median(vs) == 0:
            continue
        bound = bounds.get(k)
        extra = f"  bound {bound}  target < {bound / 3:.4f}" if bound else ""
        print(f"{k:32s} median {statistics.median(vs):12.6g}  spread {quartile_spread(vs):.4f}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
