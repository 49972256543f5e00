"""Benchmark: the exact d = 2 quadrature and the grid audit of tables 5-7 it scores.

Prints, and writes as one JSON record:
  exact_ms_per_cell   `exact_lognormal_pair`, ms per cell, best of --repeats:
                        batch51   one call on the 51 points of one audit grid
                                  (table 6, x = 10)
                        batch765  the 15 rows x 51 points of tables 5-7, in
                                  one call per table (rho is a scalar)
                        batch7    one call on the 7 thresholds of table 2
                                  (rho = -0.9, a = (1, 1)), the call
                                  `reproduce-tables` makes per table 2-4
                        single    one call per cell, on the same 51 points
  audit_ms            one 51-point audit of a row of tables 5-7, ms, the
                      median over the 15 rows of each row's best of --repeats:
                        exact     `grid_verify` as it runs now: every point
                                  exact, one `cond_mc_lognormal` at a* (n 1e4)
                        mc        the Monte Carlo audit it replaced: one
                                  `cond_mc_lognormal` call at n = 1e4 per
                                  point, keyed (seed, k), as `grid_verify`
                                  made them before
                        speedup   mc / exact
  oracle_max_rel      the largest relative difference from the benchmark's
                      oracle (`perfbench/oracle.py`, adaptive quadrature of
                      another form of the same integral):
                        tables_5_7  the 765 cells of the audits
                        sweep       480 cells: 8 values of rho in
                                    [-0.99, 0.99], 6 coefficient pairs,
                                    10 thresholds from 1 to 2000
                        near_one    360 cells: the same pairs and
                                    thresholds at rho = +-0.995, +-0.999
                                    and +-0.9999, where the quadrature
                                    takes more pieces
  speed_probe_s       the machine's speed before and after the timings:
                      the median of 5 runs of `perfbench/run.py`'s
                      `speed_probe` (about 0.01 s on an idle reference
                      machine), so records taken at different times can be
                      told apart from a machine that slowed down

Run from the root of the tree to measure (the script imports `tailagg`
from the `src/` beside it, and the oracle from `perfbench/`):

    python benchmarks/bench_audit.py BENCH_<n>.json --label change

The record is stored under `--label` in the output file; records under
other labels already in the file are kept.  The file is written before
anything is printed, so a closed stdout (`| head`) cannot lose it.  The
oracle takes about 7 ms a cell, so the script runs for about 15 s beyond
its timings.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from oracle import lognormal_pair_exceedance  # noqa: E402
from run import speed_probe  # noqa: E402

from tailagg import (  # noqa: E402
    LinearConstraint,
    PortfolioProblem,
    bivariate_lognormal,
    cond_mc_lognormal,
    exact_lognormal_pair,
    grid_verify,
    lognormal,
)
from tailagg.tables import OPT, PUBLISHED  # noqa: E402

SEED = 42
N = 10**4
A1 = [k * 0.01 for k in range(51)]
A2 = [max((1.0 - 2.0 * a1) / 3.0, 0.0) for a1 in A1]  # the binding line 2 a1 + 3 a2 = 1
TABLES = {rho: [float(r[0]) for r in rows] for study, rho, rows in PUBLISHED.values() if study == OPT}
ROWS = [(rho, x) for rho, xs in TABLES.items() for x in xs]
_, SIM_RHO, SIM_ROWS = PUBLISHED[2]
SIM_XS = [float(r[0]) for r in SIM_ROWS]
SWEEP_RHO = (-0.99, -0.9, -0.5, -0.2, 0.0, 0.5, 0.9, 0.99)
NEAR_ONE_RHO = (-0.9999, -0.999, -0.995, 0.995, 0.999, 0.9999)
SWEEP_A = ((1.0, 1.0), (0.2, 0.2), (0.26, 0.16), (0.333, 0.001), (0.5, 2.0), (0.1, 0.3))
SWEEP_X = (1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 2000.0)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def probe_s() -> float:
    """Median seconds of 5 speed probes: the machine's speed now."""
    return statistics.median(speed_probe() for _ in range(5))


def exact_cells(repeats: int) -> dict:
    rho, x = 0.0, 10.0
    a1, a2 = np.array([A1]), np.array([A2])

    def all_rows():
        for rho_t, xs in TABLES.items():
            exact_lognormal_pair(0.0, 1.0, rho_t, a1, a2, np.array(xs)[:, None])

    return {
        "batch51": _best(lambda: exact_lognormal_pair(0.0, 1.0, rho, A1, A2, x), repeats) * 1e3 / 51,
        "batch765": _best(all_rows, repeats) * 1e3 / (51 * len(ROWS)),
        "batch7": _best(lambda: exact_lognormal_pair(0.0, 1.0, SIM_RHO, 1.0, 1.0, SIM_XS), repeats) * 1e3 / len(SIM_XS),
        "single": _best(lambda: [exact_lognormal_pair(0.0, 1.0, rho, p, q, x) for p, q in zip(A1, A2)], repeats)
        * 1e3
        / 51,
    }


def _problem(x: float) -> PortfolioProblem:
    model = lognormal(0.0, 1.0)
    return PortfolioProblem((model, model), (1.0, 1.0), LinearConstraint((2.0, 3.0), 1.0), x)


def _mc_audit(rho: float, x: float) -> list:
    return [cond_mc_lognormal(0.0, 1.0, rho, [p, q], x, N, (SEED, k)) for k, (p, q) in enumerate(zip(A1, A2))]


def audits(repeats: int) -> dict:
    exact, mc = [], []
    for rho, x in ROWS:
        joint = bivariate_lognormal(0.0, 1.0, rho)
        exact.append(_best(lambda: grid_verify(_problem(x), joint, n=N, seed=SEED), repeats))
        mc.append(_best(lambda: _mc_audit(rho, x), repeats))
    out = {"exact": statistics.median(exact) * 1e3, "mc": statistics.median(mc) * 1e3}
    out["speedup"] = out["mc"] / out["exact"]
    return out


def _max_rel(rho: float, a1, a2, xs) -> float:
    got = exact_lognormal_pair(0.0, 1.0, rho, a1, a2, xs)
    worst = 0.0
    for g, p, q, x in zip(got.ravel(), *(np.broadcast_to(v, got.shape).ravel() for v in (a1, a2, xs))):
        want = lognormal_pair_exceedance(0.0, 1.0, rho, float(p), float(q), float(x))
        worst = max(worst, abs(g - want) / want)
    return worst


def oracle_max_rel() -> dict:
    tables = max(_max_rel(rho, np.array(A1), np.array(A2), x) for rho, x in ROWS)
    a1 = np.array([[a[0]] for a in SWEEP_A])
    a2 = np.array([[a[1]] for a in SWEEP_A])
    sweep = max(_max_rel(rho, a1, a2, np.array([SWEEP_X])) for rho in SWEEP_RHO)
    near_one = max(_max_rel(rho, a1, a2, np.array([SWEEP_X])) for rho in NEAR_ONE_RHO)
    return {"tables_5_7": tables, "sweep": sweep, "near_one": near_one}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="JSON file to write the record into")
    ap.add_argument("--label", default="change", help="key of the record in the file")
    ap.add_argument("--repeats", type=int, default=5, help="timings per figure; the best is kept")
    args = ap.parse_args(argv)

    before = probe_s()
    record = {
        "exact_ms_per_cell": exact_cells(args.repeats),
        "audit_ms": audits(args.repeats),
    }
    record["speed_probe_s"] = {"before": before, "after": probe_s()}
    record.update(
        oracle_max_rel=oracle_max_rel(),
        python=platform.python_version(),
        numpy=np.__version__,
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
        repeats=args.repeats,
    )
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    for group, values in record.items():
        if isinstance(values, dict):
            for name, value in values.items():
                print(f"{group:20s} {name:12s} {value:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
