"""Benchmark: the exact d = 2 routes and the grid audit of tables 5-7 they score.

The figures of its record:
  exact_ms_per_cell   `exact_lognormal_pair`, ms per cell, best of --repeats:
                        batch51   one call on the 51 points of one audit grid
                                  (table 6, x = 10)
                        batch765  the 15 rows x 51 points of tables 5-7, in
                                  one call per table (rho is a scalar)
                        batch7    one call on the 7 thresholds of table 2
                                  (rho = -0.9, a = (1, 1)), the call
                                  `reproduce-tables` makes per table 2-4
  audit_ms            one 51-point `grid_verify` audit of a row of tables
                      5-7 (every point exact, one `cond_mc_lognormal` at a*,
                      n 1e4), ms, the median over the 15 rows of each row's
                      best of --repeats
  orthant_ms_per_call `bivariate_normal_orthant_log`, ms per call, on the 9
                      corners (x, f(x)) of one A3 report of a standard
                      bivariate lognormal (default grid, t = 1), the call
                      `check` makes per report, keyed by rho; best of
                      ORTHANT_CALLS calls, with their median (`..._median`)
                      and Q3 - Q1 (`..._iqr`, see `_record.summary`)
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
The oracle takes about 7 ms a cell; the whole script took about 10 s on a
2-CPU x86_64 VM.  `_record.main` stores the record, with the speed probes
(see `_record`).
"""

import statistics
import sys

import _record  # first: it puts src/ and perfbench/ on sys.path
import numpy as np
from _record import best, summaries, timings
from oracle import lognormal_pair_exceedance

from tailagg import (
    LinearConstraint,
    PortfolioProblem,
    bivariate_lognormal,
    bivariate_normal_orthant_log,
    default_grid,
    exact_lognormal_pair,
    grid_verify,
    lognormal,
)
from tailagg.tables import OPT, PUBLISHED

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
ORTHANT_RHO = (-0.9, -0.5, 0.3, 0.9)
ORTHANT_CALLS = 50  # a call takes under 0.5 ms


def exact_cells(repeats: int) -> dict:
    rho, x = 0.0, 10.0
    a1, a2 = np.array([A1]), np.array([A2])

    def all_rows(_):
        for rho_t, xs in TABLES.items():
            exact_lognormal_pair(0.0, 1.0, rho_t, a1, a2, np.array(xs)[:, None])

    return {
        "batch51": best(lambda _: exact_lognormal_pair(0.0, 1.0, rho, A1, A2, x), repeats) * 1e3 / 51,
        "batch765": best(all_rows, repeats) * 1e3 / (51 * len(ROWS)),
        "batch7": best(lambda _: exact_lognormal_pair(0.0, 1.0, SIM_RHO, 1.0, 1.0, SIM_XS), repeats) * 1e3 / len(SIM_XS),
    }


def _problem(x: float) -> PortfolioProblem:
    model = lognormal(0.0, 1.0)
    return PortfolioProblem((model, model), (1.0, 1.0), LinearConstraint((2.0, 3.0), 1.0), x)


def audit_ms(repeats: int) -> float:
    rows = []
    for rho, x in ROWS:
        joint = bivariate_lognormal(0.0, 1.0, rho)
        rows.append(best(lambda _: grid_verify(_problem(x), joint, n=N, seed=SEED), repeats))
    return statistics.median(rows) * 1e3


def orthant_ms() -> tuple:
    g = default_grid()
    t1, t2 = np.log(g), np.log(lognormal(0.0, 1.0).auxiliary()(g))
    return summaries({str(rho): (timings(lambda _: bivariate_normal_orthant_log(t1, t2, rho), ORTHANT_CALLS), 1e3)
                      for rho in ORTHANT_RHO})


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


def figures(args) -> dict:
    orthant, orthant_median, orthant_iqr = orthant_ms()
    return {
        "exact_ms_per_cell": exact_cells(args.repeats),
        "audit_ms": audit_ms(args.repeats),
        "orthant_ms_per_call": orthant,
        "orthant_ms_per_call_median": orthant_median,
        "orthant_ms_per_call_iqr": orthant_iqr,
        "oracle_max_rel": oracle_max_rel(),
    }


def main(argv=None) -> int:
    return _record.main(__doc__, figures, argv, repeats=_record.REPEATS)


if __name__ == "__main__":
    sys.exit(main())
