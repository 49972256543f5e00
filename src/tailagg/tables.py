"""Reference tables: published values, regeneration, and comparison report.

Table 1 is deterministic (exact countermonotone formula vs the two-term
approximation).  Tables 2-4 are the conditional-MC study of the equal-weight
bivariate lognormal sum at rho = -0.9, 0, 0.9, reported beside the exact
values; Tables 5-7 the grid audit of the two-asset optimizer under the
constraint 2 a1 + 3 a2 >= 1, exact, with its Monte Carlo check at a*.

`compare_to_published` flags any regenerated stochastic cell outside three
combined half-widths of the published one (combined in quadrature).  Flags
are informational: the rho = 0.9 study is known not to converge, and a few
published cells are internally inconsistent (see the repository notes).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from typing import Optional

from .asymptotics import approx_sum_pair
from .joint import _seed_key, bivariate_lognormal
from .models import Domain, check_value, lognormal
from .portfolio import LinearConstraint, PortfolioProblem, grid_verify
from .rare_event import (  # noqa: F401  cond_mc_lognormal stays reachable as tables.cond_mc_lognormal
    cond_mc_lognormal,
    cond_mc_lognormal_curve,
    exact_comonotone_lognormal,
    exact_lognormal_pair,
    ratio_vs_asymptotic,
)

# (threshold, actual, asymptotic, ratio)
TABLE1 = (
    (10, 0.0219, 0.0213, 1.0272),
    (16, 0.0056, 0.0056, 1.0121),
    (24, 0.0015, 0.0015, 1.0060),
    (30, 6.7365e-4, 6.7091e-4, 1.0041),
    (100, 4.1233e-6, 4.1213e-6, 1.0005),
    (1000, 4.9238e-12, 4.9238e-12, 1.0000),
)

# (threshold, simulation estimate, asymptotic, ratio, ratio half-width)
TABLE2 = (
    (3, 0.3687, 0.2719, 1.3556, 0.0006),
    (5, 0.1207, 0.1075, 1.1227, 0.0012),
    (10, 0.0221, 0.0213, 1.0375, 0.0026),
    (20, 0.0028, 0.0027, 1.0082, 0.0064),
    (30, 6.8873e-4, 6.7091e-4, 1.0265, 0.0119),
    (40, 2.2134e-4, 2.2524e-4, 0.9827, 0.0183),
    (50, 9.3675e-5, 9.1526e-5, 1.0235, 0.0285),
)
TABLE3 = (
    (10, 0.0338, 0.0213, 1.5844, 0.0033),
    (50, 1.0798e-4, 9.1526e-5, 1.1798, 0.0002),
    (100, 4.5032e-6, 4.1213e-6, 1.0927, 0.0001),
    (300, 1.2117e-8, 1.1718e-8, 1.0341, 0.0000),
    (600, 1.6147e-10, 1.5853e-10, 1.0185, 0.0122),
    (1000, 4.9821e-12, 4.9238e-12, 1.0118, 0.0000),
    (2000, 1.9620e-14, 2.9310e-14, 1.0106, 0.0000),
)
TABLE4 = (
    (10, 0.0521, 0.0213, 2.4439, 0.0088),
    (30, 0.0030, 6.7091e-4, 4.4081, 0.0275),
    (50, 5.2652e-4, 9.1526e-5, 5.7527, 0.0759),
    (75, 1.1217e-4, 1.5781e-5, 7.1077, 0.1843),
    (100, 3.4333e-5, 4.1213e-6, 8.3307, 0.3642),
)

# (threshold, a1_tilde, E1, E2, relative error)
TABLE5 = (
    (1, 0.13, 0.1097, 0.1204, 0.0975),
    (3, 0.18, 0.0067, 0.0069, 0.0322),
    (5, 0.19, 0.0013, 0.0013, 0.0294),
    (10, 0.19, 1.0299e-4, 1.0592e-4, 0.0284),
    (20, 0.21, 2.0806e-6, 2.0806e-6, 1.2213e-15),
)
TABLE6 = (
    (1, 0.03, 0.1349, 0.1723, 0.2765),
    (3, 0.16, 0.0093, 0.0101, 0.0759),
    (5, 0.18, 0.0016, 0.0017, 0.0503),
    (10, 0.19, 1.0424e-4, 1.0793e-4, 0.0354),
    (20, 0.20, 4.3888e-6, 4.3888e-6, 0.0),
)
TABLE7 = (
    (1, 0.01, 0.1360, 0.1798, 0.3223),
    (3, 0.01, 0.0140, 0.0208, 0.4831),
    (5, 0.02, 0.0033, 0.0050, 0.5146),
    (10, 0.02, 2.8357e-4, 4.9475e-4, 0.7447),
    (20, 0.04, 1.3241e-6, 2.4023e-6, 0.8142),
)

# the three studies: the exact countermonotone pair, the conditional-MC
# simulation of the equal-weight sum, and the grid audit of the optimizer
COMONOTONE, SIM, OPT = "comonotone", "sim", "opt"
# table id -> (study, rho, published rows)
PUBLISHED = {
    1: (COMONOTONE, -1.0, TABLE1),
    2: (SIM, -0.9, TABLE2),
    3: (SIM, 0.0, TABLE3),
    4: (SIM, 0.9, TABLE4),
    5: (OPT, -0.9, TABLE5),
    6: (OPT, 0.0, TABLE6),
    7: (OPT, 0.9, TABLE7),
}
_HEADERS = {
    COMONOTONE: ("threshold", "actual_probability", "asymptotic_approximation", "ratio"),
    SIM: ("threshold", "simulation_estimate", "asymptotic_approximation", "ratio", "half_width"),
    OPT: ("threshold", "a1_tilde", "E1", "E2", "relative_error"),
}
SIM_BUDGET = 10**7
GRID_BUDGET = 10**4


def _display_unit(printed: float, sig_figs: int) -> float:
    exp10 = math.floor(math.log10(abs(printed))) if printed != 0.0 else 0
    return 10.0 ** (exp10 - (sig_figs - 1))


def displayed_match(value: float, printed: float, sig_figs: int = 5) -> bool:
    """True when `value` agrees with `printed` at the printed resolution.

    `printed` is taken at face value (its trailing digit defines the display
    unit); agreement means the absolute gap is at most one display unit, which
    tolerates round-vs-truncate differences in the published rendering.
    """
    if printed == 0.0:
        return abs(value) < 1e-12
    return abs(value - printed) <= _display_unit(printed, sig_figs) * 1.0000001


def _sig_figs_of(printed: float) -> int:
    # published cells carry 4-5 significant digits except ratios (4 decimals)
    s = f"{printed:g}"
    digits = s.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
    return max(len(digits), 2)


def combined_half_width(hw_a: float, hw_b: float) -> float:
    """Half-widths of independent estimates combine in quadrature."""
    return math.sqrt(hw_a * hw_a + hw_b * hw_b)


@dataclasses.dataclass(frozen=True)
class CellFlag:
    table: int
    threshold: float
    column: str
    ours: float
    published: float
    tolerance: float


def make_table1():
    """Rows (threshold, actual, asymptotic, ratio), fully deterministic."""
    rows = []
    model = lognormal(0.0, 1.0)
    for x, *_ in TABLE1:
        exact = exact_comonotone_lognormal(0.0, float(x)).estimate
        approx = approx_sum_pair(model, model, float(x), c=1.0)
        rows.append((float(x), exact, approx.value, exact / approx.value))
    return rows


def make_sim_table(rho: float, thresholds, n: int, seed: int, workers: int = 1):
    """Rows (threshold, estimate, asymptotic, ratio, half_width).

    All thresholds are scored on one set of draws, so the rows' errors are
    correlated; each row equals a one-threshold estimate with the same seed.
    """
    model = lognormal(0.0, 1.0)
    xs = [float(x) for x in thresholds]
    ests = cond_mc_lognormal_curve(0.0, 1.0, rho, [1.0, 1.0], xs, n, seed, workers=workers)
    rows = []
    for x, est in zip(xs, ests):
        approx = approx_sum_pair(model, model, x, c=1.0)
        rv = ratio_vs_asymptotic(est, approx)
        rows.append((x, est.estimate, approx.value, rv.ratio, rv.half_width))
    return rows


def make_opt_table(rho: float, thresholds, n: int, seed: int, workers: int = 1) -> list:
    """The grid audit (`GridAudit`) of the two-asset study at each threshold.

    Its table row is (threshold, a1_tilde, E1, E2, relative_error), all exact.
    """
    model = lognormal(0.0, 1.0)
    joint = bivariate_lognormal(0.0, 1.0, rho)
    constraint = LinearConstraint((2.0, 3.0), 1.0)
    problems = [PortfolioProblem((model, model), (1.0, 1.0), constraint, float(x)) for x in thresholds]
    return [grid_verify(p, joint, grid_step=0.01, n=n, seed=seed, workers=workers) for p in problems]


def compare_to_published(table_id: int, rows) -> list:
    """Flags for regenerated cells that disagree with the published table."""
    study, _, published = PUBLISHED[table_id]
    flags = []
    for row, pub in zip(rows, published):
        x = row[0]
        if study == COMONOTONE:
            figs = (_sig_figs_of(pub[1]), _sig_figs_of(pub[2]), 5)
            for col, ours, printed, f in zip(("actual", "asymptotic", "ratio"), row[1:], pub[1:], figs):
                if not displayed_match(ours, printed, f):
                    flags.append(CellFlag(table_id, x, col, ours, printed, _display_unit(printed, f)))
        elif study == SIM:
            tol = 3.0 * combined_half_width(row[4], pub[4])
            if abs(row[3] - pub[3]) > tol:
                flags.append(CellFlag(table_id, x, "ratio", row[3], pub[3], tol))
        else:
            if abs(row[1] - pub[1]) > 0.02:
                flags.append(CellFlag(table_id, x, "a1_tilde", row[1], pub[1], 0.02))
            tol = max(0.5 * pub[3], 3e-4)
            if pub[3] > 0 and abs(row[3] - pub[3]) > tol:
                flags.append(CellFlag(table_id, x, "E2", row[3], pub[3], tol))
    return flags


def _finite_or_none(v: float):
    return v if math.isfinite(v) else None


def e2_mc_fields(audit) -> dict:
    """JSON fields of a grid audit's Monte Carlo estimate at a*, with its z against the exact E2."""
    mc = audit.E2_mc
    return {
        "estimate": mc.estimate,
        "std_error": _finite_or_none(mc.std_error),
        "ess": _finite_or_none(mc.ess),
        "z": (mc.estimate - audit.E2) / mc.std_error if mc.std_error > 0 else None,
    }


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """CSV with shortest round-trip float formatting (repr), written atomically."""
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (int, float)) else v for v in row])
    atomic_write_text(path, buf.getvalue())


def read_csv_rows(path: str):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = [tuple(float(v) for v in row) for row in r]
    return header, rows


def reproduce_tables(
    which,
    out_dir: str,
    budget_scale: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
) -> dict:
    """Regenerate the requested tables as CSVs plus a comparison report.

    Table 1 needs no seed; budget_scale in (0, 1] shrinks the simulation
    budgets proportionally (comparison tolerances widen automatically through
    the regenerated half-widths).  Returns the report dict (also written to
    report.json).
    """
    which = sorted(set(int(w) for w in which))
    check_value("a table id", which, Domain(lambda w: 1 <= w <= 7, "within 1..7"))
    check_value("budget_scale", budget_scale, Domain(lambda v: 0.0 < v <= 1.0, "in (0, 1]"))
    if seed is not None:
        _seed_key(seed)  # a malformed seed is rejected before any table is written
    elif any(w > 1 for w in which):
        raise ValueError("a seed is required for the stochastic tables (2..7)")
    os.makedirs(out_dir, exist_ok=True)

    report = {"seed": seed, "budget_scale": budget_scale, "tables": {}, "flags": []}
    all_flags = []
    for w in which:
        study, rho, published = PUBLISHED[w]
        thresholds = [r[0] for r in published]
        extra = {}
        if study == COMONOTONE:
            rows, n_used = make_table1(), 0
        elif study == SIM:
            n_used = max(int(SIM_BUDGET * budget_scale), 1000)
            rows = make_sim_table(rho, thresholds, n_used, seed, workers)
            exact = exact_lognormal_pair(0.0, 1.0, rho, 1.0, 1.0, thresholds).tolist()
            # z on the ratio scale, where the row's half-width is 1.96 standard errors
            extra["exact"] = [
                {"threshold": x, "exact": p, "z": (ratio - p / asym) * 1.96 / hw if hw > 0 else None}
                for (x, _, asym, ratio, hw), p in zip(rows, exact)
            ]
        else:
            n_used = max(int(GRID_BUDGET * budget_scale), 100)
            audits = make_opt_table(rho, thresholds, n_used, seed, workers)
            rows = [(a.threshold, a.a_tilde[0], a.E1, a.E2, a.relative_error) for a in audits]
            extra["E2_mc"] = [{"threshold": a.threshold, **e2_mc_fields(a)} for a in audits]
        path = os.path.join(out_dir, f"table{w}.csv")
        write_csv(path, _HEADERS[study], rows)
        flags = compare_to_published(w, rows)
        all_flags.extend(flags)
        report["tables"][str(w)] = {
            "path": path,
            "n": n_used,
            "rows": [list(r) for r in rows],
            "flagged_cells": len(flags),
            **extra,
        }
    report["flags"] = [dataclasses.asdict(f) for f in all_flags]
    report["table1_ok"] = 1 not in which or not any(f.table == 1 for f in all_flags)
    atomic_write_text(os.path.join(out_dir, "report.json"), json.dumps(report, indent=2))
    return report
