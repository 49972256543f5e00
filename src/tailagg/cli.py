"""Command-line front end.

Subcommands:
  approx            closed-form tail approximation of a weighted sum
  exact             exact countermonotone lognormal pair probability
  simulate          Monte Carlo estimate (plain or conditional) with CI
  check             convergence profile for one hypothesis check
  optimize          two-stage allocation, optionally audited on a grid
  reproduce-tables  regenerate the reference tables as CSVs plus a report

All stochastic commands require an explicit --seed (there is no wall-clock
seeding anywhere).  Floats are emitted with shortest round-trip formatting;
CSV and JSON files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import diagnostics
from .asymptotics import approx_linear
from .errors import TailAggError
from .joint import BIVARIATE_LOGNORMAL, JointModel, joint_from_config
from .models import lognormal, model_from_config
from .portfolio import LinearConstraint, PortfolioProblem, grid_verify, single_asset_extremes, solve_two_stage
from .rare_event import cond_mc_lognormal, exact_comonotone_lognormal, plain_mc, ratio_vs_asymptotic
from .tables import _finite_or_none, atomic_write_text, e2_mc_fields, reproduce_tables, write_csv


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_floats(text: str) -> list:
    values = [float(v) for v in text.split(",") if v != ""]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"numbers must be finite, got {text!r}")
    return values


def _parse_finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _parse_count(text: str) -> int:
    # accept scientific notation like 1e7 for sample counts
    v = float(text)
    if not (1 <= v <= 1e15 and v == int(v)):
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    return int(v)


def _parse_workers(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {text!r}")
    return v


_GRID_SPEC = (
    "grid spec must be lo:hi:count in log10, e.g. 1:5:9 or 1e0:5e0:9, "
    "with count >= 2 and 10**lo, 10**hi positive finite doubles"
)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        count = 0
    if count >= 2:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            grid = np.logspace(lo, hi, count)
        if np.all(np.isfinite(grid) & (grid > 0)):
            return grid
    raise argparse.ArgumentTypeError(f"{_GRID_SPEC}; got {spec!r}")


def _parse_constraint(text: str) -> LinearConstraint:
    """Parse '2*a1+3*a2>=1' into a LinearConstraint."""
    if ">=" not in text:
        raise ValueError("constraint must look like '2*a1+3*a2>=1'")
    lhs, rhs = text.split(">=")
    L = float(rhs)
    coeffs = {}
    # a '+' after an exponent marker belongs to the number, as in 1e+20*a1
    for term in re.split(r"(?<![eE])\+", lhs):
        m = re.fullmatch(r"\s*(?:([0-9.eE+-]+)\s*\*\s*)?a(\d+)\s*", term)
        if not m:
            raise ValueError(f"bad constraint term {term!r}")
        i = int(m.group(2))
        if i in coeffs:
            raise ValueError(f"constraint term a{i} appears twice")
        coeffs[i] = float(m.group(1)) if m.group(1) else 1.0
    idx = sorted(coeffs)
    if idx != list(range(1, len(idx) + 1)):
        raise ValueError("constraint terms must cover a1..ad")
    if not all(math.isfinite(v) for v in (L, *coeffs.values())):
        raise ValueError(f"numbers must be finite, got {text!r}")
    return LinearConstraint(tuple(coeffs[i] for i in idx), L)


def _marginals(joint: JointModel, count: int) -> list:
    return [joint.marginal_model(0) for _ in range(count)]


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        atomic_write_text(out, text + "\n")
    else:
        print(text)


def _recipe_dict(res) -> dict:
    r = res.recipe
    out = {"c": list(r.c), "m_d": r.m_d, "N_d": r.N_d}
    if r.beta is not None:
        out.update(beta=r.beta, q_d=r.q_d, J_d=r.J_d)
    return out


def cmd_approx(args) -> int:
    joint = joint_from_config(_load_json(args.joint))
    a = _parse_floats(args.coeffs)
    models = _marginals(joint, len(a))
    c = _parse_floats(args.c) if args.c else None
    res = approx_linear(models, a, args.threshold, c=c)
    _emit(
        {
            "value": res.value,
            "log10_value": res.log_value / math.log(10.0),
            "recipe": _recipe_dict(res),
        },
        args.out,
    )
    return 0


def cmd_exact(args) -> int:
    est = exact_comonotone_lognormal(args.mu, args.threshold)
    model = lognormal(args.mu, 1.0)
    from .asymptotics import approx_sum_pair

    approx = approx_sum_pair(model, model, args.threshold, c=1.0)
    _emit(
        {
            "estimate": est.estimate,
            "asymptotic_approximation": approx.value,
            "ratio": est.estimate / approx.value,
        },
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    joint = joint_from_config(_load_json(args.joint))
    a = _parse_floats(args.coeffs)
    if args.method == "cond":
        if joint.kind != BIVARIATE_LOGNORMAL:
            raise TailAggError("the conditional estimator targets the bivariate lognormal")
        if joint.rho == -1.0:
            raise TailAggError("rho = -1 has a closed form; use the 'exact' subcommand")
        est = cond_mc_lognormal(joint.mu, joint.sigma, joint.rho, a, args.threshold, args.n, args.seed, workers=args.workers)
    else:
        est = plain_mc(joint, a, args.threshold, args.n, args.seed, workers=args.workers)
    payload = {
        "estimate": est.estimate,
        "std_error": _finite_or_none(est.std_error),
        "half_width95": _finite_or_none(est.half_width95),
        "n": est.n,
        "seed": args.seed,
        "method": est.method,
        "ess": _finite_or_none(est.ess),
        "rel_se": _finite_or_none(est.std_error / est.estimate) if est.estimate else None,
    }
    try:
        approx = approx_linear(_marginals(joint, len(a)), a, args.threshold)
    except TailAggError:
        approx = None
    # no ratio where the recipe does not apply or its value underflows to 0
    payload["ratio_vs_asymptotic"] = None
    if approx is not None and approx.value > 0:
        rv = ratio_vs_asymptotic(est, approx)
        payload["ratio_vs_asymptotic"] = {
            "ratio": rv.ratio,
            "half_width": _finite_or_none(rv.half_width),
            "asymptotic_value": approx.value,
        }
    _emit(payload, args.out)
    return 0


_CHECKS = ("A1", "A2", "A3", "A4", "A5", "SUBEXP", "ASYINDEP")


def cmd_check(args) -> int:
    grid = args.grid_log
    name = args.assumption.upper()
    if args.method == "mc":
        if name not in ("A3", "A4", "A5"):
            raise TailAggError(f"{name} has no Monte Carlo route; --method mc applies to A3, A4 and A5")
        if args.seed is None:
            raise TailAggError("--method mc is stochastic; pass --seed")
    if name in ("A1", "A2", "SUBEXP"):
        if not args.model:
            raise TailAggError(f"{name} checks a marginal model; pass --model")
        model = model_from_config(_load_json(args.model))
        if name == "A1":
            report = diagnostics.check_mda_gumbel(model, grid)
        elif name == "SUBEXP":
            report = diagnostics.check_subexp_criterion(model, args.L, grid)
        else:
            if not args.model2:
                raise TailAggError("A2 compares two marginals; pass --model2")
            report = diagnostics.check_tail_ratio(model, model_from_config(_load_json(args.model2)), grid)
    else:
        if not args.joint:
            raise TailAggError(f"{name} checks a joint model; pass --joint")
        joint = joint_from_config(_load_json(args.joint))
        if name in ("A3", "A4"):
            report = diagnostics.check_conditional(
                joint, name, args.t, grid, method=args.method, mc_n=args.mc_n, seed=args.seed
            )
        elif name == "A5":
            report = diagnostics.check_joint_aux(
                joint, args.L, grid, method=args.method, mc_n=args.mc_n, seed=args.seed
            )
        else:
            report = diagnostics.check_asy_indep(joint, grid)
    payload = {
        "assumption": report.assumption,
        "grid": list(report.grid),
        "values": [v if math.isfinite(v) else repr(v) for v in report.values],
        "trend": {"kind": report.trend.kind, "limit": report.trend.limit},
        "method": report.method,
    }
    if report.mc_n is not None:
        payload["mc"] = {"n": report.mc_n, "seed": report.seed}
    _emit(payload, args.out)
    if args.csv:
        write_csv(args.csv, ("x", "value"), list(zip(report.grid, report.values)))
    return 0


def cmd_optimize(args) -> int:
    joint = joint_from_config(_load_json(args.joint))
    constraint = _parse_constraint(args.constraint)
    d = len(constraint.l)
    models = tuple(_marginals(joint, d))
    problem = PortfolioProblem(models, tuple(1.0 for _ in range(d)), constraint, args.threshold)
    sol = solve_two_stage(problem)
    payload = {
        "solution": {
            "a": list(sol.a),
            "m_d": sol.m_d,
            "N_d": sol.N_d,
            "approx_prob": sol.approx_prob,
            "heuristic": sol.heuristic,
        }
    }
    if args.verify:
        if args.seed is None:
            raise TailAggError("--verify is stochastic; pass --seed")
        audit = grid_verify(problem, joint, grid_step=args.grid_step, n=args.n, seed=args.seed, workers=args.workers)
        payload["audit"] = {
            "a_tilde": list(audit.a_tilde),
            "E1": audit.E1,
            "E2": audit.E2,
            "relative_error": audit.relative_error,
            "n": audit.n,
            "seed": audit.seed,
            "single_asset_extremes": list(single_asset_extremes(problem, joint)),
            "E2_mc": e2_mc_fields(audit),
        }
        if args.csv:
            write_csv(
                args.csv,
                ("a1", "a2", "estimate", "std_error", "exact", "zero_hits"),
                [(p.a1, p.a2, p.estimate, p.std_error, int(p.exact), int(p.zero_hits)) for p in audit.points],
            )
    _emit(payload, args.out)
    return 0


def cmd_reproduce_tables(args) -> int:
    which = [int(v) for v in args.which.split(",")] if args.which else list(range(1, 8))
    report = reproduce_tables(which, args.out_dir, budget_scale=args.budget_scale, seed=args.seed, workers=args.workers)
    print(json.dumps({k: report[k] for k in ("seed", "budget_scale", "table1_ok")}, indent=2))
    for f in report["flags"]:
        print(f"flag: table {f['table']} x={f['threshold']} {f['column']}: ours={f['ours']!r} published={f['published']!r}")
    return 0 if report["table1_ok"] else 1


_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tailagg",
        description="Tail probabilities of aggregated rapidly-varying risks: "
        "closed-form approximations, hypothesis diagnostics, rare-event simulation, "
        "and minimax portfolio allocation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("approx", help="closed-form approximation of P(sum a_i X_i > x)")
    pa.add_argument("--joint", required=True, help="joint model config (JSON)")
    pa.add_argument("--coeffs", required=True, help="comma-separated coefficients, e.g. 3,2")
    pa.add_argument("--threshold", type=_parse_finite, required=True)
    pa.add_argument("--c", help="tail-ratio constants (analytic override)")
    pa.add_argument("--out", help="write JSON here instead of stdout")
    pa.set_defaults(fn=cmd_approx)

    pe = sub.add_parser("exact", help="exact countermonotone lognormal pair probability")
    pe.add_argument("--mu", type=_parse_finite, default=0.0)
    pe.add_argument("--threshold", type=_parse_finite, required=True)
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_exact)

    ps = sub.add_parser("simulate", help="Monte Carlo estimate with confidence interval")
    ps.add_argument("--joint", required=True)
    ps.add_argument("--coeffs", required=True)
    ps.add_argument("--threshold", type=_parse_finite, required=True)
    ps.add_argument("--n", type=_parse_count, required=True, help="sample budget, e.g. 1e7")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--method", choices=("cond", "plain"), default="cond")
    ps.add_argument("--workers", type=_parse_workers, default=1)
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_simulate)

    pc = sub.add_parser("check", help="convergence profile for one hypothesis check")
    pc.add_argument("--assumption", required=True, choices=_CHECKS)
    pc.add_argument("--joint", help="joint config (A3/A4/A5/ASYINDEP)")
    pc.add_argument("--model", help="marginal config (A1/A2/SUBEXP)")
    pc.add_argument("--model2", help="second marginal (A2)")
    pc.add_argument("--L", type=_parse_finite, default=1.0)
    pc.add_argument("--t", type=_parse_finite, default=1.0)
    pc.add_argument("--grid-log", type=_parse_grid, help="log10 grid lo:hi:count (default 1:5:9)")
    pc.add_argument("--method", choices=("auto", "mc"), default="auto", help="mc samples A3/A4/A5 (needs --seed)")
    pc.add_argument("--mc-n", type=_parse_count, default=10**6)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--csv", help="also write (x, value) rows here")
    pc.add_argument("--out")
    pc.set_defaults(fn=cmd_check)

    po = sub.add_parser("optimize", help="two-stage allocation with optional grid audit")
    po.add_argument("--joint", required=True)
    po.add_argument("--constraint", required=True, help="e.g. '2*a1+3*a2>=1'")
    po.add_argument("--threshold", type=_parse_finite, required=True)
    po.add_argument("--verify", action="store_true")
    po.add_argument("--grid-step", type=float, default=0.01)
    po.add_argument("--n", type=_parse_count, default=10**4)
    po.add_argument("--seed", type=int)
    po.add_argument("--workers", type=_parse_workers, default=1)
    po.add_argument("--csv", help="per-grid-point estimates")
    po.add_argument("--out")
    po.set_defaults(fn=cmd_optimize)

    pt = sub.add_parser("reproduce-tables", help="regenerate reference tables 1..7")
    pt.add_argument("--which", help="comma-separated table ids, default all")
    pt.add_argument("--budget-scale", type=float, default=1.0)
    pt.add_argument("--seed", type=int)
    pt.add_argument("--workers", type=_parse_workers, default=1)
    pt.add_argument("--out-dir", required=True)
    pt.set_defaults(fn=cmd_reproduce_tables)
    # argparse takes only -1000 and -0.5 for negative numbers and so reads
    # -1e3 or -5e-1:2.5:4 as an unknown option; no tailagg option starts with
    # a digit, so any "-digit" or "-.digit" token is a value.  The matcher is
    # a private argparse attribute (Python 3.11), set on every parser.
    for q in (p, *sub.choices.values()):
        q._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TailAggError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
