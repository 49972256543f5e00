"""Command-line front end.

Subcommands:
  approx            closed-form tail approximation of a weighted sum
  exact             exact countermonotone lognormal pair probability
  simulate          Monte Carlo estimate (plain or conditional) with CI
  check             convergence profile for one hypothesis check
  optimize          two-stage allocation, optionally audited on a grid
  reproduce-tables  regenerate the reference tables as CSVs plus a report

The subcommands and their arguments are one table, `_COMMANDS`.  `main`
builds, on every call, the parser of the subcommand that argv[0] names and
no other (0.2-0.5 ms against 1.2-1.9 ms for all six); with no known subcommand
there (no argument, -h, a typo) it builds the full parser.  Usage, help and
error text are the same either way.

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
    # sample sizes and worker counts; accept scientific notation like 1e7
    v = float(text)
    if not (1 <= v <= 1e15 and v == int(v)):
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    return int(v)


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
    return [joint.marginal_model() for _ in range(count)]


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        atomic_write_text(out, text + "\n")
    else:
        print(text)


def cmd_approx(args) -> int:
    joint = joint_from_config(_load_json(args.joint))
    a = _parse_floats(args.coeffs)
    models = _marginals(joint, len(a))
    c = _parse_floats(args.c) if args.c else None
    res = approx_linear(models, a, args.threshold, c=c)
    r = res.recipe
    _emit(
        {
            "value": res.value,
            "log10_value": res.log_value / math.log(10.0),
            "recipe": {"c": list(r.c), "m_d": r.m_d, "N_d": r.N_d},
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
            "heuristic": True,
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
                [(p.a1, p.a2, p.estimate, 0.0, 1, int(p.estimate == 0.0)) for p in audit.points],
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


# subcommand -> (help, handler, its arguments as (flag, add_argument keywords)), in help order
_COMMANDS = {
    "approx": ("closed-form approximation of P(sum a_i X_i > x)", cmd_approx, (
        ("--joint", dict(required=True, help="joint model config (JSON)")),
        ("--coeffs", dict(required=True, help="comma-separated coefficients, e.g. 3,2")),
        ("--threshold", dict(type=_parse_finite, required=True)),
        ("--c", dict(help="tail-ratio constants (analytic override)")),
        ("--out", dict(help="write JSON here instead of stdout")),
    )),
    "exact": ("exact countermonotone lognormal pair probability", cmd_exact, (
        ("--mu", dict(type=_parse_finite, default=0.0)),
        ("--threshold", dict(type=_parse_finite, required=True)),
        ("--out", {}),
    )),
    "simulate": ("Monte Carlo estimate with confidence interval", cmd_simulate, (
        ("--joint", dict(required=True)),
        ("--coeffs", dict(required=True)),
        ("--threshold", dict(type=_parse_finite, required=True)),
        ("--n", dict(type=_parse_count, required=True, help="sample budget, e.g. 1e7")),
        ("--seed", dict(type=int, required=True)),
        ("--method", dict(choices=("cond", "plain"), default="cond")),
        ("--workers", dict(type=_parse_count, default=1)),
        ("--out", {}),
    )),
    "check": ("convergence profile for one hypothesis check", cmd_check, (
        ("--assumption", dict(required=True, choices=_CHECKS)),
        ("--joint", dict(help="joint config (A3/A4/A5/ASYINDEP)")),
        ("--model", dict(help="marginal config (A1/A2/SUBEXP)")),
        ("--model2", dict(help="second marginal (A2)")),
        ("--L", dict(type=_parse_finite, default=1.0)),
        ("--t", dict(type=_parse_finite, default=1.0)),
        ("--grid-log", dict(type=_parse_grid, help="log10 grid lo:hi:count (default 1:5:9)")),
        ("--method", dict(choices=("auto", "mc"), default="auto", help="mc samples A3/A4/A5 (needs --seed)")),
        ("--mc-n", dict(type=_parse_count, default=10**6)),
        ("--seed", dict(type=int)),
        ("--csv", dict(help="also write (x, value) rows here")),
        ("--out", {}),
    )),
    "optimize": ("two-stage allocation with optional grid audit", cmd_optimize, (
        ("--joint", dict(required=True)),
        ("--constraint", dict(required=True, help="e.g. '2*a1+3*a2>=1'")),
        ("--threshold", dict(type=_parse_finite, required=True)),
        ("--verify", dict(action="store_true")),
        ("--grid-step", dict(type=float, default=0.01)),
        ("--n", dict(type=_parse_count, default=10**4)),
        ("--seed", dict(type=int)),
        ("--workers", dict(type=_parse_count, default=1)),
        ("--csv", dict(help="per-grid-point estimates")),
        ("--out", {}),
    )),
    "reproduce-tables": ("regenerate reference tables 1..7", cmd_reproduce_tables, (
        ("--which", dict(help="comma-separated table ids, default all")),
        ("--budget-scale", dict(type=float, default=1.0)),
        ("--seed", dict(type=int)),
        ("--workers", dict(type=_parse_count, default=1)),
        ("--out-dir", dict(required=True)),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The tailagg parser with every subcommand, or with the named one only.

    A one-command parser parses that command's argv as the full parser does
    and prints the same usage, help and error text: the subcommand's own
    text comes from its prog ("tailagg check"), and the top level's (for an
    unrecognized argument) from the full command list, given as the metavar.
    """
    p = argparse.ArgumentParser(
        prog="tailagg",
        description="Tail probabilities of aggregated rapidly-varying risks: "
        "closed-form approximations, hypothesis diagnostics, rare-event simulation, "
        "and minimax portfolio allocation.",
    )
    # with every command the metavar stays None, so a missing command is named "command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, fn, arguments) in _COMMANDS.items():
        if command is None or name == command:
            q = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments:
                q.add_argument(flag, **kwargs)
            q.set_defaults(fn=fn)
    # argparse takes only -1000 and -0.5 for negative numbers and so reads
    # -1e3 or -5e-1:2.5:4 as an unknown option; no tailagg option starts with
    # a digit, so any "-digit" or "-.digit" token is a value.  The matcher is
    # a private argparse attribute (Python 3.11), set on every parser.
    for q in (p, *sub.choices.values()):
        q._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the named command's parser; anything else (no command, -h, a
    # typo) gets the full one, which lists or rejects the commands
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TailAggError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
