"""Benchmark: the end-to-end figures of the CLI, as fresh processes, on one tree or two in alternation.

The figures of its record, each keyed <tree>/<case>:
  wall_s        seconds from starting the `python -m tailagg.cli` process
                to its exit (start-up, imports and writing the output
                included), median of --repeats runs
  wall_s_iqr    Q3 - Q1 of those seconds (`_record.summary`)
  peak_rss_mb   the child's peak resident memory, `ru_maxrss` from
                `os.wait4` / 1024, median of the same runs
  rel_se        of each `simulate` case, std_error / estimate as its
                output JSON gives it (the seed is fixed, so every round
                gives the same value)
  z             of each d = 2 `simulate` case, (estimate - exact) /
                std_error against `exact_d2`
  exact_d2      `exact_lognormal_pair(0, 1, 0.9, 1, 1, 100)` of the tree
                the script runs from: the d = 2 cases' true value
The cases:
  tables<k>_w<w>  `reproduce-tables --which k --seed 42 --workers w` for
                  k = 2, 3, 4 and w = 1, 2, at the full budget (1e7 rows
                  per cell)
  simulate_d<d>   `simulate --method cond --workers 2` of a bivariate
                  lognormal (mu 0, sigma 1, rho 0.9) with d coefficients 1,
                  x = 100, seed 7, n = 1e7, for d = 2, 3
  simulate_plain_d2  `simulate --method plain --workers 2` of the same
                  bivariate lognormal, coefficients (1, 1), x = 100, seed 7,
                  n = 1e7: plain MC's row draw and count
  check           `check --assumption A3 --grid-log 1:5:9` of the same
                  bivariate lognormal: one orthant quadrature call, so
                  its time is almost all the fixed cost of a command
                  (start-up and the imports)
The tree the script runs from is `change`; --parent names the root of a
second tree (`parent`, say a `git archive` of the parent commit), and then
each round runs every case on both trees back to back, the order swapping
from one round to the next, so a machine that drifts slows both alike.  Each
round writes its outputs into a fresh temporary directory.  `_record.main` stores the
record, with the speed probes (see `_record`).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import _record  # first: it puts src/ and perfbench/ on sys.path
from _record import summaries
from tailagg import exact_lognormal_pair

OPTIONS = {
    "parent": dict(help="root of a second tree, run in alternation with this one"),
    "repeats": _record.REPEATS,
}

_BIVARIATE = '{"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": 0.9}'


def cases(work: Path) -> dict:
    """Case name -> the CLI arguments it runs, writing under work."""
    (work / "joint.json").write_text(_BIVARIATE)
    out = {}
    for k in (2, 3, 4):
        for w in (1, 2):
            out[f"tables{k}_w{w}"] = ["reproduce-tables", "--which", str(k), "--seed", "42", "--workers", str(w),
                                      "--out-dir", str(work / "tables")]
    for case, d, method in (("simulate_d2", 2, "cond"), ("simulate_d3", 3, "cond"), ("simulate_plain_d2", 2, "plain")):
        out[case] = ["simulate", "--joint", str(work / "joint.json"), "--coeffs", ",".join("1" * d),
                     "--threshold", "100", "--n", "10000000", "--seed", "7",
                     "--method", method, "--workers", "2", "--out", str(work / "simulate.json")]
    out["check"] = ["check", "--assumption", "A3", "--joint", str(work / "joint.json"), "--grid-log", "1:5:9"]
    return out


def run_cli(tree: Path, argv: list) -> tuple:
    """(wall seconds, peak RSS in MB) of one fresh `python -m tailagg.cli` process on tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "tailagg.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{argv[0]} on {tree} exited with code {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def simulate_quality(out: Path, exact) -> tuple:
    """(rel_se, z against exact) of the `simulate` output JSON at out; z is None where exact or the SE is."""
    est = json.loads(out.read_text())
    se = est["std_error"]
    return est["rel_se"], None if exact is None or not se else (est["estimate"] - exact) / se


def figures(args) -> dict:
    trees = {"change": _record.ROOT}
    if args.parent:
        trees = {"parent": Path(args.parent).resolve(), **trees}
    exact = float(exact_lognormal_pair(0.0, 1.0, 0.9, 1.0, 1.0, 100.0))
    runs, rel_se, z = {}, {}, {}
    for r in range(args.repeats):
        order = list(trees.items())[:: -1 if r % 2 else 1]
        with tempfile.TemporaryDirectory() as tmp:
            for case, argv in cases(Path(tmp)).items():
                for label, tree in order:
                    key = f"{label}/{case}"
                    runs.setdefault(key, []).append(run_cli(tree, argv))
                    if argv[0] == "simulate":
                        rel_se[key], zk = simulate_quality(Path(argv[argv.index("--out") + 1]), exact if case.endswith("_d2") else None)
                        if zk is not None:
                            z[key] = zk
    _, wall, wall_iqr = summaries({key: ([w for w, _ in r], 1.0) for key, r in runs.items()})
    return {
        "wall_s": wall,
        "wall_s_iqr": wall_iqr,
        "peak_rss_mb": {key: statistics.median(rss for _, rss in r) for key, r in runs.items()},
        "rel_se": rel_se,
        "z": z,
        "exact_d2": exact,
    }


def main(argv=None) -> int:
    return _record.main(__doc__, figures, argv, **OPTIONS)


if __name__ == "__main__":
    sys.exit(main())
