"""Benchmark: the fixed cost of a CLI command.

Prints, and writes as one JSON record:
  import_cli_s  cold `import tailagg.cli` in a fresh interpreter (numpy,
                scipy and tailagg are imported; interpreter start-up is not
                counted), median of IMPORT_SAMPLES processes
  parser_ms     in-process `cli.build_parser` ms, median of PARSER_SAMPLES
                builds: "full" with every subcommand, and one entry per
                subcommand for the parser `main` builds for it (null where
                build_parser takes no command and main builds the full one)
  check_grid    the per-layer figures in LAYERS from one
                `perfbench/run.py --workload check_grid --trace 1` run of the
                same tree: parser build, orthant call and its own time (scan
                and Gauss-Legendre rule; the orthant calls nothing the tracer
                times apart), and the call counts behind them; and
                joint.orthant_ms_per_pass, calls x ms per call, since batching
                the orthant's points raises the ms per call as the calls fall

Run from the root of the tree to measure:

    python benchmarks/bench_cli.py BENCH_<n>.json --label change

The record is stored under `--label` in the output file; records under
other labels already in the file are kept, so two trees measured on one
machine can share a file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_SAMPLES = 5
PARSER_SAMPLES = 501
LAYERS = (
    "cli.parser_ms",
    "cli.self_ms_per_op",
    "joint.orthant_calls",
    "joint.orthant_ms",
    "joint.orthant_scan_ms",
    "models.log_survival_calls",
)

_IMPORT_CODE = "import time; t = time.perf_counter(); import tailagg.cli; print(time.perf_counter() - t)"


def cold_import_s() -> float:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [
        float(subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env, capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(runs)


# argv[1] builds per figure; a command is timed only where build_parser takes one
_PARSER_CODE = """
import inspect, json, statistics, sys, time
from tailagg import cli

def ms(*args):
    runs = []
    for _ in range(int(sys.argv[1])):
        t = time.perf_counter()
        cli.build_parser(*args)
        runs.append(time.perf_counter() - t)
    return statistics.median(runs) * 1e3

names = list(cli.build_parser()._subparsers._group_actions[0].choices)
one = "command" in inspect.signature(cli.build_parser).parameters
print(json.dumps({"full": ms(), **{n: ms(n) if one else None for n in names}}))
"""


def parser_ms() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", _PARSER_CODE, str(PARSER_SAMPLES)]
    return json.loads(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)


def check_grid_layers(seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "check_grid",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    last = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()[-1]
    run = json.loads(last)
    if not run["correct"]:
        raise RuntimeError(f"check_grid: {run['failed']}/{run['attempted']} ops failed")
    layers = {name: run["metrics"][name]["value"] for name in LAYERS}
    layers["joint.orthant_ms_per_pass"] = layers["joint.orthant_calls"] * layers["joint.orthant_ms"]
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="JSON file to write the record into")
    ap.add_argument("--label", default="change", help="key of the record in the file")
    ap.add_argument("--seed", type=int, default=1, help="seed of the traced check_grid run")
    ap.add_argument("--seconds", type=float, default=22.0, help="length of the traced check_grid run")
    args = ap.parse_args(argv)

    record = {
        "import_cli_s": cold_import_s(),
        "parser_ms": parser_ms(),
        "check_grid": check_grid_layers(args.seed, args.seconds),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    print(f"{'import_cli_s':26s} {record['import_cli_s']:.4g}")
    for name, value in record["parser_ms"].items():
        print(f"{'parser_ms ' + name:26s} {value if value is None else format(value, '.4g')}")
    for name, value in record["check_grid"].items():
        print(f"{name:26s} {value:.4g}")
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
