"""What the scripts under benchmarks/ share: timers, the machine's speed and the record.

A script measures its own figures and hands them to `main`, which
  * parses `out`, `--label` and the script's own options;
  * takes `speed_probe_s`, the machine's speed before and after the
    figures: the median of 5 runs of `perfbench/run.py`'s `speed_probe`
    (about 0.01 s on an idle reference machine), so records taken at
    different times can be told apart from a machine that slowed down;
  * adds the python, numpy and machine fields and the script's options;
  * stores the record under `--label` in `out`, keeping the records under
    other labels, so two trees measured on one machine can share a file;
  * prints the record only once the file is written, so a closed stdout
    (`| head`) cannot lose it.

Importing this module puts the `src/` beside it (for `tailagg`) and
`perfbench/` on sys.path.  Run a script from the root of the tree to
measure:

    python benchmarks/bench_<name>.py BENCH_<n>.json --label change
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
from run import speed_probe  # noqa: E402

REPEATS = dict(type=int, default=5, help="timings per figure; the script's doc says which of them it keeps")


def timings(fn, repeats: int, setup=lambda: None) -> list:
    """Seconds of each of `repeats` calls fn(setup()); setup is not timed."""
    out = []
    for _ in range(repeats):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        out.append(time.perf_counter() - t0)
    return out


def best(fn, repeats: int, setup=lambda: None) -> float:
    """Fewest seconds of `repeats` calls fn(setup()); setup is not timed."""
    return min(timings(fn, repeats, setup))


def summary(times: list, scale: float = 1.0) -> tuple:
    """(best, median, Q3 - Q1) of times, each times scale: how far the best-of figure can be trusted.

    The quartiles are `statistics.quantiles(times, n=4)`, as `perfbench/run.py`
    takes them; one timing has no spread, so its Q3 - Q1 is NaN.
    """
    if len(times) < 2:
        return times[0] * scale, times[0] * scale, float("nan")
    q1, median, q3 = statistics.quantiles(times, n=4)
    return min(times) * scale, median * scale, (q3 - q1) * scale


def summaries(raw: dict) -> tuple:
    """{key: (timings, scale)} as {key: best}, {key: median} and {key: Q3 - Q1}, each by `summary`."""
    out = {key: summary(times, scale) for key, (times, scale) in raw.items()}
    return tuple({key: v[i] for key, v in out.items()} for i in range(3))


def probe_s() -> float:
    """Median seconds of 5 speed probes: the machine's speed now."""
    return statistics.median(speed_probe() for _ in range(5))


def main(doc: str, figures, argv=None, **options) -> int:
    """Store figures(args) as the record under --label in out, between two speed probes; then print it.

    Each keyword names one more option of the script, as the keyword
    arguments of `ArgumentParser.add_argument`; its value is stored too.
    """
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("out", help="JSON file to write the record into")
    ap.add_argument("--label", default="change", help="key of the record in the file")
    for name, spec in options.items():
        ap.add_argument(f"--{name}", **spec)
    args = ap.parse_args(argv)

    before = probe_s()
    record = figures(args)
    record["speed_probe_s"] = {"before": before, "after": probe_s()}
    record.update(
        python=platform.python_version(),
        numpy=np.__version__,
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
        **{name: getattr(args, name) for name in options},
    )
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    for group, values in record.items():
        for name, value in values.items() if isinstance(values, dict) else [("", values)]:
            print(f"{group:20s} {name:40s} {format(value, '.4g') if isinstance(value, float) else value}")
    return 0
