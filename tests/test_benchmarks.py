"""Every script under benchmarks/ imports and writes its record, and the perfbench tracer installs: the names they reach into still exist."""

import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_there_are_scripts():
    assert SCRIPTS


def _load(monkeypatch, path):
    # a script imports its harness from benchmarks/, which puts src/ and perfbench/ on
    # sys.path; the copy is restored afterwards, and the harness is imported afresh onto it
    monkeypatch.setattr(sys, "path", [str(ROOT / "benchmarks"), *sys.path])
    monkeypatch.delitem(sys.modules, "_record", raising=False)
    spec = importlib.util.spec_from_file_location(f"bench_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(monkeypatch, path):
    assert callable(_load(monkeypatch, path).main)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_record_is_written_when_stdout_is_closed(monkeypatch, tmp_path, path):
    # `bench_<name>.py B.json | head -1`: the reader goes away before the figures are printed
    bench = _load(monkeypatch, path)
    monkeypatch.setattr(bench, "figures", lambda args: {"figure": {"a": 1.0}})
    monkeypatch.setattr(bench._record, "probe_s", lambda: 0.01)
    read, write = os.pipe()
    os.close(read)
    closed = open(write, "w", buffering=1)
    monkeypatch.setattr(sys, "stdout", closed)
    out = tmp_path / "B.json"
    out.write_text('{"other": {}}')
    try:
        with pytest.raises(BrokenPipeError):
            bench.main([str(out), "--label", "x"])
    finally:
        with contextlib.suppress(BrokenPipeError):
            closed.close()
    data = json.loads(out.read_text())
    assert data["other"] == {}
    record = data["x"]
    assert record["figure"] == {"a": 1.0}
    assert record["speed_probe_s"] == {"before": 0.01, "after": 0.01}
    assert {"python", "numpy", "machine"} <= set(record)


def test_tracer_installs_and_uninstalls():
    # install() looks up every name it wraps, so a deleted one fails here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from tailagg import joint

    orig = joint.bivariate_normal_orthant_log
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert joint.bivariate_normal_orthant_log is not orig
    finally:
        tracer.uninstall()
    assert joint.bivariate_normal_orthant_log is orig


def test_e2e_cases_parse(monkeypatch, tmp_path):
    # a mistyped flag fails here, not minutes into a full-budget run
    from tailagg import cli

    cases = _load(monkeypatch, ROOT / "benchmarks" / "bench_e2e.py").cases(tmp_path)
    assert "check" in cases
    for argv in cases.values():
        assert cli.build_parser(argv[0]).parse_args(argv).command == argv[0]


def test_e2e_reads_rel_se_and_z_from_a_simulate_output(monkeypatch, tmp_path):
    bench = _load(monkeypatch, ROOT / "benchmarks" / "bench_e2e.py")
    out = tmp_path / "simulate.json"
    out.write_text(json.dumps({"estimate": 0.5, "std_error": 0.01, "rel_se": 0.02}))
    assert bench.simulate_quality(out, 0.49) == pytest.approx((0.02, 1.0), rel=1e-12, abs=0)
    assert bench.simulate_quality(out, None) == (0.02, None)
    out.write_text(json.dumps({"estimate": 0.0, "std_error": 0.0, "rel_se": None}))
    assert bench.simulate_quality(out, 0.49) == (None, None)


def test_one_check_grid_pass_meets_the_benchmark_checks(monkeypatch, tmp_path, capsys):
    # the benchmark's own op list and output checks, so a model change that breaks an op fails here
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    from tailagg import cli

    configs, ops = workloads.build("check_grid", 1, str(tmp_path), 0)
    workloads.write_configs(configs, str(tmp_path), 0)
    assert len(ops) == 48
    for op in ops:
        rc = cli.main(list(op.argv))
        captured = capsys.readouterr()
        result = workloads.check(op, rc, captured.out, {})
        assert result.ok, f"{' '.join(op.argv)}: {result.why} {captured.err}"
