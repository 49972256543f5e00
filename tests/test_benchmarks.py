"""Every script under benchmarks/ imports, and the perfbench tracer installs: the names they reach into still exist."""

import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_there_are_scripts():
    assert SCRIPTS


def _load(monkeypatch, path):
    # the scripts put src/ (and perfbench/) on sys.path; the copy is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(monkeypatch, path):
    assert callable(_load(monkeypatch, path).main)


def test_audit_record_is_written_when_stdout_is_closed(monkeypatch, tmp_path):
    # `bench_audit.py B.json | head -1`: the reader goes away before the figures are printed
    bench = _load(monkeypatch, ROOT / "benchmarks" / "bench_audit.py")
    for name in ("exact_cells", "audits", "oracle_max_rel"):
        monkeypatch.setattr(bench, name, lambda *args: {"figure": 1.0})
    monkeypatch.setattr(bench, "probe_s", lambda: 0.01)
    read, write = os.pipe()
    os.close(read)
    closed = open(write, "w", buffering=1)
    monkeypatch.setattr(sys, "stdout", closed)
    out = tmp_path / "B.json"
    try:
        with pytest.raises(BrokenPipeError):
            bench.main([str(out), "--label", "x"])
    finally:
        with contextlib.suppress(BrokenPipeError):
            closed.close()
    record = json.loads(out.read_text())["x"]
    assert record["audit_ms"] == {"figure": 1.0}
    assert record["speed_probe_s"] == {"before": 0.01, "after": 0.01}


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
