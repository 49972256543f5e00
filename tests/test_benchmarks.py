"""Every script under benchmarks/ imports, and the perfbench tracer installs: the names they reach into still exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(monkeypatch, path):
    # the scripts put src/ (and perfbench/) on sys.path; the copy is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


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
