"""Every script under benchmarks/ imports: the private names it reaches into still exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py"))


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
