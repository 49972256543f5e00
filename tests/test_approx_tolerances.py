"""Every `pytest.approx` in the tests states both of its tolerances.

pytest's default absolute tolerance, 1e-12, decides any comparison of a
value below about 1e-12 / rel: `4.5e-12 == pytest.approx(4.923859e-12,
rel=1e-6)` holds.  The tail probabilities here reach far below that, so a
call must give `rel=` and `abs=` both; `abs=0` keeps a relative check
relative, and `rel=0` keeps an absolute one absolute.
"""

import ast
from pathlib import Path


def _approx_calls_missing_a_tolerance(path: Path) -> list:
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "approx"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pytest"
            and not {"rel", "abs"} <= {k.arg for k in node.keywords}
        ):
            missing.append(f"{path.name}:{node.lineno}")
    return missing


def test_every_approx_gives_rel_and_abs():
    files = sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 10
    assert [m for f in files for m in _approx_calls_missing_a_tolerance(f)] == []
