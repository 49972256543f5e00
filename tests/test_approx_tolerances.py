"""Every `pytest.approx` and every numpy closeness check in the tests states both of its tolerances.

pytest's default absolute tolerance, 1e-12, decides any comparison of a
value below about 1e-12 / rel: `4.5e-12 == pytest.approx(4.923859e-12,
rel=1e-6)` holds.  The tail probabilities here reach far below that, so a
call must give `rel=` and `abs=` both; `abs=0` keeps a relative check
relative, and `rel=0` keeps an absolute one absolute.  `np.allclose` has the
same fault with its default atol=1e-8, and `np.allclose(v, 1.0, atol=1e-12)`
its default rtol=1e-5, so `allclose` and `assert_allclose` must give `rtol=`
and `atol=` both.
"""

import ast
from pathlib import Path

# the function's name, the name of what it is an attribute of (None: any) and
# the keywords it must be given
_CHECKS = [("approx", "pytest", {"rel", "abs"}), ("allclose", None, {"rtol", "atol"}), ("assert_allclose", None, {"rtol", "atol"})]


def _calls_missing_a_tolerance(path: Path, name: str, owner, keywords: set) -> list:
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and (owner is None or isinstance(node.func.value, ast.Name) and node.func.value.id == owner)
            and not keywords <= {k.arg for k in node.keywords}
        ):
            missing.append(f"{path.name}:{node.lineno}")
    return missing


def _missing(name: str, owner, keywords: set) -> list:
    files = sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 10
    return [m for f in files for m in _calls_missing_a_tolerance(f, name, owner, keywords)]


def test_every_approx_gives_rel_and_abs():
    assert _missing(*_CHECKS[0]) == []


def test_every_allclose_gives_rtol_and_atol():
    assert [m for check in _CHECKS[1:] for m in _missing(*check)] == []
