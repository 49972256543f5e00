"""Each joint kind is declared once, in `joint._KINDS`, so the package compares a kind only where a route takes one kind.

`JointModel.__post_init__` checks a kind against `_KINDS`; `cli.cmd_simulate`,
`portfolio.grid_verify` and `diagnostics.check_asy_indep` refuse every kind
but the bivariate lognormal.  Any other comparison against a `.kind` is a
dispatch chain growing back beside the declaration: a per-kind form belongs
in a `_Kind` field.  A local variable named `kind` counts as a `.kind`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tailagg"
_GUARDS = [
    ("cli.py", "cmd_simulate"),
    ("diagnostics.py", "check_asy_indep"),
    ("joint.py", "__post_init__"),
    ("portfolio.py", "grid_verify"),
]


def _kind_comparisons(path: Path) -> list:
    """(file name, enclosing function) of each comparison with a `.kind` or `kind` operand in the module at path."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
            isinstance(operand, ast.Attribute) and operand.attr == "kind" or isinstance(operand, ast.Name) and operand.id == "kind"
            for operand in [node.left, *node.comparators]
        ):
            found.append((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_kind_is_compared_only_in_the_declaration_check_and_the_three_guards():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert sorted(site for f in files for site in _kind_comparisons(f)) == _GUARDS
