"""Each space kind is decided in one module: ``spaces``.

Every other module asks a ``SpaceWeight`` for its name, fit axis, theory
slope or growth law instead of comparing its kind string or its report
name, and builds a weight from a report name with ``SpaceWeight.named``.
"""

import ast
from pathlib import Path

import pytest

from freudquad.spaces import _KINDS, SpaceWeight

PACKAGE = Path(__file__).parents[1] / "src" / "freudquad"
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "spaces.py")
# kind strings and report names alike
KIND_WORDS = set(_KINDS) | set(SpaceWeight.names())


def _kind_comparisons(source: str) -> list[str]:
    """Comparisons in ``source`` with a ``.kind`` operand, or a kind or
    report-name literal, among their operands (directly or inside a tuple,
    list or set)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for operand in list(operands):
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                operands.extend(operand.elts)
        if any(
            isinstance(op, ast.Attribute) and op.attr == "kind"
            or isinstance(op, ast.Constant) and op.value in KIND_WORDS
            for op in operands
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_no_kind_comparison_outside_spaces(path):
    assert _kind_comparisons(path.read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        'space.kind == "exp"',
        'self.space_weight.kind in ("poly", "mod-poly")',
        'kind == "exp"',
        '"mod-exp2" != w.kind',
        'kind in {"mod-exp", "exp"}',
        'args.space == "epq"',
        'args.space != "mse2"',
        'name in ("hs", "ms")',
    ],
)
def test_the_check_sees_each_form(line):
    assert len(_kind_comparisons(line)) == 1


def test_the_check_reads_the_package():
    assert {p.name for p in OTHER_MODULES} >= {"cli.py", "experiments.py", "kernels.py"}
    assert _kind_comparisons((PACKAGE / "spaces.py").read_text())
