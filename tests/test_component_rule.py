"""`baselines` has one rule for an enumerated gradient component,
`grad_component`, which clamps a quadratic form that rounds below zero. A
second copy of the rule that skipped the clamp let a component read positive
and a step take a weight below zero; so `baselines` may read GRAD_SCALE, the
component's scale, only inside `grad_component`."""

import ast
from pathlib import Path

BASELINES = Path(__file__).resolve().parents[1] / "src" / "polymkl" / "baselines.py"
RULE = "grad_component"


def grad_scale_reads(source: str) -> list[int]:
    """The lines that read GRAD_SCALE, as a name or an attribute, outside the
    function named RULE. The import that binds the name is not a read."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == RULE
        for node in ast.walk(func)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            (isinstance(node, ast.Name) and node.id == "GRAD_SCALE")
            or (isinstance(node, ast.Attribute) and node.attr == "GRAD_SCALE")
        )
        and id(node) not in inside
    )


def test_baselines_reads_grad_scale_only_in_grad_component():
    source = BASELINES.read_text()
    assert f"def {RULE}(" in source
    assert grad_scale_reads(source) == []


def test_a_second_rule_is_seen():
    source = (
        "from .gradient import GRAD_SCALE\n"
        "from . import gradient\n"
        "def grad_component(a, K, r):\n"
        "    return -GRAD_SCALE * max(a @ K @ a, 0.0) / r\n"
        "def full_gradient(a, K, r):\n"
        "    return -GRAD_SCALE * (a @ K @ a) / r\n"
        "def other(a, K, r):\n"
        "    return -gradient.GRAD_SCALE * (a @ K @ a) / r\n"
    )
    assert grad_scale_reads(source) == [6, 8]
