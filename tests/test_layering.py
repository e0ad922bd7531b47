"""The learner never reaches the dense oracles. `baselines` holds the
enumerated solvers and every n x n oracle, and it imports the learner; so
no module of the learner may import it, in relative or absolute form,
directly or through another module of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polymkl"
LEARNER = ("kernels", "dual", "gradient", "sampler", "optimizer")


def imported_modules(source: str) -> set[str]:
    """The modules of the package that `source` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "polymkl" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "polymkl" and len(parts) > 1:
                found.add(parts[1])
    return found


def reached(module: str) -> set[str]:
    """Every module of the package that importing `module` imports."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        path = PACKAGE / f"{name}.py"
        if name in seen or not path.exists():
            continue
        seen.add(name)
        todo.extend(imported_modules(path.read_text()))
    return seen - {module}


@pytest.mark.parametrize(
    "statement",
    [
        "from . import baselines",
        "from .baselines import solve_dense",
        "from . import dual, baselines",
        "import polymkl.baselines",
        "import polymkl.baselines as oracles",
        "from polymkl import baselines",
        "from polymkl.baselines import brute_force_q",
        "def late():\n    from .baselines import grad_component",
    ],
)
def test_every_import_form_is_seen(statement):
    assert "baselines" in imported_modules(statement)


@pytest.mark.parametrize("module", LEARNER)
def test_learner_module_does_not_reach_baselines(module):
    assert (PACKAGE / f"{module}.py").exists()
    assert "baselines" not in reached(module), f"{module} reaches baselines"
