"""The learner never reaches the dense oracles. `baselines` holds the
enumerated solvers and every n x n oracle, and it imports the learner; so
no module of the learner may import it, in relative or absolute form,
directly or through another module of the package. And the support cache
is one object: no code outside `SupportCache` touches its private state."""

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


CACHE = "SupportCache"


def private_names(cls: ast.ClassDef) -> set[str]:
    """The private methods of a class and the private attributes it sets or
    reads on `self`."""
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    names |= {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def cache_class(trees: dict[str, ast.Module]) -> ast.ClassDef:
    classes = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == CACHE
    ]
    assert len(classes) == 1, f"expected one {CACHE} class, found {len(classes)}"
    return classes[0]


def foreign_uses(trees: dict[str, ast.Module]) -> list[str]:
    """Every read or write of a private attribute of `SupportCache` outside
    its class body, as `module:line name`."""
    cache = cache_class(trees)
    private = private_names(cache)
    inside = {id(node) for node in ast.walk(cache)}
    return [
        f"{name}:{node.lineno} {node.attr}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private and id(node) not in inside
    ]


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_support_cache_state_is_touched_only_by_its_own_methods():
    trees = package_trees()
    assert {"_slot_of_key", "_C", "_G"} <= private_names(cache_class(trees))
    assert foreign_uses(trees) == []


def test_a_foreign_write_to_the_cache_is_seen():
    trees = package_trees()
    trees["elsewhere"] = ast.parse("def step(state):\n    state.cache._G[0, 0] += 1.0\n")
    assert "elsewhere:2 _G" in foreign_uses(trees)


# The sampler knows no kernel form: every weight it draws from comes from
# `kernels.position_weights` or from the degree masses
KERNEL_FORMS = {"features", "dense_powers", "lifts", "top_is_dense"}


def attributes_read(source: str) -> set[str]:
    """Every attribute name `source` reads, as `x.name` or `getattr(x, "name")`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


@pytest.mark.parametrize(
    "statement",
    [
        "phi = ks.features.get(2)",
        "L = self.ks.lifts[1]",
        "from_masses = d == ks.D and ks.top_is_dense",
        "P = getattr(ks, 'dense_powers')[k]",
    ],
)
def test_every_kernel_form_read_is_seen(statement):
    assert attributes_read(statement) & KERNEL_FORMS


def test_sampler_reads_no_kernel_form():
    assert attributes_read((PACKAGE / "sampler.py").read_text()) & KERNEL_FORMS == set()
