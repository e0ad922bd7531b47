"""Every name a module under src/polymkl imports is used in that module, as
pyflakes' F401 asks; an import kept on purpose carries `# noqa: F401` on one
of its lines. `__init__.py` imports to re-export, so it is not checked."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polymkl"


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append(f"{node.lineno}: {name}")
    return found


def test_no_unused_import_in_the_package():
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert sources
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{entry}"
        for path in sources
        for entry in unused_imports(path.read_text())
    ]
    assert not found, f"unused imports under src/polymkl: {found}"


def test_every_import_form_is_seen():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .a import b, c as d\n"
        "from .e import (  # noqa: F401\n"
        "    f,\n"
        ")\n"
        "def k(x):\n"
        "    return np.zeros(b)\n"
    )
    assert unused_imports(source) == ["2: os", "4: os", "5: d"]
