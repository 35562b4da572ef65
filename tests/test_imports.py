"""Every name that a module of the package imports is read there.

No linter runs on this repository, so this test reads each module's AST:
an imported name must be loaded somewhere in its module or listed in its
``__all__``.  ``from __future__`` imports and import statements marked
``# noqa: F401`` (a deliberate re-export) are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diskflow"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # the scan itself: an unread import is caught, an exempt one is not
    probe = (
        "from __future__ import annotations\n"
        "import cmath\n"
        "import math  # noqa: F401\n"
        "from .abel import (  # noqa: F401 - re-exported\n"
        "    abel_h,\n"
        ")\n"
        "from .flow import integrate, flow_point\n"
        "integrate(0)\n"
    )
    assert _unused_imports(probe) == ["cmath", "flow_point"]
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
