"""Every name that a module of the package imports is read there, and
every top-level function or class of the package is read somewhere.

No linter runs on this repository, so these tests read each module's
AST: an imported name must be loaded somewhere in its module or listed
in its ``__all__``.  ``from __future__`` imports and import statements
marked ``# noqa: F401`` (a deliberate re-export) are exempt.  A
definition must be loaded in its module, imported by name from it
(``from .mod import name``), read as ``mod.name`` where ``mod`` is the
package module imported by ``from . import mod``, or listed in
``diskflow.__all__``: code with no library caller gets deleted.  A
module's ``__getattr__`` (PEP 562) is read by the interpreter.
"""

import ast
import os
import subprocess
import sys
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
    read = _loads(tree) | _exported(tree)
    return [name for name in imported if name not in read]


def _loads(tree) -> set:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _exported(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


# module-level functions that the interpreter calls by name (PEP 562)
_MODULE_HOOKS = ("__getattr__", "__dir__")


def _unread_definitions(sources: dict) -> list:
    """``module.name`` of each top-level function or class in ``sources``
    (module name -> source text, the package being ``__init__``) that
    no module reads and ``__all__`` of ``__init__`` does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()  # (module, name)
    for module, tree in trees.items():
        read |= {(module, name) for name in _loads(tree)}
        modules = {}  # local name -> package module, from "from . import"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules |= {a.asname or a.name: a.name for a in node.names}
                else:
                    read |= {(node.module, a.name) for a in node.names}
        read |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    exported = _exported(trees["__init__"])
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (module, node.name) not in read
        and node.name not in exported
        and node.name not in _MODULE_HOOKS
    ]


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


def test_no_unread_definitions():
    # the scan itself: each way of reading a definition counts, and an
    # unread function or class is caught
    probe = {
        "__init__": (
            "from . import a\n"
            "from .a import imported\n"
            "__all__ = ['public']\n"
            "def public(): ...\n"
            "def __getattr__(name): ...\n"
        ),
        "a": (
            "def imported(): ...\n"
            "def local(): ...\n"
            "def by_attribute(): ...\n"
            "def dead(): ...\n"
            "class Dead: ...\n"
            "local()\n"
        ),
        "b": "from . import a as mod\nmod.by_attribute()\ndead()\n",
    }
    assert _unread_definitions(probe) == ["a.dead", "a.Dead"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread_definitions(sources) == []


def _run_fresh(probe: str) -> list:
    # the words that ``probe`` prints, run in a fresh interpreter
    src = os.path.dirname(str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_verification_is_imported_on_first_access():
    # import diskflow leaves the verify-paper suite out; reading
    # diskflow.verification imports it, and __all__ still lists it
    probe = (
        "import sys, diskflow\n"
        "print('diskflow.verification' in sys.modules)\n"
        "suite = diskflow.verification\n"
        "print('diskflow.verification' in sys.modules, suite is sys.modules['diskflow.verification'])\n"
        "print('verification' in diskflow.__all__)\n"
    )
    assert _run_fresh(probe) == ["False", "True", "True", "True"]


def test_import_leaves_the_command_line_out():
    # only the diskflow command needs argparse and the cli module, and
    # only a generator's first chart form the chart module
    probe = (
        "import sys, diskflow\n"
        "print('argparse' in sys.modules, 'diskflow.cli' in sys.modules,\n"
        "      'diskflow.chart' in sys.modules)\n"
    )
    assert _run_fresh(probe) == ["False", "False", "False"]


def test_command_line_leaves_verification_out():
    # the cli module imports the verify-paper suite only where that verb
    # runs
    probe = (
        "import sys, diskflow.cli\n"
        "print('diskflow.verification' in sys.modules)\n"
    )
    assert _run_fresh(probe) == ["False"]
