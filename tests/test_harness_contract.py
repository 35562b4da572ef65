"""The benchmark harness in perfbench/ calls the library by name; these
tests read its sources and check that every name it uses is still bound
and that bfid_report still takes the expression it passes."""

import ast
import importlib
from pathlib import Path

import diskflow
from diskflow.conjugate import bfid_report
from diskflow.expr import parse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned_literal(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path.name}")


def test_traced_layers_are_bound():
    # `--trace 1` fetches each traced function from its module by name
    layers = _assigned_literal(PERFBENCH / "tracer.py", "LAYERS")
    missing = [
        f"{short}.{name}"
        for short, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"diskflow.{short}"), name, None))
    ]
    assert missing == []


def test_workload_calls_are_bound():
    # the workloads call the package as `df.<name>`
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "df"
    }
    assert "bfid_report" in names
    assert [n for n in sorted(names) if not hasattr(diskflow, n)] == []


def test_bfid_report_accepts_an_expression():
    # the bfid workload passes the parsed generator, not a model
    certs = bfid_report(parse("i*(1-z)^2"))
    assert [c.bfid_type for c in certs] == ["p-type"]
