"""The benchmark harness in perfbench/ calls the library by name; these
tests read its sources and check that every name it uses is still bound,
that bfid_report still takes the expression it passes, and that its
tracer still counts every evaluation of f."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import diskflow
from diskflow import catalog
from diskflow.abel import abel_h, invert_h, linearize
from diskflow.conjugate import bfid_report
from diskflow.expr import compile_expr, parse
from diskflow.flow import integrate

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


def _tracer_class():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _evals_per_call(model, f, evals):
    # f-evaluations of each call, read from ``evals()`` before and after;
    # ``f()`` is the f that a call of abel_h or integrate receives
    calls = [
        lambda: abel_h(f(), 0.5 + 0.3j),
        lambda: abel_h(f(), 1.0 - 2.0**-20),
        lambda: invert_h(model, 3.0 - 2.0j),
        lambda: invert_h(model, -0.3 + 0.1j),
        lambda: integrate(f(), 0.2j, 10.0),
        lambda: integrate(f(), 0.2j, -3.0),
    ]
    counts = []
    for call in calls:
        before = evals()
        call()
        counts.append(evals() - before)
    return counts


def test_tracer_counts_every_kernel_evaluation():
    # kernels compiled with f inlined must never slip past the counter:
    # under the tracer, the models and callables built from an
    # expression evaluate f through its counting compile_expr.  That
    # returns a new counting callable on each call, which carries the
    # expression's source but no chart form, so the log-gap panels
    # evaluate it at the rounded points z = 1 - d, and what a callable
    # keeps (its anchors of h) is kept per call: the reference counts through
    # callables made the same way
    text = catalog.get("bfid-par").f_text
    f = parse(text)
    fn = compile_expr(f)
    evals = [0]

    def counting():
        def counted(z):
            evals[0] += 1
            return fn(z)
        return counted

    model = dataclasses.replace(linearize(f), f=counting())
    expected = _evals_per_call(model, counting, lambda: evals[0])
    with _tracer_class()() as trace:
        f = parse(text)
        traced = _evals_per_call(linearize(f), lambda: f, lambda: trace.f_evals)
    assert traced == expected
    assert all(count > 0 for count in expected)
