"""The inner loops compiled with f inlined against the same templates run
on an opaque callable, and against the plain loops written out below.

Every comparison is exact: floats by their bit patterns (so signed zeros
count), exceptions by type and message.  The reference loops are the
panel and integrand closures the kernels replaced; a kernel that adds in
another order, or checks f differently, fails here.
"""

import cmath
import dataclasses
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskflow import catalog, expr  # noqa: E402
from diskflow.abel import (  # noqa: E402
    _CHORD_PANELS,
    _CHORD_RULES,
    _GAP_PANEL,
    _GL_NODES,
    _GL_RULE,
    _GL_WEIGHTS,
    LinearizationModel,
    _chord_panels,
    abel_h,
    invert_h,
    linearize,
)
from diskflow.expr import compile_expr, kernel, parse  # noqa: E402
from diskflow.flow import integrate  # noqa: E402

IDS = list(catalog.DEFAULT_IDS)
# overflow of exp(800 z), and NaN from 0 * inf, for Re z > 0.89
SINGULAR = ("-(1-z)^2*exp(800*z)", "-(1-z)^2 + 0*(exp(400*z)*exp(400*z))")


def _bits(x):
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if hasattr(x, "samples"):  # a Trajectory
        return _bits(x.samples), x.termination
    return x


def _outcome(call, *args):
    try:
        return "value", _bits(call(*args))
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc).__name__, str(exc)


def _opaque(fn):
    # the same f, as a callable the kernels cannot inline
    return lambda z: fn(z)


def _reference_panel(dh, t0, t1):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    rough = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        v, node, gap = dh(mid + half * x)
        acc += w * v
        rough += w * abs(v) * (1.0 + (abs(node) / gap if gap > 0 else 1e16))
    return acc * half, rough * abs(half) * 2.3e-16


def _reference_sum(dh, t0, t1, rule):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    for x, w in rule:
        acc += w * dh(mid + half * x)[0]
    return acc * half


def _integral(outcome):
    # the integral of a panel's outcome, or its exception
    return ("value", outcome[1][0]) if outcome[0] == "value" else outcome


def _gap_integrand(fn):
    def dh(t):
        gap = cmath.exp(t)
        w = 1.0 - gap
        return gap / fn(w), w, abs(1.0 - w)
    return dh


def _chord_integrand(fn, zetas):
    def dh(z):
        gap = abs(1.0 - z)
        for zeta in zetas:
            gap = min(gap, abs(z - zeta))
        return -1.0 / fn(z), z, gap
    return dh


COMPLEX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
LOG_GAP = st.builds(complex, st.floats(-40.0, 0.7), st.floats(-1.5, 1.5))


@pytest.mark.parametrize("entry_id", IDS + list(SINGULAR))
def test_panels_match_reference_loops(entry_id):
    text = catalog.get(entry_id).f_text if entry_id in IDS else entry_id
    fn = compile_expr(parse(text))
    opaque = _opaque(fn)
    zetas = (1j, -1.0 + 0j)
    gap, total = kernel(fn, _GAP_PANEL, GL_RULE=_GL_RULE)()
    gap_opaque, total_opaque = kernel(opaque, _GAP_PANEL, GL_RULE=_GL_RULE)()
    panel, chord_sum = kernel(fn, _CHORD_PANELS, GL_RULE=_GL_RULE)(zetas)
    panel_opaque, sum_opaque = kernel(opaque, _CHORD_PANELS, GL_RULE=_GL_RULE)(zetas)
    assert gap is not gap_opaque and panel is not panel_opaque
    chord = _chord_integrand(fn, zetas)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(LOG_GAP, LOG_GAP, COMPLEX, COMPLEX)
    def check(s0, s1, z0, z1):
        ref = _outcome(_reference_panel, _gap_integrand(fn), s0, s1)
        assert _outcome(gap, s0, s1) == _outcome(gap_opaque, s0, s1) == ref
        # the noise-free sums are their panel's integral, bit for bit
        whole = _integral(ref)
        assert _outcome(total, s0, s1) == _outcome(total_opaque, s0, s1) == whole
        ref = _outcome(_reference_panel, chord, z0, z1)
        assert _outcome(panel, z0, z1) == _outcome(panel_opaque, z0, z1) == ref
        whole = _integral(ref)
        assert (_outcome(chord_sum, z0, z1, _GL_RULE)
                == _outcome(sum_opaque, z0, z1, _GL_RULE) == whole)
        # each graded rule of the Newton chords, against its own loop
        for _, rule in _CHORD_RULES:
            ref = _outcome(_reference_sum, chord, z0, z1, rule)
            assert (_outcome(chord_sum, z0, z1, rule)
                    == _outcome(sum_opaque, z0, z1, rule) == ref)

    check()


@pytest.mark.parametrize("entry_id", IDS)
def test_inner_loops_match_opaque_f(entry_id):
    f = parse(catalog.get(entry_id).f_text)
    model = linearize(f)
    opaque = dataclasses.replace(model, f=_opaque(compile_expr(f)))

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(st.floats(0.0, 0.999), st.floats(-math.pi, math.pi),
           st.floats(0.5, 20.0), st.floats(-10.0, -0.5))
    def check(r, theta, t_forward, t_backward):
        z = r * complex(math.cos(theta), math.sin(theta))
        assert _outcome(abel_h, f, z) == _outcome(abel_h, opaque.f, z)
        w = 0.5 * z - 1.0 + 0.1j * theta
        assert _outcome(invert_h, model, w) == _outcome(invert_h, opaque, w)
        for t in (t_forward, t_backward):
            assert _outcome(integrate, f, z, t) == _outcome(integrate, opaque.f, z, t)

    check()


@pytest.mark.parametrize("text", SINGULAR)
def test_singular_f_raises_the_same_error(text):
    f = parse(text)
    opaque = _opaque(compile_expr(f))
    expected = ("overflow" if "800" in text else "NaN")
    outcome = _outcome(abel_h, f, 0.95)
    assert outcome == _outcome(abel_h, opaque, 0.95)
    assert outcome[0] == "SingularEvaluationError"
    assert ("singular evaluation at z = " if expected == "overflow"
            else "evaluation produced NaN at z = ") in outcome[1]
    model = LinearizationModel(f=f, alpha=1.0, mu=1.0 + 0j, mu_class="Sigma0")
    model_opaque = dataclasses.replace(model, f=opaque)
    outcome = _outcome(invert_h, model, 40.0 + 0j)
    assert outcome == _outcome(invert_h, model_opaque, 40.0 + 0j)
    assert outcome[0] == "InversionFailureError"
    assert _outcome(integrate, f, 0.5, 20.0) == _outcome(integrate, opaque, 0.5, 20.0)


def test_opaque_exceptions_pass_through():
    fn = compile_expr(parse("-(1-z)^2"))
    calls = []

    def flaky(z):
        calls.append(z)
        if len(calls) > 20:
            raise KeyError("a bug, not a singular evaluation")
        return fn(z)

    with pytest.raises(KeyError):
        abel_h(flaky, 0.5)


def test_kernels_built_lazily_once(monkeypatch):
    f = parse(catalog.get("bfid-par").f_text)
    fn = compile_expr(f)
    model = linearize(f)
    assert fn.kernels == {}  # linearize compiles no kernel
    invert_h(model, model.h(0.5 + 0.3j))
    built, chords = dict(fn.kernels), model.chords
    assert set(built) == {_GAP_PANEL, _CHORD_PANELS}
    compiled = []
    monkeypatch.setattr(expr, "_compile", lambda source: compiled.append(source))
    invert_h(model, model.h(-0.2 + 0.6j))
    assert compiled == []
    assert model.chords is chords
    assert fn.kernels.keys() == built.keys()
    assert all(fn.kernels[key] is built[key] for key in built)
    assert _chord_panels(model) is chords


def test_kernel_too_deep_to_inline_calls_f(monkeypatch):
    # with a raised recursion limit, an expression can compile on its own
    # and still be nested too deeply for a kernel's extra levels
    fn = compile_expr(parse("-(1-z)^2*(1+z)"))

    def too_deep(source):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(expr, "_compile", too_deep)
    gap_panels = kernel(fn, _GAP_PANEL, GL_RULE=_GL_RULE)
    assert fn.kernels[_GAP_PANEL] is gap_panels
    gap, _ = gap_panels()
    ref = _outcome(_reference_panel, _gap_integrand(fn), 0j, -1.0 + 0.2j)
    assert _outcome(gap, 0j, -1.0 + 0.2j) == ref
