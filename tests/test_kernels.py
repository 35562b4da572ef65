"""The inner loops compiled with f inlined against the same templates run
on an opaque callable, and against the plain loops written out below.

Every comparison is exact: floats by their bit patterns (so signed zeros
count), exceptions by type and message.  The reference loops are the
panel and integrand closures the kernels replaced; a kernel that adds in
another order, or checks f differently, fails here.
"""

import ast
import cmath
import dataclasses
import inspect
import math
import re
import textwrap

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskflow import abel, catalog, expr  # noqa: E402
from diskflow.abel import (  # noqa: E402
    _STEP_RULES,
    _GAP_INTEGRAND,
    _GL_BARYCENTRIC,
    _GL_NODES,
    _GL_RULE,
    _GL_TAIL,
    _GL_WEIGHTS,
    LinearizationModel,
    abel_h,
    invert_h,
    linearize,
)
from diskflow.classify import classify  # noqa: E402
from diskflow.errors import SingularEvaluationError  # noqa: E402
from diskflow.expr import (  # noqa: E402
    Add,
    Const,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    compile_expr,
    kernel,
    parse,
)
from diskflow.flow import _DP_STEP, integrate  # noqa: E402

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
    # the same f, and its gap and chart forms, as callables the kernels
    # cannot inline
    gap, chart = expr.gap_form(fn), expr.chart_form(fn)
    opaque = lambda z: fn(z)  # noqa: E731
    opaque.gap = lambda d: gap(d)
    opaque.chart = lambda w: chart(w)
    return opaque


def _rounded(fn):
    # the same f with no gap form: the log-gap panels evaluate it at the
    # rounded point z = 1 - d
    return lambda z: fn(z)


def _reference_panel(dh, t0, t1):
    # dh(t) is the integrand and the factor of its noise estimate
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    rough = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        v, scale = dh(mid + half * x)
        acc += w * v
        rough += w * abs(v) * scale
    return acc * half, rough * abs(half) * 2.3e-16


def _reference_sum(dh, t0, t1, rule):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    for x, w in rule:
        acc += w * dh(mid + half * x)[0]
    return acc * half


def _reference_root(dh, t0, t1):
    # the 16-node integral and the Legendre coefficients c10, c11, c14
    # and c15 of its values
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    c10 = c11 = c14 = c15 = 0j
    for x, w, (p10, p11, p14, p15) in zip(_GL_NODES, _GL_WEIGHTS, _GL_TAIL):
        v = dh(mid + half * x)[0]
        acc += w * v
        c10 += p10 * v
        c11 += p11 * v
        c14 += p14 * v
        c15 += p15 * v
    return acc * half, (c10, c11, c14, c15)


def _reference_probe(dh, t0, t1, xp):
    # the root, the integrand at xp and the barycentric interpolant of the
    # root's values there, sum b_j v_j / (xp - x_j) / sum b_j / (xp - x_j)
    near, weights = 0j, 0.0
    for x, b in zip(_GL_NODES, _GL_BARYCENTRIC):
        b = b / (xp - x)
        near += dh(0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x)[0] * b
        weights += b
    value = dh(0.5 * (t0 + t1) + 0.5 * (t1 - t0) * xp)[0]
    return (*_reference_root(dh, t0, t1), value, near / weights)


def _root(integrand):
    # the root of an adaptive segment from an integrand kernel: its
    # integral and the Legendre coefficients of its values
    def root(t0, t1):
        whole, values = integrand(t0, t1, _GL_RULE)
        return whole, abel._legendre_tail(values)
    return root


def _probed(integrand):
    # the root, with the integrand at xp and the interpolant there
    def probed(t0, t1, xp):
        whole, values = integrand(t0, t1, _GL_RULE)
        return (whole, abel._legendre_tail(values),
                *abel._probe(integrand, t0, t1, values, xp))
    return probed


def _panel(path):
    return lambda t0, t1: abel._panel(path, t0, t1)


def _sum(integrand):
    return lambda t0, t1, rule: integrand(t0, t1, rule)[0]


def _integral(outcome):
    # the integral of a panel's outcome, or its exception
    return ("value", outcome[1][0]) if outcome[0] == "value" else outcome


def _noise_scale(z, gap):
    # the relative noise of f at a rounded point z, gap from the nearest
    # singular point
    return 1.0 + (abs(z) / gap if gap > 0 else 1e16)


def _nearest(z, zetas):
    # the distance from z to the nearest of zetas, inf for none
    return min((abs(z - zeta) for zeta in zetas), default=math.inf)


def _gap_integrand(gap_fn, zetas=()):
    # d / f(1 - d) with f written in the gap: exact next to 1, and noisy
    # by the rounded node next to the singular points ``zetas``
    def dh(t):
        d = cmath.exp(t)
        w = 1.0 - d
        return d / gap_fn(d), _noise_scale(w, _nearest(w, zetas))
    return dh


def _rounded_gap_integrand(fn, zetas=()):
    # f at the rounded point, noisy next to 1 and to ``zetas``
    def dh(t):
        d = cmath.exp(t)
        w = 1.0 - d
        return d / fn(w), _noise_scale(w, _nearest(w, (*zetas, 1.0)))
    return dh


LOG_GAP = st.builds(complex, st.floats(-40.0, 0.7), st.floats(-1.5, 1.5))


@pytest.mark.parametrize("entry_id", IDS + list(SINGULAR))
def test_panels_match_reference_loops(entry_id):
    # the integrand kernel, and the panel, root and probe sums over its
    # values, on the paths the package builds: the log-gap path of f, of
    # an opaque f with a gap form and of one with none (_log_gap), and
    # the same kernels with the noise scales of null points besides 1,
    # as the Newton steps of a model take them (LinearizationModel.newton_path)
    text = catalog.get(entry_id).f_text if entry_id in IDS else entry_id
    fn = compile_expr(parse(text))
    opaque, rounded = _opaque(fn), _rounded(fn)
    zetas = (1j, -1.0 + 0j)
    gap_path, gap_opaque_path, rounded_path = (abel._log_gap(g)[0] for g in (fn, opaque, rounded))
    assert [scales is None for _, scales in (gap_path, gap_opaque_path, rounded_path)] == [
        True, True, False]
    assert gap_path[0] is not gap_opaque_path[0]
    gap, gap_opaque, gap_rounded = gap_path[0], gap_opaque_path[0], rounded_path[0]
    null_path = (gap, abel._rounding_scales(zetas))
    null_opaque_path = (gap_opaque, null_path[1])
    null_rounded_path = (gap_rounded, abel._rounding_scales((*zetas, 1+0j)))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(LOG_GAP, LOG_GAP, st.floats(0.995, 0.9999))
    def check(s0, s1, xp):
        dh = _gap_integrand(expr.gap_form(fn))
        ref = _outcome(_reference_panel, dh, s0, s1)
        assert _outcome(_panel(gap_path), s0, s1) == _outcome(_panel(gap_opaque_path), s0, s1) == ref
        # the roots are their panel's integral, bit for bit, and the
        # Legendre coefficients of their own values
        whole = _integral(ref)
        ref = _outcome(_reference_root, dh, s0, s1)
        assert _outcome(_root(gap), s0, s1) == _outcome(_root(gap_opaque), s0, s1) == ref
        assert _integral(ref) == whole
        # the probed root is the root, with the integrand at xp and the
        # interpolant of the root's values there
        ref = _outcome(_reference_probe, dh, s0, s1, xp)
        assert (_outcome(_probed(gap), s0, s1, xp)
                == _outcome(_probed(gap_opaque), s0, s1, xp) == ref)
        assert ref[0] != "value" or ref[1][:2] == _outcome(_root(gap), s0, s1)[1]
        # each graded rule of the Newton steps, against its own loop
        for _, rule in _STEP_RULES:
            ref = _outcome(_reference_sum, dh, s0, s1, rule)
            assert (_outcome(_sum(gap), s0, s1, rule)
                    == _outcome(_sum(gap_opaque), s0, s1, rule) == ref)
        # a callable with no gap form: f at the rounded point, and the
        # noise of its rounding
        dh = _rounded_gap_integrand(fn)
        ref = _outcome(_reference_panel, dh, s0, s1)
        assert _outcome(_panel(rounded_path), s0, s1) == ref
        whole = _integral(ref)
        ref = _outcome(_reference_root, dh, s0, s1)
        assert _outcome(_root(gap_rounded), s0, s1) == ref
        assert _integral(ref) == whole
        ref = _outcome(_reference_probe, dh, s0, s1, xp)
        assert _outcome(_probed(gap_rounded), s0, s1, xp) == ref
        # the noise of rounded nodes next to the null points besides 1,
        # and next to 1 too for a callable with no gap form
        ref = _outcome(_reference_panel, _gap_integrand(expr.gap_form(fn), zetas), s0, s1)
        assert (_outcome(_panel(null_path), s0, s1)
                == _outcome(_panel(null_opaque_path), s0, s1) == ref)
        ref = _outcome(_reference_panel, _rounded_gap_integrand(fn, zetas), s0, s1)
        assert _outcome(_panel(null_rounded_path), s0, s1) == ref

    check()


def test_each_path_geometry_evaluates_f_on_one_line():
    # one integrand template, for the one path geometry, with one line
    # that evaluates f, so a kernel inlines f's code once; the sums over
    # its values are plain Python
    templates = {name: value for name, value in vars(abel).items()
                 if isinstance(value, str) and "def " in value}
    assert set(templates) == {"_GAP_INTEGRAND"}
    for template in templates.values():
        calls = [line for line in template.splitlines() if line.strip() in expr._CALLS]
        assert len(calls) == 1, template


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


def _run(f, z0, t):
    # integrate's samples and termination, or its exception with the
    # partial trajectory it carries
    try:
        return "value", _bits(integrate(f, z0, t))
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc).__name__, str(exc), _bits(getattr(exc, "trajectory", None))


@pytest.mark.parametrize("text", [catalog.get(cid).f_text
                                  for cid in ("quadrant", "bfid-par", "power(0,i)")]
                         + list(SINGULAR))
def test_dop853_switch_keeps_the_bits(text):
    # a callable that switches to the inlined attempt in the middle of a
    # run, one that had switched before it, and an opaque one agree; the
    # fresh one is reported three attempts short of the threshold.  The
    # attempt evaluates f in the chart, so it is counted and kept on the
    # chart form
    for z0, t in ((0.0, 20.0), (0.0, -5.0)):
        fresh = compile_expr(parse(text))
        expr.kernel_by_use(fresh, _DP_STEP, expr.INLINE_AFTER - 3)
        switched = compile_expr(parse(text))
        kernel(switched, _DP_STEP)
        assert _DP_STEP not in expr.chart_form(fresh).kernels
        outcome = _run(fresh, z0, t)
        assert _DP_STEP in expr.chart_form(fresh).kernels  # the run crossed the threshold
        assert outcome == _run(switched, z0, t) == _run(_opaque(fresh), z0, t)


def test_dop853_compiled_once_repaid(monkeypatch):
    # classify's ODE leg stays on the template; a run past the threshold
    # compiles the inlined attempt once, and later runs reuse it
    compiled = []
    compile_source = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda source: compiled.append(source) or compile_source(source))
    f = parse(catalog.get("quadrant").f_text)
    classify(f)
    steps = sum("def dop853_step" in source for source in compiled)
    chart = expr.chart_form(compile_expr(f))
    assert steps == 0 and chart.uses[_DP_STEP] < expr.INLINE_AFTER
    for _ in range(2):
        integrate(f, -0.5 + 0.1j, 1000.0)
    steps = sum("def dop853_step" in source for source in compiled)
    assert steps == 1 and _DP_STEP in chart.kernels


@pytest.mark.parametrize("entry_id", ["quadrant", "bfid-hyp"])
def test_classify_and_validate_compile_only_f(monkeypatch, entry_id):
    # p = -f/(1 - z)^2, beta's f/(z - 1) and the Taylor quotients of
    # f/(1 - z)^2 are formed from f's own callable, not compiled anew
    built = []
    build = expr._callable
    monkeypatch.setattr(expr, "_callable",
                        lambda node, gap: built.append(node) or build(node, gap))
    f = parse(catalog.get(entry_id).f_text)
    expr.validate_generator(f)
    classify(f)
    assert built and all(node is f for node in built)


def test_opaque_exceptions_pass_through():
    fn = compile_expr(parse("-(1-z)^2"))
    calls = []

    def flaky(z):
        calls.append(z)
        if len(calls) > 10:
            raise KeyError("a bug, not a singular evaluation")
        return fn(z)

    with pytest.raises(KeyError):
        abel_h(flaky, 0.5)


def test_kernels_built_lazily_once(monkeypatch):
    f = parse(catalog.get("bfid-par").f_text)
    fn = compile_expr(f)
    model = linearize(f)
    # linearize compiles no kernel and writes no gap form
    assert fn.kernels == {} and not hasattr(fn, "gap")
    parts = ("newton_path", "null_points", "asymptote")
    assert not any(part in vars(model) for part in parts)
    invert_h(model, model.h(0.5 + 0.3j))
    assert all(part in vars(model) for part in parts)
    gap = fn.gap
    built, built_gap, path = dict(fn.kernels), dict(gap.kernels), model.newton_path
    # the Newton steps take the kernel of the log-gap segments
    assert built == {} and set(built_gap) == {_GAP_INTEGRAND}
    assert path[0] is built_gap[_GAP_INTEGRAND] is fn.log_gap[0][0]
    compiled = []
    monkeypatch.setattr(expr, "_compile", lambda source: compiled.append(source))
    invert_h(model, model.h(-0.2 + 0.6j))
    assert compiled == []
    assert model.newton_path is path and fn.gap is gap
    for callable_, kernels in ((fn, built), (gap, built_gap)):
        assert callable_.kernels.keys() == kernels.keys()
        assert all(callable_.kernels[key] is kernels[key] for key in kernels)


def test_kernel_too_deep_to_inline_calls_f(monkeypatch):
    # with a raised recursion limit, an expression can compile on its own
    # and still be nested too deeply for a kernel's extra levels
    fn = compile_expr(parse("-(1-z)^2*(1+z)"))
    gap_fn = expr.gap_form(fn)

    def too_deep(source):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(expr, "_compile", too_deep)
    path, _ = abel._log_gap(fn)
    assert gap_fn.kernels[_GAP_INTEGRAND] is path[0] and path[1] is None
    ref = _outcome(_reference_panel, _gap_integrand(gap_fn), 0j, -1.0 + 0.2j)
    assert _outcome(_panel(path), 0j, -1.0 + 0.2j) == ref
    ref = _outcome(_reference_probe, _gap_integrand(gap_fn), 0j, -1.0 + 0.2j, 0.999)
    assert _outcome(_probed(path[0]), 0j, -1.0 + 0.2j, 0.999) == ref
    # with the noise scales of the null point -1, which the segment
    # nears, as a model's Newton steps take it
    zetas = (-1.0 + 0j,)
    path = (path[0], abel._rounding_scales(zetas))
    dh = _gap_integrand(gap_fn, zetas)
    ref = _outcome(_reference_panel, dh, 0j, 0.6 + 0.1j)
    assert _outcome(_panel(path), 0j, 0.6 + 0.1j) == ref
    for _, rule in _STEP_RULES:
        ref = _outcome(_reference_sum, dh, 0j, 0.6 + 0.1j, rule)
        assert _outcome(_sum(path[0]), 0j, 0.6 + 0.1j, rule) == ref


def test_expression_too_deep_for_gap_code_is_evaluated_at_the_rounded_point(monkeypatch):
    # where the gap code does not compile, the expression has no gap form
    # and the log-gap panels evaluate f at z = 1 - d, as for any callable
    # that carries none
    fn = compile_expr(parse("-(1-z)^2*sqrt((1+z)/(1-z))"))
    compile_source = expr._compile

    def no_gap_code(source):
        if "def call_gap(" in source:
            raise RecursionError("maximum recursion depth exceeded")
        return compile_source(source)

    monkeypatch.setattr(expr, "_compile", no_gap_code)
    assert expr.gap_form(fn) is None and fn.gap is None
    path, _ = abel._log_gap(fn)
    assert path[1] is not None  # the noise scales of rounded points
    dh = _rounded_gap_integrand(fn)
    t0, t1 = 0j, -3.0 + 1.2j
    assert _outcome(_panel(path), t0, t1) == _outcome(_reference_panel, dh, t0, t1)
    assert _outcome(_root(path[0]), t0, t1) == _outcome(_reference_root, dh, t0, t1)
    assert _outcome(_probed(path[0]), t0, t1, 0.999) == _outcome(_reference_probe, dh, t0, t1, 0.999)


# --- plain complex arithmetic -------------------------------------------------

# f inlined by expr.kernel, with nothing around it
_VALUE = """
def value(z):
    v = f(z)
    return v
"""

POLYNOMIALS = st.recursive(
    st.one_of(
        st.just(Var()),
        st.builds(lambda a, b: Const(complex(a, b)),
                  st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -3.25]),
                  st.sampled_from([0.0, 1.0, -0.5, 0.75])),
    ),
    lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Neg, inner),
        st.builds(lambda b, n: Pow(b, Const(complex(n))), inner, st.sampled_from([2, 3, 4])),
    ),
    max_leaves=8,
)


def _power_reference(node, z):
    """The value of a polynomial tree with every power taken by ``**``."""
    if isinstance(node, Var):
        return z
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        return -_power_reference(node.arg, z)
    if isinstance(node, Pow):
        return _power_reference(node.base, z) ** int(node.exponent.value.real)
    left, right = _power_reference(node.left, z), _power_reference(node.right, z)
    return {Add: left + right, Sub: left - right, Mul: left * right}[type(node)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(POLYNOMIALS, st.sampled_from([2, 3, 4]), st.floats(0.0, 0.999),
       st.floats(-math.pi, math.pi))
def test_integer_powers_equal_pow(base, n, r, theta):
    # the products that stand for b**2, b**3 and b**4 equal ** in value,
    # in the scalar callable and in a kernel, however the powers nest
    z = r * complex(math.cos(theta), math.sin(theta))
    node = Pow(base, Const(complex(n)))
    fn = compile_expr(node)
    expected = _power_reference(node, z)
    assert fn(z) == expected
    assert kernel(fn, _VALUE)(z) == expected


@pytest.mark.parametrize("text, z", [
    ("((1-z)^-12)^2", complex(1.0 - 1e-14)),  # a base of 1e168
    ("(1-z)^2", complex(1e200)),
    ("z^3", complex(1e200)),
    ("(z+1)^4", complex(1e100)),
])
def test_integer_power_overflow_is_singular(text, z):
    # where ** overflows, the product would return inf; past the bound on
    # |b| the power is taken by ** and raises, as it always did
    fn = compile_expr(parse(text))
    for call in (fn, kernel(fn, _VALUE)):
        with pytest.raises(SingularEvaluationError, match="complex exponentiation"):
            call(z)


@pytest.mark.parametrize("n, bound", [(2, 2.0**511), (3, 2.0**340), (4, 2.0**255)])
def test_integer_power_bound(n, bound):
    # just below the bound the products run and cannot overflow; just
    # above it ** runs, and returns what ** returns
    fn = compile_expr(parse(f"(1-z)^{n}"))
    for scale in (0.75, 1.5):
        b = complex(bound * scale, bound * scale / 3)
        z = 1.0 - b
        assert 1.0 - z == b
        expected = b**n
        assert cmath.isfinite(expected)
        assert fn(z) == kernel(fn, _VALUE)(z) == expected


def _constant_value(node):
    # the value of a subexpression free of names, as Python folds it
    try:
        return eval(compile(ast.Expression(node), "<operand>", "eval"),  # noqa: S307
                    {"__builtins__": {}})
    except NameError:
        return None


def _complex_operand(node) -> bool:
    # a name that holds a complex value of f in the templates, or an
    # operation on one
    if isinstance(node, ast.BinOp):
        return _complex_operand(node.left) or _complex_operand(node.right)
    return isinstance(node, ast.Name) and re.fullmatch(r"v|d|gap|k\d+", node.id) is not None


# the sums over a panel's values that abel writes in plain Python
PYTHON_SUMS = (abel._panel, abel._legendre_tail, abel._probe, abel._rounding_scales)


@pytest.mark.parametrize(
    "template",
    [_DP_STEP, _GAP_INTEGRAND, expr._GRID_SCAN]
    + [textwrap.dedent(inspect.getsource(sums)) for sums in PYTHON_SUMS],
    ids=["dop853_step", "gap_integrand", "grid_scan"]
    + [sums.__name__ for sums in PYTHON_SUMS])
def test_no_float_left_of_a_complex_operand(template):
    # a float on the left of a complex operand first fails in the float
    # slot; constants are complex literals and the rule weights w and
    # nodes x stand on the right, in the kernels and in the sums over
    # their values alike
    for node in ast.walk(ast.parse(template)):
        if isinstance(node, ast.BinOp) and _complex_operand(node.right):
            value = _constant_value(node.left)
            assert value is None or type(value) is complex, ast.unparse(node)
            assert not (isinstance(node.left, ast.Name) and node.left.id in ("w", "x")), \
                ast.unparse(node)


def test_dop853_weights_are_complex_constants():
    (step,) = ast.parse(_DP_STEP).body
    assert ast.unparse(step.body[0]) == "h = complex(h)"
    weights = [node.left for node in ast.walk(step)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
               and isinstance(node.right, ast.Name) and re.fullmatch(r"k\d+", node.right.id)]
    assert len(weights) == 74  # 50 stage weights, 8 each of u8, e5 and e3
    assert all(type(_constant_value(w)) is complex for w in weights)
    # and none is left a float in the compiled step
    (code,) = [c for c in compile(_DP_STEP, "<step>", "exec").co_consts if hasattr(c, "co_consts")]
    assert not any(isinstance(c, float) for c in code.co_consts)
