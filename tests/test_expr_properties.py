"""Properties of the expression compiler and printer on random trees.

Each random tree is printed, the printed text is evaluated by mpmath at
30 digits, and the result is compared with ``compile_expr`` at a random
point of the disk.  The mpmath evaluation also carries a first-order
bound on the rounding error that a double-precision evaluation of the
same text accumulates, so cancellation inside a tree widens the
tolerance instead of failing the check.  Trees that take a principal
branch within that error of its cut, or that are singular or
ill-conditioned at the point, are skipped.
"""

import ast
import math
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import mp_function  # noqa: E402

from diskflow import catalog  # noqa: E402
from diskflow.errors import SingularEvaluationError  # noqa: E402
from diskflow.expr import (  # noqa: E402
    Add,
    Const,
    Div,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    chart_form,
    compile_expr,
    gap_form,
    parse,
)

EPS = 2.0**-52
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


class _Skip(Exception):
    """The point is on a branch cut, singular or ill-conditioned."""


class Ball:
    """An mpmath value with a bound on the double-precision rounding error."""

    def __init__(self, value, err=0):
        self.value = mpmath.mpc(value)
        self.err = mpmath.mpf(err)

    def _mag(self):
        return abs(self.value)

    def _well_conditioned(self):
        # nonlinear operations need an argument known to a small
        # relative error for the first-order bounds to hold
        if self._mag() == 0 or self.err > 1e-6 * self._mag():
            raise _Skip

    def _off_cut(self):
        v = self.value
        if v.real < 0 and abs(v.imag) <= self.err + 1e-20 * abs(v):
            raise _Skip

    def __neg__(self):
        return Ball(-self.value, self.err)

    def __add__(self, other):
        v = self.value + other.value
        return Ball(v, self.err + other.err + EPS * abs(v))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        v = self.value * other.value
        err = self._mag() * other.err + other._mag() * self.err + self.err * other.err
        return Ball(v, err + 4 * EPS * abs(v))

    def __truediv__(self, other):
        other._well_conditioned()
        v = self.value / other.value
        err = (self.err + abs(v) * other.err) / (other._mag() - other.err)
        return Ball(v, err + 8 * EPS * abs(v))

    def __pow__(self, other):
        e = other.value
        if other.err == 0 and e.imag == 0 and e.real == int(e.real) and abs(e.real) <= 64:
            n = int(e.real)
            if n == 0:
                return Ball(1)
            self._well_conditioned()
            v = self.value**n
            rel = abs(n) * self.err / self._mag() + 8 * abs(n) * EPS
            return Ball(v, 2 * rel * abs(v))
        return exp(other * log(self))


def sqrt(a):
    a._well_conditioned()
    a._off_cut()
    v = mpmath.sqrt(a.value)
    return Ball(v, a.err / abs(v) + 4 * EPS * abs(v))


def exp(a):
    v = mpmath.exp(a.value)
    return Ball(v, abs(v) * (mpmath.expm1(a.err) + 4 * EPS))


def log(a):
    a._well_conditioned()
    a._off_cut()
    v = mpmath.log(a.value)
    return Ball(v, 2 * a.err / a._mag() + 4 * EPS * max(abs(v), 1))


def mp_eval(text: str, z: complex) -> Ball:
    """Evaluate printed expression text with mpmath, via Python's own
    operator precedence (``^`` becomes ``**``)."""
    source = _NUMBER.sub(lambda m: f"_n({m.group()!r})", text).replace("^", "**")
    namespace = {
        "_n": lambda s: Ball(mpmath.mpf(float(s))),
        "z": Ball(z),
        "i": Ball(1j),
        "sqrt": sqrt,
        "exp": exp,
        "log": log,
        "__builtins__": {},
    }
    return eval(source, namespace)  # noqa: S307 - text printed by the library


# constants the parser itself produces: nonnegative reals and i
_CONSTS = [Const(complex(v, 0.0)) for v in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)] + [Const(1j)]


@st.composite
def trees(draw, depth=4):
    """Random trees of up to ``depth`` levels over every node type."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(st.just(Var()), st.sampled_from(_CONSTS)))
    kind = draw(st.sampled_from(["neg", "binary", "pow", "func"]))
    if kind == "neg":
        return Neg(draw(trees(depth - 1)))
    if kind == "binary":
        op = draw(st.sampled_from([Add, Sub, Mul, Div]))
        return op(draw(trees(depth - 1)), draw(trees(depth - 1)))
    if kind == "pow":
        exponent = st.one_of(trees(depth - 1),
                             st.integers(0, 5).map(lambda n: Const(complex(n, 0.0))))
        return Pow(draw(trees(depth - 1)), draw(exponent))
    name = draw(st.sampled_from(["sqrt", "exp", "log"]))
    return Func(name, draw(trees(depth - 1)))


TREES = trees()
POINTS = st.builds(
    lambda r, theta: complex(r * math.cos(theta), r * math.sin(theta)),
    st.floats(0.0, 0.95),
    st.floats(-math.pi, math.pi),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TREES, POINTS)
def test_compile_matches_mpmath(node, z):
    try:
        got = compile_expr(node)(z)
    except SingularEvaluationError:
        assume(False)
    with mpmath.workdps(30):
        try:
            ref = mp_eval(str(node), z)
        except (_Skip, ZeroDivisionError):
            assume(False)
        tol = 4 * ref.err + mpmath.mpf(10) ** -25 * (1 + abs(ref.value))
        assert abs(mpmath.mpc(got) - ref.value) <= tol, (str(node), z, got, ref.value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TREES)
def test_print_parse_round_trip(node):
    again = parse(str(node))
    assert again == node
    # the generated code keeps every grouping of the tree, so equal
    # sources mean equal trees, not just equal printouts
    assert compile_expr(again).source == compile_expr(node).source


# the catalog generators, and two expressions that overflow or give NaN
# next to 1 (Re z > 0.89), whose gap form must raise where they do
GAP_TEXTS = [catalog.get(i).f_text for i in catalog.DEFAULT_IDS] + [
    "-(1-z)^2*exp(800*z)", "-(1-z)^2 + 0*(exp(400*z)*exp(400*z))"]


@pytest.mark.parametrize("text", GAP_TEXTS)
def test_gap_form_matches_mpmath(text):
    # f written in the gap d = 1 - z, at small complex d with 1 - d in
    # the disk, against mpmath's f(1 - d) at 30 digits on the exact d:
    # within a few ulps, plus the ulps that exp(p log d) takes from the
    # rounding of p log d in a power d^p (about |p log d| of them).  The
    # z form at the rounded point 1 - d is up to eps/|d| off instead
    fn = compile_expr(parse(text))
    gap, f_mp = gap_form(fn), mp_function(mpmath, text)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 40.0), st.floats(-0.5 * math.pi, 0.5 * math.pi))
    def check(k, phi):
        d = 2.0**-k * complex(math.cos(phi), math.sin(phi))
        assume(abs(1.0 - d) < 1.0)
        try:
            fn(1.0 - d)
        except SingularEvaluationError:
            with pytest.raises(SingularEvaluationError):
                gap(d)
            return
        if text not in GAP_TEXTS[: len(catalog.DEFAULT_IDS)]:
            return
        with mpmath.workdps(30):
            ref = f_mp(1 - mpmath.mpc(d))
            err = abs(mpmath.mpc(gap(d)) - ref) / abs(ref)
        assert err <= EPS * (8 + 4 * abs(math.log(abs(d)))), (d, float(err / EPS))

    check()


def chart_points(low):
    """Points of the right half-plane Re w > 0, the disk in the chart
    w = (1 + z)/(1 - z), with |w| from 10^low up to 1e12."""
    return st.builds(lambda k, phi: 10.0**k * complex(math.cos(phi), math.sin(phi)),
                     st.floats(low, 12.0), st.floats(-0.499 * math.pi, 0.499 * math.pi))


def _slope_mp(f_mp, w):
    # mpmath's 2p(w) = -2 f(z)/(1 - z)^2 at the exact z = (w - 1)/(w + 1)
    w = mpmath.mpc(w)
    z = (w - 1) / (w + 1)
    return -2 * f_mp(z) / (1 - z) ** 2


@pytest.mark.parametrize("text", GAP_TEXTS)
def test_chart_form_matches_mpmath(text):
    # f compiled in the chart, at w with Re w > 0, against mpmath's
    # -2 f(z)/(1 - z)^2 at 30 digits on the exact z of w: within 8 ulps,
    # plus the ulps that exp(a log(w + 1)) takes from the rounding of
    # a log(w + 1) in a power of w + 1 (about |a log|w + 1|| of them);
    # and singular exactly where the scalar callable is at the rounded z.
    # |w| >= 1 is the half Re z >= 0 of the disk (angular-only's
    # 1 - exp(-w) cancels towards w = 0 in any form)
    fn = compile_expr(parse(text))
    chart, f_mp = chart_form(fn), mp_function(mpmath, text)
    assert chart is not None

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(chart_points(0.0))
    def check(w):
        try:
            fn((w - 1) / (w + 1))
        except SingularEvaluationError:
            with pytest.raises(SingularEvaluationError):
                chart(w)
            return
        got = chart(w)
        if text not in GAP_TEXTS[: len(catalog.DEFAULT_IDS)]:
            return
        with mpmath.workdps(30):
            ref = _slope_mp(f_mp, w)
            err = abs(mpmath.mpc(got) - ref) / abs(ref)
        assert err <= EPS * (8 + 4 * abs(math.log(abs(w + 1)))), (w, float(err / EPS))

    check()


def test_chart_form_cancels_the_square():
    # parabolic-auto(b) is w' = -2ib, a constant; hyperbolic-auto(a, b) is
    # w' = 2aw - 2ib, each coefficient rounded once
    fn = compile_expr(parse(catalog.get("parabolic-auto(0.7311)").f_text))
    chart = chart_form(fn)
    assert "w" not in {node.id for node in ast.walk(ast.parse(chart.source))
                       if isinstance(node, ast.Name)}
    assert chart(3.0 + 1e9j) == complex(0.0, -2 * 0.7311)
    fn = compile_expr(parse(catalog.get("hyperbolic-auto(0.6,-0.4)").f_text))
    tree = ast.parse(chart_form(fn).source, mode="eval").body
    assert isinstance(tree, ast.BinOp) and isinstance(tree.op, ast.Add)
    product, constant = tree.left, tree.right
    assert isinstance(product.op, ast.Mult) and product.right.id == "w"
    assert ast.literal_eval(product.left) == 2 * 0.6
    assert ast.literal_eval(constant) == complex(0.0, 2 * 0.4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TREES, chart_points(-3.0))
def test_chart_form_of_trees_matches_mpmath(node, w):
    # against mpmath's -2 f(z)/(1 - z)^2 at the exact z of w, within the
    # rounding that the evaluation of the tree in z accumulates there
    # (the first-order bound of mp_eval) and 64 ulps; singular where the
    # scalar callable is at the rounded z.  A tree whose constants do not
    # fold in the chart has no chart form
    fn = compile_expr(node)
    chart = chart_form(fn)
    if chart is None:
        return
    try:
        fn((w - 1) / (w + 1))
    except SingularEvaluationError:
        with pytest.raises(SingularEvaluationError):
            chart(w)
        return
    got = chart(w)
    with mpmath.workdps(30):
        z = (mpmath.mpc(w) - 1) / (mpmath.mpc(w) + 1)
        try:
            ref = mp_eval(str(node), z)
        except (_Skip, ZeroDivisionError):
            assume(False)
        scale = 2 / abs(1 - z) ** 2
        value = -2 * ref.value / (1 - z) ** 2
        tol = 4 * ref.err * scale + 64 * EPS * abs(value) + mpmath.mpf(10) ** -25
        assert abs(mpmath.mpc(got) - value) <= tol, (str(node), w, got, value)
