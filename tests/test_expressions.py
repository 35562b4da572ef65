import cmath
import math

import pytest

from diskflow import expr
from diskflow.errors import ExpressionSyntaxError, SingularEvaluationError
from diskflow.expr import (
    GENERATOR_GRID,
    Const,
    Func,
    berkson_porta_p,
    boundary_limit,
    compile_expr,
    constant_value,
    evaluate,
    _pow,
    parse,
    validate_generator,
)

POINTS = [0.3 + 0.1j, -0.4 - 0.25j, 0.05j, 0.6]


def test_evaluate_basic():
    f = parse("i*(1-z)^2")
    assert evaluate(f, 0.5) == pytest.approx(0.25j)
    assert evaluate(parse("2+3*z"), 1j) == pytest.approx(2 + 3j)


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-z^2"), 2.0) == pytest.approx(-4.0)


def test_roundtrip_through_printer():
    for text in (
        "i*(1-z)^2",
        "-(1-z)^2*sqrt((1+z)/(1-z))",
        "0.5*(z^2-1) + i*0.25*(1-z)^2",
        "exp(-(1+z)/(1-z))",
        "log(1-z)/(2-z)",
    ):
        node = parse(text)
        again = parse(str(node))
        for z in POINTS:
            assert evaluate(again, z) == pytest.approx(evaluate(node, z))


def test_compile_matches_evaluate():
    # both against the closed form written in Python
    node = parse("(1-z)^2*(1+z)/(1+z^2)")
    fn = compile_expr(node)
    for z in POINTS:
        exact = (1 - z) ** 2 * (1 + z) / (1 + z**2)
        assert fn(z) == pytest.approx(exact)
        assert evaluate(node, z) == pytest.approx(exact)


def test_compile_once_per_node():
    node = parse("exp(z)/(2-z)")
    assert compile_expr(node) is compile_expr(node)


def test_long_chain_evaluates():
    # a left-deep sum compiles without nested parentheses
    chain = parse("+".join(["z"] * 250))
    assert evaluate(chain, 0) == 0
    assert evaluate(chain, 0.5) == pytest.approx(125)


def test_too_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExpressionSyntaxError):
        parse("sqrt(" * 250 + "z" + ")" * 250)
    node = parse("z")
    for _ in range(250):  # past Python's limit on nested parentheses
        node = Func("sqrt", node)
    with pytest.raises(ExpressionSyntaxError):
        evaluate(node, 0.25)


def test_constants_keep_their_exact_value():
    # a folded -1 carries the imaginary part -0.0, which selects the
    # lower side of the sqrt cut; a literal past the float range is an
    # infinite constant, not a crash
    minus_one = Const(-(1 + 0j))
    assert compile_expr(Func("sqrt", minus_one))(0j) == cmath.sqrt(minus_one.value)
    assert evaluate(parse("1e999"), 0j) == complex(math.inf, 0.0)
    assert compile_expr(parse("z-1e999"))(0.5) == complex(-math.inf, 0.0)
    assert str(parse("z-1e999")) == "z-inf"


@pytest.mark.parametrize("value, text", [
    (complex(math.inf, 0.0), "inf"),
    (complex(-math.inf, 0.0), "-inf"),
    (complex(math.nan, 0.0), "nan"),
    (complex(1.0, math.inf), "(1+inf*i)"),
])
def test_non_finite_constants_print(value, text):
    # printing, hashing and comparing never convert a non-finite part to int
    node = Const(value)
    assert str(node) == text
    assert hash(node) == hash(text)
    assert node == Const(value)


def test_singular_evaluation_raises():
    fn = compile_expr(parse("1/(1-z)"))
    with pytest.raises(SingularEvaluationError):
        fn(1.0 + 0j)
    with pytest.raises(SingularEvaluationError):
        evaluate(parse("z^1e999"), 0.5)


def _signed(v: complex):
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("exponent", [
    "2", "0", "-2", "0.5", "2.5", "-0.5", "(1/3)", "100", "-70", "i", "(1+i)", "-(3)",
])
def test_constant_power_at_zero_base(exponent):
    # a constant exponent is written out without _pow, and keeps its
    # verdicts at base 0: 0^c = 0 for real c > 0, ZeroDivisionError
    # (hence SingularEvaluationError) with _pow's message otherwise
    fn = compile_expr(parse(f"z^{exponent}"))
    assert "_pow(" not in fn.source
    c = evaluate(parse(exponent), 0j)
    for zero in (0j, complex(-0.0, -0.0)):
        try:
            expected = _pow(zero, c)
        except ZeroDivisionError as exc:
            with pytest.raises(SingularEvaluationError, match=str(exc)):
                fn(zero)
        else:
            assert _signed(fn(zero)) == _signed(expected)
        for z in POINTS:
            assert _signed(fn(z)) == _signed(_pow(complex(z), c))


def test_calls_free_of_z_are_made_at_compile_time():
    fn = compile_expr(parse("-(1-z)^2*exp(-0.78539816339744831*i)"))
    assert "exp" not in fn.source
    for z in POINTS:
        ref = -((1 + 0j) - z) ** 2 * cmath.exp(-(0.7853981633974483 + 0j) * 1j)
        assert _signed(fn(z)) == _signed(ref)
    # a call that fails, or whose value is not finite, stays in the code
    for text in ("z+log(0)", "z*exp(1000)", "z+0^-1"):
        fn = compile_expr(parse(text))
        with pytest.raises(SingularEvaluationError):
            fn(0.5)


def test_constant_value_matches_evaluate():
    # a finite value free of z is read without compiling a callable;
    # anything else goes through evaluate at 0, errors included
    for text in ("0.5", "-0.7378", "1.1462+0.7873*i", "exp(i)", "-0", "(-1)^0.5"):
        node = parse(text)
        assert _signed(constant_value(node)) == _signed(evaluate(parse(text), 0j))
        assert not hasattr(node, "_compiled")
    for text in ("1e999", "z"):
        assert _signed(constant_value(parse(text))) == _signed(evaluate(parse(text), 0j))
    for text in ("1/0", "log(0)", "0*1e999", "exp(1000)"):
        with pytest.raises(SingularEvaluationError):
            constant_value(parse(text))


def test_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("1+*z")
    assert info.value.position == 2


def test_syntax_error_at_end_of_input():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("2+")
    assert info.value.position == 1


@pytest.mark.parametrize("text, position", [("1.2.3", 3), ("z+1..2", 4), ("1..", 2)])
def test_second_dot_in_a_number_is_a_syntax_error(text, position):
    # a mantissa takes one '.'; the rest starts a token the parser rejects
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(text)
    assert info.value.position == position


def test_berkson_porta_quotient():
    # also a generator whose top node is a minus sign, and the zero one
    for text, value in (("i*(1-z)^2", -1j), ("-(1-z)^2", 1), ("0", 0)):
        p = berkson_porta_p(parse(text))
        for z in POINTS:
            assert evaluate(p, z) == pytest.approx(value)


def test_validate_generator_verdicts():
    assert validate_generator(parse("i*(1-z)^2"))["is_generator"]
    assert validate_generator(parse("-(1-z)^2"))["is_generator"]
    report = validate_generator(parse("(1-z)^2"))
    assert not report["is_generator"]
    assert report["min_re_p"] < 0


def test_boundary_limit_radial():
    est = boundary_limit(parse("(1+z)/2"), "radial")
    assert est.converged and not est.infinite
    assert est.value == pytest.approx(1.0)


def test_boundary_limit_infinite():
    est = boundary_limit(parse("1/(1-z)"), "radial")
    assert est.infinite


def test_boundary_limit_stolz_ray():
    # (1-z)^0.5 -> 0 along any ray inside the disk
    est = boundary_limit(parse("(1-z)^0.5"), "stolz-ray(0.7)", tol=1e-4)
    assert est.converged
    assert abs(est.value) < 1e-3
    with pytest.raises(ValueError):
        boundary_limit(parse("z"), "stolz-ray(1.6)")


def test_boundary_limit_unknown_approach():
    with pytest.raises(ValueError):
        boundary_limit(parse("z"), "spiral")


GRID_TEXTS = [
    "i*(1-z)^2",
    "(1-z)^2",
    "-(1-z)^2*sqrt((1+z)/(1-z))",
    # overflows at 4 grid points next to 1, which are skipped
    "-(1-z)^2*exp(1/(1-z)^4)",
]


@pytest.mark.parametrize("text", GRID_TEXTS + [
    "-(1-z)^2*exp(800*z)",
    # f overflows to infinite parts at 20 grid points, where it is not NaN
    # but p = -f/(1-z)^2 is: skipped, as p's callable skips them
    "-(1-z)^2*(1e308 + 1e308*z)",
    "0",
])
def test_validate_generator_reads_p_as_its_callable_does(text):
    # p is formed from f's values in the grid scan, with the bits and
    # the singular points of the scalar callable of berkson_porta_p
    f = parse(text)
    p = compile_expr(berkson_porta_p(f))
    values = []
    for z in expr._GENERATOR_POINTS:
        try:
            values.append((p(z).real, z))
        except SingularEvaluationError:
            pass
    min_re, witness = min(values, key=lambda pair: pair[0])
    report = validate_generator(f)
    assert report["min_re_p"].hex() == min_re.hex() and report["witness"] == witness
    assert report["skipped"] == GENERATOR_GRID**2 - len(values)


@pytest.mark.parametrize("text", GRID_TEXTS)
def test_validate_generator_same_under_an_opaque_callable(monkeypatch, text):
    # the grid scan is a kernel: a compiled p is inlined into it, and any
    # other callable, such as a counting wrapper, is called at each point
    compiled = validate_generator(parse(text))
    calls = []

    def counting_compile(node):
        call = compile_expr(node)

        def counted(z):
            calls.append(z)
            return call(z)

        return counted

    monkeypatch.setattr(expr, "compile_expr", counting_compile)
    assert validate_generator(parse(text)) == compiled
    assert len(calls) == GENERATOR_GRID ** 2
