"""f written in the half-plane chart w = (1 + z)/(1 - z).

The flow z' = -f(z) of a generator is w' = 2p(w) there, with the
Berkson-Porta factor p = -f/(1 - z)^2 (:func:`diskflow.expr.berkson_porta_p`);
:func:`chart_tree` rewrites the expression tree of f as the tree of 2p in
w, whose code :func:`diskflow.expr.chart_form` generates.  The module is
imported on the first chart form a process builds, so that
``import diskflow`` does not compile it.
"""

from __future__ import annotations

import cmath
import math

from .expr import (
    Add,
    Const,
    Div,
    Expr,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _codegen,
    _free_of_z,
    _pow,
    _static_value,
    _z_polynomial,
)

# The tree of 2p(w) = -2 f(z)/(1 - z)^2 in the chart w = (1 + z)/(1 - z),
# with 1 - z = 2/B and 1 + z = 2w/B for B = w + 1.  Each subtree is a part
# (s, g, e): its value is s g B^e, s a complex constant, g a tree in w (Var
# is w) or None for 1, and e a real exponent.  The powers of B are gathered
# through products, quotients and integer powers, so f = -(1 - z)^2 q
# gives 2p = (1/2) 4 q B^-2 B^2 with B^0 = 1.

# the largest |e| a part keeps: g grows like |B|^|e|, so a part whose
# product would take more is multiplied out first (see _settled)
_CHART_EXPONENT = 8


def chart_tree(node: Expr) -> Expr:
    """The tree in w of 2p(w) = -(1/2) f (w + 1)^2 for f = ``node``.

    A polynomial sum in z (z itself included) of degree n is the
    polynomial sum a_j (w - 1)^j (w + 1)^(n - j) over B^n, expanded
    exactly in integers over a power of 2 and rounded once per
    coefficient, as :func:`diskflow.expr._gap_coefficients` does in d;
    products and powers of sums stay factored.  f itself a sum takes the
    -1/2 into its coefficients.  Products, quotients and integer powers
    multiply out their constants and add up their exponents of B.  A sum
    of parts with different exponents is written over the smaller one.
    sqrt and powers with a constant real exponent a of a part s B^e are
    s^a B^(ea), with the principal branches of ``_pow``, where
    |Arg s| + |e| pi/2 < pi, so that Log(s B^e) = Log s + e Log B for
    Re w > 0 (|Arg B| < pi/2 there); exp, log, other powers and any other
    part are taken of the part multiplied out.  A subtree free of z is
    its value, or, where that is not finite, its own code.  Constants
    that do not fold (a division by a zero constant, say) raise
    ArithmeticError or ValueError: the expression has no chart form.
    """
    if isinstance(node, (Var, Add, Sub)) and not _free_of_z(node):
        in_z = _z_polynomial(node)
        if in_z is not None:  # the -1/2 goes into the coefficients
            coefficients, shift = in_z
            s, g, e = _chart_polynomial([(-a, -b) for a, b in coefficients], shift + 1)
            return _joined(s, g, e + 2)
    s, g, e = _chart(node)
    return _joined(_folded(complex(-0.5 * s.real, -0.5 * s.imag)), g, e + 2)


def _chart(node: Expr) -> tuple:
    """The part of ``node`` in the chart (see chart_tree)."""
    if _free_of_z(node):
        consts: list = []
        value = _static_value(_codegen(node, consts), consts)
        return (1, node, 0.0) if value is None else (value, None, 0.0)
    if isinstance(node, (Var, Add, Sub)):
        in_z = _z_polynomial(node)
        if in_z is not None:
            return _chart_polynomial(*in_z)
    if isinstance(node, Neg):
        s, g, e = _chart(node.arg)
        return _folded(-s), g, e
    if isinstance(node, (Mul, Div)):
        left, right = _chart(node.left), _chart(node.right)
        if abs(left[2] + (right[2] if isinstance(node, Mul) else -right[2])) > _CHART_EXPONENT:
            left, right = _settled(left), _settled(right)
        (s1, g1, e1), (s2, g2, e2) = left, right
        if isinstance(node, Mul):
            return _folded(s1 * s2), _product(g1, g2), e1 + e2
        # a zero constant divisor raises: the scalar callable is singular everywhere
        return _folded(s1 / s2), _quotient(g1, g2), e1 - e2
    if isinstance(node, (Add, Sub)):
        (s1, g1, e1), (s2, g2, e2) = _chart(node.left), _chart(node.right)
        e = min(e1, e2)
        return 1, type(node)(_joined(s1, g1, e1 - e), _joined(s2, g2, e2 - e)), e
    if isinstance(node, Pow):
        base = _chart(node.base)
        if _free_of_z(node.exponent):
            consts = []
            a = _static_value(_codegen(node.exponent, consts), consts)
            if a is not None:
                return _chart_power(base, a)
        return 1, Pow(_settled(base)[1], _settled(_chart(node.exponent))[1]), 0.0
    part = _chart(node.arg)
    if node.name == "sqrt" and _splits(*part):
        s, _, e = part
        return _folded(cmath.sqrt(s)), None, e / 2
    return 1, Func(node.name, _settled(part)[1]), 0.0


def _chart_power(part: tuple, a: complex) -> tuple:
    """The part of a power with the constant exponent a."""
    if a.imag == 0 and a.real.is_integer() and -64 <= a.real <= 64:
        n = int(a.real)
        if abs(part[2] * n) > _CHART_EXPONENT:
            part = _settled(part)
        s, g, e = part
        # s**n raises for s = 0 and n < 0, as _pow does
        return _folded(s**n), g and Pow(g, Const(complex(n))), e * n
    if a.imag == 0 and _splits(*part):
        s, _, e = part
        return _folded(_pow(s, a)), None, e * a.real
    return 1, Pow(_settled(part)[1], Const(a)), 0.0


def _splits(s: complex, g, e: float) -> bool:
    # whether Log(s B^e) = Log s + e Log B for Re w > 0
    return g is None and s != 0 and abs(cmath.phase(s)) + abs(e) * (math.pi / 2) < math.pi


def _settled(part: tuple) -> tuple:
    # the part multiplied out: s = 1 and e = 0
    return 1, _joined(*part), 0.0


def _folded(s: complex) -> complex:
    # a constant of a part; one that overflowed leaves f with no chart form
    if not cmath.isfinite(s):
        raise OverflowError("constant overflow in the chart")
    return complex(s.real + 0.0, s.imag + 0.0)  # no zero part is -0.0


def _product(p, q):
    # p*q of two trees, either of which may be None for 1
    return p if q is None else q if p is None else Mul(p, q)


def _quotient(p, q):
    # p/q of two trees, either of which may be None for 1
    return p if q is None else Div(Const(1 + 0j) if p is None else p, q)


def _b_power(e: float):
    """(w + 1)^e for e > 0: products of w + 1 for an integer e, times
    sqrt(w + 1) for a half-integer."""
    b = Add(Var(), Const(1 + 0j))
    if e == 0.5:
        return Func("sqrt", b)
    if not e.is_integer():
        return Mul(_b_power(e - 0.5), Func("sqrt", b))
    return b if e == 1 else Pow(b, Const(complex(e)))


def _joined(s: complex, g, e: float) -> Expr:
    """The tree of s g (w + 1)^e, in that order (so 0 g stays 0 where g
    (w + 1)^e would overflow), a quotient 1/q in g written s/q.  A power
    of w + 1 that is no multiple of 1/2 is exp(e log(w + 1)), which _pow
    computes, without its test of a zero base: Re(w + 1) > 1 in the disk,
    and log raises at w = -1 (z at infinity) as the quotient 2/(w + 1) of
    the scalar callable's z does."""
    den = None
    if isinstance(g, Div) and isinstance(g.left, Const) and g.left.value == 1:
        g, den = None, g.right
    if g is not None and s in (1, -1):
        top = g if s == 1 else Neg(g)
    else:
        top = _product(Const(complex(s)), g)
    if not (2 * e).is_integer():
        log_b = Func("log", Add(Var(), Const(1 + 0j)))
        return _quotient(_product(top, Func("exp", Mul(Const(complex(e)), log_b))), den)
    top = _product(top, _b_power(e) if e > 0 else None)
    return _quotient(top, _product(den, _b_power(-e) if e < 0 else None))


def _chart_polynomial(in_z: list, shift: int) -> tuple:
    """The part of the polynomial in z with the coefficients
    (a_k + i b_k)/2^shift (as from _z_polynomial): P(z) = Q(w)/B^n for
    its degree n, Q = sum a_j (w - 1)^j B^(n - j) expanded in integers.
    A monomial q w^m is s = q and g = w^m; any other Q is g by Horner's
    rule with s = 1."""
    n = max((k for k, c in enumerate(in_z) if c != (0, 0)), default=0)
    q = [(0, 0)] * (n + 1)
    for j, (a, b) in enumerate(in_z[: n + 1]):
        for m in range(n + 1):
            # the coefficient of w^m in (w - 1)^j (w + 1)^(n - j)
            c = sum(math.comb(j, i) * (-1) ** (j - i) * math.comb(n - j, m - i)
                    for i in range(max(0, m - n + j), min(j, m) + 1))
            q[m] = (q[m][0] + c * a, q[m][1] + c * b)
    scale = 1 << shift
    q = [complex(re / scale, im / scale) for re, im in q]  # correctly rounded
    terms = [m for m, c in enumerate(q) if c != 0]
    if len(terms) > 1:  # up to the degree of Q, below n where P(1) = 0
        return 1, _horner_tree(q[: terms[-1] + 1]), float(-n)
    m = terms[0] if terms else 0
    power = None if m == 0 else Var() if m == 1 else Pow(Var(), Const(complex(m)))
    return _folded(q[m]), power, float(-n)


def _horner_tree(coefficients: list) -> Expr:
    """The tree of sum c_j w^j by Horner's rule from its leading
    coefficient, w^m for its lowest degree m factored out, as
    :func:`diskflow.expr._horner` writes it in d."""
    low = next(j for j, c in enumerate(coefficients) if c != 0)
    *rest, lead = coefficients[low:]
    node = None if lead in (1, -1) and (rest or low) else Const(lead)

    def times_w(node):
        if node is None:
            return Var() if lead == 1 else Neg(Var())
        return Mul(node, Var())

    for c in reversed(rest):
        node = times_w(node)
        if c != 0:
            node = Add(node, Const(c))
    for _ in range(low):
        node = times_w(node)
    return node
