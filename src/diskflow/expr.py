"""Holomorphic expression trees: parsing and evaluation.

The grammar covers everything the rest of the package needs: rational
arithmetic, powers (principal branch for non-integer exponents), sqrt,
exp, and log.  On the unit disk all formulas of interest keep the
arguments of sqrt/log in the right half-plane, so principal branches make
every expression single-valued.

The same tree is also written in the gap d = 1 - z (:func:`gap_form`),
which the quadrature of h at the boundary point 1 evaluates.

Also provides the Berkson-Porta factor p(z) = -f(z)/(1-z)^2 of a vector
field, a grid check that Re p >= 0 (the generator criterion), and the
boundary-limit estimator used for every angular limit in the package.
"""

from __future__ import annotations

import builtins
import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (
    ExpressionSyntaxError,
    GridUnreliableError,
    SingularEvaluationError,
)
from .extrapolate import ladder_limit
from .geometry import inverse_cayley


# --- expression nodes -------------------------------------------------------


class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def __str__(self) -> str:
        return _print(self, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: complex


@dataclass(frozen=True, eq=False)
class Var(Expr):
    pass


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, eq=False)
class Func(Expr):
    name: str  # sqrt | exp | log
    arg: Expr


_FUNCS = ("sqrt", "exp", "log")


# --- parsing -----------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append(("op", c, i))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                # one '.' per mantissa: a second one starts the next token
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if c.isalpha():
                j = i
                while j < n and text[j].isalnum():
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ExpressionSyntaxError(f"unexpected character {c!r}", position=i)
        # attribute end-of-input errors to the last token, not one past it
        end_pos = self.tokens[-1][2] if self.tokens else n
        self.tokens.append(("end", "", end_pos))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    """Recursive descent for the grammar:

        expr   := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary)*
        unary  := '-' unary | power
        power  := primary ('^' unary)?
        primary:= number | 'i' | 'z' | func '(' expr ')' | '(' expr ')'

    '^' binds tighter than unary minus, so -z^2 is -(z^2) and z^-2 is
    z^(-2).
    """

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {val!r}", position=pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "*/":
                self.toks.next()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.toks.peek()
        if kind == "op" and val == "-":
            self.toks.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        kind, val, _ = self.toks.peek()
        if kind == "op" and val == "^":
            self.toks.next()
            return Pow(base, self.unary())
        return base

    def primary(self) -> Expr:
        kind, val, pos = self.toks.next()
        if kind == "num":
            return Const(complex(float(val), 0.0))
        if kind == "name":
            if val == "i":
                return Const(1j)
            if val == "z":
                return Var()
            if val in _FUNCS:
                k2, v2, p2 = self.toks.next()
                if not (k2 == "op" and v2 == "("):
                    raise ExpressionSyntaxError(
                        f"expected '(' after {val!r}", position=p2
                    )
                inner = self.expr()
                k3, v3, p3 = self.toks.next()
                if not (k3 == "op" and v3 == ")"):
                    raise ExpressionSyntaxError("expected ')'", position=p3)
                return Func(val, inner)
            raise ExpressionSyntaxError(f"unknown identifier {val!r}", position=pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            k2, v2, p2 = self.toks.next()
            if not (k2 == "op" and v2 == ")"):
                raise ExpressionSyntaxError("expected ')'", position=p2)
            return inner
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", position=pos)
        raise ExpressionSyntaxError(f"unexpected {val!r}", position=pos)


def parse(text: str) -> Expr:
    """Parse an expression string into an immutable tree."""
    try:
        return _Parser(text).parse()
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise ExpressionSyntaxError(
            "expression too deeply nested", position=None
        ) from exc


# --- printing ----------------------------------------------------------------

# precedence levels: add 1, mul 2, unary 3, power 4, atom 5; the binary
# operators with their symbol and level, for printing and for codegen
_BINARY = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}


def _print(node: Expr, parent_prec: int) -> str:
    text, prec = _print_prec(node)
    if prec < parent_prec:
        return f"({text})"
    return text


def _format_const(v: complex) -> str:
    def real_part(x: float) -> str:
        if abs(x) < 1e15 and x == int(x):
            return str(int(x))
        return repr(x)

    if v.imag == 0:
        s = real_part(v.real)
        return s
    if v.real == 0:
        if v.imag == 1:
            return "i"
        return f"{real_part(v.imag)}*i"
    re, im = real_part(v.real), real_part(v.imag)
    sign = "+" if v.imag >= 0 else "-"
    mag = real_part(abs(v.imag))
    tail = "i" if abs(v.imag) == 1 else f"{mag}*i"
    return f"({re}{sign}{tail})"


def _print_prec(node: Expr) -> tuple[str, int]:
    if isinstance(node, Const):
        s = _format_const(node.value)
        neg = s.startswith("-")
        return s, 3 if neg else 5
    if isinstance(node, Var):
        return "z", 5
    if isinstance(node, Neg):
        return "-" + _print(node.arg, 3), 3
    if type(node) in _BINARY:
        op, prec = _BINARY[type(node)]
        return _print(node.left, prec) + op + _print(node.right, prec + 1), prec
    if isinstance(node, Pow):
        # exponent at unary level, base strictly atomic
        return _print(node.base, 5) + "^" + _print(node.exponent, 4), 4
    if isinstance(node, Func):
        return f"{node.name}({_print(node.arg, 0)})", 5
    raise TypeError(f"not an expression node: {node!r}")


# --- evaluation --------------------------------------------------------------

_NEGATIVE_POWER = "0 raised to a negative power"
_NON_POSITIVE_POWER = "0 raised to a non-positive power"


def _pow(base: complex, exponent: complex) -> complex:
    if exponent.imag == 0 and exponent.real == int(exponent.real):
        n = int(exponent.real)
        if -64 <= n <= 64:
            if n < 0 and base == 0:
                raise ZeroDivisionError(_NEGATIVE_POWER)
            return base**n
    if base == 0:
        if exponent.real > 0 and exponent.imag == 0:
            return 0j
        raise ZeroDivisionError(_NON_POSITIVE_POWER)
    return cmath.exp(exponent * cmath.log(base))


def _zero_power(message: str):
    # the base-0 branch of a constant-exponent power that _pow would raise
    raise ZeroDivisionError(message)


def _singular(z: complex, exc: Exception | None):
    # raised from the except block of _CHECKED, so exc is also the context
    if exc is None:
        raise SingularEvaluationError(f"evaluation produced NaN at z = {complex(z)}")
    raise SingularEvaluationError(f"singular evaluation at z = {complex(z)}: {exc}") from exc


# the names generated code and kernel templates may use besides their own
_NAMESPACE = {
    "__builtins__": builtins,
    "sqrt": cmath.sqrt,
    "exp": cmath.exp,
    "log": cmath.log,
    "_pow": _pow,
    "_zero_power": _zero_power,
    "_singular": _singular,
    "SingularEvaluationError": SingularEvaluationError,
}

# A kernel template evaluates f only by one of these statements, each on
# a line of its own: f at the point z, or f at 1 - d written in the gap d
# (see gap_form), with the name the template calls and the point that an
# error reports
_F_CALL = "v = f(z)"
_GAP_CALL = "v = f_gap(d)"
_CALLS = {_F_CALL: ("f", "z"), _GAP_CALL: ("f_gap", "(1+0j)-d")}

# ... which a compiled expression replaces by its generated code, checked as
# the scalar callable checks it; <f> stands for the code, <z> for the point
_CHECKED = """\
try:
    v = <f>
except (ZeroDivisionError, ValueError, OverflowError) as exc:
    _singular(<z>, exc)
if v != v:
    _singular(<z>, None)
"""

_SCALAR = f"""
def call(z):
    z = complex(z)
    {_F_CALL}
    return v
"""

_GAP_SCALAR = f"""
def call_gap(d):
    d = complex(d)
    {_GAP_CALL}
    return v
"""


def evaluate(node: Expr, z: complex) -> complex:
    """Evaluate at z with principal branches; singularities raise."""
    return compile_expr(node)(z)


def constant_value(node: Expr) -> complex:
    """The value of an expression free of z, such as ``exp(i)``.

    A finite value is read from the generated code without compiling a
    callable; anything else, an expression in z included, goes through
    :func:`evaluate` at 0, which raises as it always does.
    """
    if _free_of_z(node):
        consts: list = []
        try:
            value = _static_value(_codegen(node, consts), consts)
        except (SyntaxError, RecursionError, MemoryError):
            value = None  # too deeply nested: compile_expr reports it
        if value is not None:
            return value
    return evaluate(node, 0j)


def compile_expr(node: Expr):
    """Return a fast ``z -> complex`` callable for the expression.

    Generates python code over cmath primitives.  A constant is written
    as its ``repr`` when Python reads that text back exactly (so constant
    subexpressions fold at compile time); otherwise, e.g. for signed
    zeros or infinities, it is a name bound to the exact value.  A
    subtree free of z that calls a function is evaluated once, here, and
    bound the same way when its value is finite; one that fails stays in
    the code and raises at evaluation.  A power with a constant exponent
    is written out, without a call of the generic ``_pow``.  Division by
    zero, domain errors, overflow and NaN results raise
    SingularEvaluationError.  The callable is built once per node and
    kept on it, so repeated ``evaluate`` calls do not recompile.

    The callable carries the generated ``source``, the ``namespace`` it
    runs in, the ``kernels`` that :func:`kernel` has built from it and
    its ``node``, from which :func:`gap_form` writes f in the gap.
    """
    try:
        return node._compiled
    except AttributeError:
        pass
    try:
        call = _callable(node, gap=False)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # Python limits the nesting of parentheses (200) and of the tree
        raise ExpressionSyntaxError(
            f"expression too deeply nested to compile: {exc}", position=None
        ) from exc
    call.node = node
    object.__setattr__(node, "_compiled", call)  # nodes are frozen
    return call


def gap_form(fn):
    """The callable ``d -> f(1 - d)`` of ``fn`` written in the gap d, or
    None when ``fn`` has none.

    For a callable from :func:`compile_expr` it is generated from the
    expression on first use and kept as ``fn.gap``: each polynomial sum
    in z is a polynomial in d (see :func:`_gap_coefficients`), so
    ``1 - z`` is d itself and its leading terms cancel in the tree, not
    in floating point; near 1 it is exact where f at the rounded point
    z = 1 - d carries a relative error of eps/|d|.  Like the callable it
    carries ``source``, ``namespace`` and ``kernels``, for the templates
    that evaluate f by ``v = f_gap(d)``.  Any other callable has the gap
    form it carries as ``gap``, if any; an expression too deeply nested
    for the gap code has none.
    """
    if not hasattr(fn, "gap") and hasattr(fn, "node"):
        try:
            fn.gap = _callable(fn.node, gap=True)
        except (SyntaxError, RecursionError, MemoryError):
            fn.gap = None
    return getattr(fn, "gap", None)


def _callable(node: Expr, gap: bool):
    # the scalar callable of the generated code of node in z or in d
    consts: list = []
    source = _codegen(node, consts, gap=gap)
    namespace = {**_NAMESPACE, **_const_names(consts)}
    call = _define(_compile(_inline(_GAP_SCALAR if gap else _SCALAR, source)), namespace)
    call.source = source
    call.namespace = namespace
    call.kernels = {}
    call.uses = {}
    return call


def as_callable(f):
    """Compile an expression; any other callable is returned as is."""
    return compile_expr(f) if isinstance(f, Expr) else f


def kernel(fn, template: str):
    """The function that ``template`` defines, evaluating f through ``fn``.

    ``template`` is the source of one function definition (it may
    return inner functions) that evaluates f only by the lines
    ``v = f(z)``, or only by the lines ``v = f_gap(d)``, f at 1 - d.
    Besides its arguments it reads only cmath's ``sqrt``, ``exp`` and
    ``log``, ``SingularEvaluationError`` and the builtins: all its data,
    fixed tables such as a quadrature rule included, are arguments of
    the function it defines, so the kernel depends on ``fn`` and the
    template text alone.  Its own names must not start with an
    underscore, which generated code uses.

    For a callable from :func:`compile_expr` each ``v = f(z)`` becomes
    the expression's generated code under the scalar callable's checks,
    and each ``v = f_gap(d)`` the code of its :func:`gap_form`, so a
    node evaluates f without a Python call.  That code is compiled on
    first use and kept in the ``kernels`` of the callable or of its gap
    form, once per template.  Any other callable, such as a counting
    wrapper, runs the template as written with ``f`` bound to it, and
    ``f_gap`` to the gap form it carries; one that carries none
    evaluates ``v = f(z)`` at the rounded point ``z = (1+0j) - d``
    instead.  Its own exceptions pass through.  Either way the kernel
    gives the same floats and the same exceptions as calling the scalar
    callable at every line that evaluates f.  The integrand template of
    :mod:`diskflow.abel`, one for its one path geometry (the log-gap
    segment) that evaluates f on one line, and the grid scan of
    :func:`validate_generator` are inlined here, on their first use; the DOP853 attempt of
    :mod:`diskflow.flow` comes through :func:`kernel_by_use`, which
    inlines it only once its callable has made :data:`INLINE_AFTER`
    attempts.

    Kernels do plain complex arithmetic.  On CPython 3.11 a float on
    the left of a complex operand (``0.5*x``, ``1.0 - x``) first fails
    in the float slot: 49 ns against 27 ns for ``(0.5+0j)*x`` and 40 ns
    for ``x*0.5`` (loop overhead subtracted).  So a template writes its
    constants as complex literals such as ``(0.5+0j)`` and puts float
    variables on the right; the generated code of f writes every
    constant as a complex literal already, and its integer powers 2 to
    4 as products (see :func:`_constant_power`).
    """
    line = _F_CALL
    if _evaluates_gap(template):
        gap = gap_form(fn)
        if gap is None:
            template = _at_rounded_point(template)
        else:
            fn, line = gap, _GAP_CALL
    kernels = getattr(fn, "kernels", None)
    if kernels is None:
        return _as_written(template, line, fn)
    built = kernels.get(template)
    if built is None:
        try:
            built = _define(_compile(_inline(template, fn.source)), fn.namespace)
        except (SyntaxError, RecursionError, MemoryError):
            # nested too deeply for the kernel's extra levels: call f
            built = _as_written(template, line, fn)
        kernels[template] = built
    return built


def _as_written(template: str, line: str, fn):
    """The function of ``template`` as written, evaluating f by calling
    ``fn`` under the name that ``line`` calls."""
    return _define(_template_code(template), {**_NAMESPACE, _CALLS[line][0]: fn})


# A kernel that kernel_by_use gives runs its template as written, with f
# called through the scalar callable, until the callable has made
# INLINE_AFTER calls of it; from then on it is the inlined kernel, compiled
# once.  Sized for the DOP853 attempt of flow, the one template run this
# way (2 cores, CPython 3.11.7): compiling the inlined attempt costs
# 1.7-2.3 ms per generator (the template alone 0.77 ms), and inlining saves
# about 0.22 us per evaluation, 2.6 us per attempt of twelve, so the
# compile pays back after roughly 650-900 attempts.  classify's ODE leg
# makes about 212 attempts per generator and the backward probes of one
# bfid_report about 45 in all, so neither compiles it; a generator that is
# integrated for longer (about 500 attempts per pass of the trajectories
# benchmark workload) pays at most 256 x 2.6 us, about 0.7 ms, once before
# the switch.
INLINE_AFTER = 256


def kernel_by_use(fn, template: str, made: int):
    """``(kernel, calls)`` for a caller that reports the calls it makes:
    the kernel of ``template`` for ``fn`` once the caller has made
    ``made`` more calls of the kernel this function last gave it (0 on
    its first request), and the number of calls after which it asks
    again, or -1 when the kernel is final.

    For a callable from :func:`compile_expr` the calls are counted in
    its ``uses``, per template.  Until they reach :data:`INLINE_AFTER`,
    the kernel is the template as written with ``f`` bound to the
    scalar callable, the same code that every other callable runs, so a
    kernel that is never called often enough to repay its compile is not
    compiled; after that it is :func:`kernel`'s inlined one.  Both give
    the same bits and the same exceptions, so the switch may come in the
    middle of a run.  Any other callable gets :func:`kernel`'s at once.
    ``template`` evaluates f by ``v = f(z)`` only.
    """
    uses = getattr(fn, "uses", None)
    if uses is None or template in fn.kernels:
        return kernel(fn, template), -1
    count = uses[template] = uses.get(template, 0) + made
    if count >= INLINE_AFTER:
        return kernel(fn, template), -1
    return _as_written(template, _F_CALL, fn), INLINE_AFTER - count


@functools.lru_cache(maxsize=None)
def _evaluates_gap(template: str) -> bool:
    # whether the template evaluates f in the gap, read once per template
    return _GAP_CALL in template


def _at_rounded_point(template: str) -> str:
    """``template`` with each ``v = f_gap(d)`` line evaluating f at the
    rounded point z = 1 - d."""
    lines = []
    for line in template.splitlines():
        if line.strip() == _GAP_CALL:
            indent = line[: len(line) - len(line.lstrip())]
            lines += [indent + "z = (1+0j) - d", indent + _F_CALL]
        else:
            lines.append(line)
    return "\n".join(lines)


def _inline(template: str, source: str) -> str:
    """``template`` with each line that evaluates f replaced by the
    checked evaluation of ``source``, the code of f in z or in d."""
    lines = []
    for line in template.splitlines():
        call = _CALLS.get(line.strip())
        if call is None:
            lines.append(line)
            continue
        checked = _CHECKED.replace("<f>", source).replace("<z>", call[1])
        indent = line[: len(line) - len(line.lstrip())]
        lines.extend(indent + part for part in checked.splitlines())
    return "\n".join(lines)


def _define(code, namespace: dict):
    """Run ``code``, which defines one function, with ``namespace`` as
    that function's globals, and return the function."""
    defined: dict = {}
    exec(code, namespace, defined)  # noqa: S102 - generated from our own AST
    (function,) = defined.values()
    return function


def _compile(source: str):
    return compile(source, "<diskflow kernel>", "exec")


# a template runs as written for every callable that is not a compiled
# expression, so its code is compiled once
_template_code = functools.lru_cache(maxsize=None)(_compile)


def _const_names(consts: list) -> dict:
    return {f"_c{j}": value for j, value in enumerate(consts)}


def _literal(value: complex):
    """``repr(value)`` if Python evaluates that text to exactly
    ``value``, signs of zero included; else None."""
    text = repr(value)  # distinct for distinct bits, signed zeros included
    return text if _reads_back(text) else None


@functools.lru_cache(maxsize=4096)
def _reads_back(text: str) -> bool:
    try:
        back = eval(text, {"__builtins__": {}})  # noqa: S307 - repr of a complex
    except NameError:  # inf and nan parts
        return False
    value = complex(text)
    return all(a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
               for a, b in ((back.real, value.real), (back.imag, value.imag)))


def _constant(value: complex, consts: list) -> tuple[str, int]:
    # the literal, or a name bound to the exact value
    text = _literal(value)
    if text is None:
        consts.append(value)
        return f"_c{len(consts) - 1}", 5
    return text, 3 if text.startswith("-") else 5


def _free_of_z(node: Expr) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return False
        if isinstance(node, (Neg, Func)):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack += (node.base, node.exponent)
        elif type(node) in _BINARY:
            stack += (node.left, node.right)
    return True


def _static_value(text: str, consts: list):
    """The value of generated code free of z, when it is finite; None
    when it is not or when its evaluation fails."""
    try:
        value = eval(text, {**_NAMESPACE, **_const_names(consts)})  # noqa: S307
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    return value if cmath.isfinite(value) else None


# Python precedence of the generated text, as in _print_prec: conditional
# 0 (a guarded integer power), sum 1, product 2, unary minus 3, ** 4, atom
# or call 5.  A child is wrapped in parentheses only where Python would
# otherwise group it differently, so a long chain such as z+z+...+z
# compiles without nesting.  With ``gap`` the code is written in the gap
# d = 1 - z (see gap_form).
def _codegen(node: Expr, consts: list, min_prec: int = 0, gap: bool = False) -> str:
    mark = len(consts)
    text, prec = _codegen_prec(node, consts, gap)
    if isinstance(node, (Func, Pow)) and _free_of_z(node):
        # a call free of z is made once, here; a finite value becomes a
        # constant, which Python folds into the constants around it
        value = _static_value(text, consts)
        if value is not None:
            del consts[mark:]  # names bound for this subtree only
            text, prec = _constant(value, consts)
    return f"({text})" if prec < min_prec else text


def _codegen_prec(node: Expr, consts: list, gap: bool) -> tuple[str, int]:
    if gap and isinstance(node, (Var, Add, Sub)) and not _free_of_z(node):
        coefficients = _gap_coefficients(node)
        if coefficients is not None:
            return _horner(coefficients, consts)
    if isinstance(node, Const):
        return _constant(node.value, consts)
    if isinstance(node, Var):
        return "z", 5
    if isinstance(node, Neg):
        return "-" + _codegen(node.arg, consts, 3, gap), 3
    if type(node) in _BINARY:
        op, prec = _BINARY[type(node)]
        left = _codegen(node.left, consts, prec, gap)
        return left + op + _codegen(node.right, consts, prec + 1, gap), prec
    if isinstance(node, Pow):
        mark = len(consts)
        exponent = _codegen(node.exponent, consts, gap=gap)
        if isinstance(node.exponent, Const):
            value = node.exponent.value if cmath.isfinite(node.exponent.value) else None
        else:
            value = _static_value(exponent, consts) if _free_of_z(node.exponent) else None
        if value is None:
            return f"_pow({_codegen(node.base, consts, gap=gap)},{exponent})", 5
        del consts[mark:]
        return _constant_power(node.base, value, consts, gap)
    if isinstance(node, Func):
        return f"{node.name}({_codegen(node.arg, consts, gap=gap)})", 5
    raise TypeError(f"not an expression node: {node!r}")


# the largest degree of a polynomial sum that the gap code re-expands
_GAP_DEGREE = 8


def _gap_coefficients(node: Expr):
    """The coefficients of a polynomial sum in z (or z itself) as a
    polynomial in the gap d = 1 - z, lowest degree first, or None.

    ``node`` qualifies when it is built from finite constants, z, +, -,
    * and powers with constant exponents 0, 1, 2, ..., up to degree
    _GAP_DEGREE.  The coefficients are expanded exactly, in integers over
    a power of 2, and each is rounded once: z^2 - 1 becomes d^2 - 2d and
    1 + z^2 becomes 2 - 2d + d^2, so a zero at z = 1 is the factor d
    itself.  Products and powers of sums stay factored (their factors
    are re-expanded one by one), which keeps (1 + z)^4 as (2 - d)^4.
    """
    expanded = _z_polynomial(node)
    if expanded is None:
        return None
    in_z, shift = expanded
    scale = 1 << shift
    in_d = []
    # z^k = (1 - d)^k = sum over j of C(k, j) (-d)^j
    for j in range(len(in_z)):
        weights = [(-1) ** j * math.comb(k, j) for k in range(j, len(in_z))]
        re = sum(w * a for w, (a, _) in zip(weights, in_z[j:]))
        im = sum(w * b for w, (_, b) in zip(weights, in_z[j:]))
        try:
            in_d.append(complex(re / scale, im / scale))  # correctly rounded
        except OverflowError:
            return None
    return in_d


def _z_polynomial(node: Expr):
    """``node`` as a polynomial in z, ``(coefficients, shift)``: the
    coefficient of z^k is (a_k + i b_k) / 2^shift for the integer pair
    (a_k, b_k), lowest degree first; None where _gap_coefficients says."""
    if isinstance(node, Const):
        if not cmath.isfinite(node.value):
            return None
        (a, p), (b, q) = node.value.real.as_integer_ratio(), node.value.imag.as_integer_ratio()
        scale = max(p, q)  # p and q are powers of 2
        return [(a * (scale // p), b * (scale // q))], scale.bit_length() - 1
    if isinstance(node, Var):
        return [(0, 0), (1, 0)], 0
    if isinstance(node, Neg):
        p = _z_polynomial(node.arg)
        return None if p is None else ([(-a, -b) for a, b in p[0]], p[1])
    if isinstance(node, Pow):
        n = node.exponent.value if isinstance(node.exponent, Const) else None
        if n is None or n.imag != 0 or not (n.real.is_integer() and 0 <= n.real <= _GAP_DEGREE):
            return None
        base = _z_polynomial(node.base)
        if base is None:
            return None
        power = [(1, 0)], 0
        for _ in range(int(n.real)):
            power = _times(power, base)
        return power if len(power[0]) <= _GAP_DEGREE + 1 else None
    if type(node) in (Add, Sub, Mul):
        p, q = _z_polynomial(node.left), _z_polynomial(node.right)
        if p is None or q is None:
            return None
        if isinstance(node, Mul):
            product = _times(p, q)
            return product if len(product[0]) <= _GAP_DEGREE + 1 else None
        shift = max(p[1], q[1])
        p, q = ([(a << (shift - s), b << (shift - s)) for a, b in c] for c, s in (p, q))
        p, q = p + [(0, 0)] * (len(q) - len(p)), q + [(0, 0)] * (len(p) - len(q))
        sign = 1 if isinstance(node, Add) else -1
        return [(a + sign * c, b + sign * e) for (a, b), (c, e) in zip(p, q)], shift
    return None


def _times(p: tuple, q: tuple) -> tuple:
    # the product of two polynomials of _z_polynomial
    (pc, ps), (qc, qs) = p, q
    out = [(0, 0)] * (len(pc) + len(qc) - 1)
    for i, (a, b) in enumerate(pc):
        for j, (c, e) in enumerate(qc):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * e, im + a * e + b * c)
    return out, ps + qs


def _horner(coefficients: list, consts: list) -> tuple[str, int]:
    """The code of sum c_j d^j: d^m q(d), m the lowest degree, with q by
    Horner's rule from its leading coefficient; a leading 1 or -1 is
    written as no product."""
    low = next((j for j, c in enumerate(coefficients) if c != 0), None)
    if low is None:
        return _constant(0j, consts)
    *rest, lead = coefficients[low:]
    if lead in (1, -1) and (rest or low):
        text, prec = None, 5  # the product by d writes the sign
    else:
        text, prec = _constant(lead, consts)
    for c in reversed(rest):
        text, prec = _times_d(text, prec, lead)
        if c != 0:
            text, prec = f"{text}+{_constant(c, consts)[0]}", 1
    for _ in range(low):
        text, prec = _times_d(text, prec, lead)
    return text, prec


def _times_d(text, prec: int, lead: complex) -> tuple[str, int]:
    if text is None:
        return ("d", 5) if lead == 1 else ("-d", 3)
    return (f"({text})" if prec < 2 else text) + "*d", 2


# b**n for n = 2, 3 and 4 as the products that CPython's c_powu forms:
# b*b, (1*b)*(b*b) and 1*((b*b)*(b*b)), less the leading products by 1;
# and the largest |b|, a power of 2, below which no part of any partial
# product can overflow
_PRODUCTS = {
    2: ("_b*_b", 2.0**511),
    3: ("_b*(_b*_b)", 2.0**340),
    4: ("(_b := _b*_b)*_b", 2.0**255),
}


def _constant_power(base: Expr, exponent: complex, consts: list,
                    gap: bool) -> tuple[str, int]:
    """base^exponent for a constant exponent, as _pow computes it, with
    no call but cmath's exp and log.  The base is bound to ``_b`` while
    the power reads it; a power inside the base is done with ``_b``
    before the outer one binds it.

    n = 2, 3 and 4 are the products of ``_PRODUCTS``, which cost plain
    complex multiplications: on CPython 3.11, ``b**2`` goes through
    complex_pow and c_powu and takes 84 ns, ``b*b`` 27 ns.
    They equal ``b**n`` in value, and in bits up to the sign of a zero
    part, which the products by 1 that c_powu leads with normalize:
    ``z**2`` at real z < 0 has the imaginary part +0.0 under ``**`` and
    -0.0 here, so ``sqrt(-z^2)`` there takes the other side of its cut.
    Where ``**`` overflows it raises, and a product would return inf, so
    the products run only below the bound of ``_PRODUCTS`` on ``abs(_b)``
    and ``_b**n`` runs above it, NaN bases included.  The bound test
    costs about 40 ns: a guarded square takes 66 ns.
    """
    n = exponent.real
    if exponent.imag == 0 and n.is_integer() and -64 <= n <= 64:
        n = int(n)
        if n in _PRODUCTS:
            product, bound = _PRODUCTS[n]
            # unwrapped, so that a chain of powers nests one call deep
            # per power; an operator around it wraps it
            return (f"{product} if abs(_b := {_codegen(base, consts, gap=gap)}) < {bound!r} "
                    f"else _b**{n}"), 0
        if n >= 0:
            return f"{_codegen(base, consts, 5, gap)}**{n}", 4
        power, at_zero = f"_b**{n}", f"_zero_power({_NEGATIVE_POWER!r})"
    else:
        power = f"exp({_constant(exponent, consts)[0]}*log(_b))"
        if exponent.imag == 0 and n > 0:
            at_zero = "0j"
        else:
            at_zero = f"_zero_power({_NON_POSITIVE_POWER!r})"
    return f"({power} if (_b := {_codegen(base, consts, gap=gap)}) else {at_zero})", 5


# --- generator structure -----------------------------------------------------


GENERATOR_GRID = 24  # radii and angles of the validate_generator grid


def _generator_grid(n: int) -> tuple:
    """The n x n polar grid of validate_generator, ring by ring."""
    points = []
    for j in range(n):
        r = (j + 0.5) / n
        # push a few rings very close to the circle where Re p bottoms out
        if j >= n - 3:
            r = 1.0 - 10.0 ** -(j - n + 4)
        for k in range(n):
            theta = 2 * math.pi * (k + 0.5) / n
            points.append(r * cmath.exp(1j * theta))
    return tuple(points)


_GENERATOR_POINTS = _generator_grid(GENERATOR_GRID)

# The smallest Re p, p = -f/(1 - z)^2, over the grid, where p evaluates,
# and the points where it does not: where f is singular or p is NaN, as
# the scalar callable of p would report them; instantiated per generator
# by kernel, with f inlined.
_GRID_SCAN = """
def grid_scan(points):
    skipped = 0
    min_re = float("inf")
    witness = 0j
    for z in points:
        try:
            v = f(z)
        except SingularEvaluationError:
            skipped += 1
            continue
        b = (1+0j) - z
        v = -v / (b * b)
        if v != v:
            skipped += 1
        elif v.real < min_re:
            min_re = v.real
            witness = z
    return min_re, witness, skipped
"""


def berkson_porta_p(f: Expr) -> Expr:
    """The factor p with f(z) = -(1-z)^2 p(z), i.e. p = -f/(1-z)^2."""
    return Div(Neg(f), Pow(Sub(Const(1 + 0j), Var()), Const(2 + 0j)))


def validate_generator(f: Expr) -> dict:
    """Check Re p >= 0 on a GENERATOR_GRID x GENERATOR_GRID polar grid;
    the semigroup generator criterion.

    Returns ``{"min_re_p", "is_generator", "witness", "skipped"}``.  Grid
    points where evaluation is singular are skipped; more than 10% skips
    raises GridUnreliableError.  p is formed from f's values in the grid
    scan, as the callable of :func:`berkson_porta_p` computes it.
    """
    min_re, witness, skipped = kernel(compile_expr(f), _GRID_SCAN)(_GENERATOR_POINTS)
    total = len(_GENERATOR_POINTS)
    if skipped > 0.10 * total:
        raise GridUnreliableError(
            f"{skipped}/{total} grid points were singular"
        )
    return {
        "min_re_p": min_re,
        "is_generator": min_re >= -1e-9,
        "witness": witness,
        "skipped": skipped,
    }


# --- boundary limits ---------------------------------------------------------


@dataclass(frozen=True)
class BoundaryLimitEstimate:
    """Extrapolated limit of an expression at the boundary point 1."""

    value: complex
    converged: bool
    infinite: bool = False


def _approach_points(approach: str):
    """Yield the sampling schedule for an approach tag.

    radial and stolz-ray(theta) use z_k = 1 - 2^-k e^{i theta}; the
    tangential curve follows the horocycle d(z) = 1/c via the Cayley
    transform, z_k = inverse_cayley(c + i 2^k).
    """
    tag, arg = approach, 0.0
    if "(" in approach:
        tag, rest = approach.split("(", 1)
        arg = float(rest.rstrip(")"))
    if tag == "radial":
        theta = 0.0
    elif tag == "stolz-ray":
        theta = arg
        if not abs(theta) < math.pi / 2:
            raise ValueError("stolz-ray angle must satisfy |theta| < pi/2")
    elif tag == "tangential-curve":
        c = arg if arg > 0 else 1.0
        for k in range(4, 41):
            yield inverse_cayley(complex(c, 2.0**k))
        return
    else:
        raise ValueError(f"unknown approach {approach!r}")
    direction = cmath.exp(1j * theta)
    for k in range(4, 41):
        yield 1.0 - 2.0**-k * direction


def boundary_limit(g, approach: str = "radial", tol: float = 1e-6) -> BoundaryLimitEstimate:
    """Estimate the limit of g along an approach to the boundary point 1.

    ``g`` is an expression or any complex-valued callable.  The rungs
    k = 4..40 of the geometric schedule are sampled in order, skipping
    rungs where g is singular, by :func:`~diskflow.extrapolate.ladder_limit`,
    which decides from the ladder's own differences at any scale.  A
    ladder that grows before it settles is infinite, and sampling stops
    at the rung that decides it (``value`` is that sample, ``converged``
    false).  Any other ladder is sampled to the end and extrapolated; it
    has converged at the first window of three accelerated values within
    ``tol``.
    """
    fn = as_callable(g)

    def rungs():
        for z in _approach_points(approach):
            try:
                v = fn(z)
            except SingularEvaluationError:
                continue
            yield v

    return BoundaryLimitEstimate(*ladder_limit(rungs(), tol))
