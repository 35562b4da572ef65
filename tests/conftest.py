import dataclasses
import re

from diskflow.abel import linearize
from diskflow.expr import compile_expr, gap_form


def counted_callable(fn):
    """``fn`` with a counter of its f-evaluations, on the path the package
    takes with ``fn`` itself: the gap form it exposes, which the log-gap
    panels evaluate in place of f, is wrapped and counted too."""
    evals = [0]
    gap = gap_form(fn)

    def counted(z):
        evals[0] += 1
        return fn(z)

    if gap is not None:
        def counted_gap(d):
            evals[0] += 1
            return gap(d)

        counted.gap = counted_gap
    return counted, evals


def counted_model(f):
    """The linearization model of f, with a counter of its f-evaluations."""
    counted, evals = counted_callable(compile_expr(f))
    return dataclasses.replace(linearize(f), f=counted), evals


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


def mp_function(mpmath, text):
    """Printed expression text as a function of z evaluated by mpmath,
    with every number read as the double the parser makes of it (``^``
    becomes ``**``)."""
    source = _NUMBER.sub(lambda m: f"_n({m.group()!r})", text).replace("^", "**")
    namespace = {
        "_n": lambda s: mpmath.mpf(float(s)),
        "i": mpmath.mpc(0, 1),
        "sqrt": mpmath.sqrt,
        "exp": mpmath.exp,
        "log": mpmath.log,
        "__builtins__": {},
    }
    return eval(f"lambda z: {source}", namespace)  # noqa: S307 - catalog text
