import dataclasses
import re

from diskflow.abel import linearize
from diskflow.expr import compile_expr


def counted_model(f):
    """The linearization model of f, with a counter of its f-evaluations."""
    fn = compile_expr(f)
    evals = [0]

    def counted(z):
        evals[0] += 1
        return fn(z)

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
