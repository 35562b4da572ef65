import dataclasses
import re

from diskflow.abel import linearize
from diskflow.expr import chart_form, compile_expr


def counted_callable(fn):
    """``fn`` with a counter of its f-evaluations, on the path the package
    takes with ``fn`` itself: the chart form it exposes, which the
    log-gap panels and the flow's steps evaluate in place of f, is
    wrapped and counted too."""
    evals = [0]

    def counting(form):
        def counted(x):
            evals[0] += 1
            return form(x)

        return counted

    counted = counting(fn)
    chart = chart_form(fn)
    if chart is not None:
        counted.chart = counting(chart)
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
