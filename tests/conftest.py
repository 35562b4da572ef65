import dataclasses

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
