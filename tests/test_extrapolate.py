"""Properties of ladder_limit, the one finite-or-infinite decision for
ladders toward the boundary point 1.

Ladders are sampled on the rungs k = 4..40 that boundary_limit uses.
Finite ladders are drawn at scales 1e-12..1e12.  Growing ladders start
at 1e-5: below the tolerance 1e-6 the first three rungs already agree
within sequence_limit's absolute floor tol max(1, |s|), so the ladder has
settled before it has grown; that floor is what keeps every finite value
the float it was.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskflow.extrapolate import ladder_limit, sequence_limit  # noqa: E402

RUNGS = range(4, 41)
TOL = 1e-6


def scales(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


signs = st.sampled_from([1.0, -1.0])
complex_unit = st.floats(0.5, 2.0).flatmap(
    lambda r: st.floats(-math.pi, math.pi).map(lambda t: r * complex(math.cos(t), math.sin(t)))
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scales(-12, 12), complex_unit, st.floats(-2.0, 2.0), st.floats(-0.9, 0.9))
def test_geometric_decay_is_finite(scale, unit, c, q):
    limit = scale * unit
    value, converged, infinite = ladder_limit(limit + scale * c * q**k for k in RUNGS)
    assert converged and not infinite
    assert abs(value - limit) <= TOL * max(1.0, abs(limit))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scales(-5, 12), signs, st.floats(0.25, 2.0))
def test_geometric_growth_is_infinite(scale, sign, alpha):
    value, converged, infinite = ladder_limit(
        sign * scale * 2.0 ** (alpha * k) for k in RUNGS
    )
    assert infinite and not converged
    assert math.copysign(1.0, value.real) == sign


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scales(-5, 12), signs)
def test_linear_growth_is_infinite(scale, sign):
    value, converged, infinite = ladder_limit(sign * scale * k for k in RUNGS)
    assert infinite and not converged
    assert math.copysign(1.0, value.real) == sign


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scales(-12, 12), signs, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5))
def test_roundoff_growth_after_settling_is_finite(scale, sign, c, q):
    # the shape of (f - a(1-z)^2)/(1-z)^3 with an error in a: the ladder
    # settles on L, then an error of 1e-13 |L| grows like 2^k
    limit = sign * scale
    seq = [limit + scale * (c * q**k + 1e-13 * 2.0**k) for k in RUNGS]
    value, converged, infinite = ladder_limit(seq)
    assert converged and not infinite
    assert (value, converged) == sequence_limit(seq)
    assert abs(value - limit) <= TOL * max(1.0, abs(limit))


def test_stops_at_the_deciding_rung():
    consumed = []

    def rungs():
        for k in RUNGS:
            consumed.append(k)
            yield 2.0**k

    value, _, infinite = ladder_limit(rungs())
    assert infinite and value == 2.0**8
    assert consumed == [4, 5, 6, 7, 8]


def test_empty_ladder_has_no_limit():
    value, converged, infinite = ladder_limit(iter(()))
    assert math.isnan(value.real) and not converged and not infinite
