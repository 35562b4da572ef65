import cmath
import math

import pytest

from diskflow.abel import linearize
from diskflow.classify import (
    M_GRID,
    _quotient,
    classify,
    halfplane_criterion_M,
    rigidity_criterion,
    tangency_criterion,
    theorem_argument_bound,
)
from diskflow.errors import SingularEvaluationError
from diskflow.expr import _GENERATOR_POINTS, Const, Div, Pow, Sub, Var, compile_expr, parse
from diskflow import catalog


def _f(cid):
    return parse(catalog.get(cid).f_text)


def test_quotients_match_the_compiled_quotient():
    # beta's f/(z - 1) and the Taylor data's f/(1 - z)^2 divide f's own
    # values: the bits and the singular points of the compiled quotient
    # expressions, where f overflows to infinite parts without being NaN
    # and the quotient is NaN included
    f = parse("-(1-z)^2*(1e308 + 1e308*z)")
    fn = compile_expr(f)

    def outcome(call, z):
        try:
            q = call(z)
        except SingularEvaluationError:
            return "singular"
        return q.real.hex(), q.imag.hex()

    for divisor, node in (
        (lambda z: z - 1.0, Div(f, Sub(Var(), Const(1 + 0j)))),
        (lambda z: (1.0 - z) * (1.0 - z), Div(f, Pow(Sub(Const(1 + 0j), Var()), Const(2 + 0j)))),
    ):
        quotient, compiled = _quotient(fn, divisor), compile_expr(node)
        outcomes = [outcome(quotient, z) for z in _GENERATOR_POINTS]
        assert outcomes == [outcome(compiled, z) for z in _GENERATOR_POINTS]
        assert "singular" in outcomes


def test_hyperbolic_type():
    profile = classify(_f("bfid-hyp"))
    assert profile.type == "hyperbolic"
    assert profile.beta == pytest.approx(2.0, abs=1e-6)


def test_quadrant_profile():
    profile = classify(_f("quadrant"))
    assert profile.type == "parabolic"
    assert profile.alpha == pytest.approx(0.5, abs=1e-3)
    assert profile.regime == "tangential"
    # a = -1/mu with mu = e^{i pi/4}/sqrt(2)
    assert profile.a == pytest.approx(-math.sqrt(2) * cmath.exp(-0.25j * math.pi), abs=1e-6)


def test_bfid_par_profile():
    profile = classify(_f("bfid-par"))
    assert profile.alpha == pytest.approx(2.0, abs=1e-3)
    assert profile.regime == "nontangential"
    assert profile.taylor_a == pytest.approx(0.0, abs=1e-6)
    assert profile.taylor_b == pytest.approx(-1.0, abs=1e-9)


def test_tangency_criterion_cases():
    quadrant = tangency_criterion(classify(_f("quadrant")))
    assert quadrant["tangential_expected"] and quadrant["agrees_with_regime"]
    par = tangency_criterion(classify(_f("bfid-par")))
    assert not par["tangential_expected"]
    assert par["agrees_with_regime"]
    auto = tangency_criterion(classify(parse("i*(1-z)^2")))
    assert auto["tangential_expected"]


def test_rigidity_criterion_cases():
    auto = rigidity_criterion(classify(parse("i*(1-z)^2")))
    assert auto["halfplane_predicted"] and auto["is_automorphism_group"]
    pert = rigidity_criterion(classify(_f("perturbed-parabolic")))
    assert pert["halfplane_predicted"] and not pert["is_automorphism_group"]
    nohp = rigidity_criterion(classify(_f("no-halfplane")))
    assert not nohp["halfplane_predicted"]
    assert nohp["re_ab"] == pytest.approx(0.5, abs=1e-6)


def test_halfplane_M_bounded_for_quadrant():
    report = halfplane_criterion_M(linearize(_f("quadrant")))
    assert report["bounded"]
    assert not report["inconclusive"]


def test_halfplane_M_quadrant_matches_closed_form():
    # quadrant's h = e^(i pi/4)(q - 1) with q = sqrt((1+z)/(1-z)) inverts
    # to 1 - z = 2/(q^2 + 1); the statistic is taken at the same start
    # points and times, at 40 digits
    mpmath = pytest.importorskip("mpmath")
    report = halfplane_criterion_M(linearize(_f("quadrant")))
    with mpmath.workdps(40):
        rot = mpmath.exp(1j * mpmath.pi / 4)
        worst = mpmath.mpf(0)
        for z0 in M_GRID:
            z = mpmath.mpc(z0)
            q0 = mpmath.sqrt((1 + z) / (1 - z))
            for k in range(17):  # t = 2^k <= 1e5
                t = mpmath.mpf(2) ** k
                q = q0 + t / rot
                gap = 2 / (q**2 + 1)
                u = 1 - gap
                worst = max(worst, t * (1 - abs(u)) / abs(gap))
    assert report["max_statistic"] == pytest.approx(float(worst), rel=1e-3)


def test_halfplane_M_unbounded_for_bfid_par():
    report = halfplane_criterion_M(linearize(_f("bfid-par")))
    assert not report["bounded"]
    assert report["max_statistic"] > 1e3


def test_theorem_argument_bound_holds():
    for cid in ("quadrant", "parabolic-auto(1)", "bfid-par"):
        verdict = theorem_argument_bound(classify(_f(cid)))
        assert verdict["holds"], cid
