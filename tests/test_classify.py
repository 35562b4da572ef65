import cmath
import math

import pytest

from diskflow.abel import linearize
from diskflow.classify import (
    classify,
    halfplane_criterion_M,
    rigidity_criterion,
    tangency_criterion,
    theorem_argument_bound,
)
from diskflow.expr import parse
from diskflow import catalog


def _f(cid):
    return parse(catalog.get(cid).f_text)


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
    assert profile.taylor_b == pytest.approx(-1.0, abs=1e-6)


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


def test_halfplane_M_unbounded_for_bfid_par():
    report = halfplane_criterion_M(linearize(_f("bfid-par")))
    assert not report["bounded"]
    assert report["max_statistic"] > 1e3


def test_theorem_argument_bound_holds():
    for cid in ("quadrant", "parabolic-auto(1)", "bfid-par"):
        verdict = theorem_argument_bound(classify(_f(cid)))
        assert verdict["holds"], cid
