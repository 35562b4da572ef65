import cmath
import math

import pytest

from diskflow import catalog
from diskflow.expr import compile_expr, parse
from diskflow.flow import (
    backward_extendability,
    convergence_profile,
    flow_point,
    integrate,
    semigroup_residual,
)

AUTO = compile_expr(parse("i*(1-z)^2"))


def test_automorphism_flow_matches_closed_form():
    # generator i b (1-z)^2 integrates to (ibz + t(1-z)) / (ib + t(1-z))
    for z0 in (0j, 0.4 - 0.3j):
        for t in (0.5, 3.0, 10.0):
            u = flow_point(AUTO, z0, t)
            ref = (1j * z0 + t * (1 - z0)) / (1j + t * (1 - z0))
            assert u == pytest.approx(ref, abs=1e-10)


def test_integrate_propagates_bugs():
    # only singular evaluations and overflow shrink the step; a bug in
    # the callable once integration is under way must surface
    calls = []

    def flaky(z):
        calls.append(z)
        if len(calls) > 2:
            raise TypeError("not a singular evaluation")
        return 1j * (1 - z) ** 2

    with pytest.raises(TypeError):
        integrate(flaky, 0j, 1.0)


def test_semigroup_property():
    for f_text in ("i*(1-z)^2", "-(1-z)^2 - 0.5*(1-z)^3", "0.5*(z^2-1)"):
        fn = compile_expr(parse(f_text))
        assert semigroup_residual(fn, 0.2 + 0.1j, 0.7, 1.3) < 1e-10


def test_integrate_records_trajectory():
    traj = integrate(AUTO, 0j, 5.0)
    assert traj.termination == "horizon-reached"
    t_end, z_end = traj.end
    assert t_end == pytest.approx(5.0)
    assert abs(z_end) < 1
    ts = [t for t, _ in traj.samples]
    assert ts == sorted(ts)


def test_csv_rows_shape():
    traj = integrate(AUTO, 0j, 1.0)
    row = next(iter(traj.csv_rows()))
    assert len(row) == 5
    t, re, im, d, gap = row
    assert t == 0.0 and re == 0.0 and im == 0.0
    assert d == pytest.approx(1.0)
    assert gap == pytest.approx(1.0)


def test_backward_extendability_hyperbolic():
    # the flow of 0.5(z^2-1) runs backward to the repelling point -1
    fn = compile_expr(parse("0.5*(z^2-1)"))
    report = backward_extendability(fn, 0j)
    assert report["extendable"]
    assert report["limit_point"] == pytest.approx(-1.0, abs=1e-6)
    # a(z^2-1) + ib(1-z)^2 runs back to eta = -(a - ib)/(a + ib); the run
    # stops at the exit margin, where u/|u| already is the limit
    a, b = 0.8, 0.3
    fn = compile_expr(parse(catalog.get(f"hyperbolic-auto({a},{b})").f_text))
    report = backward_extendability(fn, 0j)
    assert report["extendable"]
    eta = -(a - 1j * b) / (a + 1j * b)
    assert report["limit_point"] == pytest.approx(eta, abs=1e-6)


def test_backward_extendability_limit_before_exit_margin():
    # for a = 0.15 the backward run from 0 reaches t = -50 well inside the
    # exit margin; the direction of its last sample is already within
    # 1e-6 of the repelling point eta
    a, b = 0.15, 0.1
    fn = compile_expr(parse(catalog.get(f"hyperbolic-auto({a},{b})").f_text))
    assert integrate(fn, 0j, -50.0).termination == "horizon-reached"
    report = backward_extendability(fn, 0j)
    assert report["extendable"]
    eta = -(a - 1j * b) / (a + 1j * b)
    assert abs(report["limit_point"] - eta) <= 1e-6


def test_backward_extendability_fails_off_axis():
    # for the parabolic automorphism no interior point flows backward
    # forever except along the group orbit; perturbed starts exit
    fn = compile_expr(parse("-(1-z)^2"))
    report = backward_extendability(fn, 0.5 + 0j)
    assert not report["extendable"]


def test_convergence_profile_nontangential():
    prof = convergence_profile(parse("0.5*(z^2-1)"), 0j, horizon=100.0)
    assert prof.regime == "nontangential"


def test_convergence_profile_strongly_tangential():
    prof = convergence_profile(parse("i*(1-z)^2"), 0j, horizon=1e4)
    assert prof.regime == "strongly-tangential"
    assert prof.d_limit == pytest.approx(1.0, abs=1e-6)
