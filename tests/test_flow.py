import cmath
import math
from collections import Counter

import pytest

from diskflow import catalog
from diskflow.errors import (
    DiskflowError,
    NotInDiskError,
    SingularEvaluationError,
    StiffFailureError,
)
from diskflow.expr import compile_expr, parse
from diskflow.flow import (
    ATOL,
    EXIT_MARGIN,
    MAX_GROWTH,
    STAGNATION_SPEED,
    backward_extendability,
    convergence_profile,
    flow_point,
    integrate,
    semigroup_residual,
)

AUTO = compile_expr(parse("i*(1-z)^2"))


def _catalog_fn(entry_id):
    return compile_expr(parse(catalog.get(entry_id).f_text))


# Dormand-Prince 5(4) tableau for the reference stepper below
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


def reference_integrate(fn, z0, t_end, atol=ATOL):
    """The generic tableau loop: every stage from the tableau rows, and
    the first stage evaluated afresh after each accepted step.

    Same step control and termination rules as ``integrate``; returns
    ``(samples, termination, rejected steps)``.
    """
    sign = -1.0 if t_end < 0 else 1.0
    t, u = 0.0, complex(z0)
    samples = [(t, u)]
    rejected = 0
    k = [0j] * 7
    k[0] = -fn(u)
    h = sign * min(1e-2, abs(t_end) / 10) / max(abs(k[0]), 1.0)
    termination = "horizon-reached"
    while sign * (t_end - t) > 0:
        if abs(h) > abs(t_end - t):
            h = t_end - t
        if abs(h) < 1e-13 * max(1.0, abs(t)):
            raise StiffFailureError(f"step size underflow at t = {t}")
        try:
            for i in range(1, 7):
                acc = 0j
                for j, a in enumerate(_A[i]):
                    acc += a * k[j]
                k[i] = -fn(u + h * acc)
            u5 = u + h * sum(b * ki for b, ki in zip(_B5, k))
            u4 = u + h * sum(b * ki for b, ki in zip(_B4, k))
            scale = 0.05 * min(1.0, max(abs(1.0 - u) ** 2, 1e-5))
            err = abs(u5 - u4) / scale
            bad = not (err == err)
        except (SingularEvaluationError, OverflowError):
            bad, err, u5 = True, math.inf, u
        if sign < 0 and not bad and abs(u5) >= 1.0:
            bad = True
        if bad or err > atol:
            rejected += 1
            h *= 0.5 if bad else max(0.2, 0.9 * (atol / err) ** 0.2)
            continue
        t += h
        u = u5
        samples.append((t, u))
        if sign > 0 and abs(u) >= 1.0:
            raise StiffFailureError(f"forward trajectory left the disk at t = {t}")
        if sign < 0 and abs(u) > 1.0 - EXIT_MARGIN:
            termination = "boundary-exit"
            break
        k[0] = -fn(u)
        if abs(k[0]) < STAGNATION_SPEED:
            termination = "stagnation"
            break
        h *= min(MAX_GROWTH, 0.9 * (atol / err) ** 0.2) if err > 0 else MAX_GROWTH
    return samples, termination, rejected


@pytest.mark.parametrize("f_text, entry_id, z0, t_end, termination, rejects", [
    # the README example
    ("-(1-z)^2*i", None, 0j, 10.0, "horizon-reached", False),
    (None, "quadrant", 0.3 + 0.2j, -5.0, "boundary-exit", True),
    (None, "bfid-par", 0j, 10.0, "horizon-reached", False),
    (None, "hyperbolic-auto(0.8,0.3)", 0j, -50.0, "boundary-exit", False),
    # forward, with steps rejected by the error test
    (None, "quadrant", 0.6j, 100.0, "horizon-reached", True),
])
def test_integrate_matches_reference_stepper(f_text, entry_id, z0, t_end,
                                             termination, rejects):
    fn = _catalog_fn(entry_id) if entry_id else compile_expr(parse(f_text))
    samples, ref_termination, rejected = reference_integrate(fn, z0, t_end)
    traj = integrate(fn, z0, t_end)
    assert ref_termination == termination
    assert traj.termination == ref_termination
    assert list(traj.samples) == samples
    assert (rejected > 0) == rejects


def test_integrate_evaluates_each_sample_once():
    # first same as last: the seventh stage of an accepted step is f at
    # the new sample, and the next step starts from it.  (Steps too short
    # to move a point by one ulp, as next to the exit margin, evaluate a
    # sample again as a stage point; these runs take none.)
    runs = (("quadrant", 0.6j, 100.0), ("hyperbolic-auto(0.8,0.3)", 0j, -50.0))
    for entry_id, z0, t_end in runs:
        fn = _catalog_fn(entry_id)
        points = []

        def counting(z):
            points.append(z)
            return fn(z)

        traj = integrate(counting, z0, t_end)
        assert len(traj.samples) > 200
        calls = Counter(points)
        assert all(calls[z] == 1 for _, z in traj.samples)


def test_automorphism_flow_matches_closed_form():
    # generator i b (1-z)^2 integrates to (ibz + t(1-z)) / (ib + t(1-z))
    for z0 in (0j, 0.4 - 0.3j):
        for t in (0.5, 3.0, 10.0):
            u = flow_point(AUTO, z0, t)
            ref = (1j * z0 + t * (1 - z0)) / (1j + t * (1 - z0))
            assert u == pytest.approx(ref, abs=1e-10)


def test_integrate_rejects_nan_inputs():
    calls = []

    def counting(z):
        calls.append(z)
        return AUTO(z)

    with pytest.raises(DiskflowError) as exc:
        integrate(counting, 0.2j, math.nan)
    assert "not a number" in str(exc.value)
    # a NaN start is not inside the disk
    with pytest.raises(NotInDiskError):
        integrate(counting, complex(math.nan, 0.0), 1.0)
    assert not calls


def test_integrate_infinite_horizon_ends_by_termination_rule():
    # an infinite horizon is never reached: the forward run stagnates at
    # the attracting point, the backward run leaves at the exit margin
    assert integrate(AUTO, 0.2j, math.inf).termination == "stagnation"
    assert integrate(AUTO, 0.2j, -math.inf).termination == "boundary-exit"


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
