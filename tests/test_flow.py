import ast
import math
from collections import Counter

import pytest

from diskflow import abel, catalog, flow
from diskflow.abel import linearize
from diskflow.errors import (
    DiskflowError,
    NotInDiskError,
    SingularEvaluationError,
    StiffFailureError,
)
from diskflow.expr import compile_expr, kernel, parse
from diskflow.geometry import horocycle_distance
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


def _dop853_tableau():
    """scipy's DOP853 coefficients as Python floats: the stage rows, the
    weights of u8 and those of the fifth- and third-order estimates,
    each as its nonzero (j, coefficient) pairs."""
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def nonzero(row):
        return tuple((j, float(a)) for j, a in enumerate(row) if a != 0)

    stages = dop.N_STAGES
    rows = tuple(nonzero(dop.A[i, :i]) for i in range(stages))
    return rows, nonzero(dop.B), nonzero(dop.E5[:stages]), nonzero(dop.E3[:stages])


def _weighted_sum(weights, k):
    # left to right, from the first term, as the straight-line step adds
    acc = None
    for j, a in weights:
        acc = a * k[j] if acc is None else acc + a * k[j]
    return acc


def reference_integrate(fn, z0, t_end, atol=ATOL):
    """The generic tableau loop with scipy's DOP853 coefficients: every
    stage from the tableau rows, and the first stage evaluated afresh
    after each accepted step.

    Same step control and termination rules as ``integrate``, including
    the bisection of a backward run's exit time once an accurate attempt
    has left the disk; returns
    ``(samples, termination, rejected steps)``.
    """
    rows, b8, b5, b3 = _dop853_tableau()
    sign = -1.0 if t_end < 0 else 1.0
    t, u = 0.0, complex(z0)
    samples = [(t, u)]
    rejected = 0
    last_rejected = False
    exit_by = None
    k = [0j] * len(rows)
    k[0] = -fn(u)
    h = sign * min(1e-2, abs(t_end) / 10) / max(abs(k[0]), 1.0)
    termination = "horizon-reached"
    while sign * (t_end - t) > 0:
        if abs(h) > abs(t_end - t):
            h = t_end - t
        if abs(h) < 1e-13 * max(1.0, abs(t)):
            raise StiffFailureError(f"step size underflow at t = {t}")
        try:
            for i in range(1, len(rows)):
                k[i] = -fn(u + h * _weighted_sum(rows[i], k))
            u8 = u + h * _weighted_sum(b8, k)
            scale = 0.05 * min(1.0, max(abs(1.0 - u) ** 2, 1e-5))
            err5 = abs(h * _weighted_sum(b5, k)) / scale
            err3 = abs(h * _weighted_sum(b3, k)) / scale
            deno = err5 * err5 + 0.01 * err3 * err3
            err = err5 * err5 / math.sqrt(deno) if deno else 0.0
            bad = not (err == err)
        except (SingularEvaluationError, OverflowError):
            bad, err, u8 = True, math.inf, u
        if not bad and abs(u8) >= 1.0:
            bad = True
            if sign < 0 and err <= atol:
                exit_by = t + h
        if bad or err > atol:
            rejected += 1
            last_rejected = True
            h *= 0.5 if bad else max(0.2, 0.9 * (atol / err) ** 0.125)
            continue
        t += h
        u = u8
        samples.append((t, u))
        if sign < 0 and abs(u) > 1.0 - EXIT_MARGIN:
            termination = "boundary-exit"
            break
        k[0] = -fn(u)
        if abs(k[0]) < STAGNATION_SPEED:
            termination = "stagnation"
            break
        growth = min(MAX_GROWTH, 0.9 * (atol / err) ** 0.125) if err > 0 else MAX_GROWTH
        if last_rejected:
            growth, last_rejected = min(growth, 1.0), False
        h *= growth
        if exit_by is not None and abs(h) > 0.5 * abs(exit_by - t):
            h = 0.5 * (exit_by - t)
    return samples, termination, rejected


@pytest.mark.parametrize("f_text, entry_id, z0, t_end, termination, rejects", [
    # the README example
    ("-(1-z)^2*i", None, 0j, 10.0, "horizon-reached", False),
    (None, "quadrant", 0.3 + 0.2j, -5.0, "boundary-exit", True),
    (None, "bfid-par", 0j, 10.0, "horizon-reached", True),
    (None, "hyperbolic-auto(0.8,0.3)", 0j, -50.0, "boundary-exit", False),
    # forward, with steps rejected by the error test
    (None, "quadrant", 0.6j, 100.0, "horizon-reached", True),
])
def test_integrate_matches_reference_stepper(f_text, entry_id, z0, t_end,
                                             termination, rejects):
    # a mistyped literal in flow._DP_STEP moves the samples
    fn = _catalog_fn(entry_id) if entry_id else compile_expr(parse(f_text))
    samples, ref_termination, rejected = reference_integrate(fn, z0, t_end)
    traj = integrate(fn, z0, t_end)
    assert ref_termination == termination
    assert traj.termination == ref_termination
    assert list(traj.samples) == samples
    assert (rejected > 0) == rejects


def _literal_tableau(mpmath):
    """The weights of each sum in flow._DP_STEP, read from its decimal
    literals at mpmath precision: ``{name: [{j: weight}, ...]}`` for the
    stage points z, u8, e5 and e3, in the order they are written."""
    text = flow._DP_STEP
    (step,) = ast.parse(text).body

    def number(node):
        if isinstance(node, ast.Constant):
            return mpmath.mpf(ast.get_source_segment(text, node))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -number(node.operand)
        assert isinstance(node, ast.BinOp)
        if isinstance(node.op, ast.Add):  # a weight written (c+0j)
            assert isinstance(node.right, ast.Constant)
            imag = node.right.value
            assert type(imag) is complex and imag == 0j
            assert math.copysign(1.0, imag.real) == math.copysign(1.0, imag.imag) == 1.0
            return number(node.left)
        assert isinstance(node.op, ast.Sub)
        return number(node.left) - number(node.right)

    def weights(node, sign, out):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            j = int(node.right.id[1:])  # a term c * k<j>
            assert j not in out
            out[j] = sign * number(node.left)
        else:
            assert isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            weights(node.left, sign, out)
            weights(node.right, -sign if isinstance(node.op, ast.Sub) else sign, out)
        return out

    sums = {"z": [], "u8": [], "e5": [], "e3": []}
    for line in step.body:
        if not isinstance(line, ast.Assign) or line.targets[0].id not in sums:
            continue
        value = line.value
        if isinstance(value, ast.Name):  # z = u8, the first-same-as-last stage
            continue
        if line.targets[0].id in ("z", "u8"):  # u + h * (sum)
            value = value.right.right
        sums[line.targets[0].id].append(weights(value, 1, {}))
    return sums


def test_dop853_literals_satisfy_order_conditions():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        sums = _literal_tableau(mpmath)
        assert [len(sums[name]) for name in ("z", "u8", "e5", "e3")] == [11, 1, 1, 1]
        # nodes of DOP853: c4, c5 = (6 -+ sqrt 6)/30, c3 = 2 c4/3, c2 = 4 c4/9
        c4 = (6 - mpmath.sqrt(6)) / 30
        c = [0, 4 * c4 / 9, 2 * c4 / 3, c4, (6 + mpmath.sqrt(6)) / 30,
             mpmath.mpf(1) / 3, mpmath.mpf(1) / 4, mpmath.mpf(4) / 13,
             mpmath.mpf(127) / 195, mpmath.mpf(3) / 5, mpmath.mpf(6) / 7, 1]
        tol = mpmath.mpf("1e-25")
        for i, row in enumerate(sums["z"], start=1):
            assert max(row) < i
            assert abs(sum(row.values()) - c[i]) < tol
        (b,) = sums["u8"]
        for q in range(1, 9):
            moment = sum(w * c[j] ** (q - 1) for j, w in b.items())
            assert abs(moment - mpmath.mpf(1) / q) < tol
        # the estimates are differences of weights of orders 5 and 3
        (e5,), (e3,) = sums["e5"], sums["e3"]
        for e, order in ((e5, 5), (e3, 3)):
            for q in range(1, order + 1):
                assert abs(sum(w * c[j] ** (q - 1) for j, w in e.items())) < tol


def test_dop853_step_has_order_eight():
    # one fixed step of the compiled kernel against the closed form of
    # i(1-z)^2, F_t(z) = (iz + t(1-z)) / (i + t(1-z)): halving h shrinks
    # the local error by about 2^9
    fn = _catalog_fn("parabolic-auto(1)")
    step = kernel(fn, flow._DP_STEP)
    z0 = 0j
    errors = []
    for h in (0.25, 0.125):
        u8, _, _, k12 = step(z0, h, -fn(z0))
        exact = (1j * z0 + h * (1 - z0)) / (1j + h * (1 - z0))
        errors.append(abs(u8 - exact))
        assert k12 == -fn(u8)  # first same as last
    assert abs(math.log2(errors[0] / errors[1]) - 9) < 0.5


def test_integrate_rejection_does_not_regrow_into_the_boundary():
    # the backward quadrant run halves h at each landing outside the disk;
    # regrown by up to 5x after each cut, the next attempt landed outside
    # again, 985 evaluations in 82 attempts.  With no growth right after a
    # rejection it took 52 attempts of 12, 27 of them rejected: each
    # accepted step was tried again at the same size and left the disk.
    # Bisecting the exit time takes one attempt per halving, 37 in all,
    # with the same 25 accepted steps
    fn = _catalog_fn("quadrant")
    calls = []

    def counting(z):
        calls.append(z)
        return fn(z)

    traj = integrate(counting, 0.3 + 0.2j, -5.0)
    assert traj.termination == "boundary-exit"
    assert len(traj.samples) == 1 + 25
    assert len(calls) <= 1 + 12 * 37


@pytest.mark.parametrize("entry_id, z0, t_end", [
    ("hyperbolic-auto(0.6731,0.8308)", -0.8954336935202049 - 0.30378366440424914j,
     35.53432119084598),
    ("hyperbolic-auto(0.9533,-0.8583)", 0.009838407917038411 + 0.94630243092401456j,
     76.11364270564412),
    ("hyperbolic-auto(0.9656,-0.9246)", -0.4544186764255461 + 0.79348812572513683j,
     98.081991629861),
])
def test_forward_run_reaching_one_within_rounding_stays_inside(entry_id, z0, t_end):
    # these orbits come within an ulp of 1 before the horizon, where the
    # end of a long step rounds to |u| = 1: it is retried shorter, and the
    # run stops by stagnation instead of failing as a disk exit
    traj = integrate(_catalog_fn(entry_id), z0, t_end)
    assert traj.termination == "stagnation"
    assert all(abs(z) < 1.0 for _, z in traj.samples)


def test_forward_exit_of_a_non_generator_fails():
    # u' = u leaves the disk from 0.5 at t = log 2; every landing outside
    # is rejected, so the step underflows there
    with pytest.raises(StiffFailureError) as exc:
        integrate(compile_expr(parse("-z")), 0.5 + 0j, 10.0)
    assert exc.value.trajectory.end[0] == pytest.approx(math.log(2), abs=1e-9)


def test_integrate_evaluates_each_sample_once():
    # first same as last: the thirteenth stage of an accepted step is f at
    # the new sample, and the next step starts from it.  (Steps too short
    # to move a point by one ulp, as next to the exit margin, evaluate a
    # sample again as a stage point; these runs take none.)
    runs = (("quadrant", 0.6j, 1e4), ("perturbed-parabolic", -0.9 + 0j, 1e4))
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
    # a tolerance or a profile horizon must be positive and finite
    for atol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DiskflowError, match="atol"):
            integrate(counting, 0.2j, 1.0, atol=atol)
    for horizon in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DiskflowError, match="horizon"):
            convergence_profile(counting, 0.2j, horizon=horizon)
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


@pytest.mark.parametrize("entry_id", ["parabolic-auto(1)", "quadrant", "bfid-par"])
def test_convergence_profile_starts_as_integrate(entry_id):
    # the profile is one run through its checkpoints, and up to the first,
    # t = 1, it is the run integrate makes to t = 1
    fn = _catalog_fn(entry_id)
    z0 = 0.3 + 0.2j
    u = integrate(fn, z0, 1.0).end[1]
    prof = convergence_profile(fn, z0, horizon=1e4)
    assert prof.samples[0] == (1.0, horocycle_distance(u), (1.0 - abs(u)) / abs(1.0 - u))


@pytest.mark.parametrize("b", [1.0, -2.0])
@pytest.mark.parametrize("z0", [0j, 0.3 + 0.2j, -0.5 + 0.6j])
def test_convergence_profile_keeps_the_horocycle_of_an_automorphism(b, z0):
    # the flow of i b (1-z)^2 moves each point along its horocycle, so d
    # stays at d(z0) at every checkpoint, to 1e-9 plus the rounding of
    # u: one ulp of u moves d by about eps / (2 ratio^2), 1.1e-8 at
    # t = 1e4, where the exact F_t rounded to a double misses by 1.8e-8
    fn = _catalog_fn(f"parabolic-auto({b:g})")
    d0 = horocycle_distance(z0)
    prof = convergence_profile(fn, z0, horizon=1e4)
    assert len(prof.samples) == 33
    for _, d, ratio in prof.samples:
        assert abs(d - d0) <= 1e-9 + 4 * 2.2e-16 / ratio ** 2


@pytest.mark.parametrize("entry_id, cap", [
    # one run through the 33 checkpoints; restarting integrate at each
    # took 4,425, 4,725, 3,573 and 2,349 evaluations
    ("parabolic-auto(1)", 3000),
    ("quadrant", 3000),
    ("bfid-par", 2300),
    ("hyperbolic-auto(0.5,0)", 1900),
])
def test_convergence_profile_cost(entry_id, cap):
    fn = _catalog_fn(entry_id)
    calls = []

    def counting(z):
        calls.append(z)
        return fn(z)

    prof = convergence_profile(counting, 0j, horizon=1e4)
    assert len(prof.samples) == 33
    assert len(calls) <= cap


def test_convergence_profile_abel_leg_is_one_walk(monkeypatch):
    # past 1e4 the profile walks one orbit from its ODE point, so h is
    # integrated once, at that point, not once per checkpoint
    model = linearize(parse(catalog.get("quadrant").f_text))
    calls = []
    abel_h = abel.abel_h

    def counted_abel_h(f, z):
        calls.append(z)
        return abel_h(f, z)

    monkeypatch.setattr(abel, "abel_h", counted_abel_h)
    prof = convergence_profile(model.f, 0j, horizon=1e6, orbit=model.orbit)
    assert len(prof.samples) > 40
    assert len(calls) == 1


def test_convergence_profile_stops_at_the_rounding_floor():
    # this orbit reaches 1 - |u| of a few ulps by t = 24; flowing such a
    # point on to t = 1e4 only sampled rounding noise
    fn = _catalog_fn("hyperbolic-auto(0.7631,-0.2771)")
    prof = convergence_profile(fn, -0.13341380158923524 + 0.88106148390791006j,
                               horizon=1e4)
    assert prof.regime == "nontangential"
    assert prof.samples[-1][0] < 100.0
