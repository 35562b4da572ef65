import ast
import math
from collections import Counter

import pytest
from conftest import counted_callable

from diskflow import catalog, expr, flow
from diskflow.errors import (
    DiskflowError,
    NotInDiskError,
    SingularEvaluationError,
    StiffFailureError,
)
from diskflow.expr import chart_form, compile_expr, gap_form, kernel, parse
from diskflow.geometry import horocycle_distance
from diskflow.jsonio import trajectory_csv
from diskflow.flow import (
    ATOL,
    EXIT_MARGIN,
    MAX_GROWTH,
    MAX_SPACING,
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
    """The generic tableau loop with scipy's DOP853 coefficients, in the
    half-plane chart w = (1 + z)/(1 - z): every stage from the tableau
    rows, and the first stage evaluated afresh after each accepted step.

    A stage is the slope 2p(w) of w' = 2p(w) from the chart form of
    ``fn``, f there being -(1/2) 2p(w) d^2 at d = 2/(w + 1); a callable
    with no chart form takes it from f at d, by its gap form or at the
    rounded point 1 - d.  Same step control and termination rules as
    ``integrate``: the relative norm in w, its rounding floor for a
    callable with neither form, the spacing cap, the bisection of a
    backward run's exit time once an accurate attempt has left the disk,
    and stagnation once the chart point has stopped (|d| or |2p(w)|/|w|
    below STAGNATION_SPEED); returns ``(samples, termination, rejected
    steps)``.
    """
    rows, b8, b5, b3 = _dop853_tableau()
    chart, gap = chart_form(fn), gap_form(fn)

    def stage(w):
        # the slope k = 2p(w) and f at w
        if chart is not None:
            k = chart(w)
            d = (2+0j) / (w + (1+0j))
            return k, (-0.5+0j) * k * (d * d)
        # 2p(w) = -f b^2 / 2 with b = w + 1, f read at the gap d = 2/b
        b = w + (1+0j)
        d = (2+0j) / b
        v = fn((1+0j) - d) if gap is None else gap(d)
        return (-0.5+0j) * v * (b * b), v

    sign = -1.0 if t_end < 0 else 1.0
    t, u = 0.0, complex(z0)
    w = ((1+0j) + u) / ((1+0j) - u)
    samples = [(t, u)]
    rejected = 0
    last_rejected = False
    exit_by = None
    k = [0j] * len(rows)
    if chart is None:
        v = fn(u) if gap is None else gap((1+0j) - u)
        k[0] = (-0.5+0j) * v * ((w + (1+0j)) * (w + (1+0j)))
    else:
        k[0], v = stage(w)
    h = sign * min(1e-2, abs(t_end) / 10) / max(abs(v), 1.0)
    termination = "horizon-reached"
    while sign * (t_end - t) > 0:
        if abs(h) > abs(t_end - t) - 1e-13 * max(1.0, abs(t)):
            h = t_end - t
        if abs(h) < 1e-13 * max(1.0, abs(t)):
            raise StiffFailureError(f"step size underflow at t = {t}")
        try:
            for i in range(1, len(rows)):
                k[i] = stage(w + h * _weighted_sum(rows[i], k))[0]
            w8 = w + h * _weighted_sum(b8, k)
            scale = 0.05 * atol * max(1.0, abs(w), abs(w8))
            if chart is None and gap is None:
                scale = max(scale, 64 * 2.3e-16 * abs(h * k[0]) * abs(w + 1))
            err5 = abs(h * _weighted_sum(b5, k)) / scale
            err3 = abs(h * _weighted_sum(b3, k)) / scale
            deno = err5 * err5 + 0.01 * err3 * err3
            err = err5 * err5 / math.sqrt(deno) if deno else 0.0
            bad = not (err == err)
            u8 = (1+0j) - (2+0j) / (w8 + (1+0j))
            if abs(u8) >= 1.0 and w8.real > 0.0:
                u8 *= 1.0 - 2.0 ** -52
        except (SingularEvaluationError, OverflowError):
            bad, err = True, math.inf
        if not bad and abs(u8) >= 1.0:
            bad = True
            if sign < 0 and err <= 1.0:
                exit_by = t + h
        if bad or err > 1.0:
            rejected += 1
            last_rejected = True
            h *= 0.5 if bad else max(0.2, 0.9 * err ** -0.125)
            continue
        t += h
        w, u = w8, u8
        samples.append((t, u))
        if sign < 0 and abs(u) > 1.0 - EXIT_MARGIN:
            termination = "boundary-exit"
            break
        k[0], v = stage(w)
        # stagnation: the chart point has stopped
        if (abs((2+0j) / (w + (1+0j))) < STAGNATION_SPEED
                or abs(k[0]) < STAGNATION_SPEED * abs(w)):
            termination = "stagnation"
            break
        growth = min(MAX_GROWTH, 0.9 * err ** -0.125) if err > 0 else MAX_GROWTH
        if last_rejected:
            growth, last_rejected = min(growth, 1.0), False
        h *= growth
        if abs(h) * abs(v) > MAX_SPACING:
            h = sign * MAX_SPACING / abs(v)
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
    (None, "angular-only(0.5)", -0.9 + 0j, 100.0, "horizon-reached", True),
    # |f(u)| falls below STAGNATION_SPEED at t = 9.562e4 while w still moves
    (None, "power(-0.5,1)", 0j, 2e5, "horizon-reached", False),
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


@pytest.mark.parametrize("entry_id, z0, t_end, termination", [
    ("quadrant", 0.3 + 0.2j, -5.0, "boundary-exit"),
    # the norm's rounding floor decides most steps of this run
    ("hyperbolic-auto(0.5,0.3)", 0.3j, 50.0, "stagnation"),
])
def test_rounded_point_run_matches_reference_stepper(entry_id, z0, t_end, termination):
    # a callable with no gap form is evaluated at z = 1 - d, under the
    # rounding floor of the norm
    fn = _catalog_fn(entry_id)
    rounded = lambda z: fn(z)  # noqa: E731
    samples, ref_termination, _ = reference_integrate(rounded, z0, t_end)
    traj = integrate(rounded, z0, t_end)
    assert traj.termination == ref_termination == termination
    assert list(traj.samples) == samples


def _literal_tableau(mpmath):
    """The weights of each sum in flow._DP_STEP, read from its decimal
    literals at mpmath precision: ``{name: [{j: weight}, ...]}`` for the
    points w (the eleven stage points, then the eighth-order point) and
    the estimates e5 and e3, in the order they are written."""
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

    sums = {"w": [], "e5": [], "e3": []}
    for line in step.body:
        if not isinstance(line, ast.Assign) or line.targets[0].id not in sums:
            continue
        value = line.value
        if line.targets[0].id == "w":  # y + h * (sum)
            value = value.right.right
        sums[line.targets[0].id].append(weights(value, 1, {}))
    return sums


def test_dop853_literals_satisfy_order_conditions():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        sums = _literal_tableau(mpmath)
        assert [len(sums[name]) for name in ("w", "e5", "e3")] == [12, 1, 1]
        *stages, b = sums["w"]
        # nodes of DOP853: c4, c5 = (6 -+ sqrt 6)/30, c3 = 2 c4/3, c2 = 4 c4/9
        c4 = (6 - mpmath.sqrt(6)) / 30
        c = [0, 4 * c4 / 9, 2 * c4 / 3, c4, (6 + mpmath.sqrt(6)) / 30,
             mpmath.mpf(1) / 3, mpmath.mpf(1) / 4, mpmath.mpf(4) / 13,
             mpmath.mpf(127) / 195, mpmath.mpf(3) / 5, mpmath.mpf(6) / 7, 1]
        tol = mpmath.mpf("1e-25")
        for i, row in enumerate(stages, start=1):
            assert max(row) < i
            assert abs(sum(row.values()) - c[i]) < tol
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
    # 0.5 (z^2 - 1), whose flow in the chart is w' = w, w(t) = w0 e^t:
    # halving h shrinks the local error by about 2^9
    fn = _catalog_fn("hyperbolic-auto(0.5,0)")
    chart = chart_form(fn)
    step = kernel(fn, flow._DP_STEP)
    w0 = 1 + 0j  # z0 = 0
    errors = []
    for h in (1.0, 0.5):
        w8, _, _, k12, d, v = step(w0, h, chart(w0))
        errors.append(abs(w8 - w0 * math.exp(h)))
        # first same as last: the thirteenth stage is taken at w8, and f
        # there is read from it
        assert k12 == chart(w8) == w8  # 2p(w) = w
        assert d == 2 / (w8 + 1) and v == (-0.5+0j) * k12 * (d * d)
        assert abs(v - fn(1 - d)) <= 1e-15 * abs(v)
    assert abs(math.log2(errors[0] / errors[1]) - 9) < 0.5


def test_integrate_rejection_does_not_regrow_into_the_boundary():
    # the backward quadrant run halves h at each landing outside the disk;
    # regrown by up to 5x after each cut, the next attempt landed outside
    # again, 972 evaluations in 81 attempts.  With no growth right after a
    # rejection it took 52 attempts of 12: each accepted step was tried
    # again at the same size and left the disk.  Bisecting the exit time
    # takes one attempt per halving, 39 in all, with the same 25 accepted
    # steps
    fn = _catalog_fn("quadrant")
    calls = []

    def counting(z):
        calls.append(z)
        return fn(z)

    traj = integrate(counting, 0.3 + 0.2j, -5.0)
    assert traj.termination == "boundary-exit"
    assert len(traj.samples) == 1 + 25
    assert len(calls) <= 1 + 12 * 39


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


@pytest.mark.parametrize("entry_id, z0, t_end", [
    ("hyperbolic-auto(0.8453,0.7105)", 0.5623367860659556 - 0.8269082968620093j,
     17.922938661979106),
    ("parabolic-auto(1)", 0.059287939619217585 + 0.99824092293176j, 0.17175676772419043),
])
def test_step_short_of_the_stop_by_rounding_lands_on_it(entry_id, z0, t_end):
    # a cut step rejected and halved left two halves whose sum fell an
    # ulp short of the horizon; the run then failed with a step size
    # underflow there instead of reaching it
    fn = _catalog_fn(entry_id)
    for f in (fn, lambda z: fn(z)):
        traj = integrate(f, z0, t_end)
        assert traj.termination == "horizon-reached"
        assert traj.end[0] == t_end


def test_sample_rounding_onto_the_circle_moves_inward():
    # this orbit runs within an ulp of the circle from t = 15.7 on, long
    # before it stagnates: its chart point stays inside while u = 1 - d
    # can round onto the circle, and rejecting such steps ended the run
    # in a step size underflow; the sample is the next double inward
    fn = _catalog_fn("hyperbolic-auto(0.5,0)")
    for f in (fn, lambda z: fn(z)):
        traj = integrate(f, -0.5177776935354605 + 0.855515201431167j, 48.6304687441961)
        assert traj.termination == "stagnation"
        assert all(abs(z) < 1.0 for _, z in traj.samples)


def test_rounded_point_run_does_not_crawl():
    # f at the rounded point z = 1 - d is off by about eps |w + 1|
    # relative; the estimates pick that up, and without the norm's floor
    # this run was still at t = 23.7, |1 - z| = 1.2e-10, after 200,000
    # attempts.  With it: 72 attempts of 12 evaluations
    fn = _catalog_fn("hyperbolic-auto(0.5,0.3)")
    calls = []

    def counting(z):
        calls.append(z)
        return fn(z)

    traj = integrate(counting, 0.3j, 50.0)
    assert traj.termination == "stagnation"
    assert len(calls) <= 1 + 12 * 80


@pytest.mark.parametrize("entry_id, z0, t_end", [
    ("hyperbolic-auto(0.7631,-0.2771)", -0.9104636422201863 + 0.10147843337073227j,
     90.38522440263198),
    ("hyperbolic-auto(0.8864,-0.0116)", 0.7559765114079031 + 0.43343665166750966j,
     23.486584258903136),
    ("hyperbolic-auto(0.5993,-0.5151)", 0.8837290840234016 + 0.081733898396804366j,
     59.30773022692387),
])
def test_rounded_point_samples_stay_inside(entry_id, z0, t_end):
    # on the rounded-point path these orbits end within a few ulps of the
    # circle, where a sample u = 1 - d can round to |u| = 1 and would have
    # no horocycle level for its CSV row.  They took 93, 65 and 59
    # samples; without the norm's floor they crawled, 243,670 to 663,777
    fn = _catalog_fn(entry_id)
    traj = integrate(lambda z: fn(z), z0, t_end)
    assert traj.termination == "stagnation"
    assert len(traj.samples) < 200
    assert all(abs(z) < 1.0 for _, z in traj.samples)
    assert len(trajectory_csv(traj).splitlines()) == 1 + len(traj.samples)


def test_readme_trace_keeps_its_spacing():
    # a parabolic orbit is a straight line in the chart, which DOP853
    # steps exactly: uncapped, the README trace takes 7 samples, one of
    # them a jump of 0.53 that shows in the SVG polyline
    traj = integrate(compile_expr(parse("-(1-z)^2*i")), 0j, 10.0)
    moves = [abs(b - a) for (_, a), (_, b) in zip(traj.samples, traj.samples[1:])]
    assert max(moves) <= MAX_SPACING
    assert len(traj.samples) > 20


def test_forward_exit_of_a_non_generator_fails():
    # u' = u leaves the disk from 0.5 at t = log 2; every landing outside
    # is rejected, so the step underflows there
    with pytest.raises(StiffFailureError) as exc:
        integrate(compile_expr(parse("-z")), 0.5 + 0j, 10.0)
    assert exc.value.trajectory.end[0] == pytest.approx(math.log(2), abs=1e-9)


def test_integrate_evaluates_each_sample_once():
    # first same as last: the thirteenth stage of an accepted step is the
    # slope at the chart point w of the new sample u = 1 - 2/(w + 1), and
    # the next step starts from it; the first stage is the slope at the
    # start.  (Steps too short to move a point by one ulp, as next to the
    # exit margin, evaluate a sample again as a stage point; these runs
    # take none.)
    runs = (("quadrant", 0.6j, 1e4), ("perturbed-parabolic", -0.9 + 0j, 1e4))
    for entry_id, z0, t_end in runs:
        counted, evals = counted_callable(_catalog_fn(entry_id))
        count_chart = counted.chart
        points = []

        def recording(w):
            points.append(w)
            return count_chart(w)

        counted.chart = recording
        traj = integrate(counted, z0, t_end)
        assert len(traj.samples) > 60
        assert evals[0] == len(points)  # every stage in the chart
        assert points[0] == ((1+0j) + z0) / ((1+0j) - z0)
        calls = Counter((1+0j) - (2+0j) / (w + (1+0j)) for w in points)
        assert all(calls[z] == 1 for _, z in traj.samples[1:])


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


def _near_circle(direction, gap):
    # the point at 1 - |z| = gap (about) in the given direction
    return (1.0 - gap) * direction / abs(direction)


@pytest.mark.parametrize("entry_id, direction, t_end", [
    ("power(-0.5,1)", -0.6668 + 0.7452j, -132.7),
    ("perturbed-parabolic", -0.4855 + 0.8742j, -2.5),
])
def test_backward_run_from_past_the_exit_margin_ends_at_once(entry_id, direction, t_end):
    # a start already past the exit margin ends the run at t = 0 with its
    # one sample; each backward attempt from it left the disk, and the
    # bisection of the exit time ended in a step size underflow at t = 0
    fn = _catalog_fn(entry_id)
    z0 = _near_circle(direction, 1e-13)
    assert abs(z0) > 1.0 - EXIT_MARGIN
    traj = integrate(fn, z0, t_end)
    assert traj.termination == "boundary-exit"
    assert traj.samples == ((0.0, z0),)
    # |f| is of order one there: the orbit crosses the circle
    report = backward_extendability(fn, z0)
    assert report == {"extendable": False, "limit_point": None, "exit_time": 0.0}


@pytest.mark.xfail(strict=True, raises=StiffFailureError, reason=(
    "the orbit passes about sqrt(2 Re w0 Im(w0 - i)) = 2.4e-7 from w = i, a pole "
    "of p on the boundary (z = i, where 1 + z^2 = 0): there |w'| = 2/|w - i| is "
    "about 1e7 and DOP853 needs steps of about |w - i|^2/2, below the floor "
    "1e-13 max(1, |t|) of the step size, at t = 0.01359"))
def test_forward_run_past_a_boundary_pole_of_p():
    fn = _catalog_fn("bfid-par")
    traj = integrate(fn, _near_circle(0.2130 + 0.9770j, 9.1e-14), 80.2)
    assert traj.termination == "horizon-reached"


def test_expression_with_no_chart_form_takes_its_slopes_in_the_gap(monkeypatch):
    # where the chart code does not compile, each stage is
    # -f(1 - d) (w + 1)^2 / 2 by the gap form, f at the new point is the
    # gap form's own value, and the samples are those of that stepper
    compile_source = expr._compile

    def no_chart_code(source):
        if "def call_chart(" in source:
            raise RecursionError("maximum recursion depth exceeded")
        return compile_source(source)

    monkeypatch.setattr(expr, "_compile", no_chart_code)
    for entry_id, z0, t_end in (("quadrant", 0.3 + 0.2j, -5.0), ("bfid-par", 0j, 10.0),
                                ("angular-only(0.5)", -0.9 + 0j, 100.0)):
        fn = _catalog_fn(entry_id)
        assert chart_form(fn) is None and gap_form(fn) is not None
        samples, termination, _ = reference_integrate(fn, z0, t_end)
        traj = integrate(fn, z0, t_end)
        assert traj.termination == termination
        assert list(traj.samples) == samples


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
    # t = 1, it is the run integrate makes to t = 1; the profile reads
    # that run's chart point w, whose sample u is integrate's end, so its
    # d and ratio are those of u up to the rounding of u
    fn = _catalog_fn(entry_id)
    z0 = 0.3 + 0.2j
    u = integrate(fn, z0, 1.0).end[1]
    *_, (t, u_run, w, _, termination) = flow._steps(fn, z0, (1.0,), ATOL)
    assert (t, u_run, termination) == (1.0, u, "horizon-reached")
    prof = convergence_profile(fn, z0, horizon=1e4)
    ratio = 2 * w.real / (abs(w + 1) * (1 + abs(u)))
    assert prof.samples[0] == (1.0, 1 / w.real, ratio)
    assert prof.samples[0][1] == pytest.approx(horocycle_distance(u), rel=1e-15)
    assert ratio == pytest.approx((1.0 - abs(u)) / abs(1.0 - u), rel=1e-15)


@pytest.mark.parametrize("b", [1.0, -2.0])
@pytest.mark.parametrize("z0", [0j, 0.3 + 0.2j, -0.5 + 0.6j])
def test_convergence_profile_keeps_the_horocycle_of_an_automorphism(b, z0):
    # the flow of i b (1-z)^2 moves each point along its horocycle, so d
    # stays at d(z0) at every checkpoint.  In the chart it is the line
    # w' = -2ib, and d = 1/Re w is read from the carried w: the drift is
    # at most 4.7e-14 of d(z0) up to t = 1e4, where d read from the
    # double u drifted by 8.5e-8 (about eps / (2 ratio^2) per ulp of u)
    fn = _catalog_fn(f"parabolic-auto({b:g})")
    d0 = horocycle_distance(z0)
    prof = convergence_profile(fn, z0, horizon=1e4)
    assert len(prof.samples) == 33
    for _, d, _ in prof.samples:
        assert abs(d - d0) <= 1e-13 * d0


@pytest.mark.parametrize("entry_id, closed_form", [
    pytest.param(entry_id, closed_form, id=entry_id) for entry_id, closed_form in (
        ("parabolic-auto(1)", lambda t: 1.0),
        ("power(-0.5,1)", lambda t: 1.0 / (2.0 * (1.0 + t / 2.0) ** 2 - 1.0)),
        ("quadrant", lambda t: 1.0 / (1.0 + math.sqrt(2.0) * t)),
    )
])
def test_convergence_profile_keeps_the_horocycle_level_to_1e6(entry_id, closed_form):
    # one chart run to the horizon lands on all 49 checkpoints: w moves on
    # after |f(u)| falls below STAGNATION_SPEED (at t = 9.562e4 on
    # power(-0.5,1) and 7.766e4 on quadrant), and d = 1/Re w keeps the
    # level that u = 1 - d rounds away
    fn = _catalog_fn(entry_id)
    prof = convergence_profile(fn, 0j, horizon=1e6)
    assert len(prof.samples) == 49
    for t, d, _ in prof.samples:
        assert d == pytest.approx(closed_form(t), rel=1e-9), t
    if entry_id != "parabolic-auto(1)":
        assert integrate(fn, 0j, 1e6).termination == "horizon-reached"


@pytest.mark.parametrize("entry_id, cap", [
    # one run through the 33 checkpoints, counted on the production path
    # (f in the gap): 673, 1,981, 1,285 and 1,861 evaluations.  Stepped in
    # z, the run took 2,713, 2,701, 2,053 and 1,705; restarting integrate
    # at each checkpoint took 4,425, 4,725, 3,573 and 2,349
    ("parabolic-auto(1)", 750),
    ("quadrant", 2100),
    ("bfid-par", 1400),
    ("hyperbolic-auto(0.5,0)", 1900),
])
def test_convergence_profile_cost(entry_id, cap):
    counted, evals = counted_callable(_catalog_fn(entry_id))
    prof = convergence_profile(counted, 0j, horizon=1e4)
    # a sample for each stop the run lands on: the hyperbolic run
    # stagnates at t = 33.02, after 13 of them
    assert len(prof.samples) == (13 if entry_id == "hyperbolic-auto(0.5,0)" else 33)
    assert evals[0] <= cap


def test_convergence_profile_stops_at_the_rounding_floor():
    # this orbit reaches 1 - |u| of a few ulps by t = 24; flowing such a
    # point on to t = 1e4 only sampled rounding noise
    fn = _catalog_fn("hyperbolic-auto(0.7631,-0.2771)")
    prof = convergence_profile(fn, -0.13341380158923524 + 0.88106148390791006j,
                               horizon=1e4)
    assert prof.regime == "nontangential"
    assert prof.samples[-1][0] < 100.0
