import cmath
import dataclasses
import inspect
import math
import os
import subprocess
import sys

import pytest
from conftest import counted_callable, counted_model, mp_function

import diskflow
from diskflow import abel, catalog
from diskflow.abel import (
    _GAP_INTEGRAND,
    _GL_BARYCENTRIC,
    _GL_NODES,
    _GL_RULE,
    _GL_TAIL,
    _GL_WEIGHTS,
    _STEP_RULES,
    BLOCH_GRID,
    STATS_GRID,
    _circle_gap,
    _h_at_gap,
    abel_flow,
    abel_h,
    bloch_norm,
    estimate_alpha_mu,
    find_boundary_null_points,
    invert_h,
    linearize,
    planar_domain_stats,
    visser_ostrovskii,
)
from diskflow.classify import classify
from diskflow.conjugate import MobiusGroup, bfid_report
from diskflow.errors import (InversionFailureError, NotInClassError, NotInDiskError,
                             SingularEvaluationError)
from diskflow.expr import compile_expr, kernel, parse
from diskflow.flow import flow_point

GRID = [0.25 * cmath.exp(2j * math.pi * k / 7) for k in range(7)] + [
    0.6 * cmath.exp(2j * math.pi * (k + 0.5) / 5) for k in range(5)
]


RING = [0.9 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
H_TEXT_IDS = [i for i in catalog.DEFAULT_IDS if catalog.get(i).h_text is not None]


def _ladder(gap):
    # the gaps 1 - z of the radial, Stolz +-pi/3 and level-1 horocycle
    # (|1 - z|^2 = 1 - |z|^2, i.e. cos arg(1 - z) = |1 - z|) approaches
    yield gap
    yield gap * cmath.exp(1j * math.pi / 3)
    yield gap * cmath.exp(-1j * math.pi / 3)
    if gap >= 2.0**-24:
        yield gap * complex(gap, math.sqrt(1.0 - gap * gap))
        yield gap * complex(gap, -math.sqrt(1.0 - gap * gap))


LADDER = [1.0 - g for k in range(4, 41, 4) for g in _ladder(2.0**-k)]
# the circle angles of planar_domain_stats
CIRCLE = [2.0 * math.pi * (j + 0.5) / STATS_GRID - math.pi for j in range(STATS_GRID)]
def _mp_eval(mpmath, text, z):
    return mp_function(mpmath, text)(mpmath.mpc(z))


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_abel_h_closed_form(entry_id):
    # the catalog's closed form, normalized to h(0) = 0 and evaluated by
    # mpmath at 30 digits on the exact double z, is an oracle the
    # quadrature did not produce; one ulp of z moves h by about
    # eps/|f(z)|, so that term is the floor invert_h also accepts
    mpmath = pytest.importorskip("mpmath")
    entry = catalog.get(entry_id)
    fn = compile_expr(parse(entry.f_text))
    counted, evals = counted_callable(fn)

    with mpmath.workdps(30):
        h0 = _mp_eval(mpmath, entry.h_text, 0j)
        for z in GRID + RING + LADDER:
            ref = complex(_mp_eval(mpmath, entry.h_text, z) - h0)
            tol = 1e-12 * max(1.0, abs(ref)) + 32 * sys.float_info.epsilon / abs(fn(z))
            evals[0] = 0
            assert abs(abel_h(counted, z) - ref) <= tol, z
            # one log-gap segment from 0 or from the point's anchor resolves
            # every approach in a few panels, the anchors built on the way
            assert evals[0] <= 195, z
        # boundary values: the segment ends on the circle, at the exact
        # point 1 - e^s of its float endpoint s
        for theta in CIRCLE:
            s = _circle_gap(theta)
            z_mp = 1 - mpmath.exp(mpmath.mpc(s))
            ref = complex(_mp_eval(mpmath, entry.h_text, z_mp) - h0)
            z = complex(z_mp)
            tol = 1e-12 * max(1.0, abs(ref)) + 32 * sys.float_info.epsilon / abs(fn(z))
            assert abs(_h_at_gap(fn, s) - ref) <= tol, theta


# exact ladder points 1 - g of every rung k = 4..40 of the radial and
# Stolz +-pi/3 approaches and of the level-1 horocycle to k = 24
EXACT_LADDER = [1.0 - g for k in range(4, 41) for g in _ladder(2.0**-k)]


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_abel_h_closed_form_at_exact_ladder_points(entry_id):
    # f is evaluated in the chart, so h at an exact gap carries no eps/|f|
    # rounding of the point: 1e-12 relative to the closed form, with no
    # floor (with f at the rounded nodes z = 1 - d, quadrant's radial
    # rung k = 40 was 1.8e-7 off)
    mpmath = pytest.importorskip("mpmath")
    entry = catalog.get(entry_id)
    fn = compile_expr(parse(entry.f_text))
    h_mp = mp_function(mpmath, entry.h_text)
    with mpmath.workdps(30):
        h0 = h_mp(mpmath.mpc(0))
        for z in EXACT_LADDER:
            ref = complex(h_mp(mpmath.mpc(z)) - h0)
            assert abs(abel_h(fn, z) - ref) <= 1e-12 * abs(ref), z


def test_abel_h_does_not_depend_on_call_order():
    # h at a deep tangential point is h at its anchor plus one segment,
    # and the anchors are chained from 0 whoever asks first: the same
    # double from a fresh parse, after a visser_ostrovskii ladder has
    # built the anchors, and through model.h
    text = catalog.get("quadrant").f_text
    z = 1.0 - 2.0**-20 * complex(2.0**-20, math.sqrt(1.0 - 2.0**-40))
    fresh = abel_h(parse(text), z)
    f = parse(text)
    model = linearize(f)
    visser_ostrovskii(model)
    assert len(compile_expr(f).log_gap[1]) > abel._anchor_index(cmath.log(1.0 - z))
    after_ladder = abel_h(f, z)
    through_model = model.h(z)
    assert _bits(fresh) == _bits(after_ladder) == _bits(through_model)


def _bits(value):
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan)])
def test_abel_h_at_nan_is_singular(z):
    # a NaN point picks no anchor: its segment from 0 evaluates f at NaN
    with pytest.raises(SingularEvaluationError):
        abel_h(parse("-(1-z)^2"), z)


@pytest.mark.parametrize("text", ["-(1-z)^2", "0.5*(z^2-1)"])
@pytest.mark.parametrize("z", [3.0, complex(-5.0, 1.0)])
def test_abel_h_outside_the_disk_is_refused(text, z):
    # the segment to a point past the circle would continue h off the
    # disk (to -1.5 and to a branch of log((1 + z)/(1 - z)) at 3.0), so
    # the point is refused before f is evaluated, as integrate refuses it
    counted, evals = counted_callable(compile_expr(parse(text)))
    with pytest.raises(NotInDiskError):
        abel_h(counted, z)
    assert evals[0] == 0


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_abel_h_at_infinity_is_singular(z):
    # the chart form of -(1 - z)^2 is the constant 2, which no node at an
    # infinite point makes singular
    with pytest.raises(SingularEvaluationError):
        abel_h(parse("-(1-z)^2"), z)


# the rungs k = 4, 8, 12 of LADDER, split by approach: each k gives the
# radial and two Stolz points, then the two horocycle points; the
# angular-only horocycle goes on to k = 16 and 20
RUNGS = [z for k in range(3) for z in LADDER[5 * k : 5 * k + 3]]
HOROCYCLE_RUNGS = [z for k in range(3) for z in LADDER[5 * k + 3 : 5 * k + 5]]
DEEP_HOROCYCLE_RUNGS = [z for k in range(5) for z in LADDER[5 * k + 3 : 5 * k + 5]]


def _horocycle_point(level, k):
    # the point at |1 - z| = 2^-k above 1 on the horocycle Re w = level of
    # the chart w = (1 + z)/(1 - z), where cos arg(1 - z) = (level + 1) 2^-(k+1)
    gap, c = 2.0**-k, (level + 1.0) * 2.0 ** -(k + 1)
    return 1.0 - gap * complex(c, -math.sqrt(1.0 - c * c))


# angular-only points whose end probe fails, so that h is reached from a
# point of the chart (see abel._h_at_gap): the level-1 rung 2^-24 and the
# level-0.1 rung 2^-16, where a leg whose root settles wrongly is caught
# (the test's tolerance there is about 6e-10 relative)
MIRRORED_RUNGS = [_horocycle_point(1.0, 24), _horocycle_point(0.1, 16)]
# points next to the null point -1 of hyperbolic-auto(0.5,0) and bfid-hyp,
# where the end probe fails on the pole of -1/f just past the circle: two
# radial ones and one at |1 + z| = 1e-3 on the level-1 horocycle at -1
MINUS_ONE_RUNGS = [-1.0 + 1e-4, -1.0 + 1e-6, -(1.0 - 1e-3 * complex(1e-3, math.sqrt(1.0 - 1e-6)))]
NO_H_TEXT_IDS = ["hyperbolic-auto(0.5,0)", "bfid-hyp", "angular-only(0.5)"]


def _z_segment_oracle(mpmath, f_mp, z):
    # mpmath's own Gauss-Legendre quadrature of -1/f at 30 digits along
    # the z-segment from 0 to z, split at t = 1 - 2^-j so each piece
    # stays short against its distance to the nearer of the catalog's
    # boundary null points 1 and -1
    with mpmath.workdps(30):
        z_mp = mpmath.mpc(z)
        depth = max(2, math.ceil(-math.log2(min(abs(1.0 - z), abs(1.0 + z)))) + 2)
        cuts = [0] + [1 - mpmath.mpf(2) ** -j for j in range(1, depth)] + [1]
        return complex(mpmath.quad(lambda t: -z_mp / f_mp(t * z_mp), cuts,
                                   method="gauss-legendre"))


def _w_path_oracle(mpmath, f_mp, z):
    # h at 40 digits along 1 -> 80 -> 80 + i Im w -> w in the chart
    # w = (1 + z)/(1 - z), where dz = 2 dw/(w + 1)^2, the vertical leg cut
    # at Im = 80 * 2^j.  Next to the horocycle, where f's factor
    # exp(-(1+z)/(1-z)) = exp(-w) oscillates along the z-segment, it is
    # below the working precision on Re w = 80 and does not oscillate
    # along the horizontal legs; mpmath's error estimate must be a small
    # fraction of the test's tolerance
    with mpmath.workdps(40):
        w = (1 + mpmath.mpc(z)) / (1 - mpmath.mpc(z))
        path, y = [mpmath.mpf(1), mpmath.mpf(80)], mpmath.mpf(80)
        while y < abs(w.imag):
            path.append(mpmath.mpc(80, math.copysign(y, w.imag)))
            y *= 2
        path += [mpmath.mpc(80, w.imag), w]
        value, error = mpmath.quad(
            lambda u: -2 / ((u + 1) ** 2 * f_mp((u - 1) / (u + 1))), path, error=True
        )
    assert error <= 1e-20 * max(1.0, abs(value))
    return complex(value)


@pytest.mark.parametrize("entry_id, points, mirrored, oracle", [
    *[pytest.param(i, GRID + RUNGS, [], _z_segment_oracle, id=f"{i}-grid")
      for i in NO_H_TEXT_IDS],
    *[pytest.param(i, HOROCYCLE_RUNGS, [], _z_segment_oracle, id=f"{i}-horocycle")
      for i in NO_H_TEXT_IDS[:2]],
    *[pytest.param(i, MINUS_ONE_RUNGS, [], _z_segment_oracle, id=f"{i}-minus-one")
      for i in NO_H_TEXT_IDS[:2]],
    pytest.param("angular-only(0.5)", DEEP_HOROCYCLE_RUNGS, MIRRORED_RUNGS, _w_path_oracle,
                 id="angular-only(0.5)-horocycle"),
])
def test_abel_h_matches_quadrature_oracle(entry_id, points, mirrored, oracle):
    # where the catalog has no closed form, an mpmath quadrature of -1/f
    # along a path from 0 to z is the oracle; f has real coefficients, so
    # h(conj z) = conj h(z), and the oracle of a mirrored point serves
    # its conjugate too
    assert catalog.get(entry_id).h_text is None
    mpmath = pytest.importorskip("mpmath")
    text = catalog.get(entry_id).f_text
    fn, f_mp = compile_expr(parse(text)), mp_function(mpmath, text)
    checks = [(z, oracle(mpmath, f_mp, z)) for z in points + mirrored]
    checks += [(z.conjugate(), ref.conjugate()) for z, ref in checks[len(points):]]
    for z, ref in checks:
        tol = 1e-12 * max(1.0, abs(ref)) + 32 * sys.float_info.epsilon / abs(fn(z))
        assert abs(abel_h(fn, z) - ref) <= tol, z


@pytest.mark.parametrize("level, k, cap", [
    (1.0, 8, 370), (1.0, 16, 6200), (1.0, 20, 15000), (1.0, 24, 27000),
    (0.1, 8, 440), (0.1, 12, 2300), (0.1, 16, 12400), (0.1, 20, 16900), (0.1, 24, 28700),
])
def test_abel_h_past_a_failed_end_probe_cost(level, k, cap):
    # one abel_h on angular-only(0.5) at horocycle points where the end
    # probe fails (anchors included): h at the chart point W plus one
    # segment from W cost 337, 5,618, 13,570 and 24,594 f-evals at level 1
    # and 401, 2,081, 11,250, 15,298 and 26,066 at level 0.1.  A point
    # whose W fails its own probe too is graded instead and costs far more
    counted, evals = counted_callable(compile_expr(parse(catalog.get("angular-only(0.5)").f_text)))
    abel_h(counted, _horocycle_point(level, k))
    assert evals[0] <= cap


def _outcome_bits(call, *args):
    # a complex value by its bit patterns, or the exception's type
    try:
        value = call(*args)
    except SingularEvaluationError as exc:
        return type(exc).__name__
    return value.real.hex(), value.imag.hex()


def _segments(gaps):
    # the log-gap segments that _h_at_gap integrates for the gaps s: the
    # anchor chain down to the deepest seed, and each s from its anchor
    segments = [(abel._anchor(j - 1), abel._anchor(j)) for j in range(1, abel._SEED_ANCHOR + 1)]
    segments += [(abel._anchor(abel._anchor_index(s)), s) for s in gaps]
    return [(t0, t1) for t0, t1 in segments if t0 != t1]


@pytest.mark.parametrize("entry_id", catalog.DEFAULT_IDS)
def test_root_tail_never_costs_more(entry_id):
    # every log-gap segment of the test points and circle angles against
    # the whole-versus-halves rule alone (_refine from the same root): the
    # tail test on the root spends no more f-evals, a root it accepts
    # costs 16, and a root that falls back returns that rule's value bit
    # for bit
    fn, evals = counted_callable(compile_expr(parse(catalog.get(entry_id).f_text)))
    path = (kernel(fn, _GAP_INTEGRAND), None)
    integrand = path[0]

    def halves_only(t0, t1):
        return abel._refine(path, t0, t1, integrand(t0, t1, _GL_RULE)[0], 0)

    gaps = [cmath.log(1.0 - z) for z in GRID + RING + LADDER] + [_circle_gap(t) for t in CIRCLE]
    for t0, t1 in _segments(gaps):
        evals[0] = 0
        got = _outcome_bits(abel._segment_integral, path, t0, t1)
        cost = evals[0]
        evals[0] = 0
        expected = _outcome_bits(halves_only, t0, t1)
        assert cost <= evals[0], (t0, t1)
        if cost > 16 or isinstance(got, str):
            assert got == expected, (t0, t1)
        else:
            whole, values = integrand(t0, t1, _GL_RULE)
            assert abel._root_tail(t0, t1, values) <= 1e-13 * max(1.0, abs(whole))
            assert got == (whole.real.hex(), whole.imag.hex()), (t0, t1)


def test_root_falls_back_at_the_angular_end_layer(monkeypatch):
    # angular-only(0.5) at the radial 1 - 2^-8 and the level-1 horocycle
    # rungs: where the factor exp(-(1+z)/(1-z)) of f is away from 0 only
    # in a layer that no node sees, a root reads settled that is not (at
    # 1 - 2^-8 a tail law steeper than (hi/lo)^2 accepts the segment from
    # 0 8.6 tolerances off; at the horocycle rung 2^-12 the root from the
    # point's anchor reads settled 7.6e5 tolerances off).  So no root over
    # a whole segment that h at these points integrates may stand: it
    # falls back to the halves, or the end probe sees the layer and the
    # point is reached from a point of the chart instead.  1 - 2^-8 is
    # the anchor a_2, whose chain crosses the layer on its first link
    fn = compile_expr(parse(catalog.get("angular-only(0.5)").f_text))
    accepted = []
    settled = abel._settled

    def recording(path, t0, t1, whole, values):
        value = settled(path, t0, t1, whole, values)
        if value is whole:  # the root stood; a refinement is a new sum
            accepted.append((t0, t1))
        return value

    monkeypatch.setattr(abel, "_settled", recording)
    abel_h(fn, 1.0 - 2.0**-8)
    assert (0j, abel._anchor(1)) not in accepted
    for z in [1.0 - g for k in range(4, 25) for g in list(_ladder(2.0**-k))[3:]]:
        s = cmath.log(1.0 - z)
        accepted.clear()
        abel_h(fn, z)
        assert (abel._anchor(abel._anchor_index(s)), s) not in accepted, z


def test_gauss_legendre_table():
    # the stored floats of every rule, the 16-node panel's and the chord
    # rules', against 30-digit roots of P_n and the weights
    # 2 / ((1 - x^2) P_n'(x)^2)
    mpmath = pytest.importorskip("mpmath")
    assert len(_GL_NODES) == len(_GL_WEIGHTS) == 16
    assert _GL_RULE == tuple(zip(_GL_NODES, _GL_WEIGHTS))
    rules = [rule for _, rule in _STEP_RULES]
    assert [len(rule) for rule in rules] == [1, 2, 4, 8, 16]
    assert rules[-1] is _GL_RULE
    with mpmath.workdps(30):
        for rule in rules:
            n = len(rule)
            nodes = [x for x, _ in rule]
            assert nodes == sorted(nodes)
            p_n = lambda x: mpmath.legendre(n, x)  # noqa: E731, B023
            for x, w in rule:
                root = mpmath.findroot(p_n, mpmath.mpf(x))
                weight = 2 / ((1 - root**2) * mpmath.diff(p_n, root) ** 2)
                assert abs(x - root) <= 2 * sys.float_info.epsilon
                assert abs(w - weight) <= 2 * sys.float_info.epsilon
        # the probe's barycentric weights interpolate every polynomial of
        # degree 15 through the 16 nodes, here P_15 past the last node
        p_15 = lambda x: mpmath.legendre(15, x)  # noqa: E731
        for xp in (0.995, 0.9999):
            terms = [b / (xp - x) for x, b in zip(_GL_NODES, _GL_BARYCENTRIC)]
            near = sum(t * float(p_15(x)) for t, x in zip(terms, _GL_NODES)) / sum(terms)
            assert abs(near - float(p_15(xp))) <= 1e-13
        # the root's Legendre columns (2n+1)/2 w P_n(x), n = 10, 11, 14, 15
        p_16 = lambda x: mpmath.legendre(16, x)  # noqa: E731
        for x, tail in zip(_GL_NODES, _GL_TAIL):
            root = mpmath.findroot(p_16, mpmath.mpf(x))
            weight = 2 / ((1 - root**2) * mpmath.diff(p_16, root) ** 2)
            for n, column in zip((10, 11, 14, 15), tail):
                exact = (2 * n + 1) * weight * mpmath.legendre(n, root) / 2
                assert abs(column - exact) <= sys.float_info.epsilon * abs(exact)


def _bernstein_factor(q, n):
    # rho^-2(n-1) / (rho^2 - 1), the n-node Gauss-Legendre error factor,
    # for the Bernstein ellipse that keeps within d/2 of a chord of
    # length q d: rho - 1/rho = 2/q
    rho = 1.0 / q + math.sqrt(1.0 / q**2 + 1.0)
    return rho ** (-2 * (n - 1)) / (rho * rho - 1.0)


def test_chord_rule_cutoffs_from_bernstein_bound():
    # each cut-off is the largest q at which its rule's error factor is
    # no larger than the 16-node factor at q = 1/2, rounded down by less
    # than 0.1 %; the 16-node cut-off is 1/2 itself
    budget = _bernstein_factor(0.5, 16)
    for q_max, rule in _STEP_RULES:
        n = len(rule)
        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _bernstein_factor(mid, n) <= budget else (lo, mid)
        assert _bernstein_factor(q_max, n) <= budget * (1.0 + 1e-12), n
        assert 0.999 * lo <= q_max <= lo * (1.0 + 1e-12), n
    assert _STEP_RULES[-1][0] == 0.5


def test_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(diskflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskflow; print([m for m in ('scipy', 'numpy') if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_abel_h_near_boundary_point():
    # the integration path must resolve the argument swing of 1 - z in
    # the final window; check against the closed form at gap 1e-8
    fn = compile_expr(parse("i*(1-z)^2"))
    z = 1 - 1e-8 * cmath.exp(-0.5j)
    assert abel_h(fn, z) == pytest.approx(1j * z / (1 - z), rel=1e-9)


def test_estimate_alpha_mu_quadrant():
    model = linearize(parse("-(1-z)^2*sqrt((1+z)/(1-z))*exp(-i*0.78539816339744831)"))
    assert model.alpha == pytest.approx(0.5, abs=1e-3)
    ref_mu = cmath.exp(0.25j * math.pi) / math.sqrt(2)
    assert model.mu == pytest.approx(ref_mu, abs=1e-6)


def test_estimate_alpha_mu_hyperbolic():
    model = linearize(parse("0.5*(z^2-1)"))
    assert model.alpha == 0.0
    assert model.mu == pytest.approx(1.0, abs=1e-8)
    assert model.mu_class == "Sigma0"


@pytest.mark.parametrize("entry_id", [
    "power(-0.0029,0.902+0.3782*i)", "power(0.9986,1.0854+0.0006*i)"
])
def test_estimate_alpha_mu_keeps_measured_alpha_near_snap(entry_id):
    # alpha 0.9971 and 1.9986 lie within the snap distance of 1 and 2,
    # but the mu ladder at the snapped exponent decays like
    # (1-z)^0.0029 and does not settle, so the measured alpha stands
    truth = catalog.get(entry_id).truth
    alpha, mu, _ = estimate_alpha_mu(parse(catalog.get(entry_id).f_text))
    assert alpha == pytest.approx(truth["alpha"], abs=0.01)
    assert abs(mu - truth["mu"]) <= 0.01 * abs(truth["mu"])


def test_estimate_alpha_mu_cost():
    # the growth ladder's midpoint (1 + z_k)/2 is its next rung z_(k+1),
    # so f there serves both rungs
    counted, evals = counted_callable(compile_expr(parse(catalog.get("parabolic-auto(1)").f_text)))
    estimate_alpha_mu(counted)
    assert evals[0] <= 186


@pytest.mark.parametrize("entry_id, tag", [
    ("angular-only(0.5)", "SigmaAlpha-angular"),  # catalog truth: angular
    ("quadrant", "SigmaAlpha-unrestricted"),
])
def test_estimate_alpha_mu_class_tag(entry_id, tag):
    _, _, got = estimate_alpha_mu(parse(catalog.get(entry_id).f_text))
    assert got == tag


def test_not_in_class_rejected():
    for f_text in (
        # an elliptic automorphism generator does not fix the boundary point 1
        "i*z",
        # h' grows like a power times a log: the growth slope creeps
        # toward 2 like 1/log and never settles on a power law
        "-(1-z)^2/(1-0.5*log(1-z))",
        "-(1-z)^2*(1-0.5*log(1-z))",
    ):
        f = parse(f_text)
        # no failure is kept on the node: every call measures and raises
        for _ in range(2):
            with pytest.raises(NotInClassError):
                linearize(f)


def _count_calls(monkeypatch, *names):
    # wrap each abel function in ``names`` with a counter of its calls
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(abel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(abel, name, counted)
    return calls


def test_one_model_per_expression(monkeypatch):
    calls = _count_calls(monkeypatch, "estimate_alpha_mu", "find_boundary_null_points")
    f = parse(catalog.get("quadrant").f_text)
    model = linearize(f)
    assert linearize(f) is model
    assert classify(f).model is model
    bfid_report(f)
    assert calls == {"estimate_alpha_mu": 1, "find_boundary_null_points": 1}


def test_plain_callable_gets_a_fresh_model(monkeypatch):
    calls = _count_calls(monkeypatch, "estimate_alpha_mu")
    fn = compile_expr(parse(catalog.get("quadrant").f_text))
    first, second = linearize(fn), linearize(fn)
    assert first is not second
    assert calls == {"estimate_alpha_mu": 2}


# far targets |w| >> 1.5^64 ~ 1.9e11, past any fixed budget of 64
# sub-targets: bfid-par (alpha = 2) on the radius at gap 2^-28, and the
# alpha = 1 entries on Stolz rays at gap 2^-40
FAR_TARGETS = [("bfid-par", 1.0 - 2.0**-28)] + [
    (entry_id, 1.0 - 2.0**-40 * cmath.exp(1j * theta))
    for entry_id in ("parabolic-auto(1)", "power(1,1)", "no-halfplane")
    for theta in (math.pi / 4, -math.pi / 3)
]


def test_invert_h_roundtrip():
    for f_text in ("i*(1-z)^2", "-(1-z)^3", "0.5*(z^2-1)"):
        model = linearize(parse(f_text))
        for z in GRID:
            assert invert_h(model, model.h(z)) == pytest.approx(z, abs=1e-11)
    for entry_id, z in FAR_TARGETS:
        entry = catalog.get(entry_id)
        model = linearize(parse(entry.f_text))
        h_ref = compile_expr(parse(entry.h_text))
        fn = compile_expr(model.f)
        w = h_ref(z)
        assert abs(w) > 1e12
        out = invert_h(model, w)
        # the closed form at the answer, to the rounding floor of h there:
        # one ulp of z moves h by about eps/|f(z)|
        floor = 32 * 2.3e-16 / abs(fn(out))
        assert abs(h_ref(out) - w) <= 1e-9 * abs(w) + floor


# f-evaluations of inverting h_text at the radial and Stolz(pi/4) gaps
# 2^-k, k = 4, 8, ..., 40, with no seed: each starts at the asymptotic
# preimage of w, a few Newton steps from the root; about 10 % over the
# counts (quadrant 1,283, parabolic-auto(1) 804, bfid-par 1,210,
# power(0.5,1) 820, perturbed-parabolic 1,112), which include the
# anchors of the seeds
INVERT_COST_CAPS = {
    "quadrant": 1_420,
    "parabolic-auto(1)": 890,
    "bfid-par": 1_340,
    "power(0.5,1)": 910,
    "perturbed-parabolic": 1_230,
}


def _assert_inverts(entry_id, model, points, seed=None):
    # invert h_text at each point, graded against the closed form to
    # the rounding floor of h at the answer: one ulp of z moves h by
    # about eps/|f(z)|; with a seed, each solve is continued from it
    entry = catalog.get(entry_id)
    h_ref = compile_expr(parse(entry.h_text))
    fn = compile_expr(parse(entry.f_text))
    for z in points:
        w = h_ref(z) - h_ref(0j)
        if seed is None:
            out = invert_h(model, w)
        else:
            out = next(abel._walk(model, seed, model.h(seed), (w,)))[0]
        floor = 32 * 2.3e-16 / abs(fn(out))
        assert abs(h_ref(out) - h_ref(0j) - w) <= 1e-9 * abs(w) + floor, z


@pytest.mark.parametrize("entry_id", sorted(INVERT_COST_CAPS))
def test_invert_h_cost(entry_id):
    model, evals = counted_model(parse(catalog.get(entry_id).f_text))
    points = [
        1.0 - 2.0**-k * ray
        for k in range(4, 41, 4)
        for ray in (1.0, cmath.exp(0.25j * math.pi))
    ]
    _assert_inverts(entry_id, model, points)
    assert evals[0] <= INVERT_COST_CAPS[entry_id]


# counted f-evals of the seeded sweep below (quadrant 29,292, bfid-par
# 44,616, perturbed-parabolic 34,419), rounded up to 500 with 1 % to spare
SEEDED_COST_CAPS = {
    "quadrant": 30_000,
    "bfid-par": 45_500,
    "perturbed-parabolic": 35_000,
}


@pytest.mark.parametrize("entry_id", sorted(SEEDED_COST_CAPS))
def test_invert_h_seeded_cost(entry_id, monkeypatch):
    # the radial and pi/4 rungs of test_invert_h_cost, each continued
    # from 0 along its straight w-segment: dozens of Newton levels whose
    # steps shrink through every band of _STEP_RULES.  A walk solves
    # these far targets from their asymptotic seed; with the seed
    # switched off it continues, as it does where the seed fails
    monkeypatch.setattr(abel, "_from_asymptote", lambda model, w: None)
    model, evals = counted_model(parse(catalog.get(entry_id).f_text))
    points = [
        1.0 - 2.0**-k * ray
        for k in range(4, 41, 4)
        for ray in (1.0, cmath.exp(0.25j * math.pi))
    ]
    _assert_inverts(entry_id, model, points, seed=0j)
    assert evals[0] <= SEEDED_COST_CAPS[entry_id]


# tangential targets (the level-1 horocycle points of _ladder), where
# the leading term of h misses the next one, and interior targets, where
# it is far from h; bfid-par's z* lies past the slit of h(Delta) along
# Im w = pi/8, Re w <= -0.25 from h(0) = 0
SWEEP = [1.0 - g for k in range(4, 25) for g in list(_ladder(2.0**-k))[3:]] + [
    1.0 - r * cmath.exp(1j * arg) for r in (0.5, 0.25, 0.125) for arg in (0.0, 1.0, -1.0)
]


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_invert_h_sweep(entry_id):
    points = SWEEP + ([0.3228 + 0.8538j] if entry_id == "bfid-par" else [])
    _assert_inverts(entry_id, linearize(parse(catalog.get(entry_id).f_text)), points)


def test_invert_h_sweep_phi_text():
    # bfid-hyp has no h_text; its phi_text is h^-1(k + C) for the group
    # of the repelling point -1, so inverting k(zeta) + C with no seed
    # must give phi(zeta), graded like _assert_inverts carried to z by
    # |dz| = |f| |dh|
    entry = catalog.get("bfid-hyp")
    phi_ref = compile_expr(parse(entry.phi_text))
    fn = compile_expr(parse(entry.f_text))
    model = linearize(parse(entry.f_text))
    group = MobiusGroup.from_repelling(2.0, -1.0 + 0j)
    C = model.h(phi_ref(0j))
    for zeta in SWEEP:
        w = group.linearizer(zeta) + C
        out = invert_h(model, w)
        assert abs(out - phi_ref(zeta)) <= 1e-9 * abs(w) * abs(fn(out)) + 32 * 2.3e-16, zeta


def test_invert_h_outside_targets_fail(monkeypatch):
    # h = i z/(1 - z) maps the disk onto the half-plane Im w > -1/2; its
    # leading term at 1 is exact, so the seed of a target below the edge
    # is outside the disk and the detour answers.  With mu doubled the
    # seed lands in the disk, its solve fails, and the detour still answers.
    detours = []
    detour = abel._detour

    def recording_detour(model, w):
        detours.append(w)
        return detour(model, w)

    monkeypatch.setattr(abel, "_detour", recording_detour)
    model = linearize(parse(catalog.get("parabolic-auto(1)").f_text))
    scaled = dataclasses.replace(model, mu=2.0 * model.mu)
    targets = [3.0 - 1.0j, -0.5 - 0.5001j, -40.0 - 2.0j, 1e6 - 0.6j]
    for m, seeded in ((model, False), (scaled, True)):
        for w in targets:
            assert (abel._asymptotic_gap(m, w) is not None) == seeded, w
            with pytest.raises(InversionFailureError):
                invert_h(m, w)
    assert detours == targets + targets
    # just inside the edge the same model still inverts
    assert model.h(invert_h(model, 3.0 - 0.4999j)) == pytest.approx(3.0 - 0.4999j, abs=1e-12)


SINGLE_PANEL_IDS = [
    "quadrant", "parabolic-auto(1)", "power(0,i)", "bfid-par", "perturbed-parabolic"
]


@pytest.mark.parametrize("entry_id", SINGLE_PANEL_IDS)
def test_single_panel_chords_match_closed_form(entry_id):
    # a Newton step s0 -> s1 in the log-gap coordinate with q =
    # |s1 - s0|/d <= 1/2, d the smaller lower bound of the distance to the
    # boundary of the disk's s-image at its ends (abel._to_circle), is one
    # panel of the rule of its band of _STEP_RULES, 1 to 16 nodes;
    # against the catalog's closed form at 30 digits, at the exact points
    # 1 - e^s, it must be exact to the rounding of h and the 16-node
    # panel's noise estimate
    mpmath = pytest.importorskip("mpmath")
    pytest.importorskip("hypothesis")
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    entry = catalog.get(entry_id)
    model, evals = counted_model(parse(entry.f_text))
    integrand = model.newton_path[0]
    cuts = [0.0] + [q_max for q_max, _ in _STEP_RULES]
    to_circle = abel._to_circle

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 40.0),  # the gap 1 - z0 is 2^-k ...
        st.floats(-1.5, 1.5),  # ... at this angle from the radius
        st.floats(-math.pi, math.pi),  # direction of the step
        st.integers(0, len(_STEP_RULES) - 1),  # the band of q ...
        # ... and where in it; in the one-node band q >= 1.9e-13, where
        # 30 digits still resolve h(z1) - h(z0)
        st.floats(1e-3, 1.0),
    )
    @example(40.0, 0.0, 0.0, 4, 0.999)  # radially outward, next to 1
    @example(40.0, 0.0, math.pi, 4, 0.999)  # radially inward, next to 1
    @example(20.0, 1.5, 0.5, 4, 0.999)  # next to the circle, near 1
    @example(20.0, 1.5, 0.5, 0, 0.999)  # the one-node band, there
    def check(k, angle, direction, band, where):
        s0 = complex(-k * math.log(2.0), angle)
        assume(to_circle(s0) > 0.0)
        lo, hi = cuts[band], cuts[band + 1]
        q = lo + where * (hi - lo)
        # the length r = q min(d(s0), d(s0 + r u)), a contraction in r
        u = cmath.exp(1j * direction)
        r = q * to_circle(s0)
        for _ in range(80):
            r = q * min(to_circle(s0), to_circle(s0 + r * u))
        s1 = s0 + r * u
        d = min(to_circle(s0), to_circle(s1))
        assume(s1 != s0 and lo * d < abs(s1 - s0) <= hi * d)
        rule = abel._step_rule(abs(s1 - s0), d)
        assert rule is _STEP_RULES[band][1]
        before = evals[0]
        value = integrand(s0, s1, rule)[0]
        assert evals[0] - before == len(rule) == 2**band
        noise = abel._panel(model.newton_path, s0, s1)[1]
        with mpmath.workdps(30):
            h0 = _mp_eval(mpmath, entry.h_text, 0j)
            h_z0 = _mp_eval(mpmath, entry.h_text, 1 - mpmath.exp(mpmath.mpc(s0))) - h0
            h_z1 = _mp_eval(mpmath, entry.h_text, 1 - mpmath.exp(mpmath.mpc(s1))) - h0
            ref = complex(h_z1 - h_z0)
            tol = 64 * sys.float_info.epsilon * float(abs(h_z0) + abs(h_z1)) + noise
        assert abs(value - ref) <= tol, (s0, s1)

    check()


def test_invert_h_rejects_infinite_target():
    model = linearize(parse("i*(1-z)^2"))
    with pytest.raises(InversionFailureError):
        invert_h(model, complex(math.inf, 0.0))
    with pytest.raises(InversionFailureError):
        abel_flow(model, 0.2, math.inf)
    # past the deepest gap on the radius, h = i/(1 - z) has Re dh/ds = 0:
    # no imaginary step matches Im h there, and the solve fails as one
    with pytest.raises(InversionFailureError):
        invert_h(model, 1e18j)


def test_abel_flow_through_a_newton_two_cycle():
    # in the class by construction: p is a sum of two atoms
    # c (zeta - z)/(zeta + z), c > 0, |zeta| = 1, so Re p >= 0.  On the
    # first level from 0.1 - 0.5i, plain capped Newton steps alternate
    # between about 0.147 - 0.483i and 0.249 + 0.385i, each raising
    # |h - w| in turn; the continuation halves a capped step that does
    # not lower |h - w|
    f = parse("-(1-z)^2*(1.7993*(exp(0.4698*i)-z)/(exp(0.4698*i)+z)"
              " + 1.2305*(exp(5.6451*i)-z)/(exp(5.6451*i)+z))")
    u = abel_flow(linearize(f), 0.1 - 0.5j, 1.0)
    assert abs(u - flow_point(f, 0.1 - 0.5j, 1.0)) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=NotInClassError,
    reason="ladder_limit calls the converging slope ladder infinite: in its "
    "pre-asymptotic stretch four raw differences in a row do not shrink "
    "(9.8e-5, 7.3e-4, 1.0e-3, 1.08e-3 on the first), though one Aitken pass "
    "reads 1.75, 1.75 and 1.5 (ROADMAP item 14)",
)
@pytest.mark.parametrize("text, alpha", [
    ("-(1-z)^2*(0.83*exp(0.0911*i)*((1+z)/(1-z))^-0.5 + (-0.6812*i)"
     " + 1.2516*exp(0.6195*i)*((1+z)/(1-z))^0.25)", 0.75),
    ("-(1-z)^2*(1.2856*(exp(1.9248*i)+z)/(exp(1.9248*i)-z)"
     " + 1.5828*exp(0.4099*i)*((1+z)/(1-z))^0.25)", 0.75),
    ("-(1-z)^2*(1.0543*exp(0.3135*i)*((1+z)/(1-z))^0.25 + (-0.2195*i)"
     " + 0.6057*exp(0.3717*i)*((1+z)/(1-z))^0.5)", 0.5),
], ids=["quarter-and-minus-half", "pole-and-quarter", "quarter-and-half"])
def test_alpha_of_generators_with_a_fractional_second_term(text, alpha):
    # each is in the class by construction: a sum of ib,
    # c (zeta + z)/(zeta - z) and c e^(i phi) ((1 + z)/(1 - z))^gamma with
    # c >= 0 and |phi| <= (1 - |gamma|) pi/2 keeps Re p >= 0; next to the
    # leading power of p each has a term of fractional order
    assert abs(linearize(parse(text)).alpha - alpha) <= 1e-3


def test_null_points_filled_on_first_chord():
    f = parse(catalog.get("bfid-hyp").f_text)
    model = linearize(f)
    assert "null_points" not in vars(model)
    model.h(0.3)
    assert "null_points" not in vars(model)
    abel_flow(model, 0.3, 1.0)
    points = vars(model)["null_points"]
    assert model.null_points is points
    assert sorted(round(p["zeta"].real) for p in points) == [-1, 1]
    # the scan takes an expression or any callable alike
    assert find_boundary_null_points(compile_expr(f)) == points
    assert "null_points" not in inspect.signature(type(model)).parameters


def test_abel_flow_matches_ode():
    for f_text in ("i*(1-z)^2", "-(1-z)^2 - 0.5*(1-z)^3"):
        model = linearize(parse(f_text))
        fn = compile_expr(model.f)
        for z0 in (0j, 0.3 - 0.2j):
            for t in (1.0, 7.0):
                assert abel_flow(model, z0, t) == pytest.approx(
                    flow_point(fn, z0, t), abs=1e-9
                )


def test_abel_flow_saturates_at_the_smallest_gap():
    # h(0) + 100 lies in h(Delta), but its preimage (1 - z about 2e^-100)
    # is far closer to 1 than the smallest gap Newton resolves: the flow
    # returns the iterate pinned there
    model = linearize(parse(catalog.get("hyperbolic-auto(0.5,0)").f_text))
    z = abel_flow(model, 0j, 100.0)
    assert abs(1 - z) <= 2.4e-16


# (entry, start, times) whose targets h(start) + t have preimages closer
# to 1 than any double of the disk
SATURATING_FLOWS = [
    ("hyperbolic-auto(0.5,0)", 0.3 + 0.2j, (40.0, 100.0, 1e3, 1e6, 1e12)),
    ("hyperbolic-auto(0.8,0.3)", 0j, (100.0, 1e3)),
    ("hyperbolic-auto(0.8,0.3)", -0.5 + 0j, (100.0, 1e3, 1e6)),
    ("hyperbolic-auto(0.8,0.3)", 0.3 + 0.2j, (100.0, 1e3, 1e6)),
    # Newton steps past the deepest gap keep the imaginary part that
    # matches Im h; scaled down with the real part that the clamp drops,
    # the imaginary residual falls only about 2 % per iteration
    ("hyperbolic-auto(40,0)", 0.3 + 0.4j, (1.0,)),
    ("hyperbolic-auto(40,0)", 0.1 + 0.1j, (1.0,)),
    # here dh/ds has an imaginary part of order 1e-8 at the deepest gap,
    # which the imaginary part of the full Newton step carries times
    # Re(h - w), far past the floor; that step pushes Im h away
    ("bfid-hyp", 0.1 - 0.5j, (100.0,)),
    # pinned at Re s = -36 with |Im s| about 0.43, these iterates round
    # to |1 - z| = 2.406e-16, so saturation is read from s, not from z
    ("hyperbolic-auto(20,0)", 0.3 + 0.2j, (5.0, 25.0, 100.0, 1e4, 1e6)),
    ("hyperbolic-auto(40,0)", 0.3 + 0.2j, (5.0, 25.0, 100.0, 1e4, 1e6)),
]


@pytest.mark.parametrize("entry_id, z0, t", [
    pytest.param(entry_id, z0, t, id=f"{entry_id}-{z0}-{t}")
    for entry_id, z0, times in SATURATING_FLOWS for t in times
])
def test_abel_flow_forward_times_saturate(entry_id, z0, t):
    # each target h(z0) + t lies in h(Delta), and its preimage is closer
    # to 1 than any double of the disk (below 4.3e-18 from 0.3 + 0.2i on
    # hyperbolic-auto(0.5,0)): the flow returns a point pinned next to 1,
    # at the clamp Re log(1 - z) = -36 up to the rounding of Re z, half an
    # ulp of 1 (bfid-hyp from 0.1 - 0.5i reads 2.53e-16)
    model = linearize(parse(catalog.get(entry_id).f_text))
    z = abel_flow(model, z0, t)
    assert abs(1 - z) <= math.exp(-36.0) + 2.0 ** -53


# counted f-evals of abel_flow from 0 at t = 1e2, 1e4 and 1e6, once the
# model's chord panels and seed constant C are built (C builds the
# anchors of every seed): a time far past 1 + |h(0)| is solved from its
# asymptotic seed, one log-gap segment from its anchor plus a few Newton
# steps, where the continuation took 30 to 35 levels (1,263 to 5,464
# f-evals); about 10 % over the counts (quadrant 29, 27, 18; power(0.5,1)
# 17 each; parabolic-auto(1) 18 each; perturbed-parabolic 43, 72, 67)
FAR_FLOW_CAPS = {
    "quadrant": (32, 30, 20),
    "power(0.5,1)": (19, 19, 19),
    "parabolic-auto(1)": (20, 20, 20),
    "perturbed-parabolic": (48, 80, 74),
}


@pytest.mark.parametrize("entry_id", sorted(FAR_FLOW_CAPS))
def test_abel_flow_far_times(entry_id):
    # Abel's equation against the closed form, h(F_t 0) = h(0) + t, to
    # the inversion tolerance of _assert_inverts
    entry = catalog.get(entry_id)
    h_ref = compile_expr(parse(entry.h_text))
    fn = compile_expr(parse(entry.f_text))
    model, evals = counted_model(parse(entry.f_text))
    # the chord panels and C are built before the count
    assert model.newton_path and cmath.isfinite(model.asymptote)
    for t, cap in zip((1e2, 1e4, 1e6), FAR_FLOW_CAPS[entry_id]):
        evals[0] = 0
        u = abel_flow(model, 0j, t)
        assert evals[0] <= cap, t
        floor = 32 * 2.3e-16 / abs(fn(u))
        assert abs(h_ref(u) - h_ref(0j) - t) <= 1e-9 * t + floor, t


@pytest.mark.parametrize("entry_id", ["quadrant", "perturbed-parabolic", "bfid-par"])
def test_walk_falls_back_to_continuation(entry_id, monkeypatch):
    # a walk whose seeds all fail continues from the answer before each
    # target instead, and reaches the same points: a converged solve of
    # a univalent h has one answer.  The chain of targets has far jumps
    # to the right and a near vertical one; points are compared carried
    # to z by |dz| = |f| |dh|, as in test_invert_h_sweep_phi_text
    model = linearize(parse(catalog.get(entry_id).f_text))
    z0 = 0.3 + 0.2j
    h0 = model.h(z0)
    targets = [h0 + 1.0, h0 + 10.0, h0 + 10.0 + 3j, h0 + 100.0 + 3j, h0 + 1e3 + 3j]
    seeded = []
    from_asymptote = abel._from_asymptote

    def recording(model, w):
        solved = from_asymptote(model, w)
        seeded.append(solved is not None)
        return solved

    monkeypatch.setattr(abel, "_from_asymptote", recording)
    walked = list(abel._walk(model, z0, h0, targets))
    assert any(seeded)
    monkeypatch.setattr(abel, "_from_asymptote", lambda model, w: None)
    continued = list(abel._walk(model, z0, h0, targets))
    fn = compile_expr(model.f)
    for w, (z, h_z), (z_c, h_c) in zip(targets, walked, continued):
        assert abs(h_z - w) <= 1e-9 * abs(w) + 32 * 2.3e-16 / abs(fn(z)), w
        assert abs(z - z_c) <= 1e-9 * abs(w) * abs(fn(z)) + 32 * 2.3e-16, w


@pytest.mark.parametrize("far", [1e5, 1e6])
def test_walk_inward_jump_is_seeded(far):
    # the deep point h0 + far is solved only to its machine floor (its
    # tracked h is 0.04 off at 1e5, 4.2 at 1e6); a jump inward from it is
    # measured against the smaller end, 1 + |w|, so h0 + 50 + 0.2i is
    # solved from its seed.  Continued from the deep point, it carried
    # that floor: 5.0e-3 off the closed form after 1e5, and after 1e6
    # the continuation pinned at the boundary
    entry = catalog.get("quadrant")
    h_ref = compile_expr(parse(entry.h_text))
    fn = compile_expr(parse(entry.f_text))
    model = linearize(parse(entry.f_text))
    z0 = 0.3 + 0.2j
    h0 = model.h(z0)
    step = 50.0 + 0.2j
    _, (z, _) = abel._walk(model, z0, h0, (h0 + far, h0 + step))
    floor = 32 * 2.3e-16 / abs(fn(z))
    assert abs(h_ref(z) - h_ref(z0) - step) <= 1e-9 * abs(step) + floor


STATS_CASES = [
    # h = i z/(b(1-z)) has Im h = -1/(2b) on the circle, and Im h tends
    # to +inf (b > 0) or -inf (b < 0) along the radius
    ("parabolic-auto(1)", math.inf, -0.5),
    ("parabolic-auto(-2)", 0.25, -math.inf),
    # h scaled by 1e7 and 1e8: the rounding floor of a ladder scales too
    ("parabolic-auto(1e-7)", math.inf, -5e6),
    ("power(1,1e8)", math.inf, -math.inf),
    ("quadrant", math.inf, -math.sqrt(0.5)),
    # reached tangentially at 1, as theta -> 0-
    ("perturbed-parabolic", math.inf, -(1.0 + math.pi - math.atan(2.0)) / 2.0),
    ("hyperbolic-auto(0.5,0)", math.pi / 2, -math.pi / 2),
    ("bfid-hyp", math.pi / 4, -math.pi / 4),
    ("no-halfplane", math.inf, -math.inf),
    ("bfid-par", math.inf, -math.inf),
    ("power(1,1)", math.inf, -math.inf),
    ("angular-only(0.5)", math.inf, -math.inf),
]


@pytest.mark.parametrize(
    "entry_id, sup_im, inf_im", STATS_CASES, ids=[case[0] for case in STATS_CASES]
)
def test_planar_stats_closed_form(entry_id, sup_im, inf_im):
    stats = planar_domain_stats(linearize(parse(catalog.get(entry_id).f_text)))
    assert stats.sup_im == pytest.approx(sup_im, abs=1e-6)
    assert stats.inf_im == pytest.approx(inf_im, abs=1e-6)
    if math.isfinite(inf_im):
        assert stats.half_plane.startswith("above")
        assert stats.strip_width == stats.sup_im - stats.inf_im
    elif math.isfinite(sup_im):
        assert stats.half_plane.startswith("below")
    else:
        assert stats.half_plane == "none"


@pytest.mark.parametrize("entry_id, inf_im", [
    # Im h > -1/(2b) = -5e8, a half-plane
    ("parabolic-auto(1e-9)", -5e8),
    # |Im h| < pi/(4a) = 7.9e8, a strip
    ("hyperbolic-auto(1e-9,0)", -math.pi / 4e-9),
])
def test_planar_stats_far_half_plane(entry_id, inf_im):
    stats = planar_domain_stats(linearize(parse(catalog.get(entry_id).f_text)))
    assert stats.half_plane.startswith("above")
    assert stats.inf_im == pytest.approx(inf_im, rel=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ladder_limit_linear_growth(sign):
    # fn(w) = +-i(1 - w) gives h = -+i log(1 - z), so Im h = +-k log 2 on
    # the rungs 1 - 2^-k: differences that never shrink, at a scale far
    # below any absolute cut, on the Im h ladders of planar_domain_stats
    def fn(w):
        return sign * 1j * (1.0 - w)

    model = dataclasses.replace(linearize(parse("i*(1-z)^2")), f=fn)
    stats = planar_domain_stats(model)
    assert (stats.sup_im if sign > 0 else -stats.inf_im) == math.inf
    assert math.isfinite(stats.inf_im if sign > 0 else stats.sup_im)


# counted f-evals of planar_domain_stats, about 10 % over the counts: a
# segment whose root settles costs 16, so on the power-law entries most
# circle angles take 16 and not 48, and a ladder rung past the first
# anchor is one segment from its anchor, not from 0
STATS_COST_CAPS = {
    "parabolic-auto(1)": 2_500,  # 2,265
    "hyperbolic-auto(0.5,0)": 10_830,  # 9,844
    "quadrant": 8_530,  # 7,750
    "power(-0.5,1)": 2_500,  # 2,165
    "power(0,i)": 2_500,  # 2,265
    "power(0.5,1)": 2_290,  # 2,079
    "power(1,1)": 2_240,  # 2,029
    "bfid-hyp": 10_890,  # 9,895
    "bfid-par": 9_000,  # 8,181
    "angular-only(0.5)": 15_100,  # 13,727
    "perturbed-parabolic": 2_950,  # 2,681
    "no-halfplane": 2_310,  # 2,097
}


@pytest.mark.parametrize("entry_id", catalog.DEFAULT_IDS)
def test_planar_stats_cost(entry_id):
    # a circle grid and five ladders of at most 40 log-gap segments each
    model, evals = counted_model(parse(catalog.get(entry_id).f_text))
    planar_domain_stats(model)
    assert evals[0] <= STATS_COST_CAPS[entry_id]


def test_planar_stats_computed_once_per_model():
    model = linearize(parse("i*(1-z)^2"))
    first = planar_domain_stats(model)
    assert planar_domain_stats(model) is first
    assert model.domain_stats is first
    # cache slots, not constructor arguments, and not compared
    params = inspect.signature(type(model)).parameters
    assert "domain_stats" not in params and "h_cache" not in params
    other = linearize(parse("i*(1-z)^2"))
    assert model == other
    model.h(0.3)
    assert model == other


# f-evaluations of visser_ostrovskii on alpha > 0, whose ladders settle
# and are sampled to the end; the divergence rule must not lengthen them.
# Each rung is h at its anchor, built once along the radial ladder, and
# its f: about 10 % over the counts, 629 (661 on quadrant, bfid-par,
# angular-only(0.5) and perturbed-parabolic)
VO_EVALS = {
    "parabolic-auto(1)": 700, "quadrant": 730, "power(-0.5,1)": 700,
    "power(0,i)": 700, "power(0.5,1)": 700, "power(1,1)": 700,
    "bfid-par": 730, "angular-only(0.5)": 730, "perturbed-parabolic": 730,
    "no-halfplane": 700,
}


@pytest.mark.parametrize("entry_id", sorted(VO_EVALS))
def test_divergent_ladders_stop_early(entry_id):
    # the per-circle sup grows like 2^(alpha k); the ladder is decided
    # infinite on its fifth circle
    model, evals = counted_model(parse(catalog.get(entry_id).f_text))
    assert model.alpha > 0
    assert bloch_norm(model) == math.inf
    assert evals[0] <= 5 * BLOCH_GRID
    evals[0] = 0
    visser_ostrovskii(model)
    assert evals[0] <= VO_EVALS[entry_id]


def test_bloch_norm_strip():
    # for the strip of width pi the seminorm peaks at 2
    model = linearize(parse("0.5*(z^2-1)"))
    assert bloch_norm(model) == pytest.approx(2.0, abs=1e-2)


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_visser_ostrovskii_modulus(entry_id):
    # h/((z-1)h') -> -1/alpha on every entry with a closed-form h (alpha > 0)
    model = linearize(parse(catalog.get(entry_id).f_text))
    assert model.alpha > 0
    est = visser_ostrovskii(model)
    assert est.converged
    assert abs(est.value + 1.0 / model.alpha) <= 1e-6 / model.alpha
