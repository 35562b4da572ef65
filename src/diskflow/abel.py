"""Abel linearization: h(z) = -integral of 1/f from 0 to z, its inverse,
the exact flow F_t = h^{-1}(h(z) + t), the (alpha, mu) boundary exponents,
and the geometry of the image domain h(Delta).

f is zero-free on the disk, so -1/f is holomorphic there and h may be
integrated along any path.  One adaptive Gauss-Legendre engine
integrates it along one path geometry, the straight segment in the
log-gap coordinate s = log(1 - w), where the boundary growth of h'
becomes smooth: h(z) itself, and the Newton increments of the inversion
between nearby iterates alike.  h at a point with
Re s > -L, L = 4 log 2, is one straight segment from 0; h at a deeper
point is h at its dyadic anchor a_j = -jL on the radius plus one segment
from there, the anchors chained along the radius once per generator (see
_h_at_gap), so every h value depends on f and the point alone.  f there
is evaluated in the half-plane chart w = (1 + z)/(1 - z) = 2e^(-s) - 1
(:func:`diskflow.expr.chart_form`), exact next to 1 where the rounded
point z = 1 - e^s is not.  A segment whose root panel has settled, by
the Legendre tail of its own 16 values,
stops there at 16 evaluations; any other is refined until two halves
agree.  A segment that ends closer to the circle than its last node is
probed there first; where f changes unseen, its end is reached along the
line Im w = const from a point of the chart next to 1, and graded toward
its end elsewhere (_h_at_gap).  Panel roundoff is the roundoff of the
sum, scaled at
each node by its distance to the nearest singular boundary point of h'
that the rounding of the node z = 1 - e^s reaches: every boundary null
point of f other than 1 on a Newton step, and 1 too for a callable with
no chart form.  The integrand is one kernel, _GAP_INTEGRAND below: a
single loop over the nodes of any rule, which
:func:`diskflow.expr.kernel` compiles once per generator with the code
of f in place of its one evaluation, so a node makes no Python call.  It
returns the rule's integral and the node values; the Legendre tail, the
roundoff estimate and the end probe are sums over those values, written
once in Python.  A model keeps the noise scales of its Newton steps,
from its null points, once its first inversion has built them.
Inversion is Newton's method, tracking h incrementally, one log-gap
integral per iterate rather than a fresh quadrature from 0.  A solve
from scratch starts where the leading term of h at 1,
(mu/alpha)(1 - z)^-alpha + C, takes the target value, which along radial
and Stolz approaches is a few Newton steps from the root, each one panel
of 1 to 16 nodes (fewer as the steps shrink) plus the evaluation at the
new iterate; the seed costs one log-gap segment from its anchor, and C,
with the anchors of every seed, a few more per model.  Where that seed
is outside the disk or its solve fails (tangential targets, slit
domains), a detour 0 -> T -> T + i Im w -> w stays in h(Delta) by
forward invariance.  It continues along straight w-segments in levels of
about 4 Newton steps, about 35 levels from 0 to a dyadic gap 2^-4 ..
2^-40.  An orbit, or any chain of targets, is one walk (_walk) with one
rule for far targets: a target w within 1 + min(|h|, |w|) of the answer
before it, where h is that answer's (twice the continuation's sub-target
cap at the smaller end), is continued from that answer and the h its
solve tracked, with no fresh quadrature; a farther one is solved from
its asymptotic seed, and continued only where that seed is outside the
disk or its solve fails.  The extremes of Im h, a harmonic function, are
boundary values: planar_domain_stats reads them on the unit circle and
along dyadic ladders at 1, each value h at its anchor plus one log-gap
segment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (InversionFailureError, NotInClassError, NotInDiskError,
                     SingularEvaluationError)
from .expr import (
    BoundaryLimitEstimate,
    Expr,
    as_callable,
    boundary_limit,
    chart_form,
    halving_rungs,
    kernel,
)
from .extrapolate import golden_min, ladder_limit

# the 16-point Gauss-Legendre rule on [-1, 1] as plain floats, digit for
# digit numpy.polynomial.legendre.leggauss(16); numpy float64 nodes would
# make every panel's arithmetic run as numpy scalar operations
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
)
_GL_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176,
)

STATS_GRID = 96  # circle angles of planar_domain_stats
NULL_SCAN_SAMPLES = 256  # angles of the |f| scan for boundary null points
BLOCH_GRID = 64  # angles per circle in bloch_norm
DETOUR_TRIES = 4  # right-hand offsets span * 4^j of the inversion detour


_GL_RULE = tuple(zip(_GL_NODES, _GL_WEIGHTS))

# (2n+1)/2 w_j P_n(x_j) for n = 10, 11, 14 and 15 at each node of the
# 16-point rule, each float the nearest double to its value at the roots
# of P_16: the sum of a column times the panel's integrand values is the
# Legendre coefficient c_n of their degree-15 interpolant, which the
# rule integrates exactly
_GL_TAIL = (
    (0.14127275587308694, -0.12875900151871053, 0.06270545045312347, -0.03278130486396174),
    (-0.25201541416293205, 0.2910139422600961, -0.20493540387013992, 0.1122209124505884),
    (-0.004145262192304828, -0.17862718973786104, 0.3541214949557947, -0.21159853063188444),
    (0.3629370293395895, -0.1752711653511037, -0.46284478766452636, 0.31691961779722083),
    (-0.32776977024340653, 0.448263465263729, 0.49770223675171826, -0.41664037702596135),
    (-0.13219978340747982, -0.3501669169395512, -0.4435406121078921, 0.5008933497159644),
    (0.47690655506715196, -0.07255887482241537, 0.305833437439604, -0.5617461448292791),
    (-0.2649861102737051, 0.45656586322525095, -0.10904181595768207, 0.5936159289428018),
    (-0.2649861102737051, -0.45656586322525095, -0.10904181595768207, -0.5936159289428018),
    (0.47690655506715196, 0.07255887482241537, 0.305833437439604, 0.5617461448292791),
    (-0.13219978340747982, 0.3501669169395512, -0.4435406121078921, -0.5008933497159644),
    (-0.32776977024340653, -0.448263465263729, 0.49770223675171826, 0.41664037702596135),
    (0.3629370293395895, 0.1752711653511037, -0.46284478766452636, -0.31691961779722083),
    (-0.004145262192304828, 0.17862718973786104, 0.3541214949557947, 0.21159853063188444),
    (-0.25201541416293205, -0.2910139422600961, -0.20493540387013992, -0.1122209124505884),
    (0.14127275587308694, 0.12875900151871053, 0.06270545045312347, 0.03278130486396174),
)
# the barycentric weight (-1)^j ((1 - x_j^2) w_j)^(1/2) of each node, those
# of interpolation in the Gauss-Legendre nodes (Wang, Huybrechs &
# Vandewalle, Math. Comp. 83, 2014), for the probe of a segment's end
_GL_BARYCENTRIC = tuple((-1) ** j * math.sqrt((1.0 - x ** 2) * w)
                        for j, (x, w) in enumerate(_GL_RULE))
# the noise scales of a panel whose nodes evaluate f exactly
_UNIT_SCALES = (1.0,) * len(_GL_RULE)
# the distance of the last node of the 16-point rule from the end of its
# interval, as a fraction of the interval
_END_NODE = 0.5 * (1.0 - _GL_NODES[-1])

# the 1-, 2-, 4- and 8-point Gauss-Legendre rules as (node, weight) pairs,
# each float the nearest double to the root of P_n or its weight (numpy's
# leggauss is a few ulps off in the 4- and 8-point weights), for the
# short Newton steps of _STEP_RULES
_GL1_RULE = ((0.0, 2.0),)
_GL2_RULE = ((-0.5773502691896257, 1.0), (0.5773502691896257, 1.0))
_GL4_RULE = (
    (-0.8611363115940526, 0.34785484513745385),
    (-0.33998104358485626, 0.6521451548625461),
    (0.33998104358485626, 0.6521451548625461),
    (0.8611363115940526, 0.34785484513745385),
)
_GL8_RULE = (
    (-0.9602898564975363, 0.10122853629037626),
    (-0.7966664774136267, 0.22238103445337448),
    (-0.525532409916329, 0.31370664587788727),
    (-0.1834346424956498, 0.362683783378362),
    (0.1834346424956498, 0.362683783378362),
    (0.525532409916329, 0.31370664587788727),
    (0.7966664774136267, 0.22238103445337448),
    (0.9602898564975363, 0.10122853629037626),
)

# (q_max, rule): a Newton step s -> s_new with q = |s_new - s|/d at most
# q_max, d the smaller _to_circle at its ends, is one panel of ``rule``;
# each q_max is the largest q, rounded down, at which that rule's
# Bernstein bound is no weaker than the 16-node bound at q = 1/2 (see
# _continue); longer steps go through _segment_integral
_STEP_RULES = (
    (1.914e-10, _GL1_RULE),
    (1.956e-5, _GL2_RULE),
    (6.255e-3, _GL4_RULE),
    (0.1121, _GL8_RULE),
    (0.5, _GL_RULE),
)

# The integrand of the one path geometry, the log-gap segment: dh/ds =
# d / f(1 - d) at the gap d = e^s.  At the half-plane chart point
# w = 2/d - 1 = 2e - 1, e = e^(-s), f is -(1/2) k d^2 with the slope
# k = 2p(w), so dh/ds = -2e/k.  ``integrand(t0, t1, rule)`` evaluates it
# at the nodes of ``rule``, (node, weight) pairs on [-1, 1] mapped onto
# [t0, t1], and returns the rule's integral, added up in node order, with
# the value at each node.  f is evaluated on one line, so expr.kernel
# inlines it once per generator; in the chart (expr.chart_form), so a
# node is exact next to 1, or at the rounded point 1 - d by a callable
# with no chart form.  No float stands on the left of a complex operand,
# which on CPython 3.11 first fails in the float slot: v * c is bit for
# bit c * v.  All else the adaptive engine reads of a panel is a sum over
# the values, written once below.
_GAP_INTEGRAND = """
def gap_integrand(t0, t1, rule):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    values = []
    keep = values.append
    for x, c in rule:
        e = exp(-(mid + half * x))
        w = (2+0j) * e - (1+0j)
        k = f_chart(w)
        v = (-2+0j) * e / k
        acc += v * c
        keep(v)
    return acc * half, values
"""


def _rounding_scales(zetas: tuple):
    """``(t0, t1) ->`` the noise scale 1 + |z|/gap of each node t of a
    log-gap panel, z = 1 - e^t rounded and gap its distance to the
    nearest of ``zetas``, the singular boundary points of h' whose
    distance counts: rounding z carries that relative noise into f."""
    def scales(t0: complex, t1: complex) -> list:
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        out = []
        for x in _GL_NODES:
            z = (1+0j) - cmath.exp(mid + half * x)
            gap = math.inf
            for zeta in zetas:
                far = abs(z - zeta)
                if far < gap:
                    gap = far
            out.append(1.0 + (abs(z) / gap if gap > 0 else 1e16))
        return out
    return scales


def _panel(path, t0: complex, t1: complex) -> tuple:
    """The 16-node panel of ``path`` over [t0, t1]: its integral and the
    roundoff estimate of the sum, 2.3e-16 |half| sum w_j |v_j| s_j.

    ``path`` is (integrand, scales), chosen once per generator
    (:func:`_log_gap`, ``LinearizationModel.newton_path``): the integrand
    kernel above, and the noise scales s_j of its nodes,
    :func:`_rounding_scales` where a singular point of h' lies at
    rounding distance of a node and None, all 1, where none does."""
    integrand, scales = path
    whole, values = integrand(t0, t1, _GL_RULE)
    rough = 0.0
    for v, w, scale in zip(values, _GL_WEIGHTS, scales(t0, t1) if scales else _UNIT_SCALES):
        rough += w * abs(v) * scale
    return whole, rough * abs(0.5 * (t1 - t0)) * 2.3e-16


def _legendre_tail(values) -> tuple:
    # the Legendre coefficients (c10, c11, c14, c15) of a panel's 16
    # values, by the columns of _GL_TAIL
    c10 = c11 = c14 = c15 = 0j
    for v, (p10, p11, p14, p15) in zip(values, _GL_TAIL):
        c10 += v * p10
        c11 += v * p11
        c14 += v * p14
        c15 += v * p15
    return c10, c11, c14, c15


def _root_tail(t0: complex, t1: complex, values) -> float:
    """The Legendre tail estimate of a root over [t0, t1] from its 16
    values: 2 |half| hi min(1, hi/lo)^2, where hi = max(|c14|, |c15|) and
    lo = max(|c10|, |c11|) (Gonnet, ACM TOMS 37(3), 2010)."""
    c10, c11, c14, c15 = _legendre_tail(values)
    hi = max(abs(c14), abs(c15))
    lo = max(abs(c10), abs(c11))
    if hi < lo:
        hi *= (hi / lo) * (hi / lo)
    return 2.0 * abs(0.5 * (t1 - t0)) * hi


def _probe(integrand, t0: complex, t1: complex, values, xp: float) -> tuple:
    # the integrand at the point xp of [-1, 1] past the last node,
    # evaluated after the 16 nodes, and the barycentric interpolant there
    # of their values, sum b_j v_j / (xp - x_j) / sum b_j / (xp - x_j)
    _, (value,) = integrand(t0, t1, ((xp, 0.0),))
    near, weights = 0j, 0.0
    for v, x, b in zip(values, _GL_NODES, _GL_BARYCENTRIC):
        b /= xp - x
        near += v * b
        weights += b
    return value, near / weights


def _segment_integral(path, t0: complex, t1: complex) -> complex:
    """Adaptive Gauss-Legendre integral of a path integrand over [t0, t1].

    The root is the 16-node integral over the whole segment, whose
    Legendre tail estimate (:func:`_root_tail`, from its own 16 values)
    decides it: a segment whose estimate is at most 1e-13 max(1, |I|) is
    that integral, after 16 evaluations.  Any other is refined from the
    root as its whole by :func:`_panel` halves, which the panel's
    roundoff estimate lets stop at the noise of the sum.

    The root's integral is the panel's bit for bit, so a segment that
    falls back costs and returns exactly what the halves alone would.
    The test reads the root only, with the square of hi/lo and no
    roundoff term: a steeper law accepts roots that angular-only's end
    layer fools (at 1 - 2^-8, (hi/lo)^3 is 8.6 tolerances off), the test
    on every leaf fails the closed-form checks at any exponent, and a
    roundoff term would need the noise of the costlier panel at the root.
    """
    return _settled(path, t0, t1, *path[0](t0, t1, _GL_RULE))


def _settled(path, t0: complex, t1: complex, whole: complex, values) -> complex:
    # the root's integral where its tail is settled, else refined from it
    if _root_tail(t0, t1, values) <= 1e-13 * max(1.0, abs(whole)):
        return whole
    return _refine(path, t0, t1, whole, 0)


def _refine(path, t0: complex, t1: complex, whole: complex, depth: int) -> complex:
    # ``whole`` is the integral over [t0, t1], computed once by the
    # caller; each half is passed down as its child's whole
    mid = 0.5 * (t0 + t1)
    left, nl = _panel(path, t0, mid)
    right, nr = _panel(path, mid, t1)
    halves = left + right
    noise = nl + nr
    tol = max(1e-13 * max(1.0, abs(halves)), 8.0 * noise)
    if abs(whole - halves) <= tol or depth >= 12:
        return halves
    return (
        _refine(path, t0, mid, left, depth + 1)
        + _refine(path, mid, t1, right, depth + 1)
    )


def abel_h(f, z: complex) -> complex:
    """h(z) = -integral from 0 to z of dw/f, in the log-gap coordinate
    s = log(1 - w): the straight segment from 0 to log(1 - z), or from
    the anchor of a deeper point (see :func:`_h_at_gap`).

    For the generators of the class h'(w) ~ mu (1 - w)^-(1+alpha) at the
    boundary point 1, so dh/ds ~ -mu e^(-alpha s) is smooth at every
    scale and one segment resolves radial, Stolz and tangential
    approaches alike.  The segment stays in the disk: the disk is the
    convex set Re s < log(2 cos(Im s)) in s.  A point outside the closed
    disk raises NotInDiskError, as :func:`~diskflow.flow.integrate` does,
    rather than continuing h analytically past the circle.
    """
    z = complex(z)
    if z == 0:
        return 0j
    if not cmath.isfinite(z):  # the chart form need not see it: that of -(1 - z)^2 is 2
        raise SingularEvaluationError(f"singular evaluation at z = {z}: not a finite point")
    if abs(z) > 1.0:
        raise NotInDiskError(f"point |z| = {abs(z)} outside the closed disk")
    return _h_at_gap(as_callable(f), cmath.log(1.0 - z))


# the spacing L = 4 log 2 of the anchors a_j = -j L of the log-gap
# segments, on the radius at the gaps 16^-j
_ANCHOR_STEP = 4.0 * math.log(2.0)
# the anchor of the deepest seed, whose Re s _asymptotic_gap clamps at -36
_SEED_ANCHOR = round(36.0 / _ANCHOR_STEP)


def _h_at_gap(fn, s: complex, chart: bool = True) -> complex:
    """h at 1 - e^s, integrated in the log-gap coordinate.

    A point with Re s > -L, L = _ANCHOR_STEP, is the segment from 0 to s.
    A deeper one is h at the anchor a_j = -j L, j = round(-Re s / L), plus
    the segment from a_j to s, which is at most L/2 long in Re s.  The
    anchors are chained along the real axis, h(a_j) = h(a_(j-1)) + the
    segment between them, each built once per callable on first use and
    kept on it (see :func:`_log_gap`), so h at a point depends on f and
    the point alone, not on the calls before it.

    The segment to s is probed where it ends near the circle.  In its
    parameter t in [0, 1], where |dz/dt| = |1 - z| |s - t0| at the end
    z = 1 - e^s, z lies rho = (1 - |z|^2) / (2 |1 - z| |s - t0|) from the
    circle.  Where rho is below the distance _END_NODE of the 16-point
    rule's last node from the end, f between that node and the circle is
    seen by no node, nor by any halving that keeps to the nodes' scale:
    next to the level-1 horocycle the factor exp(-(1+z)/(1-z)) of
    angular-only(0.5) is away from 0 only there, and a root from an
    anchor reads settled 7.6e5 tolerances off at |1 - z| = 2^-12.  Such a
    segment is probed at t = 1 - min(4 rho, _END_NODE/2): the integrand
    there against the interpolant of the root's 16 values.  Where they
    agree to 1e-8 relative (plus the rounding of f at rounded points),
    the root stands as any other.  On the class generators they agree to
    3e-12 at every tangential ladder point, so the probe costs them one
    evaluation.

    Past a failed probe next to 1, s is reached along the line
    Im w = const of the chart w = 2e^(-s) - 1, from its point W at
    Re W = max(80, 64 Re w): h(W), with ``chart`` off, plus the segment
    from W to s, which crosses the horocycles rather than running along
    them.  That leg is taken where it is shorter than the segment it
    replaces, as it is where |w| is large, about Re W / |w| long.  Next
    to another null point of f, such as -1 where w is near 0, the leg
    would be longer and end as close to the pole that failed the probe,
    so there, and where W's own probe fails, the segment is cut at
    t = 1 - 2^-m, m = 1 .. ceil(log2(1/rho)) + 1, a mesh graded
    geometrically toward its end (as hp methods grade toward a corner
    layer; Schwab, p- and hp-Finite Element Methods, 1998), each piece
    integrated adaptively.  A point on the circle (1 - |z|^2 at rounding
    level) is a boundary value and keeps its one segment: the disk's
    s-image Re s < log(2 cos(Im s)) is convex and the nodes are
    interior, so that value is reached without evaluating f on the
    circle.
    """
    path, anchors = _log_gap(fn)
    j = _anchor_index(s)
    while len(anchors) <= j:
        k = len(anchors)
        anchors.append(anchors[-1] + _segment_integral(path, _anchor(k - 1), _anchor(k)))
    t0 = _anchor(j)
    if s == t0:
        return anchors[j]
    to_circle = _to_circle(s)
    if 5e-16 < to_circle < _END_NODE * abs(s - t0):
        integrand = path[0]
        whole, values = integrand(t0, s, _GL_RULE)
        rho = to_circle / abs(s - t0)
        value, near = _probe(integrand, t0, s, values, 1.0 - 2.0 * min(4.0 * rho, 0.5 * _END_NODE))
        agree = 1e-8 + (64 * 2.3e-16 / math.exp(s.real) if path[1] else 0.0)
        if abs(value - near) <= agree * abs(value):
            segment = _settled(path, t0, s, whole, values)
        else:
            w = 2.0 * cmath.exp(-s) - 1.0
            s_far = math.log(2.0) - cmath.log(complex(max(80.0, 64.0 * w.real), w.imag) + 1.0)
            if chart and abs(s - s_far) < abs(s - t0):
                return _h_at_gap(fn, s_far, False) + _segment_integral(path, s_far, s)
            cuts = [t0 + (1.0 - 2.0**-m) * (s - t0) for m in range(1, math.ceil(-math.log2(rho)) + 2)]
            ends = [t0, *cuts, s]
            segment = sum(_segment_integral(path, a, b) for a, b in zip(ends, ends[1:]))
    else:
        segment = _segment_integral(path, t0, s)
    return anchors[j] + segment if j else segment


def _anchor_index(s: complex) -> int:
    # j of the anchor a_j that h at 1 - e^s is integrated from (a_0 = 0)
    return round(-s.real / _ANCHOR_STEP) if s.real <= -_ANCHOR_STEP else 0


def _anchor(j: int) -> complex:
    return complex(-j * _ANCHOR_STEP)


def _log_gap(fn) -> tuple:
    """(path, anchors) of the log-gap segments of ``fn``: the kernel of
    _GAP_INTEGRAND with its noise scales (see :func:`_panel`), which are
    None unless f is evaluated at rounded points (a callable with no
    chart form), and h(a_0), h(a_1), ... at the anchors built so far.
    Made on first use and kept on ``fn`` beside its kernels; a callable
    that takes no attributes keeps none and rebuilds them on each call."""
    state = getattr(fn, "log_gap", None)
    if state is None:
        scales = _rounding_scales((1+0j,)) if chart_form(fn) is None else None
        state = (kernel(fn, _GAP_INTEGRAND), scales), [0j]
        try:
            fn.log_gap = state
        except AttributeError:
            pass
    return state


def _circle_gap(theta: float) -> complex:
    # log(1 - e^{i theta}) for 0 < |theta| <= pi, free of the cancellation
    # in 1 - e^{i theta}: 1 - e^{i theta} = 2 sin(theta/2) e^{i(theta - pi)/2}
    return complex(
        math.log(2.0 * abs(math.sin(0.5 * theta))),
        0.5 * theta - math.copysign(0.5 * math.pi, theta),
    )


@dataclass
class LinearizationModel:
    """The Abel function of a generator plus its boundary exponents.

    ``h_cache`` memoizes h at the exact points asked for through
    :meth:`h`; :func:`invert_h` does not consult it.  :meth:`orbit`
    walks the forward ray h(z) + t.  The other parts of the model are
    cached properties, each computed on first use and kept:
    ``domain_stats``, the extremes of Im h (:func:`planar_domain_stats`);
    ``null_points``, the boundary null points of f
    (:func:`find_boundary_null_points`); ``newton_path``, the path of the
    Newton steps of :func:`invert_h` (see :func:`_panel`): the log-gap
    kernel with the noise scales of the null points other than 1, and
    of 1 itself for a callable with no chart form; and
    ``asymptote``, the constant C of its asymptotic seed.
    """

    f: Expr
    alpha: float
    mu: complex
    mu_class: str  # Sigma0 | SigmaAlpha-angular | SigmaAlpha-unrestricted
    h_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._fn = as_callable(self.f)
        self.h_cache[0j] = 0j

    @cached_property
    def domain_stats(self) -> PlanarDomainStats:
        return _planar_domain_stats(self._fn)

    @cached_property
    def null_points(self) -> list:
        return find_boundary_null_points(self._fn)

    @cached_property
    def newton_path(self) -> tuple:
        zetas = tuple(p["zeta"] for p in self.null_points if abs(p["zeta"] - 1) > 1e-6)
        (integrand, rounded), _ = _log_gap(self._fn)
        if rounded:
            zetas += (1+0j,)
        return integrand, _rounding_scales(zetas) if zetas else None

    @cached_property
    def asymptote(self) -> complex:
        """C = h(z1) - H(z1) at z1 = 1 - 2^-6, where H is the leading term
        of h at 1; nan where f is singular on the way to z1.

        The seeds that C gives reach Re s = -36 (see _asymptotic_gap),
        so the anchors of their log-gap segments are built here too, down
        to that depth, once per generator rather than on the first far
        solve."""
        xi = 2.0**-6
        if self.alpha > 0:
            lead = self.mu / self.alpha * xi ** -self.alpha
        else:
            lead = -self.mu * math.log(xi)
        try:
            constant = _h_at_gap(self._fn, complex(math.log(xi))) - lead
        except SingularEvaluationError:
            return complex(math.nan, math.nan)
        try:
            _h_at_gap(self._fn, _anchor(_SEED_ANCHOR))
        except SingularEvaluationError:
            pass  # a seed that needs the missing anchors fails its solve
        return constant

    def h(self, z: complex) -> complex:
        z = complex(z)
        cached = self.h_cache.get(z)
        if cached is not None:
            return cached
        value = abel_h(self._fn, z)
        self.h_cache[z] = value
        return value

    def h_prime(self, z: complex) -> complex:
        return -1.0 / self._fn(z)

    def orbit(self, z: complex, times):
        """F_t(z) at each of the increasing ``times``, in turn: one walk
        along the ray h(z) + t (see :func:`_walk`), where h is integrated
        at z and at the asymptotic seed of each time more than
        1 + min(|h|, |w|) past the one before, w being its target and h
        that of the answer before it; a nearer time is continued from
        that answer.  A failed solve raises at its time."""
        h_z = self.h(z)
        for u, _ in _walk(self, z, h_z, (h_z + t for t in times)):
            yield u


def invert_h(model: LinearizationModel, w: complex) -> complex:
    """Solve h(z) = w by Newton's method, from scratch.

    The inversion starts near its answer: at the point where the
    leading term of h at 1, (mu/alpha)(1 - z)^-alpha + C
    (-mu log(1 - z) + C for alpha = 0), takes the value w.  Along radial
    and Stolz approaches that seed is within a few Newton steps of the
    root.  h is univalent, so a converged solve with its residual
    checked proves w in h(Delta).  When the seed falls outside the disk
    or its solve fails, the inversion takes a detour that stays in
    h(Delta): 0 -> T -> T + i Im w -> w.  h(Delta) + t lies in h(Delta)
    for t >= 0 (forward flow invariance), so the first leg follows the
    orbit of 0, and the last leg, the ray from w to the right, lies in
    h(Delta) exactly when w does; only the vertical leg needs T large
    enough, and it alone is retried further right.  A failed last leg
    therefore means w is outside h(Delta), and InversionFailureError
    doubles as the membership oracle for h(Delta).

    f is evaluated once per iterate: the value that decides convergence
    at z is also the next Newton quotient.  A step short against its
    distance to the circle is one panel of 1, 2, 4, 8 or 16 nodes, the
    fewest its error bound allows (see :func:`_continue`), so a
    Newton step costs 2 to 17 evaluations, and the short steps that end
    a quadratically converging level cost the fewest.
    """
    w = _finite_target(w)
    solved = _from_asymptote(model, w)
    if solved is not None:
        return solved[0]
    try:
        return _detour(model, w)
    except SingularEvaluationError as exc:
        raise InversionFailureError(
            f"f is singular on the detour toward {w}: {exc}", target=w
        ) from exc


def _finite_target(w) -> complex:
    w = complex(w)
    if not cmath.isfinite(w):
        raise InversionFailureError(f"target w = {w} is not finite", target=w)
    return w


def _walk(model: LinearizationModel, z: complex, h_z: complex, targets):
    """Yield (z', h(z')) with h(z') = w for each w of ``targets`` in turn,
    starting from z, where h = h_z.

    Each target is one :func:`_step` from the answer before it: a near
    target is continued from that answer and the h its solve tracked, a
    far one solved from its asymptotic seed where that converges.  A
    failed solve raises at its target, which ends the walk there.
    """
    point = (complex(z), h_z)
    for w in targets:
        point = _step(model, *point, _finite_target(w))
        yield point


def _step(model: LinearizationModel, z: complex, h_cur: complex, w: complex) -> tuple:
    """(z', h(z')) with h(z') = w, reached from z, where h = h_cur.

    A target more than twice the continuation's sub-target cap away
    at the smaller end of the jump, |w - h_cur| > 1 + min(|h_cur|, |w|),
    is first solved from its asymptotic preimage (:func:`_from_asymptote`);
    a nearer target, or one whose seed is outside the disk or whose seed
    solve fails, is continued from z.  Either answer is a converged
    Newton solve with its residual checked, and h is univalent, so both
    are the same point, and only a failed continuation raises: inversion
    failure stays a membership answer for h(Delta).

    The smaller end sets the scale because z carries the error of its
    own machine floor, which grows with |h_cur|, and a continuation
    from z carries it into the answer: on quadrant from 0.3+0.2i, the
    inward jump h0 + 1e5 -> h0 + 50 continued lands 5.0e-3 off the
    closed form (from h0 + 1e6 it pins at the boundary), where the seed
    solve is 3.6e-12 off.

    The threshold k = 1 of |w - h_cur| > k (1 + min(|h_cur|, |w|)) comes
    from a sweep of counted bfid_report f-evals on six catalog entries,
    taken with the scale 1 + |h_cur| (see the README): k = 1/2, which
    seeds every outward jump of more than one sub-target, costs bfid-par
    more and moves the quadrant M statistic of a walk of orbit off its
    closed form, and k = 2 and 8 cost no less on every entry but
    bfid-par.  A seed costs one log-gap segment from its anchor and a
    few Newton steps, where a continuation takes up to 35 levels:
    abel_flow on quadrant from 0 to t = 1e6 takes 18 f-evals in place of
    4,933 once the model's Newton path and C (with the anchors of its
    seeds) are built.
    """
    if abs(w - h_cur) > 1.0 + min(abs(h_cur), abs(w)):
        solved = _from_asymptote(model, w)
        if solved is not None:
            return solved
    return _continue(model, z, h_cur, w)


def _continue(model: LinearizationModel, z: complex, h_cur: complex, w: complex) -> tuple:
    """Newton continuation from z, where h = h_cur, to h = w along the
    straight w-segment; returns (z, h(z)).

    Sub-targets are spaced so each jump satisfies |dw| <= 0.5 (1 + |h|),
    and at each Newton iterates z -> z + (h(z) - w) f(z), with h tracked
    along each step's log-gap segment.  A jump grows 1 + |h| at most
    1.5-fold outward and halves it at most inward, so twice
    log(1 + |w| + |h_cur|)/log(1.5) sub-targets cover a path in toward 0
    and out to w; a continuation that stalls (the machine floor
    exceeding the jump) ends there.

    Newton runs in s = log(1-z) (principal branch; Re(1-z) > 0 on the
    disk), where the step is a relative change of 1-z.  Near the
    boundary this stays well conditioned where a raw z-step overshoots,
    and dh along the step is the log-gap segment s -> s_new.  Each level
    starts from s = log(1 - z) and carries s and d(s) (below) from step
    to step: one cos and one exp per trial point serve the disk test
    d > 5e-15 e^(Re s) (Re s < log(2 cos(Im s)) - 1e-14) and the step's
    rule.  A step is Newton's, clamped at Re s = -36, capped at length 1
    and halved while outside the disk; a capped step that does not lower
    |h - w_sub| is halved once more (the monotonicity test of damped
    Newton; Deuflhard, Newton Methods for Nonlinear Problems, 2004).

    The disk's s-image Omega is convex, so along a segment the distance
    to its boundary is at least its smaller value at the ends, and at s
    at least d(s) = cos(Im s) - e^(Re s)/2 = (1 - |z|^2)/(2 |1 - z|):
    the hyperbolic density of a convex domain, here |1 - z|/(1 - |z|^2),
    is at least 1/(2 dist) (Beardon & Minda, "The hyperbolic metric and
    geometric function theory", 2007).  A step with q = |s_new - s|/d
    <= 1/2, d the smaller d(s) at its ends, is one n-node Gauss-Legendre
    panel.  Its half-length is L = q d/2.  The Bernstein ellipse of the
    segment with rho - 1/rho = 2/q has semi-minor axis
    L (rho - 1/rho)/2 = d/2 and reaches past either end by less than
    that, so it stays within d/2 of the segment and inside Omega, where
    dh/ds is holomorphic.  There the n-node error is at most
    (64/15) M rho^-2(n-1) / (rho^2 - 1) L (Trefethen, "Is Gauss
    quadrature better than Clenshaw-Curtis?", SIAM Rev. 2008, Thm 4.5,
    whose I_n is the (n+1)-node rule), with M the maximum of |dh/ds| on
    the ellipse.  s -> 1 - e^s maps Omega conformally onto the disk, so
    h(1 - e^s) is univalent on Omega; each ellipse point lies within
    pseudo-hyperbolic distance 1/2 of the segment, in a disk of radius d
    about a segment point, so Koebe distortion bounds M by
    12 max |dh/ds| on the segment.  At q = 1/2, rho0 = 2 + 5^(1/2) ~ 4.2
    and 16 nodes give (64/15) rho0^-30 / (rho0^2 - 1) L ~ 4e-20 M L, far
    below the roundoff of the sum.  rho^-2(n-1) / (rho^2 - 1) grows with
    q, so each n has a largest q at which it is no larger than
    rho0^-30 / (rho0^2 - 1); a step takes the fewest nodes whose
    cut-off it meets (_STEP_RULES, the cut-offs rounded down):

        q at most   1.914e-10  1.956e-5  6.255e-3  0.1121  0.5
        nodes n     1          2         4         8       16

    q measured along the chord in z would not do: from z = 0 to -1/3 it
    is 1/2 there and 0.71 in s, where the 16-node factor is 6e-16.
    Newton converges quadratically, so the steps of a level shrink
    through these bands in turn.  Every other step, those that reach
    toward the circle relative to their length, goes through the
    adaptive :func:`_segment_integral`.
    """
    fn, path = model._fn, model.newton_path
    fz = _f_or_none(fn, z)
    tol = max(1e-12, 1e-15 * abs(w))
    budget = 2 * math.ceil(math.log(1.0 + abs(w) + abs(h_cur)) / math.log(1.5))
    s = cmath.log(1.0 - z)
    for _ in range(budget):
        remaining = w - h_cur
        # saturation is read from the carried s, which a clamped step
        # leaves at exactly -36, not from the rounded iterate
        if abs(remaining) <= max(tol, _machine_floor(fz, z)) or _saturated(s, remaining):
            return z, h_cur
        cap = 0.5 * (1.0 + abs(h_cur))
        w_sub = h_cur + remaining / abs(remaining) * cap if abs(remaining) > cap else w
        s = cmath.log(1.0 - z)
        d = _to_circle(s)
        for _ in range(50):
            residual = h_cur - w_sub
            if _saturated(s, -residual):
                break
            if fz is None:
                fz = fn(z)  # singular at the iterate: raises as f does
            step = -residual * fz / (1.0 - z)
            # below Re s = -36 the iterate would round to z = 1, and the
            # floor applies: a step past it stops there, with the imaginary
            # part that matches Im h to first order (none if Re dh/ds = 0)
            if (s + step).real < -36.0:
                rate, down = (1.0 - z) / fz, -36.0 - s.real  # dh/ds
                match = -(residual.imag + rate.imag * down) / rate.real if rate.real else 0.0
                step = complex(down, match)
            capped = abs(step) > 1.0
            if capped:
                step *= 1.0 / abs(step)
            for _ in range(60):
                s_new = s + step
                gap = math.exp(s_new.real)
                d_new = math.cos(s_new.imag) - 0.5 * gap
                if d_new > 5e-15 * gap:
                    rule = _step_rule(abs(s_new - s), min(d, d_new))
                    try:
                        if rule is not None:
                            dh = path[0](s, s_new, rule)[0]
                        else:
                            dh = _segment_integral(path, s, s_new)
                    except SingularEvaluationError as exc:
                        raise InversionFailureError(
                            f"quadrature broke during inversion toward {w}: {exc}",
                            last_iterate=z,
                            target=w,
                        ) from exc
                    if not capped or abs(residual + dh) < abs(residual):
                        break
                    capped = False
                step *= 0.5
            else:
                raise InversionFailureError(
                    f"Newton iterate pinned at the boundary while solving h(z) = {w}",
                    last_iterate=z,
                    target=w,
                )
            z, h_cur, s, d = 1.0 - cmath.exp(s_new), h_cur + dh, s_new, d_new
            fz = _f_or_none(fn, z)
            if abs(h_cur - w_sub) <= max(tol, _machine_floor(fz, z)):
                break
        else:
            raise InversionFailureError(
                f"Newton did not converge at continuation level {w_sub}",
                last_iterate=z,
                target=w,
            )
    if abs(w - h_cur) <= max(tol, _machine_floor(fz, z)):
        return z, h_cur
    raise InversionFailureError(
        f"continuation did not reach w = {w}", last_iterate=z, target=w
    )


def _asymptotic_gap(model: LinearizationModel, w: complex):
    """s = log(1 - z0) of the point z0 where H + C takes the value w, or
    None when there is no such point in the disk.

    For alpha > 0 the root is xi = 1 - z0 with principal
    xi^-alpha = alpha (w - C)/mu; alpha <= 2, so the principal root
    q^(-1/alpha) is the only candidate with Re xi > 0.  The disk test
    is Newton's (see :func:`_continue`), for s in the strip
    |Im s| < pi/2 and with Re s < 1, where e^(Re s) cannot overflow.  A
    gap below e^-36 is clamped there, as Newton clamps it.
    """
    if model.mu == 0:
        return None
    offset = w - model.asymptote
    if model.alpha > 0:
        q = model.alpha * offset / model.mu
        if q == 0:
            return None
        s = -cmath.log(q) / model.alpha
    else:
        s = -offset / model.mu
    if not (cmath.isfinite(s) and abs(s.imag) < 0.5 * math.pi and s.real < 1.0
            and _to_circle(s) > 5e-15 * math.exp(s.real)):
        return None
    return complex(max(s.real, -36.0), s.imag)


def _from_asymptote(model: LinearizationModel, w: complex):
    """(z, h(z)) with h(z) = w, solved by Newton from the asymptotic
    preimage of w; None where that is outside the disk or the solve
    fails."""
    s = _asymptotic_gap(model, w)
    if s is None:
        return None
    try:
        return _continue(model, 1.0 - cmath.exp(s), _h_at_gap(model._fn, s), w)
    except (InversionFailureError, SingularEvaluationError):
        return None


def _detour(model: LinearizationModel, w: complex) -> complex:
    """Invert w along 0 -> T -> T + i Im w -> w, T = max(0, Re w) + span 4^j.

    The first leg is the forward orbit of 0 and the last the ray from w
    to the right, which lie in h(Delta) (the last exactly when w does).
    The corner T is one :func:`_step` from the corner before it, or from
    0: a far corner is solved from its asymptotic preimage where that
    converges (h is univalent, so it is the same point of the orbit), and
    any other is continued along the axis.  A failed vertical leg is
    retried from the axis further right; a failed last leg raises: w is
    not in h(Delta).
    """
    z, h_cur = 0j, 0j
    span = 1.0 + abs(w.imag)
    for j in range(DETOUR_TRIES):
        corner = max(0.0, w.real) + span * 4.0**j
        z, h_cur = _step(model, z, h_cur, complex(corner, 0.0))
        try:
            z_up, h_up = _continue(model, z, h_cur, complex(corner, w.imag))
        except (InversionFailureError, SingularEvaluationError):
            continue
        return _continue(model, z_up, h_up, w)[0]
    raise InversionFailureError(
        f"no vertical leg reached Im w = {w.imag} up to Re w = {corner}", target=w
    )


def _saturated(s: complex, left: complex) -> bool:
    """Whether the exact solution rounds to the iterate z = 1 - e^s: s
    sits at the smallest gap that Newton resolves (it clamps Re s at
    -36, and e^-36 = 2.3e-16), and what is left of the target, ``left`` =
    w - h(z), is a pure forward time shift (positive real part, imaginary
    part resolved).  The rounded z would not do: at Re s = -36 and
    |Im s| about 0.43 it reads |1 - z| = 2.41e-16 to 2.43e-16."""
    return (s.real <= -36.0 and left.real > 0
            and abs(left.imag) <= 1e-9 * (1.0 + left.real))


def _f_or_none(fn, z: complex):
    # f(z), or None where f is singular
    try:
        return fn(z)
    except SingularEvaluationError:
        return None


def _machine_floor(fz, z: complex) -> float:
    # one ulp of z moves h by about eps/|f(z)|; residuals below that are
    # unresolvable in double precision.  fz is f(z), None where singular.
    if fz is None:
        return 0.0
    speed = abs(fz)
    if speed == 0.0:
        return math.inf
    return 32.0 * 2.3e-16 * max(1.0, abs(z)) / speed


def _to_circle(s: complex) -> float:
    # (1 - |z|^2)/(2 |1 - z|) at z = 1 - e^s, free of the cancellation in
    # 1 - |z|; at most the distance from s to the circle's s-image
    return math.cos(s.imag) - 0.5 * math.exp(s.real)


def _step_rule(length: float, distance: float):
    """The rule of _STEP_RULES for a Newton step of this length in s whose
    ends lie at least ``distance`` (see :func:`_to_circle`) from the
    circle's s-image, or None for a step too long against it."""
    for q_max, rule in _STEP_RULES:
        if length <= q_max * distance:
            return rule
    return None


def abel_flow(model: LinearizationModel, z: complex, t: float) -> complex:
    """F_t(z) = h^{-1}(h(z) + t), the one-time case of
    :meth:`LinearizationModel.orbit`: solved from the asymptotic seed of
    h(z) + t when |t| > 1 + min(|h(z)|, |h(z) + t|) and that converges,
    else continued from z.  Valid for negative t exactly when the
    backward orbit exists (otherwise the inversion fails, signalling
    that h(z) + t lies outside h(Delta))."""
    if t == 0:
        return complex(z)
    return next(model.orbit(z, (t,)))


# --- (alpha, mu) estimation --------------------------------------------------


def estimate_alpha_mu(f):
    """Estimate (alpha, mu, class) from the growth of h' = -1/f at 1.

    |h'(z)| ~ |mu| |1-z|^-(1+alpha) at the boundary point, and
    1 - (1+z)/2 = (1-z)/2 exactly, so the pointwise slope
    log2 |h'((1+z)/2) / h'(z)| tends to 1 + alpha (on the radial ladder,
    whose midpoints are its next rungs, each f value serves two rungs); a slope that does not
    converge is no power law and lies outside the class.  mu is the
    extrapolated value of (1-z)^(1+alpha) h'(z).  The class tag records
    whether the mu limit also exists along Stolz rays and a tangential
    curve (unrestricted), only along rays (angular), or has alpha = 0
    (the hyperbolic/strip case Sigma0).
    """
    fn = as_callable(f)
    growth = boundary_limit(
        halving_rungs(fn, lambda z, fz, f_mid: math.log2(abs(fz / f_mid))), "radial", tol=1e-4
    )
    if not growth.converged:
        raise NotInClassError(
            f"growth of h' at the boundary is not a clean power law "
            f"(slope {growth.value.real:.6g} did not converge)"
        )
    alpha = growth.value.real - 1.0
    if not -0.05 <= alpha <= 2.05:
        raise NotInClassError(f"estimated alpha = {alpha} outside [0, 2]")
    alpha = min(max(alpha, 0.0), 2.0)

    def mu_fn(z: complex) -> complex:
        return (1.0 - z) ** (1.0 + alpha) * (-1.0 / fn(z))

    # snap to an exact exponent when extremely close, but only where the
    # mu ladder then settles: the mu limit is only clean when the power
    # matches, and a snap off the true exponent leaves a factor
    # (1-z)^(measured - snap) that no ladder decides
    measured = alpha
    snap = min((0.0, 0.5, 1.0, 1.5, 2.0), key=lambda s: abs(measured - s))
    if abs(measured - snap) < 5e-3:
        alpha = snap
    radial = boundary_limit(mu_fn, "radial", tol=1e-8)
    if not radial.converged and alpha != measured:
        alpha = measured
        radial = boundary_limit(mu_fn, "radial", tol=1e-8)
    mu = radial.value
    if alpha < 0.025:
        return 0.0, mu, "Sigma0"

    ray_ok = True
    for theta in (math.pi / 3, -math.pi / 3):
        est = boundary_limit(mu_fn, f"stolz-ray({theta})", tol=1e-6)
        if not est.converged or abs(est.value - mu) > 0.01 * max(1.0, abs(mu)):
            ray_ok = False
    tang = boundary_limit(mu_fn, "tangential-curve(1)", tol=1e-6)
    tang_ok = tang.converged and abs(tang.value - mu) <= 0.01 * max(1.0, abs(mu))
    tag = "SigmaAlpha-unrestricted" if ray_ok and tang_ok else "SigmaAlpha-angular"
    return alpha, mu, tag


def linearize(f) -> LinearizationModel:
    """The linearization model of a generator.

    The model of an expression is built once and kept on its node, as
    :func:`~diskflow.expr.compile_expr` keeps the callable, so every
    call on that node (classify, bfid_report, the CLI verbs) shares its
    exponents, null points, Newton path, asymptote and ``h_cache``.
    Any other callable gets a fresh model on every call.  An expression
    outside the class raises NotInClassError on every call: no failure
    is kept.
    """
    kept = isinstance(f, Expr)
    if kept and hasattr(f, "_model"):
        return f._model
    alpha, mu, tag = estimate_alpha_mu(f)
    model = LinearizationModel(f=f, alpha=alpha, mu=mu, mu_class=tag)
    if kept:
        object.__setattr__(f, "_model", model)  # nodes are frozen
    return model


# --- boundary null points ---------------------------------------------------


def _polish_null_point(fn, zeta: complex) -> complex:
    """Newton-polish a boundary null point from just inside the circle.

    Golden-section leaves an angular error near 1e-12, which the
    quotient f/(z - zeta) amplifies by 2^k; a few Newton steps with a
    centered difference along the circle push that error to rounding
    level.  The polish is abandoned if it tries to move the point by
    more than the bracket could justify.
    """
    start = zeta
    for _ in range(4):
        z = (1 - 1e-6) * zeta
        step = 1e-5
        try:
            fz = fn(z)
            deriv = (fn(z * cmath.exp(1j * step)) - fn(z * cmath.exp(-1j * step)))
            deriv /= 2j * step * z
        except SingularEvaluationError:
            return start
        if deriv == 0:
            break
        root = z - fz / deriv
        if root == 0:
            break
        new = root / abs(root)
        if abs(new - start) > 1e-6:
            return start
        if abs(new - zeta) < 1e-15:
            return new
        zeta = new
    return zeta


def _derivative_limit(fn, zeta: complex) -> BoundaryLimitEstimate:
    """Radial limit of f/(z - zeta) at a polished null point.

    The quotient's error ladder is geometric in powers of (1-r)^(1/2)
    on the dyadic radii k = 6..22, so eliminating the known ratios
    2^(-m/2) exactly leaves a residual far below the sampling noise.
    This ladder stays separate from boundary_limit on purpose: f'(zeta)
    sets the group parameter a, and at the null points 1 and -1 of
    bfid-hyp boundary_limit's Aitken acceleration leaves |f'(1) - 2| =
    4.8e-7 and |f'(-1) + 4| = 9.5e-7, the elimination 1.3e-14 and 1.5e-14.
    A settled eliminated tail is finite.  When any sample fails or the
    tail does not settle (an unbounded quotient never does), the answer
    is boundary_limit's, which decides divergence from the ladder's own
    differences.
    """
    def quotient(w: complex) -> complex:
        return fn(w) / (w - zeta)

    vals = []
    for k in range(6, 23):
        try:
            vals.append(quotient(zeta * (1 - 2.0 ** (-k))))
        except SingularEvaluationError:
            return boundary_limit(lambda z: quotient(zeta * z), "radial")
    for m in range(1, 6):
        q = 2.0 ** (-0.5 * m)
        vals = [(b - q * a) / (1.0 - q) for a, b in zip(vals, vals[1:])]
    tail = vals[-3:]
    value = tail[-1]
    if max(abs(u - value) for u in tail) < 1e-6 * max(1.0, abs(value)):
        return BoundaryLimitEstimate(value, True)
    return boundary_limit(lambda z: quotient(zeta * z), "radial")


def find_boundary_null_points(f) -> list:
    """Boundary null points of f (an Expr or a callable) with their angular derivatives.

    Scans |f| at NULL_SCAN_SAMPLES angles on the circle r = 1 - 1e-4,
    refines each local minimum by golden-section in angle, then takes
    radial limits of f and of f/(z - zeta).  ``regular`` means f -> 0
    and f/(z - zeta) finite.
    """
    samples = NULL_SCAN_SAMPLES
    fn = as_callable(f)
    r0 = 1 - 1e-4

    def mag(theta: float) -> float:
        try:
            return abs(fn(r0 * cmath.exp(1j * theta)))
        except SingularEvaluationError:
            return math.inf

    thetas = [2 * math.pi * j / samples for j in range(samples)]
    mags = [mag(t) for t in thetas]
    results = []
    for j in range(samples):
        prev, nxt = mags[j - 1], mags[(j + 1) % samples]
        if not (mags[j] <= prev and mags[j] <= nxt):
            continue
        theta, _ = golden_min(mag, thetas[j] - 2 * math.pi / samples,
                              thetas[j] + 2 * math.pi / samples, 60)
        zeta = _polish_null_point(fn, cmath.exp(1j * theta))
        f_lim = boundary_limit(lambda z: fn(zeta * z), "radial")
        if not f_lim.converged or abs(f_lim.value) > 1e-6:
            continue
        q_lim = _derivative_limit(fn, zeta)
        regular = q_lim.converged and not q_lim.infinite
        results.append(
            {
                "zeta": zeta,
                "f_prime": q_lim.value if regular else None,
                "regular": regular,
            }
        )
    # dedupe minima that refined to the same point
    deduped = []
    for r in results:
        if all(abs(r["zeta"] - d["zeta"]) > 1e-6 for d in deduped):
            deduped.append(r)
    return deduped


# --- image-domain geometry ---------------------------------------------------


@dataclass(frozen=True)
class PlanarDomainStats:
    sup_im: float  # math.inf when unbounded
    inf_im: float  # -math.inf when unbounded
    strip_width: float
    half_plane: str  # "above(c)" | "below(c)" | "none"


def planar_domain_stats(model: LinearizationModel) -> PlanarDomainStats:
    """Extremes of Im h over the disk: ``model.domain_stats``, computed
    once per model.

    Im h is harmonic on the disk, so its extremes are boundary values.
    They are read on the unit circle at ``STATS_GRID`` midpoint angles
    and, at the boundary point 1 where h blows up, as the limits of five
    dyadic ladders: along the circle from either side, where finite
    bounds at 1 are reached tangentially, and along the radius and the
    Stolz rays +-pi/3, where an unbounded Im h may show only inside the
    disk.  Every h value is h at its anchor plus one log-gap segment
    (see :func:`_h_at_gap`), so the rungs of a ladder share the anchors
    and each costs one segment whatever its depth.
    """
    return model.domain_stats


def _planar_domain_stats(fn) -> PlanarDomainStats:
    n = STATS_GRID
    grid = [
        _h_at_gap(fn, _circle_gap(2.0 * math.pi * (j + 0.5) / n - math.pi)).imag
        for j in range(n)
    ]
    ks = range(1, 41)
    ladders = [[_circle_gap(side * 2.0**-k) for k in ks] for side in (1.0, -1.0)]
    ladders += [
        [complex(-k * math.log(2.0), phi) for k in ks]
        for phi in (0.0, math.pi / 3, -math.pi / 3)
    ]

    def rungs(gaps):
        # Im h along the ladder, skipping rungs where f is singular.  It
        # stops where one ulp of z = 1 - e^s moves h by more than
        # 1e-8 max(1, |Im h|) (eps/|f| > 1e-8 for Im h of order one, the
        # skip rule of the linearizer residuals); past that point the
        # rungs are rounding noise.
        for s in gaps:
            try:
                v = _h_at_gap(fn, s).imag
            except SingularEvaluationError:
                continue
            z = 1.0 - cmath.exp(s)
            if _machine_floor(_f_or_none(fn, z), z) > 3.2e-7 * max(1.0, abs(v)):
                return
            yield v

    limits = []  # +-inf for an unbounded ladder, nan for an empty one
    for gaps in ladders:
        value, _, infinite = ladder_limit(rungs(gaps), tol=1e-6)
        limits.append(math.copysign(math.inf, value.real) if infinite else value.real)
    finite = grid + [v for v in limits if math.isfinite(v)]
    sup_im = math.inf if math.inf in limits else max(finite)
    inf_im = -math.inf if -math.inf in limits else min(finite)

    both = math.isfinite(sup_im) and math.isfinite(inf_im)
    strip_width = sup_im - inf_im if both else math.inf
    if math.isfinite(inf_im) and not math.isfinite(sup_im):
        half_plane = f"above({inf_im:.12g})"
    elif math.isfinite(sup_im) and not math.isfinite(inf_im):
        half_plane = f"below({sup_im:.12g})"
    elif both:
        half_plane = f"above({inf_im:.12g})"
    else:
        half_plane = "none"
    return PlanarDomainStats(sup_im, inf_im, strip_width, half_plane)


def bloch_norm(model: LinearizationModel) -> float:
    """sup over the disk of (1-|z|^2)|h'(z)|, or inf when it diverges.

    Finite exactly for the strip case alpha = 0.  The per-circle sups on
    r = 1 - 2^-k form a ladder; when ladder_limit calls it infinite (it
    grows before it settles), sampling stops at that circle.
    """
    fn = model._fn
    best = 0.0
    best_point = 0j

    def per_circle():
        nonlocal best, best_point
        for k in range(1, 31):
            r = 1.0 - 2.0**-k
            circle_best = 0.0
            for j in range(BLOCH_GRID):
                theta = 2.0 * math.pi * j / BLOCH_GRID
                z = r * cmath.exp(1j * theta)
                try:
                    v = (1.0 - r * r) * abs(1.0 / fn(z))
                except SingularEvaluationError:
                    continue
                if v > circle_best:
                    circle_best = v
                    if v > best:
                        best = v
                        best_point = z
            yield circle_best

    if ladder_limit(per_circle())[2]:
        return math.inf
    # golden-section refinement in angle on the best circle
    r = abs(best_point)
    if r > 0:
        theta0 = cmath.phase(best_point)
        span = 2.0 * math.pi / BLOCH_GRID

        def neg_g(theta):
            try:
                return -(1.0 - r * r) * abs(1.0 / fn(r * cmath.exp(1j * theta)))
            except SingularEvaluationError:
                return 0.0

        # maximize by minimizing -g over the reversed bracket, which
        # visits the same angles in the same order as a maximizer
        _, low = golden_min(neg_g, theta0 + span, theta0 - span, 40)
        best = max(best, -low)
    return best


def visser_ostrovskii(model: LinearizationModel) -> BoundaryLimitEstimate:
    """Radial limit of h(z)/((z-1)h'(z)); its modulus equals 1/alpha.

    The sign of the limit is reported as measured (the quotient tends to
    -1/alpha for the explicit half-plane models); callers should assert
    on the modulus.
    """
    fn = model._fn
    return boundary_limit(lambda z: model.h(z) * fn(z) / (1.0 - z), "radial", tol=1e-6)
