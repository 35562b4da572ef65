"""Semigroup flow integration on the unit disk.

Integrates the Cauchy problem  u' = -f(u), u(0) = z0  with the embedded
Dormand-Prince 8(5,3) pair (DOP853) on the complex scalar, forward or
backward in time.  The run carries the half-plane chart point
w = (1 + u)/(1 - u), where the flow is w' = 2p(w) with the Berkson-Porta
factor p = -f/(1 - u)^2 (:func:`diskflow.expr.berkson_porta_p`), the
horocycle level of u is 1/Re w and a parabolic automorphism group is the
translation w -> w - 2ibt; each stage evaluates 2p by f compiled in the
chart (:func:`diskflow.expr.chart_form`), where the (1 - u)^2 of f
cancels in the expression tree, and each accepted step gives its sample
u = 1 - d, d = 2/(w + 1), and f there, -(1/2) 2p d^2, once.  The pair is
first same as last: its thirteenth stage is evaluated at the
eighth-order point and reused as the first stage of the next step, so
every attempted step costs twelve evaluations of f.  The attempt is one
kernel, the template _DP_STEP.  It runs as written, calling the
generator's chart form at each stage, until that callable has made
:data:`diskflow.expr.INLINE_AFTER` attempts; then
:func:`diskflow.expr.kernel_by_use` compiles it once, with the code of
2p in place of each stage's evaluation, and the run goes on with that
kernel.  Both give the same bits, so a short run (such as the ODE leg of
classify) does not pay a compile that its attempts would not repay.  A
callable with no chart form steps with f by its gap form, or at the
rounded point u = 1 - d where it has no gap form either.
Forward trajectories of a generator must stay inside the disk; backward
trajectories terminate when they reach the boundary margin or stagnate
at a null point.
A run stagnates once its chart point has stopped: the gap d is below
STAGNATION_SPEED, or the speed |2p(w)| of w is below STAGNATION_SPEED
times |w|; a parabolic orbit, whose d decays only polynomially, goes on
long after f at its rounded sample is below machine precision.
Convergence diagnostics (horocycle distance limit, argument limit,
approach regime) feed the classifier; they read the flow at geometric
checkpoints from one run to the horizon that lands on each of them, in
the chart.  That run and :func:`integrate` take their steps from the
same loop, :func:`_steps`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    DiskflowError,
    NotInDiskError,
    SingularEvaluationError,
    StiffFailureError,
)
from .expr import as_callable, chart_form, gap_form, kernel_by_use
from .extrapolate import sequence_limit
from .geometry import horocycle_distance

ATOL = 1e-10
EXIT_MARGIN = 1e-9
STAGNATION_SPEED = 1e-14
MAX_GROWTH = 5.0
MAX_SPACING = 0.08  # about the largest move of u in one step
MAX_SAMPLES = 2_000_000  # accepted steps before a run counts as stalled
BACKWARD_HORIZON = 50.0  # backward time probed by backward_extendability
TIMES_PER_DECADE = 8  # geometric checkpoints of convergence_profile

# One Dormand-Prince 8(5,3) attempt (DOP853) of w' = 2p(w), the flow in the
# half-plane chart w = (1 + z)/(1 - z) with p = -f/(1 - z)^2, from the chart
# point y with step h and first stage k0.  Each stage point w takes its
# slope k = 2p(w) in one line, from f compiled in the chart
# (expr.chart_form), where the (1 - z)^2 of f has cancelled.  Returns
# (w8, e5, e3, k12, d, v): the eighth-order point, the fifth- and
# third-order error estimates per unit step, the thirteenth stage k12,
# taken at w8, first same as last, and the gap d = 2/(w8 + 1) of w8 and f
# there, -(1/2) k12 d^2, read once per attempt.  The coefficients are the
# decimal literals of Hairer's DOP853 table (Hairer, Norsett & Wanner,
# Solving ODEs I, section II.10); e3 weighs the stages by b_i less
# Hairer's bhh_i.  Each stage sum adds its terms left to right.  The
# arithmetic is complex throughout: each weight is written (c+0j), which
# the compiler folds to one complex constant, and h is made complex once,
# because on CPython 3.11 a float on the left of a complex operand first
# fails in the float slot (49 ns for 0.5*k against 27 ns for (0.5+0j)*k,
# about 86 such products an attempt); the bits are those of the float
# weights, which Python widens to (c, 0.0) anyway.  Run as written, or
# inlined per generator once it repays its compile (expr.kernel_by_use).
# A callable with no chart form takes each slope by its gap form instead,
# k = -f(1 - d) b^2/2 with b = w + 1 and d = 2/b, which leaves d and f at
# w8 behind (expr._in_gap); one with no gap form either evaluates f at the
# rounded point z = 1 - d, the sample itself at the last stage.
_DP_STEP = """
def dop853_step(y, h, k0):
    h = complex(h)
    w = y + h * ((5.26001519587677318785587544488e-2+0j) * k0)
    k = f_chart(w)
    k1 = k
    w = y + h * ((1.97250569845378994544595329183e-2+0j) * k0
                 + (5.91751709536136983633785987549e-2+0j) * k1)
    k = f_chart(w)
    k2 = k
    w = y + h * ((2.95875854768068491816892993775e-2+0j) * k0
                 + (8.87627564304205475450678981324e-2+0j) * k2)
    k = f_chart(w)
    k3 = k
    w = y + h * ((2.41365134159266685502369798665e-1+0j) * k0
                 - (8.84549479328286085344864962717e-1+0j) * k2
                 + (9.24834003261792003115737966543e-1+0j) * k3)
    k = f_chart(w)
    k4 = k
    w = y + h * ((3.7037037037037037037037037037e-2+0j) * k0
                 + (1.70828608729473871279604482173e-1+0j) * k3
                 + (1.25467687566822425016691814123e-1+0j) * k4)
    k = f_chart(w)
    k5 = k
    w = y + h * ((3.7109375e-2+0j) * k0
                 + (1.70252211019544039314978060272e-1+0j) * k3
                 + (6.02165389804559606850219397283e-2+0j) * k4
                 - (1.7578125e-2+0j) * k5)
    k = f_chart(w)
    k6 = k
    w = y + h * ((3.70920001185047927108779319836e-2+0j) * k0
                 + (1.70383925712239993810214054705e-1+0j) * k3
                 + (1.07262030446373284651809199168e-1+0j) * k4
                 - (1.53194377486244017527936158236e-2+0j) * k5
                 + (8.27378916381402288758473766002e-3+0j) * k6)
    k = f_chart(w)
    k7 = k
    w = y + h * ((6.24110958716075717114429577812e-1+0j) * k0
                 - (3.36089262944694129406857109825+0j) * k3
                 - (8.68219346841726006818189891453e-1+0j) * k4
                 + (2.75920996994467083049415600797e1+0j) * k5
                 + (2.01540675504778934086186788979e1+0j) * k6
                 - (4.34898841810699588477366255144e1+0j) * k7)
    k = f_chart(w)
    k8 = k
    w = y + h * ((4.77662536438264365890433908527e-1+0j) * k0
                 - (2.48811461997166764192642586468+0j) * k3
                 - (5.90290826836842996371446475743e-1+0j) * k4
                 + (2.12300514481811942347288949897e1+0j) * k5
                 + (1.52792336328824235832596922938e1+0j) * k6
                 - (3.32882109689848629194453265587e1+0j) * k7
                 - (2.03312017085086261358222928593e-2+0j) * k8)
    k = f_chart(w)
    k9 = k
    w = y + h * ((-9.3714243008598732571704021658e-1+0j) * k0
                 + (5.18637242884406370830023853209+0j) * k3
                 + (1.09143734899672957818500254654+0j) * k4
                 - (8.14978701074692612513997267357+0j) * k5
                 - (1.85200656599969598641566180701e1+0j) * k6
                 + (2.27394870993505042818970056734e1+0j) * k7
                 + (2.49360555267965238987089396762+0j) * k8
                 - (3.0467644718982195003823669022+0j) * k9)
    k = f_chart(w)
    k10 = k
    w = y + h * ((2.27331014751653820792359768449+0j) * k0
                 - (1.05344954667372501984066689879e1+0j) * k3
                 - (2.00087205822486249909675718444+0j) * k4
                 - (1.79589318631187989172765950534e1+0j) * k5
                 + (2.79488845294199600508499808837e1+0j) * k6
                 - (2.85899827713502369474065508674+0j) * k7
                 - (8.87285693353062954433549289258+0j) * k8
                 + (1.23605671757943030647266201528e1+0j) * k9
                 + (6.43392746015763530355970484046e-1+0j) * k10)
    k = f_chart(w)
    k11 = k
    w = y + h * ((5.42937341165687622380535766363e-2+0j) * k0
                 + (4.45031289275240888144113950566+0j) * k5
                 + (1.89151789931450038304281599044+0j) * k6
                 - (5.8012039600105847814672114227+0j) * k7
                 + (3.1116436695781989440891606237e-1+0j) * k8
                 - (1.52160949662516078556178806805e-1+0j) * k9
                 + (2.01365400804030348374776537501e-1+0j) * k10
                 + (4.47106157277725905176885569043e-2+0j) * k11)
    k = f_chart(w)
    d = (2+0j) / (w + (1+0j))
    v = (-0.5+0j) * k * (d * d)
    e5 = ((0.1312004499419488073250102996e-1+0j) * k0
          - (0.1225156446376204440720569753e+1+0j) * k5
          - (0.4957589496572501915214079952+0j) * k6
          + (0.1664377182454986536961530415e+1+0j) * k7
          - (0.3503288487499736816886487290+0j) * k8
          + (0.3341791187130174790297318841+0j) * k9
          + (0.8192320648511571246570742613e-1+0j) * k10
          - (0.2235530786388629525884427845e-1+0j) * k11)
    e3 = ((5.42937341165687622380535766363e-2
           - 0.244094488188976377952755905512+0j) * k0
          + (4.45031289275240888144113950566+0j) * k5
          + (1.89151789931450038304281599044+0j) * k6
          - (5.8012039600105847814672114227+0j) * k7
          + (3.1116436695781989440891606237e-1
             - 0.733846688281611857341361741547+0j) * k8
          - (1.52160949662516078556178806805e-1+0j) * k9
          + (2.01365400804030348374776537501e-1+0j) * k10
          + (4.47106157277725905176885569043e-2
             - 0.220588235294117647058823529412e-1+0j) * k11)
    return w, e5, e3, k, d, v
"""


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped flow samples with the reason integration stopped."""

    samples: tuple  # of (t, z)
    direction: str  # forward | backward
    termination: str  # horizon-reached | boundary-exit | stagnation
    generator_id: str = ""
    tolerance: float = ATOL

    @property
    def end(self):
        return self.samples[-1]

    def csv_rows(self):
        """Rows for the trajectory CSV: t, re, im, d, |1-z|."""
        for t, z in self.samples:
            yield t, z.real, z.imag, horocycle_distance(z), abs(1 - z)


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    d_limit: float
    arg_limit: float
    regime: str  # nontangential | tangential | strongly-tangential | undetermined
    horizon: float = 0.0
    samples: tuple = field(default=(), repr=False)


def integrate(f, z0: complex, t_end: float, generator_id: str = "",
              atol: float = ATOL) -> Trajectory:
    """Adaptive integration of u' = -f(u) from u(0) = z0 to t = t_end.

    Negative ``t_end`` integrates backward; a NaN ``t_end``, and an
    ``atol`` that is not a positive finite number, are rejected before
    any evaluation.  The run keeps every accepted step of
    :func:`_steps`, which holds the step rules: forward runs stay inside
    the disk, and backward runs stop with termination "boundary-exit"
    at |u| > 1 - 1e-9, at t = 0 with the one sample z0 if it is past
    that margin already.
    """
    fn = as_callable(f)
    if not abs(z0) < 1.0:
        raise NotInDiskError(f"initial point |z0| = {abs(z0)} not inside the disk")
    if t_end != t_end:
        raise DiskflowError(f"horizon t_end = {t_end} is not a number", t_end=t_end)
    if not 0 < atol < math.inf:
        raise DiskflowError(f"tolerance atol = {atol} is not positive and finite",
                            atol=atol)
    direction = "backward" if t_end < 0 else "forward"
    samples = [(0.0, complex(z0))]
    if t_end == 0:
        return Trajectory(tuple(samples), "forward", "horizon-reached",
                          generator_id, atol)
    if t_end < 0 and abs(z0) > 1.0 - EXIT_MARGIN:
        # already past the exit margin: every backward step would leave
        return Trajectory(tuple(samples), direction, "boundary-exit",
                          generator_id, atol)
    try:
        for t, u, _, _, termination in _steps(fn, complex(z0), (t_end,), atol):
            samples.append((t, u))
    except StiffFailureError as exc:
        exc.trajectory = Trajectory(tuple(samples), direction, "stagnation",
                                    generator_id, atol)
        raise
    return Trajectory(tuple(samples), direction, termination, generator_id, atol)


def _steps(fn, u: complex, stops: tuple, atol: float):
    """The accepted steps of one run of u' = -f(u) from u(0) = u through
    the times ``stops``, all of one sign and increasing in modulus.

    Yields ``(t, u, w, reached, termination)`` after each accepted step:
    the sample u and its chart point w = (1 + u)/(1 - u), ``reached``
    the stops the run has landed on, and ``termination`` None until the
    last step, which carries "horizon-reached" (the last stop),
    "boundary-exit" (a backward run past |u| > 1 - EXIT_MARGIN) or
    "stagnation" (the chart point has stopped: |d| or |2p(w)|/|w| below
    STAGNATION_SPEED); the last two win over the first.

    The run carries w, in which a parabolic orbit is a straight line
    (w' = 2p(w) = -2ib for i b (1 - z)^2), and converts each accepted
    step once, u = 1 - d with d = 2/(w + 1).  Each stage takes the slope
    2p(w) from the chart form of f (:func:`diskflow.expr.chart_form`),
    and the new point's f is -(1/2) 2p d^2; a callable with no chart form
    takes the slope -f (w + 1)^2/2 from f by its gap form at d, and one
    with no gap form either from f at exactly the sample (unless the
    sample rounds onto the circle and is moved, below).  Each attempt is
    one DOP853 step of twelve evaluations of f: its thirteenth stage is
    evaluated at the new point, and an accepted step reuses it as the
    next step's first stage.  The error of an attempt is Hairer's DOP853
    norm of the fifth- and third-order estimates against the relative
    tolerance atol/20 (5e-12 at ATOL) of max(1, |w|, |w_new|), and the
    step after a rejected attempt does not grow.  For a callable with
    neither form, f at the rounded point
    carries a relative error of about eps |w + 1|, which the estimates
    pick up times the step's move |h w'|; the norm's scale is floored at
    64 ulps of that, or the step shrinks without end next to the
    boundary point.  No step moves u by more than about MAX_SPACING: its
    length is capped at MAX_SPACING/|f(u)|, so a trace keeps enough
    samples to draw.  A step that would pass the next stop, or end short
    of it by less than the shortest step taken, is cut to land on it;
    the step after it starts from the uncut size, so the step size is
    carried across stops (Hairer, Norsett & Wanner, Solving ODEs I,
    section II.4).  Where the chart point is inside (Re w > 0) and only
    the rounding of u = 1 - d lands on the circle, as on an orbit that
    runs within an ulp of it long before it stagnates, the sample is
    moved one ulp inward.  An attempt whose u still lands on or outside
    the circle is rejected and retried with half the step, so a forward
    run that truly leaves (f is not a generator) ends in step size
    underflow.  On a backward run, such a landing by an attempt that
    passes the error test shows that the orbit reaches the exit margin
    before the attempt's end; from then on no step goes more than half
    way there, so the exit time is bisected at one attempt per halving,
    not two.

    The attempts are reported to :func:`diskflow.expr.kernel_by_use`,
    which gives _DP_STEP as written until the callable has made
    INLINE_AFTER of them, over all its runs, and the inlined kernel
    after that, in the middle of a run if need be; the bits are the
    same either way.
    """
    sign = -1.0 if stops[0] < 0 else 1.0
    t = 0.0
    w = ((1+0j) + u) / ((1+0j) - u)
    chart = chart_form(fn)
    gap = None if chart is not None else gap_form(fn)
    rounded = chart is None and gap is None  # f at rounded points
    if chart is not None:  # the slope at the start, and f there
        k0 = chart(w)
        d = (2+0j) / (w + (1+0j))
        v = (-0.5+0j) * k0 * (d * d)
    else:
        v = fn(u) if rounded else gap((1+0j) - u)
        b = w + (1+0j)
        k0 = (-0.5+0j) * v * (b * b)
    rtol = 0.05 * atol  # per step, relative to max(1, |w|, |w_new|)
    step, calls = kernel_by_use(fn, _DP_STEP, 0)
    made = 0  # attempts made with step
    h = sign * min(1e-2, abs(stops[0]) / 10) / max(abs(v), 1.0)
    reached, accepted = 0, 0
    rejected = False  # the last attempt was rejected
    exit_by = None  # backward: the end of an accurate attempt that left the disk
    try:
        while True:
            stop = stops[reached]
            least = 1e-13 * max(1.0, abs(t))  # the shortest step taken
            # a step that would end short of the stop by less than that
            # (such as the second half of a rejected cut step) lands on it
            cut = abs(h) > abs(stop - t) - least
            dt = stop - t if cut else h
            if abs(dt) < least:
                raise StiffFailureError(f"step size underflow at t = {t}")
            if made == calls:
                step, calls = kernel_by_use(fn, _DP_STEP, made)
                made = 0
            made += 1
            try:
                w8, e5, e3, k12, d8, v8 = step(w, dt, k0)
                scale = rtol * max(1.0, abs(w), abs(w8))
                if rounded:
                    # f at rounded points: 64 ulps of the estimates' noise
                    scale = max(scale, 64 * 2.3e-16 * abs(dt * k0) * abs(w + (1+0j)))
                err5 = abs(e5 * dt) / scale
                err3 = abs(e3 * dt) / scale
                # Hairer's DOP853 norm; a NaN denominator passes to the guard
                deno = err5 * err5 + 0.01 * err3 * err3
                err = err5 * err5 / math.sqrt(deno) if deno else 0.0
                bad = not (err == err)  # NaN guard
                u8 = (1+0j) - d8
                if abs(u8) >= 1.0 and w8.real > 0.0:
                    # the chart point is inside and only its rounding is not:
                    # the sample is the next double inward
                    u8 *= 1.0 - 2.0 ** -52
            except (SingularEvaluationError, OverflowError):
                bad = True
                err = math.inf
            if not bad and abs(u8) >= 1.0:
                # reject steps that land on or outside the circle: a forward
                # run of a generator stays inside, so such a landing is an
                # overshoot
                bad = True
                if sign < 0 and err <= 1.0:
                    # the orbit itself reaches the exit margin before t + dt
                    exit_by = t + dt
            if bad or err > 1.0:
                h = dt * (0.5 if bad else max(0.2, 0.9 * err ** -0.125))
                rejected = True
                continue
            t += dt
            w, u, v, k0 = w8, u8, v8, k12
            if cut or sign * (stop - t) <= 0:
                reached += 1
            termination = None
            if sign < 0 and abs(u) > 1.0 - EXIT_MARGIN:
                termination = "boundary-exit"
            elif (abs(d8) < STAGNATION_SPEED
                  or abs(k0) < STAGNATION_SPEED * abs(w)):
                termination = "stagnation"
            elif reached == len(stops):
                termination = "horizon-reached"
            yield t, u, w, reached, termination
            accepted += 1
            if accepted >= MAX_SAMPLES:
                raise StiffFailureError(f"sample budget exhausted at t = {t}")
            if termination is not None:
                return
            growth = min(MAX_GROWTH, 0.9 * err ** -0.125) if err > 0 else MAX_GROWTH
            if rejected:
                # Hairer's rule: no growth right after a rejection, so a step
                # cut back at the disk edge is not regrown straight into it
                growth = min(growth, 1.0)
                rejected = False
            if not cut:
                h = dt * growth
            if abs(h) * abs(v) > MAX_SPACING:  # |f(u)| is the speed of u
                h = sign * MAX_SPACING / abs(v)
            if exit_by is not None and abs(h) > 0.5 * abs(exit_by - t):
                # bisect the exit time: a step as long as the one just accepted
                # would leave the disk again
                h = 0.5 * (exit_by - t)
    finally:
        if calls > 0:  # still on the template: count this run's attempts
            kernel_by_use(fn, _DP_STEP, made)


def flow_point(f, z0: complex, t: float) -> complex:
    """F_t(z0) by direct integration."""
    return integrate(f, z0, t).end[1]


def semigroup_residual(f, z: complex, t: float, s: float) -> float:
    """|F_{t+s}(z) - F_t(F_s(z))|; the one-parameter group law defect."""
    fn = as_callable(f)
    once = flow_point(fn, z, t + s)
    twice = flow_point(fn, flow_point(fn, z, s), t)
    return abs(once - twice)


def _geometric_times(horizon: float):
    t = 1.0
    ratio = 10.0 ** (1.0 / TIMES_PER_DECADE)
    while t <= horizon * (1 + 1e-12):
        yield t
        t *= ratio


def _checkpoints(fn, z0: complex, times: tuple):
    """``(u, w)``, F_t(z0) and its chart point w = (1 + u)/(1 - u), at
    each of the increasing ``times`` that one run from z0 lands on; a
    run that stagnates yields nothing at the later times."""
    landed = 0
    for _, u, w, reached, _ in _steps(fn, z0, times, ATOL):
        if reached > landed:
            landed = reached
            yield u, w


def convergence_profile(f, z0: complex, horizon: float = 1e4) -> ConvergenceDiagnostics:
    """Diagnose how the trajectory from z0 approaches the boundary point 1.

    Samples F_t at geometric times up to ``horizon``: the stops of one
    run from z0, which lands on each of them and carries its step size
    across them.  Each sample is read from the run's chart point w,
    which keeps the horocycle level d = 1/Re w where u = 1 - d has
    rounded it away; a run that stagnates ends the samples.  A
    ``horizon`` that is not a positive finite number is rejected before
    any evaluation.
    """
    if not 0 < horizon < math.inf:
        raise DiskflowError(f"horizon = {horizon} is not positive and finite",
                            horizon=horizon)
    if not abs(z0) < 1.0:
        raise NotInDiskError(f"initial point |z0| = {abs(z0)} not inside the disk")
    fn = as_callable(f)
    times = tuple(_geometric_times(horizon))
    d_vals, ratio_vals, arg_vals = [], [], []
    for u, w in _checkpoints(fn, complex(z0), times):
        # read in the chart: d = 1/Re w, 1 - u = 2/(w + 1), and
        # (1 - |u|)/|1 - u| = 2 Re w/(|w + 1| (1 + |u|))
        b = w + (1+0j)
        d_vals.append(1.0 / w.real)
        ratio_vals.append(2.0 * w.real / (abs(b) * (1.0 + abs(u))))
        arg_vals.append(cmath.phase((2+0j) / b))
    if not d_vals:
        return ConvergenceDiagnostics(0.0, 0.0, "undetermined", horizon)

    d_limit, d_conv = sequence_limit(d_vals, tol=1e-6)
    d_limit = max(d_limit.real, 0.0)
    arg_limit, arg_conv = sequence_limit(arg_vals, tol=1e-4)
    arg_limit = arg_limit.real

    ratio_limit, ratio_conv = sequence_limit(ratio_vals, tol=1e-4)
    ratio_to_zero = ratio_vals[-1] < 1e-3 or (
        ratio_conv and abs(ratio_limit) < 1e-3
    )
    d_decaying = len(d_vals) > 8 and d_vals[-1] < 0.7 * d_vals[len(d_vals) // 2]
    if d_limit > 1e-6 and d_conv and not d_decaying:
        regime = "strongly-tangential"
    elif ratio_to_zero:
        regime = "tangential"
    elif ratio_conv or ratio_vals[-1] > 1e-2:
        regime = "nontangential"
    else:
        regime = "undetermined"
    return ConvergenceDiagnostics(
        d_limit=d_limit,
        arg_limit=arg_limit,
        regime=regime,
        horizon=horizon,
        samples=tuple(zip(times, d_vals, ratio_vals)),
    )


def backward_extendability(f, z0: complex) -> dict:
    """Probe whether the orbit through z0 extends to all negative times
    (integrating back to t = -BACKWARD_HORIZON).

    A backward orbit that exists for all t < 0 converges to a boundary
    null point of f, so the trajectory reaches the horizon or stagnates,
    or it reaches the boundary margin with |f(u)| small; a non-extendable
    orbit crosses the boundary at finite time with |f| of order one.
    The limit point of an extendable run is the direction u/|u| of its
    last sample.  Returns ``{extendable, limit_point, exit_time}``.
    """
    fn = as_callable(f)
    traj = integrate(fn, z0, -BACKWARD_HORIZON)
    t_end, u_end = traj.end
    if traj.termination == "boundary-exit":
        # distinguish asymptotic approach from a transversal crossing
        try:
            speed = abs(fn(u_end))
        except SingularEvaluationError:
            speed = math.inf
        if speed >= 1e-6:
            return {"extendable": False, "limit_point": None, "exit_time": t_end}
    return {"extendable": True, "limit_point": u_end / abs(u_end), "exit_time": None}
