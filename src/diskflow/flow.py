"""Semigroup flow integration on the unit disk.

Integrates the Cauchy problem  u' = -f(u), u(0) = z0  with an embedded
Dormand-Prince 5(4) pair on the complex scalar, forward or backward in
time.  The pair is first same as last: its seventh stage is evaluated at
the fifth-order point u5 and reused as the first stage of the next step,
so every attempted step costs six evaluations of f.  Forward trajectories
of a generator must stay inside the disk; backward trajectories
terminate when they reach the boundary margin or stagnate at a null
point.  Convergence diagnostics (horocycle distance limit, argument
limit, approach regime) feed the classifier.
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
from .expr import as_callable
from .extrapolate import sequence_limit
from .geometry import horocycle_distance

ATOL = 1e-10
EXIT_MARGIN = 1e-9
STAGNATION_SPEED = 1e-14
MAX_GROWTH = 5.0
MAX_SAMPLES = 2_000_000  # accepted steps before a run counts as stalled
BACKWARD_HORIZON = 50.0  # backward time probed by backward_extendability


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

    Negative ``t_end`` integrates backward; a NaN ``t_end`` is rejected
    before any evaluation.  Forward runs raise on any disk exit (a
    validated generator cannot leave); backward runs stop with
    termination "boundary-exit" at |u| > 1 - 1e-9.  The seventh stage is
    evaluated at u5, and an accepted step reuses it as the next step's
    first stage.
    """
    fn = as_callable(f)
    if not abs(z0) < 1.0:
        raise NotInDiskError(f"initial point |z0| = {abs(z0)} not inside the disk")
    if t_end != t_end:
        raise DiskflowError(f"horizon t_end = {t_end} is not a number", t_end=t_end)
    forward = not t_end < 0
    direction = "forward" if forward else "backward"
    sign = 1.0 if forward else -1.0
    samples = [(0.0, complex(z0))]
    t, u = 0.0, complex(z0)
    if t_end == 0:
        return Trajectory(tuple(samples), "forward", "horizon-reached",
                          generator_id, atol)

    k0 = -fn(u)
    h = sign * min(1e-2, abs(t_end) / 10) / max(abs(k0), 1.0)
    termination = "horizon-reached"
    while sign * (t_end - t) > 0:
        if abs(h) > abs(t_end - t):
            h = t_end - t
        if abs(h) < 1e-13 * max(1.0, abs(t)):
            raise StiffFailureError(
                f"step size underflow at t = {t}",
                trajectory=Trajectory(tuple(samples), direction,
                                      "stagnation", generator_id, atol),
            )
        try:
            # Dormand-Prince 5(4); the tableau fractions fold to constants
            k1 = -fn(u + h * (1 / 5 * k0))
            k2 = -fn(u + h * (3 / 40 * k0 + 9 / 40 * k1))
            k3 = -fn(u + h * (44 / 45 * k0 - 56 / 15 * k1 + 32 / 9 * k2))
            k4 = -fn(u + h * (19372 / 6561 * k0 - 25360 / 2187 * k1
                              + 64448 / 6561 * k2 - 212 / 729 * k3))
            k5 = -fn(u + h * (9017 / 3168 * k0 - 355 / 33 * k1
                              + 46732 / 5247 * k2 + 49 / 176 * k3
                              - 5103 / 18656 * k4))
            u5 = u + h * (35 / 384 * k0 + 500 / 1113 * k2 + 125 / 192 * k3
                          - 2187 / 6784 * k4 + 11 / 84 * k5)
            k6 = -fn(u5)  # first same as last: the next step's k0
            u4 = u + h * (5179 / 57600 * k0 + 7571 / 16695 * k2
                          + 393 / 640 * k3 - 92097 / 339200 * k4
                          + 187 / 2100 * k5 + 1 / 40 * k6)
            # tighten near the attracting boundary point: errors there map to
            # errors of size delta/(1-u)^2 in the linearizing coordinate
            # the extra 0.05 keeps the accumulated error over a run well
            # under the per-step budget
            scale = 0.05 * min(1.0, max(abs(1.0 - u) ** 2, 1e-5))
            err = abs(u5 - u4) / scale
            bad = not (err == err)  # NaN guard
        except (SingularEvaluationError, OverflowError):
            bad = True
            err = math.inf
            u5 = u
        if not forward and not bad and abs(u5) >= 1.0:
            # reject steps that land outside the closed disk
            bad = True
        if bad or err > atol:
            h *= 0.5 if bad else max(0.2, 0.9 * (atol / err) ** 0.2)
            continue
        t += h
        u = u5
        samples.append((t, u))
        if len(samples) > MAX_SAMPLES:
            raise StiffFailureError(
                f"sample budget exhausted at t = {t}",
                trajectory=Trajectory(tuple(samples), direction,
                                      "stagnation", generator_id, atol),
            )
        if forward and abs(u) >= 1.0:
            raise StiffFailureError(
                f"forward trajectory left the disk at t = {t}",
                trajectory=Trajectory(tuple(samples), direction,
                                      "boundary-exit", generator_id, atol),
            )
        if not forward and abs(u) > 1.0 - EXIT_MARGIN:
            termination = "boundary-exit"
            break
        k0 = k6
        if abs(k0) < STAGNATION_SPEED:
            termination = "stagnation"
            break
        if err > 0:
            h *= min(MAX_GROWTH, 0.9 * (atol / err) ** 0.2)
        else:
            h *= MAX_GROWTH
    return Trajectory(tuple(samples), direction, termination, generator_id, atol)


def flow_point(f, z0: complex, t: float) -> complex:
    """F_t(z0) by direct integration."""
    return integrate(f, z0, t).end[1]


def semigroup_residual(f, z: complex, t: float, s: float) -> float:
    """|F_{t+s}(z) - F_t(F_s(z))|; the one-parameter group law defect."""
    fn = as_callable(f)
    once = flow_point(fn, z, t + s)
    twice = flow_point(fn, flow_point(fn, z, s), t)
    return abs(once - twice)


def _geometric_times(horizon: float, per_decade: int = 8):
    t = 1.0
    ratio = 10.0 ** (1.0 / per_decade)
    while t <= horizon * (1 + 1e-12):
        yield t
        t *= ratio


def convergence_profile(f, z0: complex, horizon: float = 1e4,
                        abel_flow=None) -> ConvergenceDiagnostics:
    """Diagnose how the trajectory from z0 approaches the boundary point 1.

    Samples F_t at geometric times up to ``horizon``, each sample flowed
    on from the previous one.  Direct ODE integration is used for
    t <= 1e4; beyond that an ``abel_flow(z, t)`` callable must be
    supplied (exact flow through the Abel function), since raw stepping
    stalls once 1 - u decays polynomially.
    """
    fn = as_callable(f)
    ode_cap = min(horizon, 1e4)
    times = [t for t in _geometric_times(horizon)]
    d_vals, ratio_vals, arg_vals = [], [], []
    t_prev, u = 0.0, complex(z0)
    for t in times:
        if t <= ode_cap:
            u = flow_point(fn, u, t - t_prev)
        elif abel_flow is not None:
            u = abel_flow(u, t - t_prev)
        else:
            break
        t_prev = t
        one_minus = 1.0 - u
        # once the gap reaches machine noise the quotients below are garbage
        if abs(one_minus) < 1e-15 or 1.0 - abs(u) < 4e-16:
            break
        ratio = (1.0 - abs(u)) / abs(one_minus)
        d_vals.append(horocycle_distance(u))
        ratio_vals.append(ratio)
        arg_vals.append(cmath.phase(one_minus))
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
