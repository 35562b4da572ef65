"""Asymptotic classification of a generator at its attracting boundary
point: hyperbolic versus parabolic type, the exponents (alpha, mu), the
measured convergence regime, boundary Taylor data, and the criterion
inequalities (tangency, half-plane boundedness, rigidity).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .abel import LinearizationModel, linearize
from .errors import SingularEvaluationError
from .expr import Expr, as_callable, boundary_limit, halving_rungs
from .extrapolate import ladder_limit
from .flow import ConvergenceDiagnostics, _checkpoints, convergence_profile

BETA_THRESHOLD = 1e-8
ANGLE_SLACK = 0.02
M_GRID = (0j, 0.4 + 0j, -0.3 + 0.2j, 0.1 - 0.4j)  # start points of the M statistic


@dataclass(frozen=True)
class AsymptoticProfile:
    """Boundary data of a semigroup generator at the attracting point 1.

    ``taylor_a`` and ``taylor_b`` are the coefficients of the expansion
    f(z) = taylor_a (1-z)^2 + taylor_b (1-z)^3 + o((1-z)^3) in powers of
    1-z, when those limits exist (None otherwise).
    """

    beta: float
    type: str  # hyperbolic | parabolic
    alpha: float
    mu: complex
    a: complex  # -1/mu
    regime: str
    taylor_a: complex | None
    taylor_b: complex | None
    diagnostics: ConvergenceDiagnostics = None
    model: LinearizationModel = None


def classify(f: Expr, horizon: float = 1e6) -> AsymptoticProfile:
    """Full asymptotic profile of a validated generator."""
    fn = as_callable(f)  # beta and the Taylor data divide f's own values
    beta_est = boundary_limit(_quotient(fn, lambda z: z - 1.0), "radial", tol=1e-8)
    beta = max(beta_est.value.real, 0.0)
    kind = "hyperbolic" if beta > BETA_THRESHOLD else "parabolic"

    model = linearize(f)
    alpha, mu = model.alpha, model.mu
    a = -1.0 / mu if mu != 0 else complex(math.inf)

    # hyperbolic orbits reach 1 exponentially fast; past t ~ 30/beta the
    # gap 1 - F_t drops below machine resolution and diagnostics degrade
    profile_horizon = horizon
    if kind == "hyperbolic":
        profile_horizon = min(horizon, max(50.0, 30.0 / beta))
    diag = convergence_profile(f, 0j, horizon=profile_horizon)

    g = _quotient(fn, lambda z: (1.0 - z) * (1.0 - z))
    ta_est = boundary_limit(g, "radial", tol=1e-7)
    taylor_a = ta_est.value if ta_est.converged else None
    taylor_b = None
    if taylor_a is not None:
        # g = f/(1-z)^2 = a + b(1-z) + o(1-z), and 1 - (1+z)/2 = (1-z)/2, so
        # 2(g(z) - g((1+z)/2))/(1-z) tends to b; unlike (f - a(1-z)^2)/(1-z)^3
        # it carries no error of the estimate a, which (1-z)^-3 would grow
        quotient = halving_rungs(g, lambda z, gz, g_mid: 2.0 * (gz - g_mid) / (1.0 - z))
        tb_est = boundary_limit(quotient, "radial", tol=1e-7)
        if tb_est.converged:
            taylor_b = tb_est.value
    return AsymptoticProfile(
        beta=beta,
        type=kind,
        alpha=0.0 if kind == "hyperbolic" else alpha,
        mu=mu,
        a=a,
        regime=diag.regime,
        taylor_a=taylor_a,
        taylor_b=taylor_b,
        diagnostics=diag,
        model=model,
    )


def _quotient(fn, divisor):
    # z -> f(z) / divisor(z), singular where f is or the quotient is NaN,
    # as the scalar callable of the quotient expression is
    def quotient(z):
        q = fn(z) / divisor(z)
        if q != q:
            raise SingularEvaluationError(f"evaluation produced NaN at z = {z}")
        return q
    return quotient


def tangency_criterion(profile: AsymptoticProfile) -> dict:
    """Tangential convergence test: |arg(-a)| = (pi/2) alpha.

    Applies to parabolic profiles with finite a; the verdict carries the
    margin and is cross-checked against the measured regime.
    """
    if profile.type != "parabolic" or not _finite(profile.a):
        return {"tangential_expected": False, "applicable": False, "margin": None}
    lhs = abs(cmath.phase(-profile.a))
    rhs = (math.pi / 2) * profile.alpha
    margin = abs(lhs - rhs)
    expected = margin < ANGLE_SLACK
    measured = profile.regime in ("tangential", "strongly-tangential")
    return {
        "tangential_expected": expected,
        "applicable": True,
        "margin": margin,
        "agrees_with_regime": expected == measured,
    }


def halfplane_criterion_M(model: LinearizationModel, horizon: float = 1e5) -> dict:
    """Boundedness of the statistic M(z) = sup_t t(1-|F_t|)/|1-F_t| for
    z in M_GRID.

    The image h(Delta) lies in a horizontal half-plane exactly when the
    statistic stays bounded.  Each start point's orbit is one flow run
    through the doubling times t = 1, 2, 4, ... <= horizon, read at its
    chart point w: (1 - |u|)/|1 - u| = 2 Re w/(|w + 1| (1 + |u|)), which
    keeps the digits that the gap 1 - u of the rounded u has lost; a run
    that stagnates ends its ladder.  :func:`ladder_limit` decides each
    ladder: an infinite ladder is unbounded, a converged one bounded,
    and any other is flagged inconclusive.
    """
    fn = as_callable(model.f)
    times, t = [], 1.0
    while t <= horizon * (1 + 1e-9):
        times.append(t)
        t *= 2.0
    overall_bounded = True
    inconclusive = False
    worst = 0.0
    for z0 in M_GRID:
        stats = [t * 2.0 * w.real / (abs(w + (1+0j)) * (1.0 + abs(u)))
                 for t, (u, w) in zip(times, _checkpoints(fn, z0, times))]
        if not stats:
            inconclusive = True
            continue
        worst = max(worst, max(stats))
        _, converged, infinite = ladder_limit(stats, tol=1e-3)
        if infinite:
            overall_bounded = False
        elif not converged:
            inconclusive = True
    return {
        "bounded": overall_bounded,
        "max_statistic": worst,
        "inconclusive": inconclusive,
    }


def rigidity_criterion(profile: AsymptoticProfile) -> dict:
    """Half-plane prediction from the cubic boundary expansion.

    For alpha = 1 with f = a (1-z)^2 + b (1-z)^3 + o((1-z)^3), the image
    of the Abel function lies in a horizontal half-plane exactly when
    Re(conj(a) b) <= 0; the automorphism group case is Re a = 0, b = 0.
    """
    ta, tb = profile.taylor_a, profile.taylor_b
    if ta is None or tb is None:
        return {
            "halfplane_predicted": None,
            "is_automorphism_group": None,
            "applicable": False,
            "re_ab": None,
        }
    re_ab = (ta.conjugate() * tb).real
    return {
        "halfplane_predicted": re_ab <= 1e-9,
        "is_automorphism_group": abs(ta.real) < 1e-9 and abs(tb) < 1e-9,
        "applicable": True,
        "re_ab": re_ab,
    }


def theorem_argument_bound(profile: AsymptoticProfile) -> dict:
    """|arg mu| <= (pi/2) min(alpha, 2 - alpha), with the uniform slack."""
    if profile.type != "parabolic":
        return {"holds": True, "applicable": False, "margin": None}
    bound = (math.pi / 2) * min(profile.alpha, 2.0 - profile.alpha)
    lhs = abs(cmath.phase(profile.mu))
    return {
        "holds": lhs <= bound + ANGLE_SLACK,
        "applicable": True,
        "margin": bound + ANGLE_SLACK - lhs,
    }


def _finite(v: complex) -> bool:
    return v == v and abs(v) != math.inf
