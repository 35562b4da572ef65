"""Abel linearization: h(z) = -integral of 1/f from 0 to z, its inverse,
the exact flow F_t = h^{-1}(h(z) + t), the (alpha, mu) boundary exponents,
and the geometry of the image domain h(Delta).

f is zero-free on the disk, so -1/f is holomorphic there and h may be
integrated along any path.  One adaptive Gauss-Legendre engine serves
two path geometries: h(z) itself is one straight segment from 0 to
log(1 - z) in the log-gap coordinate s = log(1 - w), where the boundary
growth of h' becomes smooth, and h is carried between nearby points
(Newton increments, the planar_domain_stats fans, the visser_ostrovskii
chain) along straight chords in z.  Inversion runs a Newton continuation
that tracks h incrementally, so each inversion costs a handful of
evaluations of f rather than a fresh quadrature per iterate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import InversionFailureError, NotInClassError, SingularEvaluationError
from .expr import BoundaryLimitEstimate, Expr, as_callable, boundary_limit
from .extrapolate import (
    INFINITE_THRESHOLD,
    golden_min,
    line_fit,
    looks_divergent,
    sequence_limit,
)

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

MAX_SUBSTEPS = 64  # continuation sub-targets per inversion
STATS_RAYS = 96  # rays of the planar_domain_stats fan
BLOCH_GRID = 64  # angles per circle in bloch_norm


def _segment_integral(dh, t0: complex, t1: complex, depth: int = 0) -> complex:
    """Adaptive Gauss-Legendre integral of a path integrand over [t0, t1].

    ``dh(t)`` returns (dh/dt, z(t)): the derivative of h along a path
    parametrized by t and the disk point the path reaches there.  The
    acceptance test tracks the evaluation noise of the integrand: near
    the boundary the reconstruction of 1-z inside the expression loses
    eps/|1-z| relative accuracy, so demanding a fixed relative tolerance
    would recurse forever on roundoff.
    """
    mid = 0.5 * (t0 + t1)
    whole, _ = _gl_panel(dh, t0, t1)
    left, nl = _gl_panel(dh, t0, mid)
    right, nr = _gl_panel(dh, mid, t1)
    halves = left + right
    noise = nl + nr
    tol = max(1e-13 * max(1.0, abs(halves)), 8.0 * noise)
    if abs(whole - halves) <= tol or depth >= 12:
        return halves
    return (
        _segment_integral(dh, t0, mid, depth + 1)
        + _segment_integral(dh, mid, t1, depth + 1)
    )


def _gl_panel(dh, t0: complex, t1: complex):
    """16-node panel; returns (integral, roundoff noise estimate)."""
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    acc = 0j
    rough = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        v, node = dh(mid + half * x)
        acc += w * v
        gap = abs(1.0 - node)
        rough += w * abs(v) * (1.0 + (abs(node) / gap if gap > 0 else 1e16))
    return acc * half, rough * abs(half) * 2.3e-16


def abel_h(f, z: complex) -> complex:
    """h(z) = -integral from 0 to z of dw/f, along the straight segment
    from 0 to log(1 - z) in the log-gap coordinate s = log(1 - w).

    For the generators of the class h'(w) ~ mu (1 - w)^-(1+alpha) at the
    boundary point 1, so dh/ds ~ -mu e^(-alpha s) is smooth at every
    scale and one segment resolves radial, Stolz and tangential
    approaches alike.  The segment stays in the disk: the disk is the
    convex set Re s < log(2 cos(Im s)) in s.
    """
    fn = as_callable(f)
    if z == 0:
        return 0j

    def dh(s):  # dh/ds = -e^s h'(w) = e^s / f(1 - e^s)
        gap = cmath.exp(s)
        w = 1.0 - gap
        return gap / fn(w), w

    return _segment_integral(dh, 0j, cmath.log(1.0 - complex(z)))


@dataclass
class LinearizationModel:
    """The Abel function of a generator plus its boundary exponents.

    ``h_cache`` memoizes h at the exact points asked for through
    :meth:`h`; :func:`invert_h` does not consult it and continues from
    the seed its caller passes.  ``domain_stats`` holds the result of
    :func:`planar_domain_stats` once it has been computed.
    """

    f: Expr
    alpha: float
    mu: complex
    mu_class: str  # Sigma0 | SigmaAlpha-angular | SigmaAlpha-unrestricted
    h_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    domain_stats: PlanarDomainStats | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._fn = as_callable(self.f)
        # path integrand of straight chords in z: (dh/dz, z)
        self._chord = lambda z: (-1.0 / self._fn(z), z)
        self.h_cache[0j] = 0j

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

    def flow(self, z: complex, t: float) -> complex:
        return abel_flow(self, z, t)


def invert_h(model: LinearizationModel, w: complex, seed: complex = 0j) -> complex:
    """Solve h(z) = w by Newton continuation from the seed point.

    The target is approached through sub-targets spaced so each jump
    satisfies |dw| <= 0.5 (1 + |w|); at each sub-target Newton iterates
    z -> z + (h(z) - w) f(z), with h tracked incrementally by panel
    quadrature along the iterate segments.  Divergence or an iterate
    leaving the disk raises InversionFailureError, which doubles as the
    membership oracle for h(Delta).
    """
    w = complex(w)
    z = complex(seed)
    h_cur = model.h(z)
    fn = model._fn
    tol = max(1e-12, 1e-15 * abs(w))

    for _ in range(MAX_SUBSTEPS):
        remaining = w - h_cur
        if abs(remaining) <= max(tol, _machine_floor(fn, z)):
            return z
        # saturated at the smallest representable gap with a pure forward
        # time shift left over: the exact solution rounds to z
        if (abs(1.0 - z) <= 2.4e-16 and remaining.real > 0
                and abs(remaining.imag) <= 1e-9 * (1.0 + remaining.real)):
            return z
        cap = 0.5 * (1.0 + abs(h_cur))
        if abs(remaining) > cap:
            w_sub = h_cur + remaining / abs(remaining) * cap
        else:
            w_sub = w
        z, h_cur = _newton_level(fn, model._chord, z, h_cur, w_sub, tol, w)
    if abs(w - h_cur) <= max(tol, _machine_floor(fn, z)):
        return z
    raise InversionFailureError(
        f"continuation did not reach w = {w}", last_iterate=z, target=w
    )


def _machine_floor(fn, z: complex) -> float:
    # one ulp of z moves h by about eps/|f(z)|; residuals below that are
    # unresolvable in double precision
    try:
        speed = abs(fn(z))
    except SingularEvaluationError:
        return 0.0
    if speed == 0.0:
        return math.inf
    return 32.0 * 2.3e-16 * max(1.0, abs(z)) / speed


def _inside_disk_s(s: complex) -> bool:
    # z = 1 - e^s lies in the disk iff e^{Re s} < 2 cos(Im s); exact in s,
    # immune to the 1-|z| cancellation at the boundary
    if not -math.pi / 2 < s.imag < math.pi / 2:
        return False
    return s.real < math.log(2.0 * math.cos(s.imag)) - 1e-14


def _newton_level(fn, chord, z, h_cur, w_sub, tol, w_final):
    # Newton runs in s = log(1-z) (principal branch; Re(1-z) > 0 on the
    # disk), where the step is a relative change of 1-z.  Near the
    # boundary this stays well conditioned where a raw z-step overshoots.
    s = cmath.log(1.0 - z)
    for _ in range(50):
        residual = h_cur - w_sub
        # Saturation: with the iterate pinned at the smallest representable
        # gap 1 - z, a leftover that is a forward time shift (positive real,
        # imaginary part resolved) means the true solution rounds to z.
        if s.real <= -36.0 and -residual.real > 0:
            if abs(residual.imag) <= 1e-9 * (1.0 + abs(residual.real)):
                return z, h_cur
        step = -residual * fn(z) / (1.0 - z)
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        damping = 0
        while not _inside_disk_s(s + step) and damping < 60:
            step *= 0.5
            damping += 1
        if damping >= 60:
            raise InversionFailureError(
                f"Newton iterate pinned at the boundary while solving h(z) = {w_final}",
                last_iterate=z,
                target=w_final,
            )
        s_new = s + step
        # keep 1 - z representable: below Re s = -36 the iterate would
        # round to z = 1 exactly and the machine floor already applies
        if s_new.real < -36.0:
            s_new = complex(-36.0, s_new.imag)
        z_new = 1.0 - cmath.exp(s_new)
        try:
            h_new = h_cur + _segment_integral(chord, z, z_new)
        except SingularEvaluationError as exc:
            raise InversionFailureError(
                f"quadrature broke during inversion toward {w_final}: {exc}",
                last_iterate=z,
                target=w_final,
            ) from exc
        z, h_cur, s = z_new, h_new, s_new
        if abs(h_cur - w_sub) <= max(tol, _machine_floor(fn, z)):
            return z, h_cur
    raise InversionFailureError(
        f"Newton did not converge at continuation level {w_sub}",
        last_iterate=z,
        target=w_final,
    )


def abel_flow(model: LinearizationModel, z: complex, t: float) -> complex:
    """F_t(z) = h^{-1}(h(z) + t); valid for negative t exactly when the
    backward orbit exists (otherwise the inversion fails, signalling that
    h(z) + t lies outside h(Delta))."""
    if t == 0:
        return complex(z)
    w = model.h(z) + t
    return invert_h(model, w, seed=z)


# --- (alpha, mu) estimation --------------------------------------------------


def estimate_alpha_mu(f):
    """Estimate (alpha, mu, class) from the growth of h' = -1/f at 1.

    |h'(r)| ~ |mu| (1-r)^-(1+alpha) on the radius, so consecutive ratios
    of log2 |h'(1 - 2^-k)| converge to 1 + alpha; the sequence is
    accelerated and cross-checked by a least-squares fit.  mu is the
    extrapolated value of (1-z)^(1+alpha) h'(z).  The class tag records
    whether the mu limit also exists along Stolz rays and a tangential
    curve (unrestricted), only along rays (angular), or has alpha = 0
    (the hyperbolic/strip case Sigma0).
    """
    fn = as_callable(f)

    ks = list(range(6, 27))
    s_vals = []
    for k in ks:
        r = 1.0 - 2.0**-k
        s_vals.append(math.log2(abs(1.0 / fn(r))))
    diffs = [b - a for a, b in zip(s_vals, s_vals[1:])]
    slope, converged, _ = sequence_limit(diffs, tol=1e-4)
    slope = slope.real

    # least-squares cross-check over the window k = 8..24
    ls_slope, r2 = line_fit([float(k) for k in ks[2:-2]], s_vals[2:-2])
    if not converged or abs(slope - ls_slope) > 0.05:
        if r2 < 0.9999:
            raise NotInClassError(
                f"growth of h' at the boundary is not a clean power law "
                f"(fit R^2 = {r2:.6f})"
            )
        slope = ls_slope
    alpha = slope - 1.0
    if not -0.05 <= alpha <= 2.05:
        raise NotInClassError(f"estimated alpha = {alpha} outside [0, 2]")
    alpha = min(max(alpha, 0.0), 2.0)

    # snap to an exact exponent when extremely close; the mu limit below
    # is only clean when the power matches
    for snap in (0.0, 0.5, 1.0, 1.5, 2.0):
        if abs(alpha - snap) < 5e-3:
            alpha = snap
            break

    def mu_fn(z: complex) -> complex:
        return (1.0 - z) ** (1.0 + alpha) * (-1.0 / fn(z))

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
    """Build the linearization model of a generator."""
    alpha, mu, tag = estimate_alpha_mu(f)
    return LinearizationModel(f=f, alpha=alpha, mu=mu, mu_class=tag)


# --- image-domain geometry ---------------------------------------------------


@dataclass(frozen=True)
class PlanarDomainStats:
    sup_im: float  # math.inf when unbounded
    inf_im: float  # -math.inf when unbounded
    strip_width: float
    half_plane: str  # "above(c)" | "below(c)" | "none"


def planar_domain_stats(model: LinearizationModel) -> PlanarDomainStats:
    """Extremes of Im h over the disk, by extrapolation over shrinking
    boundary gaps; computed once per model and kept in
    ``model.domain_stats``.

    Integrates h outward along ``STATS_RAYS`` rays with checkpoints at
    r = 1 - 2^-k (k <= 24), records per-circle extremes of Im h with a
    three-point parabolic refinement, then extrapolates the per-circle
    extremes in k; geometric growth or values past 1e8 report an infinite
    bound.
    """
    if model.domain_stats is None:
        model.domain_stats = _planar_domain_stats(model._chord)
    return model.domain_stats


def _planar_domain_stats(chord) -> PlanarDomainStats:
    ks = list(range(2, 25))
    radii = [1.0 - 2.0**-k for k in ks]
    n = STATS_RAYS
    thetas = [2.0 * math.pi * j / n - math.pi for j in range(n)]
    # rows[ki] collects (theta, Im h) on the circle radii[ki]
    rows = [[] for _ in ks]
    axis_h = [0j] * len(ks)
    for j, theta in enumerate(thetas):
        direction = cmath.exp(1j * theta)
        h_val = 0j
        prev = 0j
        for ki, r in enumerate(radii):
            z = r * direction
            h_val += _segment_integral(chord, prev, z)
            prev = z
            rows[ki].append((theta, h_val.imag))
            if theta == 0.0:
                axis_h[ki] = h_val
    # the extremes of Im h live at angles shrinking with the boundary gap
    # (like 1-r for the blow-up direction, sqrt(1-r) for the tangential
    # one); a uniform grid never sees them, so add a geometric cluster of
    # angles around theta = 0 on each circle covering every scale
    multipliers = [2.0**j for j in range(-2, 25)]
    for ki, r in enumerate(radii):
        for sgn in (1.0, -1.0):
            # chain outward from the axis so each chord joins
            # geometrically adjacent angles and stays cheap to resolve
            h_val = axis_h[ki]
            prev = complex(r)
            for m in multipliers:
                theta = sgn * m * (1.0 - r)
                if abs(theta) >= 1.2:
                    break
                z = r * cmath.exp(1j * theta)
                h_val += _segment_integral(chord, prev, z)
                prev = z
                rows[ki].append((theta, h_val.imag))
    for row in rows:
        row.sort()

    sup_k = [_refined_extreme(row, sign=+1) for row in rows]
    inf_k = [_refined_extreme(row, sign=-1) for row in rows]

    sup_im = _extrapolate_bound(sup_k)
    inf_im = -_extrapolate_bound([-v for v in inf_k])
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


def _refined_extreme(row, sign: int) -> float:
    """Max (sign=+1) or min (sign=-1) of Im h over a circle row of
    (theta, value) pairs, refined by a parabola through the winning
    point and its neighbours (the spacing is non-uniform)."""
    n = len(row)
    best = max(range(n), key=lambda j: sign * row[j][1])
    if best == 0 or best == n - 1:
        return row[best][1]
    (x0, y0), (x1, y1), (x2, y2) = row[best - 1], row[best], row[best + 1]
    d0, d2 = x0 - x1, x2 - x1
    denom = d0 * d2 * (d0 - d2)
    if abs(denom) < 1e-300:
        return y1
    # quadratic q(x) = y1 + b (x-x1) + c (x-x1)^2 through the three points
    c = (d2 * (y0 - y1) - d0 * (y2 - y1)) / denom
    b = (d2 * d2 * (y0 - y1) - d0 * d0 * (y2 - y1)) / -denom
    if sign * c >= 0:  # wrong curvature: no interior vertex on this side
        return y1
    vertex = y1 - b * b / (4.0 * c)
    # a bracketed extremum cannot beat the winner by more than the local
    # variation; ill-spaced neighbours would otherwise launch the vertex
    cap = max(abs(y0 - y1), abs(y2 - y1))
    if abs(vertex - y1) > cap:
        vertex = y1 + sign * cap
    return vertex if sign * vertex >= sign * y1 else y1


def _extrapolate_bound(sup_k) -> float:
    if looks_divergent(sup_k) or abs(sup_k[-1]) > INFINITE_THRESHOLD:
        return math.inf
    value, converged, _ = sequence_limit(sup_k, tol=1e-4)
    if not converged:
        # monotone growth that has not settled: decide by growth rate
        tail = sup_k[-6:]
        if all(b >= a for a, b in zip(tail, tail[1:])) and (
            tail[-1] - tail[0]
        ) > 0.05 * max(1.0, abs(tail[-1])):
            return math.inf
        value = complex(sup_k[-1])
    v = value.real
    return math.inf if abs(v) > INFINITE_THRESHOLD else v


def bloch_norm(model: LinearizationModel) -> float:
    """sup over the disk of (1-|z|^2)|h'(z)|, or inf when it diverges.

    Finite exactly for the strip case alpha = 0; divergence is detected
    from geometric growth of the per-circle sup as r -> 1.
    """
    fn = model._fn
    best = 0.0
    per_circle = []
    best_point = 0j
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
        per_circle.append(circle_best)
        if circle_best > INFINITE_THRESHOLD:
            return math.inf
    if looks_divergent(per_circle):
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


def visser_ostrovskii(model: LinearizationModel):
    """Radial limit of h(z)/((z-1)h'(z)); its modulus equals 1/alpha.

    The sign of the limit is reported as measured (the quotient tends to
    -1/alpha for the explicit half-plane models); callers should assert
    on the modulus.
    """
    fn = model._fn
    h_val = 0j
    prev = 0j
    values = []
    for k in range(4, 27):
        r = 1.0 - 2.0**-k
        h_val += _segment_integral(model._chord, prev, complex(r))
        prev = complex(r)
        values.append(h_val * fn(r) / (1.0 - r))
    value, converged, used = sequence_limit(values, tol=1e-6)
    return BoundaryLimitEstimate(
        value=value, converged=converged, approach="radial", samples_used=used
    )
