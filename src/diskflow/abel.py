"""Abel linearization: h(z) = -integral of 1/f from 0 to z, its inverse,
the exact flow F_t = h^{-1}(h(z) + t), the (alpha, mu) boundary exponents,
and the geometry of the image domain h(Delta).

h is computed by quadrature along straight segments (f is zero-free on the
disk, so -1/f is holomorphic there and the segment integral is path
independent).  Inversion runs a Newton continuation that tracks h
incrementally with Gauss-Legendre panels, so each inversion costs a
handful of evaluations of f rather than a fresh quadrature per iterate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InversionFailureError, NotInClassError, SingularEvaluationError
from .expr import Expr, boundary_limit, compile_expr
from .extrapolate import INFINITE_THRESHOLD, looks_divergent, sequence_limit

# plain floats: numpy float64 nodes would make every panel's arithmetic
# run as numpy scalar operations, about 2.5x slower
_GL_NODES, _GL_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(16))


def _segment_integral(recip, z0: complex, z1: complex, depth: int = 0) -> complex:
    """Adaptive Gauss-Legendre integral of ``recip`` along [z0, z1].

    The acceptance test tracks the evaluation noise of the integrand:
    near the boundary the reconstruction of 1-z inside the expression
    loses eps/|1-z| relative accuracy, so demanding a fixed relative
    tolerance would recurse forever on roundoff.
    """
    mid = 0.5 * (z0 + z1)
    whole, _ = _gl_panel(recip, z0, z1)
    left, nl = _gl_panel(recip, z0, mid)
    right, nr = _gl_panel(recip, mid, z1)
    halves = left + right
    noise = nl + nr
    tol = max(1e-13 * max(1.0, abs(halves)), 8.0 * noise)
    if abs(whole - halves) <= tol or depth >= 12:
        return halves
    return (
        _segment_integral(recip, z0, mid, depth + 1)
        + _segment_integral(recip, mid, z1, depth + 1)
    )


def _gl_panel(recip, z0: complex, z1: complex):
    """16-node panel; returns (integral, roundoff noise estimate)."""
    half = 0.5 * (z1 - z0)
    mid = 0.5 * (z0 + z1)
    acc = 0j
    rough = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        node = mid + half * x
        v = recip(node)
        acc += w * v
        gap = abs(1.0 - node)
        rough += w * abs(v) * (1.0 + (abs(node) / gap if gap > 0 else 1e16))
    return acc * half, rough * abs(half) * 2.3e-16


def _near_boundary_h(recip, z: complex) -> complex:
    """Integrate ``recip`` from 0 to a point close to the boundary at 1.

    A single straight segment cannot resolve the integrand near such an
    endpoint: the argument of 1 - w only swings to its final value
    inside a window of width |1 - z|, and global quadrature misses that
    spike while still reporting a small error.  Chords whose endpoint
    gaps shrink geometrically keep the spike resolved at every scale.
    """
    g = 1.0 - z
    direction = g / abs(g)
    # keep every anchor 1 - rho*direction inside the disk
    rho = min(0.25, max(direction.real, 0.0))
    if rho <= abs(g):
        return _segment_integral(recip, 0j, z)
    prev = 1.0 - rho * direction
    total = _segment_integral(recip, 0j, prev)
    while rho > abs(g):
        rho = max(rho / 2.0, abs(g))
        nxt = z if rho <= abs(g) else 1.0 - rho * direction
        total += _segment_integral(recip, prev, nxt)
        prev = nxt
    return total


def abel_h(f, z: complex) -> complex:
    """h(z) = -integral from 0 to z of dz/f, along the straight segment
    (a chord chain for points within 0.05 of the boundary point 1)."""
    fn = compile_expr(f) if isinstance(f, Expr) else f
    if z == 0:
        return 0j
    zc = complex(z)
    recip = lambda u: -1.0 / fn(u)  # noqa: E731
    if abs(1.0 - zc) < 0.05:
        return _near_boundary_h(recip, zc)
    return _segment_integral(recip, 0j, zc)


@dataclass
class LinearizationModel:
    """The Abel function of a generator plus its boundary exponents.

    ``h_cache`` memoizes h at the exact points asked for through
    :meth:`h`; :func:`invert_h` does not consult it and continues from
    the seed its caller passes.
    """

    f: Expr
    alpha: float
    mu: complex
    mu_class: str  # Sigma0 | SigmaAlpha-angular | SigmaAlpha-unrestricted
    h_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._fn = compile_expr(self.f) if isinstance(self.f, Expr) else self.f
        self._recip = lambda z: -1.0 / self._fn(z)
        self.h_cache.setdefault(0j, 0j)

    def h(self, z: complex) -> complex:
        z = complex(z)
        cached = self.h_cache.get(z)
        if cached is not None:
            return cached
        value = abel_h(self._fn, z)
        self.h_cache[z] = value
        return value

    def h_prime(self, z: complex) -> complex:
        return self._recip(z)

    def flow(self, z: complex, t: float) -> complex:
        return abel_flow(self, z, t)


def invert_h(model: LinearizationModel, w: complex, seed: complex = 0j,
             max_substeps: int = 64) -> complex:
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
    recip = model._recip
    tol = max(1e-12, 1e-15 * abs(w))

    for _ in range(max_substeps):
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
        z, h_cur = _newton_level(fn, recip, z, h_cur, w_sub, tol, w)
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


def _newton_level(fn, recip, z, h_cur, w_sub, tol, w_final):
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
            h_new = h_cur + _segment_integral(recip, z, z_new)
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


def estimate_alpha_mu(f, classify: bool = True):
    """Estimate (alpha, mu, class) from the growth of h' = -1/f at 1.

    |h'(r)| ~ |mu| (1-r)^-(1+alpha) on the radius, so consecutive ratios
    of log2 |h'(1 - 2^-k)| converge to 1 + alpha; the sequence is
    accelerated and cross-checked by a least-squares fit.  mu is the
    extrapolated value of (1-z)^(1+alpha) h'(z).  The class tag records
    whether the mu limit also exists along Stolz rays and a tangential
    curve (unrestricted), only along rays (angular), or has alpha = 0
    (the hyperbolic/strip case Sigma0).
    """
    fn = compile_expr(f) if isinstance(f, Expr) else f

    ks = list(range(6, 27))
    s_vals = []
    for k in ks:
        r = 1.0 - 2.0**-k
        s_vals.append(math.log2(abs(1.0 / fn(r))))
    diffs = [b - a for a, b in zip(s_vals, s_vals[1:])]
    slope, converged, _ = sequence_limit(diffs, tol=1e-4)
    slope = slope.real

    # least-squares cross-check over the window k = 8..24
    xs = [float(k) for k in ks[2:-2]]
    ys = s_vals[2:-2]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    ls_slope = sxy / sxx
    ss_res = sum(
        (y - ybar - ls_slope * (x - xbar)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - ybar) ** 2 for y in ys) or 1e-300
    r2 = 1.0 - ss_res / ss_tot
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
    if not classify:
        return alpha, mu, "Sigma0" if alpha < 0.025 else "SigmaAlpha-angular"

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


def linearize(f, classify: bool = True) -> LinearizationModel:
    """Build the linearization model of a generator."""
    alpha, mu, tag = estimate_alpha_mu(f, classify=classify)
    return LinearizationModel(f=f, alpha=alpha, mu=mu, mu_class=tag)


# --- image-domain geometry ---------------------------------------------------


@dataclass(frozen=True)
class PlanarDomainStats:
    sup_im: float  # math.inf when unbounded
    inf_im: float  # -math.inf when unbounded
    strip_width: float
    half_plane: str  # "above(c)" | "below(c)" | "none"
    midline_level: float


def planar_domain_stats(model: LinearizationModel,
                        boundary_density: int = 96) -> PlanarDomainStats:
    """Extremes of Im h over the disk, by extrapolation over shrinking
    boundary gaps.

    Integrates h outward along ``boundary_density`` rays with checkpoints
    at r = 1 - 2^-k (k <= 24), records per-circle extremes of Im h with a
    three-point parabolic refinement, then extrapolates the per-circle
    extremes in k; geometric growth or values past 1e8 report an infinite
    bound.
    """
    recip = model._recip
    ks = list(range(2, 25))
    radii = [1.0 - 2.0**-k for k in ks]
    n = boundary_density
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
            h_val += _segment_integral(recip, prev, z)
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
                h_val += _segment_integral(recip, prev, z)
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
    midline = (sup_im + inf_im) / 2.0 if both else 0.0
    return PlanarDomainStats(sup_im, inf_im, strip_width, half_plane, midline)


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


def bloch_norm(model: LinearizationModel, grid_density: int = 64) -> float:
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
        for j in range(grid_density):
            theta = 2.0 * math.pi * j / grid_density
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
        span = 2.0 * math.pi / grid_density

        def g(theta):
            try:
                return (1.0 - r * r) * abs(1.0 / fn(r * cmath.exp(1j * theta)))
            except SingularEvaluationError:
                return 0.0

        best = max(best, _golden_max(g, theta0 - span, theta0 + span))
    return best


def _golden_max(g, a: float, b: float, iters: int = 40) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = g(x1)
    return max(f1, f2)


def visser_ostrovskii(model: LinearizationModel):
    """Radial limit of h(z)/((z-1)h'(z)); its modulus equals 1/alpha.

    The sign of the limit is reported as measured (the quotient tends to
    -1/alpha for the explicit half-plane models); callers should assert
    on the modulus.
    """
    from .expr import BoundaryLimitEstimate

    fn = model._fn
    recip = model._recip
    h_val = 0j
    prev = 0j
    values = []
    for k in range(4, 27):
        r = 1.0 - 2.0**-k
        h_val += _segment_integral(recip, prev, complex(r))
        prev = complex(r)
        values.append(h_val * fn(r) / (1.0 - r))
    value, converged, used = sequence_limit(values, tol=1e-6)
    return BoundaryLimitEstimate(
        value=value, converged=converged, approach="radial", samples_used=used
    )
