"""Conjugation of a semigroup with a Moebius group sharing its boundary
fixed points.

Outer conjugators push the semigroup onto a parabolic Moebius group via
psi = h/(ib + h).  Inner conjugators pull the Moebius group into the
semigroup via phi = h^{-1} o k, whose image is a backward flow invariant
domain (BFID): a strip preimage when the group is hyperbolic (h-type) or
a half-plane preimage when it is parabolic (p-type).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .abel import (
    LinearizationModel,
    abel_flow,
    invert_h,
    linearize,
    planar_domain_stats,
)
from .errors import (
    CornerUndeterminedError,
    DiskflowError,
    InversionFailureError,
    NotContainedError,
    SingularEvaluationError,
    StripNotContainedError,
)
from .expr import BoundaryLimitEstimate, Expr, boundary_limit, compile_expr
from .extrapolate import INFINITE_THRESHOLD, golden_min, line_fit, sequence_limit
from .flow import backward_extendability

RESIDUAL_TIMES = (1.0, 5.0, 25.0)
RESIDUAL_GRID = (
    0j,
    0.5 + 0j,
    -0.5 + 0j,
    0.3 + 0.4j,
    0.3 - 0.4j,
    -0.2 + 0.6j,
    -0.2 - 0.6j,
    0.1 + 0.1j,
)
CONTAINMENT_MARGIN = 1e-3
NULL_SCAN_SAMPLES = 256  # angles of the |f| scan for boundary null points


@dataclass(frozen=True)
class MobiusGroup:
    """One-parameter Moebius group fixing 1, with generator
    g(z) = a(z^2 - 1) + ib(z - 1)^2 = (a + ib)(z - 1)(z - eta).

    ``eta`` is the second (repelling) fixed point; for a = 0 the group is
    parabolic and eta coincides with 1.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be nonnegative")
        if self.a == 0 and self.b == 0:
            raise ValueError("(a, b) = (0, 0) generates nothing")

    @property
    def eta(self) -> complex:
        if self.a == 0:
            return 1 + 0j
        return -(self.a - 1j * self.b) / (self.a + 1j * self.b)

    @classmethod
    def from_repelling(cls, a: float, eta: complex) -> "MobiusGroup":
        # invert eta = -(a - ib)/(a + ib) for b; real for unimodular eta
        b = (a * (1 + eta) / (1j * (eta - 1))).real if eta != 1 else 0.0
        return cls(a=a, b=b)

    def generator(self, z: complex) -> complex:
        return self.a * (z * z - 1) + 1j * self.b * (z - 1) ** 2

    def apply(self, t: float, z: complex) -> complex:
        """The group element G_t; satisfies dG/dt = -g(G)."""
        return 1.0 - self.gap_apply(t, z)

    def gap_apply(self, t: float, z: complex) -> complex:
        """1 - G_t(z), stable even when G_t(z) rounds to 1 as a point
        (the gap decays like e^{-2at} and stays representable long after
        1 - gap collapses to 1.0)."""
        if self.a == 0:
            return 1j * self.b * (1 - z) / (1j * self.b + t * (1 - z))
        eta = self.eta
        w = (z - 1) / (z - eta)
        wt = cmath.exp(-2 * self.a * t) * w
        return wt * (1 - eta) / (wt - 1)

    def linearizer(self, z: complex) -> complex:
        """The linearizer k of the group: k(G_t(z)) = k(z) + t, with
        k(0) = 0 (callers add their own constant).

        Hyperbolic case: k = -(1/2a)[Log(1-z) - Log(1-conj(eta) z)],
        image the horizontal strip of width pi/(2a) centered on R.
        Parabolic case: k = ib z/(1-z), image the half-plane
        {Im w > -b/2} for b > 0 ({Im w < -b/2} for b < 0).
        """
        return self.linearizer_gap(1 - z)

    def linearizer_gap(self, gap: complex) -> complex:
        """k evaluated from the gap 1 - z; usable for gaps far below the
        resolution of z itself."""
        if self.a == 0:
            return 1j * self.b * (1 - gap) / gap
        e = self.eta.conjugate()
        # 1 - conj(eta) z = (1 - conj(eta)) + conj(eta) gap, cancellation-free
        return -(cmath.log(gap) - cmath.log((1 - e) + e * gap)) / (2 * self.a)

    def strip_half_width(self) -> float:
        if self.a == 0:
            return math.inf
        return math.pi / (4 * self.a)


@dataclass(frozen=True)
class ConjugationCertificate:
    kind: str  # outer | inner
    map: object  # callable z -> complex (psi or phi)
    group: MobiusGroup
    residual_sup: float
    bfid_type: str  # p-type | h-type | none
    corner_gamma: float | None = None
    base_point: complex | None = None


def _residual_sup(left, right) -> float:
    worst = 0.0
    for z in RESIDUAL_GRID:
        for t in RESIDUAL_TIMES:
            worst = max(worst, abs(left(t, z) - right(t, z)))
    return worst


def outer_conjugator(model: LinearizationModel, b: float) -> ConjugationCertificate:
    """psi = h/(ib + h) semi-conjugates F_t onto the parabolic group:
    psi o F_t = G_t o psi.

    Requires h(Delta) inside the half-plane image of ibz/(1-z); the sign
    of b must put that half-plane on the bounded side of Im h.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    stats = planar_domain_stats(model)
    level = -b / 2.0
    # equality is allowed: h(Delta) may coincide with the half-plane
    if b > 0:
        ok = stats.inf_im >= level - 1e-4
        witness_im = stats.inf_im
    else:
        ok = stats.sup_im <= level + 1e-4
        witness_im = stats.sup_im
    if not ok:
        raise NotContainedError(
            "image of the Abel function is not inside the target half-plane",
            witness=complex(0, witness_im),
        )

    def psi(z: complex) -> complex:
        w = model.h(z)
        return w / (1j * b + w)

    group = MobiusGroup(a=0.0, b=b)
    res = _residual_sup(
        lambda t, z: psi(model.flow(z, t)),
        lambda t, z: group.apply(t, psi(z)),
    )
    for z in RESIDUAL_GRID:
        if abs(psi(z)) >= 1:
            raise NotContainedError("psi left the disk", witness=z)
    return ConjugationCertificate(
        kind="outer", map=psi, group=group, residual_sup=res, bfid_type="none"
    )


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
    Falls back to boundary_limit when any sample fails or the eliminated
    tail does not settle.
    """
    def quotient(w: complex) -> complex:
        return fn(w) / (w - zeta)

    vals = []
    for k in range(6, 23):
        try:
            vals.append(quotient(zeta * (1 - 2.0 ** (-k))))
        except SingularEvaluationError:
            return boundary_limit(lambda z: quotient(zeta * z), "radial")
        if len(vals) >= 3 and all(abs(v) > INFINITE_THRESHOLD for v in vals[-3:]):
            return BoundaryLimitEstimate(
                vals[-1], True, "radial", len(vals), infinite=True
            )
    used = len(vals)
    for m in range(1, 6):
        q = 2.0 ** (-0.5 * m)
        vals = [(b - q * a) / (1.0 - q) for a, b in zip(vals, vals[1:])]
    tail = vals[-3:]
    value = tail[-1]
    if max(abs(u - value) for u in tail) < 1e-6 * max(1.0, abs(value)):
        return BoundaryLimitEstimate(
            value, True, "radial", used, infinite=abs(value) > INFINITE_THRESHOLD
        )
    return boundary_limit(lambda z: quotient(zeta * z), "radial")


def find_boundary_null_points(f: Expr) -> list:
    """Boundary null points of f with their angular derivatives.

    Scans |f| at NULL_SCAN_SAMPLES angles on the circle r = 1 - 1e-4,
    refines each local minimum by golden-section in angle, then takes
    radial limits of f and of f/(z - zeta).  ``regular`` means f -> 0
    and f/(z - zeta) finite.
    """
    samples = NULL_SCAN_SAMPLES
    fn = compile_expr(f)
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


def _strip_contained(model: LinearizationModel, mid: float, half_width: float,
                     a: float, seed: complex) -> bool:
    """Probe whether {|Im w - mid| < half_width} lies in h(Delta) using
    inversion success as the membership oracle.

    Probes are capped to the range where the preimage gap 1 - z stays
    representable (it decays like e^{-2a|x|} toward the repelling point
    and like e^{-x/|mu|} toward the attracting one).  Larger Re is
    covered by forward flow invariance: w in h(Delta) implies w + t in
    h(Delta), so a vertical probe segment certifies everything to its
    right.
    """
    x_back = -min(25.0, 12.0 / max(a, 0.05))
    x_fwd = min(5.0, 20.0 * abs(model.mu))
    levels = (mid, mid + 0.9 * half_width, mid - 0.9 * half_width)
    for im in levels:
        # chain the probes: the strip is convex, so seeding each
        # inversion with its neighbour keeps the continuation path inside
        try:
            z_axis = invert_h(model, complex(0.0, im), seed=seed)
            z_cur = z_axis
            for x in (x_back / 2, x_back):
                z_cur = invert_h(model, complex(x, im), seed=z_cur)
            invert_h(model, complex(x_fwd, im), seed=z_axis)
        except InversionFailureError:
            return False
    return True


def _halfplane_contained(model: LinearizationModel, level: float, side: int,
                         seed: complex) -> bool:
    """Membership probe for {Im w > level} (side=+1) or {Im w < level}.

    Probes are chained along each horizontal row (the half-plane is
    convex) so every continuation path stays inside the probed region.
    """
    row_seed = seed
    for dy in (0.1, 1.0, 10.0, 100.0):
        im = level + side * dy
        try:
            row_seed = invert_h(model, complex(0.0, im), seed=row_seed)
            z_cur = row_seed
            for x in (-50.0, -200.0):
                z_cur = invert_h(model, complex(x, im), seed=z_cur)
            z_cur = row_seed
            for x in (50.0, 200.0):
                z_cur = invert_h(model, complex(x, im), seed=z_cur)
        except InversionFailureError:
            return False
    return True


def inner_conjugator(model: LinearizationModel, group: MobiusGroup,
                     base: complex) -> ConjugationCertificate:
    """phi = h^{-1}(k(z) + h(base)) intertwines the group with the flow:
    F_t o phi = phi o G_t; phi(0) = base.

    The image of k + h(base) (a strip for a != 0, a half-plane for
    a = 0) must sit inside h(Delta); membership is certified by probe
    inversions before the residual is measured.
    """
    C = model.h(base)
    if group.a != 0:
        if not _strip_contained(model, C.imag, group.strip_half_width(),
                                group.a, base):
            raise StripNotContainedError(
                "linearizer strip is not inside the image of the Abel function"
            )
        bfid_type = "h-type"
    else:
        level = C.imag - group.b / 2.0
        side = 1 if group.b > 0 else -1
        if not _halfplane_contained(model, level, side, base):
            raise StripNotContainedError(
                "linearizer half-plane is not inside the image of the Abel function"
            )
        bfid_type = "p-type"

    def phi(z: complex) -> complex:
        return invert_h(model, group.linearizer(z) + C, seed=base)

    def right(t: float, z: complex) -> complex:
        # evaluate through the gap 1 - G_t(z), which stays representable
        # after the group orbit collapses onto 1 in z-coordinates
        gap = group.gap_apply(t, z)
        return invert_h(model, group.linearizer_gap(gap) + C, seed=base)

    res = _residual_sup(lambda t, z: model.flow(phi(z), t), right)
    return ConjugationCertificate(
        kind="inner",
        map=phi,
        group=group,
        residual_sup=res,
        bfid_type=bfid_type,
        base_point=base,
    )


def corner_opening(certificate: ConjugationCertificate) -> float:
    """Opening gamma of the image of phi at z = 1.

    The image boundary meets z = 1 in a corner of opening pi*gamma with
    1 - phi(z) ~ m (1-z)^gamma along the radius; gamma is fitted by the
    dyadic log-log scheme and must land in [0.48, 1.02].  The ladder
    k = 3..18 is its own rather than boundary_limit's k = 4..40 because
    every sample is an inversion: the longer ladder costs about four
    times as much per corner (0.2 -> 0.8 s on bfid-par), and there the
    inversions at k >= 38 fail.
    """
    if certificate.kind != "inner" or certificate.bfid_type != "p-type":
        raise ValueError("corner opening applies to inner p-type certificates")
    phi = certificate.map
    ks = range(3, 19)
    logs = []
    for k in ks:
        z = 1 - 2.0 ** (-k)
        try:
            logs.append(math.log2(abs(1 - phi(z))))
        except (InversionFailureError, ValueError):
            break
    if len(logs) < 8:
        raise CornerUndeterminedError("too few usable radial samples")
    diffs = [-(b - a) for a, b in zip(logs, logs[1:])]
    gamma, converged, _ = sequence_limit(diffs, tol=1e-3)
    gamma = float(gamma.real) if isinstance(gamma, complex) else float(gamma)
    if not converged:
        # least-squares fallback over the sampled tail
        slope, r2 = line_fit(range(len(logs)), logs)
        gamma = -slope
        if r2 < 0.9999:
            raise CornerUndeterminedError("log-log fit quality gate failed")
    if not (0.5 - 0.02 <= gamma <= 1 + 0.02):
        raise CornerUndeterminedError(f"gamma = {gamma} outside [1/2, 1]")
    return gamma


def bfid_report(f: Expr) -> list:
    """All backward flow invariant domains found at probe resolution.

    One h-type certificate per regular repelling null point whose strip
    fits in h(Delta); one p-type certificate per half-plane side
    contained in h(Delta).
    """
    model = linearize(f)
    certificates = []

    for null in find_boundary_null_points(f):
        if not null["regular"] or abs(null["zeta"] - 1) < 1e-6:
            continue
        fp = null["f_prime"]
        if fp.real >= -1e-8:
            continue  # not repelling
        a = -fp.real / 2.0
        group = MobiusGroup.from_repelling(a, null["zeta"])
        base = _backward_base(f, null["zeta"])
        if base is None:
            continue
        try:
            cert = inner_conjugator(model, group, base)
        except (StripNotContainedError, InversionFailureError):
            continue
        certificates.append(cert)

    for side in (1, -1):
        cert = _p_type_certificate(model, side)
        if cert is not None:
            certificates.append(cert)
    return certificates


def _backward_base(f: Expr, zeta: complex):
    """A point of RESIDUAL_GRID whose backward trajectory ends at zeta,
    or None."""
    for z0 in RESIDUAL_GRID:
        try:
            report = backward_extendability(f, complex(z0))
        except DiskflowError:
            continue
        if report["extendable"] and abs(report["limit_point"] - zeta) < 1e-3:
            return complex(z0)
    return None


def _p_type_certificate(model: LinearizationModel, side: int):
    """Certificate for a contained half-plane {side * Im w > c}, if any."""
    # arg mu sign rule: for alpha < 2 only the side matching arg mu works
    if model.alpha < 2 - 1e-9:
        arg_mu = cmath.phase(model.mu)
        if arg_mu * side <= 0:
            return None
    level = None
    for c in (0.5, 1.0, 2.0, 4.0, 8.0):
        if _halfplane_contained(model, side * c, side, 0j):
            level = side * c
            break
    if level is None:
        return None
    # place the base two units inside the certified half-plane
    try:
        base = invert_h(model, complex(0.0, level + 2.0 * side), seed=0j)
    except InversionFailureError:
        return None
    # backward completeness along the horizontal trajectory (Im const)
    try:
        probe = invert_h(model, complex(-300.0, level + 2.0 * side), seed=base)
    except InversionFailureError:
        return None
    if abs(1 - probe) > 0.5:
        return None  # trajectory does not emanate from the boundary point 1
    C = model.h(base)
    b = side * 2.0 * (abs(C.imag - level) - CONTAINMENT_MARGIN)
    if b * side <= 0:
        return None
    group = MobiusGroup(a=0.0, b=b)
    try:
        cert = inner_conjugator(model, group, base)
    except (StripNotContainedError, InversionFailureError):
        return None
    try:
        gamma = corner_opening(cert)
    except CornerUndeterminedError:
        gamma = None
    return replace(cert, corner_gamma=gamma)
