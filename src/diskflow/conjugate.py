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

from .abel import (  # noqa: F401 - find_boundary_null_points is public here too
    LinearizationModel,
    _walk,
    find_boundary_null_points,
    linearize,
)
from .errors import (
    CornerUndeterminedError,
    DiskflowError,
    InversionFailureError,
    NotContainedError,
    StripNotContainedError,
)
from .expr import Expr
from .extrapolate import sequence_limit
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
        b = (-a * (1 + eta) / (1j * (eta - 1))).real if eta != 1 else 0.0
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
        image the horizontal strip that :meth:`strip` describes.
        Parabolic case: k = ib z/(1-z), image the half-plane that
        :meth:`half_plane` describes.
        """
        gap = 1 - z
        if self.a == 0:
            return 1j * self.b * (1 - gap) / gap
        e = self.eta.conjugate()
        # 1 - conj(eta) z = (1 - conj(eta)) + conj(eta) gap, cancellation-free
        return -(cmath.log(gap) - cmath.log((1 - e) + e * gap)) / (2 * self.a)

    def strip(self) -> tuple:
        """(centre, half-width) of the strip k(Delta) for a != 0.

        Im k is constant on each arc of the circle between 1 and eta, and
        the two values differ by pi/(2a); with eta = -e^(-2i atan2(b, a))
        they are atan2(b, a)/(2a) -+ pi/(4a)."""
        return math.atan2(self.b, self.a) / (2 * self.a), math.pi / (4 * self.a)

    def half_plane(self) -> tuple:
        """(edge, side) of the half-plane k(Delta) = {side (Im w - edge) > 0}
        for a = 0: Re z/(1 - z) = -1/2 on the circle."""
        return -self.b / 2.0, 1 if self.b > 0 else -1


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
    """The largest |left - right| over RESIDUAL_GRID and RESIDUAL_TIMES;
    each side maps a grid point to its values at all RESIDUAL_TIMES."""
    worst = 0.0
    for z in RESIDUAL_GRID:
        for lhs, rhs in zip(left(z), right(z)):
            worst = max(worst, abs(lhs - rhs))
    return worst


def outer_conjugator(model: LinearizationModel, b: float) -> ConjugationCertificate:
    """psi = h/(ib + h) semi-conjugates F_t onto the parabolic group:
    psi o F_t = G_t o psi.

    Requires h(Delta) inside the half-plane image of ibz/(1-z); the sign
    of b must put that half-plane on the bounded side of Im h.  The
    residual compares both sides at each grid point for t = 1, 5, 25;
    the three flow points F_t(z) are one walk along the ray h(z) + t
    (``model.orbit``), each solve continued from the point before and
    the h its solve tracked, or solved from its asymptotic seed when far.
    psi reads a fresh h at each flow point, so the residual checks the
    walk rather than repeating it.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    stats = model.domain_stats
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
        lambda z: [psi(u) for u in model.orbit(z, RESIDUAL_TIMES)],
        lambda z: [group.apply(t, psi(z)) for t in RESIDUAL_TIMES],
    )
    for z in RESIDUAL_GRID:
        if abs(psi(z)) >= 1:
            raise NotContainedError("psi left the disk", witness=z)
    return ConjugationCertificate(
        kind="outer", map=psi, group=group, residual_sup=res, bfid_type="none"
    )


def _rows_contained(model: LinearizationModel, rows, x_left: float,
                   base: complex) -> bool:
    """Probe whether every row {Im w = y, Re w >= x_left}, y in ``rows``,
    lies in h(Delta), using inversion success as the membership oracle.

    h(Delta) + t lies in h(Delta) for t >= 0 (forward flow invariance),
    so a row lies in h(Delta) once its left end does.  The axis points
    (0, y) of the rows are one walk from ``base`` and a fresh h(base),
    and each row's left end is one step from its axis point.  A far
    target is first solved from its asymptotic seed, and a converged
    solve of a univalent h proves membership; every other target is
    continued, and the region being certified is convex, so each
    continuation path stays inside it.
    """
    axis = _walk(model, base, model.h(base), (complex(0.0, y) for y in rows))
    try:
        for y, point in zip(rows, axis):
            next(_walk(model, *point, (complex(x_left, y),)))
    except InversionFailureError:
        return False
    return True


def inner_conjugator(model: LinearizationModel, group: MobiusGroup,
                     base: complex) -> ConjugationCertificate:
    """phi = h^{-1}(k(z) + h(base)) intertwines the group with the flow:
    F_t o phi = phi o G_t; phi(0) = base.

    The image of k + h(base) (a strip for a != 0, a half-plane for
    a = 0) must sit inside h(Delta); membership is certified row by row
    before the residual is measured.  The strip rows are its centre line
    and the lines 0.9 half-widths to either side, probed leftward to
    where the preimage gap 1 - z stays representable (it decays like
    e^(-2a|x|) toward the repelling point); the half-plane rows lie
    0.1, 1, 10 and 100 inside its edge and are probed to Re w = -200.

    The residual then compares F_t(phi(z)) with phi(G_t(z)) at each grid
    point for t = 1, 5, 25, and each side's three times form one walk:
    the flow side walks the ray h(phi(z)) + t, and the group side solves
    k(G_t z) + h(base) from base, then from its own previous answer, or
    from its asymptotic seed when far.  The group side's continued path
    h(base) -> w_1 -> w_5 -> w_25 lies in the strip or half-plane just
    certified, which is convex, and it never starts from a flow-side
    point, so the two sides stay independent.
    """
    C = model.h(base)
    if group.a != 0:
        centre, half_width = group.strip()
        mid = C.imag + centre
        rows = (mid, mid + 0.9 * half_width, mid - 0.9 * half_width)
        x_back = -min(25.0, 12.0 / max(group.a, 0.05))
        if not _rows_contained(model, rows, x_back, base):
            raise StripNotContainedError(
                "linearizer strip is not inside the image of the Abel function"
            )
        bfid_type = "h-type"
    else:
        edge, side = group.half_plane()
        rows = [C.imag + edge + side * dy for dy in (0.1, 1.0, 10.0, 100.0)]
        if not _rows_contained(model, rows, -200.0, base):
            raise StripNotContainedError(
                "linearizer half-plane is not inside the image of the Abel function"
            )
        bfid_type = "p-type"

    def phi(z: complex) -> complex:
        # one step of a walk from base, where h = C
        return next(_walk(model, base, C, (group.linearizer(z) + C,)))[0]

    def right(z: complex) -> list:
        # k(G_t z) = k(z) + t holds exactly, so no point of the group
        # orbit is formed: its gap 1 - G_t(z) decays like e^(-2at) and
        # underflows for large a; the orbit starts from base, never from
        # a flow-side point
        k = group.linearizer(z) + C
        return [u for u, _ in _walk(model, base, C, (k + t for t in RESIDUAL_TIMES))]

    # the flow side is walked to the end before the group side starts
    res = _residual_sup(lambda z: list(model.orbit(phi(z), RESIDUAL_TIMES)), right)
    return ConjugationCertificate(
        kind="inner",
        map=phi,
        group=group,
        residual_sup=res,
        bfid_type=bfid_type,
        base_point=base,
    )


def corner_opening(model: LinearizationModel,
                   certificate: ConjugationCertificate) -> float:
    """Opening gamma of the image of phi at z = 1, for an inner p-type
    certificate of ``model``.

    The image boundary meets z = 1 in a corner of opening pi*gamma with
    1 - phi(z) ~ m (1-z)^gamma along the radius, so the slopes
    log2|1 - phi(z_k)| - log2|1 - phi(z_(k+1))| at z_k = 1 - 2^-k tend to
    gamma.  gamma is their sequence_limit; slopes that do not settle
    within 1e-3, or a gamma outside [0.48, 1.02], leave the corner
    undetermined (CornerUndeterminedError).  The rungs phi(z_k) are one
    walk from (base, h(base)), the first failed rung ending the
    ladder.  The ladder k = 3..18 is its own rather than boundary_limit's
    k = 4..40 because every sample is an inversion, and on bfid-par the
    inversions at k >= 38 fail.
    """
    if certificate.kind != "inner" or certificate.bfid_type != "p-type":
        raise ValueError("corner opening applies to inner p-type certificates")
    group, base = certificate.group, certificate.base_point
    C = model.h(base)
    rungs = [group.linearizer(1 - 2.0 ** (-k)) + C for k in range(3, 19)]
    logs = []
    try:
        for point, _ in _walk(model, base, C, rungs):
            logs.append(math.log2(abs(1 - point)))
    except (InversionFailureError, ValueError):
        pass
    if len(logs) < 8:
        raise CornerUndeterminedError("too few usable radial samples")
    diffs = [-(b - a) for a, b in zip(logs, logs[1:])]
    gamma, converged = sequence_limit(diffs, tol=1e-3)
    if not converged:
        raise CornerUndeterminedError("radial log-log slopes did not settle")
    if not (0.5 - 0.02 <= gamma <= 1 + 0.02):
        raise CornerUndeterminedError(f"gamma = {gamma} outside [1/2, 1]")
    return gamma


def bfid_report(f: LinearizationModel | Expr) -> list:
    """All backward flow invariant domains found at probe resolution.

    ``f`` is a LinearizationModel, or an Expr that is linearized first.
    One h-type certificate per regular repelling null point whose strip
    fits in h(Delta); one p-type certificate per half-plane side
    contained in h(Delta).  Each candidate domain is probed once, by the
    row check of :func:`inner_conjugator`; before it, a half-plane level
    inverts only its base point.
    """
    model = f if isinstance(f, LinearizationModel) else linearize(f)
    certificates = []

    for null in model.null_points:
        if not null["regular"] or abs(null["zeta"] - 1) < 1e-6:
            continue
        fp = null["f_prime"]
        if fp.real >= -1e-8:
            continue  # not repelling
        a = -fp.real / 2.0
        group = MobiusGroup.from_repelling(a, null["zeta"])
        base = _backward_base(model.f, null["zeta"])
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


def _backward_base(f, zeta: complex):
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
    """Certificate for a contained half-plane {side * Im w > c}, if any.

    The levels c = 0.5, 1, 2, 4, 8 are tried in turn and the first whose
    certificate succeeds wins.  Each inverts the base point two units
    inside the half-plane by a walk from 0, and leaves the containment
    check to the row probe of :func:`inner_conjugator`.
    """
    # arg mu sign rule: for alpha < 2 only the side matching arg mu works
    if model.alpha < 2 - 1e-9:
        arg_mu = cmath.phase(model.mu)
        if arg_mu * side <= 0:
            return None
    for c in (0.5, 1.0, 2.0, 4.0, 8.0):
        level = side * c
        try:
            base = next(_walk(model, 0j, 0j, (complex(0.0, level + 2.0 * side),)))[0]
        except InversionFailureError:
            continue
        C = model.h(base)
        b = side * 2.0 * (abs(C.imag - level) - CONTAINMENT_MARGIN)
        try:
            cert = inner_conjugator(model, MobiusGroup(a=0.0, b=b), base)
        except (StripNotContainedError, InversionFailureError):
            continue
        try:
            gamma = corner_opening(model, cert)
        except CornerUndeterminedError:
            gamma = None
        return replace(cert, corner_gamma=gamma)
    return None
