import cmath
import math
from fractions import Fraction

import pytest
from conftest import counted_model

from diskflow import abel, conjugate
from diskflow.abel import linearize, planar_domain_stats
from diskflow.classify import halfplane_criterion_M
from diskflow.conjugate import (
    MobiusGroup,
    bfid_report,
    corner_opening,
    find_boundary_null_points,
    inner_conjugator,
    outer_conjugator,
)
from diskflow.errors import NotContainedError
from diskflow.expr import boundary_limit, compile_expr, parse
from diskflow.flow import convergence_profile
from diskflow import catalog

GRID = [0.45 * cmath.exp(2j * math.pi * k / 9) for k in range(9)]


def test_mobius_group_law():
    group = MobiusGroup(a=0.7, b=0.3)
    for z in GRID:
        for t, s in ((0.5, 1.25), (2.0, 3.0)):
            left = group.apply(t + s, z)
            right = group.apply(t, group.apply(s, z))
            assert left == pytest.approx(right, abs=1e-12)


def test_mobius_group_generator_consistency():
    # d/dt G_t(z) at t=0 equals -g(z)
    group = MobiusGroup(a=0.4, b=-0.2)
    eps = 1e-6
    for z in GRID:
        fd = (group.apply(eps, z) - z) / eps
        assert fd == pytest.approx(-group.generator(z), abs=1e-5)


def test_parabolic_group_formula():
    # closed form (ibz + t(1-z)) / (ib + t(1-z)) at b=1, t=3
    group = MobiusGroup(a=0.0, b=1.0)
    assert group.apply(3.0, 0j) == pytest.approx(3.0 / (1j + 3.0))
    for z in GRID:
        ref = (1j * z + 3.0 * (1 - z)) / (1j + 3.0 * (1 - z))
        assert group.apply(3.0, z) == pytest.approx(ref, abs=1e-12)


def test_mobius_group_rejects_trivial():
    with pytest.raises(ValueError):
        MobiusGroup(a=0.0, b=0.0)


def test_from_repelling_round_trip():
    for a, b in ((0.3, 0.2), (0.3, -0.2), (0.8, 0.3), (0.4, -0.9), (2.0, 1e-3)):
        group = MobiusGroup.from_repelling(a, MobiusGroup(a, b).eta)
        assert group.a == a
        assert group.b == pytest.approx(b, abs=1e-12)


def test_repelling_point_is_null():
    group = MobiusGroup(a=0.5, b=0.2)
    assert abs(group.generator(group.eta)) < 1e-12
    assert abs(abs(group.eta) - 1.0) < 1e-12


def test_outer_conjugator_automorphism_identity():
    # conjugating i(1-z)^2 with its own group makes psi the identity
    model = linearize(parse("i*(1-z)^2"))
    cert = outer_conjugator(model, 1.0)
    assert cert.residual_sup < 1e-9
    for z in GRID:
        assert cert.map(z) == pytest.approx(z, abs=1e-9)


def test_outer_conjugator_quadrant():
    model = linearize(parse(catalog.get("quadrant").f_text))
    cert = outer_conjugator(model, 2.0)
    assert cert.kind == "outer"
    assert cert.residual_sup < 1e-9


def test_outer_conjugator_cost():
    # counted after the domain stats, which outer_conjugator reads from
    # the model: what is left is the residual, one continuation per point
    model, evals = counted_model(parse(catalog.get("quadrant").f_text))
    planar_domain_stats(model)
    before = evals[0]
    cert = outer_conjugator(model, 2.0)
    assert cert.residual_sup < 1e-9
    assert evals[0] - before <= 2_920


def _record_orbits(monkeypatch):
    # every walk of LinearizationModel.orbit, with the points it yielded
    orbits = []
    orbit = abel.LinearizationModel.orbit

    def recording_orbit(model, z, times):
        points = []
        orbits.append((z, times, points))
        for u in orbit(model, z, times):
            points.append(u)
            yield u

    monkeypatch.setattr(abel.LinearizationModel, "orbit", recording_orbit)
    return orbits


def _residual_orbits(monkeypatch, f, entry_id):
    orbits = _record_orbits(monkeypatch)
    if entry_id == "bfid-hyp":
        phi_ref = compile_expr(parse(catalog.get(entry_id).phi_text))
        group = MobiusGroup.from_repelling(2.0, -1.0 + 0j)
        cert = inner_conjugator(linearize(f), group, phi_ref(0j))
    else:
        cert = outer_conjugator(linearize(f), 2.0)
    monkeypatch.undo()
    assert cert.residual_sup < 1e-9
    assert len(orbits) == len(conjugate.RESIDUAL_GRID)
    assert all(times == conjugate.RESIDUAL_TIMES for _, times, _ in orbits)
    return orbits


def _model_orbits(monkeypatch, f, caller):
    orbits = _record_orbits(monkeypatch)
    model = linearize(f)
    if caller == "profile":
        prof = convergence_profile(f, 0j, horizon=1e6, orbit=model.orbit)
        assert prof.samples[-1][0] > 1e5
    else:
        assert not halfplane_criterion_M(model)["bounded"]
    monkeypatch.undo()
    assert orbits
    return orbits


@pytest.mark.parametrize("entry_id, caller", [
    pytest.param("bfid-hyp", "residual", id="bfid-hyp"),
    pytest.param("quadrant", "residual", id="quadrant"),
    pytest.param("quadrant", "profile", id="quadrant-profile"),
    pytest.param("perturbed-parabolic", "profile", id="perturbed-parabolic-profile"),
    pytest.param("bfid-par", "halfplane-M", id="bfid-par-halfplane-M"),
])
def test_residual_orbits_match_abel_flow(monkeypatch, entry_id, caller):
    # chained orbits: the residual's flow points (t = 5 from t = 1, t = 25
    # from t = 5), the Abel leg of a profile to 1e6 (from its ODE point
    # at 1e4) and the doubling times of halfplane_criterion_M; each point
    # must agree with a fresh abel_flow from its orbit's start
    f = parse(catalog.get(entry_id).f_text)
    if caller == "residual":
        orbits = _residual_orbits(monkeypatch, f, entry_id)
    else:
        orbits = _model_orbits(monkeypatch, f, caller)
    oracle = linearize(f)
    fn = compile_expr(f)
    for start, times, points in orbits:
        # a residual orbit reaches all its times; the others may end early
        for t, point in zip(times, points, strict=caller == "residual"):
            fresh = abel.abel_flow(oracle, start, t)
            if caller == "residual":
                assert abs(point - fresh) <= 1e-12, (start, t)
            else:
                # the rounding floor of _assert_inverts in test_abel,
                # carried to z by |dz| = |f| |dh|
                w = oracle.h(start) + t
                floor = 1e-9 * abs(w) * abs(fn(point)) + 32 * 2.3e-16
                assert abs(point - fresh) <= floor, (start, t)


def test_outer_conjugator_rejects_unbounded_image():
    model = linearize(parse(catalog.get("bfid-par").f_text))
    with pytest.raises(NotContainedError):
        outer_conjugator(model, 1.0)


def test_null_points_polynomial():
    points = find_boundary_null_points(parse("z^2-1"))
    by_zeta = {round(p["zeta"].real): p for p in points}
    assert by_zeta[1]["f_prime"] == pytest.approx(2.0, abs=1e-9)
    assert by_zeta[-1]["f_prime"] == pytest.approx(-2.0, abs=1e-9)


def test_null_points_bfid_hyp():
    points = find_boundary_null_points(parse(catalog.get("bfid-hyp").f_text))
    by_zeta = {round(p["zeta"].real): p for p in points}
    assert by_zeta[1]["f_prime"] == pytest.approx(2.0, abs=1e-6)
    assert by_zeta[-1]["f_prime"] == pytest.approx(-4.0, abs=1e-6)
    assert all(p["regular"] for p in points)


def test_inner_conjugator_matches_closed_form():
    entry = catalog.get("bfid-hyp")
    phi_ref = compile_expr(parse(entry.phi_text))
    group = MobiusGroup.from_repelling(2.0, -1.0 + 0j)
    model, evals = counted_model(parse(entry.f_text))
    cert = inner_conjugator(model, group, phi_ref(0j))
    # the strip rows are probed at their axis point and left end only,
    # chords next to the repelling point -1 stop refining at its roundoff,
    # and each residual orbit is one continuation through t = 1, 5, 25
    assert evals[0] <= 11_250
    assert cert.bfid_type == "h-type"
    assert cert.residual_sup < 1e-9
    for z in GRID:
        assert cert.map(z) == pytest.approx(phi_ref(z), abs=1e-8)


def test_inner_conjugator_cost_next_to_repelling_point():
    a, b = 0.8, 0.3
    model, evals = counted_model(parse(catalog.get(f"hyperbolic-auto({a},{b})").f_text))
    group = MobiusGroup.from_repelling(a, MobiusGroup(a, b).eta)
    cert = inner_conjugator(model, group, 0j)
    assert evals[0] <= 8_350
    assert cert.bfid_type == "h-type"
    assert cert.residual_sup < 1e-9


def _strip_linearizer(a, eta, z):
    # -(1/2a)[Log(1 - z) - Log(1 - conj(eta) z)] at the double z, with both
    # gaps formed exactly before one rounding each
    zr, zi = Fraction(z.real), Fraction(z.imag)
    er, ei = Fraction(eta.real), -Fraction(eta.imag)
    gap = complex(1 - zr, -zi)
    gap_eta = complex(1 - (er * zr - ei * zi), -(er * zi + ei * zr))
    return -(cmath.log(gap) - cmath.log(gap_eta)) / (2 * a)


@pytest.mark.parametrize("a, b", [(0.5, 0.0), (0.3, 0.2)])
def test_strip_row_left_ends(monkeypatch, a, b):
    # the left end of each strip row lies next to the repelling point eta;
    # h is its own group's linearizer there, and no quadrature panel may
    # reach the depth cap
    entry = catalog.get(f"hyperbolic-auto({a:g},{b:g})")
    model = linearize(parse(entry.f_text))
    fn = compile_expr(model.f)
    group = MobiusGroup.from_repelling(a, MobiusGroup(a, b).eta)
    x_back = -min(25.0, 12.0 / a)
    ends, capped = [], []
    walk, refine = conjugate._walk, abel._refine

    def recording_walk(model, z, h_z, targets):
        targets = list(targets)
        for w, point in zip(targets, walk(model, z, h_z, targets)):
            if w.real == x_back:
                ends.append((w, point[0]))
            yield point

    def recording_refine(path, t0, t1, whole, depth):
        if depth >= 12:
            capped.append((t0, t1))
        return refine(path, t0, t1, whole, depth)

    monkeypatch.setattr(conjugate, "_walk", recording_walk)
    monkeypatch.setattr(abel, "_refine", recording_refine)
    cert = inner_conjugator(model, group, 0j)
    assert cert.bfid_type == "h-type"
    assert len(ends) == 3
    assert capped == []
    for w, z in ends:
        # the rounding floor: one ulp of z moves h by about eps |z|/|f(z)|
        floor = 32 * 2.3e-16 * max(1.0, abs(z)) / abs(fn(z))
        assert abs(_strip_linearizer(a, group.eta, z) - w) <= 1e-9 * abs(w) + floor


def test_inner_conjugator_off_centre_strip():
    # k(Delta) for a(z^2-1) + ib(1-z)^2 is centred at Im w = atan2(b, a)/(2a),
    # here 0.98, and the Abel function of the group is its own linearizer
    a, b = 0.3, 0.2
    model = linearize(parse(catalog.get(f"hyperbolic-auto({a},{b})").f_text))
    group = MobiusGroup.from_repelling(a, MobiusGroup(a, b).eta)
    assert group.strip()[0] == pytest.approx(0.98, abs=1e-4)
    cert = inner_conjugator(model, group, 0j)
    assert cert.bfid_type == "h-type"
    assert cert.residual_sup < 1e-9


def test_bfid_report_counts():
    certs = bfid_report(parse(catalog.get("bfid-par").f_text))
    kinds = sorted(c.bfid_type for c in certs)
    assert kinds == ["h-type", "p-type", "p-type"]
    assert all(c.residual_sup < 1e-9 for c in certs)
    gammas = [c.corner_gamma for c in certs if c.bfid_type == "p-type"]
    assert all(g == pytest.approx(0.5, abs=0.05) for g in gammas)


# counted f-evals of bfid_report, and the certificates it finds; each cap
# is the count measured with f evaluated in the gap and h integrated
# from the anchors (bfid-par 29,832, bfid-hyp 9,697, parabolic-auto(1)
# 3,258, perturbed-parabolic 4,495) plus about 10 %
BFID_REPORT_CAPS = {
    "bfid-par": (32_820, ["h-type", "p-type", "p-type"]),
    "bfid-hyp": (10_670, ["h-type"]),
    "parabolic-auto(1)": (3_590, ["p-type"]),
    "perturbed-parabolic": (4_950, ["p-type"]),
}


def test_bfid_report_cost():
    # each half-plane level is probed once, by the certificate's own rows,
    # the corner rungs are one continuation from the base point, each
    # residual orbit is one continuation through t = 1, 5, 25, chained
    # solves carry h from one answer to the next, and each short Newton
    # chord takes the fewest nodes its error bound allows
    for entry_id, (cap, kinds) in BFID_REPORT_CAPS.items():
        model, evals = counted_model(parse(catalog.get(entry_id).f_text))
        certs = bfid_report(model)
        assert sorted(c.bfid_type for c in certs) == kinds, entry_id
        assert evals[0] <= cap, entry_id


def test_halfplane_rows_are_the_only_probe(monkeypatch):
    # each half-plane level is probed by the certificate's own rows, whose
    # left ends lie at Re w = -200; no inversion reaches further left.
    # Every inversion of conjugate (base points, rows, phi, residual
    # orbits, corner rungs) is a walk of _walk
    targets = []
    walk = conjugate._walk

    def recording_walk(model, z, h_z, ws):
        ws = list(ws)
        targets.extend(ws)
        return walk(model, z, h_z, ws)

    monkeypatch.setattr(conjugate, "_walk", recording_walk)
    monkeypatch.setattr(abel, "_walk", recording_walk)  # model.orbit's
    certs = bfid_report(parse(catalog.get("bfid-par").f_text))
    assert sorted(c.bfid_type for c in certs) == ["h-type", "p-type", "p-type"]
    assert min(w.real for w in targets) == -200.0


def test_bfid_report_slow_hyperbolic():
    # for a = 0.05 the backward run from 0 ends at t = -50 short of the
    # exit margin; its last direction is 6.8e-4 from eta, inside the 1e-3
    # that the base-point search allows
    entry = catalog.get("hyperbolic-auto(0.05,1)")
    certs = bfid_report(parse(entry.f_text))
    counts = {kind: sum(c.bfid_type == f"{kind}-type" for c in certs) for kind in "ph"}
    assert counts == entry.truth["bfid_counts"]
    assert all(c.residual_sup < 1e-9 for c in certs)


@pytest.mark.parametrize("a", [20, 40])
def test_bfid_report_fast_hyperbolic(a):
    # the group orbit's gap 1 - G_t(z) decays like e^(-2at) and underflows
    # at the residual times for these a; the group side reads
    # k(G_t z) = k(z) + t and forms no orbit point.  Each gets its one
    # h-type certificate; at a = 40 the flow side's F_1 lies about e^-80
    # from 1, past the deepest gap Newton resolves
    entry = catalog.get(f"hyperbolic-auto({a},0)")
    certs = bfid_report(parse(entry.f_text))
    assert entry.truth["bfid_counts"] == {"p": 0, "h": 1}
    assert [c.bfid_type for c in certs] == ["h-type"]
    assert all(c.residual_sup < 1e-9 for c in certs)


def test_bfid_report_empty_for_quadrant():
    assert bfid_report(parse(catalog.get("quadrant").f_text)) == []


@pytest.mark.parametrize("entry_id, count", [("bfid-par", 2), ("parabolic-auto(1)", 1)])
def test_corner_rungs_carry_h(monkeypatch, entry_id, count):
    # the rungs are one continuation from (base, h(base)), and the
    # certificate already read h(base): no rung integrates h afresh.
    # The abel_h calls made inside corner_opening are counted
    inside, calls = [], []
    corner, abel_h = conjugate.corner_opening, abel.abel_h

    def counted_corner(*args):
        inside.append(True)
        try:
            return corner(*args)
        finally:
            inside.pop()

    def counted_abel_h(f, z):
        if inside:
            calls.append(z)
        return abel_h(f, z)

    monkeypatch.setattr(conjugate, "corner_opening", counted_corner)
    monkeypatch.setattr(abel, "abel_h", counted_abel_h)
    certs = [c for c in bfid_report(parse(catalog.get(entry_id).f_text))
             if c.bfid_type == "p-type"]
    assert len(certs) == count
    assert all(c.corner_gamma is not None for c in certs)
    assert calls == []


def test_corner_opening_automorphism():
    # the p-type domain of the automorphism group opens with gamma = 1
    f = parse("i*(1-z)^2")
    certs = [c for c in bfid_report(f) if c.bfid_type == "p-type"]
    assert len(certs) == 1
    assert certs[0].corner_gamma == pytest.approx(1.0, abs=1e-3)


def test_radial_limit_propagates_bugs():
    # only singular evaluations are skipped; a bug in the callable surfaces
    def broken(z):
        raise TypeError("not a singular evaluation")

    with pytest.raises(TypeError):
        boundary_limit(broken, "radial")
