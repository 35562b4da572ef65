import cmath
import math

import pytest

from diskflow.abel import linearize
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
    f = parse(entry.f_text)
    phi_ref = compile_expr(parse(entry.phi_text))
    group = MobiusGroup.from_repelling(2.0, -1.0 + 0j)
    cert = inner_conjugator(linearize(f), group, phi_ref(0j))
    assert cert.bfid_type == "h-type"
    assert cert.residual_sup < 1e-9
    for z in GRID:
        assert cert.map(z) == pytest.approx(phi_ref(z), abs=1e-8)


def test_bfid_report_counts():
    certs = bfid_report(parse(catalog.get("bfid-par").f_text))
    kinds = sorted(c.bfid_type for c in certs)
    assert kinds == ["h-type", "p-type", "p-type"]
    assert all(c.residual_sup < 1e-9 for c in certs)
    gammas = [c.corner_gamma for c in certs if c.bfid_type == "p-type"]
    assert all(g == pytest.approx(0.5, abs=0.05) for g in gammas)


def test_bfid_report_empty_for_quadrant():
    assert bfid_report(parse(catalog.get("quadrant").f_text)) == []


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
