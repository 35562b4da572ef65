import cmath
import math
import os
import subprocess
import sys

import pytest

import diskflow
from diskflow import catalog
from diskflow.abel import (
    abel_flow,
    abel_h,
    bloch_norm,
    estimate_alpha_mu,
    invert_h,
    linearize,
    planar_domain_stats,
    visser_ostrovskii,
)
from diskflow.errors import NotInClassError
from diskflow.expr import compile_expr, parse
from diskflow.flow import flow_point

GRID = [0.25 * cmath.exp(2j * math.pi * k / 7) for k in range(7)] + [
    0.6 * cmath.exp(2j * math.pi * (k + 0.5) / 5) for k in range(5)
]


RING = [0.9 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
H_TEXT_IDS = [i for i in catalog.DEFAULT_IDS if catalog.get(i).h_text is not None]


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_abel_h_closed_form(entry_id):
    # the catalog's closed form, normalized to h(0) = 0, is an oracle the
    # quadrature did not produce; one ulp of z moves h by about eps/|f(z)|,
    # so that term is the floor invert_h also accepts
    entry = catalog.get(entry_id)
    fn = compile_expr(parse(entry.f_text))
    h_ref = compile_expr(parse(entry.h_text))
    for z in GRID + RING:
        ref = h_ref(z) - h_ref(0j)
        tol = 1e-12 * max(1.0, abs(ref)) + 32 * sys.float_info.epsilon / abs(fn(z))
        assert abs(abel_h(fn, z) - ref) <= tol, z


def test_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(diskflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskflow; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_abel_h_near_boundary_point():
    # the integration path must resolve the argument swing of 1 - z in
    # the final window; check against the closed form at gap 1e-8
    fn = compile_expr(parse("i*(1-z)^2"))
    z = 1 - 1e-8 * cmath.exp(-0.5j)
    assert abel_h(fn, z) == pytest.approx(1j * z / (1 - z), rel=1e-9)


def test_estimate_alpha_mu_quadrant():
    model = linearize(parse("-(1-z)^2*sqrt((1+z)/(1-z))*exp(-i*0.78539816339744831)"))
    assert model.alpha == pytest.approx(0.5, abs=1e-3)
    ref_mu = cmath.exp(0.25j * math.pi) / math.sqrt(2)
    assert model.mu == pytest.approx(ref_mu, abs=1e-6)


def test_estimate_alpha_mu_hyperbolic():
    model = linearize(parse("0.5*(z^2-1)"))
    assert model.alpha == 0.0
    assert model.mu == pytest.approx(1.0, abs=1e-8)
    assert model.mu_class == "Sigma0"


@pytest.mark.parametrize("entry_id, tag", [
    ("angular-only(0.5)", "SigmaAlpha-angular"),  # catalog truth: angular
    ("quadrant", "SigmaAlpha-unrestricted"),
])
def test_estimate_alpha_mu_class_tag(entry_id, tag):
    _, _, got = estimate_alpha_mu(parse(catalog.get(entry_id).f_text))
    assert got == tag


def test_not_in_class_rejected():
    # an elliptic automorphism generator does not fix the boundary point 1
    with pytest.raises(NotInClassError):
        linearize(parse("i*z"))


def test_invert_h_roundtrip():
    for f_text in ("i*(1-z)^2", "-(1-z)^3", "0.5*(z^2-1)"):
        model = linearize(parse(f_text))
        for z in GRID:
            assert invert_h(model, model.h(z)) == pytest.approx(z, abs=1e-11)


def test_abel_flow_matches_ode():
    for f_text in ("i*(1-z)^2", "-(1-z)^2 - 0.5*(1-z)^3"):
        model = linearize(parse(f_text))
        fn = compile_expr(model.f)
        for z0 in (0j, 0.3 - 0.2j):
            for t in (1.0, 7.0):
                assert abel_flow(model, z0, t) == pytest.approx(
                    flow_point(fn, z0, t), abs=1e-9
                )


def test_planar_stats_halfplane():
    model = linearize(parse("i*(1-z)^2"))
    stats = planar_domain_stats(model)
    assert stats.inf_im == pytest.approx(-0.5, abs=1e-3)
    assert math.isinf(stats.sup_im)
    assert stats.half_plane.startswith("above")


def test_planar_stats_strip():
    model = linearize(parse("0.5*(z^2-1)"))
    stats = planar_domain_stats(model)
    assert stats.strip_width == pytest.approx(math.pi, abs=1e-2)


def test_bloch_norm_strip():
    # for the strip of width pi the seminorm peaks at 2
    model = linearize(parse("0.5*(z^2-1)"))
    assert bloch_norm(model) == pytest.approx(2.0, abs=1e-2)


def test_visser_ostrovskii_modulus():
    model = linearize(parse("i*(1-z)^2"))
    est = visser_ostrovskii(model)
    assert est.converged
    assert abs(est.value) == pytest.approx(1.0, abs=1e-3)
