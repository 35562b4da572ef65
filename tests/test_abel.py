import cmath
import inspect
import math
import os
import re
import subprocess
import sys

import pytest

import diskflow
from diskflow import catalog
from diskflow.abel import (
    _GL_NODES,
    _GL_WEIGHTS,
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


def _ladder(gap):
    # the gaps 1 - z of the radial, Stolz +-pi/3 and level-1 horocycle
    # (|1 - z|^2 = 1 - |z|^2, i.e. cos arg(1 - z) = |1 - z|) approaches
    yield gap
    yield gap * cmath.exp(1j * math.pi / 3)
    yield gap * cmath.exp(-1j * math.pi / 3)
    if gap >= 2.0**-24:
        yield gap * complex(gap, math.sqrt(1.0 - gap * gap))
        yield gap * complex(gap, -math.sqrt(1.0 - gap * gap))


LADDER = [1.0 - g for k in range(4, 41, 4) for g in _ladder(2.0**-k)]
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


def _mp_eval(mpmath, text, z):
    """Printed expression text evaluated by mpmath, with every number
    read as the double the parser makes of it (``^`` becomes ``**``)."""
    source = _NUMBER.sub(lambda m: f"_n({m.group()!r})", text).replace("^", "**")
    namespace = {
        "_n": lambda s: mpmath.mpf(float(s)),
        "z": mpmath.mpc(z),
        "i": mpmath.mpc(0, 1),
        "sqrt": mpmath.sqrt,
        "exp": mpmath.exp,
        "log": mpmath.log,
        "__builtins__": {},
    }
    return eval(source, namespace)  # noqa: S307 - catalog text


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_abel_h_closed_form(entry_id):
    # the catalog's closed form, normalized to h(0) = 0 and evaluated by
    # mpmath at 30 digits on the exact double z, is an oracle the
    # quadrature did not produce; one ulp of z moves h by about
    # eps/|f(z)|, so that term is the floor invert_h also accepts
    mpmath = pytest.importorskip("mpmath")
    entry = catalog.get(entry_id)
    fn = compile_expr(parse(entry.f_text))
    evals = 0

    def counted(z):
        nonlocal evals
        evals += 1
        return fn(z)

    with mpmath.workdps(30):
        h0 = _mp_eval(mpmath, entry.h_text, 0j)
        for z in GRID + RING + LADDER:
            ref = complex(_mp_eval(mpmath, entry.h_text, z) - h0)
            tol = 1e-12 * max(1.0, abs(ref)) + 32 * sys.float_info.epsilon / abs(fn(z))
            evals = 0
            assert abs(abel_h(counted, z) - ref) <= tol, z
            # one log-gap segment resolves every approach in a few panels
            assert evals <= 320, z


def test_gauss_legendre_table():
    # the stored floats against 30-digit roots of P_16 and the weights
    # 2 / ((1 - x^2) P_16'(x)^2)
    mpmath = pytest.importorskip("mpmath")
    assert len(_GL_NODES) == len(_GL_WEIGHTS) == 16
    assert list(_GL_NODES) == sorted(_GL_NODES)
    with mpmath.workdps(30):
        p16 = lambda x: mpmath.legendre(16, x)  # noqa: E731
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            root = mpmath.findroot(p16, mpmath.mpf(x))
            weight = 2 / ((1 - root**2) * mpmath.diff(p16, root) ** 2)
            assert abs(x - root) <= 2 * sys.float_info.epsilon
            assert abs(w - weight) <= 2 * sys.float_info.epsilon


def test_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(diskflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskflow; print([m for m in ('scipy', 'numpy') if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


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
    for f_text in (
        # an elliptic automorphism generator does not fix the boundary point 1
        "i*z",
        # h' grows like a power times a log: the growth slope creeps
        # toward 2 like 1/log and never settles on a power law
        "-(1-z)^2/(1-0.5*log(1-z))",
        "-(1-z)^2*(1-0.5*log(1-z))",
    ):
        with pytest.raises(NotInClassError):
            linearize(parse(f_text))


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


def test_planar_stats_computed_once_per_model():
    model = linearize(parse("i*(1-z)^2"))
    first = planar_domain_stats(model)
    assert planar_domain_stats(model) is first
    assert model.domain_stats is first
    # cache slots, not constructor arguments, and not compared
    params = inspect.signature(type(model)).parameters
    assert "domain_stats" not in params and "h_cache" not in params
    other = linearize(parse("i*(1-z)^2"))
    assert model == other
    model.h(0.3)
    assert model == other


def test_planar_stats_strip():
    model = linearize(parse("0.5*(z^2-1)"))
    stats = planar_domain_stats(model)
    assert stats.strip_width == pytest.approx(math.pi, abs=1e-2)


def test_bloch_norm_strip():
    # for the strip of width pi the seminorm peaks at 2
    model = linearize(parse("0.5*(z^2-1)"))
    assert bloch_norm(model) == pytest.approx(2.0, abs=1e-2)


@pytest.mark.parametrize("entry_id", H_TEXT_IDS)
def test_visser_ostrovskii_modulus(entry_id):
    # h/((z-1)h') -> -1/alpha on every entry with a closed-form h (alpha > 0)
    model = linearize(parse(catalog.get(entry_id).f_text))
    assert model.alpha > 0
    est = visser_ostrovskii(model)
    assert est.converged
    assert abs(est.value + 1.0 / model.alpha) <= 1e-6 / model.alpha
