"""End-to-end reference checks for the library.

Each criterion reproduces one of the documented reference results
(explicit generators with known asymptotics, conjugations, and image
domains) and returns a verdict with a one-line summary.  ``run_all``
executes the whole suite; the ``verify-paper`` CLI verb prints it as a
table.
"""

from __future__ import annotations

import cmath
import functools
import math

from . import catalog
from .geometry import horocycle_distance
from .expr import boundary_limit, compile_expr, parse, validate_generator
from .abel import (
    _h_at_gap,
    abel_flow,
    bloch_norm,
    invert_h,
    linearize,
    visser_ostrovskii,
)
from .flow import _checkpoints, convergence_profile, semigroup_residual
from .classify import classify, halfplane_criterion_M, rigidity_criterion
from .conjugate import (
    MobiusGroup,
    bfid_report,
    inner_conjugator,
)


@functools.cache
def _model(cid: str):
    return linearize(parse(catalog.get(cid).f_text))


@functools.cache
def _profile(cid: str):
    return classify(_model(cid).f)


def _ring(n: int, r: float):
    return [r * cmath.exp(2j * math.pi * (k + 0.3) / n) for k in range(n)]


def _grid20():
    return _ring(10, 0.3) + _ring(10, 0.6)


def _result(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def criterion_1() -> dict:
    """Quadrant-image generator: exponents, flow asymptotics, regime."""
    model = _model("quadrant")
    ok = abs(model.alpha - 0.5) <= 0.005
    arg_mu = cmath.phase(model.mu)
    ok = ok and abs(arg_mu - math.pi / 4) <= 0.01
    # t (1 - F_t)^alpha tends to mu/alpha; with alpha = 1/2 and
    # mu = e^{i pi/4}/sqrt(2) the limit is sqrt(2) e^{i pi/4} = 1 + i
    target = model.mu / model.alpha
    t = 1e6
    val = t * (1.0 - abel_flow(model, 0j, t)) ** 0.5
    dev = abs(val - target)
    ok = ok and dev < 0.04
    prof = convergence_profile(model.f, 0j, horizon=1e6)
    ok = ok and prof.regime == "tangential"
    ok = ok and abs(prof.arg_limit - math.pi / 2) <= 0.02
    detail = (
        f"alpha={model.alpha:.4f}, arg mu={arg_mu:.4f}, "
        f"|t(1-F_t)^0.5 - (1+1i)|={dev:.1e} at t=1e6, "
        f"regime={prof.regime}, arg_limit={prof.arg_limit:.4f}"
    )
    return _result("quadrant asymptotics", ok, detail)


def criterion_2() -> dict:
    """Power-law family: exponent recovery and the admissibility region."""
    ok = True
    parts = []
    for cid, K, mu in (
        ("power(-0.5,1)", -0.5, 1.0 + 0j),
        ("power(0,i)", 0.0, 1j),
        ("power(0.5,1)", 0.5, 1.0 + 0j),
        ("power(1,1)", 1.0, 1.0 + 0j),
    ):
        model = _model(cid)
        a_ok = abs(model.alpha - (K + 1.0)) <= 0.01
        m_ok = abs(model.mu - mu) <= 0.01 * abs(mu)
        ok = ok and a_ok and m_ok
        parts.append(f"{cid}: alpha={model.alpha:.3f} mu_err={abs(model.mu - mu):.1e}")
    mismatches = 0
    for K in (-0.5, 0.0, 0.5, 1.0, 1.5):
        for th in (0.0, 0.5, 1.0, 1.5, 2.0):
            expected = catalog.power_admissible(K, cmath.exp(1j * th))
            f = parse(f"-(1-z)^{K + 2:g}*exp(-i*{th:g})")
            measured = validate_generator(f)["is_generator"]
            if measured != expected:
                mismatches += 1
    ok = ok and mismatches == 0
    detail = "; ".join(parts) + f"; lattice mismatches={mismatches}/25"
    return _result("power family admissibility", ok, detail)


def criterion_3() -> dict:
    """Linearizer functional equation h(F_t) = h + t across the catalog."""
    worst = 0.0
    sampled = 0
    times = (1.0, 10.0, 100.0)
    for cid in catalog.DEFAULT_IDS:
        model = _model(cid)
        fn = compile_expr(model.f)
        for z in _grid20():
            hz = model.h(z)
            # one ODE run from z, landing on each time; a run that
            # stagnates before a time skips it.  h is read at the run's
            # chart point w, at the gap s = log(1 - u) = log 2 - log(w + 1),
            # which keeps what the rounded u = 1 - e^s loses next to 1
            for t, (_, w) in zip(times, _checkpoints(fn, z, times)):
                h_w = _h_at_gap(fn, math.log(2.0) - cmath.log(w + 1.0))
                worst = max(worst, abs(h_w - hz - t))
                sampled += 1
    ok = worst < 1e-7
    total = len(catalog.DEFAULT_IDS) * len(_grid20()) * len(times)
    detail = f"max residual {worst:.1e} over {sampled}/{total} samples"
    return _result("linearizer residual", ok, detail)


def criterion_4() -> dict:
    """Hyperbolic one-parameter group: strip width and Bloch seminorm."""
    model = _model("hyperbolic-auto(0.5,0)")
    stats = model.domain_stats
    width_ok = abs(stats.strip_width - math.pi) <= 0.01
    bn = bloch_norm(model)
    bloch_ok = abs(bn - 2.0) <= 0.01 and 2.0 - 0.01 <= bn <= 4.0 + 0.01
    ok = width_ok and bloch_ok
    detail = f"strip_width={stats.strip_width:.4f}, bloch_norm={bn:.4f}"
    return _result("hyperbolic strip geometry", ok, detail)


def criterion_5() -> dict:
    """bfid-hyp: null points, single h-type domain, conjugator match."""
    entry = catalog.get("bfid-hyp")
    model = _model("bfid-hyp")
    nulls = {}
    for item in model.null_points:
        if item["regular"]:
            nulls[round(item["zeta"].real)] = item["f_prime"]
    d1 = abs(nulls.get(1, 1e9) - 2.0)
    d2 = abs(nulls.get(-1, 1e9) - (-4.0))
    ok = d1 <= 1e-5 and d2 <= 1e-5
    certs = bfid_report(model)
    h_certs = [c for c in certs if c.bfid_type == "h-type"]
    p_certs = [c for c in certs if c.bfid_type == "p-type"]
    ok = ok and len(h_certs) == 1 and len(p_certs) == 0
    res = h_certs[0].residual_sup if h_certs else math.inf
    ok = ok and res < 1e-6
    # rebuild the conjugator from the reference base point so it can be
    # compared against the stored closed form pointwise
    phi_ref = compile_expr(parse(entry.phi_text))
    group = MobiusGroup.from_repelling(2.0, -1.0 + 0j)
    cert = inner_conjugator(model, group, phi_ref(0j))
    phi_dev = max(abs(cert.map(z) - phi_ref(z)) for z in _grid20())
    ok = ok and phi_dev <= 1e-6
    detail = (
        f"|f'(1)-2|={d1:.1e}, |f'(-1)+4|={d2:.1e}, "
        f"certificates h/p={len(h_certs)}/{len(p_certs)}, residual={res:.1e}, "
        f"closed-form dev={phi_dev:.1e}"
    )
    return _result("h-type invariant domain (bfid-hyp)", ok, detail)


def criterion_6() -> dict:
    """bfid-par: exponents, three invariant domains, corner openings."""
    model = _model("bfid-par")
    ok = abs(model.alpha - 2.0) <= 0.02 and abs(model.mu - 1.0) <= 0.01
    certs = bfid_report(model)
    h_certs = [c for c in certs if c.bfid_type == "h-type"]
    p_certs = [c for c in certs if c.bfid_type == "p-type"]
    ok = ok and len(h_certs) == 1 and len(p_certs) == 2
    res = max((c.residual_sup for c in certs), default=math.inf)
    ok = ok and res < 1e-6
    gammas = [c.corner_gamma for c in p_certs]
    ok = ok and all(g is not None and abs(g - 0.5) <= 0.05 for g in gammas)
    mrep = halfplane_criterion_M(model, horizon=1e5)
    ok = ok and not mrep["bounded"] and mrep["max_statistic"] > 1e3
    detail = (
        f"alpha={model.alpha:.3f}, mu_err={abs(model.mu - 1):.1e}, "
        f"certificates h/p={len(h_certs)}/{len(p_certs)}, "
        f"max residual={res:.1e}, gammas={[f'{g:.3f}' for g in gammas if g is not None]}, "
        f"M-statistic={mrep['max_statistic']:.3g}"
    )
    return _result("p- and h-type domains (bfid-par)", ok, detail)


def criterion_7() -> dict:
    """Argument bound |arg mu| <= (pi/2) min(alpha, 2-alpha) + slack."""
    ok = True
    worst_margin = -math.inf
    worst_id = ""
    for cid in catalog.DEFAULT_IDS:
        if cid in ("hyperbolic-auto(0.5,0)", "bfid-hyp"):
            continue
        model = _model(cid)
        bound = (math.pi / 2) * min(model.alpha, 2.0 - model.alpha) + 0.02
        margin = abs(cmath.phase(model.mu)) - bound
        if margin > worst_margin:
            worst_margin = margin
            worst_id = cid
        if margin > 0:
            ok = False
    detail = f"worst margin {worst_margin:+.4f} at {worst_id} (<= 0 required)"
    return _result("parabolic argument bound", ok, detail)


def criterion_8() -> dict:
    """Strong tangency: horocycle levels across the three regimes."""
    model = _model("parabolic-auto(1)")
    prof = convergence_profile(model.f, 0j, horizon=1e6)
    auto_ok = abs(prof.d_limit - 1.0) <= 1e-9 and prof.regime == "strongly-tangential"

    pmodel = _model("perturbed-parabolic")
    pprof = convergence_profile(pmodel.f, 0j, horizon=1e6)
    stats = pmodel.domain_stats
    finite = [v for v in (stats.sup_im, stats.inf_im) if math.isfinite(v)]
    pert_ok = pprof.d_limit > 1e-3 and len(finite) == 1

    # quadrant: d(F_t(0)) shrinks below 1e-3 well before the gap 1-F_t
    # leaves double range; the horocycle level is nonincreasing along
    # trajectories, so the measured bound persists for all later times
    # (in particular t = 1e8); each level is 1/Re w of one run's chart point
    qfn = compile_expr(_model("quadrant").f)
    d_vals = [1.0 / w.real for _, w in _checkpoints(qfn, 0j, (1e2, 1e3, 1e4, 1e5))]
    mono = all(b <= a * 1.05 for a, b in zip(d_vals, d_vals[1:]))
    quad_ok = d_vals[-1] < 1e-3 and mono

    ok = auto_ok and pert_ok and quad_ok
    detail = (
        f"auto d(0)={prof.d_limit:.12f} ({prof.regime}); "
        f"perturbed d(0)={pprof.d_limit:.4f}, finite Im bounds={len(finite)}; "
        f"quadrant d(F_t(0))={d_vals[-1]:.2e} at t=1e5, monotone={mono}"
    )
    return _result("strong tangency suite", ok, detail)


def criterion_9() -> dict:
    """Half-plane rigidity from the cubic coefficient pairing."""
    pprof = _profile("perturbed-parabolic")
    prig = rigidity_criterion(pprof)
    pstats = _model("perturbed-parabolic").domain_stats
    p_re = prig["re_ab"]
    p_ok = (
        p_re <= 1e-9
        and prig["halfplane_predicted"]
        and pstats.half_plane != "none"
    )

    nprof = _profile("no-halfplane")
    nrig = rigidity_criterion(nprof)
    nstats = _model("no-halfplane").domain_stats
    n_re = nrig["re_ab"]
    n_ok = (
        abs(n_re - 0.5) <= 1e-6
        and not nrig["halfplane_predicted"]
        and not math.isfinite(nstats.sup_im)
        and not math.isfinite(nstats.inf_im)
        and nstats.half_plane == "none"
    )
    ok = p_ok and n_ok
    detail = (
        f"perturbed: Re(ab)={p_re:+.2e}, stats={pstats.half_plane}; "
        f"no-halfplane: Re(ab)={n_re:.4f}, bounds infinite={not math.isfinite(nstats.sup_im)}"
    )
    return _result("half-plane rigidity", ok, detail)


def criterion_10() -> dict:
    """Angular-only coefficient: radial limit exists, tangential fails."""
    entry = catalog.get("angular-only(0.5)")
    quotient = parse(f"({entry.f_text})/(1-z)^2.5")
    radial = boundary_limit(quotient, "radial", tol=1e-6)
    tangential = boundary_limit(quotient, "tangential-curve(1)", tol=1e-6)
    ok = (
        radial.converged
        and abs(radial.value - (-1.0)) <= 0.01
        and not tangential.converged
    )
    detail = (
        f"radial limit={radial.value:.4f} (converged={radial.converged}), "
        f"tangential converged={tangential.converged}"
    )
    return _result("angular-only separation", ok, detail)


def _koebe_distance(cid: str, w: complex) -> float:
    """Euclidean distance from w to the boundary of the known image."""
    if cid == "parabolic-auto(1)":
        return w.imag + 0.5
    if cid == "hyperbolic-auto(0.5,0)":
        return math.pi / 2 - abs(w.imag)
    # quadrant: image is exp(i pi/4) * (sector |arg| < pi/4 shifted by -1)
    pre = w * cmath.exp(-1j * math.pi / 4) + 1.0
    rot = cmath.exp(-1j * math.pi / 4)
    return min(abs((pre * rot).imag), abs((pre * rot.conjugate()).imag))


def criterion_11() -> dict:
    """Property suites: algebraic identities and distortion bounds."""
    checks = []

    worst_sg = 0.0
    for cid in ("quadrant", "bfid-hyp", "bfid-par", "parabolic-auto(1)"):
        fn = compile_expr(_model(cid).f)
        for z in (0j, 0.3 - 0.2j):
            worst_sg = max(worst_sg, semigroup_residual(fn, z, 0.7, 1.3))
    checks.append(("semigroup", worst_sg < 1e-8, f"{worst_sg:.1e}"))

    mono_ok = True
    times = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    for cid in ("quadrant", "bfid-par", "parabolic-auto(1)", "hyperbolic-auto(0.5,0)"):
        fn = compile_expr(_model(cid).f)
        for z0 in (0j, 0.3 + 0.4j):
            prev = horocycle_distance(z0)
            for u, _ in _checkpoints(fn, z0, times):
                if 1.0 - abs(u) < 1e-14:
                    break
                d = horocycle_distance(u)
                if d > prev * (1 + 1e-9) + 1e-12:
                    mono_ok = False
                prev = d
    checks.append(("horocycle monotone", mono_ok, str(mono_ok)))

    koebe_ok = True
    for cid in ("parabolic-auto(1)", "hyperbolic-auto(0.5,0)", "quadrant"):
        model = _model(cid)
        for z in _grid20():
            lo = 0.25 * (1 - abs(z) ** 2) * abs(model.h_prime(z))
            hi = (1 - abs(z) ** 2) * abs(model.h_prime(z))
            dist = _koebe_distance(cid, model.h(z))
            if not lo * (1 - 1e-9) <= dist <= hi * (1 + 1e-9):
                koebe_ok = False
    checks.append(("koebe sandwich", koebe_ok, str(koebe_ok)))

    worst_rt = 0.0
    for cid in ("quadrant", "bfid-par", "parabolic-auto(1)",
                "hyperbolic-auto(0.5,0)", "perturbed-parabolic"):
        model = _model(cid)
        for z in _grid20():
            worst_rt = max(worst_rt, abs(invert_h(model, model.h(z)) - z))
    checks.append(("inversion round trip", worst_rt < 1e-10, f"{worst_rt:.1e}"))

    vo_ok = True
    vo_vals = []
    for cid in ("quadrant", "bfid-par", "parabolic-auto(1)"):
        model = _model(cid)
        est = visser_ostrovskii(model)
        vo_vals.append(abs(est.value))
        if not (est.converged and abs(abs(est.value) - 1.0 / model.alpha) <= 0.05):
            vo_ok = False
    checks.append(("visser-ostrovskii", vo_ok,
                   "/".join(f"{v:.3f}" for v in vo_vals)))

    herglotz_ok = True
    for s in (0.5, -0.5, 0.9, -0.9):
        g = parse(f"(1-z)^({s:g})*((1+z)/(1-z))^({s:g})*2^({-s:g})")
        est = boundary_limit(g, "radial", tol=1e-8)
        bound = (math.pi / 2) * (1.0 - abs(s)) + 0.02
        if not (est.converged and abs(cmath.phase(est.value)) <= bound):
            herglotz_ok = False
    checks.append(("herglotz argument bound", herglotz_ok, str(herglotz_ok)))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{n}={d}" if d not in ("True", "False") else f"{n}:{'ok' if p else 'FAIL'}"
                       for n, p, d in checks)
    return _result("property suites", ok, detail)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> dict:
    """Run every criterion; returns {"results": [...], "ok": bool}."""
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        try:
            item = fn()
        except Exception as exc:  # a crashed criterion is a failure, not an abort
            item = _result(fn.__name__, False, f"error: {type(exc).__name__}: {exc}")
        item["index"] = idx
        results.append(item)
    return {"results": results, "ok": all(r["passed"] for r in results)}
