"""Seeded inputs, operations and graders of the three workloads.

A workload is built in three steps.  ``spec(name, seed)`` draws the
generator parameters from the seed without touching diskflow.
``setup(spec)`` parses, compiles and linearizes each generator: the work
that ``setup_s`` times.  ``ops(spec, ctx, index)`` returns pass ``index``
of the operation stream: a list of ``Op`` whose inputs come from the seed
and the pass index only, so the same seed always gives the same stream.

Every output is graded against ``oracle`` as soon as its call returns,
outside the call's timed interval.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("trajectories", "linearizer", "bfid")

# Boundary points sit on a fixed ladder of dyadic gaps |1-z| = 2^-k along
# radial, Stolz-ray and horocycle approaches; the seed picks the ray
# angle and the horocycle side, never the gaps, so every pass has the
# same cost profile.  Horocycle points with k > 26 round onto the
# unit circle (1 - |z| ~ c 2^(-2k-1)), so that ladder stops at 24.
RAY_LADDER = tuple(range(4, 41, 4))
HOROCYCLE_LADDER = tuple(range(4, 25, 4))
# invert_h runs on every other rung and on half the interior points; h
# runs on every point, so the p50 latency falls among the h calls
RAY_INVERT = {"radial": RAY_LADDER[::2], "stolz": RAY_LADDER[1::2]}
HOROCYCLE_INVERT = (8, 20)
# trajectories: instances per seeded family, and how many each pass uses
POOL, POOL_PICK = 8, 3
# bfid: seeded parabolic-auto(b) generators on the conjugation path
CONJUGATE_PARABOLIC = 5


@dataclass
class Op:
    kind: str
    gen: str
    inp: str  # human-readable input, for the failure list
    call: object  # () -> output
    grade: object  # output or exception -> (ok, digits, detail)


@dataclass
class Generator:
    id: str
    f_text: str
    h_text: str | None
    phi_text: str | None
    truth: dict
    params: tuple = ()
    _oracles: dict = field(default_factory=dict, repr=False)

    def f_abs(self, z) -> float:
        if "f" not in self._oracles:
            self._oracles["f"] = oracle.mp_function(self.f_text)
        return abs(complex(self._oracles["f"](z)))

    def h_oracle(self):
        """The reference Abel function (h(0) = 0), evaluated at 30 digits."""
        if "h" not in self._oracles:
            if self.id.startswith("hyperbolic-auto"):
                self._oracles["h"] = oracle.hyperbolic_auto_h(*self.params)
            else:
                self._oracles["h"] = oracle.mp_function(self.h_text)
        return self._oracles["h"]

    def h_ref(self, z) -> complex:
        return complex(self.h_oracle()(z))

    def floor(self, z) -> float:
        return oracle.floor(self.f_abs(z), z)


# --- seeded parameters ---------------------------------------------------------


def _r4(x: float) -> float:
    return round(x, 4)


def _parabolic_id(rng, sign=None) -> str:
    b = _r4(rng.uniform(0.5, 2.0))
    b *= rng.choice((1, -1)) if sign is None else sign
    return f"parabolic-auto({b!r})"


def _hyperbolic_id(rng) -> str:
    # integrating costs milliseconds for any a in [0.3, 1]; bfid_report
    # on this family takes 11 s to 91 s, so only trajectories uses it
    a = _r4(rng.uniform(0.3, 1.0))
    b = _r4(rng.uniform(-1.0, 1.0))
    return f"hyperbolic-auto({a!r},{b!r})"


def _power_id(rng) -> str:
    # admissible: -1 < K <= 1 and |arg mu| <= pi/2 - pi|K|/2
    k = _r4(rng.uniform(-0.5, 1.0))
    budget = 0.8 * (math.pi / 2 - math.pi * abs(k) / 2)
    mu = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-budget, budget))
    return f"power({k!r},{_r4(mu.real)!r}{_r4(mu.imag):+}*i)"


def spec(name: str, seed: int) -> dict:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    sp = {"workload": name, "seed": seed}
    if name == "trajectories":
        # a pool of instances per seeded family; each pass integrates
        # POOL_PICK of them, so one parameter draw does not set the run
        sp["pools"] = [[draw(rng) for _ in range(POOL)]
                       for draw in (_parabolic_id, _hyperbolic_id, _power_id)]
        sp["fixed"] = ["quadrant", "bfid-par", "perturbed-parabolic"]
        sp["ids"] = [cid for pool in sp["pools"] for cid in pool] + sp["fixed"]
    elif name == "linearizer":
        sp["ids"] = [_parabolic_id(rng), _power_id(rng), "quadrant", "bfid-par",
                     "perturbed-parabolic", "no-halfplane"]
    else:
        # a conjugation takes about 1.4 s for b > 0 and 1.0 s for b < 0;
        # fixed signs (+ - + - +) give every seed the same mix, so the
        # seed does not move the p50, which falls among the conjugations
        parabolic = [_parabolic_id(rng, sign=(1, -1)[j % 2])
                     for j in range(CONJUGATE_PARABOLIC)]
        sp["bfid"] = ["bfid-hyp", "bfid-par", parabolic[0], "quadrant", "no-halfplane"]
        # seven `diskflow conjugate` calls of about 1 s, interleaved with
        # the reports, hold the p50: a single call of that length reads
        # 40 % slower or faster with the machine's load
        sp["conjugate"] = parabolic + ["quadrant", "perturbed-parabolic"]
        sp["ids"] = list(dict.fromkeys(sp["bfid"] + sp["conjugate"]))
    return sp


def generator(cid: str) -> Generator:
    """The catalog entry as data; the real arguments of the Moebius
    families are kept for their closed forms."""
    from diskflow import catalog

    entry = catalog.get(cid)
    params = ()
    if cid.startswith(("parabolic-auto", "hyperbolic-auto")):
        params = tuple(float(p) for p in cid[cid.index("(") + 1:-1].split(","))
    return Generator(entry.id, entry.f_text, entry.h_text, entry.phi_text,
                     entry.truth, params)


def setup(sp: dict) -> dict:
    """Parse, compile and linearize the generators: the timed set-up."""
    from diskflow import compile_expr, linearize, parse

    ctx = {}
    for cid in sp["ids"]:
        gen = generator(cid)
        f = parse(gen.f_text)
        ctx[cid] = (gen, f, compile_expr(f), linearize(f))
    return ctx


# --- points -------------------------------------------------------------------


def _interior(rng, radius: float = 0.95) -> complex:
    return radius * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _horocycle(gap: float, level: float, side: int) -> complex:
    # Cayley image c + iy of the horocycle Re = c, placed so |1-z| = gap
    y = side * math.sqrt((2.0 / gap) ** 2 - (level + 1.0) ** 2)
    w = complex(level, y)
    return (w - 1.0) / (w + 1.0)


def boundary_points(rng):
    """(label, z, invert?) along the radial, two Stolz-ray and horocycle ladders."""
    theta = rng.uniform(math.pi / 6, math.pi / 3)
    # horocycle level d = 1, the tangential curve boundary_limit samples;
    # the seed picks the side
    level = 1.0
    side = rng.choice((1, -1))
    out = []
    for k in RAY_LADDER:
        out.append((f"radial k={k}", 1.0 - 2.0 ** -k, k in RAY_INVERT["radial"]))
        for sign in (1, -1):
            out.append((f"stolz({sign * theta:.4f}) k={k}",
                        1.0 - 2.0 ** -k * cmath.exp(1j * sign * theta),
                        k in RAY_INVERT["stolz"]))
    for k in HOROCYCLE_LADDER:
        out.append((f"horocycle(c={level:.4f},{side:+d}) k={k}",
                    _horocycle(2.0 ** -k, level, side), k in HOROCYCLE_INVERT))
    return [p for p in out if abs(p[1]) < 1.0]


# --- graders ------------------------------------------------------------------


def _fmt(z) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


def _err_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _grade_identity(gen: Generator, z0, u, t, ode: bool):
    """h(u) = h(z0) + t against the reference h; the tolerance is the
    rounding floor at both ends plus the relative (and ODE) tolerance."""
    w = gen.h_ref(z0) + t
    err = abs(gen.h_ref(u) - w)
    tol = oracle.REL_TOL * abs(w) + gen.floor(u) + gen.floor(z0)
    if ode:
        tol += oracle.ODE_TOL + oracle.ODE_ATOL_Z / gen.f_abs(u)
    return err <= tol, [oracle.digits(err, max(abs(w), 1.0))], f"|h(u)-h(z0)-t|={err:.3e} tol={tol:.3e}"


def _raised(out):
    return isinstance(out, BaseException)


def grade_trace(gen, z0, t_req):
    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        traj, text = out
        t_end, u = traj.end
        ok, dig, detail = _grade_identity(gen, z0, u, t_end, ode=True)
        rows = text.splitlines()
        csv_ok = rows[0] == "t,re,im,horocycle,gap" and len(rows) == len(traj.samples) + 1
        for row, (t, z) in ((rows[1], traj.samples[0]), (rows[-1], traj.samples[-1])):
            vals = [float(v) for v in row.split(",")]
            csv_ok = csv_ok and vals[:3] == [t, z.real, z.imag] and vals[4] == abs(1 - z)
        if t_end != t_req:
            detail += f"; stopped at t={t_end!r} ({traj.termination})"
        if not csv_ok:
            detail += "; csv rows disagree with the trajectory"
        return ok and csv_ok, dig, detail
    return grade


def grade_profile(gen, z0):
    truth = gen.truth.get("regime")

    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        ok = truth is None or out.regime == truth
        dig = []
        detail = f"regime={out.regime} expected={truth}"
        if gen.id.startswith("parabolic-auto"):
            # automorphism groups preserve horocycles: d(F_t z0) = d(z0)
            z = oracle.to_mp(z0)
            d_ref = float(abs(1 - z) ** 2 / (1 - abs(z) ** 2))
            err = abs(out.d_limit - d_ref)
            ok = ok and err <= 1e-6 * d_ref
            dig.append(oracle.digits(err, d_ref))
            detail += f", |d_limit-d(z0)|={err:.2e}"
        return ok, dig, detail
    return grade


def grade_validate(gen):
    expected = gen.truth.get("generator", True)

    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        return out["is_generator"] == expected, [], f"is_generator={out['is_generator']}"
    return grade


def grade_h(gen, z):
    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        ref = gen.h_ref(z)
        err = abs(complex(out) - ref)
        tol = oracle.REL_TOL * abs(ref) + gen.floor(z)
        return err <= tol, [oracle.digits(err, abs(ref))], f"rel err {err / abs(ref):.2e} tol {tol / abs(ref):.2e}"
    return grade


def grade_invert(gen, w):
    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        err = abs(gen.h_ref(out) - w)
        tol = oracle.REL_TOL * abs(w) + gen.floor(out) + max(1e-12, 1e-15 * abs(w))
        return err <= tol, [oracle.digits(err, abs(w))], f"|h(z)-w|/|w|={err / abs(w):.2e}"
    return grade


def grade_flow(gen, z, t):
    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        return _grade_identity(gen, z, out, t, ode=False)
    return grade


def grade_classify(gen):
    truth = gen.truth

    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        mu_ref = complex(truth["mu"])
        mu_err = abs(out.mu - mu_ref)
        ok = (abs(out.alpha - truth["alpha"]) <= 0.01
              and mu_err <= 0.01 * abs(mu_ref)
              and abs(out.beta - truth["beta"]) <= 1e-6)
        if truth.get("regime") is not None:
            ok = ok and out.regime == truth["regime"]
        detail = (f"alpha={out.alpha:.6g} mu={_fmt(out.mu)} beta={out.beta:.3g} "
                  f"regime={out.regime}")
        return ok, [oracle.digits(mu_err, abs(mu_ref))], detail
    return grade


def _halfplane_level(gen):
    """Exact bound of Im h where the closed form gives it, else None."""
    if gen.id.startswith("parabolic-auto"):
        # h = (i/b) z/(1-z) and Im h = (Re w - 1)/(2b), Re w > 0 (Cayley)
        return -1.0 / (2.0 * gen.params[0])
    if gen.id == "quadrant":
        # h = e^{i pi/4}(sqrt(w) - 1) with |arg sqrt(w)| < pi/4
        return -math.sqrt(0.5)
    return None


def _grade_stats(gen, stats):
    """Half-plane side, exact level where known, and strip width."""
    ok, dig, notes = True, [], []
    side = gen.truth.get("halfplane")
    if side is not None:
        got = stats.half_plane.split("(")[0]
        ok = got == side
        notes.append(f"half_plane={stats.half_plane} expected {side}")
    level = _halfplane_level(gen)
    if level is not None:
        measured = stats.inf_im if side == "above" else stats.sup_im
        err = abs(measured - level) if math.isfinite(measured) else math.inf
        ok = ok and err <= 1e-4 * max(1.0, abs(level))
        dig.append(oracle.digits(err, max(1.0, abs(level))))
        notes.append(f"|bound-{level:.6g}|={err:.2e}")
    width = gen.truth.get("strip_width")
    if width is None:
        ok = ok and math.isinf(stats.strip_width)
    else:
        ok = ok and abs(stats.strip_width - width) <= 0.01
    return ok, dig, notes


def grade_report(gen):
    alpha = gen.truth["alpha"]

    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        stats, bloch, vo = out
        ok, dig, notes = _grade_stats(gen, stats)
        # the Bloch seminorm of h is finite exactly in the strip case alpha = 0
        ok = ok and math.isinf(bloch) == (alpha > 0)
        vo_err = abs(abs(vo.value) - 1.0 / alpha)
        ok = ok and vo_err <= 1e-3 / alpha
        dig.append(oracle.digits(vo_err, 1.0 / alpha))
        notes.append(f"bloch={bloch:.4g} |VO|={abs(vo.value):.6g} expected {1 / alpha:.6g}")
        return ok, dig, "; ".join(notes)
    return grade


_PROBES = (0j, 0.3 + 0.4j, -0.5 + 0j, 0.2 - 0.6j)


def grade_bfid(gen, model):
    counts = gen.truth["bfid_counts"]

    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        got = {"p": sum(c.bfid_type == "p-type" for c in out),
               "h": sum(c.bfid_type == "h-type" for c in out)}
        ok = got == counts
        notes = [f"counts={got} expected {counts}"]
        dig = []
        res = max((c.residual_sup for c in out), default=0.0)
        ok = ok and res < 1e-6
        notes.append(f"max residual_sup={res:.2e}")
        if gen.phi_text is not None:
            phi_ref = oracle.mp_function(gen.phi_text)
            for cert in out:
                if cert.bfid_type != "h-type":
                    continue
                # certificates with another base point differ from the
                # closed form by the group element moving 0 to
                # x0 = phi_ref^-1(base): phi(z) = phi_ref((z+x0)/(1+x0 z))
                x0 = oracle.bfid_hyp_phi_inverse(cert.base_point)
                worst = 0.0
                for z in _PROBES:
                    zm = oracle.to_mp(z)
                    ref = complex(phi_ref((zm + x0) / (1 + x0 * zm)))
                    worst = max(worst, abs(cert.map(z) - ref))
                    dig.append(oracle.digits(abs(cert.map(z) - ref), abs(ref)))
                ok = ok and worst <= 1e-6
                notes.append(f"|phi-phi_ref|={worst:.2e}")
        if gen.id == "bfid-par":
            gammas = [c.corner_gamma for c in out if c.bfid_type == "p-type"]
            ok = ok and all(g is not None and abs(g - 0.5) <= 0.05 for g in gammas)
            dig.extend(oracle.digits(abs(g - 0.5), 0.5) for g in gammas if g is not None)
            notes.append(f"gammas={gammas}")
        return ok, dig, "; ".join(notes)
    return grade


def grade_conjugate(gen):
    def grade(out):
        if _raised(out):
            return False, [], _err_text(out)
        stats, cert = out
        ok, dig, notes = _grade_stats(gen, stats)
        b = cert.group.b
        ok = ok and cert.residual_sup < 1e-6
        worst = 0.0
        for z in _PROBES:
            ref = gen.h_ref(z)
            ref = ref / (1j * b + ref)
            err = abs(cert.map(z) - ref)
            worst = max(worst, err)
            dig.append(oracle.digits(err, max(abs(ref), 1e-300)))
        ok = ok and worst <= 1e-9
        notes.append(f"residual_sup={cert.residual_sup:.2e} |psi-psi_ref|={worst:.2e}")
        return ok, dig, "; ".join(notes)
    return grade


# --- operation streams ----------------------------------------------------------


def _trace(integrate, trajectory_csv, fn, z0, t, gid):
    # what `diskflow trace --csv` does, without the file write
    traj = integrate(fn, z0, t, generator_id=gid)
    return traj, trajectory_csv(traj)


def _report(planar_domain_stats, bloch_norm, visser_ostrovskii, model):
    # what `diskflow linearize` computes
    return planar_domain_stats(model), bloch_norm(model), visser_ostrovskii(model)


def _conjugate(planar_domain_stats, outer_conjugator, model):
    # what `diskflow conjugate` does: stats pick b, then the certificate
    stats = planar_domain_stats(model)
    if math.isfinite(stats.inf_im):
        b = max(-2.0 * stats.inf_im, 0.5)
    else:
        b = min(-2.0 * stats.sup_im, -0.5)
    return stats, outer_conjugator(model, b)


def ops(sp: dict, ctx: dict, index: int) -> list:
    """Pass ``index`` of the workload's operation stream."""
    import diskflow as df
    from diskflow import jsonio

    rng = random.Random(f"{sp['workload']}:{sp['seed']}:pass{index}")
    out = []
    name = sp["workload"]
    if name == "trajectories":
        ids = [cid for pool in sp["pools"] for cid in rng.sample(pool, POOL_PICK)]
        ids += sp["fixed"]
    elif name == "linearizer":
        ids = sp["ids"]
    else:
        ids = sp["bfid"]
    for slot, cid in enumerate(ids):
        gen, f, fn, model = ctx[cid]
        gid = gen.id
        if name != "bfid":
            # on bfid, six sub-millisecond validations among twelve
            # calls would pull the p50 down to them
            out.append(Op("validate", gid, "grid 24", lambda f=f: df.validate_generator(f),
                          grade_validate(gen)))
        if name == "trajectories":
            for j in range(6):
                z0 = _interior(rng)
                t = 10.0 ** rng.uniform(0.0, 2.0) if j % 2 == 0 else -rng.uniform(1.0, 20.0)
                out.append(Op("trace", gid, f"z0={_fmt(z0)} t={t!r}",
                              lambda z0=z0, t=t, fn=fn, gid=gid: _trace(
                                  df.integrate, jsonio.trajectory_csv, fn, z0, t, gid),
                              grade_trace(gen, z0, t)))
            z0 = _interior(rng)
            out.append(Op("profile", gid, f"z0={_fmt(z0)} horizon=1e4",
                          lambda z0=z0, fn=fn: df.convergence_profile(fn, z0, horizon=1e4),
                          grade_profile(gen, z0)))
        elif name == "linearizer":
            points = [("interior", _interior(rng), j < 4) for j in range(8)]
            points += boundary_points(rng)
            for label, z, invert in points:
                out.append(Op("h", gid, f"{label} z={_fmt(z)}",
                              lambda z=z, m=model: m.h(z), grade_h(gen, z)))
                if not invert:
                    continue
                w = gen.h_ref(z)
                out.append(Op("invert", gid, f"{label} w=h_ref({_fmt(z)})",
                              lambda w=w, m=model: df.invert_h(m, w), grade_invert(gen, w)))
            for _ in range(3):
                z = _interior(rng)
                t = 10.0 ** rng.uniform(0.0, 6.0)
                out.append(Op("flow", gid, f"z={_fmt(z)} t={t!r}",
                              lambda z=z, t=t, m=model: df.abel_flow(m, z, t),
                              grade_flow(gen, z, t)))
            out.append(Op("classify", gid, "horizon=1e6", lambda f=f: df.classify(f),
                          grade_classify(gen)))
            out.append(Op("report", gid, "planar_domain_stats+bloch+VO",
                          lambda m=model: _report(df.planar_domain_stats, df.bloch_norm,
                                                  df.visser_ostrovskii, m),
                          grade_report(gen)))
        else:
            out.append(Op("bfid", gid, "samples=256", lambda f=f: df.bfid_report(f),
                          grade_bfid(gen, model)))
            # two conjugations after each report, so they sample the
            # whole pass rather than one stretch of it
            for cid2 in sp["conjugate"][2 * slot:2 * slot + 2]:
                gen2, _, _, model2 = ctx[cid2]
                out.append(Op("conjugate", gen2.id, "planar_domain_stats+outer_conjugator",
                              lambda m=model2: _conjugate(df.planar_domain_stats,
                                                          df.outer_conjugator, m),
                              grade_conjugate(gen2)))
    return out


# --- self-check -------------------------------------------------------------------


def _planted(kind: str, out):
    """A wrong answer of the same shape as ``out``, or None."""
    if kind == "trace":
        import dataclasses

        traj, text = out
        t, u = traj.samples[-1]
        bad = traj.samples[:-1] + ((t, u + 1e-6 * (1.0 - u)),)
        return dataclasses.replace(traj, samples=bad), text
    if kind in ("h", "invert"):
        return complex(out) * (1.0 + 1e-6) if kind == "h" else out + 1e-6 * (1.0 - out)
    if kind == "bfid" and out:
        return out[:-1]
    return None


def planted_wrong_answer_flagged(op, out):
    """Grade a corrupted copy of ``out``: True when the grader rejects it,
    None when nothing can be planted in this output."""
    if isinstance(out, BaseException):
        return None
    bad = _planted(op.kind, out)
    if bad is None:
        return None
    return not op.grade(bad)[0]
