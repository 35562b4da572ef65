"""Command line front end: JSON reports, CSV trajectories, SVG portraits."""

from __future__ import annotations

import argparse
import math
import sys

from . import catalog, jsonio
from .abel import (
    bloch_norm,
    linearize,
    planar_domain_stats,
    visser_ostrovskii,
)
from .classify import (
    classify,
    halfplane_criterion_M,
    rigidity_criterion,
    tangency_criterion,
    theorem_argument_bound,
)
from .conjugate import bfid_report, outer_conjugator
from .errors import (DiskflowError, ExpressionSyntaxError, NotContainedError,
                     UnknownCatalogIdError)
from .expr import compile_expr, parse, validate_generator
from .flow import integrate


class _ConfigError(Exception):
    pass


def _parse_z0(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise _ConfigError(f"cannot parse --z0 {text!r}: expected re,im") from exc


def _resolve_f(args):
    """The generator expression and a label for reports."""
    if args.catalog:
        entry = catalog.get(args.catalog)
        return parse(entry.f_text), entry.id
    if args.f:
        return parse(args.f), args.f
    raise _ConfigError("one of --f or --catalog is required")


def _emit(args, report) -> None:
    if args.json:
        jsonio.write_json(args.json, report)
    else:
        sys.stdout.write(jsonio.dumps(report))


def _maybe_svg(args, fn, trajectories=(), bfid_maps=()) -> None:
    if args.svg:
        svg = jsonio.render_phase_portrait(
            fn, trajectories=trajectories, bfid_maps=bfid_maps,
            grid_density=args.seed_grid,
        )
        jsonio.write_svg(args.svg, svg)


def _cmd_validate(args) -> int:
    f, label = _resolve_f(args)
    report = validate_generator(f)
    _emit(args, {
        "source": label,
        "is_generator": report["is_generator"],
        "min_re_p": report["min_re_p"],
        "witness": report["witness"],
        "skipped": report["skipped"],
    })
    return 0


def _criteria_block(profile):
    block = {}
    if profile.type == "parabolic":
        tc = tangency_criterion(profile)
        block["tangency"] = {
            "verdict": tc["tangential_expected"],
            "margin": tc["margin"],
        }
        bound = theorem_argument_bound(profile)
        block["theorem12_bound"] = {
            "verdict": bound["holds"],
            "margin": bound["margin"],
        }
        if profile.taylor_a is not None and profile.taylor_b is not None:
            rc = rigidity_criterion(profile)
            block["rigidity"] = {
                "verdict": rc["halfplane_predicted"],
                "automorphism_group": rc["is_automorphism_group"],
                "margin": rc["re_ab"],
            }
    return block


def _cmd_classify(args) -> int:
    f, label = _resolve_f(args)
    profile = classify(f, horizon=args.horizon)
    criteria = _criteria_block(profile)
    if profile.type == "parabolic" and 0 < profile.alpha <= 2:
        m = halfplane_criterion_M(profile.model, horizon=min(args.horizon, 1e5))
        criteria["halfplane_M"] = {
            "verdict": m["bounded"],
            "margin": m["max_statistic"],
            "inconclusive": m["inconclusive"],
        }
    _emit(args, {
        "source": label,
        "beta": profile.beta,
        "type": profile.type,
        "alpha": profile.alpha,
        "mu": profile.mu,
        "a": profile.a,
        "regime": profile.regime,
        "taylor_a": profile.taylor_a,
        "taylor_b": profile.taylor_b,
        "criteria": criteria,
    })
    _maybe_svg(args, compile_expr(f))
    return 0


def _cmd_trace(args) -> int:
    f, label = _resolve_f(args)
    fn = compile_expr(f)
    traj = integrate(fn, _parse_z0(args.z0), args.t, generator_id=label,
                     atol=args.tol)
    t_end, z_end = traj.end
    if args.csv:
        jsonio.write_csv(args.csv, traj)
    _maybe_svg(args, fn, trajectories=[traj])
    _emit(args, {
        "source": label,
        "z0": _parse_z0(args.z0),
        "t": t_end,
        "end": z_end,
        "termination": traj.termination,
        "samples": len(traj.samples),
    })
    return 0


def _cmd_linearize(args) -> int:
    f, label = _resolve_f(args)
    model = linearize(f)
    stats = planar_domain_stats(model)
    vo = visser_ostrovskii(model)
    _emit(args, {
        "source": label,
        "alpha": model.alpha,
        "mu": model.mu,
        "mu_class": model.mu_class,
        "strip_width": stats.strip_width,
        "sup_im": stats.sup_im,
        "inf_im": stats.inf_im,
        "half_plane": stats.half_plane,
        "bloch_norm": bloch_norm(model),
        "visser_ostrovskii": {
            "value": vo.value,
            "modulus": abs(vo.value),
            "converged": vo.converged,
        },
    })
    return 0


def _cmd_conjugate(args) -> int:
    f, label = _resolve_f(args)
    model = linearize(f)
    if model.alpha <= 0:
        raise _ConfigError(
            "outer conjugation targets a parabolic group; "
            "the supplied generator is hyperbolic"
        )
    stats = planar_domain_stats(model)
    if math.isfinite(stats.inf_im):
        b = max(-2.0 * stats.inf_im, 0.5)
    elif math.isfinite(stats.sup_im):
        b = min(-2.0 * stats.sup_im, -0.5)
    else:
        raise NotContainedError(
            "the image of the Abel function is not contained in any "
            "horizontal half-plane; no outer conjugation exists"
        )
    cert = outer_conjugator(model, b)
    _emit(args, {
        "source": label,
        "kind": cert.kind,
        "group": {"a": cert.group.a, "b": cert.group.b, "eta": cert.group.eta},
        "residual_sup": cert.residual_sup,
        "psi_at_0": cert.map(0j),
    })
    return 0


def _cmd_bfid(args) -> int:
    f, label = _resolve_f(args)
    certs = bfid_report(f)
    _maybe_svg(args, compile_expr(f), bfid_maps=[c.map for c in certs])
    _emit(args, {
        "source": label,
        "count": len(certs),
        "certificates": [
            {
                "bfid_type": c.bfid_type,
                "group": {"a": c.group.a, "b": c.group.b, "eta": c.group.eta},
                "base_point": c.base_point,
                "residual_sup": c.residual_sup,
                "corner_gamma": c.corner_gamma,
            }
            for c in certs
        ],
    })
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(args, {"ids": list(catalog.list_ids())})
        return 0
    if args.action == "show":
        if not args.id:
            raise _ConfigError("catalog show requires an id")
        entry = catalog.get(args.id)
        _emit(args, {
            "id": entry.id,
            "f_text": entry.f_text,
            "h_text": entry.h_text,
            "phi_text": entry.phi_text,
            "truth": entry.truth,
        })
        return 0
    raise _ConfigError(f"unknown catalog action {args.action!r}")


def _cmd_verify_paper(args) -> int:
    from .verification import run_all  # the suite loads only for this verb
    report = run_all()
    for item in report["results"]:
        mark = "PASS" if item["passed"] else "FAIL"
        print(f"[{mark}] {item['index']:2d} {item['name']}: {item['detail']}")
    print("overall:", "PASS" if report["ok"] else "FAIL")
    if args.json:
        jsonio.write_json(args.json, report)
    return 0 if report["ok"] else 1


def _add_svg(sub) -> None:
    sub.add_argument("--svg", help="write an SVG phase portrait to this path")
    sub.add_argument("--seed-grid", type=int, default=10,
                     help="polar grid density for the SVG vector field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="semigroups of holomorphic self-maps of the unit disk",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand declares only the flags it reads
    cmds = {}
    for name, fn in (
        ("validate", _cmd_validate),
        ("classify", _cmd_classify),
        ("trace", _cmd_trace),
        ("linearize", _cmd_linearize),
        ("conjugate", _cmd_conjugate),
        ("bfid", _cmd_bfid),
    ):
        sub = cmds[name] = subs.add_parser(name)
        sub.add_argument("--f", help="generator expression in z")
        sub.add_argument("--catalog", help="catalog entry id")
        sub.add_argument("--json", help="write the JSON report to this path")
        sub.set_defaults(handler=fn)
    cmds["classify"].add_argument("--horizon", type=float, default=1e6)
    trace = cmds["trace"]
    trace.add_argument("--z0", default="0,0", help="start point as re,im")
    trace.add_argument("--t", type=float, default=10.0)
    trace.add_argument("--tol", type=float, default=1e-12)
    trace.add_argument("--csv", help="write the trajectory CSV to this path")
    for name in ("classify", "trace", "bfid"):
        _add_svg(cmds[name])
    cat = subs.add_parser("catalog")
    cat.add_argument("action", choices=("list", "show"))
    cat.add_argument("id", nargs="?")
    cat.add_argument("--json")
    cat.set_defaults(handler=_cmd_catalog)
    ver = subs.add_parser("verify-paper")
    ver.add_argument("--json")
    ver.set_defaults(handler=_cmd_verify_paper)
    return parser


_VALUE_FLAGS = ("--f", "--catalog", "--z0", "--json", "--csv", "--svg")


def _join_flag_values(argv):
    """Fold ``--f <expr>`` into ``--f=<expr>`` so expressions starting
    with a minus sign are not mistaken for option names."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            value = next(it, None)
            if value is None:
                out.append(tok)
            else:
                out.append(f"{tok}={value}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_flag_values(argv))
    try:
        return args.handler(args)
    except (_ConfigError, ExpressionSyntaxError, UnknownCatalogIdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiskflowError as exc:
        sys.stdout.write(jsonio.dumps({
            "error": type(exc).__name__,
            "code": exc.code,
            "message": str(exc),
            "context": exc.context,
        }))
        return 3


if __name__ == "__main__":
    sys.exit(main())
