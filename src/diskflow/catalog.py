"""Built-in library of explicit generators with ground-truth metadata.

Each entry stores the generator as parseable text, a closed form for the
Abel function when one exists, and a truth table used as fixtures by the
verification suite.  Parametrized families are instantiated through the
id syntax ``name(arg,...)``, e.g. ``power(0.5,1)`` or
``hyperbolic-auto(0.5,0)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DiskflowError, UnknownCatalogIdError
from .expr import constant_value, parse

PI = math.pi
_EXP_PI4 = "exp(0.78539816339744831*i)"      # e^{i pi/4}
_EXPM_PI4 = "exp(-0.78539816339744831*i)"    # e^{-i pi/4}


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    f_text: str
    h_text: str | None
    truth: dict = field(default_factory=dict)
    phi_text: str | None = None  # closed-form inner conjugator, if known


def _fmt(v) -> str:
    """Render a number as expression text the parser accepts."""
    if isinstance(v, complex) and v.imag != 0:
        re, im = v.real, v.imag
        parts = []
        if re != 0:
            parts.append(repr(re))
        parts.append(f"({repr(im)})*i" if not parts else f"+ ({repr(im)})*i")
        return "(" + " ".join(parts) + ")"
    v = v.real if isinstance(v, complex) else v
    return f"({repr(float(v))})"


def _id_arg(v) -> str:
    """Canonical compact spelling of a numeric id argument."""
    v = complex(v)
    if v.imag == 0:
        return f"{v.real:g}"
    if v == 1j:
        return "i"
    if v == -1j:
        return "-i"
    if v.real == 0:
        return f"{v.imag:g}*i"
    return f"{v.real:g}{v.imag:+g}*i"


def _num(text: str):
    """Evaluate a constant argument such as ``0.5``, ``i``, ``exp(i)``."""
    return constant_value(parse(text))


def power_admissible(K: float, mu: complex) -> bool:
    """f = -(1-z)^{K+2}/mu generates a semigroup iff -1 < K <= 1 and
    |arg mu| <= pi/2 - pi |K|/2.

    The bound comes from Re[mu (1-z)^{-K}] >= 0 on the disk, where
    arg(1-z) sweeps (-pi/2, pi/2); the sweep width depends on |K|, so
    the angular budget shrinks for negative K as well.
    """
    if not -1 < K <= 1 + 1e-12:
        return False
    return abs(cmath.phase(mu)) <= PI / 2 - PI * abs(K) / 2 + 1e-9


def _quadrant() -> CatalogEntry:
    return CatalogEntry(
        id="quadrant",
        f_text=f"-(1-z)^2*sqrt((1+z)/(1-z))*{_EXPM_PI4}",
        h_text=f"{_EXP_PI4}*(sqrt((1+z)/(1-z))-1)",
        truth={
            "beta": 0.0,
            "alpha": 0.5,
            # |mu| = 2^{-1/2}: the sqrt((1+z)/(1-z)) factor contributes
            # sqrt(2) (1-z)^{-1/2} at z = 1, not (1-z)^{-1/2} alone
            "mu": cmath.exp(1j * PI / 4) / math.sqrt(2),
            "regime": "tangential",
            "halfplane": "above",
            "strip_width": None,
            "bfid_counts": {"p": 0, "h": 0},
            "notes": "image of h is a quarter-plane; no strip, no full half-plane",
        },
    )


def _parabolic_auto(b: float) -> CatalogEntry:
    if b == 0:
        raise UnknownCatalogIdError("parabolic-auto needs b != 0")
    return CatalogEntry(
        id=f"parabolic-auto({b:g})",
        f_text=f"i*{_fmt(b)}*(1-z)^2",
        h_text=f"(i/{_fmt(b)})*z/(1-z)",
        truth={
            "beta": 0.0,
            "alpha": 1.0,
            "mu": 1j / b,
            "regime": "strongly-tangential",
            "halfplane": "above" if b > 0 else "below",
            "strip_width": None,
            "bfid_counts": {"p": 1, "h": 0},
            "notes": "Moebius group; image of h is an exact half-plane",
        },
    )


def _hyperbolic_auto(a: float, b: float) -> CatalogEntry:
    if a <= 0:
        raise UnknownCatalogIdError("hyperbolic-auto needs a > 0")
    return CatalogEntry(
        id=f"hyperbolic-auto({a:g},{b:g})",
        f_text=f"{_fmt(a)}*(z^2-1) + i*{_fmt(b)}*(1-z)^2",
        h_text=None,
        truth={
            "beta": 2 * a,
            "alpha": 0.0,
            "mu": 1.0 / (2 * a),
            "regime": "nontangential",
            "halfplane": "above",  # a strip has a finite lower bound too
            "strip_width": PI / (2 * a),
            "bfid_counts": {"p": 0, "h": 1},
            "notes": "Moebius group; image of h is an exact strip",
        },
    )


def _power(K: float, mu: complex) -> CatalogEntry:
    if K == -1:
        raise UnknownCatalogIdError("power needs K != -1")
    alpha = K + 1
    return CatalogEntry(
        id=f"power({K:g},{_id_arg(mu)})",
        f_text=f"-(1-z)^{_fmt(K + 2)}/{_fmt(mu)}",
        h_text=f"{_fmt(mu)}/{_fmt(K + 1)}*((1-z)^{_fmt(-(K + 1))}-1)",
        truth={
            "beta": 0.0,
            "alpha": alpha,
            "mu": complex(mu),
            "regime": None,
            "halfplane": None,
            "strip_width": None,
            "bfid_counts": None,
            "generator": power_admissible(K, complex(mu)),
            "notes": "admissible iff -1 < K <= 1 and |arg mu| <= pi/2 - pi K/2",
        },
    )


def _bfid_hyp() -> CatalogEntry:
    w = "sqrt(1+sqrt((1+z)/(1-z)))"
    return CatalogEntry(
        id="bfid-hyp",
        f_text="-(1-z)^2*(2+sqrt((1+z)/(1-z)))/(1+sqrt((1+z)/(1-z)))*(1+z)/(1-z)",
        h_text=None,
        phi_text=f"(({w}-1)^2-1)/(({w}-1)^2+1)",
        truth={
            "beta": 2.0,
            "alpha": 0.0,
            "mu": 0.5,
            "regime": "nontangential",
            "halfplane": "above",
            "strip_width": PI / 2,
            "bfid_counts": {"p": 0, "h": 1},
            "null_points": {1: 2.0, -1: -4.0},
            "notes": "hyperbolic with one regular repelling null point at -1",
        },
    )


def _bfid_par() -> CatalogEntry:
    # h from the partial fractions of (1+u^2)/(u^3(2-u)) in u = 1-z:
    # 1/u^3 - 1/(2u^2) + 1/(4u) + 1/(4(2-u)) integrated against du = -dz
    return CatalogEntry(
        id="bfid-par",
        f_text="-(1-z)^2*(1-z^2)/(1+z^2)",
        h_text=("0.5*((1-z)^(-2)-1) - 0.5*((1-z)^(-1)-1)"
                " - 0.25*log(1-z) + 0.25*log(1+z)"),
        truth={
            "beta": 0.0,
            "alpha": 2.0,
            "mu": 1.0 + 0j,
            "regime": "nontangential",
            "halfplane": "none",
            "strip_width": None,
            "bfid_counts": {"p": 2, "h": 1},
            "null_points": {1: 0.0, -1: -4.0},
            "notes": "nontangential; two half-planes and a strip inside h(image)",
        },
    )


def _angular_only(beta: float) -> CatalogEntry:
    if not 0 < beta < 1:
        raise UnknownCatalogIdError("angular-only needs 0 < beta < 1")
    return CatalogEntry(
        id=f"angular-only({beta:g})",
        f_text=f"-(1-z)^{_fmt(3 - beta)}*(1-exp(-(1+z)/(1-z)))^{_fmt(beta)}",
        h_text=None,
        truth={
            "beta": 0.0,
            "alpha": 2 - beta,
            "mu": 1.0 + 0j,
            "mu_class": "angular",
            "regime": None,
            "halfplane": None,
            "strip_width": None,
            "bfid_counts": None,
            "notes": "mu exists angularly but oscillates on tangential curves",
        },
    )


def _perturbed_parabolic() -> CatalogEntry:
    return CatalogEntry(
        id="perturbed-parabolic",
        f_text="i*(1-z)^2 - 0.5*(1-z)^3",
        h_text=("i/(1-z) - 0.5*log(1-z) + 0.5*log(i-(1-z)/2)"
                " - i - 0.5*log(i-0.5)"),
        truth={
            "beta": 0.0,
            "alpha": 1.0,
            "mu": 1j,
            "regime": "strongly-tangential",
            "halfplane": "above",
            "strip_width": None,
            "bfid_counts": {"p": 1, "h": 0},
            "taylor": (1j, -0.5),
            "notes": "cubic perturbation keeping Re(conj(a) b) = 0",
        },
    )


def _no_halfplane() -> CatalogEntry:
    return CatalogEntry(
        id="no-halfplane",
        f_text="-(1-z)^2 - 0.5*(1-z)^3",
        h_text=("(1-z)^(-1) + 0.5*log(1-z) - 0.5*log(1+(1-z)/2)"
                " - 1 + 0.5*log(1.5)"),
        truth={
            "beta": 0.0,
            "alpha": 1.0,
            "mu": 1.0 + 0j,
            "regime": "nontangential",
            "halfplane": "none",
            "strip_width": None,
            "bfid_counts": {"p": 0, "h": 0},
            "taylor": (-1.0 + 0j, -0.5 + 0j),
            "notes": "Re(conj(a) b) = 0.5 > 0: both Im bounds of h(image) infinite",
        },
    )


_FAMILIES = {
    "parabolic-auto": (_parabolic_auto, 1),
    "hyperbolic-auto": (_hyperbolic_auto, 2),
    "power": (_power, 2),
    "angular-only": (_angular_only, 1),
}

_FIXED = {
    "quadrant": _quadrant,
    "bfid-hyp": _bfid_hyp,
    "bfid-par": _bfid_par,
    "perturbed-parabolic": _perturbed_parabolic,
    "no-halfplane": _no_halfplane,
}

DEFAULT_IDS = (
    "parabolic-auto(1)",
    "hyperbolic-auto(0.5,0)",
    "quadrant",
    "power(-0.5,1)",
    "power(0,i)",
    "power(0.5,1)",
    "power(1,1)",
    "bfid-hyp",
    "bfid-par",
    "angular-only(0.5)",
    "perturbed-parabolic",
    "no-halfplane",
)


def get(entry_id: str) -> CatalogEntry:
    """Look up an entry; parametrized ids carry arguments in parentheses."""
    entry_id = entry_id.strip()
    if entry_id in _FIXED:
        return _FIXED[entry_id]()
    if "(" in entry_id and entry_id.endswith(")"):
        name, _, rest = entry_id.partition("(")
        name = name.strip()
        if name in _FAMILIES:
            builder, arity = _FAMILIES[name]
            parts = rest[:-1].split(",")
            if len(parts) != arity:
                raise UnknownCatalogIdError(
                    f"{name} takes {arity} argument(s), got {len(parts)}"
                )
            try:
                args = [_num(p) for p in parts]
            except DiskflowError as exc:  # syntax or singular evaluation
                raise UnknownCatalogIdError(
                    f"bad argument in {entry_id!r}: {exc}"
                ) from exc
            args = [a.real if abs(a.imag) < 1e-15 else a for a in args]
            return builder(*args)
    raise UnknownCatalogIdError(f"unknown catalog id {entry_id!r}")


def list_ids() -> tuple:
    return DEFAULT_IDS
