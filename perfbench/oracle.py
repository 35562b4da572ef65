"""Reference values the benchmark grades against, computed without the
code under test.

Closed forms come from the catalog's ``h_text``/``phi_text`` strings and
from textbook formulas written here; they are evaluated with mpmath at
30 digits on the exact double-precision inputs, so a reference is never
limited by the rounding of ``1 - z``.  Nothing in this module calls a
diskflow numerical routine: catalog strings are read as data and parsed
by the small translator below.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 30

EPS = 2.3e-16
# one ulp of z moves h by about eps |z| / |f(z)|; the same floor the
# library uses for its own inversion residuals
FLOOR_ULPS = 32.0
# relative tolerance for h values, inversions and flow points; the
# library's quadrature targets 1e-13, the known defects are >= 1e-6
REL_TOL = 1e-9
# ODE trajectories: the flow identity h(F_t(z)) = h(z) + t may miss by
# ODE_TOL (the linearizer-residual criterion's bound for |t| <= 100) plus
# the integrator's absolute tolerance on the point, carried into h by
# |h'(u)| = 1/|f(u)|; near a boundary null point that term dominates
ODE_TOL = 1e-7
ODE_ATOL_Z = 1e-10
MAX_DIGITS = 17.0

_FUNCS = {"sqrt": mpmath.sqrt, "exp": mpmath.exp, "log": mpmath.log}


def _translate(text: str) -> str:
    """Catalog expression text -> Python source over mpmath names.

    Numbers become the double the library parses them to, so the oracle
    sees the same generator constants as the code under test.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/()":
            out.append(c)
            i += 1
        elif c == "^":
            out.append("**")
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            out.append(f"_num({text[i:j]!r})")
            i = j
        elif c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name == "i":
                out.append("_I")
            elif name == "z" or name in _FUNCS:
                out.append(name)
            else:
                raise ValueError(f"unknown name {name!r} in {text!r}")
            i = j
        else:
            raise ValueError(f"unexpected {c!r} in {text!r}")
    return "".join(out)


def mp_function(text: str):
    """``z -> mpc`` evaluator of a catalog expression string."""
    namespace = dict(_FUNCS, _I=mpmath.mpc(0, 1),
                     _num=lambda s: mpmath.mpf(float(s)))
    body = eval(f"lambda z: {_translate(text)}", namespace)  # noqa: S307

    def call(z):
        return body(to_mp(z))

    call.mp = body  # the same function on mpc arguments
    return call


def to_mp(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def hyperbolic_auto_h(a: float, b: float):
    """Abel function of f = a(z^2-1) + ib(1-z)^2 with h(0) = 0.

    With u = 1 - z, f = -u (2a - (a+ib) u); partial fractions of -1/f
    give h(z) = -(1/2a) [Log(1-z) - Log(1 + (a+ib) z/(a-ib))].  Both
    logarithms have arguments in the right half-plane on the disk.
    """
    a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
    c = mpmath.mpc(a_mp, b_mp) / mpmath.mpc(a_mp, -b_mp)

    def h_mp(z):
        return -(mpmath.log(1 - z) - mpmath.log(1 + c * z)) / (2 * a_mp)

    def h(z):
        return h_mp(to_mp(z))

    h.mp = h_mp
    return h


def bfid_hyp_phi_inverse(phi):
    """Inverse of the catalog's bfid-hyp conjugator
    phi = ((w-1)^2 - 1)/((w-1)^2 + 1), w = sqrt(1 + sqrt((1+z)/(1-z))).

    Re w > 1 on the disk, so w - 1 is the principal root of
    v = (1+phi)/(1-phi); then q = w^2 - 1 and z = (q^2-1)/(q^2+1).
    """
    phi = to_mp(phi)
    v = (1 + phi) / (1 - phi)
    w = 1 + mpmath.sqrt(v)
    q = w * w - 1
    return (q * q - 1) / (q * q + 1)


def floor(f_abs: float, z) -> float:
    """Rounding floor of an h value at z: FLOOR_ULPS eps max(1,|z|)/|f(z)|."""
    if f_abs == 0:
        return math.inf
    return FLOOR_ULPS * EPS * max(1.0, abs(complex(z))) / f_abs


def digits(err: float, scale: float) -> float:
    """-log10 of the relative error, capped at MAX_DIGITS."""
    if scale == 0 or err <= scale * 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return -math.log10(err / scale)
