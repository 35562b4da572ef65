"""Sequence acceleration used by every limit estimator in the package,
plus the one golden-section search.

The samplers in this package produce values along geometric schedules
(z_k = 1 - 2^-k e^{i theta}, t_k = t0 * 2^k, ...), so the raw sequences
behave like  s_k = L + c q^k  with an unknown ratio q.  A single Aitken
delta-squared pass removes the leading term; convergence is declared when
three consecutive accelerated values agree within the tolerance.
Divergence is decided before any acceleration, from the raw differences
(Brezinski & Redivo Zaglia, *Extrapolation Methods*, 1991): Aitken maps
a geometrically growing ladder to its finite antilimit.
"""

from __future__ import annotations

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def aitken(seq):
    """One delta-squared pass over a sequence of complex numbers."""
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        denom = c - 2 * b + a
        if abs(denom) < 1e-300:
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / denom)
    return out


def _settled(window, bound) -> bool:
    """Whether the three values of ``window`` lie within
    ``bound * max(1, |last|)`` of the last one."""
    a, b, c = window
    return max(abs(a - c), abs(b - c)) <= bound * max(1.0, abs(c))


def sequence_limit(seq, tol=1e-6):
    """Estimate the limit of ``seq``; returns ``(value, converged)``.

    Scans the accelerated sequence for the first window of three
    consecutive values that agree within ``tol``.  Falls back to the
    plain sequence when it settles on its own (constant tails defeat
    Aitken because the denominator degenerates).
    """
    seq = list(seq)
    n = len(seq)
    if n == 0:
        return 0j, False
    if n < 4:
        return seq[-1], False

    # Constant tail short-circuit: noise-level differences would only be
    # amplified by acceleration.  Then the accelerated values, and last
    # the raw sequence itself at the tolerance.
    acc = aitken(seq)
    for values, bound in ((seq, 1e-13), (acc, tol), (seq, tol)):
        for i in range(2, len(values)):
            if _settled(values[i - 2 : i + 1], bound):
                return values[i], True
    return acc[-1], False


def ladder_limit(samples, tol=1e-6):
    """Limit of the rung values ``samples`` (consumed in order) as
    ``(value, converged, infinite)``.

    The ladder is infinite when, before a window that :func:`sequence_limit`
    accepts has closed, four differences in a row are above noise
    (|d| > 1e-10 max(1, |s|)) and none shrinks (|d_{k+1}| >= 0.99 |d_k|):
    growth like 2^(alpha k) or like k, at any scale.  Sampling stops at
    that rung, and ``value`` is its sample.  Any other ladder is consumed
    to the end and its limit is :func:`sequence_limit`'s (nan when empty),
    so roundoff that grows after the ladder has settled does not count.
    """
    seq, acc, settled, run, last = [], [], False, 0, 0.0
    for s in samples:
        seq.append(s)
        if settled or len(seq) < 2:
            continue
        d = abs(s - seq[-2])
        above_noise = d > 1e-10 * max(1.0, abs(s))
        run = (run + 1 if run and d >= 0.99 * last else 1) if above_noise else 0
        last = d
        if run == 4:
            return s, False, True
        # the newest raw and accelerated windows, as sequence_limit tests them
        acc += aitken(seq[-3:])
        settled = any(
            len(w) == 3 and _settled(w, b)
            for w, b in ((seq[-3:], max(tol, 1e-13)), (acc[-3:], tol))
        )
    if not seq:
        return complex(math.nan), False, False
    return (*sequence_limit(seq, tol), False)


def golden_min(g, lo: float, hi: float, iters: int):
    """Golden-section search for a minimum of g on the bracket between
    ``lo`` and ``hi`` (either order; on ties the bracket keeps its ``hi``
    end).  Returns ``(midpoint of the final bracket, smallest value at
    its two inner points)``.
    """
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = g(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = g(d)
    return (lo + hi) / 2, min(fc, fd)
