"""Deterministic serialization: JSON reports, CSV trajectories, and SVG
phase portraits.

All floating-point output is formatted to 17 significant digits so that
identical inputs produce byte-identical artifacts; infinities become the
strings "inf"/"-inf".
"""

from __future__ import annotations

import cmath
import math

from .errors import DiskflowError


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    out = format(v, ".17g")
    return out


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return _emit({"re": obj.real, "im": obj.imag}, indent, level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{_escape(str(k))}": {_emit(v, indent, level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _emit(obj, indent, 0) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def trajectory_csv(trajectory) -> str:
    """CSV text with columns t, re, im, horocycle, gap."""
    lines = ["t,re,im,horocycle,gap"]
    for row in trajectory.csv_rows():
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, trajectory) -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_csv(trajectory))


# --- SVG phase portrait ------------------------------------------------------

_SVG_SIZE = 640
_ARROW_CLIP = 0.08  # max arrow length in disk radii


def _xy(z: complex) -> tuple:
    # disk coordinates to SVG pixels, y axis flipped
    s = _SVG_SIZE / 2.4
    return (_SVG_SIZE / 2 + z.real * s, _SVG_SIZE / 2 - z.imag * s)


def _polyline(points, color: str, width: float, dashed: bool = False) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline points="{coords}" fill="none" stroke="{color}"'
            f' stroke-width="{width}"{dash}/>')


def _arrow(z: complex, v: complex) -> str:
    length = abs(v)
    if length < 1e-12:
        return ""
    if length > _ARROW_CLIP:
        v *= _ARROW_CLIP / length
    tip = z + v
    x0, y0 = _xy(z)
    x1, y1 = _xy(tip)
    # two short head strokes at +-25 degrees from the reversed direction
    head = 0.3 * abs(v)
    back = -v / abs(v) * head
    h1 = tip + back * cmath.exp(0.45j)
    h2 = tip + back * cmath.exp(-0.45j)
    hx1, hy1 = _xy(h1)
    hx2, hy2 = _xy(h2)
    return (f'<path d="M {x0:.2f} {y0:.2f} L {x1:.2f} {y1:.2f} '
            f'M {hx1:.2f} {hy1:.2f} L {x1:.2f} {y1:.2f} L {hx2:.2f} {hy2:.2f}"'
            f' stroke="#555" stroke-width="1" fill="none"/>')


def _chebyshev_nodes(n: int) -> list:
    # radial Chebyshev spacing clusters arrows toward the boundary where
    # the field degenerates
    nodes = []
    for j in range(1, n + 1):
        r = math.cos(math.pi * (2 * j - 1) / (4 * n))
        count = max(8, int(2 * math.pi * r * n / 2))
        for k in range(count):
            theta = 2 * math.pi * (k + 0.5 * (j % 2)) / count
            nodes.append(r * cmath.exp(1j * theta))
    return nodes


def render_phase_portrait(f, trajectories=(), bfid_maps=(), grid_density: int = 10) -> str:
    """SVG of the vector field -f (flow direction), the unit circle,
    trajectory polylines, and approximate BFID boundaries (images of a
    near-boundary circle under each inner conjugator)."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}"'
        f' height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    cx, cy = _xy(0j)
    r_pix = _xy(1.0 + 0j)[0] - cx
    parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r_pix:.2f}"'
                 ' fill="none" stroke="black" stroke-width="1.5"/>')
    for z in _chebyshev_nodes(grid_density):
        try:
            v = -f(z)
        except DiskflowError:
            continue
        if not (v == v):  # nan
            continue
        scale = 0.5 / grid_density
        arrow = _arrow(z, v * scale / max(abs(v) * scale / _ARROW_CLIP, 1.0)
                       if abs(v) > 0 else 0j)
        if arrow:
            parts.append(arrow)
    for traj in trajectories:
        pts = [_xy(z) for _, z in traj.samples]
        if len(pts) >= 2:
            parts.append(_polyline(pts, "#c03", 1.6))
    for phi in bfid_maps:
        pts = []
        for k in range(97):
            z = 0.985 * cmath.exp(2j * math.pi * k / 96)
            try:
                pts.append(_xy(phi(z)))
            except DiskflowError:
                if len(pts) >= 2:
                    parts.append(_polyline(pts, "#06a", 1.2, dashed=True))
                pts = []
        if len(pts) >= 2:
            parts.append(_polyline(pts, "#06a", 1.2, dashed=True))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, svg_text: str) -> None:
    with open(path, "w") as fh:
        fh.write(svg_text)
