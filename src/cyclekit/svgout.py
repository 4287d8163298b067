"""Deterministic SVG 1.1 rendering of cycle documents.

Circles are native <circle> elements, parabolas are exact quadratic
Bezier arcs (a parabola is exactly a quadratic Bezier), hyperbolas are
sampled polylines: a bisection on a 1,024-point grid across the viewport,
one on each side of the discriminant's vertex, finds the u-intervals
where the branches are real (the runs a scan of the grid finds wherever
rounding keeps the discriminant monotone on each side), and each
interval is sampled at 160 abscissae shared by both branches, keeping
the samples that fall within one viewport height of the viewport.  All
numbers are formatted to at most 12 significant digits with "-0"
normalised, so a given document always renders to identical bytes.
``write_text`` is the one writer of every file the package writes.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from bisect import bisect_left, bisect_right

from .cycle import CycleQuadruple, FSCcContext, centre, radius_sq
from .errors import CycleKitError, Degenerate, DocumentError
from .hypercomplex import SpaceSign
from .numbers import Scalar, fmt12, parse_scalar, scalar_to_json
from .value import Value

CANVAS_PX = 512.0
HYPERBOLA_SAMPLES = 160
DEFAULT_STROKE = "#1f4e9c"

# "%.12g" writes a non-finite float as inf, -inf or nan.  Numbers appear only
# in attribute values, and stroke and fill values are the caller's colours.
_NON_FINITE = re.compile(r'="(?<!stroke=")(?<!fill=")[^"]*(?:inf|nan)')


class CycleStyle(Value):
    __slots__ = ("stroke", "dash")

    def __init__(self, stroke: str = DEFAULT_STROKE, dash: bool = False):
        object.__setattr__(self, "stroke", stroke)
        object.__setattr__(self, "dash", dash)


class CycleSetDocument(Value):
    """Cycles with their styles, marked points and a viewport; points default to []."""

    __slots__ = ("sigma", "cycles", "points", "viewport")

    def __init__(
        self,
        sigma: SpaceSign,
        cycles: list[tuple[CycleQuadruple, CycleStyle]],
        points: list[tuple[Scalar, Scalar]] | None = None,
        viewport: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0),
    ):
        umin, umax, vmin, vmax = viewport
        if not (umin < umax and vmin < vmax):
            raise ValueError("viewport must satisfy umin < umax and vmin < vmax")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "points", [] if points is None else points)
        object.__setattr__(self, "viewport", viewport)


def parse_document(text: str, exact: bool = False) -> CycleSetDocument:
    """Read the JSON document schema; scalars may be numbers or "p/q".

    Malformed JSON raises ``json.JSONDecodeError``.  A document that
    parses but breaks the schema (a missing key, a scalar ``parse_scalar``
    rejects, the zero quadruple, an empty viewport, an integer literal
    longer than ``int`` converts, a stroke colour holding a lone surrogate,
    which the SVG could not be written with, a ``dash`` that is not a JSON
    boolean) raises ``DocumentError``.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    sign = _entry(raw, "sigma", "the document")
    try:
        sigma = SpaceSign.parse(sign)
    except ValueError as exc:
        raise DocumentError(f"sigma: {exc}") from exc
    viewport = tuple(
        _scalar(x, False, "viewport")
        for x in _items(_entry(raw, "viewport", "the document"), "viewport", 4)
    )
    cycles = []
    for index, entry in enumerate(_items(raw.get("cycles", []), "cycles")):
        where = f"cycle {index}"
        comps = [_scalar(_entry(entry, key, where), exact, where) for key in "klnm"]
        try:
            quad = CycleQuadruple(*comps)
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from exc
        style_raw = entry.get("style", {})
        if not isinstance(style_raw, dict):
            raise DocumentError(f"{where}: style must be a JSON object")
        stroke = style_raw.get("stroke", DEFAULT_STROKE)
        if not isinstance(stroke, str) or any(ch in stroke for ch in '"<&'):
            raise DocumentError(f"{where}: style needs a stroke colour without '\"', '<' or '&'")
        try:
            stroke.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DocumentError(f"{where}: stroke colour has no UTF-8 encoding ({exc.reason})") from exc
        dash = style_raw.get("dash", False)
        if not isinstance(dash, bool):
            raise DocumentError(f"{where}: style dash must be true or false, not {dash!r}")
        cycles.append((quad, CycleStyle(stroke, dash)))
    points = []
    for index, entry in enumerate(_items(raw.get("points", []), "points")):
        where = f"point {index}"
        points.append(tuple(_scalar(x, exact, where) for x in _items(entry, where, 2)))
    try:
        return CycleSetDocument(sigma, cycles, points, viewport)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def document_to_json(doc: CycleSetDocument) -> str:
    payload = {
        "sigma": int(doc.sigma),
        "viewport": list(doc.viewport),
        "cycles": [
            {
                "k": scalar_to_json(c.k),
                "l": scalar_to_json(c.l),
                "n": scalar_to_json(c.n),
                "m": scalar_to_json(c.m),
                "style": {"stroke": style.stroke, "dash": style.dash},
            }
            for c, style in doc.cycles
        ],
        "points": [[scalar_to_json(u), scalar_to_json(v)] for u, v in doc.points],
    }
    return json.dumps(payload)


def _entry(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be a JSON object")
    if key not in obj:
        raise DocumentError(f"{where} is missing key {key!r}")
    return obj[key]


def _items(value, where: str, size: int | None = None) -> list:
    if not isinstance(value, list) or size not in (None, len(value)):
        raise DocumentError(f"{where} must be a list" + (f" of {size} scalars" if size else ""))
    return value


def _scalar(value, exact: bool, where: str) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise DocumentError(f"{where}: {value!r} is not a scalar")
    try:
        return parse_scalar(str(value), exact)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def render_svg(
    doc: CycleSetDocument,
    comments: list[str] | None = None,
    extras: list[str] | None = None,
    annotations: list[tuple[float, float, str]] | None = None,
) -> str:
    """Well-formed SVG 1.1 text for the document, byte-deterministic.

    ``extras`` are raw elements in mathematical coordinates (drawn in the
    flipped group); ``annotations`` are (u, v, text) labels rendered
    upright.  Geometry that leaves the float range (an overflow, a division
    by an underflowed value, a non-finite number in extras too) raises CycleKitError.
    """
    umin, umax, vmin, vmax = doc.viewport
    uspan, vspan = umax - umin, vmax - vmin
    height_px = CANVAS_PX * vspan / uspan
    unit = uspan / CANVAS_PX  # one pixel in user units
    stroke_w = 1.5 * unit
    dot_r = 2.0 * unit
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt12(CANVAS_PX)}" height="{fmt12(height_px)}" '
        f'viewBox="{fmt12(umin)} {fmt12(vmin)} {fmt12(uspan)} {fmt12(vspan)}">',
    ]
    for comment in comments or []:
        out.append(f"<!-- {comment} -->")
    flip = vmin + vmax
    out.append(f'<g transform="translate(0,{fmt12(flip)}) scale(1,-1)">')
    axis_w = fmt12(0.75 * unit)
    if vmin < 0 < vmax:
        out.append(
            f'<line x1="{fmt12(umin)}" y1="0" x2="{fmt12(umax)}" y2="0" '
            f'stroke="#bbbbbb" stroke-width="{axis_w}"/>'
        )
    if umin < 0 < umax:
        out.append(
            f'<line x1="0" y1="{fmt12(vmin)}" x2="0" y2="{fmt12(vmax)}" '
            f'stroke="#bbbbbb" stroke-width="{axis_w}"/>'
        )
    try:
        for quad, style in doc.cycles:
            out.extend(_cycle_elements(quad, style, doc, stroke_w, dot_r))
    except (ZeroDivisionError, OverflowError) as exc:
        raise CycleKitError(f"the cycle geometry leaves the float range ({exc})") from exc
    for u, v in doc.points:
        out.append(dot(u, v, 1.25 * dot_r, "#222222"))
    for extra in extras or []:
        out.append(extra)
    out.append("</g>")
    for u, v, text in annotations or []:
        out.append(
            f'<text x="{fmt12(u)}" y="{fmt12(flip - v)}" font-family="sans-serif" '
            f'font-size="{fmt12(14 * unit)}" fill="#333333">{text}</text>'
        )
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if ("inf" in text or "nan" in text) and _NON_FINITE.search(text):  # cheap test first
        raise CycleKitError("the geometry leaves the float range: a coordinate is not finite")
    return text


def _stroke_attrs(style: CycleStyle, stroke_w: float) -> str:
    dash = ' stroke-dasharray="6 4"' if style.dash else ""
    return (
        f'fill="none" stroke="{style.stroke}" stroke-width="{fmt12(stroke_w)}"{dash}'
    )


def _cycle_elements(
    quad: CycleQuadruple,
    style: CycleStyle,
    doc: CycleSetDocument,
    stroke_w: float,
    dot_r: float,
) -> list[str]:
    if quad.is_degenerate():
        raise Degenerate("quadruple (0,0,0,m) has no locus to draw")
    sigma = doc.sigma
    k = float(quad.k)
    l = float(quad.l)
    n = float(quad.n)
    m = float(quad.m)
    attrs = _stroke_attrs(style, stroke_w)
    elements: list[str] = []
    r_sq = float(radius_sq(quad, FSCcContext(sigma, 1))) if k != 0 else None
    if r_sq == 0.0:
        elements.append(dot(*centre(quad, sigma), dot_r, style.stroke))
        if sigma == SpaceSign.ELLIPTIC:
            return elements
    if k == 0:
        elements.extend(_line_elements(l, n, m, doc, attrs))
        return elements
    if sigma == SpaceSign.ELLIPTIC:
        if r_sq < 0:
            elements.append("<!-- empty elliptic locus -->")
            return elements
        if r_sq > 0:
            c = centre(quad, SpaceSign.ELLIPTIC)
            elements.append(
                f'<circle cx="{fmt12(float(c.u))}" cy="{fmt12(float(c.v))}" '
                f'r="{fmt12(math.sqrt(r_sq))}" {attrs}/>'
            )
        return elements
    if sigma == SpaceSign.PARABOLIC:
        if n == 0:
            # vertical line pair at the real roots, if any
            disc = l * l - k * m
            if disc < 0:
                elements.append("<!-- empty parabolic locus -->")
                return elements
            for sgn in ((-1.0, 1.0) if disc > 0 else (0.0,)):
                u0 = (l + sgn * math.sqrt(disc)) / k
                elements.append(_vertical_line(u0, doc, attrs))
            return elements
        elements.append(_parabola_bezier(k, l, n, m, doc, attrs))
        return elements
    elements.extend(_hyperbola_polylines(k, l, n, m, doc, attrs))
    return elements


def _vertical_line(u0: float, doc: CycleSetDocument, attrs: str) -> str:
    _, _, vmin, vmax = doc.viewport
    return (
        f'<line x1="{fmt12(u0)}" y1="{fmt12(vmin)}" x2="{fmt12(u0)}" '
        f'y2="{fmt12(vmax)}" {attrs}/>'
    )


def _line_elements(l: float, n: float, m: float, doc: CycleSetDocument, attrs: str) -> list[str]:
    umin, umax, vmin, vmax = doc.viewport
    if n == 0:
        if l == 0:
            raise Degenerate("line with l = n = 0 has no locus")
        return [_vertical_line(m / (2.0 * l), doc, attrs)]
    v0 = (m - 2.0 * l * umin) / (2.0 * n)
    v1 = (m - 2.0 * l * umax) / (2.0 * n)
    return [
        f'<line x1="{fmt12(umin)}" y1="{fmt12(v0)}" x2="{fmt12(umax)}" '
        f'y2="{fmt12(v1)}" {attrs}/>'
    ]


def _parabola_bezier(
    k: float, l: float, n: float, m: float, doc: CycleSetDocument, attrs: str
) -> str:
    umin, umax, _, _ = doc.viewport

    def f(u: float) -> float:
        return (k * u * u - 2.0 * l * u + m) / (2.0 * n)

    def fprime(u: float) -> float:
        return (k * u - l) / n

    u0, u1 = umin, umax
    p0 = (u0, f(u0))
    p2 = (u1, f(u1))
    # control point: intersection of the end tangents
    pc = ((u0 + u1) / 2.0, f(u0) + fprime(u0) * (u1 - u0) / 2.0)
    d = (
        f"M {fmt12(p0[0])} {fmt12(p0[1])} "
        f"Q {fmt12(pc[0])} {fmt12(pc[1])} {fmt12(p2[0])} {fmt12(p2[1])}"
    )
    return f'<path d="{d}" {attrs}/>'


def _hyperbola_polylines(
    k: float, l: float, n: float, m: float, doc: CycleSetDocument, attrs: str
) -> list[str]:
    umin, umax, vmin, vmax = doc.viewport
    span = vmax - vmin
    lo, hi = vmin - span, vmax + span
    # the branches v = (-n +- sqrt(disc)) / k are real where
    # disc = n^2 + k (k u^2 - 2 l u + m) >= 0 at the grid abscissae
    # umin + (umax - umin) i / (scan - 1).  disc falls toward its vertex
    # u = l/k and rises after it, so the real grid points are a prefix
    # [0, a) left of the vertex and a suffix [b, scan) right of it, one run
    # when they meet; bisecting each side finds a and b with the predicate
    # of a full scan.  The runs are the scan's wherever rounding keeps that
    # predicate monotone on each side; far off-centre, where k u^2 - 2 l u
    # cancels, the scan's runs flicker and the bisection keeps one prefix
    # and one suffix that end where the predicate changes
    scan = 1024

    def grid(i):
        return umin + (umax - umin) * i / (scan - 1)

    def real(i):
        u = grid(i)
        return n * n + k * (k * u * u - 2.0 * l * u + m) >= 0

    index = range(scan)
    vertex = bisect_right(index, l / k, key=grid)
    a = bisect_left(index, True, 0, vertex, key=lambda i: not real(i))
    b = bisect_left(index, True, vertex, key=real)
    runs = [(0, scan)] if a == b else [(0, a), (b, scan)]
    sampled: list[list[tuple[float, float]]] = []  # (u, sqrt(disc)) per interval
    for start, stop in runs:
        ua, ub = grid(start), grid(stop - 1)
        if ub <= ua:  # an empty or one-point run, or a span the floats collapse
            continue
        roots = []
        for i in range(HYPERBOLA_SAMPLES):
            u = ua + (ub - ua) * i / (HYPERBOLA_SAMPLES - 1)
            disc = n * n + k * (k * u * u - 2.0 * l * u + m)
            if disc >= 0:
                roots.append((u, math.sqrt(disc)))
        sampled.append(roots)

    elements = []
    for branch in (1.0, -1.0):
        for roots in sampled:
            run = []
            for u, root in roots:
                v = (-n + branch * root) / k
                if lo <= v <= hi:
                    run.append((u, v))
            if len(run) >= 2:
                elements.append(polyline(run, attrs))
    if not elements:
        elements.append("<!-- empty hyperbolic locus -->")
    return elements


def dot(u: Scalar, v: Scalar, r: float, colour: str) -> str:
    """A filled <circle> of radius r at (u, v) with no stroke, numbers formatted by fmt12."""
    return f'<circle cx="{fmt12(u)}" cy="{fmt12(v)}" r="{fmt12(r)}" fill="{colour}" stroke="none"/>'


def polyline(points, attrs: str) -> str:
    """A <polyline> through (u, v) points, each coordinate formatted as by fmt12.

    Adding 0.0 turns -0.0 into 0.0 and converts int and Fraction
    coordinates to float, leaving every other value unchanged.
    """
    coords = tuple([x + 0.0 for point in points for x in point])
    template = " ".join(["%.12g,%.12g"] * (len(coords) // 2))
    return f'<polyline points="{template % coords}" {attrs}/>'


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting an existing file in place.

    The file is opened without ``O_TRUNC``, so an existing file keeps its
    inode, mode, hard links and symlink target and is never cut to zero
    first; it is cut only when the old file was the longer one, so a
    device such as /dev/null or a pipe never sees ``ftruncate``.  If the
    write raises, the file is cut at the bytes already written, leaving
    no new bytes followed by the old tail, and the exception propagates.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        old_size = info.st_size if stat.S_ISREG(info.st_mode) else 0
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if old_size > written:  # also after a failed write
                os.ftruncate(fd, written)
    finally:
        os.close(fd)
