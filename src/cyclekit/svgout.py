"""Deterministic SVG 1.1 rendering of cycle documents.

Circles are native <circle> elements, parabolas are exact quadratic
Bezier arcs (a parabola is exactly a quadratic Bezier), hyperbolas are
sampled polylines, one per branch and clipped run.  A hyperbola is
sampled in the coordinate across the direction its branches open, over
which each branch is a graph with no vertical tangent, and solved for
the other coordinate with the cancellation-free root pairs of
``_root_pairs``.  Each branch is clipped exactly to u in the viewport and
v within one viewport height of it, and gets points crowded toward its
vertex: as few as keep every chord, of length L, within 1/16 of a canvas
pixel of the curve by the bound L^2 max|f''|/8, and at most
HYPERBOLA_SAMPLES; the light cone (zero radius) is two straight segments.
The sampler uses only + - * / and ``math.sqrt``, no libm call whose
rounding varies by platform.  All numbers are formatted to at most 12
significant digits with "-0" normalised, so a given document always
renders to identical bytes.  ``write_text`` is the one writer of every
file the package writes.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from bisect import bisect_left, bisect_right

from .cycle import CycleQuadruple, FSCcContext, centre, det_invariant, radius_sq
from .errors import CycleKitError, Degenerate, DocumentError
from .hypercomplex import SpaceSign
from .numbers import Scalar, fmt12, parse_scalar, scalar_to_json
from .value import Value

CANVAS_PX = 512.0
HYPERBOLA_SAMPLES = 160
# A hyperbola is sampled at the grades (j/N)^2 for |j| < N, with the least
# N <= _STEPS whose chords lie within _CHORD_PX canvas pixels of the curve:
# a branch gets 2N - 1 samples and at most four clipped ends, no more than
# HYPERBOLA_SAMPLES points in all
_STEPS = (HYPERBOLA_SAMPLES - 3) // 2
_CHORD_PX = 1.0 / 16.0
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
    ctx = FSCcContext(doc.sigma, 1)
    try:
        for quad, style in doc.cycles:
            out.extend(_cycle_elements(quad, style, doc, ctx, stroke_w, dot_r))
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
    ctx: FSCcContext,
    stroke_w: float,
    dot_r: float,
) -> list[str]:
    """The elements of one cycle; ``ctx`` is the document's FSCcContext(sigma, 1).

    The radius is zero where the determinant is, which ``det_invariant``
    decides exactly for an exact quadruple and without dividing by k^2,
    which underflows for |k| below about 1e-162.  Only the elliptic circle
    needs its radius from ``radius_sq``.
    """
    if quad.is_degenerate():
        raise Degenerate("quadruple (0,0,0,m) has no locus to draw")
    sigma = doc.sigma
    k = float(quad.k)
    l = float(quad.l)
    n = float(quad.n)
    m = float(quad.m)
    attrs = _stroke_attrs(style, stroke_w)
    elements: list[str] = []
    det = det_invariant(quad, ctx)
    if k != 0 and det == 0:
        elements.append(dot(*centre(quad, sigma), dot_r, style.stroke))
        if sigma == SpaceSign.ELLIPTIC:
            return elements
    if k == 0:
        elements.extend(_line_elements(l, n, m, doc, attrs))
        return elements
    if sigma == SpaceSign.ELLIPTIC:
        if det > 0:
            elements.append("<!-- empty elliptic locus -->")
        elif det < 0:
            c = centre(quad, SpaceSign.ELLIPTIC)
            elements.append(
                f'<circle cx="{fmt12(float(c.u))}" cy="{fmt12(float(c.v))}" '
                f'r="{fmt12(math.sqrt(float(radius_sq(quad, ctx))))}" {attrs}/>'
            )
        return elements
    if sigma == SpaceSign.PARABOLIC:
        if n == 0:
            # vertical line pair at the real roots, if any
            disc = l * l - k * m
            if disc < 0:
                elements.append("<!-- empty parabolic locus -->")
                return elements
            for u0 in _root_pairs(k, l, [(m, disc)])[0] if disc > 0 else (l / k,):
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
    # work in coordinates centred on the viewport, so that far from the
    # origin the coefficients do not cancel
    u0, v0 = (umin + umax) / 2.0, (vmin + vmax) / 2.0
    k, l, n, m, det = _recentred(k, l, n, m, u0, v0)
    ubox = (umin - u0, umax - u0)
    vbox = (vmin - span - v0, vmax + span - v0)
    tol = _CHORD_PX * (umax - umin) / CANVAS_PX  # pixels are square
    if det < 0:  # the branches open along u: sample v and solve for u
        runs = _hyperbola_runs(k, -n, -l, -m, -det, vbox, ubox, v0, u0, tol)
        for run in runs:
            run[0::2], run[1::2] = run[1::2], run[0::2]
    else:
        runs = _hyperbola_runs(k, l, n, m, det, ubox, vbox, u0, v0, tol)
    return [flat_polyline(run, attrs) for run in runs] or ["<!-- empty hyperbolic locus -->"]


def _recentred(k: float, l: float, n: float, m: float, u0: float, v0: float):
    """(k, l, n, m) of the cycle in coordinates centred at (u0, v0), and n^2 - l^2 + mk.

    The shift keeps k and the determinant n^2 - l^2 + mk.  Each value is
    computed over the integers, with every input written as X/den, and
    rounded once.  A quadruple whose entries all lie below 1 is scaled up
    until the largest is 1, so that no square of an entry underflows.
    """
    ratios = [x.as_integer_ratio() for x in (k, l, n, m, u0, v0)]
    den = math.lcm(*(q for _, q in ratios))
    k, l, n, m, u0, v0 = (p * (den // q) for p, q in ratios)
    quad = (  # the shifted quadruple times den^3
        k * den * den,
        (l * den - k * u0) * den,
        (n * den + k * v0) * den,
        k * (u0 * u0 - v0 * v0) - 2 * den * (l * u0 + n * v0) + m * den * den,
    )
    scale = min(den**3, max(map(abs, quad)))
    k, l, n, m = quad
    return (*(x / scale for x in quad), (n * n - l * l + m * k) / (scale * scale))


def _hyperbola_runs(k, l, n, m, det, sbox, wbox, s0, w0, tol) -> list[list[float]]:
    """The runs of k(s^2 - w^2) - 2ls - 2nw + m = 0 in sbox x wbox, for det >= 0, moved by (s0, w0).

    det = n^2 - l^2 + mk >= 0 makes the branches open along w: the
    branches k w + n = -sqrt(D) and +sqrt(D), with D = (ks - l)^2 + det,
    are graphs over the whole s axis, and det = 0 is the light-cone line
    pair k w + n = +-(ks - l), clipped to two segments.  Each branch is
    clipped to the box exactly, at the roots of the cycle on the box's w
    edges.  Both are sampled at s = c +- h (j/N)^2 for |j| < N, where c
    is the vertex s = l/k moved into the clipped span and h reaches its
    farther end, so the samples crowd toward the vertex, where the
    curvature is greatest; ``_steps`` picks the least N <= _STEPS whose
    chords lie within tol of the curve; a clipped end only shortens a
    chord.  Every sample is solved once for the w of both branches, by
    the formula of ``_root_pairs``, with no tuple per sample.  The samples
    ascend, so the interior of a branch is the slice of them strictly
    between its clipped ends (``bisect``).  A run is
    flat, [s, w, s, w, ...] moved by (s0, w0), the viewport's centre:
    that sum is -0.0 only when both terms are, and the centre of a
    viewport with umin < umax is never -0.0, so ``flat_polyline`` takes a
    run as it is.
    """
    s_lo, s_hi = sbox
    w_lo, w_hi = wbox
    if det == 0:
        # the lines w = s + b and w = -s + b', whose intercepts at s = 0
        # are (-n - |l|)/k and (-n + |l|)/k, roots of k w^2 + 2nw - m = 0
        low, high = _root_pairs(k, -n, [(-m, l * l)])[0]
        runs = []
        for sign, b in ((1.0, low), (-1.0, high)) if l >= 0 else ((1.0, high), (-1.0, low)):
            lo, hi = sorted((sign * (w_lo - b), sign * (w_hi - b)))
            a, c = max(s_lo, lo), min(s_hi, hi)
            if a < c:
                runs.append([a + s0, sign * a + b + w0, c + s0, sign * c + b + w0])
        return runs

    def crossing(c, side):  # the s where branch side meets w = c, ascending, or None
        e = m - c * (k * c + 2.0 * n)
        disc = l * l - k * e
        if (k * c + n > 0) != (side == 1) or disc < 0:
            return None
        return sorted(_root_pairs(k, l, [(e, disc)])[0])

    pieces = []  # (branch side, first s, last s)
    for side in (0, 1):
        opens_up = (side == 1) == (k > 0)
        far, near = (w_hi, w_lo) if opens_up else (w_lo, w_hi)
        inner = crossing(far, side)
        if inner is None:  # the branch lies beyond its far edge
            continue
        a, b = max(s_lo, inner[0]), min(s_hi, inner[1])
        cut = crossing(near, side)
        spans = [(a, b)] if cut is None else [(a, min(b, cut[0])), (max(a, cut[1]), b)]
        pieces += [(side, x, y) for x, y in spans if x < y]
    if not pieces:
        return []
    lo = min(x for _, x, _ in pieces)
    hi = max(y for _, _, y in pieces)
    c = min(max(l / k, lo), hi)
    h = max(c - lo, hi - c)
    steps = _steps(abs(k), abs(k * c - l), det, h, tol)
    grades = [j * j / (steps * steps) for j in range(1, steps)]
    ts = [c - h * g for g in reversed(grades)] + [c] + [c + h * g for g in grades]
    ss = ts + [x for _, a, b in pieces for x in (a, b)]
    # the roots of k w^2 + 2nw - (s(ks - 2l) + m) = 0 as _root_pairs(k, -n, ...)
    # gives them; det > 0 makes sqrt(D) > 0, so q is never 0
    sign, l2 = math.copysign(1.0, -n), 2.0 * l
    qs = [-n + sign * math.sqrt((k * s - l) * (k * s - l) + det) for s in ss]
    outer = [q / k + w0 for q in qs]
    inner = [-(s * (k * s - l2) + m) / q + w0 for s, q in zip(ss, qs)]
    lows, highs = (inner, outer) if sign > 0 else (outer, inner)
    moved = [s + s0 for s in ss]
    runs = []
    edge = len(ts)  # where the clipped ends of the piece are in ss
    for side, a, b in pieces:
        ws = highs if side else lows
        first, last = bisect_right(ts, a), bisect_left(ts, b)
        run = [0.0] * (2 * (last - first + 2))
        run[0::2] = [moved[edge], *moved[first:last], moved[edge + 1]]
        run[1::2] = [ws[edge], *ws[first:last], ws[edge + 1]]
        runs.append(run)
        edge += 2
    return runs


def _steps(k: float, a: float, det: float, h: float, tol: float) -> int:
    """The least N <= _STEPS for which every chord of the grading c +- h (j/N)^2 lies within tol of the curve.

    A branch k w + n = +-sqrt(D), D = (ks - l)^2 + det > 0, curves by
    |w''| = |k| det / D^(3/2), which falls as s leaves the vertex l/k;
    here k stands for |k|, and a = |kc - l| is where the grading starts.
    The chord from (j/N)^2 to ((j + 1)/N)^2, of length h (2j + 1)/N^2,
    lies within |w''| h^2 (2j + 1)^2 / (8 N^4) of the curve (de Boor, A
    Practical Guide to Splines, ch. II), with |w''| at the chord's end
    nearer c, where it is largest.  The search starts where the bound of
    the vertex chord, or of the others with (2j + 1)^2 taken as 4 j^2 at
    the worst j/N, meets tol, and steps down while N - 1 fits or up until
    N fits.  Only + - * / and ``math.sqrt`` decide N, so it does not
    depend on the platform's libm.
    """
    if not tol > 0:  # a viewport narrower than 512 subnormal floats
        return _STEPS
    gain = k * det * h * h / (8.0 * tol)  # chord j fits if gain (2j + 1)^2 <= N^4 D^(3/2)

    def fits(steps: int) -> bool:
        square = steps * steps
        for j in range(steps):
            x = a + k * h * (j * j / square)
            d = x * x + det
            if not gain * (2 * j + 1) * (2 * j + 1) <= square * square * d * math.sqrt(d):
                return False
        return True

    # t^2 / D^(3/2), t = j/N, peaks where 2x^2 - 3ax - det = 0, x = a + k h t^2
    d0 = a * a + det
    x = a + min((math.sqrt(9.0 * a * a + 8.0 * det) - a) / 4.0, k * h)
    d = x * x + det
    need = max(math.sqrt(gain / d0 / math.sqrt(d0)), det * h * (x - a) / (2.0 * tol) / d / math.sqrt(d))
    steps = max(1, math.ceil(math.sqrt(need))) if need < _STEPS * _STEPS else _STEPS
    if fits(steps):
        while steps > 1 and fits(steps - 1):
            steps -= 1
        return steps
    while steps < _STEPS:
        steps += 1
        if fits(steps):
            break
    return steps


def _root_pairs(a: float, b: float, terms) -> list[tuple[float, float]]:
    """((b - sqrt(d))/a, (b + sqrt(d))/a) for each (c, d) in terms.

    These are the roots of a x^2 - 2bx + c = 0, where d = b^2 - ac >= 0.
    Each pair comes without cancellation as q/a and c/q with
    q = b + sign(b) sqrt(d) (Higham, Accuracy and Stability of Numerical
    Algorithms, section 1.8).
    """
    sign = math.copysign(1.0, b)
    pairs = []
    for c, d in terms:
        q = b + sign * math.sqrt(d)
        if q == 0:  # b = d = 0, so c = 0: the double root 0
            pairs.append((0.0, 0.0))
        else:
            pairs.append((c / q, q / a) if sign > 0 else (q / a, c / q))
    return pairs


def dot(u: Scalar, v: Scalar, r: float, colour: str) -> str:
    """A filled <circle> of radius r at (u, v) with no stroke, numbers formatted by fmt12."""
    return f'<circle cx="{fmt12(u)}" cy="{fmt12(v)}" r="{fmt12(r)}" fill="{colour}" stroke="none"/>'


def polyline(points, attrs: str) -> str:
    """A <polyline> through (u, v) points, each coordinate formatted as by fmt12.

    The points are flattened with 0.0 added to each coordinate, which
    turns -0.0 into 0.0 and converts int and Fraction coordinates to
    float, leaving every other value unchanged, and ``flat_polyline``
    formats them.
    """
    return flat_polyline([x + 0.0 for point in points for x in point], attrs)


def flat_polyline(coords: list[float], attrs: str) -> str:
    """A <polyline> through the flat run [u0, v0, u1, v1, ...] of floats, none of them -0.0.

    Each coordinate is formatted by "%.12g", as fmt12 formats a float
    that is not -0.0, all in one ``%``.
    """
    template = " ".join(["%.12g,%.12g"] * (len(coords) // 2))
    return f'<polyline points="{template % tuple(coords)}" {attrs}/>'


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
