"""Figure recipes: each emits one SVG file per panel into a directory.

The constructions mirror the library's showcase scenes: rotation orbits
with traversal curves, one quadruple drawn in all three plane styles
with its centres and foci, the 3x3 grid of zero-radius realisations,
orthogonality and s-orthogonality pencils with their ghost cycles, and
the distance/length constructions.  Colours and dashes are house style;
the geometry is computed by the library.
"""

from __future__ import annotations

import math
import os
from functools import cache, partial

from .cycle import (
    CycleQuadruple,
    FSCcContext,
    centre,
    focus,
    roots,
    similarity_transform,
    zero_radius_cycle,
)
from .errors import CycleKitError, FocusUndefined, UsageError
from .hypercomplex import SpaceSign
from .moebius import INFINITY, Point, orbit_uv, subgroup_element
from .numbers import fmt12, parse_scalars
from .relations import common_inverse_point, ghost_cycle, invert_point, orthogonal_family, s_ghost
from .svgout import CANVAS_PX, CycleSetDocument, CycleStyle, dot, flat_polyline, render_svg, write_text
from .value import Value

RED = "#c62828"
BLUE = "#1f4e9c"
GREEN = "#2e7d32"
GREY = "#888888"
ORANGE = "#e07b00"

_SIGNS = (SpaceSign.ELLIPTIC, SpaceSign.PARABOLIC, SpaceSign.HYPERBOLIC)


class FigureRecipe(Value):
    """A named figure with optional name=value parameter overrides."""

    __slots__ = ("name", "parameters")

    def __init__(self, name: str, parameters: dict[str, str] | None = None):
        if parameters is None:
            parameters = {}
        if name not in RECIPES:
            raise UsageError(f"unknown figure {name!r}; choose from {', '.join(RECIPES)}")
        reads = ", ".join(RECIPES[name][1]) or "no parameter"
        for key in parameters:
            if key not in RECIPES[name][1]:
                raise UsageError(f"{name} reads {reads}, not {key!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parameters", parameters)


def run_figure(recipe: FigureRecipe, out_dir: str) -> list[str]:
    """Render every panel of the recipe; returns the file paths written.

    Every panel is rendered before the directory is created or any file
    is written, so a bad parameter leaves nothing behind.  Parameters
    that are finite but so extreme that the float geometry overflows or
    underflows (a non-finite coordinate, a division by an underflowed
    k^2) raise CycleKitError, here or in ``render_svg``.
    """
    builder = RECIPES[recipe.name][0]
    try:
        panels = builder(recipe.parameters)
    except (ZeroDivisionError, OverflowError) as exc:
        raise CycleKitError(f"{recipe.name}: parameters out of the float range ({exc})") from exc
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for panel_name, text in panels:
        path = os.path.join(out_dir, f"{recipe.name}-{panel_name}.svg")
        write_text(path, text)
        paths.append(path)
    return paths


def _param(params: dict[str, str], key: str, build, names: str, default):
    """``build(*floats)`` of one comma-separated parameter, or ``default`` when it is absent."""
    if key not in params:
        return default
    try:
        return build(*parse_scalars(params[key], False, names))
    except ValueError as exc:  # a bad scalar, a wrong count or the zero quadruple
        raise UsageError(f"parameter {key!r}: {exc}") from exc


def _extra_dot(point, colour: str, viewport, scale: float = 3.0) -> str:
    return dot(*point, scale * (viewport[1] - viewport[0]) / CANVAS_PX, colour)


def _orbit_parameters() -> list[float]:
    # tangent half-angle grid covering the whole rotation group once
    samples = 257
    params = []
    for i in range(samples):
        phi = -math.pi + 2.0 * math.pi * (i + 0.5) / samples
        params.append(math.tan(phi / 2.0))
    return params


@cache
def _rotation_grid() -> tuple:
    """The rotations K(t) over ``_orbit_parameters()``, built once."""
    return tuple(subgroup_element("K", t) for t in _orbit_parameters())


def _polyline_runs(images, viewport) -> list[list[float]]:
    """Split (u, v) pairs at None and at points far outside the viewport into flat runs.

    A run is [u0, v0, u1, v1, ...] with 0.0 added to each coordinate, as
    ``polyline`` adds it, so that ``flat_polyline`` formats it as it is.
    """
    umin, umax, vmin, vmax = viewport
    span_u = umax - umin
    span_v = vmax - vmin
    runs: list[list[float]] = []
    run: list[float] = []
    for image in images:
        if image is not None:
            u, v = image
            if umin - span_u < u < umax + span_u and vmin - span_v < v < vmax + span_v:
                run.append(u + 0.0)
                run.append(v + 0.0)
                continue
        if len(run) >= 4:
            runs.append(run)
        run = []
    if len(run) >= 4:
        runs.append(run)
    return runs


def _fig_k_orbits(params: dict[str, str]):
    viewport = (-3.0, 3.0, -3.0, 3.0)
    rotations = _rotation_grid()
    orbit_attrs = f'fill="none" stroke="{BLUE}" stroke-width="{fmt12(2.0 * 6.0 / CANVAS_PX)}"'
    axis = CycleQuadruple(0.0, 1.0, 0.0, 0.0)
    # the rotated axes are the same quadruples in every plane: the similarity action reads no sign
    traversals = []
    for phi in (-1.2, -0.8, -0.4, 0.4, 0.8, 1.2):
        rotation = subgroup_element("K", math.tan(phi / 2.0))
        traversals.append((similarity_transform(axis, rotation), CycleStyle(stroke=GREY)))
    panels = []
    for sigma in _SIGNS:
        cycles = list(traversals)
        extras = []
        for v0 in (0.5, 1.0, 2.0):
            # the kernel's (u, v) pairs go straight to the polylines, no Point per sample
            for run in _polyline_runs(orbit_uv(rotations, Point(0.0, v0), sigma), viewport):
                extras.append(flat_polyline(run, orbit_attrs))
        doc = CycleSetDocument(sigma, cycles, [], viewport)
        comments = [f"rotation orbits in the {sigma.letter}-plane"]
        panels.append((sigma.letter, render_svg(doc, comments, extras)))
    return panels


def _fig_eph_cycle(params: dict[str, str]):
    quad = _param(params, "cycle", CycleQuadruple, "k,l,n,m", CycleQuadruple(2.0, 1.0, 2.0, 1.0))
    viewport = (-3.0, 4.0, -3.0, 3.0)
    # the centres and foci do not depend on the panel's sign: every panel marks the same dots
    extras = []
    for kind, colour in zip(_SIGNS, (RED, ORANGE, GREEN)):
        spot = centre(quad, kind)
        if spot is not INFINITY:
            extras.append(_extra_dot(spot, colour, viewport))
        try:
            f = focus(quad, kind)
            extras.append(_extra_dot(f, colour, viewport, scale=2.0))
        except FocusUndefined:
            pass
    panels = []
    for sigma in _SIGNS:
        doc = CycleSetDocument(sigma, [(quad, CycleStyle(stroke=BLUE))], [], viewport)
        comments = [f"one quadruple drawn {sigma.letter}-style with centres and foci"]
        panels.append((sigma.letter, render_svg(doc, comments, extras)))
    return panels


def _fig_zero_radius(params: dict[str, str]):
    at = _param(params, "point", lambda u, v: (u, v), "u,v", (0.5, 1.0))
    viewport = (-2.0, 3.0, -2.0, 3.0)
    panels = []
    for sigma_cycle in _SIGNS:
        quad = zero_radius_cycle(at, FSCcContext(sigma_cycle, 1))
        extras = []
        try:
            extras.append(_extra_dot(focus(quad, sigma_cycle), ORANGE, viewport, 2.0))
        except FocusUndefined:
            pass
        for sigma in _SIGNS:
            doc = CycleSetDocument(sigma, [(quad, CycleStyle(stroke=BLUE))], [], viewport)
            comments = [
                f"zero-radius for the {sigma_cycle.letter}-cycle-space drawn {sigma.letter}-style"
            ]
            panels.append(
                (f"{sigma_cycle.letter}{sigma.letter}", render_svg(doc, comments, extras))
            )
    return panels


def _fig_ortho(params: dict[str, str], s_orthogonal: bool):
    """Pencils through b and a second point, orthogonal to the red cycle.

    For s-orthogonality the pencils are orthogonal to the red cycle's
    s-ghost instead, and the parabolic cycle-space panel is degenerate.
    """
    red = _param(params, "cycle", CycleQuadruple, "k,l,n,m", CycleQuadruple(1.0, 0.0, 1.0, 0.0))
    b = _param(params, "b", lambda u, v: (u, v), "u,v", (1.0, 1.0))
    second = (-1.2, 0.6)
    viewport = (-3.0, 3.0, -3.0, 3.0)
    sigma = SpaceSign.ELLIPTIC
    relation = "s-orthogonal" if s_orthogonal else "orthogonal"
    panels = []
    for sigma_cycle in _SIGNS:
        comments = [f"pencils {relation} to the red cycle, cycle-space {sigma_cycle.letter}"]
        extras = [_extra_dot(b, "#222222", viewport)]
        if s_orthogonal and sigma_cycle == SpaceSign.PARABOLIC:
            doc = CycleSetDocument(sigma, [(red, CycleStyle(stroke=RED))], [], viewport)
            comments.append(
                "degenerate panel: every cycle is s-orthogonal in the parabolic cycle space"
            )
            text = render_svg(
                doc,
                comments,
                extras,
                annotations=[(-2.8, -2.6, "s-orthogonality is degenerate here")],
            )
            panels.append((sigma_cycle.letter, text))
            continue
        ctx = FSCcContext(sigma_cycle, 1)
        if s_orthogonal:
            ghost = s_ghost(red, sigma, sigma_cycle)
            base = ghost
        else:
            ghost = ghost_cycle(red, sigma, sigma_cycle)
            base = red
        cycles = [(red, CycleStyle(stroke=RED))]
        for member in orthogonal_family(base, b, ctx, 5, sigma):
            cycles.append((member, CycleStyle(stroke=BLUE)))
        for member in orthogonal_family(base, second, ctx, 4, sigma):
            cycles.append((member, CycleStyle(stroke=GREEN)))
        cycles.append((ghost, CycleStyle(stroke=RED, dash=True)))
        d = common_inverse_point(base, b, sigma, sigma_cycle)
        if d is not INFINITY:
            extras.append(_extra_dot(d, ORANGE, viewport))
        panels.append((sigma_cycle.letter, render_svg(
            CycleSetDocument(sigma, cycles, [], viewport), comments, extras
        )))
    return panels


def _circle(at, on) -> CycleQuadruple:
    """The zero-radius elliptic cycle at ``at``, its m lowered by the squared radius to ``on``."""
    from .metric import DirectedInterval, FromCentre, length  # only fig-distances loads metric

    e = SpaceSign.ELLIPTIC
    (radius_sq,) = length(DirectedInterval(at, on), FromCentre(e, e))
    k, l, n, m = zero_radius_cycle(at, FSCcContext(e)).components()
    return CycleQuadruple(k, l, n, m - radius_sq)


def _fig_distances(params: dict[str, str]):
    panels = []
    # (a) parabolic diameter vs real/adjoint roots
    viewport = (-3.0, 3.0, -2.0, 4.0)
    with_roots = CycleQuadruple(1.0, 0.0, 1.0, -3.0)
    without_roots = CycleQuadruple(1.0, 0.0, 1.0, 3.0)
    doc = CycleSetDocument(
        SpaceSign.PARABOLIC,
        [
            (with_roots, CycleStyle(stroke=BLUE)),
            (without_roots, CycleStyle(stroke=GREEN, dash=True)),
        ],
        [],
        viewport,
    )
    left, right = roots(with_roots)
    extras = [
        _extra_dot((left, 0.0), BLUE, viewport),
        _extra_dot((right, 0.0), BLUE, viewport),
        f'<line x1="{fmt12(left)}" y1="0" x2="{fmt12(right)}" y2="0" '
        f'stroke="{ORANGE}" stroke-width="{fmt12(2.5 * 6.0 / CANVAS_PX)}"/>',
    ]
    comments = ["parabolic diameter equals the gap between real roots"]
    panels.append(("a", render_svg(doc, comments, extras)))

    # (b) distance between two points as the extremal diameter
    viewport = (-3.0, 3.0, -2.0, 4.0)
    a_pt, b_pt = (-1.0, 1.0), (1.0, 2.0)
    cycles = []
    mid = ((a_pt[0] + b_pt[0]) / 2.0, (a_pt[1] + b_pt[1]) / 2.0)
    chord = (b_pt[0] - a_pt[0], b_pt[1] - a_pt[1])
    chord_len = math.hypot(*chord)
    normal = (-chord[1] / chord_len, chord[0] / chord_len)
    for offset in (-1.5, -0.75, 0.75, 1.5):
        c = (mid[0] + offset * normal[0], mid[1] + offset * normal[1])
        cycles.append((_circle(c, a_pt), CycleStyle(stroke=GREY)))
    cycles.append((_circle(mid, a_pt), CycleStyle(stroke=RED)))
    doc = CycleSetDocument(SpaceSign.ELLIPTIC, cycles, [a_pt, b_pt], viewport)
    comments = ["the minimal diameter over the pencil through both points"]
    panels.append(("b", render_svg(doc, comments)))

    # (c) perpendicular as the shortest route from a point to a line
    viewport = (-3.0, 3.0, -2.0, 4.0)
    apex = (0.0, 2.5)
    line_quad = CycleQuadruple(0.0, -0.5, 1.0, -1.0)  # v = u/2 - 1/2
    mirrored = invert_point(line_quad, apex, FSCcContext(SpaceSign.ELLIPTIC, 1))
    foot = ((apex[0] + mirrored.u) / 2.0, (apex[1] + mirrored.v) / 2.0)
    cycles = [(line_quad, CycleStyle(stroke=BLUE))]
    for f in (0.4, 0.7):
        on = (apex[0] + f * (foot[0] - apex[0]), apex[1] + f * (foot[1] - apex[1]))
        cycles.append((_circle(apex, on), CycleStyle(stroke=GREY, dash=True)))
    cycles.append((_circle(apex, foot), CycleStyle(stroke=RED)))
    extras = [
        f'<line x1="{fmt12(apex[0])}" y1="{fmt12(apex[1])}" x2="{fmt12(foot[0])}" '
        f'y2="{fmt12(foot[1])}" stroke="{ORANGE}" '
        f'stroke-width="{fmt12(2.5 * 6.0 / CANVAS_PX)}"/>',
        _extra_dot(foot, ORANGE, viewport),
    ]
    doc = CycleSetDocument(SpaceSign.ELLIPTIC, cycles, [apex], viewport)
    comments = ["shortest route to a line along the perpendicular"]
    panels.append(("c", render_svg(doc, comments, extras)))
    return panels


# name -> (builder, the parameters it reads)
RECIPES = {
    "fig-k-orbits": (_fig_k_orbits, ()),
    "fig-eph-cycle": (_fig_eph_cycle, ("cycle",)),
    "fig-zero-radius": (_fig_zero_radius, ("point",)),
    "fig-ortho1": (partial(_fig_ortho, s_orthogonal=False), ("cycle", "b")),
    "fig-ortho2": (partial(_fig_ortho, s_orthogonal=True), ("cycle", "b")),
    "fig-distances": (_fig_distances, ()),
}
RECIPE_NAMES = tuple(RECIPES)
