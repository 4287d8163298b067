"""The float rendering path: polyline formatting and the hyperbola sampler.

``polyline`` must format every coordinate exactly as ``fmt12`` does, as
the per-point formatting it replaced did.  The hyperbola sampler is
checked against the curve itself: every vertex on it, no polyline end
inside the viewport, a bounded number of points per branch, every
crossing of the curve with a grid of lines covered by the drawing, and
every chord within 1/16 px of the curve.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclekit import CycleKitError, CycleQuadruple, FigureRecipe, SpaceSign, run_figure
from cyclekit.numbers import fmt12
from cyclekit.svgout import (
    CANVAS_PX,
    HYPERBOLA_SAMPLES,
    CycleSetDocument,
    CycleStyle,
    _hyperbola_polylines,
    polyline,
    render_svg,
)

ATTRS = 'fill="none" stroke="#1f4e9c" stroke-width="0.017578125"'

COORDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-(10**300), 10**300),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)


@given(st.lists(st.tuples(COORDS, COORDS), max_size=20))
@example([(-0.0, -0.0), (0.0, -0.0)])
@example([(-5e-324, 1e308), (-1.7976931348623157e308, 0)])
@example([(0, -3), (Fraction(-1, 3), Fraction(0))])
def test_polyline_formats_like_fmt12(points):
    coords = " ".join(f"{fmt12(u)},{fmt12(v)}" for u, v in points)
    assert polyline(points, ATTRS) == f'<polyline points="{coords}" {ATTRS}/>'


def per_point_polyline(points, attrs):
    """``polyline`` as it formatted one point at a time, before the single ``%``."""
    coords = " ".join(["%.12g,%.12g" % (u + 0.0, v + 0.0) for u, v in points])
    return f'<polyline points="{coords}" {attrs}/>'


@given(st.lists(st.tuples(COORDS, COORDS), max_size=40))
@example([])
@example([(-0.0, -0.0), (0, Fraction(-1, 3))])
@example([(3, -7), (Fraction(0), -0.0), (Fraction(22, 7), 10**300)])
def test_polyline_matches_the_per_point_join(points):
    assert polyline(points, ATTRS) == per_point_polyline(points, ATTRS)


COMPONENT = st.floats(-8.0, 8.0)
NONZERO = COMPONENT.filter(lambda x: abs(x) > 1e-3)
TINY = st.floats(1e-300, 1e-6).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def viewports(draw):
    umin = draw(st.floats(-10.0, 9.0))
    vmin = draw(st.floats(-10.0, 9.0))
    return (umin, umin + draw(st.floats(1e-3, 20.0)), vmin, vmin + draw(st.floats(1e-3, 20.0)))


def hyperbola_texts(k, l, n, m, viewport):
    """The polylines of ``_hyperbola_polylines`` as lists of (u, v) coordinate texts."""
    doc = CycleSetDocument(SpaceSign.HYPERBOLIC, [], [], viewport)
    elements = _hyperbola_polylines(k, l, n, m, doc, ATTRS)
    if elements == ["<!-- empty hyperbolic locus -->"]:
        return []
    runs = []
    for element in elements:
        assert element.startswith('<polyline points="') and element.endswith(f'" {ATTRS}/>')
        runs.append([tuple(pair.split(",")) for pair in element.split('"')[1].split()])
    return runs


def hyperbola_runs(k, l, n, m, viewport):
    """The polylines of ``_hyperbola_polylines`` as lists of exact (u, v) points."""
    return [[tuple(map(Fraction, pair)) for pair in run] for run in hyperbola_texts(k, l, n, m, viewport)]


def distance_to_curve(k, l, n, m, u, v):
    """A bound on the distance from (u, v) to k(u^2 - v^2) - 2lu - 2nv + m = 0.

    Along a unit direction e, F(p + te) = F + t grad F.e + t^2 k(e_u^2 - e_v^2),
    so the least |t| at which it vanishes bounds the distance.  The
    directions tried are the gradient's, which gives the first-order
    distance, and the two axes, at least one of which meets the curve.  F
    and its gradient are exact, over the coefficients normalised by
    max(|k|, |l|, |n|, |m|), so the figure measures the drawing, not the
    check.
    """
    norm = Fraction(max(map(abs, (k, l, n, m))))
    k, l, n, m = (Fraction(x) / norm for x in (k, l, n, m))
    f = k * (u * u - v * v) - 2 * l * u - 2 * n * v + m
    if f == 0:
        return 0.0
    gu, gv = 2 * (k * u - l), -2 * (k * v + n)
    best = min(least_root(k, gu, f), least_root(-k, gv, f))
    if gu or gv:
        g_sq = gu * gu + gv * gv
        best = min(best, least_root(k * (gu * gu - gv * gv) / g_sq, math.sqrt(g_sq), f))
    return best


def least_root(q, g, f):
    """The least |t| with q t^2 + g t + f = 0, f != 0, or inf when there is none."""
    q, g, f = float(q), float(g), float(f)
    disc = g * g - 4 * q * f
    if disc < 0:
        return math.inf
    s = g + math.copysign(math.sqrt(disc), g)
    if s == 0:
        return math.inf
    return min(abs(2 * f / s), abs(s / (2 * q)) if q else math.inf)


def assert_hyperbola_drawn(k, l, n, m, viewport, covered=True):
    """The drawing of the hyperbola (k, l, n, m) on the viewport is sound and complete.

    * No coordinate reads -0: the sampler's runs skip the 0.0 that
      ``polyline`` adds to turn -0.0 into 0.0, so none may be -0.0.
    * Every vertex lies on the curve to within 0.1 px, allowing for the
      12-digit formatting of large coordinates.
    * No polyline ends inside the viewport: each run ends where the curve
      leaves the clip box, u in the viewport and v within one viewport
      height of it.
    * Each branch, the points on its side of the line through the centre
      that parts the two, has at most HYPERBOLA_SAMPLES points; the
      light cone (n^2 - l^2 + mk = 0) is at most two segments.
    * With ``covered``, the curve's crossings of 15 vertical and 15
      horizontal lines through the viewport each lie within 0.5 px of a
      drawn segment, in pixels of the viewport's longer side: a branch
      has at most a fixed number of samples, however tall the canvas.  The
      crossings are found in floats, so tiny k is left out.
    """
    umin, umax, vmin, vmax = viewport
    px = (umax - umin) / CANVAS_PX
    texts = hyperbola_texts(k, l, n, m, viewport)
    assert not any(x == "-0" for run in texts for pair in run for x in pair), "a coordinate reads -0"
    runs = [[tuple(map(Fraction, pair)) for pair in run] for run in texts]
    for run in runs:
        assert len(run) >= 2
        for u, v in run:
            slack = 0.1 * px + 1e-11 * float(max(abs(u), abs(v)))
            assert distance_to_curve(k, l, n, m, u, v) <= slack
        for u, v in (run[0], run[-1]):
            inset = 1e-3 * px + 1e-11 * float(max(abs(u), abs(v)))
            inside = umin + inset < u < umax - inset and vmin + inset < v < vmax - inset
            assert not inside, f"a polyline ends inside the viewport at ({float(u)}, {float(v)})"
    det = Fraction(n) ** 2 - Fraction(l) ** 2 + Fraction(m) * Fraction(k)
    if det == 0:
        assert len(runs) <= 2 and all(len(run) == 2 for run in runs)
    else:
        # the branches lie on either side of u = l/k (det < 0) or v = -n/k (det > 0)
        side = (lambda u, v: k * u > l) if det < 0 else (lambda u, v: k * v + n > 0)
        for branch in (True, False):
            count = sum(1 for run in runs for u, v in run if side(u, v) == branch)
            assert count <= HYPERBOLA_SAMPLES
    if covered:
        long_px = max(umax - umin, vmax - vmin) / CANVAS_PX
        segments = [(p, q) for run in runs for p, q in zip(run, run[1:])]
        for point in crossings(k, l, n, m, viewport):
            gap = min((segment_distance(point, p, q) for p, q in segments), default=math.inf)
            assert gap <= 0.5 * long_px, f"the curve at {point} is {gap / long_px:.2f} px off"


def crossings(k, l, n, m, viewport):
    """Points of the curve inside the viewport on 15 vertical and 15 horizontal lines."""
    umin, umax, vmin, vmax = viewport
    points = []
    for i in range(1, 16):
        u = umin + (umax - umin) * i / 16
        v = vmin + (vmax - vmin) * i / 16
        # k v^2 + 2n v - (k u^2 - 2l u + m) = 0 and k u^2 - 2l u + (m - k v^2 - 2n v) = 0
        for w in float_roots(k, n, -(k * u * u - 2 * l * u + m)):
            points.append((u, w))
        for w in float_roots(k, -l, m - k * v * v - 2 * n * v):
            points.append((w, v))
    return [(u, v) for u, v in points if umin < u < umax and vmin < v < vmax]


def float_roots(a, b, c):
    """The real roots of a x^2 + 2b x + c = 0, a != 0, by the textbook formula."""
    disc = b * b - a * c
    if disc < 0:
        return []
    return [(-b - math.sqrt(disc)) / a, (-b + math.sqrt(disc)) / a]


def segment_distance(point, p, q):
    u, v = point
    (u1, v1), (u2, v2) = (tuple(map(float, p)), tuple(map(float, q)))
    du, dv = u2 - u1, v2 - v1
    length_sq = du * du + dv * dv
    t = 0.0 if length_sq == 0 else max(0.0, min(1.0, ((u - u1) * du + (v - v1) * dv) / length_sq))
    return math.hypot(u - u1 - t * du, v - v1 - t * dv)


@given(NONZERO, COMPONENT, COMPONENT, COMPONENT, viewports())
@example(1.0, 0.0, 0.0, -1.0, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, 0.0, 1.0, 0.0, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, -5.0, 0.5, 3.0, (-3.0, 3.0, -3.0, 3.0))  # vertex u = l/k left of the viewport
@example(1.0, 5.0, 0.5, 3.0, (-3.0, 3.0, -3.0, 3.0))  # vertex right of the viewport
@example(-2.0, 6.0, -0.5, 4.0, (-3.0, 3.0, -3.0, 3.0))  # k < 0, vertex right of the viewport
@example(1.0, 0.0, 0.5, -20.0, (-3.0, 3.0, -3.0, 3.0))  # branches left and right of the viewport
@example(1.0, 0.0, 0.0, 1.0, (-3.0, 3.0, -3.0, 3.0))  # R < 0: the branches open along v
@example(1.0, -4.0, 0.0, 0.0, (-3.0, 3.0, -3.0, 3.0))  # vertex left of the viewport: two arms
@example(1.0, 0.0, 0.0, 1.6440408103807988e-126, (0.0, 1.0, 0.0, 1.0))  # vertex by the centre
def test_hyperbola_is_drawn_on_the_curve_to_the_clip_box(k, l, n, m, viewport):
    assert_hyperbola_drawn(k, l, n, m, viewport)


def chord_gaps(k, l, n, m, viewport):
    """The distance to the curve, in pixels of the viewport's longer side, of points on every drawn chord.

    Each chord is measured at a quarter, half and three quarters of its
    length by ``distance_to_curve``, exactly from the formatted vertices.
    """
    long_px = max(viewport[1] - viewport[0], viewport[3] - viewport[2]) / CANVAS_PX
    return [
        (distance_to_curve(k, l, n, m, u + t * (x - u), v + t * (y - v)) / long_px, (u, v), (x, y))
        for run in hyperbola_runs(k, l, n, m, viewport)
        for (u, v), (x, y) in zip(run, run[1:])
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    ]


@given(NONZERO, COMPONENT, COMPONENT, COMPONENT, viewports())
# the ten hyperbolas of the figure recipes at their default parameters
@example(0.675463180551151, -0.7373937155412457, 0.0, -0.675463180551151, (-3.0, 3.0, -3.0, 3.0))  # fig-k-orbits
@example(0.9995736030415053, -0.02919952230128897, 0.0, -0.9995736030415053, (-3.0, 3.0, -3.0, 3.0))
@example(0.7173560908995228, 0.6967067093471655, 0.0, -0.7173560908995228, (-3.0, 3.0, -3.0, 3.0))
@example(-0.7173560908995228, 0.6967067093471655, 0.0, 0.7173560908995228, (-3.0, 3.0, -3.0, 3.0))
@example(-0.9995736030415053, -0.02919952230128897, 0.0, 0.9995736030415053, (-3.0, 3.0, -3.0, 3.0))
@example(-0.675463180551151, -0.7373937155412457, 0.0, 0.675463180551151, (-3.0, 3.0, -3.0, 3.0))
@example(2.0, 1.0, 2.0, 1.0, (-3.0, 4.0, -3.0, 3.0))  # fig-eph-cycle
@example(1.0, 0.5, 1.0, 1.25, (-2.0, 3.0, -2.0, 3.0))  # fig-zero-radius
@example(1.0, 0.5, 1.0, 0.25, (-2.0, 3.0, -2.0, 3.0))
@example(1.0, 0.5, 1.0, -0.75, (-2.0, 3.0, -2.0, 3.0))
def test_every_chord_lies_within_a_sixteenth_of_a_pixel_of_the_hyperbola(k, l, n, m, viewport):
    """The sampler bounds each chord's sagitta by 1/16 px where a branch needs fewer than its
    cap of steps; on a canvas taller than wide the cap binds first, so the pixel is the longer side's."""
    gap, p, q = max(chord_gaps(k, l, n, m, viewport), default=(0.0, None, None))
    assert gap <= 1 / 16, f"the chord {p}-{q} is {gap:.3f} px off"


@given(NONZERO, COMPONENT, COMPONENT, viewports())
@example(1.0, 0.5, 0.5, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, -0.0029325513196480912, 0.5, (-3.0, 3.0, -3.0, 3.0))
@example(3.0, -0.02639296187683282, 0.75, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, 0.0, 0.0, (-3.0, 3.0, -3.0, 3.0))  # the light cone through the origin
def test_zero_radius_hyperbola_is_drawn_on_the_curve(k, l, n, viewport):
    """m = (l^2 - n^2)/k, rounded: the light cone or a hyperbola with a tiny radius."""
    assert_hyperbola_drawn(k, l, n, (l * l - n * n) / k, viewport)


def assert_renders_or_leaves_the_float_range(k, l, n, m, viewport):
    """``render_svg`` returns, or raises CycleKitError; any other exception fails."""
    doc = CycleSetDocument(
        SpaceSign.HYPERBOLIC, [(CycleQuadruple(k, l, n, m), CycleStyle())], [], viewport
    )
    try:
        render_svg(doc)
    except CycleKitError:
        pass


@given(TINY, COMPONENT, COMPONENT, COMPONENT, viewports())
@example(5e-324, 1.0, 0.0, 0.5, (-3.0, 3.0, -3.0, 3.0))  # n = 0 and l/k overflows to inf
@example(-5e-324, 1.0, 0.0, -0.5, (-3.0, 3.0, -3.0, 3.0))  # l/k overflows to -inf
@example(1e-300, -8.0, 0.0, 2.0, (-3.0, 3.0, -3.0, 3.0))  # l/k = -8e300, still finite
@example(9.784743093855066e-184, 0.0, 0.0, 0.0, (0.0, 4.125, 0.0, 1.0))  # the light cone
@example(1e-300, 1.0, 1.0, 0.0, (0.0, 1.0, 0.0, 1.0))  # the light cone's near line u + v = 0
def test_tiny_k_hyperbola_is_drawn_on_the_curve(k, l, n, m, viewport):
    """The far branch leaves the box; the near one is all but the line -2lu - 2nv + m = 0."""
    assert_hyperbola_drawn(k, l, n, m, viewport, covered=False)
    assert_renders_or_leaves_the_float_range(k, l, n, m, viewport)


def test_tiny_k_draws_the_near_line():
    """(5e-324, 1, 0, 1/2) is u = 1/4 to within the float range; the far branch is beyond it."""
    [run] = hyperbola_runs(5e-324, 1.0, 0.0, 0.5, (-3.0, 3.0, -3.0, 3.0))
    assert {u for u, v in run} == {Fraction(1, 4)}
    assert (run[0][1], run[-1][1]) == (-9, 9)


@given(st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.integers(-8, 8), st.floats(0.5, 8.0))
@example(0.5, 0.0, 0, 1.0)
def test_hyperbola_far_off_centre_is_drawn_on_the_curve(du, dv, dm, width):
    """Near u = 1e8, k u^2 - 2lu + m cancels in floats; the drawing must not.

    The cycle is (u - l)^2 - v^2 = l^2 - m with l = 1e8 + du and a float
    m near l^2, whose spacing there is 2, so l^2 - m is a few units.
    """
    l = 1e8 + du
    m = float(round(l * l)) + 2 * dm
    viewport = (1e8 - width, 1e8 + width, dv - width, dv + width)
    assert_hyperbola_drawn(1.0, l, 0.0, m, viewport, covered=False)
    assert_renders_or_leaves_the_float_range(1.0, l, 0.0, m, viewport)


def test_hyperbola_touching_the_viewport_at_its_vertices_draws_nothing():
    """m = l^2 - 1/16 rounds to l^2 - 1/4 at l = 1e8 + 1/2, so (u - l)^2 - v^2 = 1/4.

    Its vertices (1e8, 0) and (1e8 + 1, 0) lie on the viewport's u edges,
    so each branch meets the clip box in a single point.
    """
    l = 1e8 + 0.5
    k, n, m, viewport = 1.0, 0.0, l * l - 1 / 16, (1e8, 1e8 + 1, -1.0, 1.0)
    assert Fraction(l) ** 2 - Fraction(m) == Fraction(1, 4)
    assert hyperbola_runs(k, l, n, m, viewport) == []


def test_a_viewport_whose_pixel_underflows_is_drawn():
    """A viewport 5e-324 wide has a pixel of 0.0, which no chord bound can meet: the sampler takes the cap."""
    for quad in ((1.0, 0.0, 1.0, 0.0), (1.0, -1.0, 0.0, 0.0)):
        doc = CycleSetDocument(
            SpaceSign.HYPERBOLIC, [(CycleQuadruple(*quad), CycleStyle())], [], (0.0, 5e-324, 0.0, 5e-324)
        )
        assert "<polyline" in render_svg(doc)


NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])")
PARAMETERS = {
    "fig-eph-cycle": st.builds(
        lambda k, l, n, m: {"cycle": f"{k},{l},{n},{m}"},
        st.sampled_from([1, 2]),
        st.sampled_from([-1, -0.5, 0, 0.5, 1]),
        st.sampled_from([-2, -1, 1, 2]),
        st.sampled_from([-1, -0.5, 0, 0.5, 1]),
    ),
    "fig-zero-radius": st.builds(
        lambda u, v: {"point": f"{u:.2f},{v:.2f}"}, st.floats(-1.0, 1.5), st.floats(0.3, 1.5)
    ),
    "fig-ortho1": st.builds(
        lambda u, v: {"b": f"{u:.2f},{v:.2f}"}, st.floats(0.6, 1.4), st.floats(0.6, 1.4)
    ),
}
PARAMETERS["fig-ortho2"] = PARAMETERS["fig-ortho1"]


@pytest.mark.parametrize(
    "name",
    ["fig-k-orbits", "fig-eph-cycle", "fig-zero-radius", "fig-ortho1", "fig-ortho2", "fig-distances"],
)
@settings(max_examples=5)
@given(data=st.data())
def test_recipe_renders_identical_finite_bytes(tmp_path_factory, name, data):
    params = data.draw(PARAMETERS.get(name, st.just({})))
    texts = []
    for _ in range(2):
        out_dir = tmp_path_factory.mktemp(name)
        paths = run_figure(FigureRecipe(name, params), str(out_dir))
        texts.append([Path(path).read_bytes() for path in paths])
    assert texts[0] == texts[1]
    for blob in texts[0]:
        assert NON_FINITE.search(blob.decode("utf-8")) is None
