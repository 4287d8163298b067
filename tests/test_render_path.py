"""The float rendering path against the per-point formatting and scan it replaced.

``polyline`` must format every coordinate exactly as ``fmt12`` does, and
the hyperbola sampler must emit the same elements as the scan-based
sampler kept below as the oracle: a 1,024-point feasibility scan, then
160 samples per real interval with the discriminant evaluated again at
every sample, once per branch.  The one accepted difference is far
off-centre, where rounding makes the discriminant flicker along the grid.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclekit import FigureRecipe, SpaceSign, run_figure
from cyclekit.numbers import fmt12
from cyclekit.svgout import HYPERBOLA_SAMPLES, CycleSetDocument, _hyperbola_polylines, polyline

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


def scan_hyperbola_polylines(k, l, n, m, doc, attrs):
    """The scan-based sampler the one-grid sampler replaced, kept as the oracle."""
    umin, umax, vmin, vmax = doc.viewport
    span = vmax - vmin

    def disc_at(u):
        return n * n + k * (k * u * u - 2.0 * l * u + m)

    scan = 1024
    feasible = [umin + (umax - umin) * i / (scan - 1) for i in range(scan)]
    intervals = []
    start = None
    for u in feasible:
        if disc_at(u) >= 0:
            if start is None:
                start = u
            end = u
        elif start is not None:
            intervals.append((start, end))
            start = None
    if start is not None:
        intervals.append((start, end))

    elements = []
    for branch in (1.0, -1.0):
        for ua, ub in intervals:
            if ub <= ua:
                continue
            run = []
            for i in range(HYPERBOLA_SAMPLES):
                u = ua + (ub - ua) * i / (HYPERBOLA_SAMPLES - 1)
                disc = disc_at(u)
                if disc < 0:
                    continue
                v = (-n + branch * math.sqrt(disc)) / k
                if vmin - span <= v <= vmax + span:
                    run.append((u, v))
            if len(run) < 2:
                continue
            pts = " ".join(f"{fmt12(u)},{fmt12(v)}" for u, v in run)
            elements.append(f'<polyline points="{pts}" {attrs}/>')
    if not elements:
        elements.append("<!-- empty hyperbolic locus -->")
    return elements


COMPONENT = st.floats(-8.0, 8.0)
NONZERO = COMPONENT.filter(lambda x: abs(x) > 1e-3)
TINY = st.floats(1e-300, 1e-6).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def viewports(draw):
    umin = draw(st.floats(-10.0, 9.0))
    vmin = draw(st.floats(-10.0, 9.0))
    return (umin, umin + draw(st.floats(1e-3, 20.0)), vmin, vmin + draw(st.floats(1e-3, 20.0)))


def assert_same_hyperbola(k, l, n, m, viewport):
    doc = CycleSetDocument(SpaceSign.HYPERBOLIC, [], [], viewport)
    got = _hyperbola_polylines(k, l, n, m, doc, ATTRS)
    assert got == scan_hyperbola_polylines(k, l, n, m, doc, ATTRS)


@given(NONZERO, COMPONENT, COMPONENT, COMPONENT, viewports())
@example(1.0, 0.0, 0.0, -1.0, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, 0.0, 1.0, 0.0, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, -5.0, 0.5, 3.0, (-3.0, 3.0, -3.0, 3.0))  # vertex u = l/k left of the viewport
@example(1.0, 5.0, 0.5, 3.0, (-3.0, 3.0, -3.0, 3.0))  # vertex right of the viewport
@example(-2.0, 6.0, -0.5, 4.0, (-3.0, 3.0, -3.0, 3.0))  # k < 0, vertex right of the viewport
@example(1.0, 0.0, 0.5, -20.0, (-3.0, 3.0, -3.0, 3.0))  # disc < 0 on the whole grid
def test_hyperbola_matches_scan(k, l, n, m, viewport):
    assert_same_hyperbola(k, l, n, m, viewport)


@given(NONZERO, COMPONENT, COMPONENT, viewports())
@example(1.0, 0.5, 0.5, (-3.0, 3.0, -3.0, 3.0))
@example(1.0, -0.0029325513196480912, 0.5, (-3.0, 3.0, -3.0, 3.0))  # vertex on grid index 511
# vertex on grid index 510, where disc rounds below 0: runs [0, 510) and [511, 1024)
@example(3.0, -0.02639296187683282, 0.75, (-3.0, 3.0, -3.0, 3.0))
def test_zero_radius_hyperbola_matches_scan(k, l, n, viewport):
    """m = (l^2 - n^2)/k: the discriminant has a double root at u = l/k."""
    assert_same_hyperbola(k, l, n, (l * l - n * n) / k, viewport)


@given(TINY, COMPONENT, COMPONENT, COMPONENT, viewports())
@example(5e-324, 1.0, 0.0, 0.5, (-3.0, 3.0, -3.0, 3.0))  # n = 0 and l/k overflows to inf
@example(-5e-324, 1.0, 0.0, -0.5, (-3.0, 3.0, -3.0, 3.0))  # l/k overflows to -inf
@example(1e-300, -8.0, 0.0, 2.0, (-3.0, 3.0, -3.0, 3.0))  # l/k = -8e300, still finite
def test_tiny_k_hyperbola_matches_scan(k, l, n, m, viewport):
    assert_same_hyperbola(k, l, n, m, viewport)


def test_hyperbola_far_off_centre_keeps_one_prefix_and_one_suffix():
    """The accepted difference from the scan.

    Near u = 1e8, k u^2 - 2 l u cancels, and on a viewport one unit wide
    the float discriminant of (u - l)^2 - 1/16 is rounding noise: the scan
    splits the grid into 203 runs, 406 polylines.  The bisection keeps one
    prefix and one suffix run, 4 polylines, and so may join samples across
    a gap that the scan splits; every sample it keeps has disc >= 0.
    """
    l = 1e8 + 0.5
    k, n, m, viewport = 1.0, 0.0, l * l - 1 / 16, (1e8, 1e8 + 1, -1.0, 1.0)
    doc = CycleSetDocument(SpaceSign.HYPERBOLIC, [], [], viewport)
    assert len(scan_hyperbola_polylines(k, l, n, m, doc, ATTRS)) == 406
    assert len(_hyperbola_polylines(k, l, n, m, doc, ATTRS)) == 4


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
