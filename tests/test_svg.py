import json
import math
import os
import xml.dom.minidom

import pytest

from cyclekit import CycleQuadruple, Degenerate, SpaceSign
from cyclekit.figures import RECIPE_NAMES, FigureRecipe, run_figure
from cyclekit.svgout import (
    CycleSetDocument,
    CycleStyle,
    document_to_json,
    parse_document,
    render_svg,
    write_text,
)
from golden_panels import OTHER_PARAMETERS  # parameters other than the defaults

E, P, H = SpaceSign.ELLIPTIC, SpaceSign.PARABOLIC, SpaceSign.HYPERBOLIC

UNIT_DOC = CycleSetDocument(
    E, [(CycleQuadruple(1.0, 0.0, 0.0, -1.0), CycleStyle())], [], (-2.0, 2.0, -2.0, 2.0)
)


def test_unit_circle_renders_as_circle_element():
    svg = render_svg(UNIT_DOC)
    assert '<circle cx="0" cy="0" r="1"' in svg
    dom = xml.dom.minidom.parseString(svg)
    root = dom.documentElement
    assert root.tagName == "svg"
    assert root.getAttribute("viewBox") == "-2 -2 4 4"
    assert root.getAttribute("width") and root.getAttribute("height")


def test_unit_quadruple_parabolically_is_vertical_line_pair():
    doc = CycleSetDocument(
        P, [(CycleQuadruple(1.0, 0.0, 0.0, -1.0), CycleStyle())], [], (-2.0, 2.0, -2.0, 2.0)
    )
    svg = render_svg(doc)
    assert svg.count("<line") >= 4  # two axes plus the two locus lines
    assert 'x1="1"' in svg and 'x1="-1"' in svg


def test_parabola_is_quadratic_bezier():
    doc = CycleSetDocument(
        P, [(CycleQuadruple(1.0, 0.0, 1.0, 0.0), CycleStyle())], [], (-2.0, 2.0, -1.0, 3.0)
    )
    svg = render_svg(doc)
    assert "<path" in svg and " Q " in svg
    # exactness of the Bezier: its midpoint must lie on v = u^2/2
    # midpoint of quadratic Bezier at t=1/2: (P0 + 2Pc + P2)/4
    p0 = (-2.0, 2.0)
    p2 = (2.0, 2.0)
    pc = (0.0, 2.0 + (-2.0) * 2.0)
    mid = ((p0[0] + 2 * pc[0] + p2[0]) / 4, (p0[1] + 2 * pc[1] + p2[1]) / 4)
    assert abs(mid[1] - mid[0] ** 2 / 2.0) < 1e-12


def test_hyperbola_sampling_density():
    # u^2 - v^2 = 1 opens along u (R > 0), u^2 - v^2 = -1 along v (R < 0)
    for m in (-1.0, 1.0):
        doc = CycleSetDocument(
            H, [(CycleQuadruple(1.0, 0.0, 0.0, m), CycleStyle())], [], (-3.0, 3.0, -3.0, 3.0)
        )
        svg = render_svg(doc)
        assert svg.count("<polyline") == 2
        for line in svg.splitlines():
            if "<polyline" in line:
                coords = line.split('points="')[1].split('"')[0].split()
                assert len(coords) >= 128


def test_zero_radius_dot():
    doc = CycleSetDocument(
        E, [(CycleQuadruple(1.0, 1.0, 2.0, 5.0), CycleStyle(stroke="#aa0000"))], [], (-3.0, 3.0, -3.0, 3.0)
    )
    svg = render_svg(doc)
    assert 'cx="1" cy="2"' in svg and 'fill="#aa0000"' in svg


@pytest.mark.parametrize("sigma, comment", [(E, "empty elliptic locus"), (P, "empty parabolic locus")])
def test_a_locus_with_no_real_point_is_an_svg_comment(sigma, comment):
    quad = CycleQuadruple(1.0, 0.0, 0.0, 1.0)  # u^2 - sigma v^2 = -1: no point for sigma = -1 or 0
    svg = render_svg(CycleSetDocument(sigma, [(quad, CycleStyle())], [], (-2.0, 2.0, -2.0, 2.0)))
    assert f"<!-- {comment} -->" in svg
    assert "<circle" not in svg and "<path" not in svg and svg.count("<line") == 2  # the axes
    xml.dom.minidom.parseString(svg)


def test_empty_document_is_valid_svg():
    doc = CycleSetDocument(E, [], [], (-1.0, 1.0, -1.0, 1.0))
    xml.dom.minidom.parseString(render_svg(doc))


def test_degenerate_quadruple_rejected():
    doc = CycleSetDocument(
        E, [(CycleQuadruple(0.0, 0.0, 0.0, 1.0), CycleStyle())], [], (-1.0, 1.0, -1.0, 1.0)
    )
    with pytest.raises(Degenerate):
        render_svg(doc)


def test_render_is_deterministic():
    doc = CycleSetDocument(
        H,
        [
            (CycleQuadruple(1.0, 0.5, -0.25, -1.0), CycleStyle(stroke="#123456", dash=True)),
            (CycleQuadruple(0.0, 1.0, 1.0, 0.5), CycleStyle()),
        ],
        [(0.25, 0.75)],
        (-3.0, 3.0, -2.0, 2.0),
    )
    assert render_svg(doc) == render_svg(doc)


def test_json_roundtrip_with_fraction_strings():
    text = json.dumps(
        {
            "sigma": -1,
            "viewport": [-2, 2, -2, 2],
            "cycles": [
                {"k": 1, "l": "1/2", "n": 0, "m": "-3/4", "style": {"stroke": "#000", "dash": True}}
            ],
            "points": [["1/3", 0.5]],
        }
    )
    doc = parse_document(text, exact=True)
    from fractions import Fraction

    assert doc.cycles[0][0].l == Fraction(1, 2)
    assert doc.cycles[0][1].dash is True
    back = json.loads(document_to_json(doc))
    assert back["cycles"][0]["l"] == "1/2"
    redoc = parse_document(document_to_json(doc), exact=True)
    assert redoc.cycles[0][0] == doc.cycles[0][0]


def test_bad_viewport_rejected():
    with pytest.raises(ValueError):
        CycleSetDocument(E, [], [], (1.0, -1.0, 0.0, 1.0))


def test_circle_roundtrip_points_satisfy_equation():
    svg = render_svg(UNIT_DOC)
    for line in svg.splitlines():
        if "<circle" in line and 'fill="none"' in line:
            cx = float(line.split('cx="')[1].split('"')[0])
            cy = float(line.split('cy="')[1].split('"')[0])
            r = float(line.split('r="')[1].split('"')[0])
            for i in range(16):
                theta = 2 * math.pi * i / 16
                u = cx + r * math.cos(theta)
                v = cy + r * math.sin(theta)
                assert abs(u * u + v * v - 1.0) < 1e-9


@pytest.mark.parametrize("name", RECIPE_NAMES)
def test_all_recipes_render_wellformed_deterministic(tmp_path, name):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths1 = run_figure(FigureRecipe(name), str(out1))
    paths2 = run_figure(FigureRecipe(name), str(out2))
    assert [p.split("/")[-1] for p in paths1] == [p.split("/")[-1] for p in paths2]
    for p1, p2 in zip(paths1, paths2):
        data1 = open(p1, "rb").read()
        data2 = open(p2, "rb").read()
        assert data1 == data2
        dom = xml.dom.minidom.parseString(data1)
        root = dom.documentElement
        assert root.getAttribute("viewBox")
        assert root.getAttribute("width") and root.getAttribute("height")


def test_unknown_recipe_rejected():
    from cyclekit import UsageError

    with pytest.raises(UsageError):
        FigureRecipe("fig-unknown")
    with pytest.raises(UsageError):
        FigureRecipe("fig-ortho1", {"bogus": "1"})


def test_zero_radius_recipe_panel_count():
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        paths = run_figure(FigureRecipe("fig-zero-radius"), d)
        assert len(paths) == 9


@pytest.mark.parametrize("name", RECIPE_NAMES)
def test_rerender_over_existing_panels_matches_a_fresh_directory(tmp_path, name):
    reused = tmp_path / "reused"
    run_figure(FigureRecipe(name, OTHER_PARAMETERS.get(name, {})), str(reused))
    paths = run_figure(FigureRecipe(name), str(reused))
    fresh = run_figure(FigureRecipe(name), str(tmp_path / "fresh"))
    assert sorted(os.listdir(reused)) == sorted(os.listdir(tmp_path / "fresh"))
    for old, new in zip(paths, fresh):
        assert open(old, "rb").read() == open(new, "rb").read()


def test_write_text_cuts_a_longer_old_file_to_the_new_length(tmp_path):
    path = tmp_path / "out.svg"
    path.write_bytes(b"x" * 10_000)
    write_text(str(path), "<svg>\u00e9</svg>\n")
    assert path.read_bytes() == "<svg>\u00e9</svg>\n".encode("utf-8")
    write_text(str(path), "<svg>" + "y" * 50 + "</svg>\n")
    assert path.read_bytes() == ("<svg>" + "y" * 50 + "</svg>\n").encode("utf-8")


def test_write_text_keeps_inode_mode_hard_links_and_symlink_target(tmp_path):
    path = tmp_path / "out.svg"
    path.write_bytes(b"old contents, longer than the new ones")
    os.chmod(path, 0o640)
    link = tmp_path / "hard.svg"
    os.link(path, link)
    alias = tmp_path / "alias.svg"
    os.symlink(path.name, alias)
    before = os.stat(path)
    write_text(str(alias), "new\n")
    after = os.stat(path)
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    assert os.readlink(alias) == path.name
    assert path.read_bytes() == link.read_bytes() == b"new\n"


def test_write_text_failing_half_way_leaves_no_old_tail(tmp_path, monkeypatch):
    path = tmp_path / "out.svg"
    path.write_bytes(b"old " * 5_000)
    text = render_svg(UNIT_DOC)
    real_write = os.write
    calls = []

    def half_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", half_then_fail)
    with pytest.raises(OSError):
        write_text(str(path), text)
    monkeypatch.undo()
    data = text.encode("utf-8")
    assert path.read_bytes() == data[: len(data) // 2]
