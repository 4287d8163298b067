"""Bad input at the CLI and document boundary: exit code, one stderr line, no output."""

import json
import os
import sys
import time

import pytest

from cyclekit.cli import cli_main
from cyclekit.figures import RECIPE_NAMES

GOOD_DOC = {
    "sigma": -1,
    "viewport": [-3, 3, -3, 3],
    "cycles": [{"k": 1, "l": 0, "n": 0, "m": -1}],
    "points": [[1, 1]],
}


def run(capsys, argv):
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return code, err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "ortho", "--sigma-cycle", "e", "0,0,0,0", "1,0,1,0"],
        ["check", "ortho", "--sigma-cycle", "e", "1/0,0,1,0", "1,0,1,0"],
        ["distance", "--sigma", "e", "--float", "1e400,0", "0,0"],
        ["orbit", "--base", "0,1", "--sigma", "e", "--params", "a,1"],
        ["conformal", "--g", "2,0,0,0.5", "--y", "0.2,1.1", "--kind", "distance", "--sigma", "e", "--t", "nan"],
        ["conformal", "--g", "2,0,0,0.5", "--y", "0.2,1.1", "--kind", "distance", "--sigma", "e", "--t", "inf"],
        ["conformal", "--g", "2,0,0,0.5", "--y", "0.2,1.1", "--kind", "distance", "--sigma", "e", "--dirs", "0"],
        ["conformal", "--g", "2,0,0,0.5", "--y", "0.2,1.1", "--kind", "distance", "--sigma", "e", "--dirs", "-2"],
    ],
)
def test_bad_argv_is_a_usage_error(capsys, argv):
    code, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "ortho", "--sigma-cycle", "e", "--s", "-1", "1,0,1,0", "1,0,-1,-2"],
        ["check", "ortho", "--s", "-1", "1,0,1,0", "1,0,-1,-2"],
        ["invert", "--sigma-cycle", "e", "--s", "-1", "1,0,0,-1", "0,2"],
        ["invert", "--s", "-1", "1,0,0,-1", "0,2"],
        ["transform", "--g", "1,1,0,1", "--s", "-1", "--in", "DOC", "--out", "OUT"],
    ],
)
def test_no_s_option_and_no_abbreviated_option(capsys, tmp_path, argv):
    """No command reads the FSCc parameter s, and --s is no prefix of --sigma-cycle."""
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [str(doc) if a == "DOC" else str(out) if a == "OUT" else a for a in argv]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_singular_group_element_is_a_usage_error(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    out = tmp_path / "out.json"
    code, err = run(capsys, ["transform", "--g", "1,0,0,0", "--in", str(doc), "--out", str(out)])
    assert code == 1
    assert err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "param",
    [
        "cycle=a,b,c,d",
        "cycle=0,0,0,0",
        "cycle=1,0,nan,0",
        "cycle=1,0,1",
        "point=1,inf",
    ],
)
def test_bad_figure_parameter_writes_nothing(capsys, tmp_path, param):
    name = "fig-zero-radius" if param.startswith("point") else "fig-eph-cycle"
    out_dir = tmp_path / "figs"
    code, err = run(capsys, ["figure", name, "--out", str(out_dir), "--param", param])
    assert code == 1
    assert err.startswith("usage error: ")
    assert not out_dir.exists()


def test_unknown_figure_is_a_usage_error_naming_every_recipe(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, err = run(capsys, ["figure", "no-such-figure", "--out", str(out_dir)])
    assert code == 1
    assert err.startswith("usage error: unknown figure 'no-such-figure'")
    assert all(name in err for name in RECIPE_NAMES) and len(RECIPE_NAMES) == 6
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, words",
    [
        ('{"sigma": -1, "viewport": [3, -3, -3, 3], "cycles": []}', ["viewport"]),
        ('{"sigma": -1, "viewport": [-3, Infinity, -3, 3], "cycles": []}', ["viewport", "finite"]),
        ('{"sigma": -1, "viewport": [-3, 3, NaN, 3], "cycles": []}', ["viewport", "finite"]),
        ('{"sigma": -1, "viewport": [-3, 3, -3]}', ["viewport"]),
        ('{"viewport": [-3, 3, -3, 3]}', ["sigma"]),
        ('{"sigma": 7, "viewport": [-3, 3, -3, 3]}', ["sigma"]),
        ('[1, 2]', ["object"]),
        (
            '{"sigma": -1, "viewport": [-3, 3, -3, 3], "cycles": [{"k": 1, "n": 0, "m": -1}]}',
            ["cycle 0", "'l'"],
        ),
        (
            '{"sigma": -1, "viewport": [-3, 3, -3, 3], "cycles": [{"k": 1, "l": 0, "n": 0, "m": -1},'
            ' {"k": 0, "l": 0, "n": 0, "m": 0}]}',
            ["cycle 1", "zero quadruple"],
        ),
        (
            '{"sigma": -1, "viewport": [-3, 3, -3, 3], "cycles": [{"k": 1, "l": "1/0", "n": 0, "m": -1}]}',
            ["cycle 0"],
        ),
        (
            '{"sigma": -1, "viewport": [-3, 3, -3, 3], "cycles": [{"k": 1, "l": 0, "n": 0, "m": -1,'
            ' "style": {"stroke": "red\\" onload=\\"x"}}]}',
            ["cycle 0", "stroke"],
        ),
        ('{"sigma": -1, "viewport": [-3, 3, -3, 3], "points": [[1, Infinity]]}', ["point 0"]),
        ('{"sigma": -1, "viewport": [-3, 3, -3, 3], "points": [[1, true]]}', ["point 0"]),
        ('{"sigma": -1, "viewport": [-3, 3, -3, 3], "points": [[1]]}', ["point 0"]),
    ],
)
def test_bad_document_exits_3_naming_the_entry(capsys, tmp_path, text, words):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    out = tmp_path / "out.svg"
    code, err = run(capsys, ["draw", "--in", str(doc), "--out", str(out)])
    assert code == 3
    for word in words:
        assert word in err
    assert not out.exists()


def test_bad_document_is_one_document_error_line(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"sigma": -1, "viewport": [-3, 3, -3, 3], "cycles": [{"k": 1}]}', encoding="utf-8")
    out = tmp_path / "out.svg"
    code, err = run(capsys, ["draw", "--in", str(doc), "--out", str(out)])
    assert code == 3
    assert err.startswith("document error: cycle 0")
    assert not out.exists()


def test_bad_document_exits_3_in_exact_transform(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"sigma": -1, "viewport": [-3, 3, -3, 3], "points": [[1, "x"]]}', encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["transform", "--g", "1,0,0,1", "--exact", "--in", str(doc), "--out", str(out)]
    code, err = run(capsys, argv)
    assert code == 3
    assert "point 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, param",
    [
        ("fig-eph-cycle", "cycle=1,1e300,1,0"),
        ("fig-zero-radius", "point=1e300,1"),
        ("fig-eph-cycle", "cycle=1e-300,0,1,0"),
        ("fig-ortho1", "b=1,1e-300"),
    ],
)
def test_extreme_figure_parameter_is_a_domain_error(capsys, tmp_path, name, param):
    out_dir = tmp_path / "figs"
    code, err = run(capsys, ["figure", name, "--out", str(out_dir), "--param", param])
    assert code == 2
    assert err.startswith("error: ")
    assert not out_dir.exists()


BOMBS = ["1e10000000", "1e1_0000000"]


def bomb_argv(tmp_path, where, bomb):
    if where == "argv":
        return ["check", "ortho", "--sigma-cycle", "e", f"{bomb},0,1,0", "1,0,1,0"], None
    if where == "document":
        doc = dict(GOOD_DOC, cycles=[{"k": 1, "l": bomb, "n": 0, "m": -1}])
        (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out.svg"
        return ["draw", "--exact", "--in", str(tmp_path / "doc.json"), "--out", str(out)], out
    out = tmp_path / "figs"
    return ["figure", "fig-eph-cycle", "--out", str(out), "--param", f"cycle={bomb},0,1,0"], out


@pytest.mark.parametrize("bomb", BOMBS)
@pytest.mark.parametrize("where, code", [("argv", 1), ("document", 3), ("figure", 1)])
def test_exponent_bomb_is_rejected_at_once(capsys, tmp_path, where, code, bomb):
    argv, out = bomb_argv(tmp_path, where, bomb)
    start = time.perf_counter()
    got, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert "exponent beyond 4300" in err
    assert out is None or not out.exists()


@pytest.mark.parametrize(
    "cycle, viewport, mode",
    [
        ({"k": 1, "l": 1e300, "n": 1, "m": 0}, [-3, 3, -3, 3], "--float"),
        ({"k": 1e-300, "l": 0, "n": 1, "m": 0}, [-3, 3, -3, 3], "--float"),
        ({"k": 1, "l": "1e400", "n": 1, "m": 0}, [-3, 3, -3, 3], "--exact"),
        ({"k": 1, "l": 0, "n": 0, "m": -1}, [-1e308, 1e308, -3, 3], "--float"),
    ],
)
def test_draw_out_of_float_range_is_a_domain_error(capsys, tmp_path, cycle, viewport, mode):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle], viewport=viewport)), encoding="utf-8")
    out = tmp_path / "out.svg"
    code, err = run(capsys, ["draw", mode, "--in", str(doc), "--out", str(out)])
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--sigma", "e", "--float", "1e200,0", "0,0"],
        ["length", "--kind", "distance", "--sigma", "h", "--float", "0,1e200", "0,0"],
    ],
)
def test_non_finite_json_result_is_a_domain_error(capsys, argv):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "mode, sigmas, a, b, problem",
    [
        # the exact cycle for these floats has m = 1e600
        ("--float", ("p", "e"), "0,1", "0,1e300", "a component of the exact answer is beyond the float range"),
        # an irrational focus root, demoted to float from coefficients whose floats are 0 or
        # inf, or summed with a base and direction whose floats are inf
        ("--float", ("p", "e"), "0,1e-300", "1e-300,1e300", "an irrational focus root leaves the float range"),
        ("--exact", ("e", "e"), "0,1e300", "1e300,-1e300", "an irrational focus root leaves the float range"),
        ("--float", ("e", "h"), "0,-2.5", "1.7e308,3e160", "an irrational focus root leaves the float range"),
    ],
)
def test_focus_length_beyond_the_float_range_is_a_domain_error(capsys, mode, sigmas, a, b, problem):
    argv = ["length", mode, "--kind", "focus", "--sigma", sigmas[0], "--sigma-cycle", sigmas[1], a, b]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {problem}\n"


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints integers of any length"
)


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["ghost", "--sigma", "e", "--sigma-cycle", "h", "1e4300,0,1,0"],
        ["invert", "--sigma-cycle", "e", "1,0,0,-1", "1e4300,0"],
        ["orbit", "--exact", "--base", "1,1", "--sigma", "e", "--params", "0,1e4300"],
    ],
)
def test_exact_result_beyond_the_digit_limit_is_a_domain_error(capsys, argv):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@needs_digit_limit
@pytest.mark.parametrize("existing", [False, True])
def test_transform_beyond_the_digit_limit_leaves_the_output_alone(capsys, tmp_path, existing):
    doc = tmp_path / "doc.json"
    cycle = {"k": 1, "l": "1e4300", "n": 0, "m": -1}
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out.json"
    if existing:
        out.write_text("previous\n", encoding="utf-8")
    argv = ["transform", "--exact", "--g", "1,0,0,1", "--in", str(doc), "--out", str(out)]
    code, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")
    if existing:
        assert out.read_text(encoding="utf-8") == "previous\n"
    else:
        assert not out.exists()


def test_unused_figure_parameter_is_a_usage_error(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, err = run(capsys, ["figure", "fig-k-orbits", "--out", str(out_dir), "--param", "cycle=1,2,3,4"])
    assert code == 1
    assert err.startswith("usage error: ") and "'cycle'" in err
    assert not out_dir.exists()


def test_ratio_figure_parameter_renders_as_its_decimal(capsys, tmp_path):
    blobs = []
    for text in ("2,1/2,2,1", "2,0.5,2,1"):
        out_dir = tmp_path / text.replace("/", "_")
        assert cli_main(["figure", "fig-eph-cycle", "--out", str(out_dir), "--param", f"cycle={text}"]) == 0
        blobs.append([path.read_bytes() for path in sorted(out_dir.iterdir())])
    assert len(blobs[0]) == 3
    assert blobs[0] == blobs[1]


def test_stroke_containing_inf_still_renders(tmp_path):
    cycle = {"k": 1, "l": 0, "n": 0, "m": -1, "style": {"stroke": "infrared"}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out.svg"
    assert cli_main(["draw", "--in", str(doc), "--out", str(out)]) == 0
    assert 'stroke="infrared"' in out.read_text(encoding="utf-8")


def test_draw_sigma_overrides_the_document_sign(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(dict(GOOD_DOC, cycles=[{"k": 1, "l": 0, "n": 1, "m": 0}], points=[])), encoding="utf-8"
    )
    texts = {}
    for sigma in (None, "p"):
        out = tmp_path / f"{sigma}.svg"
        argv = ["draw", "--in", str(doc), "--out", str(out)] + (["--sigma", sigma] if sigma else [])
        assert cli_main(argv) == 0
        texts[sigma] = out.read_text(encoding="utf-8")
    # the document's elliptic sign draws a circle; the parabolic override a Bezier parabola
    assert "<circle" in texts[None] and "<path" not in texts[None]
    assert "<path" in texts["p"]


def test_draw_to_dev_null_succeeds(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    assert cli_main(["draw", "--in", str(doc), "--out", os.devnull]) == 0


def test_draw_failing_half_way_is_one_io_error_line_and_no_old_tail(capsys, tmp_path, monkeypatch):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    out = tmp_path / "out.svg"
    out.write_bytes(b"old " * 5_000)
    real_write = os.write
    written = []

    def half_then_fail(fd, data):
        if not written:
            written.append(bytes(data[: len(data) // 2]))
            return real_write(fd, written[0])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", half_then_fail)
    code, err = run(capsys, ["draw", "--in", str(doc), "--out", str(out)])
    monkeypatch.undo()
    assert code == 3
    assert err.startswith("i/o error: ")
    assert out.read_bytes() == written[0]


@pytest.mark.parametrize("command", ["draw", "transform"])
def test_stroke_without_utf8_encoding_is_a_document_error(capsys, tmp_path, command):
    # JSON "\ud800" reads as a lone surrogate, which no UTF-8 file can hold
    cycle = {"k": 1, "l": 0, "n": 0, "m": -1, "style": {"stroke": "\ud800"}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out"
    out.write_text("previous\n", encoding="utf-8")
    extra = ["--g", "1,0,0,1"] if command == "transform" else []
    code, err = run(capsys, [command, *extra, "--in", str(doc), "--out", str(out)])
    assert code == 3
    assert err.startswith("document error: cycle 0") and "stroke" in err
    assert out.read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("value", ["flaot", "EXACTLY", "1"])
@pytest.mark.parametrize("command", ["length", "orbit"])
def test_bad_mode_variable_is_a_usage_error(capsys, monkeypatch, value, command):
    monkeypatch.setenv("CYCLEKIT_MODE", value)
    argv = {
        "length": ["length", "--kind", "centre", "--sigma", "e", "0,0", "1/3,1/2"],
        "orbit": ["orbit", "--base", "0,2", "--sigma", "e", "--params", "1"],
    }[command]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: CYCLEKIT_MODE") and captured.err.count("\n") == 1
    assert captured.out == ""
    # a flag decides the mode, so the variable is not read
    assert cli_main([*argv, "--exact"]) == 0


@pytest.mark.parametrize("value", [" Float ", "exact", ""])
def test_mode_variable_is_read_stripped_and_case_blind(capsys, monkeypatch, value):
    monkeypatch.setenv("CYCLEKIT_MODE", value)
    assert cli_main(["length", "--kind", "centre", "--sigma", "e", "0,0", "1/3,1/2"]) == 0
    want = 13 / 36 if value.strip().lower() == "float" else "13/36"
    assert json.loads(capsys.readouterr().out) == {"lengths_sq": [want]}


@pytest.mark.parametrize("dash", ["false", 0, 1, None, [True]])
def test_dash_that_is_not_a_json_boolean_is_a_document_error(capsys, tmp_path, dash):
    cycle = {"k": 1, "l": 0, "n": 0, "m": -1, "style": {"stroke": "#222", "dash": dash}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out.svg"
    code, err = run(capsys, ["draw", "--in", str(doc), "--out", str(out)])
    assert code == 3
    assert err.startswith("document error: cycle 0") and "dash" in err
    assert not out.exists()


@pytest.mark.parametrize("dash, dashed", [(True, True), (False, False)])
def test_boolean_dash_draws_as_it_says(tmp_path, dash, dashed):
    cycle = {"k": 1, "l": 0, "n": 0, "m": -1, "style": {"stroke": "#222", "dash": dash}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out.svg"
    assert cli_main(["draw", "--in", str(doc), "--out", str(out)]) == 0
    assert ("stroke-dasharray" in out.read_text(encoding="utf-8")) is dashed


@pytest.mark.parametrize("style", [3, "#222", ["#222"], None])
@pytest.mark.parametrize("command", ["draw", "transform"])
def test_style_that_is_not_a_json_object_is_a_document_error(capsys, tmp_path, command, style):
    cycle = {"k": 1, "l": 0, "n": 0, "m": -1, "style": style}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(GOOD_DOC, cycles=[cycle])), encoding="utf-8")
    out = tmp_path / "out"
    extra = ["--g", "1,0,0,1"] if command == "transform" else []
    code, err = run(capsys, [command, *extra, "--in", str(doc), "--out", str(out)])
    assert code == 3
    assert err == "document error: cycle 0: style must be a JSON object\n"
    assert not out.exists()


def test_float_element_with_a_determinant_beyond_the_float_range_acts_as_itself(capsys):
    """1e300 * 1e300 overflows; the element is the identity, and its ratios are the identity's."""
    conformal = ["conformal", "--y", "0.2,1.1", "--kind", "distance", "--sigma", "e"]
    assert cli_main([*conformal, "--g", "1,0,0,1"]) == 0
    identity = capsys.readouterr().out
    assert cli_main([*conformal, "--g", "1e300,0,0,1e300"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (identity, "")


def test_rotation_parameter_beyond_the_square_range_fixes_the_point(capsys):
    """K(1e300) is -1 to within 2e-300, which fixes every point."""
    assert cli_main(["orbit", "--base", "0,2", "--sigma", "e", "--params", "1e300"]) == 0
    captured = capsys.readouterr()
    u, v = (float(x) for x in captured.out.split(","))
    assert captured.err == "" and abs(u) < 1e-290 and v == 2.0
