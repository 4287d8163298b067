"""Bad input at the CLI and document boundary: exit code, one stderr line, no output."""

import json

import pytest

from cyclekit.cli import cli_main

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
    ],
)
def test_bad_argv_is_a_usage_error(capsys, argv):
    code, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("usage error: ")


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
