import json
import os
import xml.dom.minidom

from cyclekit.cli import cli_main

DOC = {
    "sigma": -1,
    "viewport": [-3, 3, -3, 3],
    "cycles": [
        {"k": 1, "l": 0, "n": 0, "m": -1, "style": {"stroke": "#c62828", "dash": False}},
        {"k": 0, "l": 0, "n": 1, "m": 0},
    ],
    "points": [[1, 1]],
}


def test_check_ortho_true_false(capsys):
    assert cli_main(["check", "ortho", "--sigma-cycle", "e", "1,0,1,0", "1,0,-1,-2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"relation": "ortho", "result": True}
    assert cli_main(["check", "ortho", "--sigma-cycle", "e", "1,0,1,0", "1,0,1,-2"]) == 1


def test_check_sortho(capsys):
    assert cli_main(["check", "sortho", "--sigma-cycle", "e", "1,0,1,0", "0,2,1,-1"]) == 0
    assert cli_main(["check", "sortho", "--sigma-cycle", "e", "1,0,1,0", "0,2,1,5"]) == 1


def test_ghost_output(capsys):
    assert cli_main(["ghost", "--sigma", "e", "--sigma-cycle", "h", "1,0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "1,0,-1,0"


def test_sghost_output(capsys):
    assert cli_main(["sghost", "--sigma", "e", "--sigma-cycle", "e", "1,0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "-2,0,1,0"


def test_invert_output(capsys):
    assert cli_main(["invert", "--sigma-cycle", "e", "1,0,0,-1", "0,2"]) == 0
    assert capsys.readouterr().out.strip() == "0,1/2"
    assert cli_main(["invert", "--sigma-cycle", "e", "1,0,0,-1", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "INFINITY"


def test_distance_and_length(capsys):
    assert cli_main(["distance", "--sigma", "h", "0,0", "3,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"distance_sq": -7}
    assert (
        cli_main(
            ["length", "--kind", "focus", "--sigma", "e", "--sigma-cycle", "e", "0,-1/2", "1,1"]
        )
        == 0
    )
    assert json.loads(capsys.readouterr().out) == {"lengths_sq": [1, 2]}


def test_length_domain_error_exit_2(capsys):
    code = cli_main(
        ["length", "--kind", "focus", "--sigma", "e", "--sigma-cycle", "e", "0,1", "0,2"]
    )
    assert code == 2


def test_perp(capsys):
    assert (
        cli_main(
            ["perp", "--kind", "distance", "--sigma", "e", "--a", "0,0", "--b", "1,0", "--dir", "0,1"]
        )
        == 0
    )
    assert (
        cli_main(
            ["perp", "--kind", "distance", "--sigma", "e", "--a", "0,0", "--b", "1,0", "--dir", "1,1"]
        )
        == 1
    )


def test_conformal(capsys):
    assert (
        cli_main(
            ["conformal", "--g", "1.3,0,0,0.769230769230769", "--y", "0.2,1.1",
             "--kind", "distance", "--sigma", "e"]
        )
        == 0
    )
    ratios = json.loads(capsys.readouterr().out)["ratios"]
    assert len(ratios) == 5
    assert max(ratios) - min(ratios) < 1e-6


def test_draw_and_transform_roundtrip(tmp_path, capsys):
    doc_path = tmp_path / "doc.json"
    svg_path = tmp_path / "out.svg"
    doc_path.write_text(json.dumps(DOC), encoding="utf-8")
    assert cli_main(["draw", "--in", str(doc_path), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text(encoding="utf-8")
    xml.dom.minidom.parseString(svg)
    assert '<circle cx="0" cy="0" r="1"' in svg

    moved = tmp_path / "moved.json"
    assert (
        cli_main(
            ["transform", "--g", "1,1,0,1", "--sigma-cycle", "e", "--in", str(doc_path), "--out", str(moved)]
        )
        == 0
    )
    payload = json.loads(moved.read_text(encoding="utf-8"))
    circle = payload["cycles"][0]
    assert [circle["k"], circle["l"], circle["n"], circle["m"]] == [1, 1, 0, 0]
    assert payload["points"][0] == [2, 1]


def test_draw_is_byte_deterministic(tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(DOC), encoding="utf-8")
    out1 = tmp_path / "one.svg"
    out2 = tmp_path / "two.svg"
    assert cli_main(["draw", "--in", str(doc_path), "--out", str(out1)]) == 0
    assert cli_main(["draw", "--in", str(doc_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_draw_malformed_json_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli_main(["draw", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 3


def test_missing_file_exit_3(tmp_path):
    assert cli_main(["draw", "--in", str(tmp_path / "gone.json"), "--out", str(tmp_path / "x.svg")]) == 3


def test_usage_error_exit_1():
    assert cli_main(["check", "ortho", "--sigma-cycle", "e", "1,0,1,0", "notacycle"]) == 1
    assert cli_main(["ghost", "--sigma", "q", "--sigma-cycle", "e", "1,0,1,0"]) == 1


def test_domain_error_exit_2():
    # inverting in the degenerate quadruple has no locus
    assert cli_main(["sghost", "--sigma", "e", "--sigma-cycle", "p", "1,0,1,0"]) == 2


def test_figure_command(tmp_path, capsys):
    assert cli_main(["figure", "fig-eph-cycle", "--out", str(tmp_path)]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 3
    for path in listed:
        assert os.path.exists(path)
    assert cli_main(["figure", "fig-eph-cycle", "--out", str(tmp_path), "--param", "bogus=1"]) == 1


def test_orbit_command(capsys):
    assert cli_main(["orbit", "--base", "0,2", "--sigma", "e", "--params", "1", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "0,1/2"
    assert cli_main(["orbit", "--base", "0,1", "--sigma", "p", "--params", "1"]) == 0
    assert capsys.readouterr().out.strip() == "INFINITY"


def test_mode_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CYCLEKIT_MODE", "exact")
    assert cli_main(["orbit", "--base", "0,2", "--sigma", "e", "--params", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0,1/2"
    # flag wins over env var
    monkeypatch.setenv("CYCLEKIT_MODE", "float")
    assert cli_main(["orbit", "--base", "0,2", "--sigma", "e", "--params", "1", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "0,1/2"


def test_library_warning_is_one_stderr_line(capsys):
    argv = ["check", "sortho", "--sigma-cycle", "p", "1,0,1,0", "1,0,0,1"]
    for _ in range(2):  # shown on every run, not once per process
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == '{"relation": "sortho", "result": true}\n'
        assert captured.err == (
            "warning: s-orthogonality degenerates for the parabolic cycle space\n"
        )
