"""The ``cyclekit`` namespace: the exported names, where each one lives,
and that loading them on first use leaves the public API as it was.

``EXPORTED`` writes out the names the package exported when it imported
every submodule eagerly, grouped by home module, so that the lazy
namespace can neither add, drop nor re-home a name.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclekit
from cyclekit import errors, svgout

EXPORTED = {
    "errors": {
        "BranchInstability", "CycleKitError", "Degenerate", "DegenerateFocalPoint",
        "DegenerateReflection", "DegenerateRelationWarning", "EverywhereZero",
        "ExactModeError", "ExperimentalRegimeWarning", "FocusUndefined", "Inconsistent",
        "LineHasNoRadius", "NoRealAxisIntersection", "NotAKOrbit", "ShapeError",
        "UnderDetermined", "UsageError", "ZeroDivisor",
    },
    "hypercomplex": {
        "ELLIPTIC", "HYPERBOLIC", "PARABOLIC", "HNumber", "SpaceSign", "h_conj_modsq",
        "h_inv", "h_mul", "h_real", "h_unit",
    },
    "moebius": {
        "INFINITY", "GroupElement", "IwasawaFactors", "Point", "PointOrInfinity", "compose",
        "invert", "iwasawa_decompose", "iwasawa_recompose", "k_orbit", "mobius_apply",
        "reduce_to_k_orbit", "subgroup_element",
    },
    "cycle": {
        "CycleQuadruple", "FSCcContext", "FSCcMatrix", "HasFocus", "HasKindCentre",
        "IsOrthogonalTo", "Normalised", "PassesThrough", "REAL_LINE", "centre", "cycle_eval",
        "cycle_from_constraints", "det_invariant", "focus", "from_fscc", "is_incident",
        "normalize", "projective_close", "projective_eq", "radius_sq", "roots",
        "similarity_transform", "to_fscc", "trace_part", "zero_radius_cycle",
    },
    "relations": {
        "common_inverse_point", "ghost_cycle", "heaviside", "invert_point", "is_orthogonal",
        "is_s_orthogonal", "orthogonal_family", "pairing", "reflect_cycle", "s_ghost",
    },
    "metric": {
        "DirectedInterval", "Distance", "FromCentre", "FromFocus", "LengthKind",
        "conformality_ratios", "distance_sq", "is_perpendicular", "length",
        "variational_distance_oracle",
    },
    "svgout": {"CycleSetDocument", "CycleStyle", "parse_document", "render_svg"},
    "figures": {"FigureRecipe", "run_figure"},
}
HOMES = sorted((module, name) for module, names in EXPORTED.items() for name in names)


def test_all_is_the_exported_set():
    assert len(cyclekit.__all__) == len(set(cyclekit.__all__))
    assert set(cyclekit.__all__) == {name for _, name in HOMES}


@pytest.mark.parametrize("module, name", HOMES, ids=lambda x: x)
def test_each_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"cyclekit.{module}")
    assert getattr(cyclekit, name) is getattr(home, name)


def fresh(code, stdin=b""):
    """Stdout of a new interpreter that runs ``code`` with this package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(cyclekit.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
    )
    return result.stdout


def test_star_import_and_dir_list_every_name():
    code = (
        "import importlib, json, sys, cyclekit\n"
        "names = dir(cyclekit)\n"
        "from cyclekit import *\n"
        "homes = json.loads(sys.stdin.read())\n"
        "print(set(cyclekit.__all__) <= set(names))\n"
        "print(all(globals()[n] is getattr(importlib.import_module('cyclekit.' + m), n) for m, n in homes))\n"
    )
    assert fresh(code, json.dumps(HOMES).encode()).split() == [b"True", b"True"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclekit.no_such_name


def test_submodules_stay_attributes_of_the_package():
    code = "import sys, cyclekit\nprint(cyclekit.metric is sys.modules['cyclekit.metric'])"
    assert fresh(code).split() == [b"True"]


def test_document_error_lives_in_errors():
    assert svgout.DocumentError is errors.DocumentError
    assert issubclass(errors.DocumentError, ValueError)
    assert "DocumentError" not in cyclekit.__all__


def test_values_pickle_round_trip_in_a_process_that_only_imported_the_package():
    values = [
        cyclekit.CycleQuadruple(Fraction(1, 2), 0, 3, -1),
        cyclekit.GroupElement(2, 1, 3, 2),
    ]
    child = (
        "import pickle, sys, cyclekit\n"
        "values = pickle.loads(sys.stdin.buffer.read())\n"
        "sys.stdout.buffer.write(pickle.dumps(values))\n"
    )
    assert pickle.loads(fresh(child, pickle.dumps(values))) == values
