"""Source rules that keep one exact/float policy, read from the package's syntax trees.

* No module imports another module's ``_private`` name.
* ``sqrt_exact`` and ``isqrt`` are used only inside ``numbers.py``;
  elsewhere square roots go through ``scalar_sqrt`` or ``sqrt_or_float``,
  and perfect-square tests of integers through ``isqrt_exact``.
* No module, ``numbers.py`` included, takes a power ``** 0.5`` or names
  ``pow`` (the builtin, ``math.pow`` or an import of it): libm ``pow`` need
  not be correctly rounded, so float square roots are ``math.sqrt``.
* The tolerance literal ``1e-9`` appears only in ``numbers.py``, as
  ``REL_TOL``; float zero tests go through ``vanishes``.
* Outside ``numbers.py`` no module names ``isfinite`` or passes
  ``type=float`` to ``add_argument``: text becomes a scalar only through
  ``parse_scalar``, which rejects what is not finite.
* Outside ``numbers.py`` no module calls ``isinstance(x, float)`` with
  bare ``float`` or compares ``type(x)`` with ``float`` (``is``, ``is
  not``, ``==``, ``!=``): the scalar mode is read through
  ``numbers.is_exact`` and its siblings.
* Only ``cycle.py`` names ``gauss_solve`` or ``_gauss_solve``, and calls
  it once, from ``_pencil``, the linear stage that ``cycle.pencil`` and
  ``cycle_from_constraints`` share: every linear system goes through it.
* No module imports ``dataclasses``: value classes derive from
  ``value.Value``, and ``import cyclekit.cli`` loads neither
  ``dataclasses``, ``inspect`` nor ``typing``.
* ``import cyclekit`` loads no submodule, ``import cyclekit.cli`` only
  what its parser needs, and a command only the layers it uses: centre
  lengths need neither the solver nor the group action, the variational
  oracle needs no solver, and only fig-distances loads ``metric``.
* ``figures.py`` names no constraint type and no solver entry point.
* Every parameter of every function is read in its body, apart from
  ``UNREAD_PARAMETERS`` and a method's ``self``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclekit

SOURCES = sorted(Path(cyclekit.__file__).parent.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cyclekit"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sqrt_exact_and_tolerance_literal_stay_in_numbers(path):
    names = ("pow",) if path.name == "numbers.py" else ("pow", "sqrt_exact", "isqrt")
    uses = [
        f"line {node.lineno}"
        for node in ast.walk(tree(path))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and node.name in names)
        or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and is_constant(node.right, 0.5))
        or (path.name != "numbers.py" and is_constant(node, 1e-9))
    ]
    assert uses == []


def is_constant(node, value):
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == value


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scalars_from_text_only_through_parse_scalar(path):
    if path.name == "numbers.py":
        return
    uses = [
        f"line {node.lineno}"
        for node in ast.walk(tree(path))
        if (isinstance(node, ast.Name) and node.id == "isfinite")
        or (isinstance(node, ast.Attribute) and node.attr == "isfinite")
        or (isinstance(node, ast.alias) and node.name == "isfinite")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and any(
                kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "float"
                for kw in node.keywords
            )
        )
    ]
    assert uses == []


def is_float_name(node):
    return isinstance(node, ast.Name) and node.id == "float"


def is_type_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
    )


def compares_type_with_float(node):
    """``type(x) is float`` and its ``is not`` / ``==`` / ``!=`` siblings, either way round."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(
        isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
        and (
            (is_type_call(left) and is_float_name(right))
            or (is_float_name(left) and is_type_call(right))
        )
        for op, left, right in zip(node.ops, operands, operands[1:])
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scalar_mode_is_read_only_in_numbers(path):
    if path.name == "numbers.py":
        return
    uses = [
        f"line {node.lineno}"
        for node in ast.walk(tree(path))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and is_float_name(node.args[1])
        )
        or compares_type_with_float(node)
    ]
    assert uses == []


@pytest.mark.parametrize(
    "code",
    ["type(x) is float", "type(x) is not float", "float == type(x)", "0 < type(x) != float"],
)
def test_type_comparison_with_float_is_caught(code):
    assert compares_type_with_float(ast.parse(code, mode="eval").body)


def named(node, names):
    return (
        (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_linear_systems_are_solved_only_in_cycle(path):
    names = {"gauss_solve", "_gauss_solve"}
    nodes = list(ast.walk(tree(path)))
    if path.name != "cycle.py":
        assert [f"line {node.lineno}" for node in nodes if named(node, names)] == []
        return
    calls = [node for node in nodes if isinstance(node, ast.Call) and named(node.func, names)]
    assert len(calls) == 1
    (stage,) = [n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "_pencil"]
    assert calls[0] in list(ast.walk(stage))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    uses = [
        f"line {node.lineno}"
        for node in ast.walk(tree(path))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert uses == []


def loaded(code):
    """The modules a fresh ``-S`` interpreter holds after running ``code``."""
    # -S keeps site hooks, which may load typing themselves, out of the count.
    probe = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cyclekit.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.splitlines()[-1].split())


def submodules(modules):
    return {name.split(".", 1)[1] for name in modules if name.startswith("cyclekit.")}


def after_command(argv):
    return submodules(loaded(f"from cyclekit.cli import cli_main\nassert cli_main({argv!r}) == 0"))


def test_cli_import_leaves_heavy_modules_unloaded():
    assert submodules(loaded("import cyclekit")) == set()
    cli = loaded("import cyclekit.cli")
    assert cli.isdisjoint({"dataclasses", "inspect", "typing"})
    assert submodules(cli) == {"cli", "errors", "numbers", "value", "hypercomplex"}
    orbit = after_command(["orbit", "--base", "0,2", "--sigma", "e", "--params", "1", "--exact"])
    assert "moebius" in orbit
    assert orbit.isdisjoint({"cycle", "relations", "metric", "svgout", "figures"})
    distance = after_command(["distance", "--sigma", "p", "0,0", "3,4"])
    assert "metric" in distance
    assert distance.isdisjoint({"relations", "svgout", "figures"})
    assert distance.isdisjoint({"cycle", "moebius"})


def test_centre_lengths_load_neither_the_solver_nor_the_group_action(tmp_path):
    centre = ["--kind", "centre", "--sigma", "e"]
    length = after_command(["length", *centre, "0,0", "1/3,1/2"])
    perp = after_command(["perp", *centre, "--a", "0,0", "--b", "1,0", "--dir", "0,1"])
    for modules in (length, perp):
        assert "metric" in modules
        assert modules.isdisjoint({"cycle", "moebius"})
    figure = after_command(["figure", "fig-eph-cycle", "--out", str(tmp_path)])
    assert "figures" in figure and "metric" not in figure


def test_the_variational_oracle_loads_no_solver():
    oracle = submodules(loaded(
        "from cyclekit import SpaceSign, variational_distance_oracle\n"
        "variational_distance_oracle((0, 0), (3, 4), SpaceSign.ELLIPTIC, SpaceSign.ELLIPTIC)"
    ))
    assert "metric" in oracle
    assert "cycle" not in oracle


def test_figures_name_no_constraint_solver():
    names = {
        "PassesThrough", "HasKindCentre", "HasFocus", "IsOrthogonalTo", "Normalised",
        "cycle_from_constraints", "pencil",
    }
    path = Path(cyclekit.__file__).parent / "figures.py"
    assert [f"line {node.lineno}" for node in ast.walk(tree(path)) if named(node, names)] == []


# Parameters a body may leave unread, each kept for its callers: optional
# parameters that tests pass (by position or keyword), the figure recipes'
# calling convention, and the signature ``object.__setattr__`` fixes.
UNREAD_PARAMETERS = {
    "cycle.similarity_transform.ctx",
    "moebius.reduce_to_k_orbit.sigma_cycle",
    "metric.is_perpendicular.h",
    "metric.is_perpendicular.tol",
    "figures._fig_k_orbits.params",
    "figures._fig_distances.params",
    "value.Value.__setattr__.value",
}


def unread_parameters(node, prefix):
    """``prefix.qualname.parameter`` for every parameter that its function's body never loads."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            args = child.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            loads = {
                n.id
                for statement in child.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found |= {
                f"{name}.{p.arg}" for p in params if p and p.arg != "self" and p.arg not in loads
            }
            found |= unread_parameters(child, name)
        elif isinstance(child, ast.ClassDef):
            found |= unread_parameters(child, f"{prefix}.{child.name}")
    return found


def test_every_parameter_is_read():
    found = set().union(*(unread_parameters(tree(path), path.stem) for path in SOURCES))
    assert found == UNREAD_PARAMETERS


def test_an_unread_parameter_is_caught():
    code = """
class C:
    def method(self, used, *args, unused=1, **kwargs):
        def inner(x, y):
            return x
        return used, args, kwargs
"""
    assert unread_parameters(ast.parse(code), "m") == {"m.C.method.unused", "m.C.method.inner.y"}
