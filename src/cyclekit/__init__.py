"""Cycles under the SL(2,R) Moebius action on the three EPH planes.

``import cyclekit`` loads no submodule.  The first lookup of an exported
name imports its home module and binds all of that module's exported
names here (PEP 562), so a caller that needs one layer loads only that
layer and the layers it builds on.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "BranchInstability",
        "CycleKitError",
        "Degenerate",
        "DegenerateFocalPoint",
        "DegenerateReflection",
        "DegenerateRelationWarning",
        "EverywhereZero",
        "ExactModeError",
        "ExperimentalRegimeWarning",
        "FocusUndefined",
        "Inconsistent",
        "LineHasNoRadius",
        "NoRealAxisIntersection",
        "NotAKOrbit",
        "ShapeError",
        "UnderDetermined",
        "UsageError",
        "ZeroDivisor",
    ),
    "hypercomplex": (
        "ELLIPTIC",
        "HYPERBOLIC",
        "PARABOLIC",
        "HNumber",
        "SpaceSign",
        "h_conj_modsq",
        "h_inv",
        "h_mul",
        "h_real",
        "h_unit",
    ),
    "moebius": (
        "INFINITY",
        "GroupElement",
        "IwasawaFactors",
        "Point",
        "PointOrInfinity",
        "compose",
        "invert",
        "iwasawa_decompose",
        "iwasawa_recompose",
        "k_orbit",
        "mobius_apply",
        "reduce_to_k_orbit",
        "subgroup_element",
    ),
    "cycle": (
        "CycleQuadruple",
        "FSCcContext",
        "FSCcMatrix",
        "HasFocus",
        "HasKindCentre",
        "IsOrthogonalTo",
        "Normalised",
        "PassesThrough",
        "REAL_LINE",
        "centre",
        "cycle_eval",
        "cycle_from_constraints",
        "det_invariant",
        "focus",
        "from_fscc",
        "is_incident",
        "normalize",
        "projective_close",
        "projective_eq",
        "radius_sq",
        "roots",
        "similarity_transform",
        "to_fscc",
        "trace_part",
        "zero_radius_cycle",
    ),
    "relations": (
        "common_inverse_point",
        "ghost_cycle",
        "heaviside",
        "invert_point",
        "is_orthogonal",
        "is_s_orthogonal",
        "orthogonal_family",
        "pairing",
        "reflect_cycle",
        "s_ghost",
    ),
    "metric": (
        "DirectedInterval",
        "Distance",
        "FromCentre",
        "FromFocus",
        "LengthKind",
        "conformality_ratios",
        "distance_sq",
        "is_perpendicular",
        "length",
        "variational_distance_oracle",
    ),
    "svgout": ("CycleSetDocument", "CycleStyle", "parse_document", "render_svg"),
    "figures": ("FigureRecipe", "run_figure"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# library modules; looking one up as ``cyclekit.<name>`` imports it
_SUBMODULES = (*_EXPORTS, "numbers", "value")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        home = import_module(f"{__name__}.{_HOME[name]}")
        for exported in _EXPORTS[_HOME[name]]:
            globals()[exported] = getattr(home, exported)
        return globals()[name]
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
