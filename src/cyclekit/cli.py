"""Command-line surface.

Exit codes: 0 success (or a true predicate), 1 false predicate or usage
problem, 2 domain error (zero divisors, degenerate configurations,
unsolvable constraint systems), 3 input/output failure or a document
that breaks the JSON schema.  Value-producing cycle and point commands
print bare comma-separated scalars; check, distance, length, perp and
conformal print single-line JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .cycle import (
    CycleQuadruple,
    FSCcContext,
    similarity_transform,
)
from .errors import CycleKitError, UsageError
from .figures import RECIPE_NAMES, FigureRecipe, run_figure
from .hypercomplex import SpaceSign
from .metric import (
    DirectedInterval,
    Distance,
    FromCentre,
    FromFocus,
    conformality_ratios,
    distance_sq,
    is_perpendicular,
    length,
)
from .moebius import INFINITY, GroupElement, Point, k_orbit, mobius_apply
from .numbers import parse_scalar, scalar_repr, scalar_to_json
from .relations import ghost_cycle, invert_point, is_orthogonal, is_s_orthogonal, s_ghost
from .svgout import CycleSetDocument, DocumentError, document_to_json, parse_document, render_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _resolve_mode(args, default_exact: bool) -> bool:
    if getattr(args, "exact", False):
        return True
    if getattr(args, "float_mode", False):
        return False
    env = os.environ.get("CYCLEKIT_MODE", "").strip().lower()
    if env == "exact":
        return True
    if env == "float":
        return False
    return default_exact


# what parse_scalar and the constructors raise for text that is no valid input
_BAD_TEXT = (ValueError, ZeroDivisionError, OverflowError)


def _parse_quadruple(text: str, exact: bool) -> CycleQuadruple:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"cycle needs k,l,n,m, got {text!r}")
    try:
        return CycleQuadruple(*(parse_scalar(p, exact) for p in parts))
    except _BAD_TEXT as exc:
        raise UsageError(f"bad cycle {text!r}: {exc}") from exc


def _parse_point(text: str, exact: bool):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"point needs u,v, got {text!r}")
    try:
        return (parse_scalar(parts[0], exact), parse_scalar(parts[1], exact))
    except _BAD_TEXT as exc:
        raise UsageError(f"bad point {text!r}: {exc}") from exc


def _parse_group(text: str, exact: bool) -> GroupElement:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"group element needs a,b,c,d, got {text!r}")
    try:
        return GroupElement(*(parse_scalar(p, exact) for p in parts))
    except _BAD_TEXT as exc:
        raise UsageError(f"bad group element {text!r}: {exc}") from exc


def _parse_params(text: str, exact: bool) -> list:
    try:
        return [parse_scalar(p, exact) for p in text.split(",")]
    except _BAD_TEXT as exc:
        raise UsageError(f"bad parameter list {text!r}: {exc}") from exc


def _sign(text: str) -> SpaceSign:
    try:
        return SpaceSign.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _quadruple_text(cycle: CycleQuadruple) -> str:
    return ",".join(scalar_repr(x) for x in cycle.components())


def _point_text(point) -> str:
    if point is INFINITY:
        return "INFINITY"
    return f"{scalar_repr(point.u)},{scalar_repr(point.v)}"


def _add_mode_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact rational scalars")
    group.add_argument(
        "--float", dest="float_mode", action="store_true", help="64-bit float scalars"
    )


def _length_kind(args):
    sigma = _sign(args.sigma)
    if args.kind == "distance":
        return Distance(sigma)
    sigma_cycle = _sign(args.sigma_cycle) if args.sigma_cycle else sigma
    if args.kind == "centre":
        return FromCentre(sigma, sigma_cycle)
    return FromFocus(sigma, sigma_cycle)


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclekit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("draw", help="render a JSON cycle document to SVG")
    p.add_argument("--sigma", help="override the document's point-space sign (e|p|h)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_mode_flags(p)

    p = subs.add_parser("transform", help="apply a Moebius map to a JSON document")
    p.add_argument("--g", required=True, help="group element a,b,c,d")
    p.add_argument("--sigma-cycle", default="e")
    p.add_argument("--s", type=int, default=1, choices=(1, -1))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_mode_flags(p)

    p = subs.add_parser("check", help="orthogonality predicates, exit 0 true / 1 false")
    p.add_argument("relation", choices=("ortho", "sortho"))
    p.add_argument("--sigma-cycle", required=True)
    p.add_argument("--s", type=int, default=1, choices=(1, -1))
    p.add_argument("cycle1")
    p.add_argument("cycle2")
    _add_mode_flags(p)

    p = subs.add_parser("ghost", help="ghost cycle reducing orthogonality to the usual one")
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-cycle", required=True)
    p.add_argument("cycle")
    _add_mode_flags(p)

    p = subs.add_parser("sghost", help="ghost cycle reducing s-orthogonality")
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-cycle", required=True)
    p.add_argument("cycle")
    _add_mode_flags(p)

    p = subs.add_parser("invert", help="inverse of a point in a cycle")
    p.add_argument("--sigma-cycle", required=True)
    p.add_argument("--s", type=int, default=1, choices=(1, -1))
    p.add_argument("cycle")
    p.add_argument("point")
    _add_mode_flags(p)

    p = subs.add_parser("distance", help="squared distance between two points")
    p.add_argument("--sigma", required=True)
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flags(p)

    p = subs.add_parser("length", help="squared lengths of a directed interval")
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-cycle")
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flags(p)

    p = subs.add_parser("perp", help="length perpendicularity, exit 0 true / 1 false")
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-cycle")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dir", dest="direction", required=True)
    _add_mode_flags(p)

    p = subs.add_parser("conformal", help="length distortion ratios of a Moebius map")
    p.add_argument("--g", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-cycle")
    p.add_argument("--t", type=float, default=1e-4)
    p.add_argument("--dirs", type=int, default=5)
    _add_mode_flags(p)

    p = subs.add_parser("figure", help="render a named figure into a directory")
    p.add_argument("name", choices=RECIPE_NAMES)
    p.add_argument("--out", dest="outdir", required=True)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        help="name=value override, may repeat",
    )

    p = subs.add_parser("orbit", help="rotation orbit of a point")
    p.add_argument("--base", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument(
        "--params", default="-2,-1,-1/2,0,1/2,1,2", help="comma-separated parameters"
    )
    _add_mode_flags(p)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CycleKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    command = args.command
    if command == "draw":
        exact = _resolve_mode(args, default_exact=False)
        with open(args.infile, "r", encoding="utf-8") as handle:
            doc = parse_document(handle.read(), exact)
        if args.sigma:
            doc = CycleSetDocument(_sign(args.sigma), doc.cycles, doc.points, doc.viewport)
        with open(args.outfile, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_svg(doc))
        return 0

    if command == "transform":
        exact = _resolve_mode(args, default_exact=False)
        g = _parse_group(args.g, exact)
        ctx = FSCcContext(_sign(args.sigma_cycle), args.s)
        with open(args.infile, "r", encoding="utf-8") as handle:
            doc = parse_document(handle.read(), exact)
        cycles = [(similarity_transform(c, g, ctx), style) for c, style in doc.cycles]
        points = []
        for u, v in doc.points:
            image = mobius_apply(g, Point(u, v), doc.sigma)
            if image is not INFINITY:
                points.append((image.u, image.v))
        out_doc = CycleSetDocument(doc.sigma, cycles, points, doc.viewport)
        with open(args.outfile, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(document_to_json(out_doc) + "\n")
        return 0

    if command == "check":
        exact = _resolve_mode(args, default_exact=True)
        ctx = FSCcContext(_sign(args.sigma_cycle), args.s)
        c1 = _parse_quadruple(args.cycle1, exact)
        c2 = _parse_quadruple(args.cycle2, exact)
        if args.relation == "ortho":
            verdict = is_orthogonal(c1, c2, ctx)
        else:
            verdict = is_s_orthogonal(c1, c2, ctx)
        print(json.dumps({"relation": args.relation, "result": verdict}))
        return 0 if verdict else 1

    if command == "ghost":
        exact = _resolve_mode(args, default_exact=True)
        cycle = _parse_quadruple(args.cycle, exact)
        result = ghost_cycle(cycle, _sign(args.sigma), _sign(args.sigma_cycle))
        print(_quadruple_text(result))
        return 0

    if command == "sghost":
        exact = _resolve_mode(args, default_exact=True)
        cycle = _parse_quadruple(args.cycle, exact)
        result = s_ghost(cycle, _sign(args.sigma), _sign(args.sigma_cycle))
        print(_quadruple_text(result))
        return 0

    if command == "invert":
        exact = _resolve_mode(args, default_exact=True)
        ctx = FSCcContext(_sign(args.sigma_cycle), args.s)
        cycle = _parse_quadruple(args.cycle, exact)
        point = _parse_point(args.point, exact)
        print(_point_text(invert_point(cycle, point, ctx)))
        return 0

    if command == "distance":
        exact = _resolve_mode(args, default_exact=True)
        a = _parse_point(args.a, exact)
        b = _parse_point(args.b, exact)
        value = distance_sq(a, b, _sign(args.sigma))
        print(json.dumps({"distance_sq": scalar_to_json(value)}))
        return 0

    if command == "length":
        exact = _resolve_mode(args, default_exact=True)
        kind = _length_kind(args)
        interval = DirectedInterval(_parse_point(args.a, exact), _parse_point(args.b, exact))
        values = length(interval, kind)
        print(json.dumps({"lengths_sq": [scalar_to_json(v) for v in values]}))
        return 0

    if command == "perp":
        exact = _resolve_mode(args, default_exact=True)
        kind = _length_kind(args)
        interval = DirectedInterval(_parse_point(args.a, exact), _parse_point(args.b, exact))
        verdict = is_perpendicular(interval, _parse_point(args.direction, exact), kind)
        print(json.dumps({"perpendicular": verdict}))
        return 0 if verdict else 1

    if command == "conformal":
        exact = _resolve_mode(args, default_exact=False)
        kind = _length_kind(args)
        g = _parse_group(args.g, exact)
        y = _parse_point(args.y, False)
        # deterministic direction fan
        dirs = []
        for i in range(args.dirs):
            angle = 0.35 + 2.5 * i / max(args.dirs, 1)
            dirs.append((math.cos(angle), math.sin(angle)))
        ratios = conformality_ratios(g, y, dirs, args.t, kind)
        print(json.dumps({"ratios": ratios}))
        return 0

    if command == "figure":
        params = {}
        for item in args.param:
            if "=" not in item:
                raise UsageError(f"--param needs name=value, got {item!r}")
            key, value = item.split("=", 1)
            params[key] = value
        recipe = FigureRecipe(args.name, params)
        for path in run_figure(recipe, args.outdir):
            print(path)
        return 0

    if command == "orbit":
        exact = _resolve_mode(args, default_exact=False)
        base = _parse_point(args.base, exact)
        params = _parse_params(args.params, exact)
        for image in k_orbit(Point(*base), _sign(args.sigma), params):
            print(_point_text(image))
        return 0

    raise UsageError(f"unknown command {command!r}")


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(cli_main())
