"""Command-line surface.

Exit codes: 0 success (or a true predicate), 1 false predicate or usage
problem, 2 domain error (zero divisors, degenerate configurations,
unsolvable constraint systems), 3 input/output failure or a document
that breaks the JSON schema.  Value-producing cycle and point commands
print bare comma-separated scalars; check, distance, length, perp and
conformal print single-line strict JSON.  A result with no text form (a
non-finite JSON value, or an exact integer beyond Python's 4,300-digit
limit) exits 2 before anything is printed or written.
Every scalar argument is read by ``numbers.parse_scalar`` and every sign
by ``SpaceSign.parse``; either's ``ValueError`` is a usage error.  Options
are spelled out in full: a prefix of one is an unrecognised argument.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

# Only what the parser and the error handling need; each command imports the
# rest of the library itself, so a request loads no layer it does not use.
from .errors import CycleKitError, DocumentError, UsageError
from .hypercomplex import SpaceSign
from .numbers import parse_scalars, scalar_repr, scalar_to_json


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefix abbreviates an option: --s is not --sigma-cycle
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _resolve_mode(args) -> bool:
    if getattr(args, "exact", False) or getattr(args, "float_mode", False):
        return args.exact
    env = os.environ.get("CYCLEKIT_MODE", "").strip().lower()
    if env not in ("", "exact", "float"):
        raise UsageError(f"CYCLEKIT_MODE must be exact or float, not {env!r}")
    return {"exact": True, "float": False}.get(env, getattr(args, "default_exact", False))


def _parse(build, text: str, exact: bool, what: str, names: str | None = None):
    """``build(*scalars)`` of comma-separated text; any bad value is a usage error."""
    try:
        return build(*parse_scalars(text, exact, names))
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from exc


def _quadruple(text: str, exact: bool):
    from .cycle import CycleQuadruple

    return _parse(CycleQuadruple, text, exact, "cycle", "k,l,n,m")


def _point(text: str, exact: bool):
    return _parse(lambda u, v: (u, v), text, exact, "point", "u,v")


def _text(render, *args, **kwargs) -> str:
    """``render(*args, **kwargs)``; a result with no text form is a domain error: a
    non-finite value in strict JSON, or an integer beyond Python's 4,300-digit limit."""
    try:
        return render(*args, **kwargs)
    except ValueError as exc:
        raise CycleKitError(f"result has no text form: {exc}") from exc


def _emit(payload) -> None:
    """Print one line of strict JSON."""
    print(_text(json.dumps, payload, allow_nan=False))


def _scalars_text(values) -> str:
    return ",".join(scalar_repr(x) for x in values)


def _point_text(point) -> str:
    from .moebius import INFINITY

    return "INFINITY" if point is INFINITY else _scalars_text((point.u, point.v))


def _add_mode_flags(sub, default_exact: bool):
    sub.set_defaults(default_exact=default_exact)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact rational scalars")
    group.add_argument(
        "--float", dest="float_mode", action="store_true", help="64-bit float scalars"
    )


def _length_kind(args):
    from .metric import Distance, FromCentre, FromFocus

    if args.kind == "distance":
        return Distance(args.sigma)
    sigma_cycle = args.sigma if args.sigma_cycle is None else args.sigma_cycle
    if args.kind == "centre":
        return FromCentre(args.sigma, sigma_cycle)
    return FromFocus(args.sigma, sigma_cycle)


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclekit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    sign = SpaceSign.parse

    p = subs.add_parser("draw", help="render a JSON cycle document to SVG")
    p.add_argument("--sigma", type=sign, help="override the document's point-space sign (e|p|h)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_mode_flags(p, default_exact=False)

    p = subs.add_parser("transform", help="apply a Moebius map to a JSON document")
    p.add_argument("--g", required=True, help="group element a,b,c,d")
    p.add_argument("--sigma-cycle", type=sign, default="e", help="parsed; the action reads none")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_mode_flags(p, default_exact=False)

    p = subs.add_parser("check", help="orthogonality predicates, exit 0 true / 1 false")
    p.add_argument("relation", choices=("ortho", "sortho"))
    p.add_argument("--sigma-cycle", type=sign, required=True)
    p.add_argument("cycle1")
    p.add_argument("cycle2")
    _add_mode_flags(p, default_exact=True)

    for name, help_text in (
        ("ghost", "ghost cycle reducing orthogonality to the usual one"),
        ("sghost", "ghost cycle reducing s-orthogonality"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--sigma", type=sign, required=True)
        p.add_argument("--sigma-cycle", type=sign, required=True)
        p.add_argument("cycle")
        _add_mode_flags(p, default_exact=True)

    p = subs.add_parser("invert", help="inverse of a point in a cycle")
    p.add_argument("--sigma-cycle", type=sign, required=True)
    p.add_argument("cycle")
    p.add_argument("point")
    _add_mode_flags(p, default_exact=True)

    p = subs.add_parser("distance", help="squared distance between two points")
    p.add_argument("--sigma", type=sign, required=True)
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flags(p, default_exact=True)

    p = subs.add_parser("length", help="squared lengths of a directed interval")
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", type=sign, required=True)
    p.add_argument("--sigma-cycle", type=sign)
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flags(p, default_exact=True)

    p = subs.add_parser("perp", help="length perpendicularity, exit 0 true / 1 false")
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", type=sign, required=True)
    p.add_argument("--sigma-cycle", type=sign)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dir", dest="direction", required=True)
    _add_mode_flags(p, default_exact=True)

    p = subs.add_parser("conformal", help="length distortion ratios of a Moebius map")
    p.add_argument("--g", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kind", required=True, choices=("distance", "centre", "focus"))
    p.add_argument("--sigma", type=sign, required=True)
    p.add_argument("--sigma-cycle", type=sign)
    p.add_argument("--t", default="1e-4", help="finite-difference step (float)")
    p.add_argument("--dirs", type=int, default=5)
    _add_mode_flags(p, default_exact=False)

    p = subs.add_parser("figure", help="render a named figure into a directory")
    p.add_argument("name", help="figure recipe; an unknown name lists them all")
    p.add_argument("--out", dest="outdir", required=True)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        help="name=value override, may repeat",
    )

    p = subs.add_parser("orbit", help="rotation orbit of a point")
    p.add_argument("--base", required=True)
    p.add_argument("--sigma", type=sign, required=True)
    p.add_argument(
        "--params", default="-2,-1,-1/2,0,1/2,1,2", help="comma-separated parameters"
    )
    _add_mode_flags(p, default_exact=False)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():  # restores the caller's warning display on return
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
    exact = _resolve_mode(args)
    if command == "draw":
        from .svgout import CycleSetDocument, parse_document, render_svg, write_text

        with open(args.infile, "r", encoding="utf-8") as handle:
            doc = parse_document(handle.read(), exact)
        if args.sigma is not None:
            doc = CycleSetDocument(args.sigma, doc.cycles, doc.points, doc.viewport)
        text = render_svg(doc)
        write_text(args.outfile, text)
        return 0

    if command == "transform":
        from .cycle import similarity_transform
        from .moebius import INFINITY, GroupElement, Point, mobius_apply
        from .svgout import CycleSetDocument, document_to_json, parse_document, write_text

        g = _parse(GroupElement, args.g, exact, "group element", "a,b,c,d")
        with open(args.infile, "r", encoding="utf-8") as handle:
            doc = parse_document(handle.read(), exact)
        cycles = [(similarity_transform(c, g), style) for c, style in doc.cycles]
        points = []
        for u, v in doc.points:
            image = mobius_apply(g, Point(u, v), doc.sigma)
            if image is not INFINITY:
                points.append((image.u, image.v))
        text = _text(document_to_json, CycleSetDocument(doc.sigma, cycles, points, doc.viewport))
        write_text(args.outfile, text + "\n")
        return 0

    if command == "check":
        from .cycle import FSCcContext
        from .relations import is_orthogonal, is_s_orthogonal

        ctx = FSCcContext(args.sigma_cycle)
        c1 = _quadruple(args.cycle1, exact)
        c2 = _quadruple(args.cycle2, exact)
        if args.relation == "ortho":
            verdict = is_orthogonal(c1, c2, ctx)
        else:
            verdict = is_s_orthogonal(c1, c2, ctx)
        _emit({"relation": args.relation, "result": verdict})
        return 0 if verdict else 1

    if command in ("ghost", "sghost"):
        from .relations import ghost_cycle, s_ghost

        ghost = ghost_cycle if command == "ghost" else s_ghost
        result = ghost(_quadruple(args.cycle, exact), args.sigma, args.sigma_cycle)
        print(_text(_scalars_text, result.components()))
        return 0

    if command == "invert":
        from .cycle import FSCcContext
        from .relations import invert_point

        ctx = FSCcContext(args.sigma_cycle)
        cycle = _quadruple(args.cycle, exact)
        point = _point(args.point, exact)
        print(_text(_point_text, invert_point(cycle, point, ctx)))
        return 0

    if command == "distance":
        from .metric import distance_sq

        a = _point(args.a, exact)
        b = _point(args.b, exact)
        value = distance_sq(a, b, args.sigma)
        _emit({"distance_sq": scalar_to_json(value)})
        return 0

    if command == "length":
        from .metric import DirectedInterval, length

        interval = DirectedInterval(_point(args.a, exact), _point(args.b, exact))
        values = length(interval, _length_kind(args))
        _emit({"lengths_sq": [scalar_to_json(v) for v in values]})
        return 0

    if command == "perp":
        from .metric import DirectedInterval, is_perpendicular

        interval = DirectedInterval(_point(args.a, exact), _point(args.b, exact))
        verdict = is_perpendicular(interval, _point(args.direction, exact), _length_kind(args))
        _emit({"perpendicular": verdict})
        return 0 if verdict else 1

    if command == "conformal":
        from .metric import conformality_ratios
        from .moebius import GroupElement

        kind = _length_kind(args)
        g = _parse(GroupElement, args.g, exact, "group element", "a,b,c,d")
        y = _point(args.y, False)
        t = _parse(float, args.t, False, "step --t", "t")
        if args.dirs < 1:
            raise UsageError(f"--dirs must be at least 1, got {args.dirs}")
        # deterministic direction fan
        dirs = []
        for i in range(args.dirs):
            angle = 0.35 + 2.5 * i / args.dirs
            dirs.append((math.cos(angle), math.sin(angle)))
        ratios = conformality_ratios(g, y, dirs, t, kind)
        _emit({"ratios": ratios})
        return 0

    if command == "figure":
        from .figures import FigureRecipe, run_figure

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
        from .moebius import Point, k_orbit

        base = _point(args.base, exact)
        params = _parse(lambda *ts: list(ts), args.params, exact, "parameter list")
        images = k_orbit(Point(*base), args.sigma, params)
        print(_text("\n".join, map(_point_text, images)))
        return 0

    raise UsageError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(cli_main())
