"""The benchmark's four workloads: seeded inputs, one query each, checks.

Every workload builds its inputs from the seed alone, before timing, and
hands cyclekit only those inputs.  ``run(i)`` is one query; the first
result of every distinct input is kept, and ``verify`` checks the kept
results against ``reference`` (which does not import cyclekit) after the
timed loop, so checking costs no query time.

Library calls go through the ``ck`` module object at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from fractions import Fraction

import cyclekit as ck

import reference as ref

SIGNS = (-1, 0, 1)
E = ck.SpaceSign.ELLIPTIC


def _frac(rng, lo=-9, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero(rng, lo=-9, hi=9) -> Fraction:
    while True:
        value = _frac(rng, lo, hi)
        if value != 0:
            return value


def _cycle(rng, k_nonzero=False) -> tuple:
    while True:
        comps = tuple(_frac(rng, -6, 6) for _ in range(4))
        if any(comps) and not (k_nonzero and comps[0] == 0):
            return comps


def _exact_factors(rng) -> tuple:
    """Dilation, shift and one or two rotation parameters of an exact g."""
    second = _frac(rng, -3, 3) if rng.random() < 0.5 else None
    return abs(_nonzero(rng, -4, 4)), _frac(rng, -4, 4), _frac(rng, -3, 3), second


def _exact_group(factors) -> tuple:
    """A(alpha) N(nu) K(t) [K(t2)], determinant exactly one."""
    alpha, nu, t, second = factors
    g = ref.compose((alpha, 0, 0, 1 / alpha), (1, nu, 0, 1))
    g = ref.compose(g, ref.rotation(t))
    return g if second is None else ref.compose(g, ref.rotation(second))


def _float_group(rng) -> tuple:
    alpha = math.exp(rng.uniform(-1.5, 1.5))
    nu = rng.uniform(-4.0, 4.0)
    phi = rng.uniform(-math.pi, math.pi)
    rot = (math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi))
    return ref.compose(ref.compose((alpha, 0.0, 0.0, 1.0 / alpha), (1.0, nu, 0.0, 1.0)), rot)


class _InProcess:
    """Shared base for workloads whose queries run inside this process."""

    def __init__(self):
        self.pool: list = []
        self.results: dict[int, object] = {}
        self.runs: dict[int, int] = {}

    def run(self, i: int):
        slot = i % len(self.pool)
        self.runs[slot] = self.runs.get(slot, 0) + 1
        result = self.query(self.pool[slot])
        self.results.setdefault(slot, result)
        return result

    def verify(self) -> tuple[int, list[str]]:
        """Failed query count (every run of a failing input) and messages."""
        failed, messages = 0, []
        for slot, result in sorted(self.results.items()):
            errors = self.check(self.pool[slot], result)
            if errors:
                failed += self.runs[slot]
                messages.extend(f"input {slot}: {e}" for e in errors)
        return failed, messages


# ---------------------------------------------------------------------------
# exact-algebra


class ExactAlgebra(_InProcess):
    """Exact transport, invariance, reflection and point action over E, P, H.

    Each query composes g from its dilation, shift and rotation
    parameters, transports two cycles, compares orthogonality,
    s-orthogonality and the determinant before and after, reflects one
    cycle in the other and maps one point.  Query i uses sign (-1, 0, 1)[i % 3].  With j = i // 3, the second
    cycle is random for j % 3 == 0, an orthogonal_family member for
    j % 3 == 1, and an s-orthogonal one for j % 3 == 2 (random in the
    parabolic cycle space, where s-orthogonality is degenerate).  In the
    parabolic and hyperbolic planes the point sits on the pole of g when
    j % 4 == 0, so one query in six maps its point to INFINITY.
    """

    name = "exact-algebra"
    pool_size = 1440
    trace_batch = 48

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self.pool = [self._entry(rng, i) for i in range(self.pool_size)]

    @staticmethod
    def _entry(rng, i: int) -> dict:
        sign = SIGNS[i % 3]
        j = i // 3
        kind = ("random", "ortho", "sortho")[j % 3]
        if kind == "sortho" and sign == 0:
            kind = "random"
        pole = sign != -1 and j % 4 == 0
        while True:
            factors = _exact_factors(rng)
            g = _exact_group(factors)
            if pole and g[2] == 0:
                continue
            c1 = _cycle(rng, k_nonzero=True)
            if ref.det(c1, sign) == 0:  # reflections in c1 would collapse
                continue
            through = (_frac(rng), _frac(rng))
            base = ref.s_ghost_elliptic(c1, sign) if kind == "sortho" else c1
            if kind != "random" and not _pencil_is_a_line(base, through, sign):
                continue
            break
        c2 = _cycle(rng) if kind == "random" else None
        if pole:
            a, b, c, d = g
            v = _frac(rng)
            twist = rng.choice((1, -1)) * sign
            z = ((twist * c * v - d) / c, v)
        else:
            z = (_frac(rng), _frac(rng))
        return {
            "sign": sign,
            "kind": kind,
            "pole": pole,
            "factors": factors,
            "g": g,
            "c1": c1,
            "c2": c2,
            "through": through,
            "z": z,
            "lib": (
                ck.FSCcContext(ck.SpaceSign(sign), 1),
                ck.CycleQuadruple(*c1),
                ck.CycleQuadruple(*c2) if c2 else None,
                ck.Point(*z),
            ),
        }

    @staticmethod
    def query(entry: dict):
        ctx, c1, c2, z = entry["lib"]
        alpha, nu, t, second = entry["factors"]
        g = ck.compose(
            ck.compose(ck.subgroup_element("A", alpha), ck.subgroup_element("N", nu)),
            ck.subgroup_element("K", t),
        )
        if second is not None:
            g = ck.compose(g, ck.subgroup_element("K", second))
        if entry["kind"] == "ortho":
            c2 = ck.orthogonal_family(c1, entry["through"], ctx, 1)[0]
        elif entry["kind"] == "sortho":
            ghost = ck.s_ghost(c1, E, ctx.sigma_cycle)
            c2 = ck.orthogonal_family(ghost, entry["through"], ctx, 1)[0]
        t1 = ck.similarity_transform(c1, g, ctx)
        t2 = ck.similarity_transform(c2, g, ctx)
        ortho = (ck.is_orthogonal(c1, c2, ctx), ck.is_orthogonal(t1, t2, ctx))
        s_ortho = None
        if entry["sign"] != 0:
            s_ortho = (ck.is_s_orthogonal(c1, c2, ctx), ck.is_s_orthogonal(t1, t2, ctx))
        dets = (ck.det_invariant(c1, ctx), ck.det_invariant(t1, ctx))
        reflected = ck.reflect_cycle(c1, c2, ctx)
        image = ck.mobius_apply(g, z, ctx.sigma_cycle)
        return g, c2, t1, t2, ortho, s_ortho, dets, reflected, image

    @staticmethod
    def check(entry: dict, result) -> list[str]:
        g_lib, c2, t1, t2, ortho, s_ortho, dets, reflected, image = result
        sign, c1, g = entry["sign"], entry["c1"], entry["g"]
        c2 = c2.components()
        errors = []
        if g_lib.entries() != g:
            errors.append(f"composed group element {g_lib.entries()}, reference {g}")
        if entry["kind"] != "random":
            base = ref.s_ghost_elliptic(c1, sign) if entry["kind"] == "sortho" else c1
            if ref.pairing(base, c2, sign) != 0 or ref.cycle_eval(c2, entry["through"], -1) != 0:
                errors.append("orthogonal_family member is not in the pencil")
        if not ref.projective_eq(t1.components(), ref.transport(c1, g, sign)):
            errors.append("similarity_transform(c1) differs from g M g^-1")
        if not ref.projective_eq(t2.components(), ref.transport(c2, g, sign)):
            errors.append("similarity_transform(c2) differs from g M g^-1")
        expected = ref.pairing(c1, c2, sign) == 0
        if ortho != (expected, expected) or (entry["kind"] == "ortho" and not expected):
            errors.append(f"is_orthogonal {ortho}, reference {expected}")
        if sign != 0:
            expected = ref.s_orthogonal(c1, c2, sign)
            if s_ortho != (expected, expected) or (entry["kind"] == "sortho" and not expected):
                errors.append(f"is_s_orthogonal {s_ortho}, reference {expected}")
        if dets[0] != dets[1] or dets[0] != ref.det(c1, sign):
            errors.append(f"det_invariant {dets} not invariant")
        if not ref.projective_eq(reflected.components(), ref.reflect(c1, c2, sign)):
            errors.append("reflect_cycle differs from M1 conj(M2) M1")
        want = ref.mobius(g, entry["z"], sign)
        if want is None:
            if image is not ck.INFINITY:
                errors.append(f"mobius_apply gave {image}, expected INFINITY")
        elif image is ck.INFINITY or (image.u, image.v) != want:
            errors.append(f"mobius_apply gave {image}, expected {want}")
        if entry["pole"] and want is not None:
            errors.append("pole input does not map to INFINITY")
        return errors


def _pencil_is_a_line(cycle, through, sign) -> bool:
    """Orthogonality to cycle and incidence with through are independent rows."""
    k, l, n, m = cycle
    if not any(cycle):
        return False
    u, v = through
    ortho_row = (-m, 2 * l, -2 * sign * n, -k)
    point_row = (u * u + v * v, -2 * u, -2 * v, 1)
    return any(ortho_row[i] != ortho_row[3] * point_row[i] for i in range(3))


# ---------------------------------------------------------------------------
# metric-solver


class MetricSolver(_InProcess):
    """Exact lengths through the constraint solver, plus a float share.

    Query i does, by i % 10: 0-3 an exact length from a focus (the
    solver's quadratic branch) and the same solve through
    cycle_from_constraints; 4-6 an exact length from a centre (elliptic or
    hyperbolic); 7 the variational distance oracle; 8 two
    perpendicularity probes; 9 conformality ratios for two length kinds.
    """

    name = "metric-solver"
    pool_size = 2000
    trace_batch = 40

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        makers = [self._focus] * 4 + [self._centre] * 3 + [self._oracle, self._perp, self._conformal]
        self.pool = [makers[i % 10](rng, i) for i in range(self.pool_size)]

    @staticmethod
    def _focus(rng, i):
        """A cycle (1, l, n, m) through b, asked back from its focus."""
        while True:
            sign, sign_c = rng.choice(SIGNS), rng.choice(SIGNS)
            l, n = _frac(rng), _nonzero(rng)
            b = (_frac(rng), _frac(rng))
            m = -(b[0] ** 2 - sign * b[1] ** 2) + 2 * l * b[0] + 2 * n * b[1]
            det = sign_c * n * n - l * l + m
            if det == 0:  # focus on the real axis: every such cycle is zero-radius
                continue
            focus = (l, det / (2 * n))
            if sign_c == 0 and b[1] == focus[1]:  # focus condition holds identically
                continue
            if focus == b:
                continue
            return {
                "kind": "focus",
                "focus": focus,
                "b": b,
                "sign": sign,
                "sign_c": sign_c,
                "expected": ref.focus_lengths(focus, b, sign, sign_c),
            }

    @staticmethod
    def _centre(rng, i):
        while True:
            a = (_frac(rng), _frac(rng))
            b = (_frac(rng), _frac(rng))
            if a != b:
                break
        sign = rng.choice((-1, 1))
        return {"kind": "centre", "a": a, "b": b, "sign": sign,
                "expected": [ref.distance_sq(a, b, sign)]}

    @staticmethod
    def _oracle(rng, i):
        while True:
            a = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            if math.hypot(b[0] - a[0], b[1] - a[1]) >= 0.1:
                return {"kind": "oracle", "a": a, "b": b, "expected": ref.distance_sq(a, b, -1)}

    @staticmethod
    def _perp(rng, i):
        while True:
            ab = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            skew = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if math.hypot(*ab) < 0.2 or math.hypot(*skew) < 0.2:
                continue
            if abs(ab[0] * skew[0] + ab[1] * skew[1]) < 0.05:
                continue
            start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            end = (start[0] + ab[0], start[1] + ab[1])
            return {"kind": "perp", "a": start, "b": end, "perp": (-ab[1], ab[0]), "skew": skew}

    @staticmethod
    def _conformal(rng, i):
        while True:
            g = _float_group(rng)
            y = (rng.uniform(-1.0, 1.0), rng.uniform(0.7, 1.8))
            if all(_conformal_safe(g, y, s) for s in SIGNS):
                break
        dirs = []
        while len(dirs) < 5:
            cand = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            norm = math.hypot(*cand)
            if norm < 0.3 or abs(cand[0]) < 0.25 * norm:  # parabolic null direction
                continue
            if abs(abs(cand[0]) - abs(cand[1])) < 0.25 * norm:  # hyperbolic light cone
                continue
            dirs.append(cand)
        sign = SIGNS[(i // 10) % 3]
        centre_sign = (-1, 1)[(i // 10) % 2]
        return {"kind": "conformal", "g": g, "y": y, "dirs": dirs, "sign": sign,
                "centre_sign": centre_sign}

    @staticmethod
    def query(entry: dict):
        kind = entry["kind"]
        if kind == "focus":
            sign, sign_c = ck.SpaceSign(entry["sign"]), ck.SpaceSign(entry["sign_c"])
            interval = ck.DirectedInterval(entry["focus"], entry["b"])
            values = ck.length(interval, ck.FromFocus(sign, sign_c))
            cycles = ck.cycle_from_constraints(
                [ck.HasFocus(entry["focus"], sign_c), ck.PassesThrough(entry["b"], sign),
                 ck.Normalised()]
            )
            return values, cycles
        if kind == "centre":
            sign = ck.SpaceSign(entry["sign"])
            return ck.length(ck.DirectedInterval(entry["a"], entry["b"]), ck.FromCentre(sign, sign))
        if kind == "oracle":
            return ck.variational_distance_oracle(entry["a"], entry["b"], E, E)
        if kind == "perp":
            interval = ck.DirectedInterval(entry["a"], entry["b"])
            return (
                ck.is_perpendicular(interval, entry["perp"], ck.Distance(E)),
                ck.is_perpendicular(interval, entry["skew"], ck.Distance(E)),
            )
        g = ck.GroupElement(*entry["g"])
        centre = ck.SpaceSign(entry["centre_sign"])
        kinds = (ck.Distance(ck.SpaceSign(entry["sign"])), ck.FromCentre(centre, centre))
        return [ck.conformality_ratios(g, entry["y"], entry["dirs"], 1e-4, k) for k in kinds]

    @staticmethod
    def check(entry: dict, result) -> list[str]:
        kind = entry["kind"]
        if kind == "focus":
            values, cycles = result
            errors = []
            if values != entry["expected"]:
                errors.append(f"focus lengths {values}, reference {entry['expected']}")
            sign, sign_c = ck.SpaceSign(entry["sign"]), ck.SpaceSign(entry["sign_c"])
            radii = sorted((-ref.det(c.components(), entry["sign_c"]) / c.k ** 2 for c in cycles),
                           key=float)
            if radii != values:
                errors.append("solver cycles and length() disagree")
            for c in cycles:
                if ck.focus(c, sign_c) != ck.Point(*entry["focus"]):
                    errors.append(f"solution {c} has focus {ck.focus(c, sign_c)}")
                if ck.cycle_eval(c, ck.Point(*entry["b"]), sign) != 0:
                    errors.append(f"solution {c} misses {entry['b']}")
            return errors
        if kind == "centre":
            if result != entry["expected"]:
                return [f"centre length {result}, distance_sq {entry['expected']}"]
            return []
        if kind == "oracle":
            if abs(result - entry["expected"]) > 1e-6 * abs(entry["expected"]):
                return [f"oracle {result}, distance_sq {entry['expected']}"]
            return []
        if kind == "perp":
            return [] if result == (True, False) else [f"perpendicularity {result}"]
        errors = []
        for ratios in result:
            spread = (max(ratios) - min(ratios)) / max(ratios)
            if not spread < 1e-3:
                errors.append(f"conformality spread {spread}")
        return errors


def _conformal_safe(g, y, sign, floor=2.5) -> bool:
    """y stays far from the pole of g, so finite-step ratios are meaningful."""
    den_re = g[2] * y[0] + g[3]
    den_im = g[2] * y[1]
    if sign == 1:
        return min((den_re - den_im) ** 2, (den_re + den_im) ** 2) >= floor
    return abs(den_re * den_re - sign * den_im * den_im) >= floor


# ---------------------------------------------------------------------------
# figures

# Panels each recipe writes (independent of the package's own table).
PANELS = {
    "fig-k-orbits": 3,
    "fig-eph-cycle": 3,
    "fig-zero-radius": 9,
    "fig-ortho1": 3,
    "fig-ortho2": 3,
    "fig-distances": 3,
}


class Figures(_InProcess):
    """All six recipes per query, float mode, into one directory per input.

    The seed picks parameter overrides for the recipes that take them:
    the quadruple of fig-eph-cycle, the point of fig-zero-radius and the
    marked point of the two orthogonality figures.
    """

    name = "figures"
    pool_size = 4
    trace_batch = 2

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = random.Random(seed)
        self.pool = []
        for slot in range(self.pool_size):
            b = f"{rng.uniform(0.6, 1.4):.2f},{rng.uniform(0.6, 1.4):.2f}"
            cycle = (rng.choice((1, 2)), rng.randint(-2, 2) / 2, rng.choice((-2, -1, 1, 2)),
                     rng.randint(-2, 2) / 2)
            params = {
                "fig-eph-cycle": {"cycle": ",".join(str(x) for x in cycle)},
                "fig-zero-radius": {"point": f"{rng.uniform(-1, 1.5):.2f},{rng.uniform(0.3, 1.5):.2f}"},
                "fig-ortho1": {"b": b},
                "fig-ortho2": {"b": b},
            }
            out_dir = os.path.join(workdir, f"figures-{slot}")
            self.pool.append({"params": params, "dir": out_dir})

    @staticmethod
    def query(entry: dict):
        return {
            name: ck.run_figure(ck.FigureRecipe(name, entry["params"].get(name, {})), entry["dir"])
            for name in PANELS
        }

    @staticmethod
    def check(entry: dict, result) -> list[str]:
        errors = []
        for name, paths in result.items():
            if len(paths) != PANELS[name]:
                errors.append(f"{name} wrote {len(paths)} panels, expected {PANELS[name]}")
            for path in paths:
                errors.extend(_svg_errors(path))
        return errors


def _svg_errors(path: str) -> list[str]:
    try:
        root = ElementTree.parse(path).getroot()
    except (OSError, ElementTree.ParseError) as exc:
        return [f"{path}: {exc}"]
    if not root.tag.endswith("svg") or not root.get("viewBox"):
        return [f"{path}: not an SVG document with a viewBox"]
    return []


# ---------------------------------------------------------------------------
# cli

# The README's document example.
README_DOC = {
    "sigma": -1,
    "viewport": [-3, 3, -3, 3],
    "cycles": [
        {"k": 1, "l": 0, "n": "1/2", "m": -1, "style": {"stroke": "#c62828", "dash": False}}
    ],
    "points": [[1, 1], ["1/3", 0.5]],
}


class Cli:
    """One fresh ``python -m cyclekit.cli`` process per request.

    Every round issues the same eleven requests, in an order the seed
    shuffles: eight read-only commands from the README and three that
    write files (draw, transform, figure).
    """

    name = "cli"
    trace_batch = 11

    def __init__(self, seed: int, workdir: str, src: str, bench_dir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("CYCLEKIT_MODE", None)  # the README's outputs assume the default modes
        self.env["PYTHONPATH"] = src
        self.child = os.path.join(bench_dir, "cli_child.py")
        doc = os.path.join(workdir, "doc.json")
        with open(doc, "w", encoding="utf-8") as handle:
            json.dump(README_DOC, handle)
        self.svg = os.path.join(workdir, "figure.svg")
        self.moved = os.path.join(workdir, "moved.json")
        self.figdir = os.path.join(workdir, "figures")
        sortho = ref.s_orthogonal((1, 0, 1, 0), (0, 2, 1, -1), -1)
        lengths = ref.focus_lengths((0, 1), (0, Fraction(1, 2)), -1, -1)
        # name, argv, expected exit code, expected stdout; files are checked in verify
        self.requests = [
            ("check-ortho", ["check", "ortho", "--sigma-cycle", "e", "1,0,1,0", "1,0,-1,-2"],
             0, '{"relation": "ortho", "result": true}'),
            ("check-sortho", ["check", "sortho", "--sigma-cycle", "e", "1,0,1,0", "0,2,1,-1"],
             0 if sortho else 1, json.dumps({"relation": "sortho", "result": sortho})),
            ("ghost", ["ghost", "--sigma", "e", "--sigma-cycle", "h", "1,0,1,0"], 0, "1,0,-1,0"),
            ("sghost", ["sghost", "--sigma", "e", "--sigma-cycle", "e", "1,0,1,0"], 0, "-2,0,1,0"),
            ("invert", ["invert", "--sigma-cycle", "e", "1,0,0,-1", "0,2"], 0, "0,1/2"),
            ("distance", ["distance", "--sigma", "p", "0,0", "3,4"], 0, '{"distance_sq": 9}'),
            ("length", ["length", "--kind", "focus", "--sigma", "e", "--sigma-cycle", "e",
                        "0,1", "0,1/2"],
             0, json.dumps({"lengths_sq": [_json_scalar(v) for v in lengths]})),
            ("orbit", ["orbit", "--base", "0,2", "--sigma", "e", "--params", "1", "--exact"],
             0, "0,1/2"),
            ("draw", ["draw", "--in", doc, "--out", self.svg], 0, ""),
            ("transform", ["transform", "--g", "1,1,0,1", "--sigma-cycle", "e", "--in", doc,
                           "--out", self.moved], 0, ""),
            ("figure", ["figure", "fig-eph-cycle", "--out", self.figdir], 0,
             "\n".join(os.path.join(self.figdir, f"fig-eph-cycle-{x}.svg") for x in "eph")),
        ]
        rng = random.Random(seed)
        self.sequence = []
        for _ in range(64):
            order = list(range(len(self.requests)))
            rng.shuffle(order)
            self.sequence.extend(order)
        self.outcomes: list[tuple] = []
        self.peak_rss_kb = 0
        self.span_files: list[str] = []
        self.traced = False

    def run(self, i: int):
        index = self.sequence[i % len(self.sequence)]
        _, argv, _, _ = self.requests[index]
        if self.traced:
            span_file = os.path.join(self.workdir, f"spans-{len(self.span_files)}.json")
            self.span_files.append(span_file)
            cmd = [sys.executable, self.child, span_file, *argv]
        else:
            cmd = [sys.executable, "-m", "cyclekit.cli", *argv]
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            outcome = (index, proc.returncode, out.read().decode(), err.read().decode())
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.outcomes.append(outcome)
        return outcome

    def verify(self) -> tuple[int, list[str]]:
        """Failed request count and messages; a bad output file fails every
        request that wrote it."""
        file_errors = {
            "draw": _svg_errors(self.svg),
            "figure": [e for x in "eph"
                       for e in _svg_errors(os.path.join(self.figdir, f"fig-eph-cycle-{x}.svg"))],
            "transform": self._check_moved(),
        } if self.outcomes else {}
        failed, messages = 0, [e for errors in file_errors.values() for e in errors]
        for index, code, stdout, stderr in self.outcomes:
            name, _, want_code, want_out = self.requests[index]
            if code != want_code or stdout.strip() != want_out:
                failed += 1
                messages.append(f"{name}: exit {code}, stdout {stdout.strip()!r}, stderr {stderr!r}")
            elif file_errors.get(name):
                failed += 1
        return failed, messages

    def _check_moved(self) -> list[str]:
        g = (1.0, 1.0, 0.0, 1.0)
        try:
            with open(self.moved, encoding="utf-8") as handle:
                moved = json.load(handle)
        except (OSError, ValueError) as exc:
            return [f"transform output: {exc}"]
        errors = []
        for src, out in zip(README_DOC["cycles"], moved["cycles"]):
            quad = tuple(float(Fraction(str(src[x]))) for x in "klnm")
            got = tuple(float(Fraction(str(out[x]))) for x in "klnm")
            if not ref.projective_close(got, ref.transport(quad, g, -1)):
                errors.append(f"transform moved {quad} to {got}")
        points = [p for p in (ref.mobius(g, tuple(float(Fraction(str(x))) for x in p), -1)
                              for p in README_DOC["points"]) if p is not None]
        for want, got in zip(points, moved["points"]):
            if max(abs(float(x) - y) for x, y in zip(got, want)) > 1e-9:
                errors.append(f"transform moved a point to {got}, expected {want}")
        if len(points) != len(moved["points"]) or len(moved["cycles"]) != len(README_DOC["cycles"]):
            errors.append("transform changed the number of cycles or points")
        return errors


def _json_scalar(value):
    value = Fraction(value)
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
