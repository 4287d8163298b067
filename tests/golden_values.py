"""Golden value manifest: one SHA-256 per block of focus-solver inputs.

The blocks run ``cycle_from_constraints`` on focus systems, exact and
float: a focus and a point in the chart k = 1 ("normalised"), a focus
and one or two points with no chart ("projective"), and two foci and a
point ("two-foci").  Further blocks run ``length`` from a focus on exact
and float intervals, ``variational_distance_oracle`` on exact and float
point pairs in each of the nine (sigma, sigma_cycle) regimes, then
``cycle.pencil`` and ``cycle_from_constraints`` on exact, float and mixed
systems of all five constraint types, and ``orthogonal_family`` with
counts 1 to 12 on exact, float and mixed cycles and points.  The last
two draw edge scalars too: +-0.0, ``bool`` and an ``IntEnum``
(``SpaceSign``).  The group blocks follow: ``GroupElement`` on matrices of
determinant one, on multiples of them (normalised, or refused as a
non-square), on arbitrary and on edge entries (overflow, underflow, inf,
nan, non-scalars); ``compose`` and ``invert`` on exact, float and mixed
pairs of elements; ``subgroup_element`` A, N and K on ``int``,
``Fraction``, float, ``bool``, ``IntEnum`` and non-scalar parameters.
Then come ``similarity_transform``, ``reflect_cycle``, ``s_ghost`` and
``length`` from a centre on exact, float and mixed scalars with the same
edge scalars.  The exact focus-branch blocks close the list: systems built
so that the focus quadratic has a double root, a negative or a positive
leading coefficient, a zero one, a negative discriminant or an irrational
root, a projective line with its direction candidate, and two foci of one
cycle, each with small scalars and with numerators beyond 2^64 over
denominators up to 10^6.  Then ``roots`` runs on exact quadruples with
rational and with irrational roots (the first input is (1, 0, 0, -2921),
whose root a ``pow``-based square root misses by one unit in the last
place), on float quadruples with the signed zeros, and on exact ones
whose coefficients lie beyond 2^+-1000; one input in six has k = 0 (a
linear section, or none).  ``radius_sq`` follows on exact, float,
mixed and large quadruples, one in six a line, and ``roots`` follows on
float quadruples whose k, l and m are drawn one time in three from
``FLOAT_EXTREMES`` (+-1e300, 1e-300, 5e-324, +-inf, nan).  The last blocks
run ``det_invariant``, ``radius_sq`` and ``focus`` on all-``int``, float,
``Fraction``, mixed and ``bool`` quadruples, ``svgout.polyline`` on the
kinds of coordinate that ``test_render_path.COORDS`` draws, and
``render_svg`` on float hyperbola documents: determinant below and above
zero, light cones (determinant exactly zero), tiny k, a centre beyond the
viewport, and canvases 32 times taller or wider than the other side.  Inputs
are drawn from ``random.Random(SEED)``, in that order, so blocks appended
at the end leave the earlier ones unchanged.
Each input and its outcome are written as a canonical text: every value
with its type name, floats by ``float.hex``, an error by its class and
message.  The manifest pins these texts across commits;
``test_golden_values.py`` re-runs the inputs and names the first block
that differs.

Standard library only, so any supported interpreter can run it without
pytest.  Rewrite the manifest (only when a change to the values is
intended) with::

    PYTHONPATH=src python tests/golden_values.py [OUT]
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from cyclekit import (
    CycleQuadruple,
    DirectedInterval,
    ExperimentalRegimeWarning,
    FromCentre,
    FromFocus,
    FSCcContext,
    GroupElement,
    HasFocus,
    HasKindCentre,
    IsOrthogonalTo,
    Normalised,
    PassesThrough,
    SpaceSign,
    compose,
    cycle_from_constraints,
    invert,
    length,
    orthogonal_family,
    radius_sq,
    reflect_cycle,
    roots,
    s_ghost,
    similarity_transform,
    subgroup_element,
    variational_distance_oracle,
)
from cyclekit.cycle import det_invariant, focus, pencil
from cyclekit.svgout import CycleSetDocument, CycleStyle, polyline, render_svg

MANIFEST = Path(__file__).with_name("golden_values.json")
SEED = 20261019
BLOCK = 40  # inputs per hashed block
BLOCKS = 5  # blocks per (function, mode, shape)
SHAPES = ("normalised", "projective", "two-foci")
LINEAR_MODES = ("exact", "float", "mixed")
# exact edge scalars (a bool and an IntEnum are ints) and float ones (the signed zeros)
EDGES = {"exact": (True, False, *SpaceSign), "float": (0.0, -0.0)}
# float entries past the ends of the range, and values that are no scalar at all
FLOAT_EXTREMES = (1e300, -1e300, 1e-300, 5e-324, math.inf, -math.inf, math.nan)
NON_SCALARS = (Decimal("1.5"), "1/2", None)


def _exact(rng: random.Random) -> int | Fraction:
    """A small integer or a ratio with a small denominator; integers reach the degenerate branches."""
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _float(rng: random.Random) -> float:
    """The float of an exact scalar, so that degenerate branches recur, or a uniform draw."""
    return float(_exact(rng)) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)


def _point(rng: random.Random, scalar) -> tuple:
    return (scalar(rng), scalar(rng))


def _sign(rng: random.Random) -> SpaceSign:
    return rng.choice(tuple(SpaceSign))


def _system(rng: random.Random, scalar, shape: str) -> list:
    if shape == "two-foci":
        # two foci of one cycle (1, l, n, m), which share the vertical u = l, and
        # half of the time a point of its parabolic realisation, where v is rational
        l, n, m, u = _exact(rng), _exact(rng) or 1, _exact(rng), _exact(rng)
        system = [HasFocus(_focus(l, n, m, sign, scalar), sign) for sign in (_sign(rng), _sign(rng))]
        if rng.random() < 0.5:
            v = Fraction(u * u - 2 * l * u + m) / (2 * n)
            system.append(PassesThrough(_cast(scalar, (u, v)), SpaceSign.PARABOLIC))
        else:
            system.append(PassesThrough(_point(rng, scalar), _sign(rng)))
        return system + [Normalised()] if rng.random() < 0.5 else system
    focus = HasFocus(_point(rng, scalar), _sign(rng))
    through = PassesThrough(_point(rng, scalar), _sign(rng))
    if shape == "normalised":
        return [focus, through, Normalised()]
    # one point, or the same point twice, leaves a line of candidates; two points leave one
    if rng.random() < 0.5:
        return [focus, through]
    second = through if rng.random() < 0.5 else PassesThrough(_point(rng, scalar), _sign(rng))
    return [focus, through, second]


def _focus(l, n, m, sign: SpaceSign, scalar) -> tuple:
    """The focus (l, det / 2n) of the cycle (1, l, n, m), det = sign n^2 - l^2 + m, in the mode of ``scalar``."""
    return _cast(scalar, (l, Fraction(int(sign) * n * n - l * l + m) / (2 * n)))


def _cast(scalar, point: tuple) -> tuple:
    return tuple(float(x) for x in point) if scalar is _float else point


def _interval(rng: random.Random, scalar) -> tuple:
    interval = DirectedInterval(_point(rng, scalar), _point(rng, scalar))
    return interval, FromFocus(_sign(rng), _sign(rng))


def _pair(rng: random.Random, scalar) -> tuple:
    """Two points, half of the time placed where the oracle's Q or R may vanish or A = B."""
    a, b = _point(rng, scalar), _point(rng, scalar)
    shape = rng.randrange(8)
    if shape == 0:
        return a, a
    if shape == 1:  # level: Q = 0 for a parabolic cycle sign
        return a, (b[0], a[1])
    if shape == 2:  # on the light cone: Q = 0 for a hyperbolic cycle sign
        return a, (b[0], a[1] + b[0] - a[0])
    if shape == 3:  # mirrored in the real axis: R = 0
        return a, (b[0], -a[1])
    return a, b


def _linear_scalar(rng: random.Random, mode: str) -> int | Fraction | float:
    """A scalar of ``mode`` ("exact" or "float"), an edge scalar of that mode one time in seven."""
    if rng.random() < 1 / 7:
        return rng.choice(EDGES[mode])
    return _exact(rng) if mode == "exact" else _float(rng)


def _scalars(rng: random.Random, mode: str, count: int) -> tuple:
    """``count`` scalars of one constraint or cycle; a mixed one is exact, float or mixed itself."""
    if mode == "mixed":
        mode = rng.choice(("exact", "float", "each"))
    if mode == "each":
        return tuple(_linear_scalar(rng, rng.choice(("exact", "float"))) for _ in range(count))
    return tuple(_linear_scalar(rng, mode) for _ in range(count))


def _linear_cycle(rng: random.Random, mode: str) -> CycleQuadruple:
    while True:
        comps = _scalars(rng, mode, 4)
        if any(comps):
            return CycleQuadruple(*comps)


def _constraint(rng: random.Random, mode: str):
    kind = rng.randrange(5)
    if kind == 0:
        return PassesThrough(_scalars(rng, mode, 2), _sign(rng))
    if kind == 1:
        return HasKindCentre(_scalars(rng, mode, 2), _sign(rng))
    if kind == 2:
        return HasFocus(_scalars(rng, mode, 2), _sign(rng))
    if kind == 3:
        return IsOrthogonalTo(_linear_cycle(rng, mode), FSCcContext(_sign(rng), rng.choice((1, -1))))
    return Normalised()


def _family_call(rng: random.Random, mode: str) -> tuple:
    """(cycle, through, ctx, count, sigma); one time in eight the two rows are dependent."""
    through, sigma, s = _scalars(rng, mode, 2), _sign(rng), rng.choice((1, -1))
    if rng.random() < 1 / 8:
        # t times the incidence row [u^2 - sigma v^2, -2u, -2v, 1] of the point, read as an
        # orthogonality row [-m, 2l, -2 sigma_cycle n, -k] with sigma_cycle = +-1
        (u, v), t = through, rng.choice((1, -2, Fraction(1, 3)))
        sigma_cycle = rng.choice((SpaceSign.ELLIPTIC, SpaceSign.HYPERBOLIC))
        cycle = CycleQuadruple(-t, -t * u, t * v * int(sigma_cycle), -t * (u * u - int(sigma) * v * v))
    else:
        cycle, sigma_cycle = _linear_cycle(rng, mode), _sign(rng)
    return cycle, through, FSCcContext(sigma_cycle, s), rng.randint(1, 12), sigma


def _det_one(rng: random.Random, mode: str) -> tuple:
    """Exact entries (a, b, c, (1 + bc)/a) of determinant one, cast to float in float mode."""
    while True:
        a = _linear_scalar(rng, "exact")
        if a:
            break
    b, c = _linear_scalar(rng, "exact"), _linear_scalar(rng, "exact")
    entries = (a, b, c, (1 + b * c) / Fraction(a))
    return tuple(float(x) for x in entries) if mode == "float" else entries


def _matrix(rng: random.Random, mode: str) -> tuple:
    """Four entries: determinant one, a multiple of it, arbitrary, or with an extreme entry."""
    entries = _det_one(rng, mode)
    shape = rng.randrange(6)
    if shape == 1:  # determinant factor^2: normalised
        factor = _linear_scalar(rng, mode) or 2
        return tuple(factor * x for x in entries)
    if shape == 2:  # an exact determinant that is no rational square
        return tuple(x * 2 for x in entries[:2]) + entries[2:]
    if shape == 3:
        return _scalars(rng, mode, 4)
    if shape == 4:
        scale = rng.choice((1e200, 1e-200, 1e160, -1e160)) if mode == "float" else rng.choice((10**40, Fraction(1, 10**40)))
        return tuple(scale * x for x in entries)
    if shape == 5:
        index, pool = rng.randrange(4), FLOAT_EXTREMES + NON_SCALARS
        return entries[:index] + (rng.choice(pool),) + entries[index + 1:]
    return entries


def _element(rng: random.Random, mode: str) -> GroupElement:
    """A group element built from entries of ``mode``; a mixed one picks exact or float."""
    if mode == "mixed":
        mode = rng.choice(("exact", "float"))
    while True:
        try:
            return GroupElement(*_matrix(rng, mode))
        except Exception:
            continue


def _subgroup_parameter(rng: random.Random, mode: str):
    if mode == "edge":
        return rng.choice((True, False, *SpaceSign, 0.0, -0.0, *FLOAT_EXTREMES, *NON_SCALARS, 1e154, -3e200))
    return _linear_scalar(rng, mode)


def _transform_call(rng: random.Random, mode: str) -> tuple:
    """(function, arguments) of one cycle-space transform or centre length in ``mode``."""
    kind = rng.randrange(4)
    if kind == 0:
        return similarity_transform, (_linear_cycle(rng, mode), _element(rng, mode))
    if kind == 1:
        ctx = FSCcContext(_sign(rng), rng.choice((1, -1)))
        return reflect_cycle, (_linear_cycle(rng, mode), _linear_cycle(rng, mode), ctx)
    if kind == 2:
        return s_ghost, (_linear_cycle(rng, mode), _sign(rng), _sign(rng))
    interval = DirectedInterval(_scalars(rng, mode, 2), _scalars(rng, mode, 2))
    return length, (interval, FromCentre(_sign(rng), _sign(rng)))


def _large(rng: random.Random) -> int | Fraction:
    """An integer beyond 2^64 or a ratio of such a numerator over a denominator up to 10^6."""
    numerator = rng.choice((-1, 1)) * rng.randint(2**64, 2**72)
    return numerator if rng.random() < 0.25 else Fraction(numerator, rng.randint(1, 10**6))


def _nonzero(rng: random.Random, scalar) -> int | Fraction:
    while True:
        value = scalar(rng)
        if value:
            return value


def _on_cycle(rng: random.Random, scalar, focus_sign: SpaceSign) -> tuple:
    """(focus, point, point sign) of a cycle (1, l, n, m) with n != 0 drawn through the point."""
    l, n, (u, v), sign = scalar(rng), _nonzero(rng, scalar), _point(rng, scalar), _sign(rng)
    m = -(u * u - int(sign) * v * v) + 2 * l * u + 2 * n * v
    return _focus(l, n, m, focus_sign, scalar), (u, v), sign


def _shifted(rng: random.Random, scalar, sign: SpaceSign, focus_sign: SpaceSign, v, e, d) -> list:
    """The system [HasFocus((u, v - e), focus_sign), PassesThrough((u + d, v), sign), Normalised()].

    In the chart k = 1 its focus condition reads, in n,
    focus_sign n^2 + 2 e n + sign v^2 - d^2 = 0.
    """
    u = scalar(rng)
    return [HasFocus((u, v - e), focus_sign), PassesThrough((u + d, v), sign), Normalised()]


def _focus_branch(rng: random.Random, scalar, branch: str) -> list:
    """An exact focus system whose quadratic in the chart k = 1 takes ``branch``."""
    E, P, H = SpaceSign.ELLIPTIC, SpaceSign.PARABOLIC, SpaceSign.HYPERBOLIC
    r, flip = _nonzero(rng, scalar), rng.choice((-1, 1))
    if branch == "double root":
        # sign v^2 - d^2 = focus_sign n0^2 and e = -focus_sign n0 leave focus_sign (n - n0)^2
        sign, focus_sign, v, n0, d = rng.choice(
            ((P, E, scalar(rng), r, r), (E, E, 3 * r, 5 * r, 4 * r),
             (H, H, 5 * r, 3 * r, 4 * r), (H, E, 3 * r, 4 * r, 5 * r))
        )
        return _shifted(rng, scalar, sign, focus_sign, v, -int(focus_sign) * flip * n0, d)
    if branch in ("negative leading coefficient", "positive leading coefficient"):
        # the pencil's direction has k = l = 0, so its leading coefficient has the focus sign
        focus_sign = E if branch == "negative leading coefficient" else H
        focus, through, sign = _on_cycle(rng, scalar, focus_sign)
        return [HasFocus(focus, focus_sign), PassesThrough(through, sign), Normalised()]
    if branch == "leading coefficient zero":
        shape = rng.randrange(3)
        if shape == 0:  # a root of the linear condition
            focus, through, sign = _on_cycle(rng, scalar, P)
            return [HasFocus(focus, P), PassesThrough(through, sign), Normalised()]
        # b = 0, and c = 0 (every n) or c != 0 (none)
        return _shifted(rng, scalar, P if shape == 1 else _sign(rng), P, scalar(rng), 0, 0 if shape == 1 else r)
    if branch == "negative discriminant":
        x, y = Fraction(rng.randint(-4, 4), 10), Fraction(rng.randint(-4, 4), 10)
        sign, focus_sign, d = rng.choice(((H, H, x * r), (E, E, x * r), (P, E, r)))
        return _shifted(rng, scalar, sign, focus_sign, r, y * r, d)
    if branch == "irrational root":
        # discriminants r^2 (p^2 + q^2), r^2 (1 + p^2) and 3 r^2, none a rational square
        p, q = rng.choice(((1, 1), (1, 2), (2, 3), (1, 3), (2, 5)))
        sign, focus_sign, v, e, d = rng.choice(
            ((P, H, scalar(rng), p * r, flip * q * r), (H, E, p * r, r, 0), (E, H, r, r, flip * r))
        )
        return _shifted(rng, scalar, sign, focus_sign, v, e, d)
    if branch == "projective line":
        focus_sign = _sign(rng)
        if rng.random() < 0.5:
            focus, through, sign = _on_cycle(rng, scalar, focus_sign)
        else:
            focus, through, sign = _point(rng, scalar), _point(rng, scalar), _sign(rng)
        return [HasFocus(focus, focus_sign), PassesThrough(through, sign)]
    # two foci of one cycle, a point on it or anywhere, and the chart half of the time
    l, n, (u, v), sign = scalar(rng), r, _point(rng, scalar), _sign(rng)
    m = -(u * u - int(sign) * v * v) + 2 * l * u + 2 * n * v
    system = [HasFocus(_focus(l, n, m, s, scalar), s) for s in (_sign(rng), _sign(rng))]
    through = (u, v) if rng.random() < 0.5 else _point(rng, scalar)
    system.append(PassesThrough(through, sign))
    return system + [Normalised()] if rng.random() < 0.5 else system


def _quadruple(components) -> CycleQuadruple:
    """The quadruple, with a zero one replaced by the line (0, 0, 1, 0)."""
    return CycleQuadruple(*components) if any(components) else CycleQuadruple(0, 0, 1, 0)


def _roots_cycle(rng: random.Random, mode: str) -> CycleQuadruple:
    """A quadruple for ``roots``: its section k u^2 - 2 l u + m = 0 has rational or irrational
    roots, or k = 0 one time in six; "large" scales an exact one, or its k alone, beyond 2^+-1000."""
    if mode == "float":
        comps = [_linear_scalar(rng, "float") for _ in range(4)]
        if rng.random() < 1 / 6:
            comps[0] = rng.choice(EDGES["float"])
        return _quadruple(comps)
    if mode == "float extremes":  # each of k, l and m one time in three from FLOAT_EXTREMES
        comps = [_linear_scalar(rng, "float") for _ in range(4)]
        for index in (0, 1, 3):
            if rng.random() < 1 / 3:
                comps[index] = rng.choice(FLOAT_EXTREMES)
        return _quadruple(comps)
    k, l, n = _nonzero(rng, _exact), _exact(rng), _exact(rng)
    shape = rng.randrange(6)
    if shape == 0:
        k = 0
        m = _exact(rng)
    elif shape in (1, 2):  # the roots r1 and r2
        r1, r2 = _exact(rng), _exact(rng)
        l, m = Fraction(k * (r1 + r2), 2), k * r1 * r2
    else:  # disc / 4 = l^2 - k m = s, most often no rational square
        m = Fraction(l * l - rng.randint(-3, 10**5), k)
    comps = (k, l, n, m)
    if mode == "large":
        factor = rng.choice((2**1100, Fraction(1, 2**1100), 10**400, Fraction(1, 10**400), 2**1500))
        if rng.random() < 0.25:
            return _quadruple((k * factor, l, n, m))
        return _quadruple(tuple(x * factor for x in comps))
    return _quadruple(comps)


def _radius_cycle(rng: random.Random, mode: str) -> CycleQuadruple:
    """A quadruple of ``mode`` for ``radius_sq``, one time in six a line (k = 0)."""
    if mode == "large":
        comps = [_large(rng) * rng.choice((1, 2**1100, Fraction(1, 2**1100))) for _ in range(4)]
    else:
        comps = list(_scalars(rng, mode, 4))
    if rng.random() < 1 / 6:
        comps[0] = 0
    return _quadruple(comps)


def _det_cycle(rng: random.Random, mode: str) -> CycleQuadruple:
    """A quadruple for ``det_invariant`` whose components are all ``int`` (small, beyond 2^64 or an
    ``IntEnum``), all float (one time in ten from ``FLOAT_EXTREMES``), all ``Fraction``, mixed or
    ``bool`` (with an ``int`` one time in four)."""
    if mode == "int":
        pool = (lambda: rng.randint(-9, 9), lambda: int(_large(rng)), lambda: _sign(rng))
        comps = [rng.choice(pool)() for _ in range(4)]
    elif mode == "float":
        comps = [
            rng.choice(FLOAT_EXTREMES) if rng.random() < 0.1 else _linear_scalar(rng, "float")
            for _ in range(4)
        ]
    elif mode == "Fraction":
        comps = [Fraction(rng.choice((_exact, _large))(rng)) for _ in range(4)]
    elif mode == "mixed":
        comps = [rng.choice((_exact, _float, _large, lambda r: r.choice(EDGES["exact"])))(rng) for _ in range(4)]
    else:
        comps = [rng.randint(-3, 3) if rng.random() < 0.25 else rng.choice((True, False)) for _ in range(4)]
    return _quadruple(comps)


# the edge coordinates that test_render_path.COORDS samples
EDGE_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
POLYLINE_ATTRS = 'fill="none" stroke="#1f4e9c" stroke-width="0.017578125"'


def _coordinate(rng: random.Random):
    """A coordinate as ``test_render_path.COORDS`` draws one: any float (from 64 random bits, so
    every exponent, +-inf and nan), an edge float, an ``int`` up to 10^300 or a ``Fraction``."""
    kind = rng.randrange(6)
    if kind == 0:
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if kind == 1:
        return rng.choice(EDGE_COORDINATES + FLOAT_EXTREMES)
    if kind == 2:
        return rng.uniform(-10.0, 10.0)
    if kind == 3:
        return rng.randint(-(10**300), 10**300) if rng.random() < 0.5 else rng.randint(-9, 9)
    if kind == 4:
        return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**9))
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.randint(-20, 20) * rng.choice((1.0, 1.5, 1 / 3))


HYPERBOLA_SHAPES = ("det < 0", "det > 0", "light cone", "tiny k", "vertex outside", "tall", "wide")


def _viewport(rng: random.Random, shape: str) -> tuple:
    """The default viewport, or one of random place and size, 32 times taller or wider for "tall" and "wide"."""
    if shape in ("light cone", "tiny k", "vertex outside") or rng.random() < 0.5 and shape.startswith("det"):
        return (-3.0, 3.0, -3.0, 3.0)
    umin, vmin, side = rng.uniform(-10.0, 9.0), rng.uniform(-10.0, 9.0), rng.uniform(1e-3, 20.0)
    width, height = {"tall": (side / 32, side), "wide": (side, side / 32)}.get(shape, (side, rng.uniform(1e-3, 20.0)))
    return (umin, umin + width, vmin, vmin + height)


def _hyperbola(rng: random.Random, shape: str, viewport: tuple) -> CycleQuadruple:
    """A float hyperbola (u - uc)^2 - (v - vc)^2 = -det/k^2 of ``shape`` near ``viewport``.

    Its centre (uc, vc) = (l/k, -n/k) lies near the viewport's centre, or beyond the viewport for
    "vertex outside"; a light cone has dyadic components whose determinant is exactly 0.
    """
    if shape == "light cone":
        k = rng.choice((1.0, -1.0, 2.0, -0.5, 4.0))
        l, n = rng.randint(-32, 32) / 8, rng.randint(-32, 32) / 8
        return CycleQuadruple(k, l, n, (l * l - n * n) / k)
    if shape == "tiny k":
        k = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-180.0, -6.0)
        return CycleQuadruple(k, *(rng.uniform(-8.0, 8.0) for _ in range(3)))
    umin, umax, vmin, vmax = viewport
    size = max(umax - umin, vmax - vmin)
    if shape == "vertex outside":
        offsets = [rng.choice((-1, 1)) * rng.uniform(0.6, 5.0) * size for _ in range(2)]
        offsets[rng.randrange(2)] *= rng.choice((0.0, 0.1, 1.0))
    else:
        offsets = [rng.uniform(-0.5, 0.5) * size for _ in range(2)]
    uc, vc = (umin + umax) / 2 + offsets[0], (vmin + vmax) / 2 + offsets[1]
    k = rng.choice((1.0, -1.0)) * rng.uniform(0.05, 8.0)
    det = (k * rng.uniform(0.02, 0.6) * size) ** 2
    if shape == "det < 0" or shape != "det > 0" and rng.random() < 0.5:
        det = -det
    l, n = k * uc, -k * vc
    return CycleQuadruple(k, l, n, (det - n * n + l * l) / k)


FOCUS_BRANCHES = (
    "double root",
    "negative leading coefficient",
    "positive leading coefficient",
    "leading coefficient zero",
    "negative discriminant",
    "irrational root",
    "projective line",
    "two foci",
)


def _text(value) -> str:
    """Canonical text of an input or a result: type names beside values, floats by ``float.hex``."""
    if isinstance(value, float):
        return f"float:{value.hex()}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text(x) for x in value) + "]"
    if isinstance(value, SpaceSign):
        return value.name
    if isinstance(value, CycleQuadruple):
        return f"CycleQuadruple{_text(value.components())}"
    if isinstance(value, GroupElement):
        return f"GroupElement{_text(value.entries())}"
    if isinstance(value, HasFocus):
        return f"HasFocus({_text(value.point)}, {value.sigma_cycle.name})"
    if isinstance(value, PassesThrough):
        return f"PassesThrough({_text(value.point)}, {value.sigma.name})"
    if isinstance(value, HasKindCentre):
        return f"HasKindCentre({_text(value.point)}, {value.kind.name})"
    if isinstance(value, IsOrthogonalTo):
        return f"IsOrthogonalTo({_text(value.cycle)}, {_text(value.ctx)})"
    if isinstance(value, FSCcContext):
        return f"FSCcContext({value.sigma_cycle.name}, {value.s})"
    if isinstance(value, Normalised):
        return "Normalised()"
    if isinstance(value, DirectedInterval):
        return f"DirectedInterval({_text(value.a)}, {_text(value.b)})"
    if isinstance(value, FromFocus):
        return f"FromFocus({value.sigma.name}, {value.sigma_cycle.name})"
    if isinstance(value, FromCentre):
        return f"FromCentre({value.sigma.name}, {value.sigma_cycle.name})"
    if callable(value):
        return value.__name__
    return f"{type(value).__name__}:{value}"


def _outcome(call, *args) -> str:
    """The canonical text of ``call(*args)``, or of the error it raises."""
    try:
        return _text(call(*args))
    except Exception as exc:  # the class and the message are what is pinned
        return f"raises {type(exc).__name__}: {exc}"


def blocks() -> list[tuple[str, list[str]]]:
    """(block label, one "input -> outcome" line per input) in manifest order."""
    rng = random.Random(SEED)
    out = []
    for mode, scalar in (("exact", _exact), ("float", _float)):
        jobs = [(f"cycle_from_constraints {mode} {shape}", shape) for shape in SHAPES]
        jobs.append((f"length FromFocus {mode}", None))
        for name, shape in jobs:
            for index in range(BLOCKS):
                lines = []
                for _ in range(BLOCK):
                    if shape is None:
                        interval, kind = _interval(rng, scalar)
                        args = (length, interval, kind)
                        shown = f"{_text(interval)} {_text(kind)}"
                    else:
                        system = _system(rng, scalar, shape)
                        args = (cycle_from_constraints, system)
                        shown = _text(system)
                    lines.append(f"{shown} -> {_outcome(*args)}")
                first = index * BLOCK
                out.append((f"{name} {first}-{first + BLOCK - 1}", lines))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentalRegimeWarning)
        for mode, scalar in (("exact", _exact), ("float", _float)):
            for sigma in SpaceSign:
                for sigma_cycle in SpaceSign:
                    lines = []
                    for _ in range(BLOCK):
                        a, b = _pair(rng, scalar)
                        args = (variational_distance_oracle, a, b, sigma, sigma_cycle)
                        lines.append(f"{_text([a, b, sigma, sigma_cycle])} -> {_outcome(*args)}")
                    name = f"variational_distance_oracle {mode} {sigma.name} {sigma_cycle.name}"
                    out.append((f"{name} 0-{BLOCK - 1}", lines))
    for mode in LINEAR_MODES:
        for index in range(BLOCKS):
            lines = []
            for _ in range(BLOCK):
                system = [_constraint(rng, mode) for _ in range(rng.randint(1, 5))]
                outcomes = f"{_outcome(pencil, system)}; {_outcome(cycle_from_constraints, system)}"
                lines.append(f"{_text(system)} -> {outcomes}")
            first = index * BLOCK
            out.append((f"pencil and cycle_from_constraints {mode} {first}-{first + BLOCK - 1}", lines))
    for mode in LINEAR_MODES:
        for index in range(BLOCKS):
            lines = []
            for _ in range(BLOCK):
                call = _family_call(rng, mode)
                lines.append(f"{_text(call)} -> {_outcome(orthogonal_family, *call)}")
            first = index * BLOCK
            out.append((f"orthogonal_family {mode} {first}-{first + BLOCK - 1}", lines))
    for mode in ("exact", "float"):
        for index in range(BLOCKS):
            lines = []
            for _ in range(BLOCK):
                entries = _matrix(rng, mode)
                lines.append(f"{_text(entries)} -> {_outcome(GroupElement, *entries)}")
            first = index * BLOCK
            out.append((f"GroupElement {mode} {first}-{first + BLOCK - 1}", lines))
    for mode in LINEAR_MODES:
        for index in range(BLOCKS):
            lines = []
            for _ in range(BLOCK):
                g1, g2 = _element(rng, mode), _element(rng, mode)
                outcomes = f"{_outcome(compose, g1, g2)}; {_outcome(invert, g1)}"
                lines.append(f"{_text([g1, g2])} -> {outcomes}")
            first = index * BLOCK
            out.append((f"compose and invert {mode} {first}-{first + BLOCK - 1}", lines))
    for mode in ("exact", "float", "edge"):
        lines = []
        for _ in range(3 * BLOCK):
            kind, param = rng.choice("ANK"), _subgroup_parameter(rng, mode)
            lines.append(f"{kind} {_text(param)} -> {_outcome(subgroup_element, kind, param)}")
        out.append((f"subgroup_element {mode} 0-{3 * BLOCK - 1}", lines))
    for mode in LINEAR_MODES:
        for index in range(BLOCKS):
            lines = []
            for _ in range(BLOCK):
                call, args = _transform_call(rng, mode)
                lines.append(f"{_text([call, *args])} -> {_outcome(call, *args)}")
            first = index * BLOCK
            out.append((f"transforms and centre lengths {mode} {first}-{first + BLOCK - 1}", lines))
    for size, scalar in (("small", _exact), ("large", _large)):
        for branch in FOCUS_BRANCHES:
            lines = []
            for _ in range(BLOCK):
                system = _focus_branch(rng, scalar, branch)
                lines.append(f"{_text(system)} -> {_outcome(cycle_from_constraints, system)}")
            out.append((f"cycle_from_constraints exact {size} {branch} 0-{BLOCK - 1}", lines))
    for mode in ("exact", "float", "large"):
        cycles = [_roots_cycle(rng, mode) for _ in range(BLOCK)]
        if mode == "exact":
            cycles[0] = CycleQuadruple(1, 0, 0, -2921)
        lines = [f"{_text(cycle)} -> {_outcome(roots, cycle)}" for cycle in cycles]
        out.append((f"roots {mode} 0-{BLOCK - 1}", lines))
    for mode in (*LINEAR_MODES, "large"):
        lines = []
        for _ in range(BLOCK):
            cycle, ctx = _radius_cycle(rng, mode), FSCcContext(_sign(rng), rng.choice((1, -1)))
            lines.append(f"{_text([cycle, ctx])} -> {_outcome(radius_sq, cycle, ctx)}")
        out.append((f"radius_sq {mode} 0-{BLOCK - 1}", lines))
    cycles = [_roots_cycle(rng, "float extremes") for _ in range(BLOCK)]
    lines = [f"{_text(cycle)} -> {_outcome(roots, cycle)}" for cycle in cycles]
    out.append((f"roots float extremes 0-{BLOCK - 1}", lines))
    for mode in ("int", "float", "Fraction", "mixed", "bool"):
        lines = []
        for _ in range(BLOCK):
            cycle, ctx = _det_cycle(rng, mode), FSCcContext(_sign(rng), rng.choice((1, -1)))
            outcomes = "; ".join(
                _outcome(*call)
                for call in ((det_invariant, cycle, ctx), (radius_sq, cycle, ctx), (focus, cycle, ctx.sigma_cycle))
            )
            lines.append(f"{_text([cycle, ctx])} -> {outcomes}")
        out.append((f"det_invariant radius_sq focus {mode} 0-{BLOCK - 1}", lines))
    for index in range(2):
        lines = []
        for _ in range(BLOCK):
            points = [(_coordinate(rng), _coordinate(rng)) for _ in range(rng.randint(0, 20))]
            lines.append(f"{_text(points)} -> {_outcome(polyline, points, POLYLINE_ATTRS)}")
        first = index * BLOCK
        out.append((f"polyline {first}-{first + BLOCK - 1}", lines))
    for shape in HYPERBOLA_SHAPES:
        lines = []
        for _ in range(BLOCK):
            viewport = _viewport(rng, shape)
            quads = [_hyperbola(rng, shape, viewport) for _ in range(rng.randint(1, 3))]
            cycles = [(quad, CycleStyle(dash=rng.random() < 0.25)) for quad in quads]
            doc = CycleSetDocument(SpaceSign.HYPERBOLIC, cycles, [], viewport)
            lines.append(f"{_text([quads, viewport])} -> {_outcome(render_svg, doc)}")
        out.append((f"render_svg hyperbola {shape} 0-{BLOCK - 1}", lines))
    return out


def manifest() -> list[list[str]]:
    """[label, SHA-256 of the block's lines] for every block, in order."""
    return [
        [label, hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()]
        for label, lines in blocks()
    ]


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else MANIFEST
    entries = manifest()
    rows = ",\n".join(json.dumps(entry) for entry in entries)  # one block a line, for readable diffs
    out.write_text(f'{{"seed": {SEED}, "blocks": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"{len(entries)} blocks of {BLOCK} inputs -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
