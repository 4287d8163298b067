"""Distances, lengths from centre and focus, perpendicularity, conformality.

The squared distance u^2 - sigma*v^2 may be negative in the hyperbolic
plane and is returned as-is.  Lengths are squared radii of cycles
anchored at the start of a directed interval, so reversing an interval
can change the answer.  Perpendicularity is stationarity of the length,
decided from its closed-form derivative in the input's scalar mode, and
the variational distance is the closed-form stationary diameter of the
cycles through two points.  Only ``FromFocus`` lengths import the solver
(``cycle``), and only ``conformality_ratios`` the group action
(``moebius``).
"""

from __future__ import annotations

import math
import warnings

from .errors import (
    BranchInstability,
    CycleKitError,
    DegenerateFocalPoint,
    ExperimentalRegimeWarning,
    Inconsistent,
    UnderDetermined,
)
from .hypercomplex import SpaceSign
from .numbers import REL_TOL, Scalar, as_fraction, div, vanishes
from .value import Value


class DirectedInterval(Value):
    """Ordered pair of finite points; reversal is a different interval."""

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[Scalar, Scalar], b: tuple[Scalar, Scalar]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def reversed(self) -> "DirectedInterval":
        return DirectedInterval(self.b, self.a)


class Distance(Value):
    __slots__ = ("sigma",)

    def __init__(self, sigma: SpaceSign):
        object.__setattr__(self, "sigma", sigma)


class FromCentre(Value):
    __slots__ = ("sigma", "sigma_cycle")

    def __init__(self, sigma: SpaceSign, sigma_cycle: SpaceSign):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_cycle", sigma_cycle)


class FromFocus(Value):
    __slots__ = ("sigma", "sigma_cycle")

    def __init__(self, sigma: SpaceSign, sigma_cycle: SpaceSign):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_cycle", sigma_cycle)


LengthKind = Distance | FromCentre | FromFocus


def distance_sq(
    a: tuple[Scalar, Scalar], b: tuple[Scalar, Scalar], sigma: SpaceSign
) -> Scalar:
    """u^2 - sigma*v^2 of the difference; negative values possible for sigma=1."""
    du = b[0] - a[0]
    dv = b[1] - a[1]
    return du * du - int(sigma) * dv * dv


def variational_distance_oracle(
    a: tuple[Scalar, Scalar],
    b: tuple[Scalar, Scalar],
    sigma: SpaceSign,
    sigma_cycle: SpaceSign,
) -> Scalar:
    """Stationary squared diameter of the sigma_cycle cycles through both points.

    In the chart k = 1 the cycles (1, l, n, m) through A and B form a line:
    with D = B - A and L = l - A_u, incidence at both points leaves
    L Du + n Dv = c, c = (Du^2 - sigma Dv (2 A_v + Dv))/2.  The squared
    diameter -4 det = 4 (L^2 - sigma_cycle n^2 - 2 A_v n - sigma A_v^2) is
    quadratic along that line, with leading coefficient
    Q = Dv^2 - sigma_cycle Du^2, so its stationary point solves one linear
    equation: L* = -Du (sigma_cycle c + A_v Dv)/Q, n* = (A_v Du^2 + c Dv)/Q.
    The value there reduces to P (Q - R)/Q, with P = Du^2 - sigma Dv^2 and
    R = (1 - sigma sigma_cycle)(A_v + B_v)^2, in the input's scalar mode.
    Where Q = 0 the diameter is linear along the line: constant, equal to P,
    when R = 0 too, and without an extremum otherwise (``Inconsistent``).
    R vanishes in the elliptic/elliptic and hyperbolic/hyperbolic regimes,
    so there the value is ``distance_sq``, in float mode too, bit for bit;
    the other seven regimes warn (``ExperimentalRegimeWarning``).  A == B
    raises ``Inconsistent``.
    """
    s, s_cycle = int(sigma), int(sigma_cycle)
    if s * s_cycle != 1:
        warnings.warn(
            "variational distance outside the e/e and h/h regimes is experimental",
            ExperimentalRegimeWarning,
            stacklevel=2,
        )
    (au, av), (bu, bv) = a, b
    du, dv = bu - au, bv - av
    if du == 0 and dv == 0:
        raise Inconsistent("point pair does not define a one-parameter pencil")
    p = du * du - s * dv * dv
    r = (1 - s * s_cycle) * (av + bv) * (av + bv)
    if r == 0:  # P (Q - R)/Q is P, and so is the constant diameter where Q = 0
        return as_fraction(p)
    q = dv * dv - s_cycle * du * du
    if q == 0:
        raise Inconsistent("the squared diameter is linear along the pencil: no extremum")
    return p * div(q - r, q)


def length(interval: DirectedInterval, kind: LengthKind) -> list[Scalar]:
    """Squared lengths of the interval, all real branches ascending.

    Distance has one value.  From-centre is Du^2 - sigma_cycle Dv^2 +
    (sigma_cycle - sigma) B_v^2 with D = B - A.  A parabolic centre
    (sigma_cycle = p) lies on the real axis: a start there leaves a
    one-parameter family of cycles (``UnderDetermined``), and a start off
    it has none (``Inconsistent``), the solver's error classes.
    From-focus, the only kind that imports the solver (``cycle``), may
    have two branches, and degenerates to zero-radius cycles when the
    start lies on the real axis.
    """
    if isinstance(kind, Distance):
        return [distance_sq(interval.a, interval.b, kind.sigma)]
    if isinstance(kind, FromCentre):
        (au, av), (bu, bv) = interval.a, interval.b
        sigma_cycle = int(kind.sigma_cycle)
        if sigma_cycle == 0:
            if vanishes(av, (au, av, bu, bv)):
                raise UnderDetermined(
                    "a parabolic centre on the real axis leaves a one-parameter family of cycles"
                )
            raise Inconsistent("a parabolic centre lies on the real axis, and the start does not")
        du, dv, sigma = bu - au, bv - av, int(kind.sigma)
        # as_fraction keeps the Fraction (or float) that the solver's radius_sq gave
        return [as_fraction(du * du - sigma_cycle * dv * dv + (sigma_cycle - sigma) * bv * bv)]
    if not isinstance(kind, FromFocus):
        raise TypeError(f"unknown length kind {kind!r}")
    if interval.a[1] == 0:
        raise DegenerateFocalPoint(
            "every cycle with a real-axis focus through another point is zero-radius"
        )
    from . import cycle

    cycles = cycle.cycle_from_constraints(
        [
            cycle.HasFocus(interval.a, kind.sigma_cycle),
            cycle.PassesThrough(interval.b, kind.sigma),
            cycle.Normalised(),
        ]
    )
    ctx = cycle.FSCcContext(kind.sigma_cycle, 1)
    values = [cycle.radius_sq(c, ctx) for c in cycles]
    return sorted(values)


def is_perpendicular(
    interval: DirectedInterval,
    direction: tuple[Scalar, Scalar],
    kind: LengthKind,
    h: float = 1e-5,
    tol: float = REL_TOL,
) -> bool:
    """Whether the first length branch is stationary as B moves along ``direction``.

    The directional derivative at B comes from the closed-form gradient in
    B, in the input's own scalar mode, and is tested with
    ``numbers.vanishes``.  With D = B - A the gradient is (2 Du, -2 sigma Dv)
    for Distance, (2 Du, 2 sigma_cycle A_v - 2 sigma B_v) for FromCentre and,
    for FromFocus, whose first branch is -2 A_v n with n a root of
    sigma_cycle n^2 + 2 (B_v - A_v) n + sigma B_v^2 - Du^2 = 0,
    -2 A_v (Du, -(n + sigma B_v)) / (sigma_cycle n + B_v - A_v).  An
    irrational root is the nearest float of the exact root
    (``numbers.quadratic_roots``), so that verdict is a float test.
    Where the derivative is 0 the second one is nonzero (an extremum) or
    zero (a flat length, which counts too), so it needs no test.  ``h`` and
    ``tol`` no longer affect the result.  Raises BranchInstability where
    the length is undefined at B or two focus branches meet there.
    """
    du, dv = direction
    if du == 0 and dv == 0:
        raise ValueError("direction must be nonzero")
    try:
        first = length(interval, kind)[0]
    except (Inconsistent, DegenerateFocalPoint) as exc:
        raise BranchInstability("the length is undefined at the endpoint") from exc
    (au, av), (bu, bv) = interval.a, interval.b
    sigma = int(kind.sigma)
    if isinstance(kind, Distance):
        grad = (2 * (bu - au), -2 * sigma * (bv - av))
    elif isinstance(kind, FromCentre):
        grad = (2 * (bu - au), 2 * int(kind.sigma_cycle) * av - 2 * sigma * bv)
    else:
        n = div(first, -2 * av)
        sigma_n = int(kind.sigma_cycle) * n
        meet = sigma_n + bv - av
        if vanishes(meet, (sigma_n, bv, av)):
            raise BranchInstability("two length branches meet at the endpoint")
        factor = div(-2 * av, meet)
        grad = (factor * (bu - au), -factor * (n + sigma * bv))
    return vanishes(grad[0] * du + grad[1] * dv, grad, direction)


def conformality_ratios(
    g: GroupElement,
    y: tuple[Scalar, Scalar],
    dirs: list[tuple[Scalar, Scalar]],
    t: float,
    kind: LengthKind,
) -> list[float]:
    """length(g y -> g(y + t y')) / length(y -> y + t y') per direction.

    Ratios of first branches, square-rooted; for a Moebius-conformal
    length the spread across directions vanishes as t -> 0.
    """
    from . import moebius

    sigma = kind.sigma
    base = moebius.Point(float(y[0]), float(y[1]))
    image = moebius.mobius_apply(g, base, sigma)
    if not isinstance(image, moebius.Point):
        raise CycleKitError("base point maps to INFINITY")
    ratios = []
    for direction in dirs:
        shifted = moebius.Point(base.u + t * float(direction[0]), base.v + t * float(direction[1]))
        shifted_image = moebius.mobius_apply(g, shifted, sigma)
        if not isinstance(shifted_image, moebius.Point):
            raise CycleKitError("shifted point maps to INFINITY")
        before = DirectedInterval((base.u, base.v), (shifted.u, shifted.v))
        after = DirectedInterval((image.u, image.v), (shifted_image.u, shifted_image.v))
        denom = float(length(before, kind)[0])
        numer = float(length(after, kind)[0])
        if denom == 0:
            raise CycleKitError("degenerate direction: zero base length")
        quotient = numer / denom
        if quotient < 0:
            raise CycleKitError("length quotient changed sign; null direction hit")
        ratios.append(math.sqrt(quotient))
    return ratios
