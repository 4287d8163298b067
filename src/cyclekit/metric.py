"""Distances, lengths from centre and focus, perpendicularity, conformality.

The squared distance u^2 - sigma*v^2 may be negative in the hyperbolic
plane and is returned as-is.  Lengths are squared radii of cycles
anchored at the start of a directed interval, so reversing an interval
can change the answer.  Perpendicularity is stationarity of the length,
decided from its closed-form derivative in the input's scalar mode.
Only ``FromFocus`` lengths and the variational oracle import the solver
(``cycle``), and only ``conformality_ratios`` the group action (``moebius``).
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
from .numbers import REL_TOL, Scalar, div, vanishes
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
) -> float:
    """Extremal squared diameter over all cycles through both points.

    Golden-section search over the one-parameter pencil through the two
    points, solved in float mode by ``cycle.pencil`` in the chart k = 1;
    independent of the closed-form distance.  Supported for the
    elliptic/elliptic regime; other regimes are attempted with a warning.
    """
    from . import cycle

    if not (sigma == SpaceSign.ELLIPTIC and sigma_cycle == SpaceSign.ELLIPTIC):
        warnings.warn(
            "variational distance outside the elliptic regime is experimental",
            ExperimentalRegimeWarning,
            stacklevel=2,
        )
    base, basis, _ = cycle.pencil(
        [
            cycle.PassesThrough((float(a[0]), float(a[1])), sigma),
            cycle.PassesThrough((float(b[0]), float(b[1])), sigma),
            cycle.Normalised(),
        ]
    )
    if len(basis) != 1:
        raise Inconsistent("point pair does not define a one-parameter pencil")
    direction = basis[0]
    ctx = cycle.FSCcContext(sigma_cycle, 1)
    quadruple, radius_sq = cycle.CycleQuadruple, cycle.radius_sq  # looked up once, not per probe

    def diameter_sq(t: float) -> float:
        quad = quadruple(*(x + t * y for x, y in zip(base, direction)))
        return 4.0 * float(radius_sq(quad, ctx))

    # Bracket the extremum on an exponential grid (the pencil parameter
    # scale is arbitrary), then refine by golden section.
    candidates = [0.0]
    for k in range(-8, 30):
        candidates.append(2.0**k / 16.0)
        candidates.append(-(2.0**k) / 16.0)
    best_t = min(candidates, key=diameter_sq)
    width = max(abs(best_t), 1.0)
    lo, hi = best_t - width, best_t + width
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = diameter_sq(x1), diameter_sq(x2)
    for _ in range(300):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = diameter_sq(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = diameter_sq(x2)
        if hi - lo < 1e-12 * max(1.0, abs(best_t)):
            break
    return diameter_sq((lo + hi) / 2.0)


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
        # div(., 1) keeps the Fraction (or float) that the solver's radius_sq gave
        return [div(du * du - sigma_cycle * dv * dv + (sigma_cycle - sigma) * bv * bv, 1)]
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
    return sorted(values, key=float)


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
    irrational root is a float (``sqrt_or_float``), and so is that verdict.
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
