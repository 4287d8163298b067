"""SL(2,R) and its fractional-linear action on the three planes.

A group element acts on z = u + iv by z -> (az+b)/(cz+d), computed in
the arithmetic selected by the point-space sign.  ``orbit_uv`` holds the
one expansion of that action over the scalars, applying many elements to
one finite point; ``mobius_apply`` and ``k_orbit`` wrap its (u, v) pairs
as Points.  All three planes are compactified by a single point INFINITY;
denominators whose modulus vanishes map there.  The
dilation/shift/rotation factorisation keeps a rational parametrisation
of the rotation subgroup so exact mode never needs trigonometry.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotAKOrbit
from .hypercomplex import SpaceSign
from .numbers import (
    Scalar,
    clear_denominators,
    div,
    from_numerators,
    is_exact,
    is_int,
    is_rational,
    one_like,
    scalar_sqrt,
    sqrt_or_float,
    zero_like,
)
from .value import Value


class _Infinity:
    """The single point compactifying all three planes."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


class Point(Value):
    """Finite point (u, v) of a plane."""

    __slots__ = ("u", "v")

    def __init__(self, u: Scalar, v: Scalar):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __iter__(self):
        return iter((self.u, self.v))


PointOrInfinity = Point | _Infinity


class GroupElement(Value):
    """Real 2x2 matrix, normalised to determinant one on construction.

    Construction accepts any matrix with positive determinant and divides
    by the positive square root; in exact mode the determinant must be a
    perfect rational square.  Entries with a ``Fraction`` among them are
    tested over their integer numerators; ``int`` and float entries test
    ad - bc as given.  ``compose``, ``invert`` and ``subgroup_element``
    build exact elements of determinant one by construction without this
    test (``_det_one``); their float elements still take it.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        self.__post_init__()

    def __post_init__(self):
        entries = self.entries()
        if is_exact(*entries) and not is_int(*entries):
            ((a, b, c, d),), (den,) = clear_denominators(entries)
        else:
            (a, b, c, d), den = entries, 1
        num, den_sq = a * d - b * c, den * den
        if num == den_sq:
            return
        det = shown = div(num, den_sq)
        if not is_exact(det) and not 0 < abs(det) < math.inf:
            # an overflow (inf, or inf - inf = nan), an underflow to 0 or an entry that is not
            # finite: retry over the entries scaled by a power of two to below 1 in size, where
            # the determinant is finite exactly when every entry is
            shift = max((math.frexp(x)[1] for x in entries if x), default=0)
            entries = [math.ldexp(x, -shift) for x in entries]
            det = entries[0] * entries[3] - entries[1] * entries[2]
            if not abs(det) < math.inf:
                raise ValueError(f"entries must be finite, got {self.entries()}")
            shown = f"{det} * 2**{2 * shift}" if det else det
        if not det > 0:
            raise ValueError(f"determinant must be positive, got {shown}")
        root = scalar_sqrt(det, "group element normalisation")
        for name, x in zip(("a", "b", "c", "d"), entries):
            object.__setattr__(self, name, div(x, root))

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls, exact: bool = True) -> "GroupElement":
        one = 1 if exact else 1.0
        zero = 0 if exact else 0.0
        return cls(one, zero, zero, one)


class IwasawaFactors(Value):
    """Dilation alpha, shift nu, rotation (cos_phi, sin_phi)."""

    __slots__ = ("alpha", "nu", "cos_phi", "sin_phi")

    def __init__(self, alpha: Scalar, nu: Scalar, cos_phi: Scalar, sin_phi: Scalar):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "cos_phi", cos_phi)
        object.__setattr__(self, "sin_phi", sin_phi)


def _det_one(entries, exact: bool) -> GroupElement:
    """The element of ``entries``, whose determinant is 1 by construction.

    Exact entries are stored as they are: ``GroupElement``'s test would find
    ad - bc equal to 1 and keep them.  Float entries go through the test,
    whose renormalisation and overflow retry their rounding needs.
    """
    if not exact:
        return GroupElement(*entries)
    a, b, c, d = entries
    g = object.__new__(GroupElement)
    object.__setattr__(g, "a", a)
    object.__setattr__(g, "b", b)
    object.__setattr__(g, "c", c)
    object.__setattr__(g, "d", d)
    return g


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The matrix product g1 g2.

    Exact entries are multiplied over their integer numerators and each
    sum divided once (``numbers.clear_denominators``/``from_numerators``);
    a float in either element runs the same products on the given values.
    A product of two determinant-one matrices has determinant one, so an
    exact product skips ``GroupElement``'s test; a float one takes it.
    """
    e1, e2 = g1.entries(), g2.entries()
    ((a1, b1, c1, d1), (a2, b2, c2, d2)), (den1, den2) = clear_denominators(e1, e2)
    columns = (e2[::2], e2[1::2])
    entries = from_numerators(
        [a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2],
        den1 * den2,
        [row + column for row in (e1[:2], e1[2:]) for column in columns],
    )
    return _det_one(entries, is_exact(den1))


def invert(g: GroupElement) -> GroupElement:
    """The inverse (d, -b, -c, a), of g's determinant one; exact mode skips the test."""
    entries = (g.d, -g.b, -g.c, g.a)
    return _det_one(entries, is_exact(*entries))


def mobius_apply(g: GroupElement, z: PointOrInfinity, sigma: SpaceSign) -> PointOrInfinity:
    """Apply (az+b)/(cz+d) in the sigma-arithmetic; total via INFINITY."""
    if z is INFINITY:
        if g.c == 0:
            return INFINITY
        u = div(g.a, g.c)
        return Point(u, zero_like(u))
    image = orbit_uv((g,), z, sigma)[0]
    return INFINITY if image is None else Point(*image)


def orbit_uv(elements, z: Point, sigma: SpaceSign) -> list[tuple[Scalar, Scalar] | None]:
    """Images of one finite point under each element, as (u, v) pairs.

    The one expansion of the action: (az+b) * conj(cz+d) / modsq(cz+d)
    over the scalars, with no Point built per image.  None stands where
    the modulus vanishes and ``mobius_apply`` gives INFINITY.  An exact
    point under exact elements moves over integer numerators
    (``numbers.clear_denominators``), where each element's denominator
    cancels and an image is two ``Fraction``s over the modulus, as
    ``div`` gives.  With a float anywhere the quotients are ``div``'s: a
    float point makes every modulus a float, which ``div`` divides with ``/``.
    """
    u, v = z.u, z.v
    sig = int(sigma)
    exact = is_exact(u, v)
    images = []
    if exact and all(is_exact(*g.entries()) for g in elements):
        ((u, v),), (dz,) = clear_denominators((u, v))
        for g in elements:
            ((a, b, c, d),), _ = clear_denominators(g.entries())
            den_re = c * u + d * dz
            mod = den_re * den_re - sig * (c * v) ** 2
            if mod == 0:
                images.append(None)
                continue
            re = (a * u + b * dz) * den_re - sig * a * c * v * v
            # re and mod carry (dg dz)^2, v (ad - bc) only dg^2 dz, with dg the element's denominator
            images.append((Fraction(re, mod), Fraction(v * (a * d - b * c) * dz, mod)))
        return images
    for g in elements:
        a, b, c, d = g.a, g.b, g.c, g.d
        den_re = c * u + d
        mod = den_re * den_re - sig * (c * v) ** 2
        if mod == 0:
            images.append(None)
            continue
        re = (a * u + b) * den_re - sig * a * c * v * v
        im = v * (a * d - b * c)
        images.append((div(re, mod), div(im, mod)) if exact else (re / mod, im / mod))
    return images


def subgroup_element(kind: str, param: Scalar) -> GroupElement:
    """One-parameter subgroup elements.

    A(t) = diag(t, 1/t) with t > 0; N(t) is the shift by t; K(t) uses the
    tangent-half-angle point (cos, sin) = ((1-t^2)/(1+t^2), 2t/(1+t^2)),
    so rotations stay rational in exact mode: with t = p/q they are the
    ``Fraction``s (q^2-p^2)/(q^2+p^2) and 2pq/(q^2+p^2) of the numerators,
    and A(p/q) has 1/t = ``Fraction(q, p)``, the quotient ``div`` gives.
    Each has determinant one by construction, so an ``int`` or ``Fraction``
    parameter skips ``GroupElement``'s test (``_det_one``); a float one,
    whose rounding the test renormalises, and any other value, which it
    refuses, take it.
    """
    if kind == "A":
        if param <= 0:
            raise ValueError("dilation parameter must be positive")
        if type(param) is Fraction:  # 1/(p/q) is q/p, without dividing Fractions
            p, q = param.as_integer_ratio()
            return _det_one((param, 0, 0, Fraction(q, p)), True)
        entries = (param, zero_like(param), zero_like(param), div(1, param))
        return _det_one(entries, is_rational(param))
    if kind == "N":
        entries = (one_like(param), param, zero_like(param), one_like(param))
        return _det_one(entries, is_rational(param))
    if kind == "K":
        if is_exact(param):
            p, q = param.numerator, param.denominator
            norm = q * q + p * p
            cos, sin = Fraction(q * q - p * p, norm), Fraction(2 * p * q, norm)
            return _det_one((cos, sin, -sin, cos), True)
        denom = 1 + param * param
        if denom == math.inf:
            # beyond |t| ~ 1.3e154 t^2 overflows: the same quotients, over 1/t^2
            inverse = 1 / param
            denom = inverse * inverse + 1
            cos, sin = (inverse * inverse - 1) / denom, 2 * inverse / denom
        else:
            cos, sin = div(1 - param * param, denom), div(2 * param, denom)
        return GroupElement(cos, sin, -sin, cos)
    raise ValueError(f"unknown subgroup kind {kind!r}")


def iwasawa_decompose(g: GroupElement) -> IwasawaFactors:
    """Factor g = A(alpha) N(nu) K(cos,sin).

    The rotation and alpha depend on the bottom row only; exact mode
    requires c*c + d*d to be a perfect rational square.
    """
    a, b, c, d = g.entries()
    alpha = div(1, scalar_sqrt(c * c + d * d, "bottom row norm"))
    cos_phi = d * alpha
    sin_phi = -c * alpha
    nu = a * c + b * d
    return IwasawaFactors(alpha, nu, cos_phi, sin_phi)


def iwasawa_recompose(factors: IwasawaFactors) -> GroupElement:
    return compose(
        compose(subgroup_element("A", factors.alpha), subgroup_element("N", factors.nu)),
        GroupElement(factors.cos_phi, factors.sin_phi, -factors.sin_phi, factors.cos_phi),
    )


def k_orbit(
    base: Point, sigma: SpaceSign, params: list[Scalar]
) -> list[PointOrInfinity]:
    """Images of a finite base point under rotations K(t), one per parameter."""
    images = orbit_uv([subgroup_element("K", t) for t in params], base, sigma)
    return [INFINITY if image is None else Point(*image) for image in images]


def reduce_to_k_orbit(cycle, sigma_cycle: SpaceSign | None = None) -> tuple[Scalar, Scalar]:
    """Shift nu and dilation alpha moving a cycle onto a rotation orbit.

    Applying N(-nu) then A(alpha) through the similarity action yields a
    quadruple with l = 0 and k = m up to scale, whatever the cycle-space
    sign: ``sigma_cycle`` is accepted and not read.  Cycles whose shifted
    m/k is not positive admit no such form.  The fourth root defining
    alpha is taken as two square roots, each of which falls back to a
    float when it is irrational.
    """
    if cycle.k == 0:
        raise NotAKOrbit("lines are not rotation orbits (k = 0)")
    nu = div(cycle.l, cycle.k)
    m_shifted = cycle.m - div(cycle.l * cycle.l, cycle.k)
    ratio = div(cycle.k, m_shifted) if m_shifted != 0 else None
    if ratio is None or ratio <= 0:
        raise NotAKOrbit(f"shifted m/k = {m_shifted}/{cycle.k} is not positive")
    return nu, sqrt_or_float(sqrt_or_float(ratio))
