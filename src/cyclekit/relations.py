"""Joint invariants of cycle pairs.

The trace pairing conjugates its second factor before multiplying, so
it is real-valued and reproduces tangent-line orthogonality whenever
both signs are elliptic (or both hyperbolic).  Its vanishing, not its
value, is the Moebius-invariant notion.  Ghost cycles reduce the
sign-twisted orthogonalities to the usual one; reflections implement
cycle-in-cycle mirroring, with a conjugated variant for the classical
point inversion.
"""

from __future__ import annotations

import warnings

from .cycle import (
    CycleQuadruple,
    FSCcContext,
    IsOrthogonalTo,
    PassesThrough,
    REAL_LINE,
    centre,
    pencil,
    zero_radius_cycle,
)
from .errors import (
    Degenerate,
    DegenerateReflection,
    DegenerateRelationWarning,
    Inconsistent,
)
from .hypercomplex import SpaceSign
from .moebius import INFINITY, PointOrInfinity
from .numbers import Scalar, as_fraction, clear_denominators, from_numerators, is_exact, vanishes


def heaviside(t: Scalar) -> int:
    """+1 for t >= 0, -1 below; the sign selector of the ghost twists."""
    return 1 if t >= 0 else -1


def pairing(c1: CycleQuadruple, c2: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """Real part of trace(M1 * conj(M2)); symmetric and bilinear.

    Expanded: 2*l1*l2 - 2*sigma_cycle*n1*n2 - m1*k2 - k1*m2, where s*s = 1.
    The self-pairing equals -2 det.  Exact quadruples are paired over
    their integer numerators (``_pairing_terms``) and the sum is divided
    once by d1 d2; a float in either quadruple evaluates the same
    expression on the given values.
    """
    (value,) = from_numerators(*_pairing_terms(c1, c2, ctx))
    return value


def is_orthogonal(c1: CycleQuadruple, c2: CycleQuadruple, ctx: FSCcContext) -> bool:
    """Vanishing pairing, an exact one tested as its numerator; tolerance-scaled for floats."""
    (value,), _, _ = _pairing_terms(c1, c2, ctx)
    return vanishes(value, c1.components(), c2.components())


def _pairing_terms(c1: CycleQuadruple, c2: CycleQuadruple, ctx: FSCcContext):
    """The pairing as the arguments of ``numbers.from_numerators``.

    The expansion over the numerators of ``numbers.clear_denominators`` (or
    over the floats as given), its denominator d1 d2 and its operands.
    """
    sig = int(ctx.sigma_cycle)
    ops1, ops2 = c1.components(), c2.components()
    ((k1, l1, n1, m1), (k2, l2, n2, m2)), (d1, d2) = clear_denominators(ops1, ops2)
    return [2 * l1 * l2 - 2 * sig * n1 * n2 - m1 * k2 - k1 * m2], d1 * d2, [ops1 + ops2]


def ghost_cycle(
    cycle: CycleQuadruple, sigma: SpaceSign, sigma_cycle: SpaceSign
) -> CycleQuadruple:
    """(k, l, chi(sigma)*sigma_cycle*n, m).

    Shares the roots of the original, its chi(sigma)-centre sits at the
    sigma_cycle-centre of the original, and it converts sigma_cycle
    pairing against anything into chi(sigma) pairing exactly.
    """
    twist = heaviside(int(sigma)) * int(sigma_cycle)
    if cycle.k == 0 and cycle.l == 0 and cycle.m == 0 and twist == 0:
        raise Degenerate("ghost of the real line collapses in the parabolic cycle space")
    return CycleQuadruple(cycle.k, cycle.l, twist * cycle.n, cycle.m)


def _sandwich(outer: tuple, inner: tuple, sigma_cycle: SpaceSign):
    """(k, l, x, m) of M_mirror * M_cycle * M_mirror, whose imaginary part is i*s*x.

    ``outer`` and ``inner`` are the components of the mirror and the cycle.

    With M = R + i*s*n and R traceless real, R1 R2 R1 = tr(R1 R2) R1 -
    (l1^2 - m1 k1) R2; s enters x only as s*s = 1.  The m1 terms cancel
    from k and the k1 terms from m; leaving them out keeps the result
    types of the matrix product.  The result is the arguments of
    ``numbers.from_numerators``: the four values over the numerators of
    ``numbers.clear_denominators`` (or over the floats as given), their
    common denominator d1^2 d2 (degree 2 in the mirror, 1 in the cycle)
    and the operands each value reads.
    """
    ((k1, l1, n1, m1), (k2, l2, n2, m2)), (d1, d2) = clear_denominators(outer, inner)
    sig = int(sigma_cycle)
    trace = 2 * l1 * l2 - m1 * k2 - k1 * m2
    square = l1 * l1 - m1 * k1
    shared = 2 * l1 * l2 + 2 * sig * n1 * n2
    rest = sig * n1 * n1 - l1 * l1
    both = outer + inner
    return (
        (
            k1 * (shared - k1 * m2) + k2 * rest,
            (trace + 2 * sig * n1 * n2) * l1 + (sig * n1 * n1 - square) * l2,
            n1 * trace + n2 * square + sig * n1 * n1 * n2,
            m1 * (shared - m1 * k2) + m2 * rest,
        ),
        d1 * d1 * d2,
        (outer[:3] + inner, both, both, outer[1:] + inner),
    )


def reflect_cycle(
    mirror: CycleQuadruple,
    cycle: CycleQuadruple,
    ctx: FSCcContext,
    conjugate_argument: bool = True,
) -> CycleQuadruple:
    """Quadruple of M_mirror * conj(M_cycle) * M_mirror.

    Conjugating the reflected matrix (imaginary part negated) makes the
    map an involution up to scale and reproduces classical point
    inversion in the mirror; pass ``conjugate_argument=False`` for the
    raw triple product, whose imaginary part differs only in sign.  The
    product, a fixed polynomial in the components, always has the
    cycle-matrix shape; a zero product raises DegenerateReflection.
    """
    inner = (cycle.k, cycle.l, -cycle.n, cycle.m) if conjugate_argument else cycle.components()
    k, l, x, m = from_numerators(*_sandwich(mirror.components(), inner, ctx.sigma_cycle))
    if k == 0 and l == 0 and m == 0 and x == 0:
        raise DegenerateReflection("reflection collapsed to the zero quadruple")
    return CycleQuadruple(k, l, as_fraction(x), m)


def invert_point(
    cycle: CycleQuadruple, b: tuple[Scalar, Scalar], ctx: FSCcContext
) -> PointOrInfinity:
    """Inverse of a point in a cycle: centre of the reflected point-cycle.

    In the elliptic case this reproduces classical circle inversion
    (points of the mirror are fixed); a reflected quadruple with k = 0
    means the image is INFINITY.
    """
    z_b = zero_radius_cycle(b, ctx)
    reflected = reflect_cycle(cycle, z_b, ctx)
    if reflected.k == 0:
        return INFINITY
    return centre(reflected, ctx.sigma_cycle)


def common_inverse_point(
    cycle: CycleQuadruple,
    b: tuple[Scalar, Scalar],
    sigma: SpaceSign,
    sigma_cycle: SpaceSign,
) -> PointOrInfinity:
    """Second common point of all cycles through b orthogonal to the cycle.

    Computed as classical inversion of b in the ghost cycle, carried out
    in the chi(sigma) algebra: the fixed locus of the twisted inversion
    is the ghost, not the cycle itself.
    """
    ghost = ghost_cycle(cycle, sigma, sigma_cycle)
    chi_ctx = FSCcContext(SpaceSign(heaviside(int(sigma))), 1)
    return invert_point(ghost, b, chi_ctx)


def is_s_orthogonal(
    cycle: CycleQuadruple, other: CycleQuadruple, ctx: FSCcContext
) -> bool:
    """trace(C * C~ * C * R) = 0, all hypercomplex components.

    R = i*s is the real line, so the trace is the real number
    2*sigma_cycle*x (s*s = 1), with i*s*x the imaginary part of
    C * C~ * C.  Only x is computed, as ``_sandwich`` computes it: over
    the integer numerators of exact quadruples
    (``numbers.clear_denominators``), where x is tested as its numerator
    and no ``Fraction`` is built, or over the floats as given.  The
    relation is not symmetric.  In the parabolic cycle space the trace
    vanishes identically; the verdict is True with a diagnostic warning.
    """
    if ctx.sigma_cycle == SpaceSign.PARABOLIC:
        warnings.warn(
            "s-orthogonality degenerates for the parabolic cycle space",
            DegenerateRelationWarning,
            stacklevel=2,
        )
        return True
    comps, others = cycle.components(), other.components()
    ((k1, l1, n1, m1), (k2, l2, n2, m2)), _ = clear_denominators(comps, others)
    sig = int(ctx.sigma_cycle)
    imag = n1 * (2 * l1 * l2 - m1 * k2 - k1 * m2) + n2 * (l1 * l1 - m1 * k1) + sig * n1 * n1 * n2
    return vanishes(2 * sig * imag, comps, comps, others)


def s_ghost(
    cycle: CycleQuadruple, sigma: SpaceSign, sigma_cycle: SpaceSign
) -> CycleQuadruple:
    """Reflection of the real line in the cycle taken at s = chi(sigma).

    Read back at s = +1.  Shares the roots of the original for nonzero
    n; the construction collapses to the real line in the parabolic
    cycle space, which is rejected.
    """
    if sigma_cycle == SpaceSign.PARABOLIC:
        raise DegenerateReflection(
            "s-ghost collapses to the real line in the parabolic cycle space"
        )
    k, l, x, m = from_numerators(*_sandwich(cycle.components(), REAL_LINE.components(), sigma_cycle))
    if k == 0 and l == 0 and m == 0 and x == 0:
        raise DegenerateReflection("s-ghost collapsed to the zero quadruple")
    return CycleQuadruple(k, l, as_fraction(heaviside(int(sigma)) * x), m)


def orthogonal_family(
    cycle: CycleQuadruple,
    through: tuple[Scalar, Scalar],
    ctx: FSCcContext,
    count: int,
    sigma: SpaceSign = SpaceSign.ELLIPTIC,
) -> list[CycleQuadruple]:
    """The first ``count`` members of the pencil orthogonal to a cycle through a point.

    The two linear conditions leave a projective line base + t*direction
    (``cycle.pencil``).  Member i is alpha*direction + beta*base for the
    i-th ratio alpha:beta of 1:0, 0:1, 1:1, 1:-1, then 1:s, 1:-s, s:1,
    -s:1 for s = 2, 3, ...; no two ratios give the same projective
    class.  In exact mode the members 1:0 and 0:1 are the pencil's own
    vectors, the Fractions that 1*x + 0*y gives; float members are all
    computed from their ratio.  ``sigma`` fixes the point space in which
    the incidence is read (the construction draws in the elliptic plane
    by default).  Raises ValueError for ``count`` < 1 and Inconsistent
    when the conditions do not leave a projective line.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    base, basis, _ = pencil([IsOrthogonalTo(cycle, ctx), PassesThrough(through, sigma)])
    if len(basis) != 1:
        raise Inconsistent(
            f"expected a projective line of solutions, got dimension {len(basis)}"
        )
    direction = basis[0]
    # the pencil's vectors are all Fractions or all floats
    own = [CycleQuadruple(*v) for v in (direction, base)[:count]] if is_exact(base[0]) else []
    ratios = [(1, 0), (0, 1), (1, 1), (1, -1)]
    step = 2
    while len(ratios) < count:
        ratios.extend([(1, step), (1, -step), (step, 1), (-step, 1)])
        step += 1
    return own + [
        CycleQuadruple(*(alpha * x + beta * y for x, y in zip(direction, base)))
        for alpha, beta in ratios[len(own):count]
    ]
