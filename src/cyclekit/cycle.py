"""The cycle space: projective quadruples and their 2x2 matrix avatars.

A quadruple (k, l, n, m) encodes the locus k(u^2 - sigma*v^2) - 2lu -
2nv + m = 0; it is a point of P^3, so quadruples are compared up to a
common nonzero factor.  Packing the quadruple into a 2x2 matrix over
the cycle-space algebra turns the Moebius action into matrix
similarity.  Its imaginary part is a scalar multiple of the identity,
so each transformation reduces to a fixed polynomial in the components,
which is what the code evaluates; no matrix product is formed.

A quadruple deliberately stores no signs: the same (k,l,n,m) can be
drawn as a circle, a parabola or a hyperbola, and paired with any
cycle-space sign.  Signs travel separately in an FSCcContext.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import truediv

from .errors import (
    CycleKitError,
    EverywhereZero,
    FocusUndefined,
    Inconsistent,
    LineHasNoRadius,
    NoRealAxisIntersection,
    ShapeError,
    UnderDetermined,
)
from .hypercomplex import HNumber, SpaceSign, h_real
from .moebius import INFINITY, GroupElement, Point, PointOrInfinity
from .numbers import (
    REL_TOL,
    Scalar,
    as_fraction,
    clear_denominators,
    div,
    exact_values,
    from_numerators,
    is_exact,
    is_int,
    one_like,
    quadratic_roots,
    rounded,
    scalar_sqrt,
    vanishes,
)
from .value import Value


class CycleQuadruple(Value):
    """Homogeneous coordinates (k, l, n, m) of one cycle."""

    __slots__ = ("k", "l", "n", "m")

    def __init__(self, k: Scalar, l: Scalar, n: Scalar, m: Scalar):
        if k == 0 and l == 0 and n == 0 and m == 0:
            raise ValueError("the zero quadruple is not a cycle")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def components(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.k, self.l, self.n, self.m)

    def scaled(self, factor: Scalar) -> "CycleQuadruple":
        if factor == 0:
            raise ValueError("projective scale must be nonzero")
        return CycleQuadruple(
            self.k * factor, self.l * factor, self.n * factor, self.m * factor
        )

    def is_degenerate(self) -> bool:
        """(0,0,0,m): an equation with no locus at all."""
        return self.k == 0 and self.l == 0 and self.n == 0


REAL_LINE = CycleQuadruple(0, 0, 1, 0)


class FSCcContext(Value):
    """Cycle-space sign and the +-1 parameter s, read by to_fscc, from_fscc and trace_part."""

    __slots__ = ("sigma_cycle", "s")

    def __init__(self, sigma_cycle: SpaceSign, s: int = 1):
        if s not in (1, -1):
            raise ValueError(f"s must be +1 or -1, got {s}")
        object.__setattr__(self, "sigma_cycle", sigma_cycle)
        object.__setattr__(self, "s", s)


class FSCcMatrix(Value):
    """2x2 matrix ((l+i*s*n, -m), (k, -l+i*s*n)) over the cycle-space algebra."""

    __slots__ = ("a11", "a12", "a21", "a22", "context")

    def __init__(
        self, a11: HNumber, a12: HNumber, a21: HNumber, a22: HNumber, context: FSCcContext
    ):
        _require_shape(a11, a12, a21, a22)
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a21", a21)
        object.__setattr__(self, "a22", a22)
        object.__setattr__(self, "context", context)

    def entries(self) -> tuple[HNumber, HNumber, HNumber, HNumber]:
        return (self.a11, self.a12, self.a21, self.a22)

    def trace(self) -> HNumber:
        return self.a11 + self.a22


def _require_shape(a11: HNumber, a12: HNumber, a21: HNumber, a22: HNumber) -> None:
    values = tuple(x for e in (a11, a12, a21, a22) for x in (e.re, e.im))
    if not (vanishes(a12.im, values) and vanishes(a21.im, values)):
        raise ShapeError("off-diagonal entries must be real")
    if not (vanishes(a22.re + a11.re, values) and vanishes(a22.im - a11.im, values)):
        raise ShapeError("diagonal must be (w, -conj-mirror(w))")


def to_fscc(cycle: CycleQuadruple, ctx: FSCcContext) -> FSCcMatrix:
    sign = ctx.sigma_cycle
    k, l, n, m = cycle.components()
    return FSCcMatrix(
        HNumber(l, ctx.s * n, sign),
        h_real(-m, sign),
        h_real(k, sign),
        HNumber(-l, ctx.s * n, sign),
        ctx,
    )


def from_fscc(matrix: FSCcMatrix) -> CycleQuadruple:
    a11, a12, a21, _ = matrix.entries()
    s = matrix.context.s
    return CycleQuadruple(a21.re, a11.re, div(a11.im, s), -a12.re)


def similarity_transform(
    cycle: CycleQuadruple, g: GroupElement, ctx: FSCcContext | None = None
) -> CycleQuadruple:
    """Image of the cycle under the Moebius map of g: the quadruple of g M g^{-1}.

    The imaginary part i*s*n of M commutes with g, so n is fixed and
    (k, l, m) moves by conjugation with the real matrix g.  Reading n
    back divides s out, so the result does not read ``ctx`` at all.
    Exact operands are transformed over their integer numerators
    (``numbers.clear_denominators``), and each of k, l, m is divided once
    by dg^2 dc (``numbers.from_numerators``); a float anywhere evaluates
    the same polynomials on the given values.
    """
    entries, comps = g.entries(), cycle.components()
    ((a, b, c, d), (k, l, n, m)), (dg, dc) = clear_denominators(entries, comps)
    # n drops out of (k, l, m); adding 0 * n keeps the type the matrix product gave them
    zero = 0 * n
    k, l, m = from_numerators(
        [
            zero + d * d * k + 2 * c * d * l + c * c * m,
            zero + (a * d + b * c) * l + b * d * k + a * c * m,
            zero + b * b * k + 2 * a * b * l + a * a * m,
        ],
        dg * dg * dc,
        [entries[2:] + comps, entries + comps, entries[:2] + comps],
    )
    return CycleQuadruple(k, l, as_fraction(cycle.n), m)


def cycle_eval(cycle: CycleQuadruple, z: Point, sigma: SpaceSign) -> Scalar:
    """Left side of the cycle equation at a finite point."""
    if z is INFINITY:
        raise ValueError("INFINITY has no evaluation; use is_incident")
    k, l, n, m = cycle.components()
    u, v = z.u, z.v
    return k * (u * u - int(sigma) * v * v) - 2 * l * u - 2 * n * v + m


def is_incident(cycle: CycleQuadruple, z: PointOrInfinity, sigma: SpaceSign) -> bool:
    """Point-on-cycle test, exact (== 0) in both modes; INFINITY lies on lines (k = 0)."""
    if z is INFINITY:
        return cycle.k == 0
    return cycle_eval(cycle, z, sigma) == 0


def centre(cycle: CycleQuadruple, kind: SpaceSign) -> PointOrInfinity:
    """(l/k, -kind*n/k); lines (k = 0) have their centre at INFINITY."""
    if cycle.k == 0:
        return INFINITY
    return Point(div(cycle.l, cycle.k), div(-int(kind) * cycle.n, cycle.k))


def det_invariant(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """Determinant of the cycle matrix: sigma_cycle*n^2 - l^2 + m*k, as (i*s)^2 = sigma_cycle.

    All-``int`` components, or a float anywhere, evaluate the polynomial
    on the given values.  A quadruple with a ``Fraction`` is evaluated over
    its integer numerators (``numbers.clear_denominators``) and divided
    once by the squared common denominator (``numbers.from_numerators``);
    all four components are the operands, since 0 * n keeps a ``Fraction``
    n's type when sigma_cycle = 0.
    """
    comps = cycle.components()
    if not is_exact(*comps) or is_int(*comps):
        k, l, n, m = comps
        return int(ctx.sigma_cycle) * n * n - l * l + m * k
    ((k, l, n, m),), (den,) = clear_denominators(comps)
    (det,) = from_numerators((int(ctx.sigma_cycle) * n * n - l * l + m * k,), den * den, (comps,))
    return det


def trace_part(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """Imaginary coefficient 2*s*n of the matrix trace (real part is 0)."""
    return 2 * ctx.s * cycle.n


def radius_sq(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """-det/k^2: squared radius (elliptic), quarter squared root gap (parabolic)."""
    if cycle.k == 0:
        raise LineHasNoRadius("k = 0: lines carry no radius")
    return div(-det_invariant(cycle, ctx), cycle.k * cycle.k)


def focus(cycle: CycleQuadruple, sigma_cycle: SpaceSign) -> Point:
    """(l/k, det/(2nk)), det the determinant of the sigma_cycle matrix.

    The sign in front of det is fixed by the parabola anchors: drawn
    parabolically, the parabolic focus is the vertex, the hyperbolic
    focus is the classical focus and the elliptic focus is the nearest
    directrix point.
    """
    if cycle.k == 0 or cycle.n == 0:
        raise FocusUndefined("focus needs k != 0 and n != 0")
    det = det_invariant(cycle, FSCcContext(sigma_cycle, 1))
    return Point(div(cycle.l, cycle.k), div(det, 2 * cycle.n * cycle.k))


def zero_radius_cycle(at: tuple[Scalar, Scalar], ctx: FSCcContext) -> CycleQuadruple:
    """(1, x, y, x^2 - sigma_cycle*y^2): the isotropic cycle centred at (x, y)."""
    x, y = at
    m = x * x - int(ctx.sigma_cycle) * y * y
    return CycleQuadruple(one_like(m), x, y, m)


def roots(cycle: CycleQuadruple) -> list[Scalar]:
    """Real solutions of k u^2 - 2 l u + m = 0 (the v = 0 section), ascending.

    k, l and m are read once: a float as the ``Fraction`` of its own value
    (``numbers.exact_values``; one that is not finite raises ValueError), and
    then as integers over one denominator (``numbers.clear_denominators``).
    ``numbers.quadratic_roots`` gives a rational root as a ``Fraction`` and an
    irrational one as the nearest float of the exact root.  With a float among
    the scalars each root is rounded once (``numbers.rounded``).  A root
    beyond the float range raises CycleKitError.
    """
    k, l, _, m = cycle.components()
    (k, l, m), inexact = exact_values((k, l, m))
    if k == 0 and l == 0:
        if m == 0:
            raise EverywhereZero("real-axis restriction vanishes identically")
        raise NoRealAxisIntersection("k = l = 0 with m != 0")
    ((k, l, m),), _ = clear_denominators((k, l, m))
    try:
        found = quadratic_roots(k, -2 * l, m)
    except OverflowError:
        raise CycleKitError("an irrational root leaves the float range") from None
    return rounded(found) if inexact else found


def projective_eq(c1: CycleQuadruple, c2: CycleQuadruple) -> bool:
    """Exact equality in P^3: all 2x2 minors of the component pair vanish."""
    a = c1.components()
    b = c2.components()
    for i in range(4):
        for j in range(i + 1, 4):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    # Same line through the origin; nonzero-ness is guaranteed by the type.
    return True


def projective_close(c1: CycleQuadruple, c2: CycleQuadruple, tol: float = REL_TOL) -> bool:
    """Float-friendly projective comparison (normalised max-component)."""
    a = [float(x) for x in c1.components()]
    b = [float(x) for x in c2.components()]
    na = max(abs(x) for x in a)
    nb = max(abs(x) for x in b)
    a = [x / na for x in a]
    b = [x / nb for x in b]
    direct = max(abs(x - y) for x, y in zip(a, b))
    flipped = max(abs(x + y) for x, y in zip(a, b))
    return min(direct, flipped) <= tol


def normalize(cycle: CycleQuadruple, mode: str, ctx: FSCcContext | None = None) -> CycleQuadruple:
    """k-one divides by k; det-one rescales so the determinant becomes 1."""
    if mode == "k-one":
        if cycle.k == 0:
            raise ValueError("k-one normalisation needs k != 0")
        return cycle.scaled(div(1, cycle.k))
    if mode == "det-one":
        if ctx is None:
            raise ValueError("det-one normalisation needs a context")
        det = det_invariant(cycle, ctx)
        if det <= 0:
            raise ValueError(f"det-one normalisation needs det > 0, got {det}")
        return cycle.scaled(div(1, scalar_sqrt(det, "det-one normalisation")))
    raise ValueError(f"unknown normalisation {mode!r}")


def normalized_key(cycle: CycleQuadruple) -> tuple:
    """Canonical representative: first nonzero component scaled to 1.

    An exact quadruple is read once over its integer numerators
    (``numbers.clear_denominators``), and each component is the one
    ``Fraction(numerator, leading numerator)``, the quotient ``div`` gives;
    with a float anywhere each component is ``div(x, leading component)``.
    """
    ((nums,), (den,)) = clear_denominators(cycle.components())
    quotient = Fraction if is_exact(den) else div
    for lead in nums:
        if lead != 0:
            return tuple([quotient(x, lead) for x in nums])
    raise ValueError("zero quadruple")


# ---------------------------------------------------------------------------
# Constraint solver


class PassesThrough(Value):
    """Incidence with a finite point in the given point-space sign."""

    __slots__ = ("point", "sigma")

    def __init__(self, point: tuple[Scalar, Scalar], sigma: SpaceSign):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "sigma", sigma)


class HasKindCentre(Value):
    """Centre of the given kind at a finite point (needs k != 0)."""

    __slots__ = ("point", "kind")

    def __init__(self, point: tuple[Scalar, Scalar], kind: SpaceSign):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "kind", kind)


class HasFocus(Value):
    """Focus for the given cycle-space sign at a finite point."""

    __slots__ = ("point", "sigma_cycle")

    def __init__(self, point: tuple[Scalar, Scalar], sigma_cycle: SpaceSign):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "sigma_cycle", sigma_cycle)


class IsOrthogonalTo(Value):
    """Vanishing trace pairing with a fixed cycle."""

    __slots__ = ("cycle", "ctx")

    def __init__(self, cycle: CycleQuadruple, ctx: FSCcContext):
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "ctx", ctx)


class Normalised(Value):
    """Affine chart k = 1."""

    __slots__ = ()


Constraint = PassesThrough | HasKindCentre | HasFocus | IsOrthogonalTo | Normalised

_ZERO, _ONE = Fraction(0), Fraction(1)  # every exact zero and one entry of _gauss_solve


def _exact_constraints(constraints: list[Constraint]) -> tuple[list[Constraint], bool]:
    """The constraints over the exact values of their scalars, and whether one was a float.

    Each constraint's scalars are read once (``numbers.exact_values``), so a
    float or mixed system becomes the exact system of the same values.
    """
    exact, inexact = [], False
    for constraint in constraints:
        if isinstance(constraint, IsOrthogonalTo):
            comps, floats = exact_values(constraint.cycle.components())
            constraint = IsOrthogonalTo(CycleQuadruple(*comps), constraint.ctx) if floats else constraint
        elif isinstance(constraint, (PassesThrough, HasKindCentre, HasFocus)):
            point, floats = exact_values(constraint.point)
            # the sign is the second field, whatever its name in the class
            constraint = type(constraint)(point, constraint._fields(constraint)[1]) if floats else constraint
        else:
            floats = False
        exact.append(constraint)
        inexact = inexact or floats
    return exact, inexact


def _linear_rows(constraint: Constraint) -> list[tuple[list[int], int]]:
    """Rows (integer coefficients on (k,l,n,m), rhs) of an exact constraint's linear part.

    The rows are built over the integer numerators of the constraint's
    scalars (``numbers.clear_denominators``): the rows over the scalars
    times a positive common denominator, which leaves the solutions alone.
    """
    if isinstance(constraint, (PassesThrough, HasKindCentre, HasFocus)):
        ((u, v),), (d,) = clear_denominators(constraint.point)
        if isinstance(constraint, PassesThrough):
            return [([u * u - int(constraint.sigma) * v * v, -2 * u * d, -2 * v * d, d * d], 0)]
        if isinstance(constraint, HasKindCentre):
            # l = u k and kind*n = -v k; for kind 0 the second row pins v k = 0.
            return [([-u, d, 0, 0], 0), ([v, 0, int(constraint.kind) * d, 0], 0)]
        return [([-u, d, 0, 0], 0)]
    if isinstance(constraint, IsOrthogonalTo):
        ((k, l, n, m),), _ = clear_denominators(constraint.cycle.components())
        return [([-m, 2 * l, -2 * int(constraint.ctx.sigma_cycle) * n, -k], 0)]
    if isinstance(constraint, Normalised):
        return [([1, 0, 0, 0], 1)]
    raise TypeError(f"unknown constraint {constraint!r}")


def _gauss_solve(rows, rhs):
    """Gauss-Jordan elimination of exact augmented rows over the integers.

    Rows with a ``Fraction`` entry are first cleared to integers
    (``numbers.clear_denominators``, one denominator per row).  The pivot of
    a column is its first nonzero entry, and each step replaces every other
    row by pivot * row - entry * pivot_row over the gcd of its entries, so
    no pivot row is divided.  The reduced form is unique, so each nonzero
    output entry, built once as ``Fraction(entry, pivot)``, is what
    elimination over Fraction gives; zero and one entries are the shared
    ``Fraction(0)`` and ``Fraction(1)``.  Returns (particular solution,
    nullspace basis), or None when the system is inconsistent.
    """
    nvars = 4
    aug = [[*r, b] for r, b in zip(rows, rhs)]
    if not is_int(*[x for row in aug for x in row]):
        aug, _ = clear_denominators(*aug)
    pivots: list[int] = []
    r = 0
    for col in range(nvars):
        for pivot_row in range(r, len(aug)):
            if aug[pivot_row][col]:
                break
        else:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        top = aug[r]
        piv = top[col]
        for i, row in enumerate(aug):
            factor = row[col]
            if i != r and factor != 0:
                row = [piv * x - factor * y for x, y in zip(row, top)]
                if (common := math.gcd(*row)) > 1:
                    row = [x // common for x in row]
                aug[i] = row
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    if any(row[nvars] for row in aug[r:]):
        return None
    # the reduced form: each pivot row over its pivot
    reduced = [(aug[i], aug[i][col], col) for i, col in enumerate(pivots)]
    particular = [_ZERO] * nvars
    for row, piv, col in reduced:
        particular[col] = Fraction(row[nvars], piv) if row[nvars] else _ZERO
    basis = []
    for free in [c for c in range(nvars) if c not in pivots]:
        vec = [_ZERO] * nvars
        vec[free] = _ONE
        for row, piv, col in reduced:
            vec[col] = Fraction(-row[free], piv) if row[free] else _ZERO
        basis.append(vec)
    return particular, basis


def _n_vanishes(k: Scalar, l: Scalar, n: Scalar, m: Scalar) -> bool:
    """Whether a focus candidate's n counts as zero.

    An exact n when n == 0.  A float n, which only a candidate at an
    irrational root has, is measured against |l| and sqrt|km|, the
    candidate's other sizes of degree one, which scale like n when the
    quadruple or the plane is scaled.  A bound on n alone would be floored
    at 1 or grow with m, and so would reject true cycles whose focus lies
    far from the origin or whose figure is small.
    """
    if is_exact(n):
        return n == 0
    size = max(abs(l), scalar_sqrt(abs(k), "focus") * scalar_sqrt(abs(m), "focus"))
    return n == 0 or (size > 0 and vanishes(n / size))


def _satisfies(values: list[Scalar], constraints, on_roots: bool) -> bool:
    """Re-verify the non-linear parts of every constraint on a candidate.

    A centre or focus needs k != 0, a focus also an n that does not
    vanish (``_n_vanishes``, so a float n of rounding size counts as
    zero), and each focus residual sigma_cycle n^2 - l^2 + m k - 2 v n k
    must vanish; this filters spurious k = 0 and n = 0 hits.  ``on_roots``
    says that the candidate is base + t*dir at an exact root t of every
    focus quadratic, where each residual a t^2 + b t + c is exactly 0, so
    the residuals are not evaluated again; the k and n tests still run.
    """
    k, l, n, m = values
    for constraint in constraints:
        if isinstance(constraint, (HasKindCentre, HasFocus)) and k == 0:
            return False
        if isinstance(constraint, HasFocus):
            v, sign = constraint.point[1], int(constraint.sigma_cycle)
            if _n_vanishes(k, l, n, m) or not (
                on_roots or vanishes(sign * n * n - l * l + m * k - 2 * v * n * k, values, values)
            ):
                return False
    return True


def _focus_roots(constraint: HasFocus, cleared) -> list[Scalar]:
    """Parameters t at which base + t*direction satisfies the focus quadratic.

    ``cleared`` is ``clear_denominators(base, direction)`` of the exact line,
    computed once for all foci.  R(q) = sigma_cycle n^2 - l^2 + m k - 2 v n k
    is a quadratic form, so R(base + t dir) = a t^2 + b t + c with
    a = R(dir), c = R(base) and b = 2 P(base, dir), P its polar form.  Read
    once, over the integer numerators of base, dir and v, they are integers
    over dv dd^2, dv db dd and dv db^2, and t = dd s / db turns the equation
    into a s^2 + b s + c = 0 over the same integers, which
    ``numbers.quadratic_roots`` solves: a rational t is one ``Fraction``, an
    irrational one the nearest float of the exact root, and a = b = c = 0
    raises ``UnderDetermined``.
    """
    (base, direction), (db, dd) = cleared
    (kb, lb, nb, mb), (kd, ld, nd, md) = base, direction
    v = constraint.point[1]
    v, dv = v.numerator, v.denominator
    s = int(constraint.sigma_cycle)
    a = dv * (s * nd * nd - ld * ld + md * kd) - 2 * v * nd * kd
    b = dv * (2 * (s * nb * nd - lb * ld) + mb * kd + md * kb) - 2 * v * (nb * kd + nd * kb)
    c = dv * (s * nb * nb - lb * lb + mb * kb) - 2 * v * nb * kb
    return quadratic_roots(a, b, c, dd, db)


def pencil(constraints: list[Constraint]) -> tuple[list[Scalar], list[list[Scalar]], bool]:
    """Linear stage of the solver: (base, basis, projective).

    ``_gauss_solve`` eliminates the integer rows (``_linear_rows``) of the
    exact constraints (``_exact_constraints``); the solutions are
    base + span(basis).  When every right-hand side is 0 the system is
    projective and the last nullspace vector is popped into the place of the
    particular solution.  The Fraction components are rounded once to floats
    (``numbers.rounded``) when a scalar was a float.  Raises Inconsistent
    when no solution, or only the zero quadruple, exists.
    """
    constraints, inexact = _exact_constraints(constraints)
    base, basis, projective = _pencil(constraints)
    if inexact:
        base, basis = rounded(base), [rounded(vec) for vec in basis]
    return base, basis, projective


def _pencil(constraints: list[Constraint]) -> tuple[list[Fraction], list[list[Fraction]], bool]:
    """``pencil`` of constraints that ``_exact_constraints`` has made exact, before any rounding."""
    pairs = [pair for constraint in constraints for pair in _linear_rows(constraint)]
    rhs = [b for _, b in pairs]
    solved = _gauss_solve([coeffs for coeffs, _ in pairs], rhs)
    if solved is None:
        raise Inconsistent("linear constraints admit no solution")
    base, basis = solved
    projective = all(b == 0 for b in rhs)
    if projective:
        if not basis:
            raise Inconsistent("only the zero quadruple satisfies the constraints")
        base = basis.pop()
    return base, basis, projective


def cycle_from_constraints(constraints: list[Constraint]) -> list[CycleQuadruple]:
    """All cycles satisfying every constraint, in deterministic order.

    A float or mixed system is solved as the exact system of the same values
    (``_exact_constraints``), and each component of the answer is rounded
    once to a float (``numbers.rounded``).  The linear conditions are
    eliminated first (``_pencil``, the exact stage of ``pencil``, on the
    constraints as converted here).  What remains is one candidate, or a line
    base + t*direction whose candidates are the common roots t of the focus
    quadratics (``_focus_roots``, over the numerators of base and direction,
    cleared once); a projective line also offers its direction, the point
    t = infinity.  With base = nb/db and direction = nd/dd over those
    numerators, the candidate at a root t = p/q (``t.as_integer_ratio()``)
    is (q dd nb_i + p db nd_i) / (q db dd) per component: one ``Fraction``
    at a rational root, and at an irrational one, which is the nearest float
    of the exact root, that quotient rounded once, so the candidate lies on
    the exact line.  One pass then checks every candidate (``_satisfies``):
    k != 0 where a centre or focus needs it, an n that does not vanish where
    a focus does, and every focus residual, which a candidate at an exact
    root t of every quadratic satisfies by construction.  A candidate at an
    irrational root is tested within ``REL_TOL`` (``numbers.vanishes``);
    where the root or a component of its candidate is beyond the float
    range, CycleKitError is raised.  The survivors are ordered by their exact
    ``normalized_key``, and of equal keys the later candidate is kept.  A
    solution family of positive dimension raises UnderDetermined; no
    surviving candidate raises Inconsistent.
    """
    constraints, inexact = _exact_constraints(constraints)
    base, basis, projective = _pencil(constraints)
    quadratics = [c for c in constraints if isinstance(c, HasFocus)]
    if len(basis) > (1 if quadratics else 0):
        kind = "projective" if projective else "affine"
        raise UnderDetermined(f"solution family has {kind} dimension {len(basis)}")
    try:
        if not basis:
            candidates = [(base, False)]
        else:
            (direction,) = basis
            cleared = clear_denominators(base, direction)
            (nb, nd), (db, dd) = cleared
            first, *others = [_focus_roots(q, cleared) for q in quadratics]
            ts = [t for t in first if all(any(vanishes(t - o, (t, o)) for o in r) for r in others)]
            candidates = []
            for t in ts:
                exact = is_exact(t)
                p, q = t.as_integer_ratio()
                qd, pd, den = q * dd, p * db, q * db * dd
                quotient = Fraction if exact else truediv
                values = [quotient(qd * x + pd * y, den) for x, y in zip(nb, nd)]
                on_roots = exact and all(any(is_exact(o) and o == t for o in r) for r in others)
                candidates.append((values, on_roots))
            if projective:
                candidates.append((direction, False))
        solutions = [
            CycleQuadruple(*values)
            for values, on_roots in candidates
            if any(values) and _satisfies(values, constraints, on_roots)
        ]
    except OverflowError:  # a float root, or its candidate, beyond the float range
        raise CycleKitError("an irrational focus root leaves the float range") from None
    if not solutions:
        raise Inconsistent("no candidate survives constraint verification")
    # the stable sort leaves the later of equal keys last, and the last of a run stays
    keyed = sorted([(normalized_key(sol), sol) for sol in solutions], key=lambda pair: pair[0])
    solutions = [sol for i, (key, sol) in enumerate(keyed, 1) if i == len(keyed) or keyed[i][0] != key]
    return [CycleQuadruple(*rounded(sol.components())) for sol in solutions] if inexact else solutions
