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

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EverywhereZero,
    ExactModeError,
    FocusUndefined,
    Inconsistent,
    LineHasNoRadius,
    NoRealAxisIntersection,
    ShapeError,
    UnderDetermined,
)
from .hypercomplex import HNumber, SpaceSign, h_real
from .moebius import INFINITY, GroupElement, Point, PointOrInfinity
from .numbers import Scalar, div, is_exact, sqrt_exact


@dataclass(frozen=True)
class CycleQuadruple:
    """Homogeneous coordinates (k, l, n, m) of one cycle."""

    k: Scalar
    l: Scalar
    n: Scalar
    m: Scalar

    def __post_init__(self):
        if self.k == 0 and self.l == 0 and self.n == 0 and self.m == 0:
            raise ValueError("the zero quadruple is not a cycle")

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


@dataclass(frozen=True)
class FSCcContext:
    """Cycle-space sign and the +-1 parameter scaling the imaginary part."""

    sigma_cycle: SpaceSign
    s: int = 1

    def __post_init__(self):
        if self.s not in (1, -1):
            raise ValueError(f"s must be +1 or -1, got {self.s}")


@dataclass(frozen=True)
class FSCcMatrix:
    """2x2 matrix ((l+i*s*n, -m), (k, -l+i*s*n)) over the cycle-space algebra."""

    a11: HNumber
    a12: HNumber
    a21: HNumber
    a22: HNumber
    context: FSCcContext

    def __post_init__(self):
        _require_shape(self.a11, self.a12, self.a21, self.a22)

    def entries(self) -> tuple[HNumber, HNumber, HNumber, HNumber]:
        return (self.a11, self.a12, self.a21, self.a22)

    def trace(self) -> HNumber:
        return self.a11 + self.a22


def _require_shape(a11: HNumber, a12: HNumber, a21: HNumber, a22: HNumber) -> None:
    tol = 0.0 if is_exact(a11.re, a11.im, a12.re, a12.im, a21.re, a21.im, a22.re, a22.im) else 1e-9
    scale = max(
        1.0 if tol else 1,
        *(abs(x) for e in (a11, a12, a21, a22) for x in (e.re, e.im)),
    )
    def off(x):
        return abs(x) > tol * scale if tol else x != 0

    if off(a12.im) or off(a21.im):
        raise ShapeError("off-diagonal entries must be real")
    if off(a22.re + a11.re) or off(a22.im - a11.im):
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
    cycle: CycleQuadruple, g: GroupElement, ctx: FSCcContext
) -> CycleQuadruple:
    """Image of the cycle under the Moebius map of g: the quadruple of g M g^{-1}.

    The imaginary part i*s*n of M commutes with g, so n is fixed and
    (k, l, m) moves by conjugation with the real matrix g; the result is
    projectively independent of the context.
    """
    a, b, c, d = g.entries()
    k, l, n, m = cycle.components()
    # n drops out of (k, l, m); adding 0 * n keeps the type the matrix product gave them
    zero = 0 * n
    return CycleQuadruple(
        zero + d * d * k + 2 * c * d * l + c * c * m,
        zero + (a * d + b * c) * l + b * d * k + a * c * m,
        div(ctx.s * n, ctx.s),
        zero + b * b * k + 2 * a * b * l + a * a * m,
    )


def cycle_eval(cycle: CycleQuadruple, z: Point, sigma: SpaceSign) -> Scalar:
    """Left side of the cycle equation at a finite point."""
    if z is INFINITY:
        raise ValueError("INFINITY has no evaluation; use is_incident")
    k, l, n, m = cycle.components()
    u, v = z.u, z.v
    return k * (u * u - int(sigma) * v * v) - 2 * l * u - 2 * n * v + m


def is_incident(
    cycle: CycleQuadruple, z: PointOrInfinity, sigma: SpaceSign, tol: float = 0.0
) -> bool:
    """Point-on-cycle test; INFINITY is incident exactly to lines (k = 0)."""
    if z is INFINITY:
        return cycle.k == 0
    value = cycle_eval(cycle, z, sigma)
    if tol == 0.0:
        return value == 0
    scale = max(1.0, *(abs(float(c)) for c in cycle.components()))
    return abs(value) <= tol * scale


def centre(cycle: CycleQuadruple, kind: SpaceSign) -> PointOrInfinity:
    """(l/k, -kind*n/k); lines (k = 0) have their centre at INFINITY."""
    if cycle.k == 0:
        return INFINITY
    return Point(div(cycle.l, cycle.k), div(-int(kind) * cycle.n, cycle.k))


def det_invariant(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """Determinant of the cycle matrix: sigma_cycle*s^2*n^2 - l^2 + m*k."""
    k, l, n, m = cycle.components()
    return int(ctx.sigma_cycle) * ctx.s * ctx.s * n * n - l * l + m * k


def trace_part(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """Imaginary coefficient 2*s*n of the matrix trace (real part is 0)."""
    return 2 * ctx.s * cycle.n


def radius_sq(cycle: CycleQuadruple, ctx: FSCcContext) -> Scalar:
    """-det/k^2: squared radius (elliptic), quarter squared root gap (parabolic)."""
    if cycle.k == 0:
        raise LineHasNoRadius("k = 0: lines carry no radius")
    return div(-det_invariant(cycle, ctx), cycle.k * cycle.k)


def focus(cycle: CycleQuadruple, sigma_cycle: SpaceSign) -> Point:
    """(l/k, det/(2nk)) with the determinant taken at s = +1.

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
    one = 1.0 if isinstance(x, float) or isinstance(y, float) else 1
    return CycleQuadruple(one, x, y, x * x - int(ctx.sigma_cycle) * y * y)


def roots(cycle: CycleQuadruple) -> list[Scalar]:
    """Real solutions of k u^2 - 2 l u + m = 0 (the v = 0 section).

    Exact scalars are returned when the discriminant is a perfect
    rational square, floats otherwise.
    """
    k, l, _, m = cycle.components()
    if k == 0:
        if l == 0:
            if m == 0:
                raise EverywhereZero("real-axis restriction vanishes identically")
            raise NoRealAxisIntersection("k = l = 0 with m != 0")
        return [div(m, 2 * l)]
    disc = l * l - k * m
    if disc < 0:
        return []
    if is_exact(k, l, m):
        root = sqrt_exact(Fraction(disc))
        if root is None:
            root = float(disc) ** 0.5
            return sorted([(float(l) - root) / float(k), (float(l) + root) / float(k)])
    else:
        root = disc**0.5
    if disc == 0:
        return [div(l, k)]
    return sorted([div(l - root, k), div(l + root, k)])


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


def projective_close(c1: CycleQuadruple, c2: CycleQuadruple, tol: float = 1e-9) -> bool:
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
        if is_exact(det):
            root = sqrt_exact(Fraction(det))
            if root is None:
                raise ExactModeError(
                    f"det {det} is not a perfect rational square; use float mode"
                )
        else:
            root = det**0.5
        return cycle.scaled(div(1, root))
    raise ValueError(f"unknown normalisation {mode!r}")


def normalized_key(cycle: CycleQuadruple) -> tuple:
    """Canonical representative: first nonzero component scaled to 1."""
    comps = cycle.components()
    for c in comps:
        if c != 0:
            return tuple(div(x, c) for x in comps)
    raise ValueError("zero quadruple")


# ---------------------------------------------------------------------------
# Constraint solver


@dataclass(frozen=True)
class PassesThrough:
    """Incidence with a finite point in the given point-space sign."""

    point: tuple[Scalar, Scalar]
    sigma: SpaceSign


@dataclass(frozen=True)
class HasKindCentre:
    """Centre of the given kind at a finite point (needs k != 0)."""

    point: tuple[Scalar, Scalar]
    kind: SpaceSign


@dataclass(frozen=True)
class HasFocus:
    """Focus for the given cycle-space sign at a finite point."""

    point: tuple[Scalar, Scalar]
    sigma_cycle: SpaceSign


@dataclass(frozen=True)
class IsOrthogonalTo:
    """Vanishing trace pairing with a fixed cycle."""

    cycle: CycleQuadruple
    ctx: FSCcContext


@dataclass(frozen=True)
class Normalised:
    """Affine chart k = 1."""


Constraint = PassesThrough | HasKindCentre | HasFocus | IsOrthogonalTo | Normalised


def _linear_rows(constraint: Constraint) -> list[tuple[list[Scalar], Scalar]]:
    """Rows (coefficients on (k,l,n,m), rhs) of the linear part."""
    if isinstance(constraint, PassesThrough):
        u, v = constraint.point
        return [([u * u - int(constraint.sigma) * v * v, -2 * u, -2 * v, 1], 0)]
    if isinstance(constraint, HasKindCentre):
        u, v = constraint.point
        # l = u k and kind*n = -v k; for kind 0 the second row pins v k = 0.
        return [([-u, 1, 0, 0], 0), ([v, 0, int(constraint.kind), 0], 0)]
    if isinstance(constraint, HasFocus):
        u, v = constraint.point
        return [([-u, 1, 0, 0], 0)]
    if isinstance(constraint, IsOrthogonalTo):
        k2, l2, n2, m2 = constraint.cycle.components()
        sig = int(constraint.ctx.sigma_cycle)
        s2 = constraint.ctx.s * constraint.ctx.s
        return [([-m2, 2 * l2, -2 * sig * s2 * n2, -k2], 0)]
    if isinstance(constraint, Normalised):
        return [([1, 0, 0, 0], 1)]
    raise TypeError(f"unknown constraint {constraint!r}")


def _quadratic_residual(constraint: HasFocus, quad: list[Scalar]) -> Scalar:
    """sigma_cycle n^2 - l^2 + m k - 2 v n k for the focus height condition."""
    k, l, n, m = quad
    v = constraint.point[1]
    return int(constraint.sigma_cycle) * n * n - l * l + m * k - 2 * v * n * k


def gauss_solve(rows, rhs, exact: bool):
    """Gaussian elimination over Fraction or float.

    Returns (particular solution, nullspace basis) or None when the
    system is inconsistent.
    """
    nvars = 4
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if exact:
        aug = [[Fraction(x) for x in row] for row in aug]
    tol = 0 if exact else 1e-12
    scale = 1 if exact else max([1.0] + [abs(x) for row in aug for x in row])
    pivots: list[int] = []
    r = 0
    for col in range(nvars):
        pivot_row = None
        best = tol * scale
        for i in range(r, len(aug)):
            if abs(aug[i][col]) > best:
                pivot_row = i
                best = abs(aug[i][col])
                if exact:
                    break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        piv = aug[r][col]
        aug[r] = [div(x, piv) for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if abs(aug[i][nvars]) > tol * scale:
            return None
    particular = [Fraction(0) if exact else 0.0] * nvars
    for row_idx, col in enumerate(pivots):
        particular[col] = aug[row_idx][nvars]
    free_cols = [c for c in range(nvars) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0) if exact else 0.0] * nvars
        vec[free] = Fraction(1) if exact else 1.0
        for row_idx, col in enumerate(pivots):
            vec[col] = -aug[row_idx][free]
        basis.append(vec)
    return particular, basis


def _solve_quadratic(a: Scalar, b: Scalar, c: Scalar) -> list[Scalar]:
    """Real roots of a t^2 + b t + c, preserving exactness when possible."""
    if a == 0:
        if b == 0:
            if c == 0:
                raise UnderDetermined("quadratic condition is identically satisfied")
            return []
        return [div(-c, b)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if is_exact(a, b, c):
        root = sqrt_exact(Fraction(disc))
        if root is None:
            fa, fb, fd = float(a), float(b), float(disc)
            root = fd**0.5
            return sorted({(-fb - root) / (2 * fa), (-fb + root) / (2 * fa)})
    else:
        root = disc**0.5
    if disc == 0:
        return [div(-b, 2 * a)]
    return sorted([div(-b - root, 2 * a), div(-b + root, 2 * a)])


def _settle(values: list[Scalar]) -> CycleQuadruple | None:
    if all(v == 0 for v in values):
        return None
    return CycleQuadruple(*values)


def _check_constraints(cand: CycleQuadruple, constraints, tol: float) -> bool:
    """Re-verify every constraint on a candidate (filters spurious k = 0 hits)."""
    if not is_exact(*cand.components()):
        # irrational roots demote exact systems to float candidates
        tol = max(tol, 1e-9)
    for constraint in constraints:
        if isinstance(constraint, (HasKindCentre, HasFocus)) and cand.k == 0:
            return False
        if isinstance(constraint, HasFocus):
            if cand.n == 0:
                return False
            res = _quadratic_residual(constraint, list(cand.components()))
            scale = max(1.0, *(abs(float(x)) for x in cand.components()))
            if (res != 0) if tol == 0 else (abs(res) > tol * scale * scale):
                return False
    return True


def cycle_from_constraints(constraints: list[Constraint]) -> list[CycleQuadruple]:
    """All cycles satisfying every constraint, in deterministic order.

    Linear conditions are eliminated exactly; an optional focus condition
    contributes one quadratic that is solved on the residual line.  A
    solution family of positive projective dimension raises
    UnderDetermined; an empty system raises Inconsistent.
    """
    exact = all(
        is_exact(*_constraint_scalars(c)) for c in constraints
    )
    tol = 0.0 if exact else 1e-9
    rows, rhs = [], []
    quadratics = [c for c in constraints if isinstance(c, HasFocus)]
    for constraint in constraints:
        for coeffs, b in _linear_rows(constraint):
            rows.append(coeffs)
            rhs.append(b)
    solved = gauss_solve(rows, rhs, exact)
    if solved is None:
        raise Inconsistent("linear constraints admit no solution")
    particular, basis = solved
    homogeneous = all(b == 0 for b in rhs)
    solutions: list[CycleQuadruple] = []

    if homogeneous:
        # Projective solving: the particular solution is zero.
        dim = len(basis)
        if dim == 0:
            raise Inconsistent("only the zero quadruple satisfies the constraints")
        if dim == 1:
            cand = _settle(basis[0])
            if cand is None:
                raise Inconsistent("only the zero quadruple satisfies the constraints")
            if all(
                _quad_ok(q, list(cand.components()), tol) for q in quadratics
            ):
                solutions = [cand]
            else:
                raise Inconsistent("quadratic condition rejects the unique candidate")
        elif dim == 2 and quadratics:
            solutions = _solve_on_line(
                basis[1], basis[0], quadratics, tol, include_infinity=True
            )
        else:
            raise UnderDetermined(f"solution family has projective dimension {dim - 1}")
    else:
        dim = len(basis)
        if dim == 0:
            cand = _settle(particular)
            if cand is not None and all(
                _quad_ok(q, list(cand.components()), tol) for q in quadratics
            ):
                solutions = [cand]
            else:
                raise Inconsistent("quadratic condition rejects the unique candidate")
        elif dim == 1 and quadratics:
            solutions = _solve_on_line(
                particular, basis[0], quadratics, tol, include_infinity=False
            )
        else:
            raise UnderDetermined(f"solution family has affine dimension {dim}")

    solutions = [s for s in solutions if _check_constraints(s, constraints, tol)]
    if not solutions:
        raise Inconsistent("no candidate survives constraint verification")
    keyed = {}
    for sol in solutions:
        keyed[tuple(float(x) for x in normalized_key(sol))] = sol
    return [keyed[key] for key in sorted(keyed)]


def _constraint_scalars(constraint: Constraint) -> tuple:
    if isinstance(constraint, (PassesThrough, HasKindCentre, HasFocus)):
        return tuple(constraint.point)
    if isinstance(constraint, IsOrthogonalTo):
        return constraint.cycle.components()
    return ()


def _quad_ok(constraint: HasFocus, values: list[Scalar], tol: float) -> bool:
    res = _quadratic_residual(constraint, values)
    if tol == 0.0:
        return res == 0
    scale = max(1.0, *(abs(float(v)) for v in values)) ** 2
    return abs(res) <= tol * scale


def _solve_on_line(
    base, direction, quadratics, tol, include_infinity: bool
) -> list[CycleQuadruple]:
    """Roots of the focus quadratics on the line base + t*direction.

    On a projective line the direction vector itself is the point at
    t = infinity and counts as a candidate; on an affine chart it does
    not satisfy the inhomogeneous normalisation and is excluded.
    """
    solutions: list[CycleQuadruple] = []
    roots_per_q = []
    for q in quadratics:
        # residual(base + t dir) = a t^2 + b t + c via three evaluations
        c0 = _quadratic_residual(q, base)
        p1 = [x + y for x, y in zip(base, direction)]
        m1 = [x - y for x, y in zip(base, direction)]
        c_plus = _quadratic_residual(q, p1)
        c_minus = _quadratic_residual(q, m1)
        a = div(c_plus + c_minus - 2 * c0, 2)
        b = div(c_plus - c_minus, 2)
        roots_per_q.append(_solve_quadratic(a, b, c0))
    candidate_ts = roots_per_q[0]
    for other in roots_per_q[1:]:
        candidate_ts = [t for t in candidate_ts if any(_t_close(t, o) for o in other)]
    for t in candidate_ts:
        values = [x + t * y for x, y in zip(base, direction)]
        cand = _settle(values)
        if cand is not None:
            solutions.append(cand)
    if include_infinity and all(_quad_ok(q, list(direction), tol) for q in quadratics):
        cand = _settle(list(direction))
        if cand is not None:
            solutions.append(cand)
    return solutions


def _t_close(t1: Scalar, t2: Scalar) -> bool:
    if is_exact(t1, t2):
        return t1 == t2
    return abs(float(t1) - float(t2)) <= 1e-9 * max(1.0, abs(float(t1)), abs(float(t2)))
