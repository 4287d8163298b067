"""Independent reference formulas used to check cyclekit's answers.

Everything here is written from the definitions in the package's
documentation, not from its code, and works on plain tuples:

* a number of the two-component algebra is a pair (re, im) with
  i*i = sign;
* a cycle (k, l, n, m) has the FSCc matrix ((l + i*s*n, -m), (k, -l + i*s*n)),
  stored row-major as four pairs;
* a group element (a, b, c, d) acts on points by (az + b)/(cz + d) and on
  cycles by matrix similarity g M g^-1.

None of this imports cyclekit, so a defect in the package cannot hide in
its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction


def hmul(x, y, sign):
    return (x[0] * y[0] + sign * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def matmul(x, y, sign):
    def dot(p, q, r, t):
        a, b = hmul(p, q, sign), hmul(r, t, sign)
        return (a[0] + b[0], a[1] + b[1])

    return (
        dot(x[0], y[0], x[1], y[2]),
        dot(x[0], y[1], x[1], y[3]),
        dot(x[2], y[0], x[3], y[2]),
        dot(x[2], y[1], x[3], y[3]),
    )


def fscc(cycle, s=1):
    k, l, n, m = cycle
    return ((l, s * n), (-m, 0), (k, 0), (-l, s * n))


def from_matrix(mat, s=1):
    a11, a12, a21, _ = mat
    return (a21[0], a11[0], a11[1] * s, -a12[0])


def transport(cycle, g, sign):
    """Image of a cycle under g: the quadruple of g M g^-1."""
    a, b, c, d = g
    g_mat = ((a, 0), (b, 0), (c, 0), (d, 0))
    g_inv = ((d, 0), (-b, 0), (-c, 0), (a, 0))
    return from_matrix(matmul(matmul(g_mat, fscc(cycle), sign), g_inv, sign))


def reflect(mirror, cycle, sign):
    """Quadruple of M_mirror * conj(M_cycle) * M_mirror (conj negates n)."""
    k, l, n, m = cycle
    mirror_m = fscc(mirror)
    return from_matrix(matmul(matmul(mirror_m, fscc((k, l, -n, m)), sign), mirror_m, sign))


def s_ghost_elliptic(cycle, sign):
    """s-ghost for the elliptic point plane: M R M taken at s = -1, read at s = +1."""
    mirror_m = fscc(cycle, -1)
    line_m = fscc((0, 0, 1, 0), -1)
    return from_matrix(matmul(matmul(mirror_m, line_m, sign), mirror_m, sign))


def pairing(c1, c2, sign):
    """Real part of trace(M1 conj(M2)) at s = 1."""
    k1, l1, n1, m1 = c1
    k2, l2, n2, m2 = c2
    return 2 * l1 * l2 - 2 * sign * n1 * n2 - m1 * k2 - k1 * m2


def s_orthogonal(c1, c2, sign):
    """trace(M1 M2 M1 R) vanishes in both components, R the real line."""
    m1 = fscc(c1)
    prod = matmul(matmul(matmul(m1, fscc(c2), sign), m1, sign), fscc((0, 0, 1, 0)), sign)
    return prod[0][0] + prod[3][0] == 0 and prod[0][1] + prod[3][1] == 0


def det(cycle, sign):
    k, l, n, m = cycle
    return sign * n * n - l * l + m * k


def cycle_eval(cycle, point, sign):
    k, l, n, m = cycle
    u, v = point
    return k * (u * u - sign * v * v) - 2 * l * u - 2 * n * v + m


def projective_eq(c1, c2) -> bool:
    if all(x == 0 for x in c1) or all(x == 0 for x in c2):
        return False
    return all(
        c1[i] * c2[j] == c1[j] * c2[i] for i in range(4) for j in range(i + 1, 4)
    )


def projective_close(c1, c2, tol=1e-9) -> bool:
    a = [float(x) for x in c1]
    b = [float(x) for x in c2]
    na, nb = max(map(abs, a)), max(map(abs, b))
    if na == 0 or nb == 0:
        return False
    a = [x / na for x in a]
    b = [x / nb for x in b]
    return min(
        max(abs(x - y) for x, y in zip(a, b)), max(abs(x + y) for x, y in zip(a, b))
    ) <= tol


def mobius(g, point, sign):
    """(az + b)/(cz + d) in the sign-algebra; None when the denominator's modulus is 0."""
    a, b, c, d = g
    u, v = point
    num = (a * u + b, a * v)
    den = (c * u + d, c * v)
    modsq = den[0] * den[0] - sign * den[1] * den[1]
    if modsq == 0:
        return None
    re = num[0] * den[0] - sign * num[1] * den[1]
    im = num[1] * den[0] - num[0] * den[1]
    if isinstance(modsq, float):
        return (re / modsq, im / modsq)
    return (Fraction(re) / modsq, Fraction(im) / modsq)


def distance_sq(a, b, sign):
    du, dv = b[0] - a[0], b[1] - a[1]
    return du * du - sign * dv * dv


def compose(g1, g2):
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def rotation(t):
    """K(t) through the tangent half-angle point, rational for rational t."""
    den = 1 + t * t
    cos, sin = Fraction(1 - t * t) / den, Fraction(2 * t) / den
    return (cos, sin, -sin, cos)


def focus_lengths(focus, point, sign, sign_cycle):
    """Squared lengths from a focus to a point, from the closed-form focus law.

    With k = 1 and l = u_F, incidence with the point fixes m as a linear
    function of n, and the focus-height condition leaves
    sign_cycle*n^2 + 2(v_P - v_F) n - (u_P - u_F)^2 + sign*v_P^2 = 0.
    Each root with n != 0 is one cycle; its length is -det.  Inputs built
    from a cycle with rational n have one rational root, so the other is
    rational too (Vieta) and the discriminant is a rational square.
    """
    (uf, vf), (up, vp) = focus, point
    qa = sign_cycle
    qb = 2 * (vp - vf)
    qc = -(up - uf) ** 2 + sign * vp * vp
    if qa == 0:
        roots = [Fraction(-qc) / qb]
    else:
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return []
        root = _rational_sqrt(disc)
        roots = sorted({(-qb - root) / Fraction(2 * qa), (-qb + root) / Fraction(2 * qa)})
    values = []
    for n in roots:
        if n == 0:
            continue
        m = -(up * up - sign * vp * vp) + 2 * uf * up + 2 * n * vp
        values.append(-(sign_cycle * n * n - uf * uf + m))
    return sorted(values, key=float)


def _rational_sqrt(value):
    value = Fraction(value)
    num, den = _isqrt_exact(value.numerator), _isqrt_exact(value.denominator)
    if num is None or den is None:
        raise ValueError(f"{value} is not a rational square")
    return Fraction(num, den)


def _isqrt_exact(n: int):
    root = math.isqrt(n)
    return root if root * root == n else None
