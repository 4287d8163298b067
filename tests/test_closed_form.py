"""Closed-form cycle algebra against the FSCc matrix products it expands.

Each oracle rebuilds the 2x2 product from the public to_fscc, HNumber
arithmetic and from_fscc, exactly as the generic path computed it, and
the library result must match it component for component and type for
type (int, Fraction) in exact mode, over all three signs and s = +-1.
"""

import warnings
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclekit import (
    INFINITY,
    REAL_LINE,
    CycleQuadruple,
    DegenerateReflection,
    DegenerateRelationWarning,
    FSCcContext,
    FSCcMatrix,
    GroupElement,
    HNumber,
    Point,
    SpaceSign,
    from_fscc,
    h_inv,
    h_mul,
    h_real,
    heaviside,
    invert,
    is_s_orthogonal,
    mobius_apply,
    reflect_cycle,
    s_ghost,
    similarity_transform,
    to_fscc,
)

SIGNS = st.sampled_from(list(SpaceSign))
CONTEXTS = st.builds(FSCcContext, SIGNS, st.sampled_from([1, -1]))
# ints and Fractions mixed, so that type promotion is exercised too
SCALARS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
)
NONZERO = SCALARS.filter(lambda x: x != 0)
CYCLES = st.tuples(SCALARS, SCALARS, SCALARS, SCALARS).filter(any).map(
    lambda comps: CycleQuadruple(*comps)
)


@st.composite
def group_elements(draw):
    """ad - bc = 1 by construction, or a perfect square that gets normalised."""
    a, b, c = draw(NONZERO), draw(SCALARS), draw(SCALARS)
    d = (1 + b * c) / Fraction(a)
    if d.denominator == 1 and draw(st.booleans()):
        d = int(d)
    scale = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
    return GroupElement(a * scale, b * scale, c * scale, d * scale)


EXAMPLES = settings(deadline=None)


def mat_mul(x, y):
    """2x2 product of row-major HNumber 4-tuples."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def sandwich(outer, inner, ctx):
    """M_outer * M_inner * M_outer over HNumber entries."""
    m_outer = to_fscc(outer, ctx).entries()
    return mat_mul(mat_mul(m_outer, to_fscc(inner, ctx).entries()), m_outer)


def read_back(product, ctx):
    """Quadruple of a product, or None when the product is the zero matrix."""
    if all(e.is_zero() for e in product):
        return None
    return from_fscc(FSCcMatrix(*product, ctx))


def assert_identical(got, want):
    got_c, want_c = got.components(), want.components()
    assert got_c == want_c
    assert [type(x) for x in got_c] == [type(x) for x in want_c]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DegenerateReflection:
        return None


@EXAMPLES
@given(CYCLES, group_elements(), CONTEXTS)
def test_similarity_transform_matches_conjugation(cycle, g, ctx):
    sign = ctx.sigma_cycle
    g_mat = tuple(h_real(x, sign) for x in g.entries())
    g_inv = tuple(h_real(x, sign) for x in invert(g).entries())
    product = mat_mul(mat_mul(g_mat, to_fscc(cycle, ctx).entries()), g_inv)
    assert_identical(similarity_transform(cycle, g, ctx), read_back(product, ctx))


@EXAMPLES
@given(CYCLES, CYCLES, CONTEXTS, st.booleans())
def test_reflect_cycle_matches_triple_product(mirror, cycle, ctx, conjugate):
    inner = CycleQuadruple(cycle.k, cycle.l, -cycle.n, cycle.m) if conjugate else cycle
    want = read_back(sandwich(mirror, inner, ctx), ctx)
    got = outcome(reflect_cycle, mirror, cycle, ctx, conjugate_argument=conjugate)
    if want is None:
        assert got is None
    else:
        assert_identical(got, want)


@EXAMPLES
@given(CYCLES, SIGNS, SIGNS.filter(lambda sign: sign != SpaceSign.PARABOLIC))
def test_s_ghost_matches_reflection_of_real_line(cycle, sigma, sigma_cycle):
    chi_ctx = FSCcContext(sigma_cycle, heaviside(int(sigma)))
    want = read_back(sandwich(cycle, REAL_LINE, chi_ctx), FSCcContext(sigma_cycle, 1))
    got = outcome(s_ghost, cycle, sigma, sigma_cycle)
    if want is None:
        assert got is None
    else:
        assert_identical(got, want)


@EXAMPLES
@given(CYCLES, CYCLES, CONTEXTS)
def test_is_s_orthogonal_matches_trace(cycle, other, ctx):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = is_s_orthogonal(cycle, other, ctx)
    if ctx.sigma_cycle == SpaceSign.PARABOLIC:
        assert got is True
        assert any(issubclass(w.category, DegenerateRelationWarning) for w in caught)
        return
    product = mat_mul(sandwich(cycle, other, ctx), to_fscc(REAL_LINE, ctx).entries())
    assert got is (product[0] + product[3]).is_zero()


def oracle_image(g, z, sigma):
    w = HNumber(z.u, z.v, sigma)
    num = h_real(g.a, sigma) * w + h_real(g.b, sigma)
    den = h_real(g.c, sigma) * w + h_real(g.d, sigma)
    if den.modsq() == 0:
        return INFINITY
    image = h_mul(num, h_inv(den))
    return Point(image.re, image.im)


def assert_same_point(got, want):
    if want is INFINITY:
        assert got is INFINITY
        return
    assert (got.u, got.v) == (want.u, want.v)
    assert (type(got.u), type(got.v)) == (type(want.u), type(want.v))


@EXAMPLES
@given(group_elements(), SCALARS, SCALARS, SIGNS)
def test_mobius_apply_matches_hypercomplex_quotient(g, u, v, sigma):
    z = Point(u, v)
    assert_same_point(mobius_apply(g, z, sigma), oracle_image(g, z, sigma))


@EXAMPLES
@given(group_elements(), SCALARS, st.sampled_from([1, -1]), SIGNS)
def test_mobius_apply_zero_modulus_denominator_is_infinity(g, v, branch, sigma):
    """Points with modsq(cz + d) = 0: the real pole, its parabolic vertical
    line, and the hyperbolic light cone through it."""
    assume(g.c != 0)
    if sigma == SpaceSign.ELLIPTIC:
        v = 0
    # c*u + d = branch*c*v on the hyperbolic cone, 0 otherwise
    lean = branch * g.c * v if sigma == SpaceSign.HYPERBOLIC else 0
    z = Point((lean - g.d) / Fraction(g.c), v)
    assert oracle_image(g, z, sigma) is INFINITY
    assert mobius_apply(g, z, sigma) is INFINITY
