"""Functions read their scalar mode through ``numbers`` and keep the results they gave
when they chose ``0``/``0.0`` or ``1``/``1.0`` themselves.

Each test compares the library with a test-local copy of the expression it
replaced, by value and type, with floats compared by ``float.hex`` so that
signed zeros and the last bit count.  The operands mix ``int``,
``Fraction``, ``bool`` and ``float``, signed zeros and values near the top
of the float range.
"""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ALL_SIGNS
from cyclekit import (
    INFINITY,
    CycleQuadruple,
    ExactModeError,
    FSCcContext,
    GroupElement,
    IwasawaFactors,
    Point,
    compose,
    iwasawa_decompose,
    iwasawa_recompose,
    mobius_apply,
    subgroup_element,
    zero_radius_cycle,
)
from cyclekit.numbers import div, is_exact, scalar_repr

SCALARS = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(-9, 9, max_denominator=12),
    st.booleans(),
    st.floats(-9.0, 9.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 0.1]),
)
SIGNS = st.sampled_from(ALL_SIGNS)


def canonical(value):
    """Type and value, a float by ``float.hex``; Points, quadruples and elements by their parts."""
    if value is INFINITY:
        return "INFINITY"
    if isinstance(value, (Point, CycleQuadruple, GroupElement)):
        return (type(value).__name__, *(canonical(x) for x in value.__getstate__().values()))
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def element(a, b, c, d):
    """``GroupElement(a, b, c, d)``, or a rejected example where it cannot be built."""
    try:
        return GroupElement(a, b, c, d)
    except (ValueError, ExactModeError, ZeroDivisionError, OverflowError):
        assume(False)


@st.composite
def elements(draw):
    """Elements of mixed entry types; det = 1 exactly keeps each entry's type."""
    a, c, free = draw(SCALARS), draw(SCALARS), draw(SCALARS)
    if c == 0:
        assume(a != 0)
        return element(a, free, c, div(1, a))
    return element(a, div(-1, c), c, free)


def ref_zero_radius_cycle(at, ctx):
    x, y = at
    one = 1 if is_exact(x, y) else 1.0
    return CycleQuadruple(one, x, y, x * x - int(ctx.sigma_cycle) * y * y)


@given(SCALARS, SCALARS, SIGNS)
def test_zero_radius_cycle_matches_the_replaced_expression(x, y, sigma_cycle):
    ctx = FSCcContext(sigma_cycle)
    assert canonical(zero_radius_cycle((x, y), ctx)) == canonical(ref_zero_radius_cycle((x, y), ctx))


def ref_mobius_apply_infinity(g):
    if g.c == 0:
        return INFINITY
    return Point(div(g.a, g.c), 0 if is_exact(g.a, g.c) else 0.0)


@given(elements(), SIGNS)
def test_infinity_image_matches_the_replaced_expression(g, sigma):
    assert canonical(mobius_apply(g, INFINITY, sigma)) == canonical(ref_mobius_apply_infinity(g))


def ref_scalar_repr(value):
    if isinstance(value, float):
        text = "%.12g" % value
        return "0" if text == "-0" else text
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


@given(SCALARS)
def test_scalar_repr_matches_the_replaced_expression(value):
    assert canonical(scalar_repr(value)) == canonical(ref_scalar_repr(value))


def ref_iwasawa_recompose(factors):
    return compose(
        compose(subgroup_element("A", factors.alpha), subgroup_element("N", factors.nu)),
        GroupElement(factors.cos_phi, factors.sin_phi, -factors.sin_phi, factors.cos_phi),
    )


def outcome(function, *args):
    """The canonical result, or the class and message of the error raised."""
    try:
        return canonical(function(*args))
    except (ValueError, ExactModeError, ZeroDivisionError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def factors(draw):
    """Factors of a drawn element, or four drawn scalars with a positive dilation."""
    if draw(st.booleans()):
        try:
            return iwasawa_decompose(draw(elements()))
        except (ExactModeError, ZeroDivisionError, OverflowError):
            assume(False)
    alpha = draw(SCALARS)
    assume(alpha > 0)
    return IwasawaFactors(alpha, draw(SCALARS), draw(SCALARS), draw(SCALARS))


@given(factors())
def test_iwasawa_recompose_matches_the_replaced_expression(f):
    assert outcome(iwasawa_recompose, f) == outcome(ref_iwasawa_recompose, f)
