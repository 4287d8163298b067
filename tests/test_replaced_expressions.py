"""Functions read their scalar mode through ``numbers`` and keep the results they gave
when they chose ``0``/``0.0`` or ``1``/``1.0`` themselves, and ``GroupElement``
checks its determinant over integer numerators with the results and messages
of the check over the entries as given.

Each test compares the library with a test-local copy of the expression it
replaced, by value and type, with floats compared by ``float.hex`` so that
signed zeros and the last bit count.  The operands mix ``int``,
``Fraction``, ``bool`` and ``float``, signed zeros and values near the top
of the float range.
"""

import math
from fractions import Fraction

import pytest
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
from cyclekit.numbers import div, is_exact, scalar_repr, scalar_sqrt

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
    """Type and value, a float by ``float.hex``; Points, quadruples, elements, tuples by their parts."""
    if value is INFINITY:
        return "INFINITY"
    if isinstance(value, tuple):
        return tuple(canonical(x) for x in value)
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


NORMALISATION = "group element normalisation"
NO_ROOT = "has no exact rational square root; use float mode"
NOT_POSITIVE = "determinant must be positive, got"


def ref_group_element_entries(a, b, c, d):
    """The replaced ``GroupElement.__post_init__``: the determinant over the entries as given."""
    det = a * d - b * c
    if det <= 0:
        raise ValueError(f"determinant must be positive, got {det}")
    if det == 1:
        return (a, b, c, d)
    root = scalar_sqrt(det, NORMALISATION)
    return tuple(div(x, root) for x in (a, b, c, d))


def group_element_entries(a, b, c, d):
    return GroupElement(a, b, c, d).entries()


@st.composite
def matrices(draw):
    """Four scalars, or an element of determinant one times a scalar (determinant its square)."""
    if draw(st.booleans()):
        return tuple(draw(SCALARS) for _ in range(4))
    factor = draw(SCALARS)
    return tuple(factor * x for x in draw(elements()).entries())


@given(matrices())
def test_group_element_check_matches_the_replaced_expression(entries):
    a, b, c, d = entries
    det = a * d - b * c
    # a float determinant that is 0, inf or nan now scales the entries before it gives up
    assume(is_exact(det) or 0 < abs(det) < math.inf)
    want = outcome(ref_group_element_entries, *entries)
    assert outcome(group_element_entries, *entries) == want


@pytest.mark.parametrize(
    "entries, want",
    [
        ((1, 0, 0, -1), ("ValueError", f"{NOT_POSITIVE} -1")),
        ((Fraction(1, 2), 1, 1, 2), ("ValueError", f"{NOT_POSITIVE} 0")),
        ((Fraction(1, 3), 2, Fraction(1, 2), Fraction(-5, 7)), ("ValueError", f"{NOT_POSITIVE} -26/21")),
        ((2, 0, 0, 1), ("ExactModeError", f"{NORMALISATION}: 2 {NO_ROOT}")),
        ((Fraction(2, 3), 0, 0, Fraction(1, 3)), ("ExactModeError", f"{NORMALISATION}: 2/9 {NO_ROOT}")),
        (
            (Fraction(4, 9), Fraction(1, 9), 0, 1),
            canonical((Fraction(2, 3), Fraction(1, 6), Fraction(0), Fraction(3, 2))),
        ),
        ((4, 0, 0, 1), canonical((Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2)))),
    ],
)
def test_group_element_outcomes_match_the_replaced_expression(entries, want):
    """Non-positive and non-square determinants raise the class and message they raised."""
    assert outcome(ref_group_element_entries, *entries) == want
    assert outcome(group_element_entries, *entries) == want
