"""``numbers``' exact bookkeeping and ``det_invariant`` keep the results and errors of
the expressions they replaced.

``is_exact``, ``clear_denominators``, ``from_numerators`` and ``div`` now
scan their operands with ``map`` instead of generator expressions, skip
the ``lcm`` of a group whose denominators are all 1, and divide by an
``int`` or ``Fraction`` divisor as it is; ``det_invariant`` evaluates its
polynomial over integer numerators; ``clear_denominators`` now reads each
operand once, in one pass that stops at the first float.  Each test compares the library with a
test-local copy of the replaced code, by value and type (floats by
``float.hex``, containers by their type and items), or by the class and
message of the error raised.  The operands mix ``int``, ``bool``, an
``IntEnum``, ``Fraction`` (``Fraction(2)`` among them, whose denominator is
1), floats with signed zeros, values near the top of the float range,
inf and nan, and the non-scalars ``None``, ``str`` and ``Decimal``.
"""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import ALL_SIGNS
from cyclekit import CycleQuadruple, FSCcContext, SpaceSign, det_invariant, pairing
from cyclekit.numbers import clear_denominators, div, from_numerators, is_exact


class Half(float):
    """A float subclass: still a float to every scalar-mode test."""


class Ratio(Fraction):
    """A ``Fraction`` subclass: read through ``.denominator`` and ``.numerator``, not ``as_integer_ratio``."""


SCALARS = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(-9, 9, max_denominator=12),
    st.sampled_from([Fraction(2), Fraction(-3, 1), Fraction(1, 3), True, False, SpaceSign.HYPERBOLIC]),
    st.floats(-9.0, 9.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan, 5e-324, Half(0.5)]),
)
EXACT = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(-9, 9, max_denominator=12),
    st.sampled_from([Fraction(2), Fraction(-3, 1), True, False, SpaceSign.ELLIPTIC]),
)
NON_SCALARS = st.sampled_from([None, "2", "x", Decimal("1.5"), Decimal(0)])
# beside a str, an int is small or beyond the index range: "2" * 10**8 would build 100 MB
OPERANDS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([10**30, -(10**30)]),
    st.fractions(-9, 9, max_denominator=12),
    st.sampled_from([Fraction(2), Fraction(1, 3), True, SpaceSign.HYPERBOLIC]),
    st.floats(-9.0, 9.0),
    st.sampled_from([0.0, -0.0, 1e300, math.inf, math.nan, Half(0.5)]),
    NON_SCALARS,
)
SIGNS = st.sampled_from(ALL_SIGNS)


def canonical(value):
    """Type and value: a float by ``float.hex``, a list or tuple by its items."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *(canonical(x) for x in value))
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, Decimal):
        return ("Decimal", str(value))
    return (type(value).__name__, value)


def outcome(function, *args):
    """The canonical result, or the class and message of the error raised."""
    try:
        return canonical(function(*args))
    except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
        return (type(exc).__name__, str(exc))


def ref_is_exact(*values):
    return not any(isinstance(v, float) for v in values)


def ref_clear_denominators(*groups):
    if not ref_is_exact(*chain.from_iterable(groups)):
        return groups, (1.0,) * len(groups)
    numerators, denominators = [], []
    for group in groups:
        den = math.lcm(*[v.denominator for v in group])
        numerators.append([v.numerator * (den // v.denominator) for v in group])
        denominators.append(den)
    return numerators, denominators


def ref_from_numerators(values, den, operands):
    if isinstance(den, float):
        return tuple(values)
    return tuple(
        Fraction(value, den) if any(isinstance(v, Fraction) for v in ops) else value // den
        for value, ops in zip(values, operands)
    )


def ref_div(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


def ref_det_invariant(cycle, ctx):
    k, l, n, m = cycle.components()
    return int(ctx.sigma_cycle) * n * n - l * l + m * k


@given(st.lists(OPERANDS, max_size=6))
def test_is_exact_matches_the_replaced_expression(values):
    assert is_exact(*values) is ref_is_exact(*values)


GROUPS = st.lists(st.lists(OPERANDS, min_size=1, max_size=4).map(tuple), min_size=1, max_size=3)


@given(GROUPS)
# one pass reads each operand once and stops at the first float, where the replaced
# code scanned every group for a float first and then read all denominators of a
# group before its numerators; these inputs pin the orders that the pass changes
@example([(None, 0.0)])
@example([(None,), (1.0,)])
@example([(Ratio(1, 3), 2), (Ratio(5),)])
@example([(Fraction(2), True, SpaceSign.HYPERBOLIC)])
@example([(Decimal("1.5"),)])
@example([("x",)])
def test_clear_denominators_matches_the_replaced_expression(groups):
    """Numerators, denominators and container types, or the error, as before; a float
    anywhere hands the groups back even beside a non-scalar in an earlier group."""
    assert outcome(clear_denominators, *groups) == outcome(ref_clear_denominators, *groups)


@pytest.mark.parametrize(
    "groups",
    [
        ((None,), (1.0,)),
        ((Decimal("1.5"), 1), (Fraction(1, 2), -0.0)),
        ((1, "x"), (2, 3), (math.nan,)),
        ((Fraction(1, 2), None), (3,)),
        ((Half(0.5), "x"),),
    ],
)
def test_a_float_in_any_group_hands_back_groups_with_non_scalars(groups):
    assert outcome(clear_denominators, *groups) == outcome(ref_clear_denominators, *groups)


@given(st.lists(st.lists(EXACT, min_size=1, max_size=4), min_size=1, max_size=3))
def test_exact_groups_clear_to_integers_over_their_least_common_denominator(groups):
    numerators, denominators = clear_denominators(*groups)
    for group, nums, den in zip(groups, numerators, denominators):
        assert den == math.lcm(*[Fraction(v).denominator for v in group])
        assert [type(x) for x in nums] == [int] * len(group)
        assert [Fraction(x, den) for x in nums] == list(group)


@st.composite
def polynomials(draw, operands):
    """Two groups of four and up to three outputs, each a sum of products x_i y_j
    with integer coefficients; each output's operand list is what it reads."""
    g1 = tuple(draw(st.lists(operands, min_size=4, max_size=4)))
    g2 = tuple(draw(st.lists(operands, min_size=4, max_size=4)))
    terms = draw(
        st.lists(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    return g1, g2, terms


def through_numerators(clear, rebuild, g1, g2, terms):
    """The polynomial of ``terms`` over the cleared groups, rebuilt by ``rebuild``."""
    (x, y), (d1, d2) = clear(g1, g2)
    values = [sum(c * x[i] * y[j] for c, i, j in output) for output in terms]
    operands = [[g1[i] for _, i, _ in output] + [g2[j] for _, _, j in output] for output in terms]
    return rebuild(values, d1 * d2, operands)


@given(polynomials(OPERANDS))
def test_from_numerators_matches_the_replaced_expression(polynomial):
    """Cleared, evaluated and rebuilt as the callers do: same values, types and errors."""
    want = outcome(through_numerators, ref_clear_denominators, ref_from_numerators, *polynomial)
    assert outcome(through_numerators, clear_denominators, from_numerators, *polynomial) == want


@given(polynomials(EXACT))
def test_exact_outputs_equal_the_polynomial_over_the_operands(polynomial):
    """Each exact output equals its expression over the given operands; it is an int
    exactly when that expression is, i.e. when every operand it reads is an int."""
    g1, g2, terms = polynomial
    got = through_numerators(clear_denominators, from_numerators, *polynomial)
    for output, value in zip(terms, got):
        direct = sum(c * g1[i] * g2[j] for c, i, j in output)
        assert value == direct
        read = [g1[i] for _, i, _ in output] + [g2[j] for _, _, j in output]
        assert type(value) is (int if all(isinstance(v, int) for v in read) else Fraction)


@pytest.mark.parametrize(
    "group, want",
    [
        ((Fraction(2), 3), ((2, 3), 1, Fraction)),
        ((2, 3), ((2, 3), 1, int)),
        ((True, SpaceSign.HYPERBOLIC), ((1, 1), 1, int)),
        ((Fraction(1, 2), 3), ((1, 6), 2, Fraction)),
    ],
)
def test_a_group_over_denominator_one_keeps_its_types(group, want):
    """The skipped lcm pass still gives plain ints, and a Fraction(2) still makes a Fraction."""
    ((nums,), (den,)) = clear_denominators(group)
    assert (tuple(nums), den) == want[:2]
    assert [type(x) for x in nums] == [int, int]
    (value,) = from_numerators([nums[0] * nums[1]], den * den, [group])
    assert type(value) is want[2]
    assert value == group[0] * group[1]


DIVISION_OPERANDS = st.one_of(OPERANDS, st.sampled_from([0, False, Fraction(0), 0.0, -0.0]))


@given(DIVISION_OPERANDS, DIVISION_OPERANDS)
def test_div_matches_the_replaced_expression(a, b):
    """Quotients and their types, and the class and message of every error, including
    the ZeroDivisionError message, which differs between Python versions but not here."""
    assert outcome(div, a, b) == outcome(ref_div, a, b)


@pytest.mark.parametrize(
    "a, b",
    [(3, 0), (0, 0), (-6, False), (Fraction(3, 2), Fraction(0)), (1, None), (None, 1), (1, "2"), (1, "x"),
     (1, Decimal("1.5")), (Decimal("1.5"), 2), (1, 0.0), (True, True)],
)
def test_div_edge_cases_match_the_replaced_expression(a, b):
    assert outcome(div, a, b) == outcome(ref_div, a, b)


def quadruple(components):
    """``CycleQuadruple(*components)``, or a rejected example for the zero quadruple."""
    try:
        return CycleQuadruple(*components)
    except ValueError:
        assume(False)


@given(st.lists(SCALARS, min_size=4, max_size=4), SIGNS)
def test_det_invariant_matches_the_replaced_expression(components, sigma_cycle):
    """Over every scalar mix and sign, including sigma_cycle = 0 with a Fraction n."""
    cycle, ctx = quadruple(components), FSCcContext(sigma_cycle)
    assert outcome(det_invariant, cycle, ctx) == outcome(ref_det_invariant, cycle, ctx)


@pytest.mark.parametrize(
    "components, want",
    [
        ((1, 0, Fraction(3), 0), ("Fraction", Fraction(0))),
        ((1, 0, 3, 0), ("int", 0)),
        ((2, 1, Fraction(1, 2), Fraction(3, 4)), ("Fraction", Fraction(1, 2))),
        ((1.0, 0, Fraction(3), 0), ("float", (0.0).hex())),
    ],
)
def test_parabolic_det_invariant_keeps_the_type_of_n(components, want):
    """0 * n is a Fraction for a Fraction n, so n stays among the operands when sigma_cycle = 0."""
    ctx = FSCcContext(SpaceSign.PARABOLIC)
    assert canonical(det_invariant(CycleQuadruple(*components), ctx)) == want
    assert canonical(ref_det_invariant(CycleQuadruple(*components), ctx)) == want


@given(st.lists(OPERANDS, min_size=4, max_size=4), SIGNS)
def test_det_invariant_of_non_scalars_fails_as_pairing_does(components, sigma_cycle):
    """With a float anywhere the replaced expression runs as it did.  Otherwise a
    non-scalar component now fails in ``clear_denominators``, with the error that
    ``pairing`` raises for the same quadruple, where the replaced expression raised
    a ``TypeError`` or, for a ``Decimal``, returned one."""
    assume(any(v is None or isinstance(v, (str, Decimal)) for v in components))
    cycle, ctx = quadruple(components), FSCcContext(sigma_cycle)
    if not is_exact(*components):
        assert outcome(det_invariant, cycle, ctx) == outcome(ref_det_invariant, cycle, ctx)
    else:
        got = outcome(det_invariant, cycle, ctx)
        assert got[0] == "AttributeError"
        assert got == outcome(pairing, cycle, cycle, ctx)
