import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    ALL_SIGNS,
    rand_cycle,
    rand_fraction,
    rand_group_exact,
    rand_real_circle,
    sample_points_on_cycle,
)
from cyclekit import (
    CycleKitError,
    CycleQuadruple,
    DirectedInterval,
    FSCcContext,
    FocusUndefined,
    FromFocus,
    GroupElement,
    HasFocus,
    HasKindCentre,
    INFINITY,
    Inconsistent,
    IsOrthogonalTo,
    LineHasNoRadius,
    Normalised,
    NoRealAxisIntersection,
    EverywhereZero,
    PassesThrough,
    Point,
    ShapeError,
    SpaceSign,
    UnderDetermined,
    centre,
    cycle_eval,
    cycle_from_constraints,
    det_invariant,
    focus,
    from_fscc,
    is_incident,
    length,
    mobius_apply,
    normalize,
    projective_close,
    projective_eq,
    radius_sq,
    roots,
    similarity_transform,
    to_fscc,
    trace_part,
    zero_radius_cycle,
)
import cyclekit.cycle as cycle_module
from cyclekit.cycle import normalized_key, pencil
from cyclekit.numbers import div, sqrt_or_float
from test_numbers_bookkeeping import EXACT, SCALARS, canonical, quadruple
from test_scalar_policy import exact_system, mixed_systems, nearest_root_floats, outcome, round_once, systems

E, P, H = ALL_SIGNS
CTX_E = FSCcContext(E, 1)
ALL_CTX = [FSCcContext(sc, s) for sc in ALL_SIGNS for s in (1, -1)]

UNIT_CIRCLE = CycleQuadruple(1, 0, 0, -1)


def test_cycle_eval_examples():
    assert cycle_eval(UNIT_CIRCLE, Point(1, 0), E) == 0
    assert cycle_eval(CycleQuadruple(1, 0, 1, 0), Point(2, 2), P) == 0
    assert cycle_eval(UNIT_CIRCLE, Point(0, 0), E) == -1


def test_incidence_of_infinity_is_lineness():
    assert is_incident(CycleQuadruple(0, 1, 2, 3), INFINITY, E)
    assert not is_incident(UNIT_CIRCLE, INFINITY, E)


def test_incidence_of_a_finite_point_is_a_vanishing_equation():
    assert is_incident(UNIT_CIRCLE, Point(Fraction(3, 5), Fraction(-4, 5)), E)
    assert not is_incident(UNIT_CIRCLE, Point(0, 0), E)
    assert is_incident(UNIT_CIRCLE, Point(Fraction(5, 4), Fraction(3, 4)), H)
    assert not is_incident(UNIT_CIRCLE, Point(1, 1), H)
    assert is_incident(UNIT_CIRCLE, Point(1, 5), P)


def test_infinity_has_no_evaluation():
    with pytest.raises(ValueError, match="INFINITY has no evaluation"):
        cycle_eval(UNIT_CIRCLE, INFINITY, E)


def test_projective_close_compares_up_to_scale_and_sign():
    assert projective_close(UNIT_CIRCLE, CycleQuadruple(-2.5, 0.0, 0.0, 2.5))
    assert projective_close(UNIT_CIRCLE, CycleQuadruple(3, 0, 1e-12, -3))
    assert not projective_close(UNIT_CIRCLE, CycleQuadruple(3, 0, 1e-6, -3))
    assert projective_close(UNIT_CIRCLE, CycleQuadruple(3, 0, 1e-6, -3), tol=1e-6)
    assert not projective_close(UNIT_CIRCLE, CycleQuadruple(1, 0, 0, 1))


def test_fscc_matrix_example():
    mat = to_fscc(CycleQuadruple(1, 2, 3, 4), CTX_E)
    a11, a12, a21, a22 = mat.entries()
    assert (a11.re, a11.im) == (2, 3)
    assert (a12.re, a12.im) == (-4, 0)
    assert (a21.re, a21.im) == (1, 0)
    assert (a22.re, a22.im) == (-2, 3)
    flipped = to_fscc(CycleQuadruple(1, 2, 3, 4), FSCcContext(E, -1))
    assert flipped.entries()[0].im == -3


@pytest.mark.parametrize("ctx", ALL_CTX)
def test_fscc_trace_is_the_imaginary_2sn(ctx):
    from cyclekit import HNumber

    cycle = CycleQuadruple(1, Fraction(2, 3), Fraction(-5, 2), 4)
    trace = to_fscc(cycle, ctx).trace()
    assert trace == HNumber(0, trace_part(cycle, ctx), ctx.sigma_cycle)
    assert trace.im == 2 * ctx.s * cycle.n


def test_fscc_roundtrip_random():
    rng = random.Random(3)
    for _ in range(500):
        cyc = rand_cycle(rng)
        ctx = FSCcContext(SpaceSign(rng.choice([-1, 0, 1])), rng.choice([1, -1]))
        assert projective_eq(from_fscc(to_fscc(cyc, ctx)), cyc)


def test_fscc_shape_guard():
    from cyclekit import FSCcMatrix, HNumber

    good = to_fscc(UNIT_CIRCLE, CTX_E)
    with pytest.raises(ShapeError):
        FSCcMatrix(
            good.a11,
            HNumber(Fraction(1), Fraction(1), E),
            good.a21,
            good.a22,
            CTX_E,
        )


def test_similarity_examples():
    assert similarity_transform(UNIT_CIRCLE, GroupElement.identity(), CTX_E) == UNIT_CIRCLE
    from cyclekit import subgroup_element

    shifted = similarity_transform(UNIT_CIRCLE, subgroup_element("N", Fraction(1)), CTX_E)
    assert projective_eq(shifted, CycleQuadruple(1, 1, 0, 0))
    rotated = similarity_transform(UNIT_CIRCLE, GroupElement(0, -1, 1, 0), CTX_E)
    assert projective_eq(rotated, UNIT_CIRCLE)


def test_similarity_matches_point_action():
    rng = random.Random(8)
    done = 0
    while done < 30:
        sigma = SpaceSign(rng.choice([-1, 0, 1]))
        cyc = rand_cycle(rng, k_nonzero=True)
        pts = sample_points_on_cycle(cyc, sigma, 12)
        if len(pts) < 6:
            continue
        g = rand_group_exact(rng)
        image = similarity_transform(cyc, g, FSCcContext(sigma, 1))
        norm = max(abs(float(x)) for x in image.components())
        scaled = CycleQuadruple(*(float(x) / norm for x in image.components()))
        for u, v in pts:
            w = mobius_apply(GroupElement(*(float(x) for x in g.entries())), Point(u, v), sigma)
            if w is INFINITY:
                continue
            assert abs(cycle_eval(scaled, w, sigma)) < 1e-9
        done += 1


def test_similarity_context_independence():
    rng = random.Random(9)
    for _ in range(60):
        cyc = rand_cycle(rng)
        g = rand_group_exact(rng)
        images = [similarity_transform(cyc, g, ctx) for ctx in ALL_CTX]
        for other in images[1:]:
            assert projective_eq(images[0], other)


def test_similarity_preserves_det_and_trace():
    rng = random.Random(10)
    for _ in range(100):
        cyc = rand_cycle(rng)
        g = rand_group_exact(rng)
        for ctx in ALL_CTX:
            image = similarity_transform(cyc, g, ctx)
            assert det_invariant(image, ctx) == det_invariant(cyc, ctx)
            assert trace_part(image, ctx) == trace_part(cyc, ctx)


def test_centres():
    cyc = CycleQuadruple(1, 1, 1, 0)
    assert centre(cyc, E) == Point(1, 1)
    assert centre(cyc, P) == Point(1, 0)
    assert centre(cyc, H) == Point(1, -1)
    assert centre(CycleQuadruple(0, 1, 1, 0), E) is INFINITY


def test_parabolic_centre_is_midpoint():
    rng = random.Random(12)
    for _ in range(200):
        cyc = rand_cycle(rng, k_nonzero=True)
        ce = centre(cyc, E)
        cp = centre(cyc, P)
        ch = centre(cyc, H)
        assert cp.u == (ce.u + ch.u) / 2 or cp.u == Fraction(ce.u + ch.u, 2)
        assert 2 * cp.v == ce.v + ch.v


def test_det_trace_radius():
    assert det_invariant(UNIT_CIRCLE, CTX_E) == -1
    assert det_invariant(CycleQuadruple(1, 1, 2, 5), CTX_E) == 0
    assert radius_sq(UNIT_CIRCLE, CTX_E) == 1
    assert radius_sq(CycleQuadruple(1, 0, 1, 0), CTX_E) == 1
    assert radius_sq(CycleQuadruple(1, 1, 1, 0), FSCcContext(P, 1)) == 1
    assert trace_part(CycleQuadruple(1, 2, 3, 4), CTX_E) == 6
    assert trace_part(CycleQuadruple(1, 2, 3, 4), FSCcContext(E, -1)) == -6
    with pytest.raises(LineHasNoRadius):
        radius_sq(CycleQuadruple(0, 0, 1, 0), CTX_E)


def test_parabolic_radius_is_quarter_root_gap():
    cyc = CycleQuadruple(1, 1, 1, 0)
    assert roots(cyc) == [0, 2]
    assert radius_sq(cyc, FSCcContext(P, 1)) == 1  # diameter 2 = root gap


def test_focus_anchors_of_parabola():
    parabola = CycleQuadruple(1, 0, 1, 0)  # v = u^2/2
    assert focus(parabola, P) == Point(0, 0)
    assert focus(parabola, H) == Point(0, Fraction(1, 2))
    assert focus(parabola, E) == Point(0, Fraction(-1, 2))
    with pytest.raises(FocusUndefined):
        focus(UNIT_CIRCLE, E)


def test_zero_radius_cycles():
    assert zero_radius_cycle((1, 2), CTX_E) == CycleQuadruple(1, 1, 2, 5)
    assert zero_radius_cycle((1, 2), FSCcContext(P, 1)) == CycleQuadruple(1, 1, 2, 1)
    assert zero_radius_cycle((1, 2), FSCcContext(H, 1)) == CycleQuadruple(1, 1, 2, -3)
    rng = random.Random(14)
    for _ in range(100):
        at = (rand_fraction(rng), rand_fraction(rng))
        for ctx in ALL_CTX:
            z = zero_radius_cycle(at, ctx)
            assert det_invariant(z, ctx) == 0
            assert radius_sq(z, ctx) == 0


def test_roots():
    assert roots(UNIT_CIRCLE) == [-1, 1]
    assert roots(CycleQuadruple(1, 1, 1, 0)) == [0, 2]
    assert roots(CycleQuadruple(1, 0, 1, 1)) == []
    assert roots(CycleQuadruple(0, 1, 1, 4)) == [2]
    with pytest.raises(NoRealAxisIntersection):
        roots(CycleQuadruple(0, 0, 1, 1))
    with pytest.raises(EverywhereZero):
        roots(CycleQuadruple(0, 0, 1, 0))


def test_irrational_roots_of_coefficients_beyond_the_float_range():
    """An irrational root is the nearest float of the exact root, whatever the size of the coefficients."""
    low, high = roots(CycleQuadruple(Fraction(1, 10**400), 0, 0, -3))
    assert math.isclose(high, math.sqrt(3) * 1e200, rel_tol=1e-15) and low == -high
    low, high = roots(CycleQuadruple(10**400, 0, 0, -3 * 10**400))
    assert math.isclose(high, math.sqrt(3), rel_tol=1e-15) and low == -high


def test_an_irrational_root_beyond_the_float_range_raises():
    with pytest.raises(CycleKitError, match="^an irrational root leaves the float range$"):
        roots(CycleQuadruple(Fraction(1, 10**400), 0, 0, -3 * 10**400))  # +-1.7e400
    with pytest.raises(CycleKitError, match="^an irrational root leaves the float range$"):
        roots(CycleQuadruple(Fraction(1, 10**400), 1, 0, 1))  # about 0.5 and 2e400
    with pytest.raises(CycleKitError, match="^an irrational root leaves the float range$"):
        # about -1 and -2^1060
        roots(CycleQuadruple(Fraction(1, 2**1060), Fraction(-1, 2), 0, 1))


def nearest_roots(k, l, m):
    """The roots of k u^2 - 2 l u + m = 0 for the exact values of the scalars, k and l not both 0.

    A rational root is a ``Fraction``, an irrational one the nearest float of the
    exact root (``nearest_root_floats``); with a float among the scalars every root
    is rounded once.  A root beyond the float range raises OverflowError.
    """
    a, b, c = Fraction(k), -2 * Fraction(l), Fraction(m)
    if a == 0:
        found = [-c / b]
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num != disc.numerator or den * den != disc.denominator:
            return nearest_root_floats(a, b, c)
        root = Fraction(num, den)
        found = sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})
    return [float(x) for x in found] if any(isinstance(x, float) for x in (k, l, m)) else found


@pytest.mark.parametrize(
    "k, l, m, want",
    [
        # b^2 overflowed to inf, and the roots were [-inf, inf]
        pytest.param(1.0, 1e200, 1.0, [5e-201, 2e200], id="float-overflow"),
        # -b + sqrt(disc) cancelled, and the small root was 0.0
        pytest.param(1e-300, 1.0, 1.0, [0.5, 1.9999999999999998e300], id="float-cancellation"),
        pytest.param(1, 10**200, 1, [5e-201, 2e200], id="exact-cancellation"),
    ],
)
def test_roots_do_not_cancel_or_overflow(k, l, m, want):
    assert roots(CycleQuadruple(k, l, 0, m)) == want == nearest_roots(k, l, m)


@pytest.mark.parametrize("scalar, k, l, m", [("inf", math.inf, 1.0, 1.0), ("nan", 1.0, math.nan, 1.0),
                                             ("-inf", 1.0, 1.0, -math.inf), ("nan", 0.0, 0.0, math.nan)])
def test_roots_of_a_scalar_that_is_not_finite_is_named(scalar, k, l, m):
    with pytest.raises(ValueError, match=f"^scalars must be finite, got {scalar}$"):
        roots(CycleQuadruple(k, l, 0.0, m))


def test_a_float_root_beyond_the_float_range_raises():
    """5e-324 u^2 - 2u + 1 = 0 has the roots 0.5 and about 4e323; the second was inf."""
    with pytest.raises(OverflowError):
        nearest_roots(5e-324, 1.0, 1.0)
    with pytest.raises(CycleKitError, match="^an irrational root leaves the float range$"):
        roots(CycleQuadruple(5e-324, 1.0, 0, 1.0))


SMALL = st.fractions(-9, 9, max_denominator=12)


@st.composite
def root_coefficients(draw):
    """(k, l, m), k and l not both 0: exact, exact beyond 2^+-1000, or floats of any size beside exact ones."""
    kind = draw(st.sampled_from(["exact", "large", "float"]))
    if kind == "float":
        scalar = st.one_of(st.floats(allow_nan=False, allow_infinity=False), SMALL, SMALL.map(float))
        k, l, m = draw(scalar), draw(scalar), draw(scalar)
    else:
        k, l, m = draw(SMALL), draw(SMALL), draw(SMALL)
        if draw(st.booleans()):  # the roots r1 and r2, rational
            r1, r2 = draw(SMALL), draw(SMALL)
            l, m = k * (r1 + r2) / 2, k * r1 * r2
        if kind == "large":
            factor = Fraction(2) ** draw(st.sampled_from([-1500, -1100, 1100, 1500]))
            k, l, m = k * factor, l * factor, m * factor
    assume(k or l)
    return k, l, m


@given(root_coefficients())
@example((Fraction(1, 2**1060), Fraction(-1, 2), 1))
# roots near 2^52 + 1/2, the midpoint of two floats, where the first bracket of sqrt(disc) is
# too wide: +-sqrt(2^104 + 2^52) lie within 2^-55 of it, and of the next pair only q/2a straddles it
@example((1, 0, -(2**104 + 2**52)))
@example((1, 0, -(2**104 + 2**52 + 1139262812994)))
def test_each_root_is_exact_or_the_nearest_float_of_the_exact_root(coefficients):
    k, l, m = coefficients
    try:
        want = nearest_roots(k, l, m)
    except OverflowError:
        want = CycleKitError
    assert shown(outcome(roots, CycleQuadruple(k, l, 0, m))) == shown(want)


def test_irrational_roots_use_the_correctly_rounded_square_root():
    """libm pow need not be correctly rounded: some give 2921 ** 0.5 one unit in the last place short."""
    assert sqrt_or_float(2921) == math.sqrt(2921) == float.fromhex("0x1.b05ec632536fbp+5")
    assert roots(CycleQuadruple(1, 0, 0, -2921)) == [-math.sqrt(2921), math.sqrt(2921)]


@given(
    st.fractions(-9, 9, max_denominator=12).filter(bool),
    st.fractions(-9, 9, max_denominator=12),
    st.fractions(-9, 9, max_denominator=12),
    st.sampled_from([-1500, -1100, 1100, 1500]),
)
def test_roots_beyond_the_float_range_are_the_roots_within_it(k, l, m, power):
    """A quadruple scaled by 2^power has the roots of the quadruple, by type and value:
    the same ``Fraction``s, or the same nearest floats of the irrational roots."""
    factor = Fraction(2) ** power
    want = roots(CycleQuadruple(k, l, 0, m))
    got = roots(CycleQuadruple(k * factor, l * factor, 0, m * factor))
    assert shown(got) == shown(want)


def ref_normalized_key(cycle):
    comps = cycle.components()
    for c in comps:
        if c != 0:
            return tuple(div(x, c) for x in comps)
    raise ValueError("zero quadruple")


@given(st.one_of(st.lists(EXACT, min_size=4, max_size=4), st.lists(SCALARS, min_size=4, max_size=4)))
@example([Fraction(0), 2, Fraction(-4, 3), True])
@example([0.0, -0.0, 3, Fraction(1, 2)])
def test_normalized_key_is_the_quotients_of_div(components):
    """Over integer numerators for exact quadruples, by ``div`` with a float anywhere:
    the replaced quotients by value and type (floats by ``float.hex``)."""
    cycle = quadruple(components)
    assert canonical(normalized_key(cycle)) == canonical(ref_normalized_key(cycle))


def test_cycle_from_constraints_converts_its_constraints_once(monkeypatch):
    """The solver and its linear stage share one ``_exact_constraints`` pass."""
    calls = []
    convert = cycle_module._exact_constraints

    def counted(constraints):
        calls.append(len(constraints))
        return convert(constraints)

    monkeypatch.setattr(cycle_module, "_exact_constraints", counted)
    systems = [
        [PassesThrough((1, 0), E), PassesThrough((-1, 0), E), PassesThrough((0, 1), E), Normalised()],
        [PassesThrough((1.0, 0.0), E), PassesThrough((-1, 0), E), PassesThrough((0, 0.5), E), Normalised()],
        [HasFocus((0, Fraction(1, 2)), P), PassesThrough((1, 0), P), Normalised()],
    ]
    for system in systems:
        calls.clear()
        cycle_from_constraints(system)
        assert calls == [len(system)]
    calls.clear()
    pencil(systems[1])
    assert calls == [len(systems[1])]


def test_projective_eq_and_normalize():
    assert projective_eq(CycleQuadruple(2, 0, 0, -2), UNIT_CIRCLE)
    assert not projective_eq(CycleQuadruple(2, 0, 0, -2), CycleQuadruple(1, 0, 1, -1))
    assert normalize(CycleQuadruple(2, 4, 6, 8), "k-one") == CycleQuadruple(1, 2, 3, 4)
    with pytest.raises(ValueError):
        normalize(UNIT_CIRCLE, "det-one", CTX_E)
    scaled = normalize(CycleQuadruple(1, 0, 2, 0), "det-one", FSCcContext(H, 1))
    assert det_invariant(scaled, FSCcContext(H, 1)) == 1


def test_constraints_three_points():
    sols = cycle_from_constraints(
        [
            PassesThrough((1, 0), E),
            PassesThrough((-1, 0), E),
            PassesThrough((0, 1), E),
            Normalised(),
        ]
    )
    assert sols == [UNIT_CIRCLE]


def test_constraints_centre_through():
    sols = cycle_from_constraints(
        [
            HasKindCentre((0, Fraction(-1, 2)), E),
            PassesThrough((0, Fraction(1, 2)), E),
            Normalised(),
        ]
    )
    assert sols == [CycleQuadruple(1, 0, Fraction(-1, 2), Fraction(-3, 4))]


def test_constraints_underdetermined():
    with pytest.raises(UnderDetermined):
        cycle_from_constraints(
            [PassesThrough((0, 0), E), PassesThrough((0, 2), E), Normalised()]
        )


def test_constraints_focus_double_root():
    sols = cycle_from_constraints(
        [
            HasFocus((0, 1), E),
            PassesThrough((0, Fraction(1, 2)), E),
            Normalised(),
        ]
    )
    assert sols == [CycleQuadruple(1, 0, Fraction(-1, 2), Fraction(-3, 4))]


def test_constraints_focus_two_branches():
    sols = cycle_from_constraints(
        [
            HasFocus((0, Fraction(-1, 2)), E),
            PassesThrough((1, 1), E),
            Normalised(),
        ]
    )
    assert len(sols) == 2
    assert projective_eq(sols[0], CycleQuadruple(1, 0, 1, 0))
    assert projective_eq(sols[1], CycleQuadruple(1, 0, 2, 2))


def test_float_focus_rejects_an_n_of_rounding_size():
    # the float solve once kept a second cycle with n = -1.98e-13 beside the true one
    exact = [HasFocus((6, Fraction(-62, 5)), E), PassesThrough((6, Fraction(-21, 2)), P)]
    want = CycleQuadruple(1, 6, Fraction(19, 5), Fraction(-219, 5))
    assert cycle_from_constraints(exact + [Normalised()]) == [want]
    (sol,) = cycle_from_constraints(
        [HasFocus((6.0, -12.4), E), PassesThrough((6.0, -10.5), P), Normalised()]
    )
    assert all(isinstance(x, float) for x in sol.components())
    for got, expected in zip(sol.components(), want.components()):
        assert got == pytest.approx(float(expected), rel=1e-9, abs=1e-9)
    interval = DirectedInterval((6, Fraction(-62, 5)), (6, Fraction(-21, 2)))
    assert length(interval, FromFocus(P, E)) == [Fraction(2356, 25)]
    (value,) = length(DirectedInterval((6.0, -12.4), (6.0, -10.5)), FromFocus(P, E))
    assert value == pytest.approx(94.24, rel=1e-9)


@pytest.mark.parametrize(
    "focus, through, tail",
    [
        ((10**5, 1), (10**5, 0), []),
        ((2000, Fraction(1, 1000)), (2000, 0), []),
        ((0, Fraction(1, 10**10)), (0, 0), [Normalised()]),
    ],
)
def test_float_focus_keeps_an_n_small_beside_the_figure(focus, through, tail):
    # n is small beside the focus's distance from the origin, or beside 1,
    # yet of the figure's own size: a bound that grows with m or is floored
    # at 1 once rejected these cycles, which exact mode finds
    (want,) = cycle_from_constraints([HasFocus(focus, E), PassesThrough(through, P)] + tail)
    floats = [HasFocus(tuple(map(float, focus)), E), PassesThrough(tuple(map(float, through)), P)]
    (got,) = cycle_from_constraints(floats + tail)
    want, got = normalize(want, "k-one"), normalize(got, "k-one")
    assert all(isinstance(x, float) for x in got.components())
    for g, w in zip(got.components(), want.components()):
        assert g == pytest.approx(float(w), rel=1e-6)


def test_float_length_from_a_focus_at_a_small_scale():
    interval = DirectedInterval((0, Fraction(1, 10**10)), (0, 0))
    assert length(interval, FromFocus(P, E)) == [Fraction(1, 25 * 10**18)]
    (value,) = length(DirectedInterval((0.0, 1e-10), (0.0, 0.0)), FromFocus(P, E))
    assert value == pytest.approx(4e-20, rel=1e-6)


def test_constraints_focus_without_chart():
    # same two branches as the k = 1 version, found projectively
    sols = cycle_from_constraints(
        [HasFocus((0, Fraction(-1, 2)), E), PassesThrough((1, 1), E)]
    )
    assert len(sols) == 2
    found = {tuple(normalize(s, "k-one").components()) for s in sols}
    assert (1, 0, 1, 0) in found
    assert (1, 0, 2, 2) in found


def test_constraints_inconsistent():
    with pytest.raises(Inconsistent):
        cycle_from_constraints(
            [
                HasFocus((0, 1), E),
                PassesThrough((0, 2), E),
                Normalised(),
            ]
        )


def test_constraints_projective_without_chart():
    # three incidences pin the circle projectively even without k = 1
    sols = cycle_from_constraints(
        [
            PassesThrough((1, 0), E),
            PassesThrough((-1, 0), E),
            PassesThrough((0, 1), E),
        ]
    )
    assert len(sols) == 1
    assert projective_eq(sols[0], UNIT_CIRCLE)


def test_constraints_orthogonality_rows():
    from cyclekit import IsOrthogonalTo, pairing

    rng = random.Random(21)
    for _ in range(25):
        fixed = rand_real_circle(rng)
        b = (rand_fraction(rng), rand_fraction(rng))
        c = (rand_fraction(rng), rand_fraction(rng))
        try:
            sols = cycle_from_constraints(
                [
                    IsOrthogonalTo(fixed, CTX_E),
                    PassesThrough(b, E),
                    PassesThrough(c, E),
                    Normalised(),
                ]
            )
        except (Inconsistent, UnderDetermined):
            continue
        for sol in sols:
            assert pairing(sol, fixed, CTX_E) == 0
            assert cycle_eval(sol, Point(*b), E) == 0


@pytest.mark.parametrize("eps", [Fraction(1, 10**3), Fraction(1, 10**20)])
def test_exact_solutions_apart_by_less_than_a_float_step_stay_apart(eps):
    # the focus (0, 1) and the point (0, (1 - eps^2)/2) leave the two cycles
    # n = -(1 -+ eps)^2 / 2, whose keys round to the same floats at eps = 1e-20
    through = (0, (1 - eps * eps) / 2)
    sols = cycle_from_constraints([HasFocus((0, 1), E), PassesThrough(through, E), Normalised()])
    assert [s.n for s in sols] == [-((1 + eps) ** 2) / 2, -((1 - eps) ** 2) / 2]
    values = length(DirectedInterval((0, 1), through), FromFocus(E, E))
    assert values == [(1 - eps) ** 2, (1 + eps) ** 2]
    assert [type(x) for x in values] == [Fraction, Fraction]


FOCUS_SCALARS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
FOCUS_POINTS = st.tuples(FOCUS_SCALARS, FOCUS_SCALARS)
FOCUS_SIGNS = st.sampled_from(ALL_SIGNS)


@st.composite
def exact_focus_systems(draw):
    """Exact systems whose candidates lie on a line of the pencil: a focus and a point, a
    focus and two points, two foci on one vertical, or two foci of one cycle (1, l, n, m)."""
    shape = draw(st.sampled_from(["point", "two-points", "vertical", "one-cycle"]))
    if shape == "one-cycle":
        l, n, m = draw(FOCUS_SCALARS), draw(FOCUS_SCALARS.filter(bool)), draw(FOCUS_SCALARS)
        system = [
            HasFocus((l, Fraction(int(sign) * n * n - l * l + m) / (2 * n)), sign)
            for sign in (draw(FOCUS_SIGNS), draw(FOCUS_SIGNS))
        ]
    else:
        system = [HasFocus(draw(FOCUS_POINTS), draw(FOCUS_SIGNS))]
        if shape == "vertical":
            system.append(HasFocus((system[0].point[0], draw(FOCUS_SCALARS)), draw(FOCUS_SIGNS)))
        elif shape == "two-points":
            system.append(PassesThrough(draw(FOCUS_POINTS), draw(FOCUS_SIGNS)))
    system.append(PassesThrough(draw(FOCUS_POINTS), draw(FOCUS_SIGNS)))
    if draw(st.booleans()):
        system.append(Normalised())
    return system


@given(exact_focus_systems())
# n = 1 is the exact root of the parabolic focus; the elliptic one has the irrational
# root 1 + 2e-15 + ..., so the roots agree within the tolerance and only its residual,
# -2e-15, rejects the candidate (Inconsistent)
@example([HasFocus((0, 0), SpaceSign.PARABOLIC),
          HasFocus((0, Fraction(-1, 2) + Fraction(1, 10**15)), SpaceSign.ELLIPTIC),
          PassesThrough((1, 1), SpaceSign.ELLIPTIC), Normalised()])
def test_exact_focus_solutions_satisfy_every_focus_condition(system):
    """The solver skips the residual at exact common roots; the public components show it holds."""
    try:
        solutions = cycle_from_constraints(system)
    except (Inconsistent, UnderDetermined):
        return
    for quad in solutions:
        k, l, n, m = quad.components()
        if not all(type(x) in (int, Fraction) for x in (k, l, n, m)):
            continue  # an irrational root, demoted to float
        for constraint in system:
            if isinstance(constraint, HasFocus):
                v, sigma_cycle = constraint.point[1], int(constraint.sigma_cycle)
                assert sigma_cycle * n * n - l * l + m * k - 2 * v * n * k == 0


@given(FOCUS_SIGNS, FOCUS_SIGNS, FOCUS_SCALARS, FOCUS_SCALARS.filter(bool), FOCUS_POINTS)
def test_every_exact_cycle_is_found_from_its_focus_and_a_point(sigma, sigma_cycle, l, n, through):
    """The cycle (1, l, n, m) drawn through a point is among the solutions from its focus.

    A zero determinant (the focus on the real axis) and a point at the focus
    are kept.  Skipped is only a parabolic focus level with the point, where
    the focus condition holds identically and the solver raises
    UnderDetermined.
    """
    u, v = through
    m = -(u * u - int(sigma) * v * v) + 2 * l * u + 2 * n * v
    cycle = CycleQuadruple(1, l, n, m)
    f = focus(cycle, sigma_cycle)
    assume(not (sigma_cycle == P and f.v == v))
    solutions = cycle_from_constraints(
        [HasFocus((f.u, f.v), sigma_cycle), PassesThrough(through, sigma), Normalised()]
    )
    assert cycle in solutions


# ---------------------------------------------------------------------------
# Float systems are solved exactly on the floats' own values, then rounded once


WIDE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def inexact_systems(draw):
    """A float or mixed system: a solver mix, a linear-stage mix, or a focus system over floats of any size."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        system = draw(systems())
    elif kind == 1:
        system = draw(mixed_systems())
    else:
        point = st.tuples(WIDE, WIDE)
        system = [HasFocus(draw(point), draw(FOCUS_SIGNS)), PassesThrough(draw(point), draw(FOCUS_SIGNS))]
        if draw(st.booleans()):
            system.append(draw(st.one_of(st.just(Normalised()), st.builds(PassesThrough, point, FOCUS_SIGNS))))
    assume(exact_system(system)[1])
    return system


def shown(value):
    """Types and values, a float by ``float.hex`` so that signed zeros count."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [shown(x) for x in value]
    if isinstance(value, CycleQuadruple):
        return shown(value.components())
    return (type(value), value)


def rounded_pencil(solved):
    base, basis, projective = solved
    return round_once(base), [round_once(vec) for vec in basis], projective


def rounded_cycles(cycles):
    return [CycleQuadruple(*round_once(c.components())) for c in cycles]


ITEM_4_SYSTEMS = [
    [HasFocus((-1.0, -1.0), P), PassesThrough((0.5, 0.0), E)],
    [HasFocus((1e5, 1.0), E), PassesThrough((1e5, 0.0), P), Normalised()],
    [PassesThrough((1e200, 1.0), E), PassesThrough((-1e200, 1.0), E), PassesThrough((0.0, 1e-200), E)],
]
FAR_FOCUS_SYSTEMS = [[HasFocus((u, 1.0), E), PassesThrough((u, 0.0), P), Normalised()] for u in (1e3, 2e3, 1e4)]
SMALL_FOCUS_SYSTEM = [
    HasFocus((-9 / 262144, -5 / 524288), H), PassesThrough((-9 / 262144, -9 / 524288), P), Normalised()
]
# the system of the focus length from (-28, -1/3) to (-30, 2), FromFocus(E, H)
CANCELLING_FOCUS_SYSTEM = [HasFocus((-28.0, -1 / 3), H), PassesThrough((-30.0, 2.0), E), Normalised()]


@given(inexact_systems())
@example(ITEM_4_SYSTEMS[0])
@example(ITEM_4_SYSTEMS[1])
@example(ITEM_4_SYSTEMS[2])
@example(FAR_FOCUS_SYSTEMS[0])
@example(FAR_FOCUS_SYSTEMS[1])
@example(FAR_FOCUS_SYSTEMS[2])
@example(SMALL_FOCUS_SYSTEM)
@example(CANCELLING_FOCUS_SYSTEM)
def test_float_solves_are_the_rounded_exact_solves(system):
    exact, _ = exact_system(system)
    for solve, rounded in ((pencil, rounded_pencil), (cycle_from_constraints, rounded_cycles)):
        want = outcome(solve, exact)
        if not isinstance(want, type):
            want = outcome(rounded, want)
        got = outcome(solve, system)
        assert shown(got) == shown(want), solve.__name__


@pytest.mark.parametrize(
    "system, want",
    [
        (ITEM_4_SYSTEMS[0], [(-0.8, 0.8, -0.9, 1.0)]),
        (ITEM_4_SYSTEMS[1], [(1.0, 1e5, -2.0, 1e10)]),
        *[(system, [(1.0, u, -2.0, u * u)]) for system, u in zip(FAR_FOCUS_SYSTEMS, (1e3, 2e3, 1e4))],
    ],
)
def test_float_focus_systems_that_float_elimination_got_wrong(system, want):
    # n = 7.2e15 from a cancelled leading coefficient, and Inconsistent from a
    # pivot threshold scaled to u^2 beside the Normalised row's 1
    assert [c.components() for c in cycle_from_constraints(system)] == want


def test_three_far_apart_float_points_give_one_circle():
    (circle,) = cycle_from_constraints(ITEM_4_SYSTEMS[2])
    assert circle.l == 0.0 and all(type(x) is float for x in circle.components())


def test_small_float_focus_system_has_one_cycle():
    (cycle,) = cycle_from_constraints(SMALL_FOCUS_SYSTEM)
    assert cycle.n == float(Fraction(1, 65536))


def test_float_focus_length_does_not_cancel():
    first, _ = length(DirectedInterval((-28.0, -1 / 3), (-30.0, 2.0)), FromFocus(E, H))
    assert abs(first + 4) <= 4e-12


NON_FINITE_SYSTEMS = [
    ("inf", [PassesThrough((math.inf, 0.0), E), PassesThrough((0.0, 1.0), E), PassesThrough((1.0, 0.0), E)]),
    ("-inf", [HasFocus((0.0, -math.inf), E), PassesThrough((0.0, 1.0), E), Normalised()]),
    ("nan", [HasKindCentre((math.nan, 0.0), E), PassesThrough((0.0, 1.0), E)]),
    ("nan", [IsOrthogonalTo(CycleQuadruple(1.0, math.nan, 0.0, -1.0), CTX_E), PassesThrough((0.0, 1.0), E),
             PassesThrough((1.0, 0.0), E)]),
]


@pytest.mark.parametrize("solve", [pencil, cycle_from_constraints])
@pytest.mark.parametrize("scalar, system", NON_FINITE_SYSTEMS)
def test_a_scalar_that_is_not_finite_is_named(solve, scalar, system):
    with pytest.raises(ValueError, match=f"^scalars must be finite, got {scalar}$"):
        solve(system)


@pytest.mark.parametrize(
    "solve, system",
    [
        # the exact cycles k u^2 + ... through (4e-235, 0) with a focus at the origin have k/m ~ 1e469
        (cycle_from_constraints, [HasFocus((0.0, 0.0), H), PassesThrough((4.265138290478188e-235, 0.0), E)]),
        (pencil, [HasFocus((1e200, 1.0), E), PassesThrough((-1e200, 0.0), P), Normalised()]),
    ],
)
def test_an_answer_beyond_the_float_range_is_a_domain_error(solve, system):
    with pytest.raises(CycleKitError, match="^a component of the exact answer is beyond the float range$"):
        solve(system)


def test_an_irrational_focus_root_beyond_the_float_range_is_a_domain_error():
    # the float root is summed with a base and a direction whose floats overflow
    system = [HasFocus((0.0, -2.5), H), PassesThrough((1.7e308, 3e160), E), Normalised()]
    with pytest.raises(CycleKitError, match="^an irrational focus root leaves the float range$"):
        cycle_from_constraints(system)
