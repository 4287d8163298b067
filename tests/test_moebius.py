import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ALL_SIGNS, rand_fraction, rand_group_exact, rand_group_float, rand_point_exact
from cyclekit import (
    CycleQuadruple,
    ExactModeError,
    FSCcContext,
    GroupElement,
    INFINITY,
    NotAKOrbit,
    Point,
    compose,
    cycle_eval,
    invert,
    iwasawa_decompose,
    iwasawa_recompose,
    k_orbit,
    mobius_apply,
    reduce_to_k_orbit,
    similarity_transform,
    subgroup_element,
)
from cyclekit.figures import _orbit_parameters, _rotation_grid
from cyclekit.moebius import orbit_uv
from cyclekit.numbers import div

E, P, H = ALL_SIGNS


def test_compose_identity_and_inverse():
    g = GroupElement(Fraction(2), Fraction(3), Fraction(0), Fraction(1, 2))
    i = GroupElement.identity()
    assert compose(i, g) == g
    assert compose(g, invert(g)) == i
    assert invert(subgroup_element("N", Fraction(5))) == subgroup_element("N", Fraction(-5))


def test_group_element_normalises_determinant():
    g = GroupElement(2, 0, 0, 2)
    assert g.entries() == (1, 0, 0, 1)
    with pytest.raises(ExactModeError):
        GroupElement(Fraction(2), 0, 0, Fraction(1))
    with pytest.raises(ValueError):
        GroupElement(1, 0, 0, -1)
    # float mode does not need a perfect square
    gf = GroupElement(2.0, 0.0, 0.0, 1.0)
    assert math.isclose(gf.a * gf.d - gf.b * gf.c, 1.0)


@pytest.mark.parametrize(
    "entries, want",
    [
        ((1e300, 0.0, 0.0, 1e300), (1.0, 0.0, 0.0, 1.0)),  # det overflows to inf
        ((-1e300, 0.0, 0.0, -1e300), (-1.0, 0.0, 0.0, -1.0)),
        ((1e-200, 0.0, 0.0, 1e-200), (1.0, 0.0, 0.0, 1.0)),  # det underflows to 0
        ((5e-324, 0.0, 0.0, 5e-324), (1.0, 0.0, 0.0, 1.0)),
        ((2e300, 1e300, 1e300, 1e300), (2.0, 1.0, 1.0, 1.0)),  # inf - inf = nan
        ((3e-200, 1e-200, 2e-200, 1e-200), (3.0, 1.0, 2.0, 1.0)),
    ],
)
def test_float_determinant_out_of_range_is_retried_at_a_power_of_two(entries, want):
    g = GroupElement(*entries)
    assert all(type(x) is float for x in g.entries())
    assert all(math.isclose(x, y, abs_tol=1e-15) for x, y in zip(g.entries(), want))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", range(4))
def test_float_element_with_an_entry_that_is_not_finite_is_refused(bad, where):
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[where] = bad
    with pytest.raises(ValueError, match="^entries must be finite"):
        GroupElement(*entries)


@pytest.mark.parametrize(
    "entries, shown",
    [
        ((1e300, 1e300, 1e300, 1e300), "0.0"),  # inf - inf, singular at any scale
        ((1.0, 1.0, 1.0, 1.0), "0.0"),
        ((1e300, 0.0, 0.0, -1e300), "-0.5574278282379019 * 2**1994"),
        ((-1.0, 0.0, 0.0, 1.0), "-1.0"),  # a finite determinant is shown as it is
    ],
)
def test_float_determinant_that_is_not_positive_is_refused(entries, shown):
    with pytest.raises(ValueError) as info:
        GroupElement(*entries)
    assert str(info.value) == f"determinant must be positive, got {shown}"


@pytest.mark.parametrize("t", [1.35e154, 1e200, -1e300, 1.7976931348623157e308])
def test_float_rotation_parameter_beyond_the_square_range_gives_finite_entries(t):
    cos, sin, minus_sin, cos2 = subgroup_element("K", t).entries()
    exact = Fraction(t)
    assert (minus_sin, cos2) == (-sin, cos)
    assert math.isclose(cos, (1 - exact * exact) / (1 + exact * exact), rel_tol=1e-15)
    assert math.isclose(sin, 2 * exact / (1 + exact * exact), rel_tol=1e-15)


def test_float_rotation_below_the_overflow_keeps_the_quotients_over_one_plus_t_squared():
    t = 1.3e154  # 1 + t*t is still finite
    assert 1 + t * t < math.inf
    assert subgroup_element("K", t).entries()[:2] == ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


@pytest.mark.parametrize("sigma", ALL_SIGNS)
def test_shift_and_dilation(sigma):
    z = Point(Fraction(1, 3), Fraction(2, 5))
    shifted = mobius_apply(subgroup_element("N", Fraction(7, 2)), z, sigma)
    assert shifted == Point(Fraction(1, 3) + Fraction(7, 2), Fraction(2, 5))
    scaled = mobius_apply(subgroup_element("A", Fraction(3)), z, sigma)
    assert scaled == Point(9 * Fraction(1, 3), 9 * Fraction(2, 5))


def test_zero_divisor_denominator_maps_to_infinity():
    g = GroupElement(0, -1, 1, 0)
    assert mobius_apply(g, Point(Fraction(0), Fraction(1)), P) is INFINITY
    # elliptically the same point is fine
    image = mobius_apply(g, Point(Fraction(0), Fraction(1)), E)
    assert image == Point(Fraction(0), Fraction(1))


def test_infinity_maps_to_a_over_c():
    g = GroupElement(Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    assert mobius_apply(g, INFINITY, E) == Point(Fraction(2), Fraction(0))
    assert mobius_apply(subgroup_element("N", Fraction(3)), INFINITY, H) is INFINITY


def _safe_triple(rng, sigma):
    """Random (g1, g2, z) avoiding the zero-divisor branch locus."""
    while True:
        g1 = rand_group_exact(rng)
        g2 = rand_group_exact(rng)
        if rng.random() < 0.05:
            return g1, g2, INFINITY
        z = rand_point_exact(rng)
        w = mobius_apply(g2, z, sigma)
        if w is INFINITY and sigma != E:
            continue
        if w is not INFINITY and mobius_apply(g1, w, sigma) is INFINITY:
            pass
        return g1, g2, z


@pytest.mark.parametrize("sigma", ALL_SIGNS)
def test_action_is_homomorphism(sigma):
    rng = random.Random(int(sigma) + 100)
    for _ in range(200):
        g1, g2, z = _safe_triple(rng, sigma)
        lhs = mobius_apply(g1, mobius_apply(g2, z, sigma), sigma)
        rhs = mobius_apply(compose(g1, g2), z, sigma)
        assert lhs == rhs


def test_elliptic_pole_goes_through_infinity():
    # z = -d/c on the real axis: g z = INFINITY, composites still agree
    g2 = GroupElement(Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    z = Point(Fraction(-2), Fraction(0))
    assert mobius_apply(g2, z, E) is INFINITY
    g1 = GroupElement(Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 2))
    lhs = mobius_apply(g1, INFINITY, E)
    rhs = mobius_apply(compose(g1, g2), z, E)
    assert lhs == rhs


def test_iwasawa_examples():
    factors = iwasawa_decompose(GroupElement.identity())
    assert (factors.alpha, factors.nu, factors.cos_phi, factors.sin_phi) == (1, 0, 1, 0)
    factors = iwasawa_decompose(GroupElement(Fraction(2), Fraction(3), Fraction(0), Fraction(1, 2)))
    assert (factors.alpha, factors.nu) == (2, Fraction(3, 2))
    assert (factors.cos_phi, factors.sin_phi) == (1, 0)


def test_iwasawa_exact_rotation_on_unit_circle():
    rng = random.Random(77)
    for _ in range(50):
        g = rand_group_exact(rng)
        factors = iwasawa_decompose(g)
        assert factors.cos_phi**2 + factors.sin_phi**2 == 1
        assert iwasawa_recompose(factors) == g


def test_iwasawa_reconstruction_float():
    rng = random.Random(11)
    for _ in range(300):
        g = rand_group_float(rng)
        factors = iwasawa_decompose(g)
        assert factors.alpha > 0
        back = iwasawa_recompose(factors)
        err = max(abs(x - y) for x, y in zip(back.entries(), g.entries()))
        assert err < 1e-12
        assert abs(factors.cos_phi**2 + factors.sin_phi**2 - 1.0) < 1e-12


def test_iwasawa_exact_requires_square_bottom_row():
    with pytest.raises(ExactModeError):
        iwasawa_decompose(GroupElement(Fraction(1), Fraction(0), Fraction(1), Fraction(1)))


def test_rotation_and_alpha_depend_on_bottom_row_only():
    rng = random.Random(5)
    for _ in range(50):
        g = rand_group_float(rng)
        nu_extra = rng.uniform(-3, 3)
        # multiplying by a shift on the left keeps the bottom row
        g2 = compose(subgroup_element("N", nu_extra), g)
        assert (abs(g2.c - g.c) < 1e-12) and (abs(g2.d - g.d) < 1e-12)
        f1 = iwasawa_decompose(g)
        f2 = iwasawa_decompose(g2)
        assert abs(f1.alpha - f2.alpha) < 1e-12
        assert abs(f1.cos_phi - f2.cos_phi) < 1e-12
        assert abs(f1.sin_phi - f2.sin_phi) < 1e-12


def test_subgroup_shapes():
    assert subgroup_element("A", Fraction(1)) == GroupElement.identity()
    assert subgroup_element("K", Fraction(1)) == GroupElement(0, 1, -1, 0)
    n1 = subgroup_element("N", Fraction(2, 3))
    n2 = subgroup_element("N", Fraction(1, 3))
    assert compose(n1, n2) == subgroup_element("N", Fraction(1))
    with pytest.raises(ValueError):
        subgroup_element("A", Fraction(0))


def test_k_orbit_fixes_imaginary_unit():
    params = [Fraction(p, 3) for p in range(-6, 7)]
    for image in k_orbit(Point(Fraction(0), Fraction(1)), E, params):
        assert image == Point(0, 1)


def test_k_orbit_of_height_two():
    image = k_orbit(Point(Fraction(0), Fraction(2)), E, [Fraction(1)])[0]
    assert image == Point(0, Fraction(1, 2))
    orbit_cycle = CycleQuadruple(1, 0, Fraction(5, 4), 1)
    for pt in k_orbit(Point(Fraction(0), Fraction(2)), E, [Fraction(p, 5) for p in range(-10, 11)]):
        assert cycle_eval(orbit_cycle, pt, E) == 0


def test_k_orbit_reaches_infinity_parabolically():
    # K(1) sends i (dual) to INFINITY
    images = k_orbit(Point(Fraction(0), Fraction(1)), P, [Fraction(1)])
    assert images[0] is INFINITY


def _commutes_with_k_generator(cycle, ctx):
    j = subgroup_element("K", Fraction(1))
    return similarity_transform(cycle, j, ctx) == cycle


def test_k_orbit_matrix_criterion():
    rng = random.Random(31)
    ctx = FSCcContext(E, 1)
    for _ in range(500):
        comps = [rand_fraction(rng, -5, 5) for _ in range(4)]
        if all(c == 0 for c in comps):
            continue
        cyc = CycleQuadruple(*comps)
        expected = cyc.l == 0 and cyc.k == cyc.m
        assert _commutes_with_k_generator(cyc, ctx) == expected


def test_reduce_to_k_orbit():
    nu, alpha = reduce_to_k_orbit(CycleQuadruple(1, 0, Fraction(5, 4), 1), E)
    assert (nu, alpha) == (0, 1)
    nu, alpha = reduce_to_k_orbit(CycleQuadruple(1, 3, Fraction(5, 4), 10), E)
    assert (nu, alpha) == (3, 1)
    with pytest.raises(NotAKOrbit):
        reduce_to_k_orbit(CycleQuadruple(1, 0, 0, -1), E)


@pytest.mark.parametrize("sigma_cycle", ALL_SIGNS)
def test_unread_sign_arguments_are_optional(sigma_cycle):
    cyc = CycleQuadruple(1, 3, Fraction(5, 4), 10)
    assert reduce_to_k_orbit(cyc) == reduce_to_k_orbit(cyc, sigma_cycle)
    g = subgroup_element("K", Fraction(1, 3))
    assert similarity_transform(cyc, g) == similarity_transform(cyc, g, FSCcContext(sigma_cycle))


def test_reduce_to_k_orbit_lands_on_orbit_form():
    rng = random.Random(17)
    ctx = FSCcContext(E, 1)
    done = 0
    while done < 40:
        cyc = CycleQuadruple(*[rand_fraction(rng, -5, 5) for _ in range(3)], rand_fraction(rng, -5, 5))
        if cyc.k == 0:
            continue
        try:
            nu, alpha = reduce_to_k_orbit(cyc, E)
        except NotAKOrbit:
            continue
        moved = similarity_transform(cyc, subgroup_element("N", -nu), ctx)
        if isinstance(alpha, Fraction) or isinstance(alpha, int):
            moved = similarity_transform(moved, subgroup_element("A", alpha), ctx)
            assert moved.l == 0 and moved.k == moved.m
        else:
            fmoved = CycleQuadruple(*(float(x) for x in moved.components()))
            fmoved = similarity_transform(fmoved, subgroup_element("A", alpha), FSCcContext(E, 1))
            assert abs(fmoved.l) < 1e-9 and abs(fmoved.k - fmoved.m) < 1e-9
        done += 1


def per_point_apply(g, z, sigma):
    """The action at a finite point as ``mobius_apply`` wrote it before the kernel."""
    a, b, c, d = g.entries()
    u, v = z.u, z.v
    sig = int(sigma)
    den_re = c * u + d
    mod = den_re * den_re - sig * (c * v) ** 2
    if mod == 0:
        return INFINITY
    re = (a * u + b) * den_re - sig * a * c * v * v
    return Point(div(re, mod), div(v * (a * d - b * c), mod))


def same_scalar(x, y):
    """Equal value and type; floats equal bit for bit, so -0.0 differs from 0.0."""
    if type(x) is not type(y):
        return False
    return x.hex() == y.hex() if isinstance(x, float) else x == y


def assert_kernel_matches(elements, z, sigma):
    images = orbit_uv(elements, z, sigma)
    assert len(images) == len(elements)
    for g, image in zip(elements, images):
        for want in (per_point_apply(g, z, sigma), mobius_apply(g, z, sigma)):
            if want is INFINITY:
                assert image is None
            else:
                assert image is not None
                assert same_scalar(image[0], want.u) and same_scalar(image[1], want.v)


FLOAT = st.floats(-8.0, 8.0)
EXACT = st.fractions(-8, 8, max_denominator=12)
SIGNS = st.sampled_from(ALL_SIGNS)


@st.composite
def float_elements(draw):
    a, b, c, d = (draw(FLOAT) for _ in range(4))
    if a * d - b * c <= 1e-6:
        a, b, c, d = b, a, d, c  # swapping the columns flips the sign of the determinant
    if a * d - b * c <= 1e-6:
        return GroupElement(1.0, draw(FLOAT), 0.0, 1.0)
    return GroupElement(a, b, c, d)


@st.composite
def exact_elements(draw):
    alpha = draw(st.fractions(Fraction(1, 4), 4, max_denominator=12))
    nu, t = draw(EXACT), draw(EXACT)
    return compose(
        compose(subgroup_element("A", alpha), subgroup_element("N", nu)),
        subgroup_element("K", t),
    )


SCALAR_TYPES = st.sampled_from([int, Fraction, float])


@st.composite
def pole_cases(draw):
    """The element [[a, ad - 1], [1, d]] and a point on its pole set in ``sigma``."""
    a, d, v = (draw(st.integers(-6, 6)) for _ in range(3))
    sigma = draw(SIGNS)
    u = -d
    if sigma == E:
        v = 0
    elif sigma == H:
        u += draw(st.sampled_from([v, -v]))  # c*u + d = +-c*v
    scalar = draw(SCALAR_TYPES)
    g = GroupElement(*(scalar(x) for x in (a, a * d - 1, 1, d)))
    return g, Point(scalar(u), scalar(v)), sigma


ELEMENTS = float_elements() | exact_elements() | pole_cases().map(lambda case: case[0])
POINTS = st.builds(Point, FLOAT, FLOAT) | st.builds(Point, EXACT, EXACT) | st.builds(
    Point, st.integers(-8, 8), st.integers(-8, 8)
)


@given(st.lists(ELEMENTS, max_size=12), POINTS, SIGNS)
def test_orbit_kernel_matches_the_per_point_action(elements, z, sigma):
    assert_kernel_matches(elements, z, sigma)


@given(pole_cases(), st.lists(ELEMENTS, max_size=4))
def test_orbit_kernel_on_the_pole_set(case, others):
    g, z, sigma = case
    assert orbit_uv([g], z, sigma) == [None]
    assert_kernel_matches([g] + others + [g], z, sigma)


@given(st.sampled_from([0.5, 1.0, 2.0]) | FLOAT, FLOAT, SIGNS)
def test_orbit_kernel_on_the_figure_rotations(v0, u0, sigma):
    rotations = [subgroup_element("K", t) for t in _orbit_parameters()]
    assert_kernel_matches(rotations, Point(0.0, v0), sigma)
    assert_kernel_matches(rotations, Point(u0, v0), sigma)


@given(st.lists(float_elements() | exact_elements(), max_size=12), st.builds(Point, FLOAT, FLOAT), SIGNS)
def test_float_orbit_uv_divides_like_div(elements, z, sigma):
    """A float modulus divides with ``/``, bit for bit what the ``div`` formula gives."""
    for g, image in zip(elements, orbit_uv(elements, z, sigma)):
        want = per_point_apply(g, z, sigma)
        if want is INFINITY:
            assert image is None
        else:
            assert same_scalar(image[0], want.u) and same_scalar(image[1], want.v)


@given(
    st.lists(exact_elements(), max_size=8),
    st.builds(Point, EXACT, EXACT) | st.builds(Point, st.integers(-8, 8), st.integers(-8, 8)),
    SIGNS,
)
def test_exact_orbit_uv_keeps_exact_components(elements, z, sigma):
    for image in orbit_uv(elements, z, sigma):
        assert image is None or all(type(x) in (int, Fraction) for x in image)


def test_rotation_grid_is_one_cached_tuple_equal_to_a_fresh_build():
    grid = _rotation_grid()
    assert type(grid) is tuple and grid is _rotation_grid()
    assert grid == tuple(subgroup_element("K", t) for t in _orbit_parameters())


# int, Fraction, bool and IntEnum scalars: exact, and kept as they are by GroupElement
EXACT_ENTRIES = st.one_of(st.integers(-6, 6), EXACT, st.booleans(), SIGNS)


@st.composite
def checked_exact_elements(draw):
    """Exact elements through ``GroupElement``'s test: (a, b, c, (1 + bc)/a), maybe scaled."""
    a = draw(EXACT_ENTRIES.filter(bool))
    b, c = draw(EXACT_ENTRIES), draw(EXACT_ENTRIES)
    d = (1 + b * c) * a if a in (1, -1) else Fraction(1 + b * c) / a
    factor = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    entries = (a, b, c, d) if factor == 1 else tuple(factor * x for x in (a, b, c, d))
    return GroupElement(*entries)


def assert_checked(g):
    """``g`` is the element that ``GroupElement``'s test builds from its entries, of ad - bc == 1."""
    rebuilt = GroupElement(*g.entries())
    assert [(type(x), x) for x in g.entries()] == [(type(x), x) for x in rebuilt.entries()]
    assert g.a * g.d - g.b * g.c == 1


EXACT_GROUP = checked_exact_elements() | exact_elements()


@given(EXACT_GROUP, EXACT_GROUP)
def test_exact_products_and_inverses_are_the_checked_elements(g1, g2):
    assert_checked(compose(g1, g2))
    assert_checked(invert(g1))


@given(st.sampled_from("ANK"), EXACT_ENTRIES)
def test_exact_subgroup_elements_are_the_checked_elements(kind, param):
    assume(kind != "A" or param > 0)
    assert_checked(subgroup_element(kind, param))
