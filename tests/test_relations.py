import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SIGNS, at_least, rand_cycle, rand_fraction, rand_group_exact, rand_real_circle
from test_moebius import per_point_apply
from test_scalar_policy import ref_gauss_solve, round_once
from cyclekit import (
    CycleQuadruple,
    Degenerate,
    DegenerateReflection,
    DegenerateRelationWarning,
    FSCcContext,
    GroupElement,
    INFINITY,
    Inconsistent,
    Point,
    REAL_LINE,
    SpaceSign,
    centre,
    common_inverse_point,
    compose,
    cycle_eval,
    det_invariant,
    focus,
    ghost_cycle,
    heaviside,
    invert_point,
    is_orthogonal,
    is_s_orthogonal,
    orthogonal_family,
    pairing,
    projective_eq,
    reflect_cycle,
    roots,
    s_ghost,
    similarity_transform,
    subgroup_element,
    zero_radius_cycle,
)
from cyclekit import relations
from cyclekit.cycle import normalized_key
from cyclekit.moebius import orbit_uv
from cyclekit.numbers import div, is_exact, vanishes

E, P, H = ALL_SIGNS
CTX_E = FSCcContext(E, 1)
UNIT_CIRCLE = CycleQuadruple(1, 0, 0, -1)
ALL_CTX = [FSCcContext(sc, s) for sc in ALL_SIGNS for s in (1, -1)]


def test_heaviside():
    assert heaviside(-1) == -1
    assert heaviside(0) == 1
    assert heaviside(1) == 1


def test_self_pairing_is_minus_two_det():
    rng = random.Random(41)
    for _ in range(200):
        cyc = rand_cycle(rng)
        for ctx in ALL_CTX:
            assert pairing(cyc, cyc, ctx) == -2 * det_invariant(cyc, ctx)


def test_pairing_tangent_example():
    c1 = CycleQuadruple(1, 0, 1, 0)
    c2 = CycleQuadruple(1, 0, -1, -2)
    assert pairing(c1, c2, CTX_E) == 0
    assert is_orthogonal(c1, c2, CTX_E)


def test_pairing_with_real_line():
    rng = random.Random(42)
    for _ in range(50):
        cyc = rand_cycle(rng)
        for ctx in ALL_CTX:
            assert pairing(cyc, REAL_LINE, ctx) == -2 * int(ctx.sigma_cycle) * cyc.n


def test_orthogonality_examples():
    assert is_orthogonal(UNIT_CIRCLE, zero_radius_cycle((1, 0), CTX_E), CTX_E)
    assert is_orthogonal(REAL_LINE, REAL_LINE, FSCcContext(P, 1))


def test_zero_radius_incidence_identity():
    rng = random.Random(43)
    for _ in range(500):
        cyc = rand_cycle(rng)
        w = (rand_fraction(rng), rand_fraction(rng))
        for sc in ALL_SIGNS:
            ctx = FSCcContext(sc, random.Random(1).choice([1, -1]))
            z = zero_radius_cycle(w, ctx)
            c = centre(z, sc)
            assert pairing(cyc, z, ctx) == -cycle_eval(cyc, c, sc)


def test_ghost_examples():
    cyc = CycleQuadruple(1, 2, 3, 4)
    assert ghost_cycle(cyc, E, E) == cyc
    assert ghost_cycle(cyc, E, P) == CycleQuadruple(1, 2, 0, 4)
    assert ghost_cycle(CycleQuadruple(1, 0, 1, 0), E, H) == CycleQuadruple(1, 0, -1, 0)
    with pytest.raises(Degenerate):
        ghost_cycle(REAL_LINE, E, P)


def test_ghost_reduction_identity():
    rng = random.Random(44)
    for _ in range(500):
        cyc = rand_cycle(rng)
        probe = rand_cycle(rng)
        sigma = SpaceSign(rng.choice([-1, 0, 1]))
        sc = SpaceSign(rng.choice([-1, 0, 1]))
        try:
            ghost = ghost_cycle(cyc, sigma, sc)
        except Degenerate:
            continue
        chi = SpaceSign(heaviside(int(sigma)))
        assert pairing(cyc, probe, FSCcContext(sc, 1)) == pairing(
            ghost, probe, FSCcContext(chi, 1)
        )


def test_ghost_centre_and_roots():
    rng = random.Random(45)
    for _ in range(200):
        cyc = rand_cycle(rng, k_nonzero=True)
        sigma = SpaceSign(rng.choice([-1, 0, 1]))
        sc = SpaceSign(rng.choice([-1, 0, 1]))
        ghost = ghost_cycle(cyc, sigma, sc)
        chi = SpaceSign(heaviside(int(sigma)))
        assert centre(ghost, chi) == centre(cyc, sc)
        assert (ghost.k, ghost.l, ghost.m) == (cyc.k, cyc.l, cyc.m)  # same roots


def test_reflect_real_line_in_unit_circle():
    assert projective_eq(reflect_cycle(UNIT_CIRCLE, REAL_LINE, CTX_E), REAL_LINE)


def test_reflect_real_line_in_raised_circle():
    image = reflect_cycle(CycleQuadruple(1, 0, 1, 0), REAL_LINE, CTX_E)
    assert projective_eq(image, CycleQuadruple(2, 0, 1, 0))


def test_reflect_vertical_diameter():
    image = reflect_cycle(UNIT_CIRCLE, CycleQuadruple(0, 1, 0, 0), CTX_E)
    assert projective_eq(image, CycleQuadruple(0, 1, 0, 0))


def test_reflection_is_involution():
    rng = random.Random(46)
    for _ in range(100):
        mirror = rand_cycle(rng)
        cyc = rand_cycle(rng)
        sc = SpaceSign(rng.choice([-1, 1]))
        ctx = FSCcContext(sc, rng.choice([1, -1]))
        if det_invariant(mirror, ctx) == 0:
            continue
        try:
            once = reflect_cycle(mirror, cyc, ctx)
            twice = reflect_cycle(mirror, once, ctx)
        except DegenerateReflection:
            continue
        assert projective_eq(twice, cyc)


def test_invert_point_examples():
    assert invert_point(UNIT_CIRCLE, (0, 2), CTX_E) == Point(0, Fraction(1, 2))
    assert invert_point(UNIT_CIRCLE, (1, 0), CTX_E) == Point(1, 0)
    assert invert_point(UNIT_CIRCLE, (0, 0), CTX_E) is INFINITY


def test_points_of_mirror_are_fixed_elliptically():
    rng = random.Random(47)
    for _ in range(50):
        mirror = rand_real_circle(rng)
        pts = roots(mirror)
        b = (Fraction(3, 5), Fraction(4, 5))
        # use a rational point of the unit circle moved onto the mirror
        from cyclekit import radius_sq

        r2 = radius_sq(mirror, CTX_E)
        c = centre(mirror, E)
        b_on = (c.u + b[0] * 1, c.v + b[1] * 1)
        # scale the direction so the point lies on the mirror when r2 is a square
        from cyclekit.numbers import sqrt_exact

        root = sqrt_exact(Fraction(r2))
        if root is None:
            continue
        b_on = (c.u + b[0] * root, c.v + b[1] * root)
        assert cycle_eval(mirror, Point(*b_on), E) == 0
        assert invert_point(mirror, b_on, CTX_E) == Point(*b_on)


def test_common_inverse_point_matches_pencil():
    cyc = CycleQuadruple(1, 0, 1, 0)
    b = (1, 2)
    assert common_inverse_point(cyc, b, E, E) == Point(Fraction(1, 2), Fraction(3, 2))
    assert common_inverse_point(cyc, b, E, P) == Point(0, 0)
    assert common_inverse_point(cyc, b, E, H) == Point(Fraction(1, 10), Fraction(-7, 10))


def test_s_orthogonality_focus_line_law():
    cyc = CycleQuadruple(1, 0, 1, 0)
    for num in range(-10, 11):
        slope = Fraction(num, 3)
        assert is_s_orthogonal(cyc, CycleQuadruple(0, slope, 1, -1), CTX_E)
        assert not is_s_orthogonal(cyc, CycleQuadruple(0, slope, 1, 1), CTX_E)


def test_s_orthogonality_examples():
    assert is_s_orthogonal(UNIT_CIRCLE, CycleQuadruple(0, 1, 0, 0), CTX_E)
    assert not is_s_orthogonal(UNIT_CIRCLE, REAL_LINE, CTX_E)


def test_s_orthogonality_not_symmetric():
    cyc = CycleQuadruple(1, 0, 1, 0)
    diameter = CycleQuadruple(0, 1, 0, 0)
    assert is_s_orthogonal(cyc, diameter, CTX_E)
    assert not is_s_orthogonal(diameter, cyc, CTX_E)


def test_s_orthogonality_parabolic_degenerates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert is_s_orthogonal(UNIT_CIRCLE, REAL_LINE, FSCcContext(P, 1))
    assert any(issubclass(w.category, DegenerateRelationWarning) for w in caught)


def test_s_ghost_example():
    ghost = s_ghost(CycleQuadruple(1, 0, 1, 0), E, E)
    assert projective_eq(ghost, CycleQuadruple(-2, 0, 1, 0))
    assert centre(ghost, E) == Point(0, Fraction(-1, 2))
    assert centre(ghost, E) == focus(CycleQuadruple(1, 0, 1, 0), E)
    with pytest.raises(DegenerateReflection):
        s_ghost(UNIT_CIRCLE, E, P)


def test_s_ghost_orthogonality_reduction():
    # line orthogonal to the s-ghost in the usual sense == s-orthogonal line
    ghost = s_ghost(CycleQuadruple(1, 0, 1, 0), E, E)
    for num in range(-5, 6):
        line = CycleQuadruple(0, Fraction(num, 2), 1, -1)
        assert pairing(ghost, line, CTX_E) == 0
        off = CycleQuadruple(0, Fraction(num, 2), 1, 2)
        assert pairing(ghost, off, CTX_E) != 0


def test_s_ghost_reduction_random():
    rng = random.Random(48)
    for _ in range(200):
        cyc = rand_cycle(rng, n_nonzero=True)
        probe = rand_cycle(rng)
        sc = SpaceSign(rng.choice([-1, 1]))
        ctx = FSCcContext(sc, 1)
        ghost = s_ghost(cyc, E, sc)
        assert is_s_orthogonal(cyc, probe, ctx) == is_orthogonal(ghost, probe, ctx)


def test_s_ghost_keeps_roots():
    rng = random.Random(49)
    for _ in range(200):
        cyc = rand_cycle(rng, k_nonzero=True, n_nonzero=True)
        sc = SpaceSign(rng.choice([-1, 1]))
        sigma = SpaceSign(rng.choice([-1, 0, 1]))
        ghost = s_ghost(cyc, sigma, sc)
        # (k, l, m) must be proportional, which pins the quadratic and its roots
        assert cyc.k * ghost.l == cyc.l * ghost.k
        assert cyc.k * ghost.m == cyc.m * ghost.k
        assert cyc.l * ghost.m == cyc.m * ghost.l
        try:
            expected = [float(r) for r in roots(cyc)]
        except Exception:
            continue
        got = [float(r) for r in roots(ghost)] if ghost.k != 0 or ghost.l != 0 else None
        if got is not None:
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert abs(a - b) < 1e-9


def test_s_ghost_centre_focus_on_tangent_class():
    # cycles touching the real axis (m*k = l^2), elliptic cycle space:
    # the chi(sigma)-centre of the s-ghost sits at the elliptic focus
    rng = random.Random(50)
    for _ in range(100):
        k = rand_fraction(rng, 1, 5)
        l = rand_fraction(rng, -5, 5)
        n = rand_fraction(rng, 1, 5)
        cyc = CycleQuadruple(k, l, n, l * l / k)
        for sigma in (E, P, H):
            ghost = s_ghost(cyc, sigma, E)
            chi = SpaceSign(heaviside(int(sigma)))
            assert centre(ghost, chi) == focus(cyc, E)


def test_orthogonal_and_s_orthogonal_are_moebius_invariant():
    rng = random.Random(51)
    for _ in range(100):
        c1 = rand_cycle(rng)
        c2 = rand_cycle(rng)
        g = rand_group_exact(rng)
        for sc in ALL_SIGNS:
            ctx = FSCcContext(sc, rng.choice([1, -1]))
            t1 = similarity_transform(c1, g, ctx)
            t2 = similarity_transform(c2, g, ctx)
            assert pairing(t1, t2, ctx) == pairing(c1, c2, ctx)
            if sc != P:
                assert is_s_orthogonal(c1, c2, ctx) == is_s_orthogonal(t1, t2, ctx)


def test_orthogonal_family_unit_circle():
    fam = orthogonal_family(UNIT_CIRCLE, (0, 2), CTX_E, 6)
    assert len(fam) == 6
    d = invert_point(UNIT_CIRCLE, (0, 2), CTX_E)
    for member in fam:
        assert pairing(member, UNIT_CIRCLE, CTX_E) == 0
        assert cycle_eval(member, Point(0, 2), E) == 0
        assert cycle_eval(member, d, E) == 0


def test_orthogonal_family_passes_ghost_inverse_all_signs():
    cyc = CycleQuadruple(1, 0, 1, 0)
    b = (1, 2)
    for sc in ALL_SIGNS:
        fam = orthogonal_family(cyc, b, FSCcContext(sc, 1), 5)
        assert len(fam) == 5
        d = common_inverse_point(cyc, b, E, sc)
        for member in fam:
            assert cycle_eval(member, d, E) == 0


def test_orthogonal_family_through_point_on_mirror():
    b = (Fraction(3, 5), Fraction(4, 5))
    fam = orthogonal_family(UNIT_CIRCLE, b, CTX_E, 5)
    assert invert_point(UNIT_CIRCLE, b, CTX_E) == Point(*b)
    for member in fam:
        assert cycle_eval(member, Point(*b), E) == 0


def test_orthogonal_family_distinct_classes():
    fam = orthogonal_family(UNIT_CIRCLE, (0, 2), CTX_E, 5)
    keys = {tuple(map(float, normalized_key(c))) for c in fam}
    assert len(keys) == 5


def test_exact_orthogonality_is_decided_from_the_numerator(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_orthogonal built the pairing's value")

    monkeypatch.setattr(relations, "from_numerators", refuse)
    half = Fraction(1, 2)
    assert is_orthogonal(UNIT_CIRCLE, zero_radius_cycle((1, 0), CTX_E), CTX_E)
    assert not is_orthogonal(CycleQuadruple(1, half, 0, -1), CycleQuadruple(1, 0, half, 0), CTX_E)
    assert is_orthogonal(CycleQuadruple(1.0, 0.0, 0.0, -1.0), CycleQuadruple(1.0, 1.0, 0.0, 1.0), CTX_E)


@pytest.mark.parametrize("count", [0, -3])
def test_orthogonal_family_rejects_a_count_below_one(count):
    with pytest.raises(ValueError):
        orthogonal_family(UNIT_CIRCLE, (0, 2), CTX_E, count)


# ---------------------------------------------------------------------------
# The replaced sampler, kept as the reference: its own rows, a parameter
# grid with repeated classes, and a dedupe by exact keys.  A float or mixed
# call is solved on the Fraction values of its scalars, and the pencil is
# rounded once before the ratios are applied, as the library does.


def ref_orthogonal_family(cycle, through, ctx, count, sigma):
    exact = is_exact(*through, *cycle.components())
    if not exact:
        through = tuple(Fraction(x) for x in through)
        cycle = CycleQuadruple(*(Fraction(x) for x in cycle.components()))
    u, v = through
    sig_p = int(sigma)
    sig_c = int(ctx.sigma_cycle)
    rows = [
        [-cycle.m, 2 * cycle.l, -2 * sig_c * ctx.s * ctx.s * cycle.n, -cycle.k],
        [u * u - sig_p * v * v, -2 * u, -2 * v, 1],
    ]
    solved = ref_gauss_solve(rows, [0, 0], True)
    if solved is None:
        raise Inconsistent("no common cycle")
    _, basis = solved
    if len(basis) != 2:
        raise Inconsistent("not a projective line")
    b0, b1 = basis if exact else [round_once(vec) for vec in basis]
    family, seen = [], set()
    grid = [(1, 0), (0, 1)]
    step = 1
    while len(grid) < 4 * count + 8:
        grid.extend([(1, step), (1, -step), (step, 1), (-step, 1)])
        step += 1
    for alpha, beta in grid:
        values = [alpha * x + beta * y for x, y in zip(b0, b1)]
        if all(val == 0 for val in values):
            continue
        candidate = CycleQuadruple(*values)
        # classes keyed exactly, over the Fractions of float components
        key = normalized_key(CycleQuadruple(*(Fraction(x) for x in values)))
        if key in seen:
            continue
        seen.add(key)
        family.append(candidate)
        if len(family) == count:
            break
    if len(family) < count:
        raise Inconsistent("too few classes")
    return family


EXACT_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
FLOAT_SCALARS = st.one_of(EXACT_SCALARS.map(float), st.floats(-4, 4, allow_nan=False))


@st.composite
def family_calls(draw):
    """(cycle, through, ctx, count, sigma), all exact, all float or mixed."""
    scalar = draw(
        st.sampled_from(
            [EXACT_SCALARS, FLOAT_SCALARS, st.one_of(EXACT_SCALARS, FLOAT_SCALARS)]
        )
    )
    comps = draw(st.tuples(scalar, scalar, scalar, scalar).filter(any))
    through = draw(st.tuples(scalar, scalar))
    ctx = FSCcContext(draw(st.sampled_from(ALL_SIGNS)), draw(st.sampled_from([1, -1])))
    return CycleQuadruple(*comps), through, ctx, draw(st.integers(1, 12)), draw(
        st.sampled_from(ALL_SIGNS)
    )


def family_outcome(sampler, call):
    try:
        return [
            [(type(x), x) for x in member.components()] for member in sampler(*call)
        ]
    except Exception as exc:  # the class is what is compared
        return type(exc)


@at_least(300)
@given(family_calls())
def test_orthogonal_family_matches_the_replaced_sampler(call):
    assert family_outcome(orthogonal_family, call) == family_outcome(ref_orthogonal_family, call)


# ---------------------------------------------------------------------------
# The Fraction formulas that the integer-numerator evaluation replaced, kept
# as the reference: every output must match in value and in type, floats
# bit for bit, and every error and warning must be the same.


def ref_pairing(c1, c2, ctx):
    sig = int(ctx.sigma_cycle)
    s2 = ctx.s * ctx.s
    return 2 * c1.l * c2.l - 2 * sig * s2 * c1.n * c2.n - c1.m * c2.k - c1.k * c2.m


def ref_is_orthogonal(c1, c2, ctx):
    return vanishes(ref_pairing(c1, c2, ctx), c1.components(), c2.components())


def ref_sandwich(mirror, cycle, sigma_cycle, s):
    k1, l1, n1, m1 = mirror.components()
    k2, l2, n2, m2 = cycle.components()
    sig_s2 = int(sigma_cycle) * s * s
    trace = 2 * l1 * l2 - m1 * k2 - k1 * m2
    square = l1 * l1 - m1 * k1
    shared = 2 * l1 * l2 + 2 * sig_s2 * n1 * n2
    rest = sig_s2 * n1 * n1 - l1 * l1
    return (
        k1 * (shared - k1 * m2) + k2 * rest,
        (trace + 2 * sig_s2 * n1 * n2) * l1 + (sig_s2 * n1 * n1 - square) * l2,
        n1 * trace + n2 * square + sig_s2 * n1 * n1 * n2,
        m1 * (shared - m1 * k2) + m2 * rest,
    )


def ref_reflect_cycle(mirror, cycle, ctx, conjugate_argument=True):
    inner = cycle
    if conjugate_argument:
        inner = CycleQuadruple(cycle.k, cycle.l, -cycle.n, cycle.m)
    k, l, x, m = ref_sandwich(mirror, inner, ctx.sigma_cycle, ctx.s)
    if k == 0 and l == 0 and m == 0 and x == 0:
        raise DegenerateReflection("reflection collapsed to the zero quadruple")
    return CycleQuadruple(k, l, div(ctx.s * x, ctx.s), m)


def ref_invert_point(cycle, b, ctx):
    reflected = ref_reflect_cycle(cycle, zero_radius_cycle(b, ctx), ctx)
    if reflected.k == 0:
        return INFINITY
    return centre(reflected, ctx.sigma_cycle)


def ref_is_s_orthogonal(cycle, other, ctx):
    if ctx.sigma_cycle == P:
        warnings.warn("s-orthogonality degenerates", DegenerateRelationWarning, stacklevel=2)
        return True
    imag = ref_sandwich(cycle, other, ctx.sigma_cycle, ctx.s)[2]
    trace = 2 * int(ctx.sigma_cycle) * ctx.s * ctx.s * imag
    comps = cycle.components()
    return vanishes(trace, comps, comps, other.components())


def ref_s_ghost(cycle, sigma, sigma_cycle):
    if sigma_cycle == P:
        raise DegenerateReflection("s-ghost collapses to the real line")
    s = heaviside(int(sigma))
    k, l, x, m = ref_sandwich(cycle, REAL_LINE, sigma_cycle, s)
    if k == 0 and l == 0 and m == 0 and x == 0:
        raise DegenerateReflection("s-ghost collapsed to the zero quadruple")
    return CycleQuadruple(k, l, div(s * x, 1), m)


# (library function, reference) -> the arguments taken from one case
RELATION_CALLS = {
    "pairing": (pairing, ref_pairing, lambda c: (c["c1"], c["c2"], c["ctx"])),
    "is_orthogonal": (is_orthogonal, ref_is_orthogonal, lambda c: (c["c1"], c["c2"], c["ctx"])),
    "reflect_cycle": (reflect_cycle, ref_reflect_cycle, lambda c: (c["c1"], c["c2"], c["ctx"])),
    "reflect_cycle_raw": (
        reflect_cycle, ref_reflect_cycle, lambda c: (c["c1"], c["c2"], c["ctx"], False)
    ),
    "s_ghost": (s_ghost, ref_s_ghost, lambda c: (c["c1"], c["sigma"], c["ctx"].sigma_cycle)),
    "is_s_orthogonal": (
        is_s_orthogonal, ref_is_s_orthogonal, lambda c: (c["c1"], c["c2"], c["ctx"])
    ),
    "invert_point": (invert_point, ref_invert_point, lambda c: (c["c1"], c["point"], c["ctx"])),
}

INTS = st.integers(-6, 6)
FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=8)
EXACT_MIX = st.one_of(INTS, FRACTIONS, st.booleans())
FLOATS = st.one_of(FRACTIONS.map(float), st.floats(-6, 6, allow_nan=False))
# one scalar strategy per quadruple, so that one quadruple may be float and the other exact
MODES = [INTS, FRACTIONS, st.booleans(), EXACT_MIX, FLOATS, st.one_of(EXACT_MIX, FLOATS)]


@st.composite
def relation_cases(draw):
    def quadruple():
        scalar = draw(st.sampled_from(MODES))
        return CycleQuadruple(*draw(st.tuples(scalar, scalar, scalar, scalar).filter(any)))

    point_scalar = draw(st.sampled_from(MODES))
    return {
        "c1": quadruple(),
        "c2": quadruple(),
        "ctx": FSCcContext(draw(st.sampled_from(ALL_SIGNS)), draw(st.sampled_from([1, -1]))),
        "sigma": draw(st.sampled_from(ALL_SIGNS)),
        "point": (draw(point_scalar), draw(point_scalar)),
    }


def case(c1, c2, sigma_cycle, s=1, sigma=E, point=(1, 2)):
    return {
        "c1": CycleQuadruple(*c1),
        "c2": CycleQuadruple(*c2),
        "ctx": FSCcContext(sigma_cycle, s),
        "sigma": sigma,
        "point": point,
    }


def typed(value):
    """The value with the type of every scalar in it; floats by their bits."""
    if isinstance(value, CycleQuadruple):
        return typed(value.components())
    if isinstance(value, GroupElement):
        return typed(value.entries())
    if isinstance(value, Point):
        return typed((value.u, value.v))
    if isinstance(value, (tuple, list)):
        return tuple(typed(x) for x in value)
    if isinstance(value, float):
        return (float, value.hex())
    return (type(value), value)


def relation_outcome(func, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = typed(func(*args))
        except Exception as exc:  # the class is what is compared
            result = type(exc)
    return result, [w.category for w in caught]


ONLY_M1_FRACTION = case((1, 2, 3, Fraction(1, 2)), (1, 0, 1, -1), E)
ONLY_K1_FRACTION = case((Fraction(1, 2), 2, 3, 1), (1, 0, 1, -1), H, s=-1)


@pytest.mark.parametrize("name", sorted(RELATION_CALLS))
@settings(max_examples=150)
@given(relation_cases())
@example(ONLY_M1_FRACTION)
@example(ONLY_K1_FRACTION)
# the real line mirrors every cycle to the zero quadruple in the parabolic cycle space
@example(case((0, 0, Fraction(1, 2), 0), (1, Fraction(1, 3), 2, -1), P))
@example(case((1, Fraction(1, 3), 0, -2), (Fraction(2, 5), 1, 1, 0), P, s=-1))
# the mode is decided over both quadruples: one float quadruple takes the exact one along
@example(case((Fraction(1, 3), 1, 0, 2), (1.0, 0.5, 0.0, -1.0), H, point=(Fraction(1, 3), 0.5)))
@example(case((True, False, True, 1), (0, True, 0, -2), E, point=(True, 2)))
def test_relations_match_the_fraction_formulas(name, c):
    func, ref, args = RELATION_CALLS[name]
    assert relation_outcome(func, args(c)) == relation_outcome(ref, args(c))


def test_an_operand_left_out_of_an_output_leaves_it_an_int():
    # k of the sandwich does not read m1, m does not read k1
    reflected = reflect_cycle(ONLY_M1_FRACTION["c1"], ONLY_M1_FRACTION["c2"], CTX_E)
    assert type(reflected.k) is int and type(reflected.l) is Fraction
    ctx = ONLY_K1_FRACTION["ctx"]
    reflected = reflect_cycle(ONLY_K1_FRACTION["c1"], ONLY_K1_FRACTION["c2"], ctx)
    assert type(reflected.m) is int and type(reflected.k) is Fraction


# The group layer's formulas as they were written over the scalars themselves,
# before compose, similarity_transform, the exact rotations and exact orbit_uv
# were evaluated over integer numerators.
def ref_similarity_transform(cycle, g):
    a, b, c, d = g.entries()
    k, l, n, m = cycle.components()
    zero = 0 * n
    return CycleQuadruple(
        zero + d * d * k + 2 * c * d * l + c * c * m,
        zero + (a * d + b * c) * l + b * d * k + a * c * m,
        div(n, 1),
        zero + b * b * k + 2 * a * b * l + a * a * m,
    )


def ref_compose(g1, g2):
    return GroupElement(
        g1.a * g2.a + g1.b * g2.c,
        g1.a * g2.b + g1.b * g2.d,
        g1.c * g2.a + g1.d * g2.c,
        g1.c * g2.b + g1.d * g2.d,
    )


def ref_rotation(t):
    denom = 1 + t * t
    cos = div(1 - t * t, denom)
    sin = div(2 * t, denom)
    return GroupElement(cos, sin, -sin, cos)


def ref_orbit_uv(elements, z, sigma):
    images = [per_point_apply(g, z, sigma) for g in elements]
    return [None if image is INFINITY else (image.u, image.v) for image in images]


# a * d - b * c = 1 for d = (1 + b * c) / a; the scale then makes GroupElement normalise
PIVOTS = st.one_of(
    st.sampled_from([1, -1, True, Fraction(1), Fraction(-1), 1.0, -1.0]),
    FRACTIONS.filter(lambda x: abs(x) >= Fraction(1, 8)),
    FRACTIONS.filter(lambda x: abs(x) >= Fraction(1, 8)).map(float),
)
SCALES = st.sampled_from([1, 1, 1, 2, Fraction(2, 3), 3.0])


@st.composite
def group_elements(draw):
    scalar = draw(st.sampled_from(MODES))
    a, b, c, scale = draw(PIVOTS), draw(scalar), draw(scalar), draw(SCALES)
    d = (1 + b * c) * a if a in (1, -1) else div(1 + b * c, a)
    if scale == 1:
        return GroupElement(a, b, c, d)
    return GroupElement(*(scale * x for x in (a, b, c, d)))


ROTATION_PARAMETERS = st.one_of(*MODES)
ELEMENTS = group_elements() | ROTATION_PARAMETERS.map(lambda t: subgroup_element("K", t))


@st.composite
def orbit_cases(draw):
    """Elements, a point and a sign; the point sits on the first element's pole set at times."""
    elements = draw(st.lists(ELEMENTS, max_size=4))
    sigma = draw(st.sampled_from(ALL_SIGNS))
    scalar = draw(st.sampled_from(MODES))
    u, v = draw(scalar), draw(scalar)
    if elements and elements[0].c != 0 and draw(st.booleans()):
        # c u + d = twist c v with twist^2 = sigma makes the modulus (twist^2 - sigma) (c v)^2 vanish
        g = elements[0]
        twist = {E: 0, P: 0, H: draw(st.sampled_from([1, -1]))}[sigma]
        v = v * 0 if sigma == E else v
        u = div(twist * g.c * v - g.d, g.c)
    return elements, Point(u, v), sigma


@st.composite
def quadruples(draw):
    scalar = draw(st.sampled_from(MODES))
    return CycleQuadruple(*draw(st.tuples(scalar, scalar, scalar, scalar).filter(any)))


# (library function, reference, arguments)
GROUP_CALLS = {
    "similarity_transform": (
        similarity_transform, ref_similarity_transform, st.tuples(quadruples(), group_elements())
    ),
    "compose": (compose, ref_compose, st.tuples(group_elements(), group_elements())),
    "rotation": (lambda t: subgroup_element("K", t), ref_rotation, st.tuples(ROTATION_PARAMETERS)),
    "orbit_uv": (orbit_uv, ref_orbit_uv, orbit_cases()),
}

HALF = Fraction(1, 2)
# one Fraction entry each, read by some outputs and not by others
ONLY_B_FRACTION = GroupElement(1, HALF, 0, 1)
ONLY_C_FRACTION = GroupElement(1, 0, HALF, 1)
SHEAR = GroupElement(1, 0, 2, 1)
INTEGER_CYCLE = CycleQuadruple(1, 2, 3, -1)
POLE_SET = GroupElement(2, 3, 1, 2)  # c u + d = 0 at u = -2, and = v at (-1, 1)

GROUP_EXAMPLES = [
    ("similarity_transform", (INTEGER_CYCLE, ONLY_B_FRACTION)),
    ("similarity_transform", (INTEGER_CYCLE, ONLY_C_FRACTION)),
    ("compose", (ONLY_B_FRACTION, SHEAR)),
    ("compose", (SHEAR, ONLY_B_FRACTION)),
    ("compose", (ONLY_C_FRACTION, SHEAR)),
    # zero entries, a Fraction with denominator 1, a normalised element
    ("similarity_transform", (CycleQuadruple(0, 0, 1, 0), GroupElement(0, -1, 1, 0))),
    ("compose", (GroupElement(0, -1, 1, 0), GroupElement(Fraction(1), 0, 0, 1))),
    ("compose", (GroupElement(2, 1, 0, Fraction(9, 2)), ONLY_B_FRACTION)),
    # signed zeros in float mode, and exact operands beside float ones
    ("similarity_transform", (CycleQuadruple(-0.0, 0.0, -1.0, 0.0), GroupElement(1.0, -0.0, 0.0, 1.0))),
    ("similarity_transform", (CycleQuadruple(1, HALF, 0, 2), GroupElement(1.0, 0.5, 0.0, 1.0))),
    ("compose", (GroupElement(1.0, -0.0, 0.0, 1.0), ONLY_B_FRACTION)),
    *[("rotation", (t,)) for t in (0, True, Fraction(2), Fraction(-3, 4), -0.0, 0.5)],
    # pole points in each plane: the modulus vanishes
    ("orbit_uv", ([POLE_SET], Point(-2, 0), E)),
    ("orbit_uv", ([POLE_SET, ONLY_B_FRACTION], Point(-2, HALF), P)),
    ("orbit_uv", ([POLE_SET], Point(-1, 1), H)),
    ("orbit_uv", ([POLE_SET], Point(-1.0, 1.0), H)),
    # a negative modulus in the hyperbolic plane: 2^2 - 3^2
    ("orbit_uv", ([POLE_SET], Point(0, 3), H)),
    # one float element among exact ones leaves the exact ones Fractions
    ("orbit_uv", ([ONLY_B_FRACTION, GroupElement(1.0, 0.0, 0.0, 1.0)], Point(1, 2), H)),
    ("orbit_uv", ([ONLY_B_FRACTION], Point(0.5, -0.0), E)),
    ("orbit_uv", ([], Point(1, 2), E)),
]


def assert_group_call_matches(name, args):
    func, ref, _ = GROUP_CALLS[name]
    assert relation_outcome(func, args) == relation_outcome(ref, args)


@pytest.mark.parametrize("name", sorted(GROUP_CALLS))
@settings(max_examples=150)
@given(data=st.data())
def test_group_layer_matches_the_fraction_formulas(name, data):
    assert_group_call_matches(name, data.draw(GROUP_CALLS[name][2]))


@pytest.mark.parametrize("name, args", GROUP_EXAMPLES)
def test_group_layer_matches_the_fraction_formulas_on_edge_cases(name, args):
    assert_group_call_matches(name, args)


def test_an_operand_left_out_of_a_group_output_leaves_it_an_int():
    # k of the similarity action reads only c and d of g, m only a and b
    moved = similarity_transform(INTEGER_CYCLE, ONLY_B_FRACTION)
    assert [type(x) for x in moved.components()] == [int, Fraction, Fraction, Fraction]
    moved = similarity_transform(INTEGER_CYCLE, ONLY_C_FRACTION)
    assert [type(x) for x in moved.components()] == [Fraction, Fraction, Fraction, int]
    # each entry of g1 g2 reads one row of g1 and one column of g2
    assert [type(x) for x in compose(ONLY_B_FRACTION, SHEAR).entries()] == [Fraction, Fraction, int, int]
    assert [type(x) for x in compose(SHEAR, ONLY_B_FRACTION).entries()] == [int, Fraction, int, Fraction]
