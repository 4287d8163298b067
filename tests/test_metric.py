import math
import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ALL_SIGNS, rand_fraction, rand_group_float
from cyclekit import (
    BranchInstability,
    CycleKitError,
    CycleQuadruple,
    DegenerateFocalPoint,
    DirectedInterval,
    Distance,
    ExperimentalRegimeWarning,
    FromCentre,
    FromFocus,
    FSCcContext,
    GroupElement,
    HNumber,
    Inconsistent,
    Normalised,
    PassesThrough,
    conformality_ratios,
    distance_sq,
    h_conj_modsq,
    is_perpendicular,
    length,
    radius_sq,
    variational_distance_oracle,
)
from cyclekit.cli import cli_main
from cyclekit.cycle import pencil

E, P, H = ALL_SIGNS


def test_distance_examples():
    assert distance_sq((0, 0), (3, 4), E) == 25
    assert distance_sq((0, 0), (3, 4), P) == 9
    assert distance_sq((0, 0), (3, 4), H) == -7
    for sigma in ALL_SIGNS:
        assert distance_sq((2, 5), (2, 5), sigma) == 0


def test_distance_matches_hypercomplex_modulus():
    rng = random.Random(60)
    for _ in range(200):
        a = (rand_fraction(rng), rand_fraction(rng))
        b = (rand_fraction(rng), rand_fraction(rng))
        for sigma in ALL_SIGNS:
            diff = HNumber(b[0] - a[0], b[1] - a[1], sigma)
            assert distance_sq(a, b, sigma) == h_conj_modsq(diff)[1]


def test_distance_symmetric_translation_invariant():
    rng = random.Random(61)
    for _ in range(100):
        a = (rand_fraction(rng), rand_fraction(rng))
        b = (rand_fraction(rng), rand_fraction(rng))
        t = (rand_fraction(rng), rand_fraction(rng))
        for sigma in ALL_SIGNS:
            assert distance_sq(a, b, sigma) == distance_sq(b, a, sigma)
            shifted = distance_sq((a[0] + t[0], a[1] + t[1]), (b[0] + t[0], b[1] + t[1]), sigma)
            assert shifted == distance_sq(a, b, sigma)


def test_variational_oracle_examples():
    assert abs(variational_distance_oracle((0, 0), (3, 4), E, E) - 25.0) < 1e-6 * 25
    assert abs(variational_distance_oracle((0, 0), (2, 0), E, E) - 4.0) < 1e-6 * 4
    assert abs(variational_distance_oracle((0, 0), (0, 2), E, E) - 4.0) < 1e-6 * 4


def test_variational_oracle_warns_off_regime():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        variational_distance_oracle((0, 0), (3, 4), P, E)
    assert any(issubclass(w.category, ExperimentalRegimeWarning) for w in caught)


def test_length_from_centre_equals_distance():
    interval = DirectedInterval((0, 0), (3, 4))
    assert length(interval, FromCentre(E, E)) == [25]
    rng = random.Random(62)
    for _ in range(100):
        a = (rand_fraction(rng), rand_fraction(rng))
        b = (rand_fraction(rng), rand_fraction(rng))
        if a == b:
            continue
        iv = DirectedInterval(a, b)
        for sigma in (E, H):
            values = length(iv, FromCentre(sigma, sigma))
            assert values == [distance_sq(a, b, sigma)]


def test_length_from_focus_example():
    interval = DirectedInterval((0, 1), (0, Fraction(1, 2)))
    assert length(interval, FromFocus(E, E)) == [1]


def test_length_from_focus_two_branches():
    interval = DirectedInterval((0, Fraction(-1, 2)), (1, 1))
    values = length(interval, FromFocus(E, E))
    assert values == [1, 2]


def test_length_from_focus_inconsistent():
    with pytest.raises(Inconsistent):
        length(DirectedInterval((0, 1), (0, 2)), FromFocus(E, E))


def test_length_focal_boundary_effect():
    with pytest.raises(DegenerateFocalPoint):
        length(DirectedInterval((1, 0), (2, 3)), FromFocus(E, E))


def test_reversed_interval_swaps_the_endpoints():
    interval = DirectedInterval((0, 1), (Fraction(1, 2), 3))
    assert interval.reversed() == DirectedInterval((Fraction(1, 2), 3), (0, 1))
    assert interval.reversed().reversed() == interval


def test_length_non_symmetric_from_focus():
    a, b = (0, -1), (0, Fraction(1, 2))
    forward = [float(x) for x in length(DirectedInterval(a, b), FromFocus(E, E))]
    backward = [float(x) for x in length(DirectedInterval(b, a), FromFocus(E, E))]
    assert len(forward) == len(backward) == 2
    assert abs(forward[0] - backward[0]) > 1e-3 or abs(forward[1] - backward[1]) > 1e-3


def test_perpendicular_euclidean_dot_product():
    assert is_perpendicular(DirectedInterval((0, 0), (1, 0)), (0, 1), Distance(E))
    assert not is_perpendicular(DirectedInterval((0, 0), (1, 0)), (1, 1), Distance(E))
    rng = random.Random(63)
    for _ in range(50):
        ab = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(ab[0]) + abs(ab[1]) < 0.1:
            continue
        perp = (-ab[1], ab[0])
        skew = (ab[0] + 0.3, ab[1] - 0.7)
        iv = DirectedInterval((0.5, -0.25), (0.5 + ab[0], -0.25 + ab[1]))
        assert is_perpendicular(iv, perp, Distance(E))
        dot = ab[0] * skew[0] + ab[1] * skew[1]
        assert is_perpendicular(iv, skew, Distance(E)) == (abs(dot) < 1e-9)


def test_perpendicular_parabolic_rule():
    # d_p^2 = u^2: perpendicular iff the probe has zero u-component
    iv = DirectedInterval((0, 0), (2, 1))
    assert is_perpendicular(iv, (0, 5), Distance(P))
    assert not is_perpendicular(iv, (1, 1), Distance(P))


RATIONAL = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
NONZERO = RATIONAL.filter(bool)
POINT = st.tuples(RATIONAL, RATIONAL)
DIRECTION = POINT.filter(any)
SIGNS = st.sampled_from(ALL_SIGNS)


def _moved(b, d, t):
    return (b[0] + t * d[0], b[1] + t * d[1])


@settings(max_examples=300)
@given(SIGNS, st.sampled_from((E, H)), st.booleans(), POINT, POINT, DIRECTION, NONZERO, st.booleans())
def test_distance_and_centre_verdict_is_the_exact_derivative(
    sigma, sigma_cycle, from_centre, a, b, d, r, perpendicular
):
    kind = FromCentre(sigma, sigma_cycle) if from_centre else Distance(sigma)

    def slope(direction):
        # the length is quadratic in B, so this symmetric difference is its exact derivative
        plus = length(DirectedInterval(a, _moved(b, direction, 1)), kind)[0]
        minus = length(DirectedInterval(a, _moved(b, direction, -1)), kind)[0]
        return (plus - minus) / 2

    if perpendicular:
        gu, gv = slope((1, 0)), slope((0, 1))
        if gu or gv:
            d = (-gv * r, gu * r)
    assert is_perpendicular(DirectedInterval(a, b), d, kind) == (slope(d) == 0)


def _focus_slope(a, b, d, sigma, sigma_cycle, n0) -> Decimal:
    """Difference quotient, at 50 digits, of the first focus length along d.

    At B +- eps*d the root nearest n0 of the focus quadratic
    sigma_cycle n^2 + 2 (B_v - A_v) n + sigma B_v^2 - (B_u - A_u)^2 = 0
    fixes the cycle (1, A_u, n, m) through the moved point, and the
    length is its squared radius -det.
    """
    with localcontext() as ctx:
        ctx.prec = 50

        def dec(x):
            x = Fraction(x)
            return Decimal(x.numerator) / Decimal(x.denominator)

        s, sc = int(sigma), int(sigma_cycle)
        au, av = dec(a[0]), dec(a[1])
        near = Decimal(n0) if isinstance(n0, float) else dec(n0)

        def length_at(t):
            bu, bv = dec(b[0]) + t * dec(d[0]), dec(b[1]) + t * dec(d[1])
            qa, qb, qc = Decimal(sc), 2 * (bv - av), s * bv * bv - (bu - au) ** 2
            if sc == 0:
                n = -qc / qb
            else:
                root = (qb * qb - 4 * qa * qc).sqrt()
                n = min(((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)), key=lambda x: abs(x - near))
            m = -(bu * bu - s * bv * bv) + 2 * bu * au + 2 * bv * n
            return -(sc * n * n - au * au + m)

        eps = Decimal("1e-20")
        return (length_at(eps) - length_at(-eps)) / (2 * eps)


@settings(max_examples=300)
@given(SIGNS, SIGNS, st.booleans(), POINT, POINT, RATIONAL, NONZERO, DIRECTION, NONZERO, st.booleans())
def test_focus_verdict_is_the_decimal_derivative(
    sigma, sigma_cycle, rational_root, a, b, l, n, d, r, perpendicular
):
    s, sc = int(sigma), int(sigma_cycle)
    if rational_root:
        # the cycle (1, l, n, m) through b, asked back from its focus, has the root n
        m = -(b[0] ** 2 - s * b[1] ** 2) + 2 * l * b[0] + 2 * n * b[1]
        det = sc * n * n - l * l + m
        assume(det != 0)
        a = (l, det / (2 * n))
    kind = FromFocus(sigma, sigma_cycle)
    interval = DirectedInterval(a, b)
    try:
        first = length(interval, kind)[0]
    except CycleKitError:
        with pytest.raises(CycleKitError):
            is_perpendicular(interval, d, kind)
        return
    du = b[0] - a[0]
    half_b, c = b[1] - a[1], s * b[1] ** 2 - du * du
    if sc and half_b * half_b - sc * c == 0:  # a double root: two branches meet at b
        with pytest.raises(BranchInstability):
            is_perpendicular(interval, d, kind)
        return
    n0 = first / (-2 * a[1])
    if perpendicular and not isinstance(n0, float) and (n0 + s * b[1] or du):
        # (F_bv, -F_bu) of the focus quadratic F keeps its root to first order
        d = (2 * (n0 + s * b[1]) * r, 2 * du * r)
    exact_zero = abs(_focus_slope(a, b, d, sigma, sigma_cycle, n0)) < Decimal("1e-15")
    assert is_perpendicular(interval, d, kind) == exact_zero


def test_perp_cli_decides_exact_input_exactly(capsys):
    # length 9/4 with gradient (-11, -20): the derivative (-11)(20) + (-20)(-11) is 0
    argv = ["perp", "--kind", "centre", "--sigma", "e", "--sigma-cycle", "h",
            "--a=3,-8", "--b=-5/2,-2", "--dir=20,-11", "--exact"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == '{"perpendicular": true}\n'


def test_perpendicular_from_focus_pinned():
    # lengths [88, 168]; the first branch's gradient (-104/5, 72/5) is orthogonal to (9, 13)
    interval = DirectedInterval((Fraction(-11, 2), 4), (Fraction(15, 2), 20))
    kind = FromFocus(H, H)
    assert is_perpendicular(interval, (9, 13), kind)
    assert is_perpendicular(interval, (9, 13), kind, h=1.0, tol=0.0)
    assert not is_perpendicular(interval, (13, -9), kind)
    # a slope of -104/5 * 10^-12: zero to any float tolerance, but not exactly
    assert not is_perpendicular(interval, (9 + Fraction(1, 10**12), 13), kind)


def test_perpendicular_raises_where_focus_branches_meet():
    # -n^2 - n - 1/4 = 0 has the double root n = -1/2 at b: the length is 1, with no derivative
    interval = DirectedInterval((0, 1), (0, Fraction(1, 2)))
    assert length(interval, FromFocus(E, E)) == [1]
    with pytest.raises(BranchInstability):
        is_perpendicular(interval, (1, 0), FromFocus(E, E))


def test_conformality_identity_and_dilation():
    from cyclekit import subgroup_element

    y = (0.3, 1.2)
    dirs = [(1.0, 0.2), (0.5, -1.0), (1.0, 1.0), (-0.7, 0.3), (0.2, 0.9)]
    ratios = conformality_ratios(GroupElement.identity(exact=False), y, dirs, 1e-4, Distance(E))
    assert all(abs(r - 1.0) < 1e-9 for r in ratios)
    alpha = 1.7
    ratios = conformality_ratios(subgroup_element("A", alpha), y, dirs, 1e-4, Distance(E))
    assert all(abs(r - alpha * alpha) < 1e-6 for r in ratios)


def test_conformality_spread_small():
    from conftest import conformal_safe

    rng = random.Random(64)
    checked = 0
    while checked < 10:
        g = rand_group_float(rng)
        y = (rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        if not all(conformal_safe(g, y, s) for s in (E, P)):
            continue
        dirs = []
        while len(dirs) < 5:
            cand = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(cand[0]) > 0.2:  # stay clear of parabolic null directions
                dirs.append(cand)
        for kind in (Distance(E), Distance(P), FromCentre(E, E)):
            ratios = conformality_ratios(g, y, dirs, 1e-4, kind)
            spread = (max(ratios) - min(ratios)) / max(ratios)
            assert spread < 1e-3
        checked += 1


def test_variational_oracle_is_silent_only_where_it_is_the_distance():
    for sigma in ALL_SIGNS:
        for sigma_cycle in ALL_SIGNS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                variational_distance_oracle((0, 0), (3, 4), sigma, sigma_cycle)
            warned = any(issubclass(w.category, ExperimentalRegimeWarning) for w in caught)
            assert warned == (int(sigma) * int(sigma_cycle) != 1)


def test_variational_oracle_keeps_the_scalar_mode():
    assert variational_distance_oracle((0, 0), (3, 4), E, E) == 25
    assert type(variational_distance_oracle((0, 0), (3, 4), E, E)) is Fraction
    assert type(variational_distance_oracle((0, Fraction(1, 2)), (3, 4), H, H)) is Fraction
    assert type(variational_distance_oracle((0.0, 0.0), (3.0, 4.0), E, E)) is float


def test_variational_oracle_far_from_the_origin():
    assert variational_distance_oracle((1e8, 1e8), (1e8 + 1, 1e8), E, E) == 1.0


@pytest.mark.parametrize("point", [(0, 0), (Fraction(1, 3), -2), (0.5, -1.5)])
def test_variational_oracle_needs_two_points(point):
    with pytest.raises(Inconsistent, match="point pair does not define a one-parameter pencil"):
        variational_distance_oracle(point, point, E, E)


def test_variational_oracle_constant_and_linear_diameters():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentalRegimeWarning)
        # every cycle through two real-axis points has the same parabolic diameter
        assert variational_distance_oracle((0, 0), (1, 0), P, P) == 1
        # off the axis the diameter is linear along the pencil and has no extremum
        with pytest.raises(Inconsistent):
            variational_distance_oracle((0, 1), (1, 1), P, P)
        with pytest.raises(Inconsistent):
            variational_distance_oracle((0, 1), (1, 2), E, H)


@given(POINT, POINT)
def test_variational_oracle_is_the_distance_in_the_elliptic_regime(a, b):
    assume(a != b)
    assert variational_distance_oracle(a, b, E, E) == distance_sq(a, b, E)


@given(POINT, POINT, NONZERO, st.booleans())
def test_variational_oracle_is_the_distance_in_the_hyperbolic_regime(a, b, d, on_cone):
    # off the light cone at the stationary point; on it (Du^2 = Dv^2) every
    # cycle through both points has squared diameter 0, which is distance_sq
    if on_cone:
        b = (a[0] + d, a[1] - d)
    assume(a != b)
    assert variational_distance_oracle(a, b, H, H) == distance_sq(a, b, H)


def _pencil_extremum(a, b, sigma, sigma_cycle):
    """The stationary squared diameter of the exact pencil through a and b, or None.

    ``cycle.pencil`` gives the cycles base + t dir through both points in the
    chart k = 1, and the squared diameter 4 radius_sq along them is a
    quadratic in t, read off from its values at t = -1, 0 and 1.
    """
    base, (direction,), _ = pencil([PassesThrough(a, sigma), PassesThrough(b, sigma), Normalised()])
    ctx = FSCcContext(sigma_cycle, 1)

    def diameter_sq(t):
        return 4 * radius_sq(CycleQuadruple(*(x + t * y for x, y in zip(base, direction))), ctx)

    before, at, after = diameter_sq(-1), diameter_sq(0), diameter_sq(1)
    curvature, slope = (before + after - 2 * at) / 2, (after - before) / 2
    if curvature == 0:
        return at if slope == 0 else None
    return at - slope * slope / (4 * curvature)


@given(SIGNS, SIGNS, POINT, POINT, NONZERO, st.sampled_from(("free", "level", "cone", "mirror")))
def test_variational_oracle_is_the_stationary_diameter_of_the_pencil(
    sigma, sigma_cycle, a, b, d, shape
):
    # the shapes reach Q = 0 (level pairs for a parabolic, cone pairs for a hyperbolic
    # cycle sign) and pairs symmetric about the real axis, where the extra term vanishes
    if shape == "level":
        b = (b[0], a[1])
    elif shape == "cone":
        b = (a[0] + d, a[1] + d)
    elif shape == "mirror":
        b = (b[0], -a[1])
    assume(a != b)
    expected = _pencil_extremum(a, b, sigma, sigma_cycle)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentalRegimeWarning)
        if expected is None:
            with pytest.raises(Inconsistent):
                variational_distance_oracle(a, b, sigma, sigma_cycle)
        else:
            assert variational_distance_oracle(a, b, sigma, sigma_cycle) == expected


@pytest.mark.parametrize("shift", [0.0, 1e6 - 3])
def test_float_variational_oracle_is_within_1e12_of_exact(shift):
    # criterion 11's pairs, and the same pairs moved to coordinates of up to 1e6
    rng = random.Random(11_000)
    checked = 0
    while checked < 2000:
        a = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if math.hypot(b[0] - a[0], b[1] - a[1]) < 0.1:
            continue
        ou, ov = rng.uniform(-shift, shift), rng.uniform(-shift, shift)
        a, b = (a[0] + ou, a[1] + ov), (b[0] + ou, b[1] + ov)
        got = variational_distance_oracle(a, b, E, E)
        exact = variational_distance_oracle(
            tuple(map(Fraction, a)), tuple(map(Fraction, b)), E, E
        )
        assert type(got) is float
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * abs(exact)
        checked += 1
