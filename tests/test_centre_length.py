"""The closed-form length from a centre against the solver it replaced.

``length(FromCentre(sigma, sigma_cycle))`` used to build the cycle with
its sigma_cycle-centre at A through B (``cycle_from_constraints``) and
read back its ``radius_sq``.  That path stays here as the oracle: exact
results must equal it in value and type, sigma_cycle = p must raise its
class (with a message about the parabolic centre), and float results
must lie near the exact value of their float inputs.
"""

import random
from fractions import Fraction

import pytest

import cyclekit.cycle
from conftest import ALL_SIGNS, rand_fraction
from cyclekit import (
    CycleKitError,
    DirectedInterval,
    FigureRecipe,
    FromCentre,
    FSCcContext,
    HasKindCentre,
    Inconsistent,
    Normalised,
    PassesThrough,
    UnderDetermined,
    cycle_from_constraints,
    is_perpendicular,
    length,
    radius_sq,
    run_figure,
)

E, P, H = ALL_SIGNS


def solver_length(interval, kind):
    """The replaced path: solve for the cycle, then read its squared radius."""
    cycles = cycle_from_constraints(
        [
            HasKindCentre(interval.a, kind.sigma_cycle),
            PassesThrough(interval.b, kind.sigma),
            Normalised(),
        ]
    )
    ctx = FSCcContext(kind.sigma_cycle, 1)
    return sorted((radius_sq(c, ctx) for c in cycles), key=float)


def outcome(fn, *args):
    try:
        return fn(*args)
    except CycleKitError as exc:
        return type(exc), str(exc)


def rand_scalar(rng):
    """A Fraction, or an int where the value is integral half of the time."""
    value = rand_fraction(rng)
    return int(value) if value.denominator == 1 and rng.random() < 0.5 else value


def rand_interval(rng):
    a = (rand_scalar(rng), rand_scalar(rng))
    b = (rand_scalar(rng), rand_scalar(rng))
    return DirectedInterval(a, b)


def test_exact_centre_length_equals_the_solver_in_value_and_type():
    rng = random.Random(151)
    kinds = [FromCentre(sigma, sigma_cycle) for sigma in ALL_SIGNS for sigma_cycle in (E, H)]
    for i in range(2400):
        interval, kind = rand_interval(rng), kinds[i % len(kinds)]
        got, want = length(interval, kind), solver_length(interval, kind)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


# The closed form words its errors in terms of the parabolic centre; the solver's
# messages spoke of the linear system it no longer builds.
PARABOLIC_CENTRE_MESSAGES = {
    UnderDetermined: "a parabolic centre on the real axis leaves a one-parameter family of cycles",
    Inconsistent: "a parabolic centre lies on the real axis, and the start does not",
}


def test_parabolic_cycle_space_raises_what_the_solver_raised():
    rng = random.Random(152)
    for i in range(300):
        interval = rand_interval(rng)
        if i % 3 == 0:  # a centre on the real axis leaves a family of cycles
            interval = DirectedInterval((interval.a[0], rng.choice((0, Fraction(0)))), interval.b)
        kind = FromCentre(ALL_SIGNS[i % 3], P)
        want = outcome(solver_length, interval, kind)
        assert isinstance(want, tuple)
        raised, message = outcome(length, interval, kind)
        assert raised is want[0]
        assert message == PARABOLIC_CENTRE_MESSAGES[raised]


def exact_value(interval, kind):
    return length(
        DirectedInterval(tuple(map(Fraction, interval.a)), tuple(map(Fraction, interval.b))), kind
    )[0]


def test_float_centre_length_is_near_the_exact_value_of_its_inputs():
    rng = random.Random(153)
    for i in range(3000):
        scale = 10.0 ** rng.randint(-6, 12)
        a = (rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        if i % 2:  # a short interval, where a form in the coordinates would cancel
            b = (a[0] + rng.uniform(-1, 1) * scale * 1e-6, a[1] + rng.uniform(-1, 1) * scale * 1e-6)
        else:
            b = (rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        interval = DirectedInterval(a, b)
        kind = FromCentre(rng.choice(ALL_SIGNS), rng.choice((E, H)))
        (got,) = length(interval, kind)
        assert isinstance(got, float)
        du, dv = Fraction(b[0]) - Fraction(a[0]), Fraction(b[1]) - Fraction(a[1])
        bound = Fraction(2e-15) * max(1, du * du, dv * dv, Fraction(b[1]) ** 2)
        assert abs(Fraction(got) - exact_value(interval, kind)) <= bound


@pytest.mark.parametrize(
    "a, raised",
    [
        ((0.5, 0.0), "UnderDetermined"),
        ((0.5, 1e-12), "UnderDetermined"),  # A_v vanishes relative to the coordinates
        ((0.5, 1e-6), "Inconsistent"),
        ((1e6, 1e-6), "UnderDetermined"),
    ],
)
def test_float_parabolic_cycle_space_reads_a_v_through_vanishes(a, raised):
    with pytest.raises(CycleKitError) as info:
        length(DirectedInterval(a, (1.0, 2.0)), FromCentre(E, P))
    assert type(info.value).__name__ == raised


def test_centre_lengths_and_fig_distances_need_no_constraint_solver(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the constraint solver was called")

    monkeypatch.setattr(cyclekit.cycle, "cycle_from_constraints", refuse)
    monkeypatch.setattr(cyclekit.cycle, "pencil", refuse)
    interval = DirectedInterval((0, 0), (Fraction(1, 3), Fraction(1, 2)))
    assert length(interval, FromCentre(E, E)) == [Fraction(13, 36)]
    assert length(interval, FromCentre(H, E)) == [Fraction(-5, 36)]
    assert is_perpendicular(DirectedInterval((0, 0), (1, 0)), (0, 1), FromCentre(E, E))
    assert len(run_figure(FigureRecipe("fig-distances"), str(tmp_path))) == 3
