"""Value semantics of the library's immutable types, one instance of each.

Every value class must keep the same repr text, equality within its own
class only, hashing, frozen fields, and pickle/copy round trips that
restore the stored fields without running validation again.  Instances
carry no ``__dict__``, and pickles written when the classes were frozen
dataclasses still load.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cyclekit.cycle import (
    CycleQuadruple,
    FSCcContext,
    HasFocus,
    HasKindCentre,
    IsOrthogonalTo,
    Normalised,
    PassesThrough,
    to_fscc,
)
from cyclekit.figures import FigureRecipe
from cyclekit.hypercomplex import HNumber, SpaceSign
from cyclekit.metric import DirectedInterval, Distance, FromCentre, FromFocus
from cyclekit.moebius import GroupElement, IwasawaFactors, Point
from cyclekit.svgout import CycleSetDocument, CycleStyle

E, P, H = SpaceSign.ELLIPTIC, SpaceSign.PARABOLIC, SpaceSign.HYPERBOLIC
HALF = Fraction(1, 2)

# name: (build an instance, build an unequal one of the same class, its repr)
CASES = {
    "HNumber": (
        lambda: HNumber(1, HALF, E),
        lambda: HNumber(1, HALF, P),
        "HNumber(re=1, im=Fraction(1, 2), sign=<SpaceSign.ELLIPTIC: -1>)",
    ),
    "Point": (
        lambda: Point(Fraction(1, 3), 2),
        lambda: Point(2, Fraction(1, 3)),
        "Point(u=Fraction(1, 3), v=2)",
    ),
    "GroupElement": (
        lambda: GroupElement(2, 1, 1, 1),
        lambda: GroupElement(1, 1, 0, 1),
        "GroupElement(a=2, b=1, c=1, d=1)",
    ),
    "IwasawaFactors": (
        lambda: IwasawaFactors(1, HALF, 0, 1),
        lambda: IwasawaFactors(1, HALF, 1, 0),
        "IwasawaFactors(alpha=1, nu=Fraction(1, 2), cos_phi=0, sin_phi=1)",
    ),
    "CycleQuadruple": (
        lambda: CycleQuadruple(1, 0, HALF, -1),
        lambda: CycleQuadruple(2, 0, 1, -2),
        "CycleQuadruple(k=1, l=0, n=Fraction(1, 2), m=-1)",
    ),
    "FSCcContext": (
        lambda: FSCcContext(H, -1),
        lambda: FSCcContext(H),
        "FSCcContext(sigma_cycle=<SpaceSign.HYPERBOLIC: 1>, s=-1)",
    ),
    "FSCcMatrix": (
        lambda: to_fscc(CycleQuadruple(1, 2, 3, 4), FSCcContext(P)),
        lambda: to_fscc(CycleQuadruple(1, 2, 3, 4), FSCcContext(P, -1)),
        "FSCcMatrix(a11=HNumber(re=2, im=3, sign=<SpaceSign.PARABOLIC: 0>), "
        "a12=HNumber(re=-4, im=0, sign=<SpaceSign.PARABOLIC: 0>), "
        "a21=HNumber(re=1, im=0, sign=<SpaceSign.PARABOLIC: 0>), "
        "a22=HNumber(re=-2, im=3, sign=<SpaceSign.PARABOLIC: 0>), "
        "context=FSCcContext(sigma_cycle=<SpaceSign.PARABOLIC: 0>, s=1))",
    ),
    "PassesThrough": (
        lambda: PassesThrough((1, HALF), E),
        lambda: PassesThrough((1, HALF), H),
        "PassesThrough(point=(1, Fraction(1, 2)), sigma=<SpaceSign.ELLIPTIC: -1>)",
    ),
    "HasKindCentre": (
        lambda: HasKindCentre((0, 1), P),
        lambda: HasKindCentre((1, 0), P),
        "HasKindCentre(point=(0, 1), kind=<SpaceSign.PARABOLIC: 0>)",
    ),
    "HasFocus": (
        lambda: HasFocus((1, 0), H),
        lambda: HasFocus((1, 0), E),
        "HasFocus(point=(1, 0), sigma_cycle=<SpaceSign.HYPERBOLIC: 1>)",
    ),
    "IsOrthogonalTo": (
        lambda: IsOrthogonalTo(CycleQuadruple(1, 0, 0, -1), FSCcContext(E)),
        lambda: IsOrthogonalTo(CycleQuadruple(1, 0, 0, -1), FSCcContext(E, -1)),
        "IsOrthogonalTo(cycle=CycleQuadruple(k=1, l=0, n=0, m=-1), "
        "ctx=FSCcContext(sigma_cycle=<SpaceSign.ELLIPTIC: -1>, s=1))",
    ),
    "Normalised": (Normalised, None, "Normalised()"),
    "DirectedInterval": (
        lambda: DirectedInterval((0, 0), (1, HALF)),
        lambda: DirectedInterval((1, HALF), (0, 0)),
        "DirectedInterval(a=(0, 0), b=(1, Fraction(1, 2)))",
    ),
    "Distance": (
        lambda: Distance(E),
        lambda: Distance(H),
        "Distance(sigma=<SpaceSign.ELLIPTIC: -1>)",
    ),
    "FromCentre": (
        lambda: FromCentre(P, H),
        lambda: FromCentre(H, P),
        "FromCentre(sigma=<SpaceSign.PARABOLIC: 0>, sigma_cycle=<SpaceSign.HYPERBOLIC: 1>)",
    ),
    "FromFocus": (
        lambda: FromFocus(E, P),
        lambda: FromFocus(E, E),
        "FromFocus(sigma=<SpaceSign.ELLIPTIC: -1>, sigma_cycle=<SpaceSign.PARABOLIC: 0>)",
    ),
    "CycleStyle": (
        lambda: CycleStyle("#c62828", True),
        lambda: CycleStyle("#c62828"),
        "CycleStyle(stroke='#c62828', dash=True)",
    ),
    "CycleSetDocument": (
        lambda: CycleSetDocument(
            E, [(CycleQuadruple(1, 0, 0, -1), CycleStyle())], [(0, 1)], (-1.0, 1.0, -2.0, 2.0)
        ),
        lambda: CycleSetDocument(E, [(CycleQuadruple(1, 0, 0, -1), CycleStyle())]),
        "CycleSetDocument(sigma=<SpaceSign.ELLIPTIC: -1>, "
        "cycles=[(CycleQuadruple(k=1, l=0, n=0, m=-1), CycleStyle(stroke='#1f4e9c', dash=False))], "
        "points=[(0, 1)], viewport=(-1.0, 1.0, -2.0, 2.0))",
    ),
    "FigureRecipe": (
        lambda: FigureRecipe("fig-zero-radius", {"point": "1,2"}),
        lambda: FigureRecipe("fig-zero-radius"),
        "FigureRecipe(name='fig-zero-radius', parameters={'point': '1,2'})",
    ),
}

# Values holding a list or a dict hash as their fields do: not at all.
UNHASHABLE = {"CycleSetDocument", "FigureRecipe"}

NAMES = sorted(CASES)


def field_names(value):
    cls = type(value)
    return list(cls.__slots__) if "__slots__" in vars(cls) else list(vars(value))


def test_every_value_class_is_covered():
    assert len(CASES) == 19


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality_within_one_class(name):
    make, make_other, _ = CASES[name]
    value = make()
    assert value == make() and not value != make()
    if make_other is not None:
        assert value != make_other() and not value == make_other()
    stranger = CASES[NAMES[(NAMES.index(name) + 1) % len(NAMES)]][0]()
    assert value != stranger and not value == stranger
    assert value != tuple(getattr(value, field) for field in field_names(value))


def test_equal_fields_in_another_class_are_unequal():
    assert FromCentre(E, P) != FromFocus(E, P)
    assert not FromFocus(E, P) == FromCentre(E, P)


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    make, _, _ = CASES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    field = (field_names(value) or ["k"])[0]
    before = repr(value)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, 0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 0
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert repr(value) == before


def round_trips(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value = CASES[name][0]()
    for restored in round_trips(value):
        assert type(restored) is type(value)
        assert restored == value
        assert repr(restored) == repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_values_have_no_instance_dict(name):
    value = CASES[name][0]()
    assert not hasattr(value, "__dict__")
    for restored in round_trips(value):
        assert not hasattr(restored, "__dict__")


# [GroupElement(2.0, 2.0, 3.0, 7.0), CycleStyle()] as pickled, protocol 2,
# when both were frozen dataclasses: the state is the dict of the fields.
DATACLASS_PICKLE = (
    b"\x80\x02]q\x00(ccyclekit.moebius\nGroupElement\nq\x01)\x81q\x02}q\x03(X\x01\x00\x00"
    b"\x00aq\x04G?\xe6\xa0\x9ef\x7f;\xccX\x01\x00\x00\x00bq\x05G?\xe6\xa0\x9ef\x7f;\xccX"
    b"\x01\x00\x00\x00cq\x06G?\xf0\xf8v\xcc\xdfl\xd9X\x01\x00\x00\x00dq\x07G@\x03\xcc\x8a"
    b"\x99\xafTSubccyclekit.svgout\nCycleStyle\nq\x08)\x81q\t}q\n(X\x06\x00\x00\x00strokeq"
    b"\x0bX\x07\x00\x00\x00#1f4e9cq\x0cX\x04\x00\x00\x00dashq\r\x89ube."
)


def test_loads_pickles_written_by_the_dataclass_form():
    g, style = pickle.loads(DATACLASS_PICKLE)
    assert g.entries() == GroupElement(2.0, 2.0, 3.0, 7.0).entries()
    assert style == CycleStyle()


def test_deepcopy_copies_mutable_fields():
    doc = CASES["CycleSetDocument"][0]()
    assert copy.deepcopy(doc).points is not doc.points
    assert copy.copy(doc).points is doc.points


def test_round_trip_keeps_a_float_group_element_without_renormalising():
    g = GroupElement(2.0, 2.0, 3.0, 7.0)
    assert g.a * g.d - g.b * g.c != 1.0
    # Building it again from its entries would normalise once more and move them.
    assert GroupElement(*g.entries()).entries() != g.entries()
    for restored in round_trips(g):
        assert restored.entries() == g.entries()


def test_defaults():
    assert CycleStyle() == CycleStyle("#1f4e9c", False)
    assert FSCcContext(E).s == 1
    recipe = FigureRecipe("fig-eph-cycle")
    assert recipe.parameters == {}
    assert recipe.parameters is not FigureRecipe("fig-eph-cycle").parameters
    doc = CycleSetDocument(P, [])
    assert doc.points == [] and doc.viewport == (-3.0, 3.0, -3.0, 3.0)
    assert doc.points is not CycleSetDocument(P, []).points


def test_keyword_construction():
    assert CycleStyle(stroke="#c62828", dash=True) == CycleStyle("#c62828", True)
    assert FSCcContext(sigma_cycle=H, s=-1) == FSCcContext(H, -1)
    assert Point(v=2, u=1) == Point(1, 2)


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError, match="zero quadruple"):
        CycleQuadruple(0, 0, 0, 0)
    with pytest.raises(ValueError, match="s must be"):
        FSCcContext(E, 2)
    with pytest.raises(ValueError, match="determinant must be positive"):
        GroupElement(0, 1, 1, 0)
    with pytest.raises(ValueError, match="viewport"):
        CycleSetDocument(E, [], [], (1.0, 0.0, -1.0, 1.0))
    assert GroupElement(2, 0, 0, 2) == GroupElement(1, 0, 0, 1)


def test_group_element_construction_goes_through_post_init(monkeypatch):
    # The benchmark's span tracer counts constructions by wrapping this method.
    original = vars(GroupElement)["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counted)
    g = GroupElement(2, 0, 0, 2)
    assert calls == [g] and g.entries() == (1, 0, 0, 1)
