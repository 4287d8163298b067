"""The one input rule, ``numbers.parse_scalar``, and the JSON document reader built on it.

``parse_scalar`` must agree with ``Fraction(text)`` in exact mode and with
``float`` (correctly rounded, so ``float(text)`` for decimals and ``p / q``
for ratios) in float mode, and raise ``ValueError``, and only
``ValueError``, for everything else: malformed text, a zero denominator,
an exponent beyond ``MAX_EXPONENT`` and a float beyond the float range.
``parse_document`` may raise only ``DocumentError`` or
``json.JSONDecodeError``, whatever JSON it is given.
"""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclekit.numbers import MAX_EXPONENT, parse_scalar, parse_scalars
from cyclekit.svgout import DocumentError, parse_document

EXAMPLES = settings(max_examples=300)
DIGITS = st.text("0123456789", min_size=1, max_size=25)


@st.composite
def decimals(draw, exponents=st.integers(-MAX_EXPONENT, MAX_EXPONENT), optional=True):
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = draw(DIGITS)
    fraction = draw(st.one_of(st.just(""), DIGITS.map(lambda d: "." + d)))
    exponent = st.builds("{}{}".format, st.sampled_from("eE"), exponents)
    return sign + whole + fraction + draw(st.one_of(st.just(""), exponent) if optional else exponent)


RATIOS = st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@EXAMPLES
@given(decimals())
@example("1e4300")
@example("-0.0")
@example("1.7976931348623157e308")
@example("1.8e308")
@example("2e-400")
def test_decimal_text_reads_as_fraction_and_float(text):
    assert parse_scalar(text, True) == Fraction(text)
    assert type(parse_scalar(text, True)) is Fraction
    expected = float(text)
    if math.isinf(expected):
        with pytest.raises(ValueError, match="float range"):
            parse_scalar(text, False)
    else:
        assert parse_scalar(text, False) == expected


@EXAMPLES
@given(RATIOS)
def test_ratio_text_reads_as_fraction_and_float(ratio):
    p, q = ratio
    text = f"{p}/{q}"
    assert parse_scalar(text, True) == Fraction(p, q)
    assert parse_scalar(text, False) == p / q


@EXAMPLES
@given(decimals(st.integers(MAX_EXPONENT + 1, 10**12).flatmap(lambda e: st.sampled_from([e, -e])), False))
@example("1e10000000")
@example("1e1_0000000")
@example("1e١٠٠٠٠٠٠٠")
@example("1/2e10000000")
def test_exponent_beyond_the_bound_is_rejected_at_once(text):
    for exact in (True, False):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_scalar(text, exact)
        assert time.perf_counter() - start < 0.1


@EXAMPLES
@given(st.one_of(st.text(), st.text("0123456789eE+-_./ ١", max_size=12)), st.booleans())
@example("1/0", True)
@example("nan", False)
@example("inf", True)
@example("1e", False)
@example("1" * 5000, True)
def test_any_text_raises_only_value_error(text, exact):
    try:
        value = parse_scalar(text, exact)
    except ValueError:
        return
    assert type(value) is (Fraction if exact else float)
    assert exact or math.isfinite(value)


def test_parse_scalars_checks_the_count():
    assert parse_scalars("1,1/2", True, "u,v") == [1, Fraction(1, 2)]
    assert parse_scalars("1,2,3", False) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="needs k,l,n,m"):
        parse_scalars("1,2,3", True, "k,l,n,m")


SCALARS = st.one_of(
    st.integers(),
    st.floats(),
    decimals().map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9)),
    st.sampled_from(["1e10000000", "x", "", "Infinity"]),
)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SCALARS, st.text(max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(
            st.one_of(st.sampled_from(["k", "l", "n", "m", "style", "stroke", "dash"]), st.text(max_size=3)),
            children,
            max_size=6,
        ),
    ),
    max_leaves=25,
)
CYCLES = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {key: SCALARS for key in "klnm"},
            optional={"style": st.one_of(JSON, st.fixed_dictionaries({}, optional={"stroke": JSON, "dash": JSON}))},
        ),
        JSON,
    ),
    max_size=3,
)
# mostly well-formed documents, so the reader gets past sigma and the viewport
DOCUMENTS = st.fixed_dictionaries(
    {
        "sigma": st.sampled_from([-1, 0, 1, "e", "p", "h"]),
        "viewport": st.one_of(st.just([-3, 3, -3, 3]), st.lists(SCALARS, min_size=3, max_size=5)),
        "cycles": st.one_of(CYCLES, JSON),
        "points": st.one_of(st.lists(st.one_of(st.lists(SCALARS, max_size=3), JSON), max_size=3), JSON),
    },
)
VIEW = {"sigma": -1, "viewport": [-3, 3, -3, 3]}


@EXAMPLES
@given(st.one_of(DOCUMENTS, JSON), st.booleans())
@example(dict(VIEW, cycles=None), False)
@example(dict(VIEW, points=[7]), True)
@example(dict(VIEW, cycles=[{"k": 1, "l": 0, "n": 0, "m": 0, "style": 3}]), False)
def test_any_json_raises_only_document_errors(value, exact):
    try:
        parse_document(json.dumps(value), exact)
    except (DocumentError, json.JSONDecodeError):
        pass


def test_integer_literal_beyond_int_limit_is_a_document_error():
    text = '{"sigma": -1, "viewport": [-3, 3, -3, ' + "3" * 5000 + "]}"
    with pytest.raises(DocumentError):
        parse_document(text)
