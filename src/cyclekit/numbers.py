"""Scalar layer: exact rationals versus 64-bit floats.

Every quantity in the package is either exact (``int``/``fractions.Fraction``)
or approximate (``float``).  A single computation never mixes the two
modes; the helpers below classify, parse, take guarded square roots and
format scalars so the rest of the code can stay mode-agnostic.  The
exact/float policy lives here alone: ``vanishes`` is the one zero test
(exact equality, or ``REL_TOL`` scaled by the operands' magnitudes),
``scalar_sqrt``/``sqrt_or_float`` are the two square-root rules, and
``parse_scalar`` is the one rule for scalars read from text (the CLI, the
figure parameters and the JSON document reader).  ``clear_denominators``
and ``from_numerators`` decide the mode of the polynomials of
``relations.pairing``, ``relations._sandwich``,
``cycle.similarity_transform``, ``cycle.det_invariant`` and
``moebius.compose``, written once, over the integer numerators of exact
operands (one common denominator per group, one ``Fraction`` per output)
or over the float operands as given; ``relations.is_orthogonal`` and
``relations.is_s_orthogonal`` test the numerator alone, and
``moebius.orbit_uv`` clears the numerators of an exact point and of exact
elements the same way; ``cycle.det_invariant`` uses them only when a
``Fraction`` is among its operands (``is_exact`` and ``is_int`` send a
float or an all-``int`` quadruple straight to the polynomial).  These
helpers run on every exact query, so ``clear_denominators`` reads each
operand once, in one plain loop that also finds the first float (a
``Fraction`` through ``as_integer_ratio()``, whose ``numerator`` and
``denominator`` are Python-level properties, an ``int`` through its
numerator), and skips the ``lcm`` of a group whose denominators are all
1; ``cycle.normalized_key`` and ``relations.is_s_orthogonal`` build only
the outputs they return or test.  The constraint solver and
``cycle.roots`` work over integer numerators in both modes: ``exact_values``
reads a float scalar as the ``Fraction`` of its own value, ``rounded``
rounds each output once, and ``quadratic_roots`` is the one root rule,
exact roots or the nearest floats of irrational ones, so no other module
takes an integer square root.
``GroupElement`` tests ad - bc against the squared denominator of its
entries' numerators when a ``Fraction`` is among them, and as given when
every entry is an ``int`` (``is_int``) or one is a float, building a
``Fraction`` determinant only when it is not 1.  Exact products, inverses
and subgroup elements of ``is_rational`` parameters have determinant 1
by construction and skip that test.  ``as_fraction`` is ``div(x, 1)``
without the division: the exact quotient that ``similarity_transform``,
``reflect_cycle``, ``s_ghost``, centre lengths and the variational
distance return for a component they pass through.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CycleKitError, ExactModeError, UnderDetermined

Scalar = int | Fraction | float

# Relative tolerance of every float zero test (see ``vanishes``).
REL_TOL = 1e-9

# Largest exponent magnitude ``parse_scalar`` accepts, Python's own digit
# limit for ``int(str)``: "1e10000000" would keep ``Fraction`` busy for seconds.
MAX_EXPONENT = 4300


def is_exact(*values: Scalar) -> bool:
    """True when none of the scalars is a float."""
    for v in values:
        if isinstance(v, float):
            return False
    return True


def is_int(*values: Scalar) -> bool:
    """True when every scalar is an ``int`` (a ``bool`` or an ``IntEnum`` too): nothing to clear."""
    for v in values:
        if not isinstance(v, int):
            return False
    return True


def is_rational(*values) -> bool:
    """True when every value is an ``int`` or a ``Fraction``: exact, and a scalar."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def vanishes(value: Scalar, *groups) -> bool:
    """The zero test of both modes; the mode is read from ``value``.

    An exact value vanishes when it equals 0.  A float vanishes when
    ``abs(value) <= REL_TOL * prod(max(1, |x| for x in group))`` over the
    groups, so the bound scales with the magnitudes of the operands the
    value was built from: pass one group of operands per factor of the
    expression's degree (a quadratic in a quadruple passes it twice).
    """
    if not isinstance(value, float):
        return value == 0
    scale = 1.0
    for group in groups:
        scale *= max(1.0, *(abs(float(x)) for x in group))
    return abs(value) <= REL_TOL * scale


def clear_denominators(*groups):
    """The operands of one polynomial as integers over one denominator per group.

    Exact operands give ``(numerators, denominators)``: per group, the
    integers ``v * d`` and the least common denominator ``d`` of its
    operands ``v``.  A float anywhere gives the groups as they are, each
    over ``1.0``, so the polynomial runs on the given values.

    One pass reads each operand once: a ``Fraction`` through
    ``as_integer_ratio()``, an ``int`` through its numerator, anything else
    through ``.denominator`` and then ``.numerator``; the first float ends
    the pass.  When an operand that is no scalar raises before a float is
    met, every group is scanned for a float after all, so a float in any
    group still hands the groups back; with none the error is raised.
    """
    numerators, denominators = [], []
    try:
        for group in groups:
            nums, dens = [], []
            for v in group:
                if type(v) is Fraction:
                    n, d = v.as_integer_ratio()
                elif isinstance(v, int):
                    n, d = v.numerator, 1
                elif isinstance(v, float):
                    return groups, (1.0,) * len(groups)
                else:
                    d = v.denominator
                    n = v.numerator
                nums.append(n)
                dens.append(d)
            if dens.count(1) == len(dens):
                den = 1
            else:
                den = math.lcm(*dens)
                nums = [n * (den // d) for n, d in zip(nums, dens)]
            numerators.append(nums)
            denominators.append(den)
    except Exception:
        for group in groups:
            for v in group:
                if isinstance(v, float):
                    return groups, (1.0,) * len(groups)
        raise
    return numerators, denominators


def from_numerators(values, den, operands):
    """The outputs of a polynomial evaluated over ``clear_denominators``.

    ``den`` is the product of the group denominators, one factor per
    degree, and ``operands[i]`` the original operands that output i reads.
    Float mode (``den`` a float) hands the values back.  An exact output is
    the ``int`` ``value // den`` when all of its operands are ``int``s, as
    its expression over them would have been, exact because the output is
    homogeneous; otherwise (a ``Fraction`` among them) it is one
    ``Fraction``.  The test asks for ``int`` rather than ``Fraction``
    because ``isinstance(1, Fraction)`` runs ``ABCMeta.__instancecheck__``.
    """
    if isinstance(den, float):
        return tuple(values)
    outputs = []
    for value, ops in zip(values, operands):
        for v in ops:
            if not isinstance(v, int):
                outputs.append(Fraction(value, den))
                break
        else:
            outputs.append(value // den)
    return tuple(outputs)


def exact_values(values) -> tuple[tuple, bool]:
    """The scalars with each float read as the ``Fraction`` of its own value, and whether one was a float.

    Every float is a dyadic rational, so exact arithmetic on these values gives the exact
    answer for the floats as given.  A float that is not finite raises a ValueError naming it.
    """
    for v in values:
        if isinstance(v, float):
            break
    else:
        return values, False
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"scalars must be finite, got {v}")
    return tuple(Fraction(v) if isinstance(v, float) else v for v in values), True


def rounded(values) -> list[float]:
    """Each value rounded once to the nearest float; a value beyond the float range raises CycleKitError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise CycleKitError("a component of the exact answer is beyond the float range") from None


def zero_like(value: Scalar) -> Scalar:
    return 0.0 if isinstance(value, float) else 0


def one_like(value: Scalar) -> Scalar:
    return 1.0 if isinstance(value, float) else 1


def as_fraction(value: Scalar) -> Fraction | float:
    """What ``div(value, 1)`` returns, without the division.

    A ``Fraction`` or a float is returned as it is, anything else as
    ``Fraction(value)``: an ``int``, a ``bool`` or an ``IntEnum`` becomes the
    ``Fraction`` an exact quotient would have been.
    """
    if type(value) is Fraction or isinstance(value, float):
        return value
    return Fraction(value)


def div(a: Scalar, b: Scalar) -> Scalar:
    """Division that keeps exact scalars exact (int/int would give float)."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    # Fraction(b) of an int or Fraction would be a copy; other divisors ("1/2") still need it
    return Fraction(a) / (b if isinstance(b, (int, Fraction)) else Fraction(b))


def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse "p/q", integer or decimal notation in the requested mode.

    The one rule for scalars read from outside the package.  Raises
    ``ValueError``, and only that, for malformed text, a zero denominator,
    an exponent beyond ``MAX_EXPONENT`` (read by ``int``, which takes "_"
    and non-ASCII digits as ``Fraction`` does, before ``Fraction`` builds
    ``10**exponent``) and, in float mode, a value beyond the float range.
    """
    _, mark, exponent = text.replace("E", "e").rpartition("e")
    try:
        if mark and abs(int(exponent)) > MAX_EXPONENT:
            problem = f"has an exponent beyond {MAX_EXPONENT}"
        else:
            value = Fraction(text)
            return value if exact else float(value)
    except ZeroDivisionError:
        problem = "has a zero denominator"
    except OverflowError:
        problem = "is beyond the float range"
    except ValueError:
        problem = "is not a finite scalar"
    raise ValueError(f"{text!r} {problem}")


def parse_scalars(text: str, exact: bool = True, names: str | None = None) -> list[Scalar]:
    """The comma-separated scalars of ``text``, one per name in ``names`` ("k,l,n,m")
    or any number for ``names=None``; a wrong count is a ``ValueError`` too."""
    parts = text.split(",")
    if names is not None and len(parts) != names.count(",") + 1:
        raise ValueError(f"needs {names}, got {len(parts)} scalars")
    return [parse_scalar(part, exact) for part in parts]


def scalar_to_json(value: Scalar):
    """JSON form: floats and small integers as numbers, ratios as "p/q"."""
    if isinstance(value, float):
        return value
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def scalar_repr(value: Scalar) -> str:
    """Compact CLI text (quadruples, points): ``fmt12``, or the text of ``scalar_to_json``."""
    if isinstance(value, float):
        return fmt12(value)
    return str(scalar_to_json(value))


def fmt12(value: Scalar) -> str:
    """Shortest representation within 12 significant digits; no "-0"."""
    text = "%.12g" % float(value)
    if text == "-0":
        text = "0"
    return text


def isqrt_exact(value: int) -> int | None:
    """Integer square root, or None when the integer is negative or not a perfect square."""
    if value < 0:
        return None
    root = math.isqrt(value)
    return root if root * root == value else None


def quadratic_roots(a: int, b: int, c: int, num: int = 1, den: int = 1) -> list[Fraction | float]:
    """The real roots of a x^2 + b x + c = 0 over integers, ascending, each times num/den (both > 0).

    A rational root (the discriminant a square, ``isqrt_exact``) is one ``Fraction``.  An
    irrational root is the nearest float of the exact root, taken without cancellation as
    q/2a and 2c/q with q = -(b + sign(b) sqrt(disc)) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 1.8): sqrt(disc) lies between s/2^k and (s + 1)/2^k for
    s = isqrt(disc 4^k), each root is monotone in it and integer true division rounds
    correctly, so when both ends give the same floats these are the floats of the exact
    roots; k grows by 64 until they do.  A root beyond the float range raises OverflowError.
    With a = b = 0 there is no root, or every x is one (UnderDetermined).
    """
    if a == 0:
        if b == 0:
            if c == 0:
                raise UnderDetermined("quadratic condition is identically satisfied")
            return []
        return [Fraction(-c * num, b * den)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = isqrt_exact(disc)
    if root is not None:
        den = 2 * a * den
        if not root:
            return [Fraction(-b * num, den)]
        low, high = Fraction((-b - root) * num, den), Fraction((-b + root) * num, den)
        return [low, high] if a > 0 else [high, low]
    sign = -1 if b < 0 else 1
    k = max(0, 64 - disc.bit_length() // 2)  # s has at least 64 bits
    while True:
        s = math.isqrt(disc << 2 * k)
        ends = []
        for r in (s, s + 1):
            q = -((b << k) + sign * r)  # q 2^k
            ends.append((q * num / (2 * a * den << k), (c * num << k + 1) / (q * den)))
        if ends[0] == ends[1]:
            return sorted(ends[0])
        k += 64


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Rational square root, or None when the value is not a perfect square."""
    frac = Fraction(value)
    num_root, den_root = isqrt_exact(frac.numerator), isqrt_exact(frac.denominator)
    if num_root is None or den_root is None:
        return None
    return Fraction(num_root, den_root)


def scalar_sqrt(value: Scalar, context: str) -> Scalar:
    """Square root preserving the numeric mode.

    Exact scalars must be perfect rational squares; otherwise the caller
    is told to switch to float mode.
    """
    if isinstance(value, float):
        return math.sqrt(value)
    root = sqrt_exact(Fraction(value))
    if root is None:
        raise ExactModeError(
            f"{context}: {value} has no exact rational square root; use float mode"
        )
    return root


def sqrt_or_float(value: Scalar) -> Scalar:
    """Square root of ``value >= 0`` that stays exact when it can.

    An exact perfect rational square gives its exact root.  Any other
    exact value falls back explicitly to the float ``math.sqrt(float(value))``,
    the correctly rounded root of its float, instead of raising, as does a
    float; use ``scalar_sqrt`` where exact mode must not leave the rationals.
    """
    if not isinstance(value, float):
        root = sqrt_exact(Fraction(value))
        if root is not None:
            return root
    return math.sqrt(float(value))
