"""Two-component numbers x + iy with i*i in {-1, 0, +1}.

Sign -1 reproduces complex arithmetic, sign 0 gives dual numbers
(nilpotent unit) and sign +1 gives double numbers, which have zero
divisors: (1+i)(1-i) = 0.  Division is therefore partial, guarded by
the modulus x*x - sign*y*y.  Values are immutable and all operations
are pure functions.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import ZeroDivisor
from .numbers import Scalar, div, zero_like
from .value import Value

_LETTERS = {"e": -1, "p": 0, "h": 1}


class SpaceSign(IntEnum):
    """Square of the imaginary unit: the elliptic/parabolic/hyperbolic selector."""

    ELLIPTIC = -1
    PARABOLIC = 0
    HYPERBOLIC = 1

    @classmethod
    def parse(cls, token: str | int) -> "SpaceSign":
        """Accepts -1/0/1 (as int or string) and the letters e/p/h."""
        if isinstance(token, str):
            word = token.strip().lower()
            if word in _LETTERS:
                return cls(_LETTERS[word])
            token = int(word)
        return cls(token)

    @property
    def letter(self) -> str:
        return {-1: "e", 0: "p", 1: "h"}[int(self)]


ELLIPTIC = SpaceSign.ELLIPTIC
PARABOLIC = SpaceSign.PARABOLIC
HYPERBOLIC = SpaceSign.HYPERBOLIC


class HNumber(Value):
    """One number re + i*im over the algebra selected by sign."""

    __slots__ = ("re", "im", "sign")

    def __init__(self, re: Scalar, im: Scalar, sign: SpaceSign):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "sign", sign)

    def _check(self, other: "HNumber") -> None:
        if self.sign != other.sign:
            raise ValueError(f"sign mismatch: {self.sign!r} vs {other.sign!r}")

    def __add__(self, other: "HNumber") -> "HNumber":
        self._check(other)
        return HNumber(self.re + other.re, self.im + other.im, self.sign)

    def __sub__(self, other: "HNumber") -> "HNumber":
        self._check(other)
        return HNumber(self.re - other.re, self.im - other.im, self.sign)

    def __neg__(self) -> "HNumber":
        return HNumber(-self.re, -self.im, self.sign)

    def __mul__(self, other):
        if isinstance(other, HNumber):
            return h_mul(self, other)
        return HNumber(self.re * other, self.im * other, self.sign)

    def __rmul__(self, other):
        return HNumber(self.re * other, self.im * other, self.sign)

    def conj(self) -> "HNumber":
        return HNumber(self.re, -self.im, self.sign)

    def modsq(self) -> Scalar:
        return self.re * self.re - int(self.sign) * self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def h_real(value: Scalar, sign: SpaceSign) -> HNumber:
    """Embed a scalar as value + 0i."""
    return HNumber(value, zero_like(value), sign)


def h_unit(sign: SpaceSign) -> HNumber:
    return HNumber(0, 1, sign)


def h_mul(a: HNumber, b: HNumber) -> HNumber:
    """(a.re*b.re + sign*a.im*b.im) + i(a.re*b.im + a.im*b.re)."""
    a._check(b)
    sigma = int(a.sign)
    return HNumber(
        a.re * b.re + sigma * a.im * b.im,
        a.re * b.im + a.im * b.re,
        a.sign,
    )


def h_inv(a: HNumber) -> HNumber:
    """Multiplicative inverse conj(a)/modsq(a); ZeroDivisor when modsq = 0."""
    mod = a.modsq()
    if mod == 0:
        raise ZeroDivisor(f"{a.re}+{a.im}i (sign {int(a.sign)}) has zero modulus")
    return HNumber(div(a.re, mod), div(-a.im, mod), a.sign)


def h_conj_modsq(a: HNumber) -> tuple[HNumber, Scalar]:
    """The conjugate and the modulus, satisfying a * conj = modsq + 0i."""
    return a.conj(), a.modsq()
