"""Exact scalar arithmetic for three anti-negative semifields.

Supported carriers:

* ``BOOLEAN``       -- {0, 1} with 1 + 1 = 1,
* ``TROPICAL``      -- rationals plus -inf, addition = max, product = +,
* ``TROPICAL_INT``  -- the same, restricted to integers.

All three are idempotent (x + x = x), hence anti-negative, and every
nonzero element is invertible.  Values are immutable and compare equal
exactly when their canonical payloads coincide; there is no floating
point anywhere in this package.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction


class SemiringError(Exception):
    """Base class for arithmetic errors."""


class MixedSemifields(SemiringError):
    """Operands belong to different semifields."""


class NotInvertible(SemiringError):
    """Inverse or square root requested for the zero element."""


class ParseError(ValueError):
    """Text is not the canonical form of any element."""


class UnsupportedParams(ValueError):
    """A computation was requested outside the sizes or carriers it supports."""


class Semifield(enum.Enum):
    BOOLEAN = "boolean"
    TROPICAL = "tropical"
    TROPICAL_INT = "tropical_int"

    @property
    def is_tropical(self) -> bool:
        return self is not Semifield.BOOLEAN


class _MinusInf:
    """Additive zero of the tropical carriers; a tag, never a number."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-inf"


MINUS_INF = _MinusInf()


@dataclass(frozen=True)
class SemifieldValue:
    """One element of a fixed semifield, stored canonically.

    Payloads: ``int`` 0/1 for BOOLEAN, reduced ``Fraction`` or
    ``MINUS_INF`` for TROPICAL, ``int`` or ``MINUS_INF`` for
    TROPICAL_INT.
    """

    semifield: Semifield
    payload: object

    def __repr__(self) -> str:
        return f"<{self.semifield.value} {format_value(self)}>"


def value(semifield: Semifield, raw) -> SemifieldValue:
    """Build a value from a raw payload, canonicalizing it.

    Accepts ints (and Fractions over TROPICAL) or MINUS_INF; floats are
    rejected outright to keep the arithmetic exact.
    """
    if semifield is Semifield.BOOLEAN:
        if isinstance(raw, bool):
            raw = int(raw)
        if raw not in (0, 1):
            raise ValueError(f"boolean payload must be 0 or 1, got {raw!r}")
        return SemifieldValue(semifield, raw)
    if raw is MINUS_INF:
        return SemifieldValue(semifield, MINUS_INF)
    if isinstance(raw, float):
        raise TypeError("floating-point payloads are not allowed")
    if semifield is Semifield.TROPICAL:
        return SemifieldValue(semifield, Fraction(raw))
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise TypeError(f"tropical_int payload must be an int, got {raw!r}")
    return SemifieldValue(semifield, raw)


def zero(semifield: Semifield) -> SemifieldValue:
    if semifield is Semifield.BOOLEAN:
        return SemifieldValue(semifield, 0)
    return SemifieldValue(semifield, MINUS_INF)


def one(semifield: Semifield) -> SemifieldValue:
    if semifield is Semifield.BOOLEAN:
        return SemifieldValue(semifield, 1)
    if semifield is Semifield.TROPICAL:
        return SemifieldValue(semifield, Fraction(0))
    return SemifieldValue(semifield, 0)


def is_zero(x: SemifieldValue) -> bool:
    if x.semifield is Semifield.BOOLEAN:
        return x.payload == 0
    return x.payload is MINUS_INF


def _check_same(x: SemifieldValue, y: SemifieldValue) -> None:
    if x.semifield is not y.semifield:
        raise MixedSemifields(f"{x.semifield.value} vs {y.semifield.value}")


def add(x: SemifieldValue, y: SemifieldValue) -> SemifieldValue:
    """Semifield addition: boolean OR, tropical max."""
    _check_same(x, y)
    if x.semifield is Semifield.BOOLEAN:
        return SemifieldValue(x.semifield, x.payload | y.payload)
    if x.payload is MINUS_INF:
        return y
    if y.payload is MINUS_INF:
        return x
    return x if x.payload >= y.payload else y


def mul(x: SemifieldValue, y: SemifieldValue) -> SemifieldValue:
    """Semifield multiplication: boolean AND, tropical +; zero annihilates."""
    _check_same(x, y)
    if x.semifield is Semifield.BOOLEAN:
        return SemifieldValue(x.semifield, x.payload & y.payload)
    if x.payload is MINUS_INF or y.payload is MINUS_INF:
        return zero(x.semifield)
    return SemifieldValue(x.semifield, x.payload + y.payload)


def inv(x: SemifieldValue) -> SemifieldValue:
    """Multiplicative inverse of a nonzero element."""
    if is_zero(x):
        raise NotInvertible("the zero element has no inverse")
    if x.semifield is Semifield.BOOLEAN:
        return x
    return SemifieldValue(x.semifield, -x.payload)


def try_sqrt(x: SemifieldValue) -> SemifieldValue | None:
    """A square root of a nonzero element, or None if the carrier has none.

    Over the rational tropical semifield every nonzero element has one
    (halve the payload); over the integers only even payloads do.
    """
    if is_zero(x):
        raise NotInvertible("the zero element has no square root here")
    if x.semifield is Semifield.BOOLEAN:
        return x
    if x.semifield is Semifield.TROPICAL:
        return SemifieldValue(x.semifield, x.payload / 2)
    if x.payload % 2 != 0:
        return None
    return SemifieldValue(x.semifield, x.payload // 2)


def natural_leq(x: SemifieldValue, y: SemifieldValue) -> bool:
    """The natural order of an idempotent semifield: x <= y iff x + y = y."""
    return add(x, y) == y


def format_value(x: SemifieldValue) -> str:
    """Canonical text form: "0"/"1" boolean, "-inf" or "p" or "p/q" tropical."""
    if x.semifield is Semifield.BOOLEAN:
        return str(x.payload)
    if x.payload is MINUS_INF:
        return "-inf"
    if isinstance(x.payload, Fraction) and x.payload.denominator != 1:
        return f"{x.payload.numerator}/{x.payload.denominator}"
    return str(int(x.payload))


#: Most digits accepted in the numerator or the denominator of a
#: tropical entry; below Python's int/str conversion limit, so every
#: parsed value formats back.
MAX_ENTRY_DIGITS = 1000

_TROPICAL_TEXT = re.compile(rf"-?[0-9]{{1,{MAX_ENTRY_DIGITS}}}(/[0-9]{{1,{MAX_ENTRY_DIGITS}}})?")


def parse_value(semifield: Semifield, text: str) -> SemifieldValue:
    """Parse the canonical text form, rejecting everything else.

    Tropical text must have the shape ``-?digits(/digits)?`` within
    MAX_ENTRY_DIGITS before any number is built, so "1e5000" and
    "1e1000000000" are rejected without being expanded.  Strictness is
    then enforced by a round trip: the parsed value must format back to
    the input, so "2/4", "3/1", "-0" and friends all fail.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    if semifield is Semifield.BOOLEAN:
        if text == "0":
            return zero(semifield)
        if text == "1":
            return one(semifield)
        raise ParseError(f"boolean entries are '0' or '1', got {text!r}")
    if text == "-inf":
        return zero(semifield)
    if not _TROPICAL_TEXT.fullmatch(text):
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise ParseError(
            f"cannot parse {shown}: expected -inf, p or p/q with at most "
            f"{MAX_ENTRY_DIGITS} digits each"
        )
    try:
        if semifield is Semifield.TROPICAL:
            parsed = value(semifield, Fraction(text))
        else:
            parsed = value(semifield, int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None
    if format_value(parsed) != text:
        raise ParseError(f"{text!r} is not canonical (expected {format_value(parsed)!r})")
    return parsed
