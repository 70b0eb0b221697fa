"""Element-level arithmetic: worked examples plus algebraic laws."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greenmat import semiring as sr
from greenmat.semiring import MINUS_INF, MixedSemifields, NotInvertible, ParseError, Semifield

B, T, TI = Semifield.BOOLEAN, Semifield.TROPICAL, Semifield.TROPICAL_INT
ALL = (B, T, TI)


def booleans():
    return st.integers(0, 1).map(lambda b: sr.value(B, b))


def tropicals(allow_zero=True):
    nonzero = st.fractions(
        min_value=-(10**6), max_value=10**6, max_denominator=1000
    ).map(lambda f: sr.value(T, f))
    if not allow_zero:
        return nonzero
    return st.one_of(nonzero, st.just(sr.zero(T)))


def tropical_ints(allow_zero=True):
    nonzero = st.integers(-(10**6), 10**6).map(lambda k: sr.value(TI, k))
    if not allow_zero:
        return nonzero
    return st.one_of(nonzero, st.just(sr.zero(TI)))


def values_over(sf, allow_zero=True):
    if sf is B:
        return booleans() if allow_zero else st.just(sr.one(B))
    if sf is T:
        return tropicals(allow_zero)
    return tropical_ints(allow_zero)


class TestExamples:
    def test_boolean_one_plus_one(self):
        assert sr.add(sr.one(B), sr.one(B)) == sr.one(B)

    def test_tropical_additive_identity(self):
        assert sr.add(sr.value(T, 3), sr.zero(T)) == sr.value(T, 3)

    def test_tropical_max_of_rationals(self):
        assert sr.add(sr.value(T, Fraction(1, 2)), sr.value(T, Fraction(2, 3))) == sr.value(
            T, Fraction(2, 3)
        )

    def test_boolean_product(self):
        assert sr.mul(sr.one(B), sr.one(B)) == sr.one(B)

    def test_tropical_product_is_sum(self):
        assert sr.mul(sr.value(T, 2), sr.value(T, 3)) == sr.value(T, 5)

    def test_zero_annihilates(self):
        assert sr.mul(sr.value(T, 7), sr.zero(T)) == sr.zero(T)

    def test_inverse_is_negation(self):
        assert sr.inv(sr.value(T, 3)) == sr.value(T, -3)

    def test_boolean_inverse(self):
        assert sr.inv(sr.one(B)) == sr.one(B)

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertible):
            sr.inv(sr.zero(T))

    def test_sqrt_halves(self):
        assert sr.try_sqrt(sr.value(T, 3)) == sr.value(T, Fraction(3, 2))

    def test_sqrt_of_odd_integer_is_missing(self):
        assert sr.try_sqrt(sr.value(TI, 3)) is None

    def test_boolean_sqrt(self):
        assert sr.try_sqrt(sr.one(B)) == sr.one(B)

    def test_sqrt_of_zero_raises(self):
        with pytest.raises(NotInvertible):
            sr.try_sqrt(sr.zero(TI))

    def test_mixed_semifields_rejected(self):
        with pytest.raises(MixedSemifields):
            sr.add(sr.one(B), sr.one(T))
        with pytest.raises(MixedSemifields):
            sr.mul(sr.one(T), sr.one(TI))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            sr.value(T, 0.5)

    @pytest.mark.parametrize(
        "sf, raw", [(B, 1.0), (T, True), (TI, True), (T, "1/2"), (TI, "1/2")]
    )
    def test_inexact_payloads_rejected(self, sf, raw):
        with pytest.raises(TypeError, match=f"^{sf.value} payload must be an int"):
            sr.value(sf, raw)

    def test_boolean_accepts_int_and_bool(self):
        assert sr.value(B, True) == sr.value(B, 1) == sr.one(B)
        assert sr.format_value(sr.value(B, True)) == "1"
        assert sr.value(B, False) == sr.zero(B)


@pytest.mark.parametrize("sf", ALL)
class TestLaws:
    def test_add_commutes(self, sf):
        @given(values_over(sf), values_over(sf))
        def inner(x, y):
            assert sr.add(x, y) == sr.add(y, x)

        inner()

    def test_mul_commutes_and_distributes(self, sf):
        @given(values_over(sf), values_over(sf), values_over(sf))
        def inner(x, y, z):
            assert sr.mul(x, y) == sr.mul(y, x)
            assert sr.mul(x, sr.add(y, z)) == sr.add(sr.mul(x, y), sr.mul(x, z))
            assert sr.mul(sr.add(y, z), x) == sr.add(sr.mul(y, x), sr.mul(z, x))

        inner()

    def test_associativity(self, sf):
        @given(values_over(sf), values_over(sf), values_over(sf))
        def inner(x, y, z):
            assert sr.add(sr.add(x, y), z) == sr.add(x, sr.add(y, z))
            assert sr.mul(sr.mul(x, y), z) == sr.mul(x, sr.mul(y, z))

        inner()

    def test_identities(self, sf):
        @given(values_over(sf))
        def inner(x):
            assert sr.add(x, sr.zero(sf)) == x
            assert sr.mul(x, sr.one(sf)) == x
            assert sr.mul(x, sr.zero(sf)) == sr.zero(sf)

        inner()

    def test_idempotent_addition(self, sf):
        @given(values_over(sf))
        def inner(x):
            assert sr.add(x, x) == x

        inner()

    def test_anti_negativity(self, sf):
        @given(values_over(sf), values_over(sf))
        def inner(x, y):
            if sr.add(x, y) == sr.zero(sf):
                assert sr.is_zero(x) and sr.is_zero(y)

        inner()

    def test_inverses(self, sf):
        @given(values_over(sf, allow_zero=False))
        def inner(x):
            assert sr.mul(x, sr.inv(x)) == sr.one(sf)
            assert sr.inv(sr.inv(x)) == x

        inner()

    def test_sqrt_squares_back(self, sf):
        @given(values_over(sf, allow_zero=False))
        def inner(x):
            s = sr.try_sqrt(x)
            if s is not None:
                assert sr.mul(s, s) == x

        inner()


class TestTextForms:
    @pytest.mark.parametrize(
        "sf,text",
        [
            (B, "0"),
            (B, "1"),
            (T, "-inf"),
            (T, "0"),
            (T, "-3/2"),
            (T, "1000000"),
            (TI, "-inf"),
            (TI, "-7"),
        ],
    )
    def test_round_trip(self, sf, text):
        assert sr.format_value(sr.parse_value(sf, text)) == text

    @pytest.mark.parametrize(
        "sf,text",
        [
            (B, "2"),
            (B, "-inf"),
            (B, ""),
            (T, "2/4"),
            (T, "3/1"),
            (T, "-0"),
            (T, "0.5"),
            (T, "+3"),
            (T, " 1"),
            (T, "1e3"),
            (T, "inf"),
            (TI, "1/2"),
            (TI, "007"),
        ],
    )
    def test_non_canonical_rejected(self, sf, text):
        with pytest.raises(ParseError):
            sr.parse_value(sf, text)

    def test_parse_format_inverse_property(self):
        @given(tropicals())
        def inner(x):
            assert sr.parse_value(T, sr.format_value(x)) == x

        inner()

    def test_minus_inf_is_a_singleton_tag(self):
        assert sr.zero(T).payload is MINUS_INF
        assert sr.zero(TI).payload is MINUS_INF


def _round_trip_parse(sf, text):
    """parse_value over a tropical carrier by the text round trip alone: the
    shape check, then the value built from Fraction(text) (int(text) over
    TROPICAL_INT) must format back to the text."""
    if text == "-inf":
        return sr.zero(sf)
    if not sr._TROPICAL_TEXT.fullmatch(text):
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise ParseError(
            f"cannot parse {shown}: expected -inf, p or p/q with at most "
            f"{sr.MAX_ENTRY_DIGITS} digits each"
        )
    try:
        parsed = sr.value(sf, Fraction(text) if sf is T else int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None
    if sr.format_value(parsed) != text:
        raise ParseError(f"{text!r} is not canonical (expected {sr.format_value(parsed)!r})")
    return parsed


_ENTRY_TEXT = (
    st.text(alphabet="-0123456789/\u0663\u00b2 ", max_size=12)
    | st.integers(-(10**12), 10**12).map(str)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(-2, 99))
)


@settings(max_examples=400)
@given(st.sampled_from([T, TI]), _ENTRY_TEXT)
def test_parse_accepts_exactly_canonical_text_with_round_trip_messages(sf, text):
    try:
        canonical = sr.format_value(sr.value(sf, Fraction(text) if sf is T else int(text))) == text
    except (ValueError, ZeroDivisionError):
        canonical = False
    try:
        want = _round_trip_parse(sf, text)
    except ParseError as exc:
        assert not canonical
        with pytest.raises(ParseError) as caught:
            sr.parse_value(sf, text)
        assert str(caught.value) == str(exc)
    else:
        assert canonical
        got = sr.parse_value(sf, text)
        assert got == want and type(got.payload) is type(want.payload)


@pytest.mark.parametrize(
    "sf, zero_payload, one_payload", [(B, 0, 1), (T, MINUS_INF, Fraction(0)), (TI, MINUS_INF, 0)]
)
def test_zero_and_one_are_shared_frozen_values(sf, zero_payload, one_payload):
    for shared, payload in ((sr.zero(sf), zero_payload), (sr.one(sf), one_payload)):
        assert shared == sr.SemifieldValue(sf, payload)
        assert type(shared.payload) is type(payload)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.payload = payload
    assert sr.zero(sf) is sr.zero(sf) and sr.one(sf) is sr.one(sf)
