"""Dense and monomial matrices: examples, round trips, exhaustive Cor-style checks."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greenmat import matrix as mx
from greenmat import semiring as sr
from greenmat.matrix import (
    DimensionMismatch,
    IndexOutOfRange,
    NotMonomial,
    ZeroCoefficient,
    all_boolean_matrices,
    identity,
    mat_mul,
    monomial_expand,
    monomial_inverse,
    transpose,
    try_monomial,
    unit_matrix,
    zero_matrix,
)
from greenmat.semiring import MINUS_INF, MixedSemifields, ParseError, Semifield

B, T = Semifield.BOOLEAN, Semifield.TROPICAL


def bool_matrices(n=2, m=2):
    return st.sampled_from(list(all_boolean_matrices(n, m)))


def trop_entries():
    return st.one_of(
        st.just(MINUS_INF),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
    )


def trop_matrices(n=2, m=2):
    return st.lists(
        st.lists(trop_entries(), min_size=m, max_size=m), min_size=n, max_size=n
    ).map(lambda rows: mx.from_rows(T, rows))


class TestMatMul:
    def test_boolean_product_example(self):
        a = mx.from_rows(B, [[1, 1], [0, 1]])
        b = mx.from_rows(B, [[1, 0], [1, 1]])
        assert mat_mul(a, b) == mx.from_rows(B, [[1, 1], [1, 1]])

    def test_tropical_identity_is_neutral(self):
        a = mx.from_rows(T, [[1, MINUS_INF], [3, -2]])
        assert mat_mul(identity(T, 2), a) == a
        assert mat_mul(a, identity(T, 2)) == a

    def test_zero_annihilates(self):
        a = mx.from_rows(B, [[1, 0], [1, 1]])
        z = zero_matrix(B, 2, 2)
        assert mat_mul(z, a) == z
        assert mat_mul(a, z) == z

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(zero_matrix(B, 2, 3), zero_matrix(B, 2, 3))

    def test_mixed_semifields(self):
        with pytest.raises(MixedSemifields):
            mat_mul(zero_matrix(B, 2, 2), zero_matrix(T, 2, 2))

    @settings(max_examples=40)
    @given(bool_matrices(), bool_matrices(), bool_matrices())
    def test_associative_boolean(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    @settings(max_examples=40)
    @given(trop_matrices(), trop_matrices(), trop_matrices())
    def test_associative_tropical(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def folded_product(a, b):
    """The reference product: each entry a fold of semiring add and mul."""
    entries = tuple(
        tuple(functools.reduce(sr.add, map(sr.mul, row, col)) for col in zip(*b.entries))
        for row in a.entries
    )
    return mx.Matrix(a.semifield, a.rows, b.cols, entries)


def assert_same_product(a, b):
    got, expected = mat_mul(a, b), folded_product(a, b)
    assert got == expected
    # equal payloads of one type, so the JSON forms agree too
    assert [[type(e.payload) for e in row] for row in got.entries] == [
        [type(e.payload) for e in row] for row in expected.entries
    ]


@st.composite
def tropical_factors(draw):
    """Two conformable tropical matrices of sides 1 to 4 with mixed
    denominators, each with maybe one all -inf line."""
    sf = draw(st.sampled_from((T, Semifield.TROPICAL_INT)))
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    if sf is T:
        scalar = st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 7, 12)))
    else:
        scalar = st.integers(-60, 60)
    entry = st.one_of(st.just(MINUS_INF), scalar)

    def grid(r, c):
        g = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        line = draw(st.sampled_from((None, "row", "col")))
        if line == "row":
            g[draw(st.integers(0, r - 1))] = [MINUS_INF] * c
        elif line == "col":
            k = draw(st.integers(0, c - 1))
            for row in g:
                row[k] = MINUS_INF
        return mx.from_rows(sf, g)

    return grid(rows, inner), grid(inner, cols)


class TestMatMulMatchesFold:
    """`mat_mul` folds tropical payloads directly; it must equal the fold of
    semiring add and mul, on which the residuation decider re-verifies."""

    def test_all_boolean_2x2_pairs(self):
        mats = list(all_boolean_matrices(2, 2))
        for a in mats:
            for b in mats:
                assert_same_product(a, b)

    @settings(max_examples=100)
    @given(tropical_factors())
    def test_tropical_carriers(self, factors):
        assert_same_product(*factors)


class TestUnitsAndTranspose:
    def test_unit_matrix_boolean(self):
        assert unit_matrix(2, 1, 1, sr.one(B)) == mx.from_rows(B, [[1, 0], [0, 0]])

    def test_unit_matrix_tropical(self):
        assert unit_matrix(2, 1, 2, sr.value(T, 3)) == mx.from_rows(
            T, [[MINUS_INF, 3], [MINUS_INF, MINUS_INF]]
        )

    def test_unit_matrix_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unit_matrix(2, 3, 1, sr.one(B))

    def test_unit_matrix_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            unit_matrix(2, 1, 1, sr.zero(T))

    def test_transpose_swaps_units(self):
        assert transpose(unit_matrix(2, 1, 2, sr.one(B))) == unit_matrix(2, 2, 1, sr.one(B))

    def test_transpose_involution(self):
        @given(trop_matrices(2, 3))
        def inner(a):
            assert transpose(transpose(a)) == a

        inner()

    def test_transpose_fixes_diagonal(self):
        d = mx.from_rows(T, [[5, MINUS_INF], [MINUS_INF, -1]])
        assert transpose(d) == d


class TestMonomial:
    def test_swap_permutation(self):
        m = try_monomial(mx.from_rows(B, [[0, 1], [1, 0]]))
        assert m.perm == (1, 0)
        assert all(s == sr.one(B) for s in m.scale)

    def test_non_monomial_rejected(self):
        with pytest.raises(NotMonomial):
            try_monomial(mx.from_rows(B, [[1, 1], [0, 1]]))

    def test_tropical_diagonal(self):
        m = try_monomial(mx.from_rows(T, [[3, MINUS_INF], [MINUS_INF, -1]]))
        assert m.perm == (0, 1)
        assert m.scale == (sr.value(T, 3), sr.value(T, -1))

    def test_expand_recognize_round_trip(self):
        m = mx.MonomialMatrix(3, (2, 0, 1), tuple(sr.value(T, k) for k in (1, 2, 3)))
        assert try_monomial(monomial_expand(m)) == m

    def test_inverse_of_identity(self):
        m = mx.monomial_identity(B, 3)
        assert monomial_inverse(m) == m

    def test_inverse_of_tropical_scalar(self):
        m = mx.MonomialMatrix(1, (0,), (sr.value(T, 3),))
        inv = monomial_inverse(m)
        assert monomial_expand(inv) == mx.from_rows(T, [[-3]])
        assert mat_mul(monomial_expand(m), monomial_expand(inv)) == identity(T, 1)

    def test_pure_permutation_inverse(self):
        m = mx.MonomialMatrix(3, (1, 2, 0), tuple(sr.one(B) for _ in range(3)))
        inv = monomial_inverse(m)
        assert mat_mul(monomial_expand(m), monomial_expand(inv)) == identity(B, 3)
        assert mat_mul(monomial_expand(inv), monomial_expand(m)) == identity(B, 3)

    @settings(max_examples=60)
    @given(st.permutations(list(range(3))), st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=3, max_size=3))
    def test_inverse_is_two_sided(self, perm, scales):
        m = mx.MonomialMatrix(3, tuple(perm), tuple(sr.value(T, s) for s in scales))
        inv = monomial_inverse(m)
        assert mat_mul(monomial_expand(m), monomial_expand(inv)) == identity(T, 3)
        assert mat_mul(monomial_expand(inv), monomial_expand(m)) == identity(T, 3)

    def test_invertibles_are_exactly_monomials_2x2(self):
        """Exhaustive over the 16 boolean 2x2 matrices: two-sided invertibility
        by brute product search coincides with monomial recognition."""
        mats = list(all_boolean_matrices(2, 2))
        ident = identity(B, 2)
        invertible = set()
        for i, a in enumerate(mats):
            if any(mat_mul(a, b) == ident and mat_mul(b, a) == ident for b in mats):
                invertible.add(i)
        monomial = set()
        for i, a in enumerate(mats):
            try:
                try_monomial(a)
                monomial.add(i)
            except NotMonomial:
                pass
        assert invertible == monomial
        assert len(invertible) == 2  # the two permutation matrices


class TestJson:
    def test_round_trip(self):
        a = mx.from_rows(T, [[MINUS_INF, 3], [sr.value(T, 1).payload, -2]])
        assert mx.matrix_from_json(mx.matrix_to_json(a)) == a

    @settings(max_examples=60)
    @given(trop_matrices(3, 2))
    def test_round_trip_property(self, a):
        assert mx.matrix_from_json(mx.matrix_to_json(a)) == a

    @settings(max_examples=40)
    @given(bool_matrices(2, 3))
    def test_round_trip_property_boolean(self, a):
        assert mx.matrix_from_json(mx.matrix_to_json(a)) == a

    def test_strict_arity(self):
        obj = mx.matrix_to_json(zero_matrix(B, 2, 2))
        obj["entries"][0].append("1")
        with pytest.raises(ParseError):
            mx.matrix_from_json(obj)

    def test_strict_keys(self):
        obj = mx.matrix_to_json(zero_matrix(B, 2, 2))
        obj["extra"] = 1
        with pytest.raises(ParseError):
            mx.matrix_from_json(obj)

    def test_non_canonical_entry_text(self):
        obj = mx.matrix_to_json(zero_matrix(T, 1, 1))
        obj["entries"][0][0] = "2/4"
        with pytest.raises(ParseError):
            mx.matrix_from_json(obj)

    def test_bad_semifield_name(self):
        obj = mx.matrix_to_json(zero_matrix(B, 1, 1))
        obj["semifield"] = "binary"
        with pytest.raises(ParseError):
            mx.matrix_from_json(obj)

    def test_monomial_round_trip(self):
        m = mx.MonomialMatrix(2, (1, 0), (sr.value(T, 3), sr.value(T, -1)))
        assert mx.monomial_from_json(T, mx.monomial_to_json(m)) == m
