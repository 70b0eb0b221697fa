"""Green's relation deciders and factor rank against brute-force oracles.

The oracles here are independent of the residuation implementation:
containment is checked by enumerating multiplier matrices, and boolean
factor rank by enumerating whole factorizations.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from greenmat import _boolspace
from greenmat import matrix as mx
from greenmat import semiring as sr
from greenmat.green import (
    GreenRelation,
    RankMethod,
    MAX_RANK_SEARCH_SIDE,
    RankUndetermined,
    SearchSpaceExceeded,
    UndecidableOverSemifield,
    boolean_rank_of_columns,
    factor_rank,
    has_factor_rank_at_most_one,
    left_residual,
    relate,
    relate_witness,
)
from greenmat.matrix import all_boolean_matrices, identity, mat_mul, unit_matrix, zero_matrix
from greenmat.semiring import MINUS_INF, Semifield, natural_leq

B, T, TI = Semifield.BOOLEAN, Semifield.TROPICAL, Semifield.TROPICAL_INT
GR = GreenRelation

MATS2 = list(all_boolean_matrices(2, 2))


def oracle_exists_left_multiplier(a, b):
    """Independent oracle for leqL: search all S with S*b = a."""
    return any(mat_mul(s, b) == a for s in all_boolean_matrices(a.rows, b.rows))


def oracle_boolean_rank(a):
    """Independent boolean factor rank: enumerate all B, C with B*C = a."""
    if mx.is_zero_matrix(a):
        return 0
    for k in range(1, min(a.rows, a.cols) + 1):
        for bm in all_boolean_matrices(a.rows, k):
            for cm in all_boolean_matrices(k, a.cols):
                if mat_mul(bm, cm) == a:
                    return k
    raise AssertionError("no factorization found")


@functools.lru_cache(maxsize=None)
def oracle_bounded_witness(a, b, rel):
    """Independent D / leqJ / J witnesses: the first intermediate or
    multipliers in the enumeration order of all_boolean_matrices."""
    n = a.rows
    if rel is GR.D:
        for c in all_boolean_matrices(n, n):
            if relate(a, c, GR.R) and relate(c, b, GR.L):
                return {"c": c}
        return None
    if rel is GR.LEQ_J:
        for s in all_boolean_matrices(n, n):
            sb = mat_mul(s, b)
            for t in all_boolean_matrices(n, n):
                if mat_mul(sb, t) == a:
                    return {"s": s, "t": t}
        return None
    fwd = oracle_bounded_witness(a, b, GR.LEQ_J)
    bwd = None if fwd is None else oracle_bounded_witness(b, a, GR.LEQ_J)
    if bwd is None:
        return None
    return {"s_forward": fwd["s"], "t_forward": fwd["t"],
            "s_backward": bwd["s"], "t_backward": bwd["t"]}


def oracle_leq_j_bits(sp, a, b):
    """oracle_bounded_witness for leqJ on matrix indices, through
    BooleanSpace.mul: the same enumeration, fast enough for n = 3."""
    for s in range(sp.size):
        sb = sp.mul(s, b)
        for t in range(sp.size):
            if sp.mul(sb, t) == a:
                return s, t
    return None


def oracle_relation(a, b, rel):
    """Every relation from multiplier search and the bounded oracle."""
    leq_l = oracle_exists_left_multiplier
    def leq_r(x, y):
        return leq_l(mx.transpose(x), mx.transpose(y))
    return {
        GR.LEQ_L: lambda: leq_l(a, b),
        GR.LEQ_R: lambda: leq_r(a, b),
        GR.L: lambda: leq_l(a, b) and leq_l(b, a),
        GR.R: lambda: leq_r(a, b) and leq_r(b, a),
        GR.H: lambda: leq_l(a, b) and leq_l(b, a) and leq_r(a, b) and leq_r(b, a),
    }.get(rel, lambda: oracle_bounded_witness(a, b, rel) is not None)()


def witness_holds(a, b, rel, w):
    """The multipliers of a residuation witness realize the relation."""
    mul = mat_mul
    checks = {
        GR.LEQ_L: lambda: mul(w["s"], b) == a,
        GR.LEQ_R: lambda: mul(b, w["t"]) == a,
        GR.L: lambda: mul(w["s_forward"], b) == a and mul(w["s_backward"], a) == b,
        GR.R: lambda: mul(b, w["t_forward"]) == a and mul(a, w["t_backward"]) == b,
    }
    if rel is GR.H:
        return checks[GR.L]() and checks[GR.R]()
    return checks[rel]()


def entrywise_leq(x, y):
    return all(
        natural_leq(a, b) for ra, rb in zip(x.entries, y.entries) for a, b in zip(ra, rb)
    )


def trop(rows):
    return mx.from_rows(T, rows)


class TestResidual:
    def test_tropical_1x1(self):
        assert left_residual(trop([[0]]), trop([[0]])) == trop([[0]])

    def test_boolean_example_attains_equality(self):
        a = mx.from_rows(B, [[1, 1], [0, 0]])
        b = mx.from_rows(B, [[1, 1], [1, 1]])
        s = left_residual(a, b)
        assert s == mx.from_rows(B, [[1, 1], [0, 0]])
        assert mat_mul(s, b) == a

    def test_identity_divisor_returns_the_matrix(self):
        a = trop([[1, -2], [MINUS_INF, 3]])
        assert left_residual(a, identity(T, 2)) == a

    @settings(max_examples=60)
    @given(st.data())
    def test_greatest_subsolution_boolean(self, data):
        a = data.draw(st.sampled_from(MATS2))
        b = data.draw(st.sampled_from(MATS2))
        star = left_residual(a, b)
        assert entrywise_leq(mat_mul(star, b), a)
        for s in MATS2:
            if entrywise_leq(mat_mul(s, b), a):
                assert entrywise_leq(s, star)

    @settings(max_examples=40)
    @given(st.data())
    def test_greatest_subsolution_tropical(self, data):
        entry = st.one_of(
            st.just(MINUS_INF),
            st.fractions(min_value=-20, max_value=20, max_denominator=8),
        )
        rows = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
        a = trop(data.draw(rows))
        b = trop(data.draw(rows))
        sp = data.draw(rows)
        star = left_residual(a, b)
        assert entrywise_leq(mat_mul(star, b), a)
        s = trop(sp)
        # column j of the residual is a projected top element whenever row j
        # of b is all zero; the greatest-subsolution bound is vacuous there
        meaningful = [
            j
            for j in range(b.rows)
            if any(not sr.is_zero(x) for x in b.entries[j])
        ]
        if entrywise_leq(mat_mul(s, b), a):
            for i in range(s.rows):
                for j in meaningful:
                    assert natural_leq(s.entries[i][j], star.entries[i][j])


class TestRelate:
    def test_zero_below_everything(self):
        z = zero_matrix(B, 2, 2)
        for a in MATS2:
            assert relate(z, a, GR.LEQ_L)
            assert relate(z, a, GR.LEQ_R)

    def test_boolean_l_example(self):
        a = mx.from_rows(B, [[1, 1], [0, 0]])  # E11 + E12
        ones = mx.from_rows(B, [[1, 1], [1, 1]])
        assert relate(a, ones, GR.L)
        # agreement with the multiplier-search oracle, both directions
        assert oracle_exists_left_multiplier(a, ones)
        assert oracle_exists_left_multiplier(ones, a)

    def test_unit_d_relation_via_intermediate(self):
        e11 = unit_matrix(2, 1, 1, sr.one(B))
        e22 = unit_matrix(2, 2, 2, sr.one(B))
        w = relate_witness(e11, e22, GR.D)
        assert w is not None
        c = w["c"]
        assert relate(e11, c, GR.R) and relate(c, e22, GR.L)

    def test_tropical_h_fails_on_rank_gap(self):
        assert not relate(identity(T, 2), trop([[0, 0], [0, 1]]), GR.H)

    def test_leq_witness_reconstructs(self):
        ones = mx.from_rows(B, [[1, 1], [1, 1]])
        rowwise = mx.from_rows(B, [[1, 1], [0, 0]])
        w = relate_witness(rowwise, ones, GR.LEQ_L)
        assert mat_mul(w["s"], ones) == rowwise
        colwise = mx.from_rows(B, [[1, 0], [1, 0]])
        wr = relate_witness(colwise, ones, GR.LEQ_R)
        assert mat_mul(ones, wr["t"]) == colwise

    def test_leq_j_witness_reconstructs(self):
        e11 = unit_matrix(2, 1, 1, sr.one(B))
        ones = mx.from_rows(B, [[1, 1], [1, 1]])
        w = relate_witness(e11, ones, GR.LEQ_J)
        assert mat_mul(mat_mul(w["s"], ones), w["t"]) == e11

    def test_oracle_equivalence_all_pairs(self):
        """Residuation verdicts match multiplier search on all 256 pairs."""
        for a in MATS2:
            for b in MATS2:
                expected = oracle_exists_left_multiplier(a, b)
                assert relate(a, b, GR.LEQ_L) == expected
                expected_r = oracle_exists_left_multiplier(
                    mx.transpose(a), mx.transpose(b)
                )
                assert relate(a, b, GR.LEQ_R) == expected_r

    def test_preorder_and_equivalence_structure(self):
        leq = {
            (i, j): relate(a, b, GR.LEQ_L)
            for i, a in enumerate(MATS2)
            for j, b in enumerate(MATS2)
        }
        n = len(MATS2)
        for i in range(n):
            assert leq[(i, i)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if leq[(i, j)] and leq[(j, k)]:
                        assert leq[(i, k)]
        ell = {
            (i, j): leq[(i, j)] and leq[(j, i)] for i in range(n) for j in range(n)
        }
        for i in range(n):
            for j in range(n):
                assert ell[(i, j)] == ell[(j, i)]

    def test_implication_chain_exhaustive(self):
        """L implies D implies J, and leqL implies leqJ, over all 2x2 pairs."""
        for a in MATS2:
            for b in MATS2:
                if relate(a, b, GR.L):
                    assert relate(a, b, GR.D)
                if relate(a, b, GR.D):
                    assert relate(a, b, GR.J)
                if relate(a, b, GR.LEQ_L):
                    assert relate(a, b, GR.LEQ_J)

    def test_bounded_relations_refuse_tropical(self):
        a = trop([[0, 0], [0, 1]])
        for rel in (GR.D, GR.J, GR.LEQ_J):
            with pytest.raises(UndecidableOverSemifield):
                relate(a, a, rel)

    def test_bounded_relations_refuse_large_sizes(self):
        big = zero_matrix(B, 4, 4)
        with pytest.raises(SearchSpaceExceeded):
            relate(big, big, GR.D)

    def test_non_square_rejected(self):
        with pytest.raises(mx.DimensionMismatch):
            relate(zero_matrix(B, 2, 3), zero_matrix(B, 2, 3), GR.L)


class TestBoundedByKeys:
    """D, J and leqJ decided from row- and column-space keys give the
    verdicts and witnesses of the Matrix-level brute-force search."""

    @pytest.mark.parametrize("n", (1, 2))
    def test_every_pair_every_relation_matches_oracle(self, n):
        mats = list(all_boolean_matrices(n, n))
        for a in mats:
            for b in mats:
                for rel in GR:
                    got = relate_witness(a, b, rel)
                    assert (got is not None) == oracle_relation(a, b, rel), (a, b, rel)
                    if rel in (GR.D, GR.J, GR.LEQ_J):
                        assert got == oracle_bounded_witness(a, b, rel), (a, b, rel)
                    elif got is not None:
                        assert witness_holds(a, b, rel, got), (a, b, rel)

    def test_witnesses_match_oracle_sampled_n3(self):
        sp = _boolspace.space(3)
        rng = random.Random(31)
        perms = (0o124, 0o142, 0o214)  # permutation matrices, one row per octal digit
        for k in range(6):
            b = rng.randrange(sp.size)
            a = rng.randrange(sp.size)
            if k % 3 == 1:  # a = s*b*t, so leqJ holds
                a = sp.mul(sp.mul(a, b), rng.randrange(sp.size))
            elif k % 3 == 2:  # a = P*b*Q, so D and J hold
                a = sp.mul(sp.mul(rng.choice(perms), b), rng.choice(perms))
            ma, mb = sp.matrix_of(a), sp.matrix_of(b)
            assert relate_witness(ma, mb, GR.D) == oracle_bounded_witness(ma, mb, GR.D), (a, b)
            fwd, bwd = oracle_leq_j_bits(sp, a, b), oracle_leq_j_bits(sp, b, a)
            want_leq = None if fwd is None else {"s": sp.matrix_of(fwd[0]), "t": sp.matrix_of(fwd[1])}
            assert relate_witness(ma, mb, GR.LEQ_J) == want_leq, (a, b)
            want_j = None
            if fwd is not None and bwd is not None:
                want_j = {"s_forward": sp.matrix_of(fwd[0]), "t_forward": sp.matrix_of(fwd[1]),
                          "s_backward": sp.matrix_of(bwd[0]), "t_backward": sp.matrix_of(bwd[1])}
            assert relate_witness(ma, mb, GR.J) == want_j, (a, b)

    def test_lying_keys_fail_reverification(self, monkeypatch):
        liar = _boolspace.BooleanSpace(2)
        liar.row_keys = [1] * liar.size  # every row space claimed equal
        liar.col_keys = [1] * liar.size  # and every column space
        monkeypatch.setattr(_boolspace, "space", lambda n: liar)
        e11 = unit_matrix(2, 1, 1, sr.one(B))
        z = zero_matrix(B, 2, 2)
        with pytest.raises(AssertionError):
            relate_witness(e11, z, GR.D)
        with pytest.raises(AssertionError):
            relate_witness(e11, z, GR.LEQ_J)
        with pytest.raises(AssertionError):
            relate_witness(e11, z, GR.J)

    def test_lying_searches_fail_reverification(self, monkeypatch):
        e11 = unit_matrix(2, 1, 1, sr.one(B))
        e22 = unit_matrix(2, 2, 2, sr.one(B))
        sp = _boolspace.space(2)
        # c = 0 is not R-related to e11; (s, t) = (0, 0) gives 0, not e11
        monkeypatch.setattr(sp, "d_witness", lambda a, b: 0)
        monkeypatch.setattr(sp, "leq_j_witness", lambda a, b: (0, 0))
        with pytest.raises(AssertionError, match="D witness"):
            relate_witness(e11, e22, GR.D)
        with pytest.raises(AssertionError, match="leqJ witness"):
            relate_witness(e11, e22, GR.LEQ_J)


class TestFactorRank:
    def test_zero_matrix(self):
        r = factor_rank(zero_matrix(T, 3, 3))
        assert (r.value, r.method) == (0, RankMethod.ZERO_MATRIX)

    def test_all_ones_boolean(self):
        r = factor_rank(mx.from_rows(B, [[1, 1], [1, 1]]))
        assert (r.value, r.method) == (1, RankMethod.RANK_ONE_WITNESS)

    def test_tropical_two_by_two_criterion(self):
        r = factor_rank(trop([[0, 0], [0, 1]]))
        assert (r.value, r.method) == (2, RankMethod.TWO_BY_TWO_CRITERION)

    def test_tropical_rank_one_full_support(self):
        # rows are tropical multiples of each other: ad = bc
        r = factor_rank(trop([[0, 1], [2, 3]]))
        assert r.value == 1

    def test_rank_undetermined_raises(self):
        with pytest.raises(RankUndetermined):
            factor_rank(trop([[0, 0, 0], [0, 1, 0], [0, 0, 2]]))

    def test_rank_le_one_needs_rectangular_support(self):
        assert not has_factor_rank_at_most_one(trop([[0, MINUS_INF], [MINUS_INF, 0]]))
        assert has_factor_rank_at_most_one(trop([[0, 1], [MINUS_INF, MINUS_INF]]))

    def test_boolean_rank_matches_oracle_2x2(self):
        for a in MATS2:
            assert factor_rank(a).value == oracle_boolean_rank(a)

    def test_boolean_rank_matches_oracle_2x3(self):
        for a in all_boolean_matrices(2, 3):
            assert factor_rank(a).value == oracle_boolean_rank(a)

    def test_boolean_rank_three_needs_full_search(self):
        # the 3x3 "not-equal" matrix: zero diagonal, ones elsewhere, rank 3
        a = mx.from_rows(B, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        r = factor_rank(a)
        assert (r.value, r.method) == (3, RankMethod.EXHAUSTIVE_BOOLEAN)

    def test_rank_of_columns_matches_factor_rank_all_3x3(self):
        # independent oracle: rank <= k iff m is an OR of k outer products u*v
        outer = {
            sum(v << (3 * i) for i in range(3) if (u >> i) & 1)
            for u in range(8) for v in range(8)
        }
        at_most = [{0}, outer, {x | y for x in outer for y in outer}]
        sp = _boolspace.space(3)
        for m in range(sp.size):
            columns = [sum(((m >> (3 * i + j)) & 1) << i for i in range(3)) for j in range(3)]
            rank = boolean_rank_of_columns(columns, 3)
            assert rank == factor_rank(sp.matrix_of(m)).value, m
            assert rank == next((k for k in range(3) if m in at_most[k]), 3), m

    @pytest.mark.parametrize("rows, cols", [(2, 7), (3, 6), (4, 5)])
    def test_boolean_rank_is_transpose_invariant(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        for _ in range(20):
            a = mx.from_rows(B, [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])
            assert factor_rank(a) == factor_rank(mx.transpose(a))

    def test_boolean_rank_search_limit(self):
        side = MAX_RANK_SEARCH_SIDE + 1
        with pytest.raises(SearchSpaceExceeded):
            factor_rank(identity(B, side))
        # zero and rank-one matrices never reach the search
        assert factor_rank(zero_matrix(B, side, side)).value == 0
        assert factor_rank(mx.from_rows(B, [[1] * side] * side)).value == 1
        # the limit is on the shorter side: a 5 x 12 search runs
        five = mx.from_rows(B, [[int(j % 5 == i) for j in range(12)] for i in range(5)])
        assert factor_rank(five).value == factor_rank(mx.transpose(five)).value == 5

    def test_rank_invariant_on_classes_2x2(self):
        for a in MATS2:
            for b in MATS2:
                for rel in (GR.L, GR.R, GR.H):
                    if relate(a, b, rel):
                        assert factor_rank(a).value == factor_rank(b).value

    def test_rank_respects_j_order_2x2(self):
        for a in MATS2:
            for b in MATS2:
                if relate(a, b, GR.LEQ_J):
                    assert factor_rank(a).value <= factor_rank(b).value
