"""The bit-level and integer max-plus fast paths agree with the
reference deciders; the exhaustive suites lean on these equivalences."""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from greenmat import _boolspace, _tropfast, sampling
from greenmat import linear_maps as lm
from greenmat import matrix as mx
from greenmat.green import GreenRelation, relate
from greenmat.matrix import all_boolean_matrices, mat_mul
from greenmat.semiring import MINUS_INF, Semifield
from greenmat.verify import SuiteParams, run_suite

GR = GreenRelation
B, T, TI = Semifield.BOOLEAN, Semifield.TROPICAL, Semifield.TROPICAL_INT


class TestBoolspace:
    def test_indexing_matches_enumeration_order(self):
        sp = _boolspace.space(2)
        for idx, m in enumerate(all_boolean_matrices(2, 2)):
            assert sp.matrix_of(idx) == m
            assert _boolspace.matrix_to_index(m) == idx

    def test_mul_matches_mat_mul(self):
        sp = _boolspace.space(2)
        mats = list(all_boolean_matrices(2, 2))
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                assert sp.matrix_of(sp.mul(i, j)) == mat_mul(a, b)

    def test_leq_tables_match_reference_exhaustively_n2(self):
        sp = _boolspace.space(2)
        mats = list(all_boolean_matrices(2, 2))
        for rel in (GR.LEQ_L, GR.LEQ_R, GR.L, GR.R, GR.H, GR.D, GR.J, GR.LEQ_J):
            table = sp.table(rel)
            for i, a in enumerate(mats):
                for j, b in enumerate(mats):
                    assert ((table[i] >> j) & 1 == 1) == relate(a, b, rel), (rel, i, j)

    def test_leq_l_matches_reference_sampled_n3(self):
        sp = _boolspace.space(3)
        rng = random.Random(20240817)
        for _ in range(300):
            i, j = rng.randrange(sp.size), rng.randrange(sp.size)
            a, b = sp.matrix_of(i), sp.matrix_of(j)
            assert sp.leq_l(i, j) == relate(a, b, GR.LEQ_L)
            assert sp.leq_r(i, j) == relate(a, b, GR.LEQ_R)

    def test_act_on_bits(self):
        # the transposition of cells for n = 2 swaps the two off-diagonal bits
        cell_map = (0, 2, 1, 3)
        assert _boolspace.act_on_bits(cell_map, 0b0010) == 0b0100
        assert _boolspace.act_on_bits(cell_map, 0b1111) == 0b1111


_FAST_RELS = (GR.LEQ_L, GR.LEQ_R, GR.L, GR.R, GR.H)


def _matrix(sf, rows):
    return mx.from_rows(sf, [[MINUS_INF if x is None else x for x in row] for row in rows])


@st.composite
def _pairs(draw, sf, n, dens_a, dens_b, blank_line=False):
    """A pair (a, b) of n-by-n matrices: a is random or a one- or
    two-sided multiple of b, so related and unrelated pairs both occur.
    With blank_line, a row or column of b (and maybe of a) is all -inf."""
    def rows(dens):
        scalar = st.builds(Fraction, st.integers(-60, 60), st.sampled_from(dens))
        entry = st.one_of(st.none(), scalar)
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))

    def blank(grid, line, k):
        if line == "row":
            grid[k] = [None] * n
        else:
            for row in grid:
                row[k] = None
        return grid

    b_rows = rows(dens_b)
    if blank_line:
        line, k = draw(st.sampled_from(("row", "col"))), draw(st.integers(0, n - 1))
        b_rows = blank(b_rows, line, k)
    b = _matrix(sf, b_rows)
    kind = draw(st.sampled_from(("random", "left", "right", "two-sided")))
    if kind == "random":
        a = _matrix(sf, rows(dens_a))
    elif kind == "left":
        a = mat_mul(_matrix(sf, rows(dens_a)), b)
    elif kind == "right":
        a = mat_mul(b, _matrix(sf, rows(dens_a)))
    else:
        a = mat_mul(mat_mul(_matrix(sf, rows(dens_a)), b), _matrix(sf, rows(dens_a)))
    if blank_line and draw(st.booleans()):
        a_rows = [[None if e.payload is MINUS_INF else e.payload for e in r] for r in a.entries]
        line, k = draw(st.sampled_from(("row", "col"))), draw(st.integers(0, n - 1))
        a = _matrix(sf, blank(a_rows, line, k))
    return a, b


def _tropical_grids(n=2, ints=False):
    scalar = (
        st.integers(-50, 50)
        if ints
        else st.fractions(min_value=-50, max_value=50, max_denominator=12)
    )
    entry = st.one_of(st.none(), scalar)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


def _assert_decide_matches_reference(a, b):
    _, (ga, gb) = _tropfast.scale_grids(_tropfast.grid_of(a), _tropfast.grid_of(b))
    assert _tropfast.leq_l(ga, gb) == relate(a, b, GR.LEQ_L)
    for rel in _FAST_RELS:
        assert _tropfast.decide(ga, gb, rel) == relate(a, b, rel), rel


class TestTropfast:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: _pairs(T, n, (1, 2, 3, 4, 6), (5, 7, 10, 12))))
    def test_decide_matches_reference_different_denominators(self, pair):
        _assert_decide_matches_reference(*pair)

    @settings(max_examples=60, deadline=None)
    @given(_pairs(T, 1, (1, 2, 3), (1, 5, 7)))
    def test_decide_matches_reference_n1(self, pair):
        _assert_decide_matches_reference(*pair)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: _pairs(T, n, (1, 3), (2, 5), blank_line=True)))
    def test_decide_matches_reference_minus_inf_lines(self, pair):
        _assert_decide_matches_reference(*pair)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda n: _pairs(T, n, (1, 2, 3), (1, 4, 9), blank_line=True)),
        st.integers(1, 10**6),
    )
    def test_verdicts_are_scale_invariant(self, pair, k):
        a, b = pair
        _, (ga, gb) = _tropfast.scale_grids(_tropfast.grid_of(a), _tropfast.grid_of(b))

        def times_k(g):
            return tuple(tuple(None if x is None else k * x for x in row) for row in g)

        for rel in _FAST_RELS:
            assert _tropfast.decide(times_k(ga), times_k(gb), rel) == _tropfast.decide(ga, gb, rel)

    @settings(max_examples=150)
    @given(_tropical_grids(), _tropical_grids())
    def test_related_matches_reference(self, rows_a, rows_b):
        a, b = _matrix(T, rows_a), _matrix(T, rows_b)
        ga, gb = _tropfast.grid_of(a), _tropfast.grid_of(b)
        for rel in _FAST_RELS:
            assert _tropfast.related(ga, gb, rel) == relate(a, b, rel), rel

    @settings(max_examples=60)
    @given(_tropical_grids(ints=True), _tropical_grids(ints=True))
    def test_related_matches_reference_integer_carrier(self, rows_a, rows_b):
        a, b = _matrix(TI, rows_a), _matrix(TI, rows_b)
        ga, gb = _tropfast.grid_of(a), _tropfast.grid_of(b)
        assert _tropfast.scale_grids(ga, gb)[0] == 1
        for rel in _FAST_RELS:
            assert _tropfast.related(ga, gb, rel) == relate(a, b, rel), rel

    def test_apply_scaled_matches_reference(self):
        rng = random.Random(99)
        for sf in (T, TI):
            for n in (1, 2, 3):
                for _ in range(20):
                    u = _random_canonical_map(rng, sf, n)
                    cells, coeffs = _tropfast.map_rep(u)
                    scale_u, (icoeffs,) = _tropfast.scale_grids(coeffs)
                    x = sampling.random_matrix(rng, sf, n)
                    scale_x, (ix,) = _tropfast.scale_grids(_tropfast.grid_of(x))
                    common = lcm(scale_u, scale_x)
                    got = _tropfast.apply_scaled(
                        cells, icoeffs, ix, n, common // scale_u, common // scale_x
                    )
                    got_values = [
                        [None if v is None else Fraction(v, common) for v in row] for row in got
                    ]
                    expected = [
                        [None if e.payload is MINUS_INF else e.payload for e in row]
                        for row in lm.apply(u, x).entries
                    ]
                    assert got_values == expected

    def test_apply_map_matches_reference(self):
        rng = random.Random(99)
        for n in (2, 3):
            for _ in range(20):
                u = _random_canonical_map(rng, T, n)
                cells, coeffs = _tropfast.map_rep(u)
                x = sampling.random_matrix(rng, T, n)
                expected = lm.apply(u, x)
                got = _tropfast.apply_map(cells, coeffs, _tropfast.grid_of(x), n)
                assert _grids_equal(got, _tropfast.grid_of(expected))


def _random_canonical_map(rng, sf, n):
    p = sampling.random_monomial(rng, sf, n)
    q = sampling.random_monomial(rng, sf, n)
    return lm.synthesize(lm.CanonicalForm(p, q, rng.random() < 0.5), n, sf)


def _grids_equal(g1, g2):
    for r1, r2 in zip(g1, g2):
        for x, y in zip(r1, r2):
            if (x is None) != (y is None):
                return False
            if x is not None and x[0] * y[1] != y[0] * x[1]:
                return False
    return True


# SHA-256 of the JSON reports (as scripts/run_suites.py writes them) of the
# seeded corollaries suite, recorded with the (num, den) cross-multiplying
# kernel that the integer kernel replaced.
_COROLLARIES_GOLDEN = (
    (T, 2, 7, "04c2c700bf7b11f3c96ba23ff68bd2a6b440946e1a029b1b5e52f05a40ecbd30"),
    (T, 3, 11, "df82e3f4ca95bfa4bdd433efebe73e896be6ae6c3a211172bac3118ef5fe1452"),
    (TI, 3, 13, "22cdc8d2a6356d0be305764167647bb5685f83a756317ea6460895ba62e84833"),
)


def test_corollaries_reports_are_byte_identical_to_golden():
    for sf, n, seed, digest in _COROLLARIES_GOLDEN:
        params = SuiteParams(semifield=sf, n=n, seed=seed, trials=50, monomial_pairs=8)
        text = json.dumps(run_suite("corollaries", params).to_json_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (sf, n, seed)
