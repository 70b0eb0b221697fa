"""The bit-level and integer max-plus fast paths agree with the
reference deciders; the exhaustive suites lean on these equivalences."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from greenmat import _boolspace, _tropfast, cli, green, sampling, semiring
from greenmat import linear_maps as lm
from greenmat import matrix as mx
from greenmat.green import GreenRelation, UndecidableOverSemifield, relate
from greenmat.matrix import DimensionMismatch, all_boolean_matrices, mat_mul
from greenmat.semiring import MINUS_INF, MixedSemifields, Semifield
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
            assert sp.related(i, j, GR.LEQ_R) == relate(a, b, GR.LEQ_R)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_transposed_and_rows_match_per_cell_definitions(self, n):
        sp = _boolspace.BooleanSpace(n)
        cells = [(i, j) for i in range(n) for j in range(n)]
        for m in range(sp.size):
            bit = {(i, j): (m >> (i * n + j)) & 1 for i, j in cells}
            assert sp.transposed[m] == sum(bit[i, j] << (j * n + i) for i, j in cells)
            assert sp.rows[m] == tuple(
                sum(bit[i, j] << j for j in range(n)) for i in range(n)
            )

    @pytest.mark.parametrize("n", (2.0, True, "2"))
    def test_space_sizes_must_be_ints(self, n):
        with pytest.raises(ValueError, match="size must be an int"):
            _boolspace.BooleanSpace(n)
        with pytest.raises(ValueError, match="size must be an int"):
            _boolspace.space(n)

    def test_act_on_bits(self):
        # the transposition of cells for n = 2 swaps the two off-diagonal bits
        cell_map = (0, 2, 1, 3)
        assert _boolspace.act_on_bits(cell_map, 0b0010) == 0b0100
        assert _boolspace.act_on_bits(cell_map, 0b1111) == 0b1111


    @pytest.mark.parametrize("n", (1, 2))
    def test_composed_leq_j_table_matches_brute_force_closure(self, n):
        # a leqJ b iff a = s*b*t for some s, t, over all products directly
        sp = _boolspace.BooleanSpace(n)
        brute = [0] * sp.size
        for b in range(sp.size):
            for s in range(sp.size):
                sb = sp.mul(s, b)
                for t in range(sp.size):
                    brute[sp.mul(sb, t)] |= 1 << b
        assert sp.leq_j_table == brute

    def test_key_tables_match_brute_force_closure_n3(self):
        # a leqL b iff a = s*b and a leqR b iff a = b*t, over all products
        sp = _boolspace.BooleanSpace(3)
        leq_l, leq_r = [0] * sp.size, [0] * sp.size
        for b in range(sp.size):
            for s in range(sp.size):
                leq_l[sp.mul(s, b)] |= 1 << b
                leq_r[sp.mul(b, s)] |= 1 << b
        assert sp.leq_l_table == leq_l
        assert sp.leq_r_table == leq_r

        def equivalence(leq):
            return [
                sum(1 << b for b in range(sp.size) if (leq[a] >> b) & 1 and (leq[b] >> a) & 1)
                for a in range(sp.size)
            ]

        l_tab, r_tab = equivalence(leq_l), equivalence(leq_r)
        assert sp.l_table == l_tab and sp.r_table == r_tab
        # D = R o L: a R c and c L b for some c
        d_tab = [0] * sp.size
        for a in range(sp.size):
            for c in range(sp.size):
                if (r_tab[a] >> c) & 1:
                    d_tab[a] |= l_tab[c]
        assert sp.d_table == d_tab
        # J = D in a finite monoid
        assert sp.j_table == d_tab

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_witness_searches_agree_with_tables(self, n):
        sp = _boolspace.BooleanSpace(n)
        rng = random.Random(n)
        pairs = [(rng.randrange(sp.size), rng.randrange(sp.size)) for _ in range(200)]
        for a, b in pairs:
            c = sp.d_witness(a, b)
            assert (c is not None) == sp.related(a, b, GR.D)
            if c is not None:
                assert sp.related(a, c, GR.R) and sp.related(c, b, GR.L)
            st = sp.leq_j_witness(a, b)
            assert (st is not None) == sp.related(a, b, GR.LEQ_J)
            if st is not None:
                assert sp.mul(sp.mul(st[0], b), st[1]) == a

    def test_related_matches_reference_n2(self):
        sp = _boolspace.BooleanSpace(2)
        mats = [sp.matrix_of(m) for m in range(sp.size)]
        for rel in GR:
            for a in range(sp.size):
                for b in range(sp.size):
                    assert sp.related(a, b, rel) == relate(mats[a], mats[b], rel), (rel, a, b)

    def test_related_matches_reference_sampled_n3(self):
        sp = _boolspace.BooleanSpace(3)
        rng = random.Random(4096)
        perms = (0o124, 0o142, 0o214)  # permutation matrices, one row per octal digit
        for _ in range(150):
            i = rng.randrange(sp.size)
            # two thirds of the pairs are (a, P*a) or (a, a*P), so L or R holds
            j = (
                rng.randrange(sp.size),
                sp.mul(rng.choice(perms), i),
                sp.mul(i, rng.choice(perms)),
            )[rng.randrange(3)]
            for rel in (GR.L, GR.R, GR.H):
                assert sp.related(i, j, rel) == relate(sp.matrix_of(i), sp.matrix_of(j), rel)

    def test_first_violation_order_and_counts(self):
        # three elements; P relates 0->1 and 1->2; T swaps 1 and 2
        prem = [0b010, 0b100, 0b000]
        conc = [0b010, 0b000, 0b010]
        tmap = [0, 2, 1]
        # (0, 1): T gives (0, 2), not in conc; the first premise checked
        assert _boolspace.first_violation(((prem, conc),), tmap, False) == (1, (0, 1, 0, True))
        # strong: (0, 0) is checked first, then (0, 1) breaks
        assert _boolspace.first_violation(((prem, conc),), tmap, True) == (2, (0, 1, 0, True))
        # with a second direction whose conclusion holds everywhere, the
        # first direction still breaks first, at the same pair
        full = [0b111] * 3
        assert _boolspace.first_violation(((full, full), (prem, conc)), tmap, False) == (
            3, (0, 1, 1, True)
        )
        # nothing breaks: every premise is counted, or every visit in strong mode
        assert _boolspace.first_violation(((prem, prem),), [0, 1, 2], False) == (2, None)
        assert _boolspace.first_violation(((prem, prem),), [0, 1, 2], True) == (9, None)
        # strong converse: an unrelated pair whose images are related
        assert _boolspace.first_violation(((conc, full),), [0, 1, 2], True) == (1, (0, 0, 0, False))


#: SHA-256 of `greenmat eggbox --n N --format F` stdout, recorded before the
#: L- and R-classes were numbered by space keys.
EGGBOX_DIGESTS = {
    (1, "json"): "59a891f0ac7ff3048c7b807b865b76141a621eb194b9efbdfa8baf97ad280dc1",
    (1, "dot"): "24ad3962d02b3fee2e75a4d2c3d1c925e067e29cb14d3a7cebe4ce2d2722eb04",
    (2, "json"): "0e347bf153c0595b9e4d6880a95b2959d521a07352cffcd2594a25ae133ccedf",
    (2, "dot"): "160b3530a4bca5e3eafdb67a801e7b749be3da992b0de20acd31e0c16ef13be7",
    (3, "json"): "6c9d1e9d3762a141c3abe0777e905432b4f7b492ed42de709498eb5a120dde48",
    (3, "dot"): "2f6cde355e113aa3f42392b2622f6fde9f3175501c689b44cbedc060a555525d",
}


@pytest.mark.parametrize("n, fmt", sorted(EGGBOX_DIGESTS))
def test_eggbox_output_is_byte_identical_to_golden(capsys, n, fmt):
    _boolspace.space.cache_clear()
    assert cli.main(["eggbox", "--n", str(n), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EGGBOX_DIGESTS[(n, fmt)]


#: SHA-256 of each n = 3 relation table, every row written as 64
#: little-endian bytes (bit b of row a says whether a rel b), recorded
#: before D, J and leqJ were composed once per distinct row.
TABLE_DIGESTS_N3 = {
    GR.LEQ_L: "171fd195b4b92b02c53c4e88a4a0a16d192f4c10cffe170d885dcd2cfbee2a43",
    GR.LEQ_R: "c8b711fb65c29e49315d73cf179d08dd6d4ba090a0d5df47f161204137b78957",
    GR.LEQ_J: "fedfa78629b4f3c86d653762c4c8936189a49d2f566d3df98e391ce7e83b9521",
    GR.L: "f6ed64ee205ebf07a78027f2af38e21d86e4179e34a7d347704527d5f668b9f6",
    GR.R: "486eda0dcd6e072370a8ec7851846a1e59cd02e4440066f205820cfce14bb7d4",
    GR.H: "acdbf66d6736ffd98f021cffcdbcdc5cc88e9b9515756fca8a089c7d108dfaaa",
    GR.D: "d50d67cb085906928e7d108b0201d9a4be06dc47ad0e2c85e43d4a8a165836e8",
    GR.J: "d50d67cb085906928e7d108b0201d9a4be06dc47ad0e2c85e43d4a8a165836e8",
}


@pytest.mark.parametrize("rel", list(GR))
def test_n3_table_is_byte_identical_to_golden(rel):
    sp = _boolspace.BooleanSpace(3)
    data = b"".join(row.to_bytes(sp.size // 8, "little") for row in sp.table(rel))
    assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS_N3[rel]


def _shape_of_forms(n):
    """Cell maps of synthesize(CanonicalForm(P, Q, t)) over all permutation
    matrices P, Q, by shape."""
    perms = [mx.MonomialMatrix(n, p, (semiring.one(B),) * n) for p in itertools.permutations(range(n))]
    out = {"standard": set(), "transpose": set()}
    for p in perms:
        for q in perms:
            for shape, transposed in (("standard", False), ("transpose", True)):
                u = lm.synthesize(lm.CanonicalForm(p, q, transposed), n, B)
                out[shape].add(tuple(k * n + l for row in u.sigma for k, l in row))
    return out


@pytest.mark.parametrize("n", (1, 2, 3))
def test_cell_shape_matches_synthesized_forms(n):
    forms = _shape_of_forms(n)  # at n = 1 both shapes are the identity: "standard"
    assert len(forms["standard"]) == len(forms["transpose"]) == math.factorial(n) ** 2
    for cells in _boolspace.all_cell_maps(n):
        if cells in forms["standard"]:
            assert lm.cell_shape(cells, n) == "standard", cells
        elif cells in forms["transpose"]:
            assert lm.cell_shape(cells, n) == "transpose", cells
        else:
            assert lm.cell_shape(cells, n) is None, cells


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
    tr = _tropfast.transpose_grid
    assert _tropfast.leq_l(tr(ga), tr(gb)) == relate(a, b, GR.LEQ_R)
    for rel in _FAST_RELS:
        assert _tropfast.decide(ga, gb, rel) == relate(a, b, rel), rel


def _assert_images_match_reference(u, a, b):
    """The image function gives u(a), u(b) and their transposes at the
    pair's common scale with the map, and `decide_images` gives the
    verdicts of ``green.relate`` on u(a), u(b).  Returns ``(fc, fx)``."""
    smap = _tropfast.scale_map(u)
    scale_u, inv, coeffs = smap
    scaled = _tropfast.kernel_grids(a, b, GR.L)
    scale_ab, ga, gb = scaled
    common = lcm(scale_u, scale_ab)
    fc, fx = common // scale_u, common // scale_ab
    grids = _tropfast._image_kernel(u.n)(ga, gb, inv, coeffs, fc, fx)
    ua, ub = lm.apply(u, a), lm.apply(u, b)
    images = (ua, ub, mx.transpose(ua), mx.transpose(ub))
    for grid, image in zip(grids, images):
        lifted = [[None if v is None else Fraction(v, common) for v in row] for row in grid]
        assert lifted == _values(image)
    for rel in _FAST_RELS:
        assert _tropfast.decide_images(u.semifield, smap, scaled, rel) == relate(ua, ub, rel), rel
    return fc, fx


@functools.cache
def _small_grids_and_verdicts(n):
    """Every n-by-n grid with entries in {-inf, 0, 1}, and ``green.relate``'s
    verdict on every pair of them: ``table[rel][i][j]`` for grids i, j."""
    cells = itertools.product((None, 0, 1), repeat=n * n)
    grids = [tuple(c[i * n : (i + 1) * n] for i in range(n)) for c in cells]
    mats = [_matrix(TI, g) for g in grids]
    return grids, {rel: [[relate(a, b, rel) for b in mats] for a in mats] for rel in _FAST_RELS}


class TestTropfast:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(2, 3).flatmap(lambda n: _pairs(T, n, (1, 2, 3, 4, 6), (5, 7, 10, 12))),
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(_tropical_grids(n, ints=True), _tropical_grids(n, ints=True))
        ),
    )
    def test_decide_matches_reference_different_denominators(self, pair, wide):
        _assert_decide_matches_reference(*pair)
        # kernels of every width from 1 to 6, on a random pair, a leqL pair
        # (s*b, b) and a leqR pair (b*s, b)
        s, b = (_matrix(TI, rows) for rows in wide)
        for a in (s, mat_mul(s, b), mat_mul(b, s)):
            _assert_decide_matches_reference(a, b)

    @pytest.mark.parametrize("n", (1, 2))
    def test_decide_matches_reference_exhaustively(self, n):
        grids, table = _small_grids_and_verdicts(n)
        for (i, ga), (j, gb) in itertools.product(enumerate(grids), repeat=2):
            for rel in _FAST_RELS:
                assert _tropfast.decide(ga, gb, rel) == table[rel][i][j], (rel, ga, gb)

    def test_kernels_are_compiled_on_first_use_once_per_width(self):
        # a fresh interpreter, so no earlier test has filled the caches;
        # leqR and R run the leqL kernel of the same width on transposes,
        # and every map of one width shares one image function
        code = (
            "import greenmat, greenmat.cli, greenmat.verify\n"
            "from greenmat import _tropfast as tf\n"
            "from greenmat.green import GreenRelation as GR\n"
            "from greenmat.semiring import Semifield\n"
            "def sizes():\n"
            "    caches = (tf._leq_kernel, tf._image_kernel)\n"
            "    return tuple(c.cache_info().currsize for c in caches)\n"
            "seen = [sizes()]\n"
            "for n in (2, 3, 2):\n"
            "    g = tuple((0,) * n for _ in range(n))\n"
            "    for rel in (GR.H, GR.R, GR.LEQ_R):\n"
            "        tf.decide(g, g, rel)\n"
            "    smap = (1, tuple(range(n * n)), (0,) * (n * n))\n"
            "    for rel in (GR.H, GR.L):\n"
            "        tf.decide_images(Semifield.TROPICAL, smap, (1, g, g), rel)\n"
            "    seen.append(sizes())\n"
            "print(seen)\n"
        )
        src = pathlib.Path(_tropfast.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[(0, 0), (1, 1), (2, 2), (2, 2)]\n"

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

    def test_image_kernel_matches_reference(self):
        rng = random.Random(99)
        for sf in (T, TI):
            for n in (1, 2, 3):
                for _ in range(20):
                    u = _random_canonical_map(rng, sf, n)
                    x = sampling.random_matrix(rng, sf, n)
                    y = sampling.random_matrix(rng, sf, n)
                    _assert_images_match_reference(u, x, y)

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


def _assert_dispatch_matches_reference(a, b):
    for rel in _FAST_RELS:
        assert (_tropfast.relate_witness(a, b, rel) is not None) == relate(a, b, rel), rel


class TestKernelDispatch:
    """`_tropfast.relate_witness`, the one Matrix-pair kernel entry, and
    `_tropfast.decide_grids`, the one dispatcher for grid pairs, agree with
    the reference and send it everything the kernel does not take."""

    @pytest.mark.parametrize(
        "rows_a, rows_b",
        [
            ([[0]], [[Fraction(5, 3)]]),
            ([[None]], [[1]]),
            ([[None]], [[None]]),
            ([[None, None], [1, 2]], [[0, 1], [3, Fraction(1, 2)]]),
            ([[0, 1], [3, Fraction(1, 2)]], [[None, None], [1, 2]]),
            ([[None, 4], [None, Fraction(-1, 3)]], [[2, 4], [None, 0]]),
            ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 7]],
             [[Fraction(1, 7), 0], [Fraction(2, 9), Fraction(1, 11)]]),
            ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 7]],
             [[Fraction(2, 3), Fraction(1, 2)], [Fraction(11, 30), Fraction(43, 6)]]),
        ],
    )
    def test_matches_reference_on_edge_cases(self, rows_a, rows_b):
        """1x1, all -inf lines, mixed denominators (the last pair is H-related)."""
        _assert_dispatch_matches_reference(_matrix(T, rows_a), _matrix(T, rows_b))

    def test_other_carriers_and_relations_go_to_reference(self, monkeypatch):
        rng = random.Random(5)
        pairs = [sampling.related_grids(rng, B, 2, rel) for rel in GR]
        draw = sampling._random_grid
        pairs.append(sampling._pair(draw(rng, B, 2), draw(rng, B, 2)))
        monkeypatch.setattr(_tropfast, "decide", None)  # the kernel must not be reached
        for pair in pairs:
            a, b = sampling.lift_pair(B, pair)
            for rel in GR:
                assert _tropfast.decide_grids(B, *pair, rel) == relate(a, b, rel), rel
        pair = sampling.related_grids(rng, T, 2, GR.D)
        for rel in GR:
            if rel not in _tropfast.KERNEL_RELATIONS:
                with pytest.raises(UndecidableOverSemifield):
                    _tropfast.decide_grids(T, *pair, rel)

    @pytest.mark.parametrize(
        "sf, scale, rel",
        [(B, 1, GR.L), (B, 1, GR.D), (T, 2 ** _tropfast.MAX_SCALE_BITS, GR.H)],
    )
    def test_reference_cases_are_decided_once(self, monkeypatch, sf, scale, rel):
        # one relate call on the lifted pair, with no scan for a kernel scale
        grid = ((0, None), (0, 0))
        calls = []
        _spy(monkeypatch, _tropfast, "relate", calls)
        _spy(monkeypatch, _tropfast, "kernel_grids", calls)
        expected = relate(*sampling.lift_pair(sf, (scale, grid, grid)), rel)
        assert _tropfast.decide_grids(sf, scale, grid, grid, rel) is expected
        assert calls == [("relate", expected)]

    def test_scale_under_the_cap_takes_the_kernel(self, monkeypatch):
        grid = ((0, None), (0, 0))
        calls = []
        _spy(monkeypatch, _tropfast, "relate", calls)
        scale = 2 ** _tropfast.MAX_SCALE_BITS - 1
        assert _tropfast.decide_grids(T, scale, grid, grid, GR.H) is True
        assert calls == []

    def test_wider_than_max_side_goes_to_reference(self):
        # a 17x17 pair gets the reference verdict and compiles no kernel;
        # a pair of the widest side MAX_MATRIX_SIDE admits still reaches it
        rng = random.Random(23)
        side = mx.MAX_MATRIX_SIDE
        wide = sampling.random_matrix(rng, T, side + 1)
        left = mat_mul(sampling.random_matrix(rng, T, side + 1), wide)
        compiled = _tropfast._leq_kernel.cache_info().currsize
        for a, b in ((wide, wide), (left, wide)):
            assert _tropfast.kernel_grids(a, b, GR.H) is None
            _assert_dispatch_matches_reference(a, b)
        assert _tropfast._leq_kernel.cache_info().currsize == compiled
        square = sampling.random_matrix(rng, T, side)
        assert _tropfast.kernel_grids(square, square, GR.H) is not None


#: SHA-256 of the JSON of every draw `_sampler_stream` makes, and the next
#: ``rng.random()`` after them, per (carrier, seed).  Recorded on the Matrix
#: sampler, before the sampler drew on integer grids.
_SAMPLER_STREAM_GOLDEN = {
    (B, 0): ("91f704c64a44cc9ce1a3ecd4242996725e28b3c431722aa92b4b8ccd4b30e62a", 0.6760184782812902),
    (B, 1): ("56ab17e9c77c1d3ad7ef27ea3b80e9c6ff2983117799ee1b7d8715411e4d0976", 0.24005310778537314),
    (B, 2): ("6c865fa5ad0a45c3d7cc2ad7016432447c9a1342a3e3aaad8b82d8056804a5d4", 0.33141941905109495),
    (B, 3): ("1d644fe9620d0bed567f6b8058d39f98517cbc391bdd037398d91ec8c16922a3", 0.7739638111039876),
    (B, 4): ("f3723c330073e9e49212c5b6dbb611e20a9d823018144aa3fa88f74b137ee4b8", 0.32254154728338347),
    (T, 0): ("6d42d6a004f282efe1b2879f66595d68547bb8c3a21ddaf6ecd2742106f7836c", 0.3134047912516412),
    (T, 1): ("955e04cc5e7635dc0f37b64cd5758d34508736c8bc809efe0a3eb17be2adea3e", 0.2814821552074497),
    (T, 2): ("a962d4fb6ae4f8a0ddac48935d6ff7a7e07989b12175ad0ff7f93af94b2441fb", 0.9681115003203394),
    (T, 3): ("05a1470b78e331ac3d2080c3365cb5df30448edd893816b88aaf7632cd858b7f", 0.7641288359558116),
    (T, 4): ("c66cecdebaf3fda0e4d5475e8148ce63dc8bc4ece373287f3c55b779bcb2c1ce", 0.9878086615954558),
    (TI, 0): ("39f1aa2f616cd63dcbb6e2a585488ef8541f6d22ce273ec26c50b7ed64bc102a", 0.1881063965807689),
    (TI, 1): ("d1a547cee1ad87dbd42e41e0d66e1fe6583660c002b73c6c2b2cb932f2b490ed", 0.08898138101289876),
    (TI, 2): ("d6636cbc205f1660bc09baf6539610e8bafcaa6124b8b93b5181b4a0e9b7d7ed", 0.6321061774276597),
    (TI, 3): ("9aa1758621310864977fa092e9adc20262bcf0f1d522af9eab71d0a3780e7b58", 0.2946883054616135),
    (TI, 4): ("d34d0f3e05ff554f6ae0dd4f76b0abafd366aba5eef6de145fa51afff52ab794", 0.6349246889336799),
}


def _sampler_stream(sf, seed):
    """Three related pairs and three unrelated ones per relation the carrier
    draws it for, then a matrix and a monomial, at each n = 1..4: the JSON
    text of the draws and the next ``rng.random()``."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 4):
        for rel in GR:
            unrelated = green.decidable_over(rel, sf) and (
                rel not in green.BOUNDED_SEARCH or n <= green.MAX_BOUNDED_N
            )
            for _ in range(3):
                out.append([mx.matrix_to_json(m) for m in sampling.related_pair(rng, sf, n, rel)])
                if unrelated:
                    pair = sampling.unrelated_pair(rng, sf, n, rel)
                    out.append(None if pair is None else [mx.matrix_to_json(m) for m in pair])
        out.append(mx.matrix_to_json(sampling.random_matrix(rng, sf, n)))
        out.append(mx.monomial_to_json(sampling.random_monomial(rng, sf, n)))
    return json.dumps(out), rng.random()


@pytest.mark.parametrize("sf, seed", sorted(_SAMPLER_STREAM_GOLDEN, key=str))
def test_sampler_stream_is_byte_identical_to_golden(sf, seed):
    # the draws and the RNG state after them: an extra or missing draw
    # anywhere changes the next value
    text, after = _sampler_stream(sf, seed)
    digest, expected_after = _SAMPLER_STREAM_GOLDEN[sf, seed]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert after == expected_after


class TestGridSampler:
    """The grid draws of `sampling` against their lifts and the kernel's
    admission rule."""

    @pytest.mark.parametrize("sf", (B, T, TI))
    def test_lifted_grids_are_the_matrix_draws(self, sf):
        for n, rel, seed in itertools.product((1, 2, 3), GR, range(4)):
            draws = [(sampling.related_grids, sampling.related_pair)]
            if green.decidable_over(rel, sf):
                draws.append((sampling.unrelated_grids, sampling.unrelated_pair))
            for grids_of, pair_of in draws:
                rng_grids, rng_pair = random.Random(seed), random.Random(seed)
                drawn = grids_of(rng_grids, sf, n, rel)
                pair = pair_of(rng_pair, sf, n, rel)
                assert rng_grids.getstate() == rng_pair.getstate()
                if drawn is None:
                    assert pair is None
                    continue
                assert sampling.lift_pair(sf, drawn) == pair, (n, rel, seed)
                if sf is not B:
                    _assert_grids_decide_as_kernel_grids(drawn, pair)

    def test_nonzero_draws_are_randint_draws(self):
        fast, slow = random.Random(8), random.Random(8)
        p, q = sampling.P_BOUND, sampling.Q_BOUND
        for _ in range(2000):
            assert sampling._nonzero(fast, T) == (slow.randint(-p, p), slow.randint(1, q))
            assert sampling._nonzero(fast, TI) == (slow.randint(-p, p), 1)
            assert sampling._nonzero(fast, B) == (0, 1)
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("sf", (B, T, TI))
    def test_grid_draw_is_the_per_entry_draws(self, sf):
        # the draw as it was written before it was one loop: a zero test per
        # entry, a coin over the boolean carrier, else one `_nonzero` call
        def per_entry(rng, n):
            cells = [
                None if rng.random() < sampling.ZERO_PROB or sf is B and rng.random() >= 0.5
                else sampling._nonzero(rng, sf)
                for _ in range(n * n)
            ]
            return sampling._scaled(cells, n)

        for n, seed in itertools.product((1, 2, 3, 4), range(60)):
            fast, slow = random.Random(seed), random.Random(seed)
            assert sampling._random_grid(fast, sf, n) == per_entry(slow, n), (n, seed)
            assert fast.getstate() == slow.getstate()

    def test_kernel_takes_is_the_admission_rule(self):
        cap, side = _tropfast.MAX_SCALE_BITS, mx.MAX_MATRIX_SIDE
        for sf, rel in itertools.product((B, T, TI), GR):
            admitted = sf is not B and rel in _tropfast.KERNEL_RELATIONS
            assert _tropfast.kernel_takes(sf, rel, side) is admitted
        for sf in (T, TI):
            assert _tropfast.kernel_takes(sf, GR.H, side + 1) is False
        assert _tropfast._capped_scale({4, 6, 9}) == 36
        assert _tropfast._capped_scale({2**cap - 1}) == 2**cap - 1
        assert _tropfast._capped_scale({2**cap}) is None
        assert _tropfast._capped_scale({2 ** (cap - 1), 3}) is None

    @pytest.mark.parametrize("sf", (T, TI))
    def test_passing_map_loops_lift_no_pair(self, monkeypatch, sf):
        lifts = []
        _spy(monkeypatch, _tropfast, "lift", lifts)
        mode = lm.Randomized(seed=6, trials=10)
        u = _seeded_map(sf, 3, "standard", 7)
        verdicts = [lm.check_preservation(u, rel, mode, strong=True) for rel in _FAST_RELS]
        assert {v.outcome for v in verdicts} == {"NoCounterexampleFound"}
        params = SuiteParams(semifield=sf, n=2, seed=6, trials=50, monomial_pairs=2)
        assert run_suite("corollaries", params).passed
        assert lifts == []


def _assert_grids_decide_as_kernel_grids(drawn, pair):
    """Every kernel relation decides the drawn triple as it decides the
    `_tropfast.kernel_grids` triple of its lift, whose scale divides the
    drawn one."""
    for rel in _FAST_RELS:
        scaled = _tropfast.kernel_grids(*pair, rel)
        assert drawn[0] % scaled[0] == 0
        assert _tropfast.decide(*drawn[1:], rel) == _tropfast.decide(*scaled[1:], rel), rel


def _noncanonical_map(rng, sf, n):
    cells = list(range(n * n))
    rng.shuffle(cells)
    sigma = tuple(tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n))
    alpha = tuple(
        tuple(sampling.random_nonzero_scalar(rng, sf) for _ in range(n)) for _ in range(n)
    )
    return lm.UnitPermutationMap(n, sf, sigma, alpha)


def _seeded_map(sf, n, kind, map_seed):
    """A "standard" (X -> PXQ), "transpose" or "noncanonical" map from a seed."""
    rng = random.Random(map_seed)
    if kind == "noncanonical":
        return _noncanonical_map(rng, sf, n)
    p = sampling.random_monomial(rng, sf, n)
    q = sampling.random_monomial(rng, sf, n)
    return lm.synthesize(lm.CanonicalForm(p, q, kind == "transpose"), n, sf)


def _reference_decide_grids(sf, scale, agrid, bgrid, rel, transposes=None):
    """`_tropfast.decide_grids` by the reference decider on the lifted pair,
    except for map images, which come with their transposes: those still
    go to the kernel's `decide`."""
    if transposes is not None:
        return _tropfast.decide(agrid, bgrid, rel, transposes)
    return relate(*sampling.lift_pair(sf, (scale, agrid, bgrid)), rel)


class TestLyingKernel:
    """A kernel that lies must end in AssertionError, never in a verdict
    against the paper: every such verdict is re-decided by green.relate."""

    @pytest.mark.parametrize("sf", (T, TI))
    @pytest.mark.parametrize("strong", (False, True))
    def test_false_negatives_do_not_become_counterexamples(self, monkeypatch, sf, strong):
        monkeypatch.setattr(_tropfast, "decide", lambda a, b, rel, transposes=None: False)
        mode = lm.Randomized(seed=3, trials=5)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.check_preservation(_seeded_map(sf, 2, "standard", 1), GR.L, mode, strong=strong)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.check_exchange(_seeded_map(sf, 3, "transpose", 2), mode, strong=strong)

    @pytest.mark.parametrize("sf", (T, TI))
    def test_false_positives_do_not_become_counterexamples(self, monkeypatch, sf):
        # honest sampling, so unrelated pairs reach the strong checks, and
        # the lying kernel on the map images
        monkeypatch.setattr(_tropfast, "decide_grids", _reference_decide_grids)
        monkeypatch.setattr(_tropfast, "decide", lambda a, b, rel, transposes=None: True)
        mode = lm.Randomized(seed=4, trials=5)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.check_preservation(_seeded_map(sf, 2, "standard", 3), GR.H, mode, strong=True)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.check_exchange(
                _seeded_map(sf, 2, "transpose", 4), mode, strong=True, pair=(GR.LEQ_L, GR.LEQ_R)
            )

    @pytest.mark.parametrize("sf", (T, TI))
    def test_sticky_survivor_is_rechecked(self, monkeypatch, sf):
        monkeypatch.setattr(_tropfast, "decide", lambda a, b, rel, transposes=None: True)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.find_sticky(sf, lm.Randomized(seed=1, trials=3))

    def test_honest_kernel_against_a_lying_sampler_is_caught(self, monkeypatch):
        # the sampler accepts every candidate pair as related; the premise
        # of the resulting counterexample fails under the reference decider.
        # Map images, which come with their transposes, are decided honestly
        decide_grids = _tropfast.decide_grids

        def lying(sf, scale, a, b, rel, transposes=None):
            return transposes is None or decide_grids(sf, scale, a, b, rel, transposes)

        monkeypatch.setattr(_tropfast, "decide_grids", lying)
        u = _seeded_map(T, 2, "standard", 5)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            lm.check_preservation(u, GR.L, lm.Randomized(seed=0, trials=20))

    @pytest.mark.parametrize("sf", (T, TI))
    def test_corollaries_recheck_the_conclusion_of_a_failure(self, monkeypatch, sf):
        # the kernel calls every image pair unrelated; the pool pair is
        # related by construction, so its premise passes the re-check and
        # the conclusion is the one the reference decider refutes
        monkeypatch.setattr(_tropfast, "decide", lambda a, b, rel, transposes=None: False)
        expected = []
        reverify = _tropfast.reverify

        def recording(a, b, rel, want):
            expected.append(want)
            return reverify(a, b, rel, want)

        monkeypatch.setattr(_tropfast, "reverify", recording)
        params = SuiteParams(semifield=sf, n=2, seed=1, trials=5, monomial_pairs=1)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            run_suite("corollaries", params)
        assert expected == [True, False]

    @pytest.mark.parametrize("sf", (T, TI))
    def test_corollaries_recheck_the_premise_of_a_failure(self, monkeypatch, sf):
        # the sampler's L/R/H draws are kernel verdicts; here it hands out a
        # pair related under no pool relation (the identity and zero, as
        # grids), whose images are unrelated too
        unrelated = (1, ((0, None), (None, 0)), ((None, None), (None, None)))
        assert sampling.lift_pair(sf, unrelated) == (mx.identity(sf, 2), mx.zero_matrix(sf, 2, 2))
        monkeypatch.setattr(sampling, "related_grids", lambda rng, sf, n, rel: unrelated)
        params = SuiteParams(semifield=sf, n=2, seed=1, trials=5, monomial_pairs=1)
        with pytest.raises(AssertionError, match="disagrees with the reference"):
            run_suite("corollaries", params)


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


def _values(m):
    return [[None if e.payload is MINUS_INF else e.payload for e in row] for row in m.entries]


def _over_cap_map(canonical):
    """A tropical 2x2 map whose coefficients all have denominator 2^8200, so
    its own scale, and any scale it shares with a pair, passes MAX_SCALE_BITS:
    the identity cell map with rank-one coefficients x_i + y_j, or one that
    swaps the columns of row 1 only, with free coefficients."""
    rng = random.Random(17)

    def odd():
        return Fraction(2 * rng.randrange(-50, 50) + 1, 2**8200)

    if canonical:
        xs, ys = (odd(), odd()), (rng.randrange(-50, 50), rng.randrange(-50, 50))
        alpha, cells = [[x + y for y in ys] for x in xs], (0, 1, 2, 3)
    else:
        alpha, cells = [[odd(), odd()], [odd(), odd()]], (0, 1, 3, 2)
    sigma = tuple(tuple(divmod(cells[i * 2 + j], 2) for j in range(2)) for i in range(2))
    coeffs = tuple(tuple(semiring.value(T, c) for c in row) for row in alpha)
    return lm.UnitPermutationMap(2, T, sigma, coeffs)


class TestDecideImages:
    """`_tropfast.decide_images`, the map application both randomized map
    loops share, agrees with `linear_maps.apply` and `green.relate`."""

    def test_images_and_verdicts_match_reference(self, monkeypatch):
        grids = []
        decide = _tropfast.decide

        def spy(ga, gb, rel, transposes=None):
            grids.append((ga, gb, transposes))
            return decide(ga, gb, rel, transposes)

        monkeypatch.setattr(_tropfast, "decide", spy)
        rng = random.Random(41)
        kinds = ("standard", "transpose", "noncanonical")
        for sf, n, kind, rel in itertools.product((T, TI), (1, 2, 3), kinds, _FAST_RELS):
            u = _seeded_map(sf, n, kind, rng.randrange(2**31))
            smap = _tropfast.scale_map(u)
            related = sampling.related_pair(rng, sf, n, rel)
            other = sampling.random_matrix(rng, sf, n), sampling.random_matrix(rng, sf, n)
            for a, b in (related, other):
                scaled = _tropfast.kernel_grids(a, b, rel)
                grids.clear()
                verdict = _tropfast.decide_images(sf, smap, scaled, rel)
                ta, tb = lm.apply(u, a), lm.apply(u, b)
                assert verdict == relate(ta, tb, rel), (sf, n, kind, rel)
                common = lcm(scaled[0], smap[0])
                ((ga, gb, transposes),) = grids
                # the images come with their transposes, so decide builds none
                assert transposes == (_tropfast.transpose_grid(ga), _tropfast.transpose_grid(gb))
                for grid, image in ((ga, ta), (gb, tb)):
                    lifted = [
                        [None if v is None else Fraction(v, common) for v in row] for row in grid
                    ]
                    assert lifted == _values(image), (sf, n, kind, rel)

    @pytest.mark.parametrize("n", (1, 2))
    def test_images_match_reference_exhaustively(self, n):
        # every cell map, every grid with entries in {-inf, 0, 1}: the images
        # under coefficients at scale 2 (so fx = 2), and the verdicts on every
        # pair under zero coefficients, whose images are such grids again
        grids, table = _small_grids_and_verdicts(n)
        index = {g: k for k, g in enumerate(grids)}
        mats = [_matrix(T, g) for g in grids]
        rng = random.Random(n)
        zero = semiring.value(T, 0)

        def half():
            return semiring.value(T, Fraction(2 * rng.randrange(-9, 9) + 1, 2))

        for perm in itertools.permutations(range(n * n)):
            sigma = tuple(tuple(divmod(perm[i * n + j], n) for j in range(n)) for i in range(n))
            alpha = tuple(tuple(half() for _ in range(n)) for _ in range(n))
            u = lm.UnitPermutationMap(n, T, sigma, alpha)
            for x, y in zip(mats, reversed(mats)):
                assert _assert_images_match_reference(u, x, y) == (1, 2)
            smap = _tropfast.scale_map(
                lm.UnitPermutationMap(n, T, sigma, tuple((zero,) * n for _ in range(n)))
            )
            image = []
            for g in grids:
                flat = [None] * (n * n)
                for k, x in enumerate(itertools.chain.from_iterable(g)):
                    flat[perm[k]] = x
                image.append(index[tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))])
            for rel in _FAST_RELS:
                for i, ga in enumerate(grids):
                    expected = table[rel][image[i]]
                    got = [_tropfast.decide_images(T, smap, (1, ga, gb), rel) for gb in grids]
                    assert got == [expected[j] for j in image], (perm, rel, ga)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n), _pairs(T, n, (1,), (1,), blank_line=True), st.integers(0, 2**32)
            )
        ),
        st.sampled_from(("standard", "transpose", "noncanonical")),
    )
    def test_images_match_reference_by_width(self, drawn, kind):
        # coefficients at scale 2 and a pair shifted to scale 3 (unless it is
        # all -inf), so both factors fc = 3 and fx = 2 are not 1
        n, (a, b), seed = drawn
        rng = random.Random(seed)

        def half():
            return semiring.value(T, Fraction(2 * rng.randrange(-50, 50) + 1, 2))

        if kind == "noncanonical":
            perm = list(range(n * n))
            rng.shuffle(perm)
            sigma = tuple(tuple(divmod(perm[i * n + j], n) for j in range(n)) for i in range(n))
            alpha = tuple(tuple(half() for _ in range(n)) for _ in range(n))
            u = lm.UnitPermutationMap(n, T, sigma, alpha)
        else:
            p_perm, q_perm = list(range(n)), list(range(n))
            rng.shuffle(p_perm)
            rng.shuffle(q_perm)
            p = mx.MonomialMatrix(n, tuple(p_perm), tuple(half() for _ in range(n)))
            ints = tuple(semiring.value(T, rng.randrange(-50, 50)) for _ in range(n))
            q = mx.MonomialMatrix(n, tuple(q_perm), ints)
            u = lm.synthesize(lm.CanonicalForm(p, q, kind == "transpose"), n, T)
        third = semiring.value(T, Fraction(1, 3))
        a, b = mx.scalar_mul(third, a), mx.scalar_mul(third, b)
        fc, fx = _assert_images_match_reference(u, a, b)
        assert fx == 2 and fc == (1 if mx.is_zero_matrix(a) and mx.is_zero_matrix(b) else 3)

    def test_common_scale_cap_boundary(self, monkeypatch):
        # under the cap the kernel decides the images; over it the reference
        # decides them, lifted, with the same verdict
        cap = _tropfast.MAX_SCALE_BITS
        zero, third = _matrix(T, [[0]]), _matrix(T, [[Fraction(1, 3)]])
        calls = []
        _spy(monkeypatch, _tropfast, "relate", calls)

        def decider(map_den, x):
            alpha = ((semiring.value(T, Fraction(1, map_den)),),)
            smap = _tropfast.scale_map(lm.UnitPermutationMap(1, T, (((0, 0),),), alpha))
            calls.clear()
            pair = _tropfast.kernel_grids(x, x, GR.L)
            assert _tropfast.decide_images(T, smap, pair, GR.L) is True
            return {(): "kernel", (("relate", True),): "reference"}[tuple(calls)]

        assert decider(2 ** (cap - 1), zero) == "kernel"
        assert decider(2**cap, zero) == "reference"
        # each scale alone fits; their lcm 3 * 2^(cap - 1) does not
        assert decider(2 ** (cap - 2), third) == "kernel"
        assert decider(2 ** (cap - 1), third) == "reference"

    @pytest.mark.parametrize("sf", (T, TI))
    def test_passing_canonical_checks_build_no_matrix_images(self, monkeypatch, sf):
        calls = []
        _spy(monkeypatch, lm, "apply", calls)
        mode = lm.Randomized(seed=8, trials=15)
        for n in (2, 3):
            std = _seeded_map(sf, n, "standard", n)
            tr = _seeded_map(sf, n, "transpose", n)
            verdicts = [lm.check_preservation(std, rel, mode, strong=True) for rel in _FAST_RELS]
            verdicts.append(lm.check_preservation(tr, GR.H, mode, strong=True))
            verdicts += [
                lm.check_exchange(tr, mode, strong=True, pair=pair)
                for pair in ((GR.L, GR.R), (GR.LEQ_L, GR.LEQ_R))
            ]
            assert {v.outcome for v in verdicts} == {"NoCounterexampleFound"}
        assert calls == []

    @pytest.mark.parametrize("canonical", (True, False))
    def test_over_cap_map_takes_the_matrix_fallback(self, monkeypatch, canonical):
        u = _over_cap_map(canonical)
        mode = lm.Randomized(seed=19, trials=10)

        def check():
            return lm.check_preservation(u, GR.H, mode, strong=True)

        def reference(sf, smap, pair, rel):
            a, b = sampling.lift_pair(sf, pair)
            return relate(lm.apply(u, a), lm.apply(u, b), rel)

        with monkeypatch.context() as m:
            m.setattr(_tropfast, "decide_images", reference)
            expected = _verdict_text(check())
        applied, decided = [], []
        _spy(monkeypatch, lm, "apply", applied)
        _spy(monkeypatch, _tropfast, "relate", decided)
        v = check()
        assert _verdict_text(v) == expected
        assert (v.outcome == "NoCounterexampleFound") is canonical
        # every pair is over the cap: the reference decides its images once,
        # and re-verifies premise and conclusion of the counterexample
        assert len(decided) == v.pairs_checked + (0 if canonical else 2)
        # Matrix images are built for the counterexample alone
        assert len(applied) == (0 if canonical else 2)


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


def _verdict_text(v) -> str:
    cx = v.counterexample
    out = {
        "checked": v.checked, "outcome": v.outcome, "mode": v.mode,
        "pairs_checked": v.pairs_checked, "seed": v.seed, "counterexample": None,
    }
    if cx is not None:
        out["counterexample"] = {
            "a": mx.matrix_to_json(cx.a), "b": mx.matrix_to_json(cx.b),
            "image_a": mx.matrix_to_json(cx.image_a), "image_b": mx.matrix_to_json(cx.image_b),
            "detail": cx.detail,
            "witness": None if cx.witness is None
            else {k: mx.matrix_to_json(m) for k, m in cx.witness.items()},
        }
    return json.dumps(out, sort_keys=True)


def _sticky_text(rep) -> str:
    return json.dumps(
        {
            "semifield": rep.semifield, "mode": rep.mode, "candidates": rep.candidates,
            "outcome": rep.outcome, "seed": rep.seed, "generator": rep.generator,
            "survivor": None if rep.survivor is None else mx.matrix_to_json(rep.survivor),
            "refutations": [
                [mx.matrix_to_json(r.m), r.failed,
                 None if r.k is None else semiring.format_value(r.k), r.k_is_square_root_witness]
                for r in rep.refutations
            ],
        },
        sort_keys=True,
    )


def _golden_verdict(case):
    sf, n, kind, map_seed, rels, strong, seed, trials = case[:8]
    u = _seeded_map(sf, n, kind, map_seed)
    mode = lm.Randomized(seed=seed, trials=trials)
    if len(rels) == 1:
        return lm.check_preservation(u, rels[0], mode, strong=strong)
    return lm.check_exchange(u, mode, strong=strong, pair=rels)


# SHA-256 of `_verdict_text` of seeded randomized preservation and exchange
# verdicts, recorded while every pair was decided by green.relate alone:
# (carrier, n, map kind, map seed, relations, strong, check seed, trials, digest).
# The non-canonical maps pin a counterexample and its witness in both
# directions ("holds but ... unrelated" and "fails but ... related").
_VERDICT_GOLDEN = (
    (T, 2, "standard", 1, (GR.H,), False, 11, 25,
     "3ab804c80796c13e5c680935a15906457fc8b409d783843b0d90e328ee522f35"),
    (T, 2, "standard", 2, (GR.L,), True, 12, 15,
     "13611c943a9ba28ad0539313c73dee2ebdb0c17bb011556f89f956598ccfedd3"),
    (T, 2, "transpose", 3, (GR.L, GR.R), False, 13, 15,
     "856f688933c59ea2250659d09d54b499426add151b23652d4b32ad3435cfe0b8"),
    (T, 2, "transpose", 4, (GR.LEQ_L, GR.LEQ_R), True, 14, 10,
     "7d11a236b30af0fc0fb7a48752db978f567d7cc799768027428456b8be5eb06d"),
    (T, 3, "standard", 5, (GR.R,), False, 15, 20,
     "4126bd2ea87356cac76b6ba1ef1dd0bb36c6b3a5b8e5c241834337d6e2e4668a"),
    (T, 3, "standard", 6, (GR.LEQ_L,), True, 16, 10,
     "90dca8813cd17690aec3ac0c9197b15de4f45199e70f4b66e3277fe3793527b0"),
    (T, 3, "transpose", 7, (GR.L, GR.R), True, 17, 8,
     "ddbd3b108186dc33eca9afba8943b5e4154874a8b0ba847e7af5302b5b31aff6"),
    (T, 3, "transpose", 8, (GR.H,), False, 18, 15,
     "0dd82b9b22bec3cb2b74afd0ae31623abdfb00aab7a36042866628ddf1803c21"),
    (TI, 2, "standard", 9, (GR.LEQ_R,), False, 19, 25,
     "83c77d85481c0736359319b23f1fd212ac386eb37e82a8c1db27e65c62e9f4ed"),
    (TI, 2, "standard", 10, (GR.H,), True, 20, 15,
     "1575d6b7bad0a008cfa53232b4f17313bd278f9b77937e6a63e2e26bac932a04"),
    (TI, 2, "transpose", 11, (GR.LEQ_L, GR.LEQ_R), False, 21, 15,
     "b63da2f73787f8dded6a7d95842d246e21cc6e4a94dcb7309a696b610686659e"),
    (TI, 2, "transpose", 12, (GR.L, GR.R), True, 22, 10,
     "b27dbfde57e0face5967efcdb2ff74821a83fa94dbef36e8a538bab59a28c1e3"),
    (TI, 3, "standard", 13, (GR.L,), False, 23, 20,
     "b4fbce8d6c427abbcb5be3efd0fffeb5956d1407ac6090c94a0883092e9bc5f4"),
    (TI, 3, "standard", 14, (GR.H,), True, 24, 10,
     "a25572b69a9fa025d91aa756ce02a37ce62b4daa5557f8cf05f22ab1d1c0fdd1"),
    (TI, 3, "transpose", 15, (GR.LEQ_L, GR.LEQ_R), True, 25, 8,
     "bd7f00eb51a348ed2c545e070a66e76c88f13f46b51f8f8d6ac02e4f457d9b8a"),
    (TI, 3, "transpose", 16, (GR.R, GR.L), False, 26, 15,
     "b3afbfe21139d4ba3d0a844410def09565c3ef60a495df74ad54c3d9439985d4"),
    (T, 2, "noncanonical", 5, (GR.LEQ_R,), True, 5, 30,
     "f6189c64f5c4df4a7e5b25b659c427b11508a3515c794b393596ce892dc0678a"),
    (TI, 2, "noncanonical", 5, (GR.LEQ_L,), True, 5, 30,
     "436d1554d0391b6de0548bc2448011656f3736eeb15e6d7650f56877b38dfca0"),
    (T, 3, "noncanonical", 1, (GR.L,), False, 1, 30,
     "2b7cdd96fd141fa3cf8fc57020979f533f37d318adb22a7647551048b44daa47"),
    (TI, 3, "noncanonical", 2, (GR.H,), True, 2, 30,
     "01a400bd34202a830f284d15a0ecc997bfccda573a314c84547ef11c9496e27e"),
)

# SHA-256 of `_sticky_text` of randomized sticky searches, recorded the same
# way: (carrier, seed, candidates, digest).
_STICKY_GOLDEN = (
    (T, 6, 25, "465dafcbcaa8d4a0347f99ead21c9d453ff785f772a19ecfe20029ff910ef3b8"),
    (TI, 9, 40, "ee495a9d12da9c0b1285553dd1551d1b26cfede97a51e690de819e108e2302a6"),
)


def test_randomized_verdicts_are_byte_identical_to_golden():
    for case in _VERDICT_GOLDEN:
        text = _verdict_text(_golden_verdict(case))
        assert hashlib.sha256(text.encode()).hexdigest() == case[-1], case[:-1]


def test_sticky_reports_are_byte_identical_to_golden():
    for sf, seed, trials, digest in _STICKY_GOLDEN:
        rep = lm.find_sticky(sf, lm.Randomized(seed=seed, trials=trials))
        assert hashlib.sha256(_sticky_text(rep).encode()).hexdigest() == digest, (sf, seed)


def _cell_map_unit(cells, n):
    one = semiring.one(B)
    sigma = tuple(tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n))
    return lm.UnitPermutationMap(n, B, sigma, tuple((one,) * n for _ in range(n)))


def _exhaustive_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _exchange_text(v) -> str:
    cx = v.counterexample
    pair = None if cx is None else [mx.matrix_to_json(cx.a), mx.matrix_to_json(cx.b)]
    return json.dumps([v.outcome, v.pairs_checked, pair])


# Four n = 3 maps: identity, transpose, a standard map that permutes rows
# and columns, and a non-canonical swap of two cells.
_N3_MAPS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8),
    (0, 3, 6, 1, 4, 7, 2, 5, 8),
    (4, 3, 5, 1, 0, 2, 7, 6, 8),
    (1, 0, 2, 3, 4, 5, 6, 7, 8),
)

# SHA-256 over `_verdict_text` of every exhaustive preservation verdict,
# strong and not, recorded while each check ran its own inline scan:
# one digest per (n, relation), over all 24 cell maps at n = 2 and the
# maps of _N3_MAPS at n = 3, in enumeration order.
_EXHAUSTIVE_PRESERVATION_GOLDEN = {
    (2, GR.LEQ_L): "09b08e7fd6bc3e121503ae9e8db4329acb66eb3f4b3557222e813875ced30937",
    (2, GR.LEQ_R): "776ec8ef0df02fc9b308cc265dcb52c31b2fe32e741cd7d8ced3e4f81c7b0327",
    (2, GR.LEQ_J): "6108221823b56d2eaf09a120fdbb4b1661a3b0245adf16ff0c22f65d2b2791ee",
    (2, GR.L): "b3594e4f387c1fd6649c61740c34c10386b8a16e56741483455183eb07c1d541",
    (2, GR.R): "a09190ecc1480308195c9bc7514171359f1264eb649ed21b988f71c3295ecbb8",
    (2, GR.H): "4b48d48f2238f3c9c59a484d6b8d119d353090f143e91301ad2b15304d223979",
    (2, GR.D): "db09cccb0c43e863897053f80513b87177133cb8a8ed435d3573c72c5b6a5589",
    (2, GR.J): "388385671d0946c17a6e05c5cddc589522cf75482fcdd55246f3514732baae2a",
    (3, GR.L): "37fab12e582d13c2bd9c1b0b99d48f2ef22f0f7d9bfe2992749f47eb40d8478f",
    (3, GR.R): "84974ee8bb31b38ea727276ab8e4379175ffabbcd703344fa6c298ebd800c157",
    (3, GR.H): "2cc7382c9bfe632a63355e1c0b1a4955871962c4dde0fa53a4de720fe6c330c0",
    (3, GR.LEQ_L): "91ccfa86c59789a636a30830c97393eb976ef86fb4ebad164398bbece534f6b8",
    (3, GR.LEQ_R): "db7ec97f93f06377c1975642070b15e697bc2c5be2de5dc3233c73e67b32b8bb",
}

# SHA-256 over `_exchange_text` (outcome, pairs checked, counterexample
# pair) of every exhaustive exchange verdict on the 24 cell maps at n = 2,
# strong and not, recorded the same way.
_EXHAUSTIVE_EXCHANGE_GOLDEN = {
    (GR.L, GR.R): "4e6140b0ef9f19bc3f09db35027dacc5d8c160cbf0d64158f82d894759eda802",
    (GR.LEQ_L, GR.LEQ_R): "55d95885266be68096158e937f57c63f3649e5a2c92e43bc36d4f4704ccb2111",
}


def _exhaustive_maps(n):
    return [_cell_map_unit(cells, n) for cells in (_boolspace.all_cell_maps(2) if n == 2 else _N3_MAPS)]


@pytest.mark.parametrize("n, rel", sorted(_EXHAUSTIVE_PRESERVATION_GOLDEN, key=str))
def test_exhaustive_preservation_verdicts_match_golden(n, rel):
    texts = [
        _verdict_text(lm.check_preservation(u, rel, lm.Exhaustive(), strong=strong))
        for u in _exhaustive_maps(n)
        for strong in (False, True)
    ]
    assert _exhaustive_digest(texts) == _EXHAUSTIVE_PRESERVATION_GOLDEN[n, rel]


@pytest.mark.parametrize("pair", sorted(_EXHAUSTIVE_EXCHANGE_GOLDEN, key=str))
def test_exhaustive_exchange_verdicts_match_golden(pair):
    texts = [
        _exchange_text(lm.check_exchange(u, lm.Exhaustive(), strong=strong, pair=pair))
        for u in _exhaustive_maps(2)
        for strong in (False, True)
    ]
    assert _exhaustive_digest(texts) == _EXHAUSTIVE_EXCHANGE_GOLDEN[pair]


# SHA-256 over `_verdict_text` of seeded randomized checks over the boolean
# carrier, recorded while their images were built by `linear_maps.apply` and
# decided by green.relate: weak and strong preservation of L, R, H, leqL,
# leqR and D, then both exchanges, on each of the 24 cell maps at n = 2 in
# enumeration order, at seed 31 and 15 trials.
_BOOLEAN_RANDOMIZED_GOLDEN = "14924134780d15438dd221d18777b7581220c0579fcb16d0a63a4b3d7fd22f9d"


def test_boolean_randomized_verdicts_match_golden():
    mode = lm.Randomized(seed=31, trials=15)
    rels = (GR.L, GR.R, GR.H, GR.LEQ_L, GR.LEQ_R, GR.D)
    texts = []
    for u in _exhaustive_maps(2):
        for strong in (False, True):
            texts += [
                _verdict_text(lm.check_preservation(u, rel, mode, strong=strong)) for rel in rels
            ]
            texts += [
                _verdict_text(lm.check_exchange(u, mode, strong=strong, pair=pair))
                for pair in ((GR.L, GR.R), (GR.LEQ_L, GR.LEQ_R))
            ]
    assert _exhaustive_digest(texts) == _BOOLEAN_RANDOMIZED_GOLDEN


# --- greenmat relate on the tropical carriers -----------------------------


def _golden_entry(rng, sf):
    if rng.random() < 0.2:
        return None
    if sf is TI:
        return rng.randint(-20, 20)
    return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5, 7, 12)))


def _golden_grid(rng, sf, n):
    return [[_golden_entry(rng, sf) for _ in range(n)] for _ in range(n)]


def _golden_monomial(rng, sf, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return _matrix(sf, [
        [_golden_entry(rng, sf) or 0 if perm[i] == j else None for j in range(n)]
        for i in range(n)
    ])


#: The kinds of (a, b) pair in the relate golden set; each runs in both orders.
_GOLDEN_KINDS = (
    "random", "left", "right", "two_sided", "left_monomial", "right_monomial",
    "scalar", "self", "blank_row", "blank_col",
)


def _golden_relate_pairs():
    """Tropical and tropical_int pairs at n = 1..4: random pairs, one- and
    two-sided multiples, L-, R- and H-related pairs, and multiples of a b
    with an all -inf row or column, with mixed denominators over tropical."""
    rng = random.Random(2017)
    for sf in (T, TI):
        for n in (1, 2, 3, 4):
            for kind in _GOLDEN_KINDS:
                b_rows = _golden_grid(rng, sf, n)
                k = rng.randrange(n)
                if kind == "blank_row":
                    b_rows[k] = [None] * n
                elif kind == "blank_col":
                    for row in b_rows:
                        row[k] = None
                b = _matrix(sf, b_rows)
                if kind == "random":
                    a = _matrix(sf, _golden_grid(rng, sf, n))
                elif kind in ("left", "blank_row"):
                    a = mat_mul(_matrix(sf, _golden_grid(rng, sf, n)), b)
                elif kind in ("right", "blank_col"):
                    a = mat_mul(b, _matrix(sf, _golden_grid(rng, sf, n)))
                elif kind == "two_sided":
                    a = mat_mul(mat_mul(_matrix(sf, _golden_grid(rng, sf, n)), b),
                                _matrix(sf, _golden_grid(rng, sf, n)))
                elif kind == "left_monomial":
                    a = mat_mul(_golden_monomial(rng, sf, n), b)
                elif kind == "right_monomial":
                    a = mat_mul(b, _golden_monomial(rng, sf, n))
                elif kind == "scalar":
                    c = _golden_entry(rng, sf) or 1
                    a = mx.scalar_mul(semiring.value(sf, c), b)
                else:
                    a = b
                yield a, b
                yield b, a


#: SHA-256 of the concatenated stdout of `greenmat relate --rel R a b` over
#: _golden_relate_pairs and the five kernel relations, recorded while every
#: tropical relate request was decided by green.relate_witness.
_RELATE_GOLDEN = "4b59957a851df809ad1ec8bf56363f520c49bb36f20a3c2d39d7d985a6fa07d3"


def test_tropical_relate_output_is_byte_identical_to_golden(tmp_path, capsys):
    outs = []
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    for a, b in _golden_relate_pairs():
        a_path.write_text(json.dumps(mx.matrix_to_json(a)))
        b_path.write_text(json.dumps(mx.matrix_to_json(b)))
        for rel in _FAST_RELS:
            assert cli.main(["relate", "--rel", rel.value, str(a_path), str(b_path)]) == 0
            outs.append(capsys.readouterr().out)
    verdicts = [json.loads(o)["related"] for o in outs]
    assert len(outs) == 2 * 4 * len(_GOLDEN_KINDS) * 2 * 5
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == _RELATE_GOLDEN


def _witness_items(w):
    return None if w is None else list(w.items())


def _assert_witness_matches_reference(a, b):
    for rel in _FAST_RELS:
        got = _tropfast.relate_witness(a, b, rel)
        assert _witness_items(got) == _witness_items(green.relate_witness(a, b, rel)), rel


def _spy(monkeypatch, module, name, calls):
    """Wrap module.name so that each call appends (name, result) to calls."""
    fn = getattr(module, name)

    def wrapper(*args):
        result = fn(*args)
        calls.append((name, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


def _relate_stdout(tmp_path, rel, a, b):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    a_path.write_text(json.dumps(mx.matrix_to_json(a)))
    b_path.write_text(json.dumps(mx.matrix_to_json(b)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["relate", "--rel", rel.value, str(a_path), str(b_path)]) == 0
    return out.getvalue()


def _reference_stdout(witness) -> str:
    return json.dumps({
        "related": witness is not None,
        "witness": None if witness is None
        else {k: mx.matrix_to_json(m) for k, m in witness.items()},
    }, indent=2) + "\n"


def _capped_denominators():
    """Denominators 2^3000, 3^2000 and 5^m whose product has at most
    MAX_SCALE_BITS bits, with m as large as that allows (every one has
    fewer than 1000 digits, so the CLI reads them)."""
    base = 2**3000 * 3**2000
    m = 0
    while (base * 5 ** (m + 1)).bit_length() <= _tropfast.MAX_SCALE_BITS:
        m += 1
    return 2**3000, 3**2000, 5**m


def _capped_pair(last_den):
    d2, d3, _ = _capped_denominators()
    a = _matrix(T, [[Fraction(1, d2), 0, None], [2, Fraction(-7, d3), 1], [0, None, Fraction(3, last_den)]])
    return a, mx.scalar_mul(semiring.value(T, Fraction(5, 3)), a)


def _times(grid, f):
    return tuple(tuple(None if v is None else v * f for v in row) for row in grid)


class TestMaxPlus:
    """`_tropfast.max_plus(s, b, fs, fb)` is the product of ``fs*s`` and
    ``fb*b``: lifted at one scale L, it is `matrix.mat_mul` of the lifted
    factors."""

    @pytest.mark.parametrize("sf", (T, TI))
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 16))
    def test_matches_mat_mul(self, sf, n):
        rng = random.Random(n)

        def grid(blank_row=None, blank_col=None):
            return tuple(
                tuple(
                    None if i == blank_row or j == blank_col or rng.random() < 0.25
                    else rng.randint(-60, 60)
                    for j in range(n)
                )
                for i in range(n)
            )

        blank = ((None,) * n,) * n
        cases = [(grid(), grid()) for _ in range(3)]
        cases += [(grid(blank_row=0), grid(blank_col=n - 1)), (blank, grid()), (grid(), blank)]
        for (fs, fb), (s, b) in itertools.product(((1, 1), (1, 5), (4, 1), (3, 7)), cases):
            # over tropical the factors are at scales L/fs and L/fb
            scale = fs * fb if sf is T else 1
            product = _tropfast.max_plus(s, b, fs, fb)
            lifted = mat_mul(
                _tropfast.lift(sf, scale, _times(s, fs)), _tropfast.lift(sf, scale, _times(b, fb))
            )
            assert _tropfast.lift(sf, scale, product) == lifted, (fs, fb, s, b)
            if sf is T:
                assert _tropfast.lift(T, scale // fs, s) == _tropfast.lift(T, scale, _times(s, fs))
            if (fs, fb) == (1, 1):
                assert product == _tropfast.max_plus(s, b)


class TestRelateWitness:
    """`_tropfast.relate_witness` returns what `green.relate_witness` returns,
    key order included, and falls back to it outside the kernel's reach."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: _pairs(T, n, (1, 2, 3, 8), (5, 9, 10), True)))
    def test_matches_reference_on_generated_pairs(self, pair):
        _assert_witness_matches_reference(*pair)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(
            _tropical_grids(n, ints=True), _tropical_grids(n, ints=True), st.booleans()
        ))
    )
    def test_matches_reference_on_generated_integer_pairs(self, grids):
        rows_s, rows_b, product = grids
        b = _matrix(TI, rows_b)
        a = mat_mul(_matrix(TI, rows_s), b) if product else _matrix(TI, rows_s)
        _assert_witness_matches_reference(a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32), st.sampled_from((T, TI)), st.integers(1, 4),
        st.sampled_from(_FAST_RELS),
    )
    def test_matches_reference_on_sampled_pairs(self, seed, sf, n, rel):
        rng = random.Random(seed)
        _assert_witness_matches_reference(*sampling.related_pair(rng, sf, n, rel))
        pair = sampling.unrelated_pair(rng, sf, n, rel)
        if pair is not None:
            _assert_witness_matches_reference(*pair)

    def test_other_inputs_go_to_reference(self, monkeypatch):
        rng = random.Random(8)
        a, b = _matrix(T, [[0, 1], [2, None]]), _matrix(T, [[1, 1], [3, None]])
        monkeypatch.setattr(_tropfast, "decide", None)  # the kernel must not be reached
        for rel in GR:
            x, y = sampling.related_pair(rng, B, 2, rel)
            assert _witness_items(_tropfast.relate_witness(x, y, rel)) == _witness_items(
                green.relate_witness(x, y, rel)
            )
        for rel, other, error in (
            (GR.L, _matrix(TI, [[0, 1], [2, None]]), MixedSemifields),
            (GR.H, _matrix(T, [[0]]), DimensionMismatch),
            (GR.D, b, UndecidableOverSemifield),
        ):
            with pytest.raises(error):
                _tropfast.relate_witness(a, other, rel)

    def test_witness_that_fails_to_multiply_out_raises(self, monkeypatch):
        a = _matrix(T, [[0, Fraction(1, 2)], [1, 2]])
        honest = _tropfast.principal_solution

        def lying(x, y):
            s = honest(x, y)
            return ((s[0][0] - 1,) + s[0][1:],) + s[1:]

        monkeypatch.setattr(_tropfast, "principal_solution", lying)
        for rel in _FAST_RELS:
            with pytest.raises(AssertionError, match="fails to multiply out"):
                _tropfast.relate_witness(a, a, rel)

    def test_scale_cap_boundary(self):
        over = 2 ** _tropfast.MAX_SCALE_BITS  # one bit over the cap
        a = _matrix(T, [[Fraction(1, over // 2), 0], [1, 2]])
        assert _tropfast.kernel_grids(a, a, GR.H) is not None
        b = _matrix(T, [[Fraction(1, over), 0], [1, 2]])
        assert _tropfast.kernel_grids(b, b, GR.H) is None
        # bit lengths summing past the cap, with an lcm under it
        c = _matrix(T, [[Fraction(1, over // 2), Fraction(1, over // 4)], [1, 2]])
        assert _tropfast.kernel_grids(c, c, GR.H) is not None
        # two denominators under the cap whose lcm is over it
        d = _matrix(T, [[Fraction(1, 3 ** 3000), Fraction(1, 2 ** 4000)], [1, 2]])
        assert _tropfast.kernel_grids(d, d, GR.H) is None

    def test_over_cap_decisions_go_to_reference(self, monkeypatch):
        huge = _matrix(T, [[Fraction(1, 2 ** _tropfast.MAX_SCALE_BITS), 0], [1, 2]])
        monkeypatch.setattr(_tropfast, "decide", None)  # the kernel must not be reached
        for rel in _FAST_RELS:
            assert _tropfast.relate_witness(huge, huge, rel) is not None

    def test_pair_under_the_cap_takes_the_kernel(self, tmp_path, monkeypatch):
        a, b = _capped_pair(_capped_denominators()[2])
        calls = []
        _spy(monkeypatch, _tropfast, "decide", calls)
        _spy(monkeypatch, green, "relate_witness", calls)
        out = _relate_stdout(tmp_path, GR.H, a, b)
        assert [name for name, _ in calls] == ["decide"]
        assert out == _reference_stdout(green.relate_witness(a, b, GR.H))
        assert json.loads(out)["related"] is True

    def test_pair_over_the_cap_goes_to_reference(self, tmp_path, monkeypatch):
        a, b = _capped_pair(_capped_denominators()[2] * 5)
        calls = []
        monkeypatch.setattr(_tropfast, "decide", None)
        _spy(monkeypatch, green, "relate_witness", calls)
        out = _relate_stdout(tmp_path, GR.H, a, b)
        assert out == _reference_stdout(calls[-1][1])  # the outermost call ends last
        assert json.loads(out)["related"] is True

    def test_hostile_request_goes_to_reference(self, tmp_path, monkeypatch):
        """16x16 H of a matrix of 1000-digit denominators with itself: its
        lcm is far over the cap, so the reference answers."""
        rng = random.Random(1)
        side = mx.MAX_MATRIX_SIDE
        a = _matrix(T, [
            [Fraction(rng.randrange(-10**999, 10**999), rng.randrange(10**999, 10**1000))
             for _ in range(side)]
            for _ in range(side)
        ])
        calls = []
        monkeypatch.setattr(_tropfast, "decide", None)
        monkeypatch.setattr(_tropfast, "principal_solution", None)
        _spy(monkeypatch, green, "relate_witness", calls)
        out = _relate_stdout(tmp_path, GR.H, a, a)
        assert out == _reference_stdout(calls[-1][1])
        assert json.loads(out)["related"] is True


# --- the reference decider, pinned on its own -----------------------------


def _boolean_sample_pairs(n, count):
    """Seeded boolean n-by-n pairs: random pairs, permutation multiples on
    the left, the right and both sides, one-sided multiples and (b, b)."""
    rng = random.Random(1951)
    mats = list(all_boolean_matrices(n, n))
    perms = [mx.monomial_expand(mx.MonomialMatrix(n, p, (semiring.one(B),) * n))
             for p in itertools.permutations(range(n))]
    for _ in range(count):
        b = rng.choice(mats)
        kind = rng.randrange(6)
        if kind == 0:
            a = rng.choice(mats)
        elif kind == 1:
            a = mat_mul(rng.choice(perms), b)
        elif kind == 2:
            a = mat_mul(b, rng.choice(perms))
        elif kind == 3:
            a = mat_mul(mat_mul(rng.choice(perms), b), rng.choice(perms))
        elif kind == 4:
            a = mat_mul(rng.choice(mats), b)
        else:
            a = b
        yield a, b


def _reference_lines():
    """One line per green.relate_witness call: every boolean pair at n = 2
    under all eight relations, a seeded boolean sample at n = 3 under L, R,
    H and J, and the tropical and tropical_int relate golden pairs under the
    five kernel relations."""
    cases = [(a, b, rel) for a in all_boolean_matrices(2, 2)
             for b in all_boolean_matrices(2, 2) for rel in GR]
    cases += [(a, b, rel) for rel in (GR.L, GR.R, GR.H, GR.J)
              for a, b in _boolean_sample_pairs(3, 60)]
    cases += [(a, b, rel) for a, b in _golden_relate_pairs() for rel in _FAST_RELS]
    for a, b, rel in cases:
        w = green.relate_witness(a, b, rel)
        yield json.dumps([
            rel.value, w is not None,
            None if w is None else [[k, mx.matrix_to_json(m)] for k, m in w.items()],
        ])


#: SHA-256 of _reference_lines, recorded while L, R, H and J were composed
#: from the pre-orders by one recursive branch each in green.relate_witness.
#: The kernel is pinned against green.relate_witness, and both read the same
#: composition, so this digest is what pins the composition itself.
_REFERENCE_GOLDEN = "97ab61abfaf62ff810a5533c726e4ce4bf8bc1a94cc2ad8743329fa52c7a9b3e"


def test_reference_witnesses_are_byte_identical_to_golden():
    lines = list(_reference_lines())
    verdicts = [json.loads(line)[1] for line in lines]
    assert len(lines) == 16 * 16 * 8 + 4 * 60 + 2 * 4 * len(_GOLDEN_KINDS) * 2 * 5
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _REFERENCE_GOLDEN
