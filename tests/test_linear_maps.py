"""Classification of linear maps and preservation/exchange checking."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from greenmat import _tropfast, cli
from greenmat import linear_maps as lm
from greenmat import matrix as mx
from greenmat import sampling
from greenmat import semiring as sr
from greenmat.green import GreenRelation, relate
from greenmat.linear_maps import (
    IMAGE_RELATION,
    CanonicalForm,
    Exhaustive,
    LinearMap,
    NonCanonical,
    NonCanonicalReason,
    NotBijective,
    Randomized,
    UnitPermutationMap,
    UnsupportedMode,
    apply,
    check_exchange,
    check_preservation,
    classify,
    classify_linear_map,
    extract_unit_form,
    find_sticky,
    synthesize,
    to_linear_map,
)
from greenmat.matrix import all_boolean_matrices, monomial_identity, unit_matrix
from greenmat.semiring import MINUS_INF, Semifield

B, T, TI = Semifield.BOOLEAN, Semifield.TROPICAL, Semifield.TROPICAL_INT
GR = GreenRelation
ONE_B = sr.one(B)


def identity_map(n, sf):
    return synthesize(CanonicalForm(monomial_identity(sf, n), monomial_identity(sf, n), False), n, sf)


def transposition_map(n, sf):
    return synthesize(CanonicalForm(monomial_identity(sf, n), monomial_identity(sf, n), True), n, sf)


def unit_map_from_cells(cells, n):
    sigma = tuple(tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n))
    alpha = tuple(tuple(ONE_B for _ in range(n)) for _ in range(n))
    return UnitPermutationMap(n, B, sigma, alpha)


def random_unit_maps(sf, n=2):
    cells = st.permutations(list(range(n * n)))
    if sf is B:
        coeff = st.just(1)
    else:
        coeff = st.fractions(min_value=-30, max_value=30, max_denominator=10)
    alphas = st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=n, max_size=n)

    def build(args):
        cs, al = args
        sigma = tuple(
            tuple(divmod(cs[i * n + j], n) for j in range(n)) for i in range(n)
        )
        alpha = tuple(tuple(sr.value(sf, x) for x in row) for row in al)
        return UnitPermutationMap(n, sf, sigma, alpha)

    return st.tuples(cells, alphas).map(build)


class TestApply:
    def test_identity_map_is_identity(self):
        u = identity_map(2, B)
        for x in all_boolean_matrices(2, 2):
            assert apply(u, x) == x

    def test_swap_map_table_lookup(self):
        images = (
            (unit_matrix(2, 1, 2, ONE_B), unit_matrix(2, 1, 1, ONE_B)),
            (unit_matrix(2, 2, 1, ONE_B), unit_matrix(2, 2, 2, ONE_B)),
        )
        t = LinearMap(2, B, images)
        assert apply(t, unit_matrix(2, 1, 1, ONE_B)) == unit_matrix(2, 1, 2, ONE_B)

    def test_tropical_scalar_image(self):
        t = LinearMap(1, T, ((mx.from_rows(T, [[2]]),),))
        assert apply(t, mx.from_rows(T, [[5]])) == mx.from_rows(T, [[7]])

    @settings(max_examples=40)
    @given(random_unit_maps(T), st.data())
    def test_linearity(self, u, data):
        entry = st.one_of(
            st.just(MINUS_INF), st.fractions(min_value=-20, max_value=20, max_denominator=6)
        )
        rows = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
        x = mx.from_rows(T, data.draw(rows))
        y = mx.from_rows(T, data.draw(rows))
        c = sr.value(T, data.draw(st.fractions(min_value=-10, max_value=10, max_denominator=4)))
        assert apply(u, mx.mat_add(x, y)) == mx.mat_add(apply(u, x), apply(u, y))
        assert apply(u, mx.scalar_mul(c, x)) == mx.scalar_mul(c, apply(u, x))


class TestExtract:
    def test_identity_extracts(self):
        u = extract_unit_form(to_linear_map(identity_map(2, B)))
        assert u == identity_map(2, B)

    def test_sum_image_rejected(self):
        images = [[None, None], [None, None]]
        for i in range(2):
            for j in range(2):
                images[i][j] = unit_matrix(2, i + 1, j + 1, ONE_B)
        images[0][0] = mx.from_rows(B, [[1, 1], [0, 0]])
        t = LinearMap(2, B, tuple(tuple(r) for r in images))
        with pytest.raises(NotBijective):
            extract_unit_form(t)
        assert classify_linear_map(t) == NonCanonical(NonCanonicalReason.NOT_UNIT_PERMUTATION)

    def test_collision_rejected_and_not_surjective(self):
        # both E11 and E12 land on multiples of E22
        e22 = unit_matrix(2, 2, 2, ONE_B)
        images = (
            (e22, e22),
            (unit_matrix(2, 2, 1, ONE_B), unit_matrix(2, 1, 1, ONE_B)),
        )
        t = LinearMap(2, B, images)
        with pytest.raises(NotBijective):
            extract_unit_form(t)
        seen = {apply(t, x) for x in all_boolean_matrices(2, 2)}
        assert len(seen) < 16  # fails surjectivity onto the 16 matrices

    def test_extract_round_trip(self):
        @settings(max_examples=30)
        @given(random_unit_maps(T))
        def inner(u):
            assert extract_unit_form(to_linear_map(u)) == u

        inner()


class TestClassify:
    def test_identity(self):
        out = classify(identity_map(2, B))
        assert isinstance(out, CanonicalForm) and not out.transposed
        assert out.p == monomial_identity(B, 2)
        assert out.q == monomial_identity(B, 2)

    def test_transposition(self):
        out = classify(transposition_map(2, B))
        assert isinstance(out, CanonicalForm) and out.transposed
        assert out.p == monomial_identity(B, 2)
        assert out.q == monomial_identity(B, 2)

    def test_structure_violation(self):
        u = unit_map_from_cells((1, 0, 2, 3), 2)  # swap (1,1) <-> (1,2), fix the rest
        assert classify(u) == NonCanonical(NonCanonicalReason.ROW_COLUMN_STRUCTURE_VIOLATED)

    def test_coefficients_not_rank_one(self):
        sigma = tuple(tuple((i, j) for j in range(2)) for i in range(2))
        alpha = tuple(tuple(sr.value(T, v) for v in row) for row in [[0, 0], [0, 1]])
        u = UnitPermutationMap(2, T, sigma, alpha)
        assert classify(u) == NonCanonical(NonCanonicalReason.COEFFICIENTS_NOT_RANK_ONE)

    def test_unit_tables_must_be_n_by_n(self):
        u = identity_map(2, B)
        for sigma, alpha in (
            (u.sigma, u.alpha[:1] + ((ONE_B, ONE_B, ONE_B),)),  # a row too long
            (u.sigma, tuple(row[:1] for row in u.alpha)),  # 2x1
            (u.sigma + (((0, 0), (0, 1)),), u.alpha),  # a row too many
            ((u.sigma[0], u.sigma[1] + ((1, 0),)), u.alpha),  # an extra cell
        ):
            with pytest.raises(mx.DimensionMismatch, match="^sigma and alpha must be n-by-n$"):
                UnitPermutationMap(2, B, sigma, alpha)

    def test_maps_act_on_sides_up_to_max_matrix_side(self):
        # a randomized check compiles one image function per side, and
        # matrices stop at MAX_MATRIX_SIDE, so maps do too
        side = mx.MAX_MATRIX_SIDE
        u = identity_map(side, B)
        assert to_linear_map(u).n == u.n == side
        message = f"^maps act on sizes 1 to {side}, got {side + 1}$"
        wide = tuple(tuple((i, j) for j in range(side + 1)) for i in range(side + 1))
        with pytest.raises(mx.DimensionMismatch, match=message):
            UnitPermutationMap(side + 1, B, wide, tuple((ONE_B,) * (side + 1) for _ in wide))
        with pytest.raises(mx.DimensionMismatch, match=message):
            LinearMap(side + 1, B, ())
        with pytest.raises(mx.DimensionMismatch, match=f"^maps act on sizes 1 to {side}, got 0$"):
            UnitPermutationMap(0, B, (), ())

    @pytest.mark.parametrize("n", (2.0, True, "2"))
    def test_map_sizes_must_be_ints(self, n):
        u = identity_map(2, B)
        message = f"^a map's size must be an int, got {n!r}$"
        with pytest.raises(mx.DimensionMismatch, match=message):
            UnitPermutationMap(n, B, u.sigma, u.alpha)
        with pytest.raises(mx.DimensionMismatch, match=message):
            LinearMap(n, B, to_linear_map(u).images)

    def test_synthesize_standard_example(self):
        p = mx.MonomialMatrix(2, (1, 0), (ONE_B, ONE_B))
        u = synthesize(CanonicalForm(p, monomial_identity(B, 2), False), 2, B)
        for i in range(2):
            for j in range(2):
                assert u.sigma[i][j] == ((1 - i), j)
                assert u.alpha[i][j] == ONE_B

    def test_round_trip_boolean_exhaustive(self):
        """All 24 bijective maps at n=2: classify then synthesize reproduces."""
        canonical = 0
        for cells in itertools.permutations(range(4)):
            u = unit_map_from_cells(cells, 2)
            out = classify(u)
            if isinstance(out, CanonicalForm):
                canonical += 1
                assert synthesize(out, 2, B) == u
        assert canonical == 8

    def test_cells_is_the_row_major_cell_map(self):
        """All 24 cell maps at n=2: `cells` is the encoding `map_rep` returns."""
        for cells in itertools.permutations(range(4)):
            u = unit_map_from_cells(cells, 2)
            assert u.cells == cells
            assert _tropfast.map_rep(u)[0] == cells

    def test_reading_cells_keeps_equality_and_hash(self):
        u, v = unit_map_from_cells((1, 0, 3, 2), 2), unit_map_from_cells((1, 0, 3, 2), 2)
        assert u.cells == (1, 0, 3, 2)
        assert u == v and v == u and hash(u) == hash(v)
        assert u != unit_map_from_cells((0, 1, 3, 2), 2)

    @settings(max_examples=50)
    @given(st.data())
    def test_round_trip_random_tropical(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        p = sampling.random_monomial(rng, T, n)
        q = sampling.random_monomial(rng, T, n)
        transposed = data.draw(st.booleans())
        u = synthesize(CanonicalForm(p, q, transposed), n, T)
        out = classify(u)
        assert isinstance(out, CanonicalForm)
        assert out.transposed == (transposed and n > 1)
        assert synthesize(out, n, T) == u

    def test_classification_matches_application(self):
        """A canonical form means the map literally is X -> PXQ (or P X^T Q)."""
        rng = random.Random(3)
        for _ in range(20):
            p = sampling.random_monomial(rng, T, 2)
            q = sampling.random_monomial(rng, T, 2)
            for transposed in (False, True):
                u = synthesize(CanonicalForm(p, q, transposed), 2, T)
                x = sampling.random_matrix(rng, T, 2)
                px = mx.monomial_expand(p)
                qx = mx.monomial_expand(q)
                arg = mx.transpose(x) if transposed else x
                assert apply(u, x) == mx.mat_mul(mx.mat_mul(px, arg), qx)

    @pytest.mark.parametrize("sf", [T, TI])
    def test_p_is_normalized_for_both_shapes(self, sf):
        """The first coefficient of P is the identity, whatever the shape,
        and the form synthesizes back to the map."""
        rng = random.Random(29)
        for n in (1, 2, 3):
            for transposed in (False, True):
                for c in _seeded_forms(rng, sf, n, transposed, 10):
                    u = synthesize(c, n, sf)
                    out = classify(u)
                    assert out.p.scale[0] == sr.one(sf)
                    assert synthesize(out, n, sf) == u


def _seeded_forms(rng, sf, n, transposed, count):
    for _ in range(count):
        p = sampling.random_monomial(rng, sf, n)
        yield CanonicalForm(p, sampling.random_monomial(rng, sf, n), transposed)


def _unit_form_text(u) -> str:
    alpha = [[sr.format_value(c) for c in row] for row in u.alpha]
    return json.dumps([u.semifield.value, u.n, u.sigma, alpha])


#: SHA-256 of synthesize over 30 seeded forms per carrier, size 1..4 and
#: shape, recorded while synthesize built each shape cell by cell.
_SYNTHESIZE_GOLDEN = "f4a3aa6704b5809253358847b7e51aa1951f2a9575ecc26d18c49ad28825dabb"


def test_synthesize_is_byte_identical_to_golden():
    rng = random.Random(20261019)
    lines = []
    for sf in (B, T, TI):
        for n in (1, 2, 3, 4):
            for transposed in (False, True):
                for c in _seeded_forms(rng, sf, n, transposed, 30):
                    lines.append(_unit_form_text(synthesize(c, n, sf)))
    assert len(lines) == 720
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _SYNTHESIZE_GOLDEN


def _golden_classify_maps():
    """Standard-shape tropical maps, canonical and with random coefficients,
    and boolean maps of both shapes and of none."""
    rng = random.Random(1019)
    for sf in (T, TI):
        for n in (1, 2, 3):
            for c in _seeded_forms(rng, sf, n, False, 12):
                u = synthesize(c, n, sf)
                yield u
                alpha = tuple(
                    tuple(sampling.random_nonzero_scalar(rng, sf) for _ in range(n))
                    for _ in range(n)
                )
                yield UnitPermutationMap(n, sf, u.sigma, alpha)
    for cells in itertools.permutations(range(4)):
        yield unit_map_from_cells(cells, 2)
    for transposed in (False, True):
        for c in _seeded_forms(rng, B, 3, transposed, 12):
            yield synthesize(c, 3, B)
    for _ in range(12):
        cells = list(range(9))
        rng.shuffle(cells)
        yield unit_map_from_cells(cells, 3)


#: SHA-256 of the concatenated stdout of `greenmat classify` over
#: _golden_classify_maps, recorded while classify built P and Q of the
#: transpose shape by a second builder.
_CLASSIFY_GOLDEN = "bf66d4fdbc1b74891a1e8e503303fd122ad79752f9855d14db6c8a4d8475c056"


def test_classify_output_is_byte_identical_to_golden(tmp_path, capsys):
    path = tmp_path / "map.json"
    outs = []
    for u in _golden_classify_maps():
        path.write_text(json.dumps(lm.linear_map_to_json(to_linear_map(u))))
        assert cli.main(["classify", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert len(outs) == 2 * 3 * 12 * 2 + 24 + 2 * 12 + 12
    assert sum('"transposed": true' in o for o in outs) == 16
    assert sum("non_canonical" in o for o in outs) == 76
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == _CLASSIFY_GOLDEN


class TestPreservation:
    def test_identity_preserves_l(self):
        v = check_preservation(identity_map(2, B), GR.L, Exhaustive())
        assert v.outcome == "Preserved" and v.ok

    def test_swap_map_counterexample(self):
        u = unit_map_from_cells((1, 0, 2, 3), 2)
        v = check_preservation(u, GR.L, Exhaustive())
        assert v.outcome == "Counterexample"
        assert relate(v.counterexample.a, v.counterexample.b, GR.L)
        assert not relate(v.counterexample.image_a, v.counterexample.image_b, GR.L)
        # the canonical violating pair: E11 and E21 share a row space
        e11, e21 = unit_matrix(2, 1, 1, ONE_B), unit_matrix(2, 2, 1, ONE_B)
        assert relate(e11, e21, GR.L)
        assert not relate(apply(u, e11), apply(u, e21), GR.L)

    def test_transposition_preserves_d_exhaustive(self):
        v = check_preservation(transposition_map(2, B), GR.D, Exhaustive())
        assert v.outcome == "Preserved"

    def test_transposition_strongly_preserves_h(self):
        v = check_preservation(transposition_map(2, B), GR.H, Exhaustive(), strong=True)
        assert v.outcome == "Preserved"

    def test_transposition_does_not_preserve_l(self):
        v = check_preservation(transposition_map(2, B), GR.L, Exhaustive())
        assert v.outcome == "Counterexample"

    def test_exchange_transposition(self):
        v = check_exchange(transposition_map(2, B), Exhaustive())
        assert v.outcome == "Exchanges"

    def test_exchange_identity_fails(self):
        v = check_exchange(identity_map(2, B), Exhaustive())
        assert v.outcome == "Counterexample"
        # E11 and E12 share a column space; their images stay R-related, not L
        e11, e12 = unit_matrix(2, 1, 1, ONE_B), unit_matrix(2, 1, 2, ONE_B)
        assert relate(e11, e12, GR.R)
        assert not relate(e11, e12, GR.L)
        cx = v.counterexample
        assert (cx.a, cx.b) == (e11, e12)
        # the premise that held is a R b, and the conclusion that failed is L
        assert cx.detail == "a R b holds but the images are not L-related"
        assert set(cx.witness) == {"t_forward", "t_backward"}
        assert mx.mat_mul(cx.b, cx.witness["t_forward"]) == cx.a
        assert mx.mat_mul(cx.a, cx.witness["t_backward"]) == cx.b

    def test_randomized_tropical_canonical_preserves(self):
        rng = random.Random(13)
        p = sampling.random_monomial(rng, T, 2)
        q = sampling.random_monomial(rng, T, 2)
        u = synthesize(CanonicalForm(p, q, False), 2, T)
        for rel in (GR.L, GR.R, GR.LEQ_L, GR.LEQ_R, GR.H):
            v = check_preservation(u, rel, Randomized(seed=101, trials=200))
            assert v.outcome == "NoCounterexampleFound", (rel, v)

    def test_randomized_exchange_seed7(self):
        rng = random.Random(77)
        p = sampling.random_monomial(rng, T, 2)
        q = sampling.random_monomial(rng, T, 2)
        u = synthesize(CanonicalForm(p, q, True), 2, T)
        v = check_exchange(u, Randomized(seed=7, trials=10000))
        assert v.outcome == "NoCounterexampleFound"
        assert v.pairs_checked == 20000  # both directions per trial

    def test_randomized_detects_bad_map(self):
        u_sigma = (((0, 1), (0, 0)), ((1, 0), (1, 1)))
        one_t = sr.one(T)
        u = UnitPermutationMap(2, T, u_sigma, ((one_t, one_t), (one_t, one_t)))
        v = check_preservation(u, GR.L, Randomized(seed=3, trials=500))
        assert v.outcome == "Counterexample"
        assert relate(v.counterexample.a, v.counterexample.b, GR.L)
        assert not relate(v.counterexample.image_a, v.counterexample.image_b, GR.L)

    @pytest.mark.parametrize("seed", (None, True, 1.0, "7"))
    def test_randomized_rejects_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            Randomized(seed=seed)

    @pytest.mark.parametrize("trials", (True, 2.5, "3"))
    def test_randomized_rejects_trials_that_are_not_an_int(self, trials):
        # True would run one trial, and 2.5 end in a TypeError from range
        with pytest.raises(ValueError, match=f"^trials must be an int, got {trials!r}$"):
            Randomized(seed=1, trials=trials)

    @pytest.mark.parametrize("mode", (Exhaustive(), Randomized(seed=1, trials=5)))
    def test_exchange_of_a_relation_with_itself_is_rejected(self, mode):
        for rel in (GR.L, GR.H, GR.LEQ_R):
            with pytest.raises(UnsupportedMode, match=f"^{rel.value} cannot be exchanged"):
                check_exchange(transposition_map(2, B), mode, pair=(rel, rel))

    @pytest.mark.parametrize("mode", (Exhaustive(), Randomized(seed=1, trials=2)))
    def test_relations_and_semifields_of_other_types_are_rejected(self, mode):
        u = transposition_map(2, T)
        with pytest.raises(UnsupportedMode, match="^unknown relation 'L'$"):
            check_preservation(u, "L", mode)
        for pair in (("L", GR.R), (GR.L, "R"), ("L", "L")):
            with pytest.raises(UnsupportedMode, match="^unknown relation "):
                check_exchange(u, mode, pair=pair)
        # a coefficient built over the same stand-in passes the map's own checks
        stand_in = UnitPermutationMap(
            1, "tropical", (((0, 0),),), ((sr.SemifieldValue("tropical", 0),),)
        )
        with pytest.raises(UnsupportedMode, match="^unknown semifield 'tropical'$"):
            check_preservation(stand_in, GR.L, mode)
        with pytest.raises(UnsupportedMode, match="^unknown semifield 'tropical'$"):
            check_exchange(stand_in, mode)

    def test_randomized_rejects_trials_below_one(self):
        with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
            check_preservation(
                unit_map_from_cells((0, 4, 8, 5, 6, 1, 7, 2, 3), 3), GR.L,
                Randomized(seed=1, trials=0),
            )

    def test_exhaustive_mode_limits(self):
        with pytest.raises(UnsupportedMode):
            check_preservation(identity_map(2, T), GR.L, Exhaustive())
        with pytest.raises(UnsupportedMode):
            check_preservation(identity_map(4, B), GR.D, Exhaustive())
        with pytest.raises(UnsupportedMode):
            check_preservation(identity_map(2, T), GR.D, Randomized(seed=1, trials=10))

    @pytest.mark.parametrize("rel", [GR.D, GR.J, GR.LEQ_J])
    def test_randomized_bounded_relations_limited_to_n3(self, rel):
        """Rejected up front, as the exhaustive check does, not mid-check."""
        with pytest.raises(UnsupportedMode, match=r"^randomized check of .* n <= 3$"):
            check_preservation(identity_map(4, B), rel, Randomized(seed=1, trials=3))
        with pytest.raises(UnsupportedMode, match=r"^randomized check of .* n <= 3$"):
            check_exchange(identity_map(4, B), Randomized(seed=1, trials=3), pair=(GR.L, rel))

    @pytest.mark.parametrize("rel", [GR.D, GR.J, GR.LEQ_J])
    def test_exhaustive_n3_bounded_relations(self, rel):
        """D, J and leqJ are checked over all 512x512 pairs at n=3, like the rest."""
        v = check_preservation(transposition_map(3, B), rel, Exhaustive(), strong=True)
        assert v.outcome == "Preserved" and v.pairs_checked == 512 * 512
        u = unit_map_from_cells((0, 4, 8, 5, 6, 1, 7, 2, 3), 3)  # non-canonical
        v2 = check_preservation(u, rel, Exhaustive(), strong=True)
        assert v2.outcome == "Counterexample"
        cx = v2.counterexample
        assert relate(cx.a, cx.b, rel) != relate(cx.image_a, cx.image_b, rel)

    def test_exhaustive_n3_l_preservation(self):
        """The full 512x512 pair sweep at n=3 works for the unbounded relations."""
        v = check_preservation(transposition_map(3, B), GR.H, Exhaustive())
        assert v.outcome == "Preserved"
        v2 = check_preservation(transposition_map(3, B), GR.L, Exhaustive())
        assert v2.outcome == "Counterexample"
        assert relate(v2.counterexample.a, v2.counterexample.b, GR.L)
        assert not relate(v2.counterexample.image_a, v2.counterexample.image_b, GR.L)

    def test_randomized_bounded_relations_over_boolean(self):
        u = transposition_map(2, B)
        for rel in (GR.D, GR.J, GR.LEQ_J):
            v = check_preservation(u, rel, Randomized(seed=17, trials=40))
            assert v.outcome == "NoCounterexampleFound", (rel, v)

    def test_strong_preservation_via_negation(self):
        u = identity_map(2, B)
        v = check_preservation(u, GR.H, Exhaustive(), strong=True)
        assert v.outcome == "Preserved"
        assert v.pairs_checked == 256  # every ordered pair feeds the biconditional

    def test_classify_soundness_exhaustive(self):
        """Non-transposed canonical <=> preserves L; any canonical <=> preserves D,
        over all 24 bijective maps at n=2."""
        for cells in itertools.permutations(range(4)):
            u = unit_map_from_cells(cells, 2)
            out = classify(u)
            standard = isinstance(out, CanonicalForm) and not out.transposed
            canonical = isinstance(out, CanonicalForm)
            assert standard == check_preservation(u, GR.L, Exhaustive()).ok
            assert canonical == check_preservation(u, GR.D, Exhaustive()).ok

    def test_strong_randomized_preservation(self):
        rng = random.Random(21)
        p = sampling.random_monomial(rng, T, 2)
        q = sampling.random_monomial(rng, T, 2)
        u = synthesize(CanonicalForm(p, q, False), 2, T)
        for rel in (GR.L, GR.H):
            v = check_preservation(u, rel, Randomized(seed=31, trials=150), strong=True)
            assert v.outcome == "NoCounterexampleFound", (rel, v)
        flipped = synthesize(CanonicalForm(p, q, True), 2, T)
        v = check_exchange(flipped, Randomized(seed=32, trials=150), strong=True)
        assert v.outcome == "NoCounterexampleFound"


class TestImageRelation:
    """`IMAGE_RELATION` against the exhaustive deciders at n = 3, strong checks."""

    def test_rows_list_every_relation_in_order(self):
        order = [GR.L, GR.R, GR.LEQ_L, GR.LEQ_R, GR.H, GR.D, GR.J, GR.LEQ_J]
        assert list(IMAGE_RELATION) == ["standard", "transpose"]
        assert all(list(image) == order for image in IMAGE_RELATION.values())

    @pytest.mark.parametrize(
        "cells, shape",
        [
            ((0, 3, 6, 1, 4, 7, 2, 5, 8), "transpose"),
            ((3, 4, 5, 0, 1, 2, 6, 7, 8), "standard"),  # swap rows 1 and 2
            ((1, 2, 0, 4, 5, 3, 7, 8, 6), "standard"),  # cycle the columns
        ],
    )
    def test_canonical_maps_do_what_the_table_says(self, cells, shape):
        assert lm.cell_shape(cells, 3) == shape
        u = unit_map_from_cells(cells, 3)
        for rel, target in IMAGE_RELATION[shape].items():
            v = check_preservation(u, rel, Exhaustive(), strong=True)
            assert v.outcome == ("Preserved" if target is rel else "Counterexample"), rel
            if target is not rel:
                v = check_exchange(u, Exhaustive(), strong=True, pair=(rel, target))
                assert v.outcome == "Exchanges", rel

    def test_non_canonical_map_preserves_nothing(self):
        cells = (0, 4, 8, 5, 6, 1, 7, 2, 3)
        assert lm.cell_shape(cells, 3) is None
        u = unit_map_from_cells(cells, 3)
        for rel in GR:
            v = check_preservation(u, rel, Exhaustive(), strong=True)
            assert v.outcome == "Counterexample", rel


class TestSticky:
    def test_boolean_exhaustive(self):
        rep = find_sticky(B, Exhaustive())
        assert rep.outcome == "NoCandidateFound"
        assert rep.candidates == 1
        assert rep.refutations[0].failed == "S2"

    def test_tropical_hand_example(self):
        m = mx.from_rows(T, [[0, 0], [0, 1]])
        from fractions import Fraction

        k = sr.value(T, Fraction(-1, 2))
        ak, bk = lm._sticky_pair(m, k)
        assert ak == mx.from_rows(T, [[Fraction(-1, 2), 0], [0, Fraction(1, 2)]])
        assert bk == mx.from_rows(T, [[0, Fraction(-1, 2)], [Fraction(-1, 2), 1]])
        from greenmat.green import factor_rank

        assert factor_rank(ak).value == 1
        assert factor_rank(bk).value == 2
        assert not relate(ak, bk, GR.H)

    def test_tropical_randomized_seed42(self):
        rep = find_sticky(T, Randomized(seed=42, trials=1000))
        assert rep.outcome == "NoCandidateFound"
        assert rep.candidates == 1000
        assert len(rep.refutations) == 1000
        assert all(r.failed == "S3" and r.k_is_square_root_witness for r in rep.refutations)

    def test_tropical_int_randomized(self):
        rep = find_sticky(TI, Randomized(seed=9, trials=200))
        assert rep.outcome == "NoCandidateFound"

    def test_refutations_are_independently_checkable(self):
        from greenmat.green import factor_rank

        at_sampled_k = {}
        for sf in (T, TI):
            rep = find_sticky(sf, Randomized(seed=6, trials=25))
            assert len(rep.refutations) == 25
            for r in rep.refutations:
                assert r.failed == "S3"
                assert not any(sr.is_zero(e) for row in r.m.entries for e in row)
                assert factor_rank(r.m).value == 2
                ak, bk = lm._sticky_pair(r.m, r.k)
                assert not relate(ak, bk, GR.H)
            at_sampled_k[sf] = sum(not r.k_is_square_root_witness for r in rep.refutations)
        # over the rationals the root always refutes; over the integers an
        # odd t has no root, and a sampled k refutes instead
        assert at_sampled_k == {T: 0, TI: 15}

    def test_mode_validation(self):
        with pytest.raises(UnsupportedMode):
            find_sticky(T, Exhaustive())
        with pytest.raises(UnsupportedMode):
            find_sticky(B, Randomized(seed=1))

    def test_randomized_rejects_trials_below_one(self):
        with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
            find_sticky(T, Randomized(seed=1, trials=0))

    @pytest.mark.parametrize("mode", (Exhaustive(), Randomized(seed=1, trials=2)))
    def test_semifield_that_is_not_a_semifield_is_rejected(self, mode):
        with pytest.raises(UnsupportedMode, match="^unknown semifield 'tropical'$"):
            find_sticky("tropical", mode)

    @pytest.mark.parametrize("sf", (T, TI))
    def test_refutations_lift_their_grid_and_draws(self, sf):
        rep = find_sticky(sf, Randomized(seed=3, trials=40))
        assert len(rep.refutations) == 40
        for r in rep.refutations:
            assert r.semifield is sf
            assert r.m == _tropfast.lift(sf, r.scale, r.grid)
            assert r.k == sampling._value(sf, *r.k_draws)
        boolean = find_sticky(B, Exhaustive()).refutations[0]
        assert (boolean.k_draws, boolean.k) == (None, None)
        assert boolean.m == _tropfast.lift(B, boolean.scale, boolean.grid)

    def test_every_randomized_candidate_gets_its_k_samples(self, monkeypatch):
        tested = []
        real = lm._refute_candidate

        def spy(m, scale, grid, ks):
            tested.append(sum(not is_witness for _, _, is_witness in ks))
            return real(m, scale, grid, ks)

        monkeypatch.setattr(lm, "_refute_candidate", spy)
        rep = find_sticky(TI, Randomized(seed=42, trials=50))
        assert rep.outcome == "NoCandidateFound" and rep.candidates == 50
        assert tested == [lm.STICKY_K_SAMPLES] * 50

    @pytest.mark.parametrize("sf", (T, TI))
    def test_passing_search_builds_only_its_candidates(self, monkeypatch, sf):
        calls = {"_sticky_pair": 0, "relate": 0, "lift": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(lm, "_sticky_pair")
        counted(_tropfast, "relate")
        counted(_tropfast, "lift")
        rep = find_sticky(sf, Randomized(seed=42, trials=50))
        assert rep.outcome == "NoCandidateFound" and rep.candidates == 50
        assert calls == {"_sticky_pair": 0, "relate": 0, "lift": 0}

    @pytest.mark.parametrize("sf", (T, TI))
    def test_grid_arithmetic_matches_the_matrix_reference(self, sf):
        """The rank test, the square root and the sticky pair on a
        candidate's integer grid agree with `semiring` on its matrix."""
        from fractions import Fraction

        rng = random.Random(2718)
        rank_one = no_root = 0
        for i in range(400):
            draws = [sampling._nonzero(rng, sf) for _ in range(4)]
            if i % 4 == 0:  # d = b + c - a: factor rank 1
                pa, pb, pc = (Fraction(p, q) for p, q in draws[:3])
                d = pb + pc - pa
                draws[3] = (d.numerator, d.denominator)
            scale, grid = sampling._scaled(draws, 2)
            a, b, c, d = (sampling._value(sf, p, q) for p, q in draws)
            m = mx.Matrix(sf, 2, 2, ((a, b), (c, d)))
            assert _tropfast.lift(sf, scale, grid) == m
            assert lm._rank_two(grid) == (sr.mul(a, d) != sr.mul(b, c))
            if not lm._rank_two(grid):
                rank_one += 1
                continue
            root = lm._square_root(sf, scale, grid)
            expected = sr.try_sqrt(sr.mul(sr.mul(b, c), sr.inv(sr.mul(a, d))))
            assert (None if root is None else sampling._value(sf, *root)) == expected
            no_root += root is None
            for p, q in ([] if root is None else [root]) + [sampling._nonzero(rng, sf)]:
                s, ak, bk = lm._sticky_grids(scale, grid, p, q)
                k = sampling._value(sf, p, q)
                assert (_tropfast.lift(sf, s, ak), _tropfast.lift(sf, s, bk)) == lm._sticky_pair(m, k)
        assert rank_one == 100
        # over the integers exactly the odd t = b + c - a - d have no root
        assert no_root == 0 if sf is T else 100 < no_root < 200

    def test_rank_collapse_refutes_h(self):
        """For sampled full-support rank-2 M and invertible k: whenever one of
        A_k, B_k drops to rank one, the pair cannot be H-related."""
        from greenmat.green import factor_rank

        rng = random.Random(7171)
        seen_collapse = 0
        for _ in range(300):
            entries = [sampling.random_nonzero_scalar(rng, T) for _ in range(4)]
            a, b, c, d = entries
            if sr.mul(a, d) == sr.mul(b, c):
                continue
            m = mx.Matrix(T, 2, 2, ((a, b), (c, d)))
            ratio = sr.mul(sr.mul(b, c), sr.inv(sr.mul(a, d)))
            root = sr.try_sqrt(ratio)
            for k in (root, sampling.random_nonzero_scalar(rng, T)):
                ak, bk = lm._sticky_pair(m, k)
                ranks = (factor_rank(ak).value, factor_rank(bk).value)
                if 1 in ranks:
                    seen_collapse += 1
                    assert not relate(ak, bk, GR.H)
        assert seen_collapse > 100  # the square-root witness collapses A_k


class TestJson:
    def test_linear_map_round_trip(self):
        u = transposition_map(2, T)
        t = to_linear_map(u)
        obj = lm.linear_map_to_json(t)
        assert lm.linear_map_from_json(obj) == t

    def test_canonical_form_round_trip(self):
        p = mx.MonomialMatrix(2, (1, 0), (sr.value(T, 3), sr.value(T, -1)))
        c = CanonicalForm(p, monomial_identity(T, 2), True)
        obj = lm.canonical_form_to_json(c)
        assert lm.canonical_form_from_json(T, obj) == c

    def test_strict_image_count(self):
        obj = lm.linear_map_to_json(to_linear_map(identity_map(2, B)))
        obj["images"].pop()
        with pytest.raises(mx.ParseError):
            lm.linear_map_from_json(obj)
