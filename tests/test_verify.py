"""Verification suites and the egg-box decomposition."""

import dataclasses
import json
import re

import pytest

from greenmat import _boolspace, verify
from greenmat.eggbox import eggbox, eggbox_to_dot, eggbox_to_json
from greenmat.green import GreenRelation, relate
from greenmat.matrix import matrix_from_json, matrix_to_json
from greenmat.semiring import Semifield
from greenmat.verify import (
    SuiteParams,
    SuiteReport,
    UnknownSuite,
    UnsupportedParams,
    run_suite,
)

B, T, TI = Semifield.BOOLEAN, Semifield.TROPICAL, Semifield.TROPICAL_INT


class TestSuitePlumbing:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("t3", SuiteParams())

    def test_t2_beyond_n2_unsupported(self):
        with pytest.raises(UnsupportedParams):
            run_suite("t2", SuiteParams(semifield=B, n=3))

    def test_boolean_only_suites_reject_tropical(self):
        for name in ("t1", "t2", "lemma_bg", "invertibles", "rank_j_monotone"):
            with pytest.raises(UnsupportedParams):
                run_suite(name, SuiteParams(semifield=T, n=2, seed=1))

    def test_randomized_suites_require_seed(self):
        with pytest.raises(UnsupportedParams):
            run_suite("h_theorem", SuiteParams(semifield=T, n=2))
        with pytest.raises(UnsupportedParams):
            run_suite("corollaries", SuiteParams(semifield=T, n=2))
        with pytest.raises(UnsupportedParams):
            run_suite("t1", SuiteParams(semifield=B, n=3))

    @pytest.mark.parametrize("seed", (True, False, 1.5, "42"))
    def test_seeded_suites_reject_a_seed_that_is_not_an_int(self, seed):
        for name, params in (
            ("h_theorem", SuiteParams(semifield=T, n=2, seed=seed)),
            ("corollaries", SuiteParams(semifield=T, n=2, seed=seed)),
            ("t1", SuiteParams(semifield=B, n=3, seed=seed)),
        ):
            message = f"needs an explicit seed as an int, got {seed!r}$"
            with pytest.raises(UnsupportedParams, match=message):
                verify.check_params(name, params)
        # an unseeded mode ignores the seed
        verify.check_params("t1", SuiteParams(semifield=B, n=2, seed=seed))

    @pytest.mark.parametrize(
        "field, cap, name, base",
        [
            ("monomial_pairs", verify.MAX_MONOMIAL_PAIRS, "corollaries",
             SuiteParams(semifield=T, n=2, seed=1)),
        ],
    )
    def test_suite_counts_are_bounded(self, field, cap, name, base):
        # below 1 the suite would pass vacuously, with no pair checked
        for value in (0, -3, cap + 1):
            params = dataclasses.replace(base, **{field: value})
            with pytest.raises(UnsupportedParams, match=f"^{field} must be at "):
                verify.check_params(name, params)
            with pytest.raises(UnsupportedParams, match=f"^{field} must be at "):
                run_suite(name, params)
        assert cap == 10 * getattr(SuiteParams(), field)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("t2", "n", True),
            ("corollaries", "n", 2.0),
            ("corollaries", "trials", 2.5),
            ("corollaries", "trials", True),
            ("corollaries", "monomial_pairs", 3.0),
            ("h_theorem", "trials", "5"),
        ],
    )
    def test_suite_counts_must_be_ints(self, name, field, value):
        # bools compare as ints and floats as counts, so only a type check
        # keeps them out of the reports and the loops
        base = SuiteParams(n=2) if name == "t2" else SuiteParams(semifield=T, n=2, seed=1)
        params = dataclasses.replace(base, **{field: value})
        message = f"^{field} must be an int, got {re.escape(repr(value))}$"
        with pytest.raises(UnsupportedParams, match=message):
            verify.check_params(name, params)
        with pytest.raises(UnsupportedParams, match=message):
            run_suite(name, params)

    @pytest.mark.parametrize("name", ("t2", "corollaries", "h_theorem"))
    def test_semifield_that_is_not_a_semifield_is_rejected(self, name):
        params = SuiteParams(semifield="boolean", n=2, seed=1)
        message = "^semifield must be a Semifield, got 'boolean'$"
        with pytest.raises(UnsupportedParams, match=message):
            verify.check_params(name, params)
        with pytest.raises(UnsupportedParams, match=message):
            run_suite(name, params)

    def test_check_params_admits_only_what_runs(self):
        # every request check_params accepts runs without UnsupportedParams,
        # so run_suites.py, which checks every run first, starts no bad one
        accepted = 0
        for name in verify._SUITES:
            for sf in Semifield:
                for n in range(1, 10):
                    for seed in (None, 1):
                        params = SuiteParams(semifield=sf, n=n, seed=seed, trials=1,
                                             monomial_pairs=1)
                        try:
                            mode = verify.check_params(name, params)
                        except UnsupportedParams:
                            continue
                        report = run_suite(name, params)
                        assert report.mode == mode.label
                        assert report.seed == (seed if mode.seeded else None)
                        accepted += 1
        assert accepted == 55

    @pytest.mark.parametrize(
        "name, params",
        [
            ("t2", SuiteParams(semifield=B, n=3)),
            ("t1", SuiteParams(semifield=T, n=2, seed=1)),
            ("t1", SuiteParams(semifield=B, n=3)),
            ("corollaries", SuiteParams(semifield=B, n=3)),
            ("invertibles", SuiteParams(semifield=B, n=4)),
            ("h_theorem", SuiteParams(semifield=T, n=3, seed=1)),
            ("remark_2_6_regression", SuiteParams(n=1)),
        ],
    )
    def test_out_of_domain_requests_fail_in_check_params(self, name, params):
        with pytest.raises(UnsupportedParams) as exc:
            verify.check_params(name, params)
        assert "\n" not in str(exc.value)

    def test_failing_reports_need_witnesses(self):
        with pytest.raises(ValueError):
            SuiteReport("x", "boolean", 2, "exhaustive", False, {})

    def test_preserver_disagreement_is_reported_per_map(self, monkeypatch):
        # a classifier that calls nothing canonical turns every preserver
        # into a witness whose membership shows the disagreement
        monkeypatch.setattr(verify, "cell_shape", lambda cells, n: None)
        for suite, label, rels in (
            ("t1", "canonical_standard", ("L", "R", "leqL", "leqR")),
            ("t2", "canonical", ("D", "J", "leqJ")),
            ("h_theorem", "canonical", ("H", "D")),
        ):
            r = run_suite(suite, SuiteParams(semifield=B, n=2))
            assert not r.passed
            assert r.witnesses[0] == {
                "map_cells": [0, 1, 2, 3],
                "membership": {**{rel: True for rel in rels}, label: False},
            }

    def test_h_theorem_reports_a_sticky_survivor(self, monkeypatch):
        m = _boolspace.space(2).matrix_of(0b1111)
        real = verify.find_sticky
        monkeypatch.setattr(
            verify, "find_sticky",
            lambda sf, mode: dataclasses.replace(real(sf, mode), survivor=m),
        )
        r = run_suite("h_theorem", SuiteParams(semifield=B, n=2))
        assert not r.passed
        assert r.witnesses == ({"sticky_survivor": matrix_to_json(m)},)

    def test_report_json_shape(self):
        r = run_suite("invertibles", SuiteParams(semifield=B, n=2))
        obj = r.to_json_dict()
        assert list(obj) == [
            "suite", "semifield", "n", "mode", "seed", "generator",
            "passed", "counts", "witnesses",
        ]
        json.dumps(obj)  # must be serializable as-is


class TestTheoremSuites:
    def test_t1_exhaustive_counts(self):
        r = run_suite("t1", SuiteParams(semifield=B, n=2))
        assert r.passed
        assert r.counts["maps_enumerated"] == 24
        assert r.counts["l_preservers"] == 4
        assert r.counts["canonical_standard"] == 4

    def test_t1_preservers_are_the_monomial_sandwich_maps(self):
        """The 4 standard maps at n=2 are exactly X -> PXQ for the two
        permutation matrices P and Q."""
        import itertools

        from greenmat.linear_maps import CanonicalForm, classify, synthesize
        from greenmat.matrix import MonomialMatrix
        from greenmat import semiring as sr

        one = sr.one(B)
        perms = [MonomialMatrix(2, (0, 1), (one, one)), MonomialMatrix(2, (1, 0), (one, one))]
        expected = {
            synthesize(CanonicalForm(p, q, False), 2, B).sigma
            for p in perms
            for q in perms
        }
        found = set()
        for cells in itertools.permutations(range(4)):
            sigma = tuple(
                tuple(divmod(cells[2 * i + j], 2) for j in range(2)) for i in range(2)
            )
            alpha = ((one, one), (one, one))
            from greenmat.linear_maps import UnitPermutationMap

            out = classify(UnitPermutationMap(2, B, sigma, alpha))
            if isinstance(out, CanonicalForm) and not out.transposed:
                found.add(sigma)
        assert found == expected and len(found) == 4

    def test_t1_n1(self):
        r = run_suite("t1", SuiteParams(semifield=B, n=1))
        assert r.passed and r.counts["maps_enumerated"] == 1

    def test_t2_counts(self):
        r = run_suite("t2", SuiteParams(semifield=B, n=2))
        assert r.passed
        assert r.counts["canonical_total"] == 8
        assert r.counts["canonical_standard"] == 4
        assert r.counts["canonical_transpose"] == 4
        assert r.counts["d_preservers"] == 8

    def test_corollaries_boolean(self):
        r = run_suite("corollaries", SuiteParams(semifield=B, n=2))
        assert r.passed and r.counts["canonical_maps"] == 8 and r.counts["failures"] == 0

    def test_corollaries_tropical_small(self):
        r = run_suite(
            "corollaries",
            SuiteParams(semifield=T, n=2, seed=5, trials=100, monomial_pairs=5),
        )
        assert r.passed
        assert r.counts["pairs_per_relation"] == 20
        assert r.generator == "python-random-mt19937"

    def test_corollaries_tropical_at_trials_limit(self):
        # pools of MAX_TRIALS / 5 grid pairs per relation, each checked under
        # both map shapes of one monomial pair
        params = SuiteParams(
            semifield=T, n=2, seed=3, trials=verify.MAX_TRIALS, monomial_pairs=1
        )
        r = run_suite("corollaries", params)
        assert r.passed
        assert r.counts == {
            "monomial_pairs": 1, "pairs_per_relation": 2000, "pair_checks": 20000, "failures": 0,
        }

    def test_corollaries_deterministic_given_seed(self):
        params = SuiteParams(semifield=T, n=2, seed=12, trials=50, monomial_pairs=3)
        r1 = run_suite("corollaries", params)
        r2 = run_suite("corollaries", params)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_h_theorem_boolean(self):
        r = run_suite("h_theorem", SuiteParams(semifield=B, n=2))
        assert r.passed
        assert r.counts["h_preservers"] == 8
        assert r.counts["d_preservers"] == 8
        assert r.counts["sticky_candidates"] == 1

    def test_h_theorem_tropical(self):
        r = run_suite("h_theorem", SuiteParams(semifield=T, n=2, seed=42, trials=100))
        assert r.passed
        assert r.counts["refuted_at_sqrt_witness"] == 100

    def test_h_theorem_tropical_int(self):
        r = run_suite("h_theorem", SuiteParams(semifield=TI, n=2, seed=4, trials=100))
        assert r.passed

    def test_lemma_bg(self):
        r = run_suite("lemma_bg", SuiteParams(semifield=B, n=2))
        assert r.passed
        assert r.counts["maps_enumerated"] == 11**4
        assert r.counts["bijective"] == 24
        assert r.counts["cross_checked"] > 0

    def test_invertibles(self):
        r = run_suite("invertibles", SuiteParams(semifield=B, n=2))
        assert r.passed and r.counts["invertible"] == 2

    def test_invertibles_n3(self):
        r = run_suite("invertibles", SuiteParams(semifield=B, n=3))
        assert r.passed and r.counts["invertible"] == 6

    def test_rank_j_monotone(self):
        r = run_suite("rank_j_monotone", SuiteParams(semifield=B, n=2))
        assert r.passed and r.counts["violations"] == 0

    def test_remark_regression(self):
        r = run_suite("remark_2_6_regression", SuiteParams())
        assert r.passed and r.mode == "fixed"

    def test_t1_sampled_n3(self):
        r = run_suite(
            "t1", SuiteParams(semifield=B, n=3, seed=11, trials=120)
        )
        assert r.passed
        assert r.counts["maps_classified"] == 362880
        assert r.counts["standard"] == 36
        assert r.counts["transpose"] == 36
        assert r.counts["probe_refuted"] + r.counts["table_checks"] == 3 * r.counts["sampled_maps"]
        assert r.counts["discrepancies"] == 0

    def test_t1_sampled_decides_unrefuted_maps_by_table(self):
        # seed 6 samples one standard map (L, R and H preserved) and one
        # transpose map (H preserved); no probe refutes these four verdicts
        r = run_suite("t1", SuiteParams(semifield=B, n=3, seed=6))
        assert r.passed
        assert r.counts["probe_pairs"] == 45
        assert r.counts["table_checks"] == 4
        assert r.counts["probe_refuted"] + r.counts["table_checks"] == 3 * r.counts["sampled_maps"]
        assert r.counts["discrepancies"] == 0

    def test_t1_sampled_ignores_trials(self):
        reports = [
            run_suite("t1", SuiteParams(semifield=B, n=3, seed=6, trials=trials)).to_json_dict()
            for trials in (1, 10_000)
        ]
        assert reports[0] == reports[1]

    def test_t1_sampled_verdicts_do_not_rest_on_the_probes(self, monkeypatch):
        monkeypatch.setattr(verify, "_probe_pairs", lambda sp, rel: [])
        monkeypatch.setattr(verify, "T1_MAP_SAMPLES", 4)
        r = run_suite("t1", SuiteParams(semifield=B, n=3, seed=42))
        assert r.passed
        assert r.counts["sampled_maps"] == 4
        assert r.counts["probe_pairs"] == r.counts["probe_refuted"] == 0
        assert r.counts["table_checks"] == 3 * 4
        assert r.counts["discrepancies"] == 0
        # claiming every map a preserver turns each table counterexample
        # into a witness, whose pair is related and whose images are not
        monkeypatch.setattr(verify, "_preserves", lambda shape, rels: True)
        r = run_suite("t1", SuiteParams(semifield=B, n=3, seed=42))
        assert not r.passed and r.counts["discrepancies"] == len(r.witnesses) == 12
        sp = _boolspace.space(3)
        for w in r.witnesses:
            rel = GreenRelation(w["relation"])
            a, b = (_boolspace.matrix_to_index(matrix_from_json(m)) for m in w["pair"])
            cells = tuple(w["map_cells"])
            assert relate(sp.matrix_of(a), sp.matrix_of(b), rel)
            images = (sp.matrix_of(_boolspace.act_on_bits(cells, m)) for m in (a, b))
            assert not relate(*images, rel)


class TestEggbox:
    def test_n1(self):
        box = eggbox(1)
        assert len(box.d_classes) == 2
        assert [d.rank for d in box.d_classes] == [0, 1]
        assert all(len(d.h_classes) == 1 for d in box.d_classes)

    def test_n2_partition(self):
        box = eggbox(2)
        total = sum(d.size for d in box.d_classes)
        assert total == 16
        # the zero matrix sits alone
        zero_class = box.d_classes[0]
        assert zero_class.size == 1 and zero_class.rank == 0
        # the two permutation matrices share a D-class (the group of units)
        sp = _boolspace.space(2)
        unit_classes = [
            d
            for d in box.d_classes
            if any(
                _h_equiv(sp, _boolspace.matrix_to_index(h.representative), sp.identity)
                for h in d.h_classes
            )
        ]
        assert len(unit_classes) == 1
        group = unit_classes[0]
        assert group.size == 2 and group.rank == 2
        assert group.r_class_count == 1 and group.l_class_count == 1

    def test_d_join_agrees_with_bounded_search_n2(self):
        """The egg-box's D-classes equal the one-intermediate search."""
        box = eggbox(2)
        sp = _boolspace.space(2)
        mats = [sp.matrix_of(i) for i in range(sp.size)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                joined = _same_d_class(box, sp, i, j)
                assert joined == relate(a, b, GreenRelation.D), (i, j)

    def test_h_class_sizes_sum(self):
        box = eggbox(3)
        assert sum(d.size for d in box.d_classes) == 512
        for d in box.d_classes:
            assert sum(h.size for h in d.h_classes) == d.size

    def test_d_join_agrees_with_bounded_search_n3_sampled(self):
        import random

        box = eggbox(3)
        sp = _boolspace.space(3)
        rng = random.Random(404)
        for _ in range(25):
            i, j = rng.randrange(sp.size), rng.randrange(sp.size)
            joined = _same_d_class(box, sp, i, j)
            searched = relate(sp.matrix_of(i), sp.matrix_of(j), GreenRelation.D)
            assert joined == searched, (i, j)

    def test_json_rendering(self):
        obj = eggbox_to_json(eggbox(2))
        assert obj["n"] == 2
        assert sum(d["size"] for d in obj["d_classes"]) == 16
        json.dumps(obj)

    def test_dot_rendering(self):
        dot = eggbox_to_dot(eggbox(2))
        assert dot.startswith("digraph eggbox {")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")
        assert len(re.findall(r"subgraph cluster_d\d+", dot)) == len(eggbox(2).d_classes)
        assert re.search(r'label="R_0,L_0,rank=\d+,size=\d+"', dot)

    def test_deterministic(self):
        assert eggbox_to_dot(eggbox(2)) == eggbox_to_dot(eggbox(2))
        assert eggbox_to_json(eggbox(3)) == eggbox_to_json(eggbox(3))

    def test_size_limit(self):
        with pytest.raises(UnsupportedParams):
            eggbox(4)

    def test_table_rows_that_are_not_classes_are_rejected(self, monkeypatch):
        # leqL's rows are down-sets, not classes, so they cannot stand for D
        sp = _boolspace.BooleanSpace(2)
        sp.d_table = sp.leq_l_table
        monkeypatch.setattr("greenmat.eggbox.space", lambda n: sp)
        with pytest.raises(AssertionError, match="not exactly its members"):
            eggbox(2)


def _same_d_class(box, sp, i, j):
    """Membership via H-equivalence to some H-class representative."""
    for d in box.d_classes:
        has_i = has_j = False
        for h in d.h_classes:
            rep = _boolspace.matrix_to_index(h.representative)
            if _h_equiv(sp, rep, i):
                has_i = True
            if _h_equiv(sp, rep, j):
                has_j = True
        if has_i or has_j:
            return has_i and has_j
    raise AssertionError("indices not found in any D-class")


def _h_equiv(sp, a, b):
    return (
        sp.leq_l(a, b) and sp.leq_l(b, a)
        and sp.related(a, b, GreenRelation.LEQ_R) and sp.related(b, a, GreenRelation.LEQ_R)
    )
