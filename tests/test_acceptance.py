"""Acceptance criteria, one test per criterion, each with its stated
tolerance (exact agreement everywhere) and runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion.
"""

import itertools
import time

from greenmat import matrix as mx
from greenmat import semiring as sr
from greenmat.green import GreenRelation, factor_rank, relate
from greenmat.linear_maps import (
    CanonicalForm,
    Exhaustive,
    Randomized,
    UnitPermutationMap,
    apply,
    classify,
    find_sticky,
)
from greenmat.matrix import all_boolean_matrices, mat_mul, transpose
from greenmat.semiring import Semifield
from greenmat.verify import SuiteParams, run_suite

B, T = Semifield.BOOLEAN, Semifield.TROPICAL
GR = GreenRelation
MATS2 = list(all_boolean_matrices(2, 2))
ONE_B = sr.one(B)


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def _all_unit_maps_n2():
    one = ONE_B
    for cells in itertools.permutations(range(4)):
        sigma = tuple(tuple(divmod(cells[2 * i + j], 2) for j in range(2)) for i in range(2))
        yield cells, UnitPermutationMap(2, B, sigma, ((one, one), (one, one)))


def _relation_table(rel):
    return [
        [relate(a, b, rel) for b in MATS2] for a in MATS2
    ]


def _preserves(table, images):
    for i in range(16):
        for j in range(16):
            if table[i][j] and not table[images[i]][images[j]]:
                return False
    return True


def _image_indices(u):
    index_of = {m: k for k, m in enumerate(MATS2)}
    return [index_of[apply(u, m)] for m in MATS2]


def test_criterion_1_theorem_t1_exhaustive():
    """L/R/leqL/leqR preserver sets coincide with the non-transposed
    canonical classifications; 24 maps, 4 preservers, exact agreement."""
    started = time.perf_counter()
    tables = {
        rel: _relation_table(rel)
        for rel in (GR.L, GR.R, GR.LEQ_L, GR.LEQ_R)
    }
    preserver_sets = {rel: set() for rel in tables}
    standard = set()
    count = 0
    for cells, u in _all_unit_maps_n2():
        count += 1
        images = _image_indices(u)
        for rel, table in tables.items():
            if _preserves(table, images):
                preserver_sets[rel].add(cells)
        outcome = classify(u)
        if isinstance(outcome, CanonicalForm) and not outcome.transposed:
            standard.add(cells)
    assert count == 24
    reference = preserver_sets[GR.L]
    for rel, found in preserver_sets.items():
        assert found == reference, f"{rel.value} preservers differ from L preservers"
    assert standard == reference
    assert len(reference) == 4
    _report(1, "bijective L/R/leq preservers = maps X->PXQ (24 maps, 4 preservers)", started, 5.0)


def test_criterion_2_theorem_t2_and_h_exhaustive():
    """D/J/leqJ/H preserver sets coincide with all canonical maps; 8 of 24."""
    started = time.perf_counter()
    tables = {rel: _relation_table(rel) for rel in (GR.D, GR.J, GR.LEQ_J, GR.H)}
    preserver_sets = {rel: set() for rel in tables}
    canonical = set()
    for cells, u in _all_unit_maps_n2():
        images = _image_indices(u)
        for rel, table in tables.items():
            if _preserves(table, images):
                preserver_sets[rel].add(cells)
        if isinstance(classify(u), CanonicalForm):
            canonical.add(cells)
    for rel, found in preserver_sets.items():
        assert found == canonical, f"{rel.value} preservers differ from the canonical set"
    assert len(canonical) == 8
    _report(2, "D/J/leqJ/H preservers = all canonical maps (8 of 24)", started, 30.0)


def test_criterion_3_decider_oracle_equivalence():
    """Residuation verdicts match brute-force multiplier search on all
    256 ordered pairs, for leqL/leqR/L/R/H, with zero discrepancies."""
    started = time.perf_counter()
    oracle_leq_l = [
        [any(mat_mul(s, b) == a for s in MATS2) for b in MATS2] for a in MATS2
    ]
    oracle_leq_r = [
        [any(mat_mul(b, s) == a for s in MATS2) for b in MATS2] for a in MATS2
    ]
    discrepancies = 0
    for i, a in enumerate(MATS2):
        for j, b in enumerate(MATS2):
            checks = {
                GR.LEQ_L: oracle_leq_l[i][j],
                GR.LEQ_R: oracle_leq_r[i][j],
                GR.L: oracle_leq_l[i][j] and oracle_leq_l[j][i],
                GR.R: oracle_leq_r[i][j] and oracle_leq_r[j][i],
                GR.H: oracle_leq_l[i][j]
                and oracle_leq_l[j][i]
                and oracle_leq_r[i][j]
                and oracle_leq_r[j][i],
            }
            for rel, expected in checks.items():
                if relate(a, b, rel) != expected:
                    discrepancies += 1
    assert discrepancies == 0
    _report(3, "residuation deciders = multiplier-search oracle (256 pairs x 5 relations)", started, 1.0)


def test_criterion_4_rank_monotone_and_regression():
    """leqJ never increases factor rank (exhaustive), and the fixed
    natural-number witness separates leqR from R despite equal ranks."""
    started = time.perf_counter()
    ranks = [factor_rank(a).value for a in MATS2]
    violations = 0
    for i, a in enumerate(MATS2):
        for j, b in enumerate(MATS2):
            if relate(a, b, GR.LEQ_J) and ranks[i] > ranks[j]:
                violations += 1
    assert violations == 0
    suite = run_suite("rank_j_monotone", SuiteParams(semifield=B, n=2))
    assert suite.passed
    regression = run_suite("remark_2_6_regression", SuiteParams())
    assert regression.passed
    _report(4, "rank respects the J-order (256 pairs) + natural-number regression", started, 30.0)


def test_criterion_5_invertibles_are_monomial():
    """Brute-force invertibles of M_2(B) = monomial matrices = 2 permutations."""
    started = time.perf_counter()
    ident = mx.identity(B, 2)
    invertible = {
        i
        for i, a in enumerate(MATS2)
        if any(mat_mul(a, b) == ident and mat_mul(b, a) == ident for b in MATS2)
    }
    suite = run_suite("invertibles", SuiteParams(semifield=B, n=2))
    assert suite.passed
    assert suite.counts["invertible"] == suite.counts["monomial_accepted"] == 2
    assert len(invertible) == 2
    perm_indices = {
        i
        for i, a in enumerate(MATS2)
        if a in (ident, mx.from_rows(B, [[0, 1], [1, 0]]))
    }
    assert invertible == perm_indices
    _report(5, "invertible = monomial = the 2 permutation matrices", started, 10.0)


def test_criterion_6_sticky_search():
    """No sticky candidate survives: 1 boolean candidate fails rank,
    1000 seeded tropical rank-2 candidates all refuted at the square-root
    witness, exact arithmetic throughout."""
    started = time.perf_counter()
    boolean = find_sticky(B, Exhaustive())
    assert boolean.outcome == "NoCandidateFound"
    assert boolean.candidates == 1
    assert boolean.refutations[0].failed == "S2"
    assert factor_rank(boolean.refutations[0].m).value == 1
    tropical = find_sticky(T, Randomized(seed=42, trials=1000))
    assert tropical.outcome == "NoCandidateFound"
    assert tropical.candidates == 1000
    assert len(tropical.refutations) == 1000
    for refutation in tropical.refutations:
        assert refutation.failed == "S3"
        assert refutation.k_is_square_root_witness
    _report(6, "sticky search: NoCandidateFound (boolean exhaustive + 1000 tropical candidates)", started, 10.0)


def test_criterion_7_tropical_randomized_preservers():
    """100 random monomial pairs at n in {2, 3}, 1000 seeded pairs each:
    X->PXQ preserves L/R/leqL/leqR/H and X->PX^TQ exchanges L with R and
    preserves H, with zero failures."""
    started = time.perf_counter()
    for n in (2, 3):
        report = run_suite(
            "corollaries",
            SuiteParams(semifield=T, n=n, seed=20240742 + n, trials=1000, monomial_pairs=100),
        )
        assert report.passed, report.witnesses[:1]
        assert report.counts["monomial_pairs"] == 100
        assert report.counts["pairs_per_relation"] * 5 == 1000
        assert report.counts["failures"] == 0
    _report(7, "randomized tropical preserver/exchange checks (n=2,3; 0 failures)", started, 60.0)


def test_criterion_8_n3_scaling_check():
    """classify visits all 362880 bijective maps at n=3; on 1000 sampled
    maps and 1000 pairs per relation, sampled L/R/H preservation verdicts
    agree with the classification, zero discrepancies."""
    started = time.perf_counter()
    report = run_suite(
        "t1",
        SuiteParams(semifield=B, n=3, seed=1848, trials=1000),
    )
    assert report.passed
    assert report.counts["maps_classified"] == 362880
    assert report.counts["standard"] == 36
    assert report.counts["transpose"] == 36
    assert report.counts["sampled_maps"] == 1000
    assert report.counts["pairs_per_relation"] >= 1000
    assert report.counts["discrepancies"] == 0
    _report(8, "n=3 scaling: classify all 362880 maps + sampled agreement", started, 60.0)
