"""Named verification suites reproducing the classification results.

Each suite checks one cluster of statements at desk scale: exhaustively
over the boolean semifield for small n, by seeded randomized testing
over the tropical carriers, or as a fixed regression.  Suites return a
SuiteReport whose JSON form is byte-stable for fixed parameters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm

from . import _tropfast, sampling, semiring
from ._boolspace import act_on_bits, all_cell_maps, space
from .green import GreenRelation, factor_rank
from .linear_maps import (
    CanonicalForm,
    Exhaustive,
    ExhaustiveBoolean,
    RandomizedTropical,
    UnitPermutationMap,
    apply,
    check_exchange,
    check_preservation,
    classify,
    find_sticky,
)
from .matrix import matrix_to_json, monomial_to_json
from .semiring import Semifield, UnsupportedParams

SUITE_NAMES = (
    "t1",
    "t2",
    "corollaries",
    "h_theorem",
    "lemma_bg",
    "invertibles",
    "rank_j_monotone",
    "remark_2_6_regression",
)


class UnknownSuite(ValueError):
    pass


@dataclass(frozen=True)
class SuiteParams:
    semifield: Semifield = Semifield.BOOLEAN
    n: int = 2
    seed: int | None = None
    trials: int = 1000
    monomial_pairs: int = 100
    map_samples: int = 1000


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    semifield: str
    n: int
    mode: str
    passed: bool
    counts: dict
    witnesses: tuple = ()
    seed: int | None = None
    generator: str | None = None

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise ValueError("failing reports must carry at least one witness")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "semifield": self.semifield,
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "generator": self.generator,
            "passed": self.passed,
            "counts": dict(self.counts),
            "witnesses": list(self.witnesses),
        }


def run_suite(name: str, params: SuiteParams) -> SuiteReport:
    try:
        impl = _SUITES[name]
    except KeyError:
        raise UnknownSuite(
            f"no suite named {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    if params.n < 1:
        raise UnsupportedParams(f"n must be at least 1, got {params.n}")
    if params.trials < 1:
        raise UnsupportedParams(f"trials must be at least 1, got {params.trials}")
    return impl(params)


# --- shared helpers --------------------------------------------------------


def _require_boolean(params: SuiteParams, suite: str) -> None:
    if params.semifield is not Semifield.BOOLEAN:
        raise UnsupportedParams(
            f"suite {suite} enumerates all bijective maps and is boolean-only; "
            "use corollaries/h_theorem for randomized tropical checking"
        )


def _require_seed(params: SuiteParams, suite: str) -> int:
    if params.seed is None:
        raise UnsupportedParams(f"suite {suite} is randomized here and needs an explicit seed")
    return params.seed


def _unit_map_from_cells(cells: tuple[int, ...], n: int) -> UnitPermutationMap:
    one_v = semiring.one(Semifield.BOOLEAN)
    sigma = tuple(
        tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n)
    )
    alpha = tuple(tuple(one_v for _ in range(n)) for _ in range(n))
    return UnitPermutationMap(n, Semifield.BOOLEAN, sigma, alpha)


def _classify_cells(cells: tuple[int, ...], n: int) -> str:
    """Structural classification of a boolean cell permutation.

    Over the boolean semifield all coefficients are 1, so the
    coefficient matrix is automatically rank one and only the cell
    structure matters.
    """
    standard = True
    for i in range(n):
        base_row = cells[i * n] // n
        if any(cells[i * n + j] // n != base_row for j in range(1, n)):
            standard = False
            break
    if standard:
        for j in range(n):
            base_col = cells[j] % n
            if any(cells[i * n + j] % n != base_col for i in range(1, n)):
                standard = False
                break
    if standard:
        return "standard"
    flipped = True
    for i in range(n):
        base_col = cells[i * n] % n
        if any(cells[i * n + j] % n != base_col for j in range(1, n)):
            flipped = False
            break
    if flipped:
        for j in range(n):
            base_row = cells[j] // n
            if any(cells[i * n + j] // n != base_row for i in range(1, n)):
                flipped = False
                break
    return "transpose" if flipped else "non_canonical"


def _preserves_on_table(table: list[int], tmap: list[int], size: int) -> tuple[bool, int]:
    """(preserved, premise pairs seen) for one map against one relation table."""
    checked = 0
    for a in range(size):
        row = table[a]
        trow = table[tmap[a]]
        b = 0
        while row:
            if row & 1:
                checked += 1
                if not (trow >> tmap[b]) & 1:
                    return False, checked
            row >>= 1
            b += 1
    return True, checked


def _related_bits(sp, a: int, b: int, rel: GreenRelation) -> bool:
    if rel is GreenRelation.L:
        return sp.leq_l(a, b) and sp.leq_l(b, a)
    if rel is GreenRelation.R:
        return sp.leq_r(a, b) and sp.leq_r(b, a)
    if rel is GreenRelation.H:
        return (
            sp.leq_l(a, b) and sp.leq_l(b, a) and sp.leq_r(a, b) and sp.leq_r(b, a)
        )
    raise ValueError(f"no fast decider for {rel!r}")


# --- t1: L/R/leqL/leqR preservers are exactly the maps X -> PXQ -------------


def _suite_t1(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "t1")
    if params.n <= 2:
        return _t1_exhaustive(params)
    if params.n == 3:
        return _t1_sampled(params)
    raise UnsupportedParams("t1 runs exhaustively for n <= 2 and sampled at n = 3")


def _t1_exhaustive(params: SuiteParams) -> SuiteReport:
    n = params.n
    sp = space(n)
    rels = (GreenRelation.L, GreenRelation.R, GreenRelation.LEQ_L, GreenRelation.LEQ_R)
    tables = {rel: sp.table(rel) for rel in rels}
    preservers: dict[GreenRelation, set[tuple[int, ...]]] = {rel: set() for rel in rels}
    standard_maps: set[tuple[int, ...]] = set()
    maps = 0
    pairs = 0
    witnesses = []
    for cells in all_cell_maps(n):
        maps += 1
        tmap = [act_on_bits(cells, m) for m in range(sp.size)]
        for rel in rels:
            ok, seen = _preserves_on_table(tables[rel], tmap, sp.size)
            pairs += seen
            if ok:
                preservers[rel].add(cells)
        outcome = classify(_unit_map_from_cells(cells, n))
        if isinstance(outcome, CanonicalForm) and not outcome.transposed:
            standard_maps.add(cells)
    reference = preservers[GreenRelation.L]
    agree = all(preservers[rel] == reference for rel in rels) and standard_maps == reference
    if not agree:
        for cells in sorted(
            set().union(*preservers.values()) | standard_maps
        ):
            membership = {rel.value: cells in preservers[rel] for rel in rels}
            membership["canonical_standard"] = cells in standard_maps
            if len(set(membership.values())) > 1:
                witnesses.append({"map_cells": list(cells), "membership": membership})
    counts = {
        "maps_enumerated": maps,
        "l_preservers": len(preservers[GreenRelation.L]),
        "r_preservers": len(preservers[GreenRelation.R]),
        "leql_preservers": len(preservers[GreenRelation.LEQ_L]),
        "leqr_preservers": len(preservers[GreenRelation.LEQ_R]),
        "canonical_standard": len(standard_maps),
        "pairs_checked": pairs,
    }
    return SuiteReport(
        "t1", params.semifield.value, n, "exhaustive", agree, counts, tuple(witnesses)
    )


def _permutation_matrix_bits(perm: tuple[int, ...], n: int) -> int:
    bits = 0
    for j, i in enumerate(perm):
        bits |= 1 << (i * n + j)
    return bits


def _probe_pairs(sp, rel: GreenRelation) -> list[tuple[int, int]]:
    """Deterministic related pairs that refute every non-preserver.

    For L: pairs of units in a shared column, and a two-unit row segment
    against the full two-column matrix; for R the transposes; for H the
    anti-diagonal two-unit pairs.  Each family mirrors the configuration
    used to derive the structure of preservers, so any unit-permutation
    map that fails the corresponding structure is caught by some probe.
    """
    n = sp.n
    pairs: list[tuple[int, int]] = []
    if rel in (GreenRelation.L, GreenRelation.R):
        flip = rel is GreenRelation.R
        for j in range(n):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    a = _unit_bits(i1, j, n, flip)
                    b = _unit_bits(i2, j, n, flip)
                    pairs.append((a, b))
        for i in range(n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    a = _unit_bits(i, j1, n, flip) | _unit_bits(i, j2, n, flip)
                    b = 0
                    for k in range(n):
                        b |= _unit_bits(k, j1, n, flip) | _unit_bits(k, j2, n, flip)
                    pairs.append((a, b))
    elif rel is GreenRelation.H:
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                for j1 in range(n):
                    for j2 in range(j1 + 1, n):
                        a = _unit_bits(i1, j1, n, False) | _unit_bits(i2, j2, n, False)
                        b = _unit_bits(i1, j2, n, False) | _unit_bits(i2, j1, n, False)
                        pairs.append((a, b))
    for a, b in pairs:
        if not _related_bits(sp, a, b, rel):
            raise AssertionError(f"probe pair for {rel.value} is not related")
    return pairs


def _unit_bits(i: int, j: int, n: int, flip: bool) -> int:
    return 1 << ((j * n + i) if flip else (i * n + j))


def _random_related_bits(rng: random.Random, sp, rel: GreenRelation, perm_bits: list[int]):
    b = rng.randrange(sp.size)
    variant = rng.randrange(3)
    if rel is GreenRelation.L:
        if variant == 0:
            return b, b
        if variant == 1:
            a = sp.mul(rng.randrange(sp.size), b)
            if sp.leq_l(b, a):
                return a, b
        return sp.mul(rng.choice(perm_bits), b), b
    if rel is GreenRelation.R:
        if variant == 0:
            return b, b
        if variant == 1:
            a = sp.mul(b, rng.randrange(sp.size))
            if sp.leq_r(b, a):
                return a, b
        return sp.mul(b, rng.choice(perm_bits)), b
    if rel is GreenRelation.H:
        if variant == 0:
            return b, b
        if variant == 1:
            a = sp.mul(sp.mul(rng.choice(perm_bits), b), rng.choice(perm_bits))
            if _related_bits(sp, a, b, GreenRelation.H):
                return a, b
        n = sp.n
        i1, i2 = rng.sample(range(n), 2)
        j1, j2 = rng.sample(range(n), 2)
        a = (1 << (i1 * n + j1)) | (1 << (i2 * n + j2))
        bb = (1 << (i1 * n + j2)) | (1 << (i2 * n + j1))
        return a, bb
    raise ValueError(rel)


def _t1_sampled(params: SuiteParams) -> SuiteReport:
    """Scaling check at n = 3: classify everything, spot-check preservation."""
    seed = _require_seed(params, "t1")
    n = params.n
    sp = space(n)
    class_counts = {"standard": 0, "transpose": 0, "non_canonical": 0}
    total = 0
    for cells in all_cell_maps(n):
        class_counts[_classify_cells(cells, n)] += 1
        total += 1
    rels = (GreenRelation.L, GreenRelation.R, GreenRelation.H)
    perm_bits = [
        _permutation_matrix_bits(p, n) for p in itertools.permutations(range(n))
    ]
    rng = random.Random(seed)
    pools: dict[GreenRelation, list[tuple[int, int]]] = {}
    for rel in rels:
        pool = _probe_pairs(sp, rel)
        while len(pool) < params.trials:
            pool.append(_random_related_bits(rng, sp, rel, perm_bits))
        pools[rel] = pool[: max(params.trials, len(pool))]
    discrepancies = []
    sampled = 0
    pair_checks = 0
    for _ in range(params.map_samples):
        cells_list = list(range(n * n))
        rng.shuffle(cells_list)
        cells = tuple(cells_list)
        sampled += 1
        verdict_class = _classify_cells(cells, n)
        for rel in rels:
            expect_preserved = verdict_class == "standard" or (
                verdict_class == "transpose" and rel is GreenRelation.H
            )
            found = None
            for a, b in pools[rel]:
                pair_checks += 1
                if not _related_bits(sp, act_on_bits(cells, a), act_on_bits(cells, b), rel):
                    found = (a, b)
                    break
            if expect_preserved == (found is not None):
                witness = {
                    "map_cells": list(cells),
                    "classified_as": verdict_class,
                    "relation": rel.value,
                    "expected_preserved": expect_preserved,
                }
                if found is not None:
                    witness["pair"] = [
                        matrix_to_json(sp.matrix_of(found[0])),
                        matrix_to_json(sp.matrix_of(found[1])),
                    ]
                discrepancies.append(witness)
    expected_canonical = _factorial(n) ** 2
    passed = (
        not discrepancies
        and class_counts["standard"] == expected_canonical
        and class_counts["transpose"] == expected_canonical
    )
    counts = {
        "maps_classified": total,
        "standard": class_counts["standard"],
        "transpose": class_counts["transpose"],
        "non_canonical": class_counts["non_canonical"],
        "sampled_maps": sampled,
        "pairs_per_relation": len(pools[GreenRelation.L]),
        "pair_checks": pair_checks,
        "discrepancies": len(discrepancies),
    }
    return SuiteReport(
        "t1", params.semifield.value, n, "sampled", passed, counts,
        tuple(discrepancies), seed, sampling.GENERATOR_NAME,
    )


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# --- t2: D/J/leqJ preservers are exactly the canonical maps -----------------


def _suite_t2(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "t2")
    if params.n > 2:
        raise UnsupportedParams(
            "t2 needs full D/J/leqJ tables and is out of reach beyond n = 2"
        )
    n = params.n
    sp = space(n)
    rels = (GreenRelation.D, GreenRelation.J, GreenRelation.LEQ_J)
    tables = {rel: sp.table(rel) for rel in rels}
    preservers: dict[GreenRelation, set[tuple[int, ...]]] = {rel: set() for rel in rels}
    canonical: set[tuple[int, ...]] = set()
    standard = transpose = 0
    maps = 0
    pairs = 0
    for cells in all_cell_maps(n):
        maps += 1
        tmap = [act_on_bits(cells, m) for m in range(sp.size)]
        for rel in rels:
            ok, seen = _preserves_on_table(tables[rel], tmap, sp.size)
            pairs += seen
            if ok:
                preservers[rel].add(cells)
        outcome = classify(_unit_map_from_cells(cells, n))
        if isinstance(outcome, CanonicalForm):
            canonical.add(cells)
            if outcome.transposed:
                transpose += 1
            else:
                standard += 1
    agree = all(preservers[rel] == canonical for rel in rels)
    witnesses = []
    if not agree:
        for cells in sorted(set().union(*preservers.values()) | canonical):
            membership = {rel.value: cells in preservers[rel] for rel in rels}
            membership["canonical"] = cells in canonical
            if len(set(membership.values())) > 1:
                witnesses.append({"map_cells": list(cells), "membership": membership})
    counts = {
        "maps_enumerated": maps,
        "d_preservers": len(preservers[GreenRelation.D]),
        "j_preservers": len(preservers[GreenRelation.J]),
        "leqj_preservers": len(preservers[GreenRelation.LEQ_J]),
        "canonical_total": len(canonical),
        "canonical_standard": standard,
        "canonical_transpose": transpose,
        "pairs_checked": pairs,
    }
    return SuiteReport(
        "t2", params.semifield.value, n, "exhaustive", agree, counts, tuple(witnesses)
    )


# --- corollaries: strong preservation / exchange of the canonical maps ------


_STRONG_PRESERVED_ALWAYS = (
    GreenRelation.D,
    GreenRelation.J,
    GreenRelation.LEQ_J,
    GreenRelation.H,
)
_STRONG_PRESERVED_STANDARD = (
    GreenRelation.L,
    GreenRelation.R,
    GreenRelation.LEQ_L,
    GreenRelation.LEQ_R,
)
_EXCHANGED_TRANSPOSE = (
    (GreenRelation.L, GreenRelation.R),
    (GreenRelation.LEQ_L, GreenRelation.LEQ_R),
)


def _suite_corollaries(params: SuiteParams) -> SuiteReport:
    if params.semifield is Semifield.BOOLEAN:
        return _corollaries_exhaustive(params)
    return _corollaries_randomized(params)


def _corollaries_exhaustive(params: SuiteParams) -> SuiteReport:
    if params.n > 2:
        raise UnsupportedParams("exhaustive corollaries stop at n = 2 (bounded D/J/leqJ)")
    n = params.n
    canonical_maps = []
    for cells in all_cell_maps(n):
        u = _unit_map_from_cells(cells, n)
        outcome = classify(u)
        if isinstance(outcome, CanonicalForm):
            canonical_maps.append((u, outcome.transposed))
    witnesses = []
    checks = 0
    pairs = 0
    for u, transposed in canonical_maps:
        verdicts = []
        for rel in _STRONG_PRESERVED_ALWAYS:
            verdicts.append(check_preservation(u, rel, Exhaustive(), strong=True))
        if transposed:
            for pair in _EXCHANGED_TRANSPOSE:
                verdicts.append(check_exchange(u, Exhaustive(), strong=True, pair=pair))
        else:
            for rel in _STRONG_PRESERVED_STANDARD:
                verdicts.append(check_preservation(u, rel, Exhaustive(), strong=True))
        for v in verdicts:
            checks += 1
            pairs += v.pairs_checked
            if not v.ok:
                witnesses.append(
                    {
                        "map_sigma": [[list(c) for c in row] for row in u.sigma],
                        "check": v.checked,
                        "pair": [
                            matrix_to_json(v.counterexample.a),
                            matrix_to_json(v.counterexample.b),
                        ],
                    }
                )
    counts = {
        "canonical_maps": len(canonical_maps),
        "checks": checks,
        "pairs_checked": pairs,
        "failures": len(witnesses),
    }
    return SuiteReport(
        "corollaries", params.semifield.value, n, "exhaustive",
        not witnesses, counts, tuple(witnesses),
    )


def _corollaries_randomized(params: SuiteParams) -> SuiteReport:
    """Seeded check that X -> PXQ preserves L/R/leqL/leqR/H and X -> PX^TQ
    exchanges L with R (and the pre-orders) while preserving H.

    Pair pools are shared across the monomial pairs.  The bulk checks run
    on the integer max-plus kernel: each pair is scaled once to its own
    lcm of denominators, each map's coefficients once to theirs, and
    both meet at the lcm of the two while the map is applied.  Any
    apparent failure is re-verified against the reference decider
    before being reported.
    """
    seed = _require_seed(params, "corollaries")
    sf, n = params.semifield, params.n
    rng = random.Random(seed)
    pool_rels = (
        GreenRelation.L,
        GreenRelation.R,
        GreenRelation.LEQ_L,
        GreenRelation.LEQ_R,
        GreenRelation.H,
    )
    per_rel = max(1, params.trials // len(pool_rels))
    pools = {
        rel: [sampling.related_pair(rng, sf, n, rel) for _ in range(per_rel)]
        for rel in pool_rels
    }
    scaled_pools = {
        rel: [_tropfast.scale_grids(_tropfast.grid_of(a), _tropfast.grid_of(b)) for a, b in pool]
        for rel, pool in pools.items()
    }
    exchange_of = {
        GreenRelation.L: GreenRelation.R,
        GreenRelation.R: GreenRelation.L,
        GreenRelation.LEQ_L: GreenRelation.LEQ_R,
        GreenRelation.LEQ_R: GreenRelation.LEQ_L,
        GreenRelation.H: GreenRelation.H,
    }
    witnesses = []
    pair_checks = 0
    from .linear_maps import synthesize

    for idx in range(params.monomial_pairs):
        p = sampling.random_monomial(rng, sf, n)
        q = sampling.random_monomial(rng, sf, n)
        for label, transposed in (("standard", False), ("transpose", True)):
            u = synthesize(CanonicalForm(p, q, transposed), n, sf)
            cells, coeffs = _tropfast.map_rep(u)
            scale_u, (icoeffs,) = _tropfast.scale_grids(coeffs)
            for rel in pool_rels:
                target = rel if label == "standard" else exchange_of[rel]
                for pair_idx, (scale_ab, (ga, gb)) in enumerate(scaled_pools[rel]):
                    pair_checks += 1
                    common = lcm(scale_ab, scale_u)
                    fc, fx = common // scale_u, common // scale_ab
                    ta = _tropfast.apply_scaled(cells, icoeffs, ga, n, fc, fx)
                    tb = _tropfast.apply_scaled(cells, icoeffs, gb, n, fc, fx)
                    if _tropfast.decide(ta, tb, target):
                        continue
                    a, b = pools[rel][pair_idx]
                    _tropfast.reverify(apply(u, a), apply(u, b), target, False)
                    witnesses.append(
                        {
                            "monomial_pair_index": idx,
                            "form": label,
                            "p": monomial_to_json(p),
                            "q": monomial_to_json(q),
                            "relation": rel.value,
                            "target": target.value,
                            "pair": [matrix_to_json(a), matrix_to_json(b)],
                        }
                    )
                    break
    counts = {
        "monomial_pairs": params.monomial_pairs,
        "pairs_per_relation": per_rel,
        "pair_checks": pair_checks,
        "failures": len(witnesses),
    }
    return SuiteReport(
        "corollaries", sf.value, n, "randomized", not witnesses, counts,
        tuple(witnesses), seed, sampling.GENERATOR_NAME,
    )


# --- h_theorem: H-preservers coincide with D-preservers; no sticky matrix ---


def _suite_h_theorem(params: SuiteParams) -> SuiteReport:
    if params.semifield is Semifield.BOOLEAN:
        if params.n > 2:
            raise UnsupportedParams("exhaustive h_theorem stops at n = 2")
        n = params.n
        sp = space(n)
        h_table = sp.table(GreenRelation.H)
        d_table = sp.table(GreenRelation.D)
        h_set: set[tuple[int, ...]] = set()
        d_set: set[tuple[int, ...]] = set()
        canonical: set[tuple[int, ...]] = set()
        maps = 0
        for cells in all_cell_maps(n):
            maps += 1
            tmap = [act_on_bits(cells, m) for m in range(sp.size)]
            if _preserves_on_table(h_table, tmap, sp.size)[0]:
                h_set.add(cells)
            if _preserves_on_table(d_table, tmap, sp.size)[0]:
                d_set.add(cells)
            if isinstance(classify(_unit_map_from_cells(cells, n)), CanonicalForm):
                canonical.add(cells)
        sticky = find_sticky(Semifield.BOOLEAN, ExhaustiveBoolean())
        passed = h_set == d_set == canonical and sticky.survivor is None
        witnesses = []
        if not passed:
            witnesses.append(
                {
                    "h_only": [list(c) for c in sorted(h_set - d_set)],
                    "d_only": [list(c) for c in sorted(d_set - h_set)],
                    "non_canonical_preservers": [
                        list(c) for c in sorted((h_set | d_set) - canonical)
                    ],
                    "sticky_survivor": (
                        matrix_to_json(sticky.survivor) if sticky.survivor else None
                    ),
                }
            )
        counts = {
            "maps_enumerated": maps,
            "h_preservers": len(h_set),
            "d_preservers": len(d_set),
            "canonical_total": len(canonical),
            "sticky_candidates": sticky.candidates,
            "sticky_refuted_s2": sum(1 for r in sticky.refutations if r.failed == "S2"),
        }
        return SuiteReport(
            "h_theorem", params.semifield.value, n, "exhaustive", passed, counts,
            tuple(witnesses),
        )
    seed = _require_seed(params, "h_theorem")
    report = find_sticky(
        params.semifield, RandomizedTropical(seed=seed, trials=params.trials)
    )
    refuted_at_root = sum(
        1 for r in report.refutations if r.failed == "S3" and r.k_is_square_root_witness
    )
    passed = report.survivor is None
    witnesses = ()
    if not passed:
        witnesses = ({"sticky_survivor": matrix_to_json(report.survivor)},)
    counts = {
        "sticky_candidates": report.candidates,
        "refuted_s3": sum(1 for r in report.refutations if r.failed == "S3"),
        "refuted_at_sqrt_witness": refuted_at_root,
        "survivors": 0 if report.survivor is None else 1,
    }
    return SuiteReport(
        "h_theorem", params.semifield.value, params.n, "randomized", passed, counts,
        witnesses, seed, sampling.GENERATOR_NAME,
    )


# --- lemma_bg: bijective iff unit-permutation shaped -------------------------


def _suite_lemma_bg(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "lemma_bg")
    if params.n > 2:
        raise UnsupportedParams("lemma_bg enumerates image tables and stops at n = 2")
    n = params.n
    cells = n * n
    # candidate images: all matrices with at most two nonzero entries
    masks = [0] + [1 << c for c in range(cells)] + [
        (1 << c1) | (1 << c2)
        for c1 in range(cells)
        for c2 in range(c1 + 1, cells)
    ]
    size = 1 << cells
    maps = 0
    bijective = 0
    mismatches = []
    cross_checked = 0
    from .linear_maps import LinearMap, NotBijective, extract_unit_form

    sp = space(n)
    for combo in itertools.product(masks, repeat=cells):
        maps += 1
        unit_shaped = (
            all(m.bit_count() == 1 for m in combo) and len(set(combo)) == cells
        )
        images = set()
        for x in range(size):
            y = 0
            xs = x
            c = 0
            while xs:
                if xs & 1:
                    y |= combo[c]
                xs >>= 1
                c += 1
            images.add(y)
        is_bijection = len(images) == size
        if is_bijection:
            bijective += 1
        if unit_shaped != is_bijection:
            mismatches.append({"images": list(combo)})
        if maps % 977 == 0:
            # cross-check the bit path against the public API on a slice
            cross_checked += 1
            t = LinearMap(
                n, Semifield.BOOLEAN,
                tuple(
                    tuple(sp.matrix_of(combo[i * n + j]) for j in range(n))
                    for i in range(n)
                ),
            )
            try:
                extract_unit_form(t)
                extract_ok = True
            except NotBijective:
                extract_ok = False
            if extract_ok != unit_shaped:
                mismatches.append({"images": list(combo), "cross_check": "extract"})
    passed = not mismatches
    counts = {
        "maps_enumerated": maps,
        "bijective": bijective,
        "cross_checked": cross_checked,
        "mismatches": len(mismatches),
    }
    return SuiteReport(
        "lemma_bg", params.semifield.value, n, "exhaustive", passed, counts,
        tuple(mismatches),
    )


# --- invertibles: invertible = monomial ---------------------------------------


def _suite_invertibles(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "invertibles")
    if params.n > 3:
        raise UnsupportedParams("exhaustive invertibles search stops at n = 3")
    n = params.n
    sp = space(n)
    ident = sp.identity
    invertible = set()
    for a in range(sp.size):
        for b in range(sp.size):
            if sp.mul(a, b) == ident and sp.mul(b, a) == ident:
                invertible.add(a)
                break
    from .matrix import NotMonomial, try_monomial

    monomial = set()
    for a in range(sp.size):
        try:
            try_monomial(sp.matrix_of(a))
            monomial.add(a)
        except NotMonomial:
            pass
    passed = invertible == monomial and len(invertible) == _factorial(n)
    witnesses = []
    if not passed:
        witnesses.append(
            {
                "invertible_not_monomial": [
                    matrix_to_json(sp.matrix_of(a)) for a in sorted(invertible - monomial)
                ],
                "monomial_not_invertible": [
                    matrix_to_json(sp.matrix_of(a)) for a in sorted(monomial - invertible)
                ],
            }
        )
    counts = {
        "matrices": sp.size,
        "invertible": len(invertible),
        "monomial_accepted": len(monomial),
    }
    return SuiteReport(
        "invertibles", params.semifield.value, n, "exhaustive", passed, counts,
        tuple(witnesses),
    )


# --- rank_j_monotone: leqJ implies rank does not increase --------------------


def _suite_rank_j_monotone(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "rank_j_monotone")
    if params.n > 2:
        raise UnsupportedParams("rank_j_monotone needs the full leqJ table; n <= 2 only")
    n = params.n
    sp = space(n)
    ranks = [factor_rank(sp.matrix_of(m)).value for m in range(sp.size)]
    leqj = sp.table(GreenRelation.LEQ_J)
    witnesses = []
    pairs = 0
    for a in range(sp.size):
        for b in range(sp.size):
            pairs += 1
            if (leqj[a] >> b) & 1 and ranks[a] > ranks[b]:
                witnesses.append(
                    {
                        "a": matrix_to_json(sp.matrix_of(a)),
                        "b": matrix_to_json(sp.matrix_of(b)),
                        "rank_a": ranks[a],
                        "rank_b": ranks[b],
                    }
                )
    invariance_checks = 0
    for rel in (GreenRelation.H, GreenRelation.L, GreenRelation.R, GreenRelation.D, GreenRelation.J):
        table = sp.table(rel)
        for a in range(sp.size):
            for b in range(sp.size):
                if (table[a] >> b) & 1:
                    invariance_checks += 1
                    if ranks[a] != ranks[b]:
                        witnesses.append(
                            {
                                "relation": rel.value,
                                "a": matrix_to_json(sp.matrix_of(a)),
                                "b": matrix_to_json(sp.matrix_of(b)),
                            }
                        )
    counts = {
        "pairs_checked": pairs,
        "violations": len(witnesses),
        "class_invariance_checks": invariance_checks,
    }
    return SuiteReport(
        "rank_j_monotone", params.semifield.value, n, "exhaustive",
        not witnesses, counts, tuple(witnesses),
    )


# --- remark_2_6_regression: rank equality does not force R over naturals -----


def _suite_remark_regression(params: SuiteParams) -> SuiteReport:
    """Fixed witness over the naturals: A = 2*E11 and B = E11 satisfy
    A leqR B with equal factor rank, yet A R B fails since 2t = 1 has no
    solution.  Checked with plain integer arithmetic."""
    bound = 1000

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    def outer(u, v):
        return [[a * b for b in v] for a in u]

    a = [[2, 0], [0, 0]]
    b = [[1, 0], [0, 0]]
    s = [[2, 0], [0, 0]]
    leq_r_holds = matmul(b, s) == a
    rank_one_a = outer([2, 0], [1, 0]) == a
    rank_one_b = outer([1, 0], [1, 0]) == b
    no_solution = all(2 * t != 1 for t in range(bound))
    passed = leq_r_holds and rank_one_a and rank_one_b and no_solution
    witnesses = ()
    if not passed:
        witnesses = (
            {
                "leq_r_holds": leq_r_holds,
                "rank_one_a": rank_one_a,
                "rank_one_b": rank_one_b,
                "no_solution_to_2t_eq_1": no_solution,
            },
        )
    counts = {
        "candidate_entries_checked": bound,
        "violations": 0 if passed else 1,
    }
    return SuiteReport(
        "remark_2_6_regression", params.semifield.value, params.n, "fixed",
        passed, counts, witnesses,
    )


_SUITES = {
    "t1": _suite_t1,
    "t2": _suite_t2,
    "corollaries": _suite_corollaries,
    "h_theorem": _suite_h_theorem,
    "lemma_bg": _suite_lemma_bg,
    "invertibles": _suite_invertibles,
    "rank_j_monotone": _suite_rank_j_monotone,
    "remark_2_6_regression": _suite_remark_regression,
}
