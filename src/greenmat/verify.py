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
from math import factorial, lcm

from . import _tropfast, sampling, semiring
from ._boolspace import act_on_bits, all_cell_maps, first_violation, space
from .green import GreenRelation, factor_rank
from .linear_maps import (
    CanonicalForm,
    Exhaustive,
    ExhaustiveBoolean,
    RandomizedTropical,
    UnitPermutationMap,
    apply,
    cell_shape,
    check_exchange,
    check_preservation,
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


#: Largest n the suites accept over a tropical carrier.  The randomized
#: corollaries run grows with n: at n = 8 and the default 1000 trials it
#: takes about 40 s on a 2-vCPU VM (Python 3.11).
MAX_TROPICAL_N = 8


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
    if params.semifield is not Semifield.BOOLEAN and params.n > MAX_TROPICAL_N:
        raise UnsupportedParams(
            f"suites over a tropical carrier are limited to n <= {MAX_TROPICAL_N}, "
            f"got {params.n}"
        )
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


def _preserver_sets(n: int, rels):
    """Scan every cell map at size n against the tables of rels.

    Returns (shapes, preservers, pairs): shapes maps each cell map to its
    `cell_shape`, preservers[rel] is the set of cell maps that preserve
    rel, and pairs counts the premise pairs the scans checked.
    """
    sp = space(n)
    tables = [(rel, sp.table(rel)) for rel in rels]
    shapes: dict[tuple[int, ...], str | None] = {}
    preservers: dict[GreenRelation, set[tuple[int, ...]]] = {rel: set() for rel in rels}
    pairs = 0
    for cells in all_cell_maps(n):
        shapes[cells] = cell_shape(cells, n)
        tmap = [act_on_bits(cells, m) for m in range(sp.size)]
        for rel, table in tables:
            seen, hit = first_violation(((table, table),), tmap, False)
            pairs += seen
            if hit is None:
                preservers[rel].add(cells)
    return shapes, preservers, pairs


def _membership_witnesses(preservers, reference: set, label: str) -> list[dict]:
    """One witness per cell map whose membership differs between the
    preserver sets and the reference set (named label)."""
    witnesses = []
    for cells in sorted(set().union(*preservers.values()) | reference):
        membership = {rel.value: cells in maps for rel, maps in preservers.items()}
        membership[label] = cells in reference
        if len(set(membership.values())) > 1:
            witnesses.append({"map_cells": list(cells), "membership": membership})
    return witnesses


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
    rels = (GreenRelation.L, GreenRelation.R, GreenRelation.LEQ_L, GreenRelation.LEQ_R)
    shapes, preservers, pairs = _preserver_sets(n, rels)
    standard_maps = {cells for cells, shape in shapes.items() if shape == "standard"}
    witnesses = _membership_witnesses(preservers, standard_maps, "canonical_standard")
    counts = {
        "maps_enumerated": len(shapes),
        "l_preservers": len(preservers[GreenRelation.L]),
        "r_preservers": len(preservers[GreenRelation.R]),
        "leql_preservers": len(preservers[GreenRelation.LEQ_L]),
        "leqr_preservers": len(preservers[GreenRelation.LEQ_R]),
        "canonical_standard": len(standard_maps),
        "pairs_checked": pairs,
    }
    return SuiteReport(
        "t1", params.semifield.value, n, "exhaustive", not witnesses, counts, tuple(witnesses)
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
        if not sp.related(a, b, rel):
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
            if sp.related(a, b, GreenRelation.H):
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
        class_counts[cell_shape(cells, n) or "non_canonical"] += 1
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
        pools[rel] = pool
    discrepancies = []
    sampled = 0
    pair_checks = 0
    for _ in range(params.map_samples):
        cells_list = list(range(n * n))
        rng.shuffle(cells_list)
        cells = tuple(cells_list)
        sampled += 1
        verdict_class = cell_shape(cells, n) or "non_canonical"
        for rel in rels:
            expect_preserved = verdict_class == "standard" or (
                verdict_class == "transpose" and rel is GreenRelation.H
            )
            found = None
            for a, b in pools[rel]:
                pair_checks += 1
                if not sp.related(act_on_bits(cells, a), act_on_bits(cells, b), rel):
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
    expected_canonical = factorial(n) ** 2
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


# --- t2: D/J/leqJ preservers are exactly the canonical maps -----------------


def _suite_t2(params: SuiteParams) -> SuiteReport:
    _require_boolean(params, "t2")
    if params.n > 2:
        raise UnsupportedParams(
            "t2 needs full D/J/leqJ tables and is out of reach beyond n = 2"
        )
    n = params.n
    rels = (GreenRelation.D, GreenRelation.J, GreenRelation.LEQ_J)
    shapes, preservers, pairs = _preserver_sets(n, rels)
    canonical = {cells for cells, shape in shapes.items() if shape is not None}
    witnesses = _membership_witnesses(preservers, canonical, "canonical")
    shape_counts = list(shapes.values())
    counts = {
        "maps_enumerated": len(shapes),
        "d_preservers": len(preservers[GreenRelation.D]),
        "j_preservers": len(preservers[GreenRelation.J]),
        "leqj_preservers": len(preservers[GreenRelation.LEQ_J]),
        "canonical_total": len(canonical),
        "canonical_standard": shape_counts.count("standard"),
        "canonical_transpose": shape_counts.count("transpose"),
        "pairs_checked": pairs,
    }
    return SuiteReport(
        "t2", params.semifield.value, n, "exhaustive", not witnesses, counts, tuple(witnesses)
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
        shape = cell_shape(cells, n)
        if shape is not None:
            canonical_maps.append((_unit_map_from_cells(cells, n), shape == "transpose"))
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
        shapes, preservers, _ = _preserver_sets(n, (GreenRelation.H, GreenRelation.D))
        canonical = {cells for cells, shape in shapes.items() if shape is not None}
        witnesses = _membership_witnesses(preservers, canonical, "canonical")
        sticky = find_sticky(Semifield.BOOLEAN, ExhaustiveBoolean())
        if sticky.survivor is not None:
            witnesses.append({"sticky_survivor": matrix_to_json(sticky.survivor)})
        counts = {
            "maps_enumerated": len(shapes),
            "h_preservers": len(preservers[GreenRelation.H]),
            "d_preservers": len(preservers[GreenRelation.D]),
            "canonical_total": len(canonical),
            "sticky_candidates": sticky.candidates,
            "sticky_refuted_s2": sum(1 for r in sticky.refutations if r.failed == "S2"),
        }
        return SuiteReport(
            "h_theorem", params.semifield.value, n, "exhaustive", not witnesses, counts,
            tuple(witnesses),
        )
    if params.n != 2:
        raise UnsupportedParams("the tropical h_theorem searches 2x2 matrices; n must be 2")
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
    passed = invertible == monomial and len(invertible) == factorial(n)
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
    if params.n != 2:
        raise UnsupportedParams("remark_2_6_regression is a fixed 2x2 witness; n must be 2")
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
