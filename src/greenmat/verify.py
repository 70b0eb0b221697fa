"""Named verification suites reproducing the classification results.

Each suite checks one cluster of statements at desk scale: exhaustively
over the boolean semifield for small n, by seeded randomized testing
over the tropical carriers, or as a fixed regression.  Which of these
runs for a request is read from one table, `_SUITES`, that lists each
suite's modes with their carriers, sizes and seed needs; `check_params`
selects the mode and `run_suite` wraps its result in a SuiteReport whose
JSON form is byte-stable for fixed parameters.
Every exhaustive boolean map verdict is a `check_preservation` or
`check_exchange` verdict, so the reference decider re-checks each
refutation a table scan finds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial
from typing import Callable

from . import _tropfast, sampling, semiring
from ._boolspace import act_on_bits, all_cell_maps, matrix_to_index, space
from .green import MAX_BOUNDED_N, GreenRelation, decidable_over, factor_rank
from .linear_maps import (
    IMAGE_RELATION,
    CanonicalForm,
    Exhaustive,
    LinearMap,
    NotBijective,
    Randomized,
    UnitPermutationMap,
    cell_shape,
    check_exchange,
    check_preservation,
    extract_unit_form,
    find_sticky,
    first_counterexample,
    synthesize,
)
from .matrix import NotMonomial, matrix_to_json, monomial_to_json, try_monomial
from .semiring import Semifield, UnsupportedParams

#: Largest n the suites accept over a tropical carrier.  The randomized
#: corollaries run grows with n: at n = 8 and the default 1000 trials it
#: takes about 40 s on a 2-vCPU VM (Python 3.11).
MAX_TROPICAL_N = 8


#: Largest --trials the suites accept, ten times the default.  The
#: randomized suites build their pools before checking any pair, so time
#: and memory grow with trials: tropical corollaries at n = 2, with the
#: default 100 monomial pairs, takes 1.0 to 1.5 s at 1000 trials and 14 to
#: 15 s at 10 000 on a shared 2-vCPU VM (Python 3.11.7), nearly all of it
#: checking the 2 * 100 * trials pairs.
MAX_TRIALS = 10_000

#: The monomial pairs the tropical corollaries draw are capped by the
#: same rule, at ten times their default.
MAX_MONOMIAL_PAIRS = 1_000

#: The cell maps t1 samples at n = 3.
T1_MAP_SAMPLES = 1000


class UnknownSuite(ValueError):
    pass


@dataclass(frozen=True)
class SuiteParams:
    semifield: Semifield = Semifield.BOOLEAN
    n: int = 2
    seed: int | None = None
    trials: int = 1000
    monomial_pairs: int = 100


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


@dataclass(frozen=True)
class _Mode:
    """One way a suite runs: ``run(params)`` returns (passed, counts,
    witnesses) for a carrier in ``carrier`` and an n in ``sizes``; a
    seeded mode needs params.seed and reports it with the generator."""

    run: Callable[[SuiteParams], tuple]
    label: str
    carrier: tuple[Semifield, ...]
    sizes: range
    seeded: bool


def check_params(name: str, params: SuiteParams) -> _Mode:
    """Return the mode ``run_suite(name, params)`` runs, or raise
    UnknownSuite or UnsupportedParams before any work is done."""
    if name not in _SUITES:
        raise UnknownSuite(f"no suite named {name!r}; choose from {', '.join(_SUITES)}")
    caps = (("n", None), ("trials", MAX_TRIALS), ("monomial_pairs", MAX_MONOMIAL_PAIRS))
    for field, cap in caps:
        value = getattr(params, field)
        if isinstance(value, bool) or not isinstance(value, int):
            raise UnsupportedParams(f"{field} must be an int, got {value!r}")
        if value < 1:
            raise UnsupportedParams(f"{field} must be at least 1, got {value}")
        if cap is not None and value > cap:
            raise UnsupportedParams(f"{field} must be at most {cap}, got {value}")
    if not isinstance(params.semifield, Semifield):
        raise UnsupportedParams(f"semifield must be a Semifield, got {params.semifield!r}")
    if params.semifield is not Semifield.BOOLEAN and params.n > MAX_TROPICAL_N:
        raise UnsupportedParams(
            f"suites over a tropical carrier are limited to n <= {MAX_TROPICAL_N}, "
            f"got {params.n}"
        )
    sf, n = params.semifield, params.n
    fits = [mode for mode in _SUITES[name] if sf in mode.carrier]
    if not fits:
        carriers = "/".join(dict.fromkeys(c.value for m in _SUITES[name] for c in m.carrier))
        raise UnsupportedParams(f"suite {name} runs over {carriers} only, got {sf.value}")
    for mode in fits:
        if n in mode.sizes:
            seed = params.seed
            if mode.seeded and (isinstance(seed, bool) or not isinstance(seed, int)):
                got = "" if seed is None else f" as an int, got {seed!r}"
                raise UnsupportedParams(
                    f"suite {name} is {mode.label} over {sf.value} at n = {n} "
                    f"and needs an explicit seed{got}"
                )
            return mode
    # n >= 1 here, and every mode's sizes start at 1 or are a single n
    sizes = sorted(k for mode in fits for k in mode.sizes)
    need = f"be {sizes[0]}" if len(sizes) == 1 else f"be at most {sizes[-1]}"
    raise UnsupportedParams(f"suite {name} over {sf.value}: n must {need}, got {n}")


def run_suite(name: str, params: SuiteParams) -> SuiteReport:
    mode = check_params(name, params)
    passed, counts, witnesses = mode.run(params)
    seed, generator = (params.seed, sampling.GENERATOR_NAME) if mode.seeded else (None, None)
    return SuiteReport(
        name, params.semifield.value, params.n, mode.label, passed, counts,
        tuple(witnesses), seed, generator,
    )


# --- shared helpers --------------------------------------------------------


def _unit_map_from_cells(cells: tuple[int, ...], n: int) -> UnitPermutationMap:
    one_v = semiring.one(Semifield.BOOLEAN)
    sigma = tuple(
        tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n)
    )
    alpha = tuple(tuple(one_v for _ in range(n)) for _ in range(n))
    return UnitPermutationMap(n, Semifield.BOOLEAN, sigma, alpha)


def _preserves(shape: str | None, rels) -> bool:
    """Whether, by `IMAGE_RELATION`, a map of this `cell_shape` preserves every rel."""
    return shape in IMAGE_RELATION and all(IMAGE_RELATION[shape][r] is r for r in rels)


def _preserver_sets(n: int, rels):
    """Decide every cell map at size n by `check_preservation` of each rel.

    Returns (shapes, expected, preservers, pairs): shapes maps each cell
    map to its `cell_shape`, expected is the set of cell maps whose shape
    preserves every rel, preservers[rel] is the set of cell maps that
    preserve rel, and pairs sums the verdicts' `pairs_checked`.
    """
    shapes: dict[tuple[int, ...], str | None] = {}
    preservers: dict[GreenRelation, set[tuple[int, ...]]] = {rel: set() for rel in rels}
    pairs = 0
    for cells in all_cell_maps(n):
        shapes[cells] = cell_shape(cells, n)
        u = _unit_map_from_cells(cells, n)
        for rel in rels:
            v = check_preservation(u, rel, Exhaustive())
            pairs += v.pairs_checked
            if v.ok:
                preservers[rel].add(cells)
    expected = {cells for cells, shape in shapes.items() if _preserves(shape, rels)}
    return shapes, expected, preservers, pairs


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


def _t1_exhaustive(params: SuiteParams):
    n = params.n
    rels = (GreenRelation.L, GreenRelation.R, GreenRelation.LEQ_L, GreenRelation.LEQ_R)
    shapes, standard_maps, preservers, pairs = _preserver_sets(n, rels)
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
    return not witnesses, counts, witnesses


def _probe_pairs(sp, rel: GreenRelation) -> list[tuple[int, int]]:
    """Deterministic rel-related pairs, the shortcut of `_t1_sampled`.

    For L: pairs of units in a shared column, and a two-unit row segment
    against the full two-column matrix; for R the transposes; for H the
    anti-diagonal two-unit pairs.  Each family mirrors a configuration
    used to derive the structure of preservers.  At n = 3 they refute
    every non-preserver of the 9! cell maps, leaving the 36 L-, 36 R- and
    72 H-preservers; `_t1_sampled` still decides a map they leave by
    `check_preservation`, so its verdicts do not rest on that.
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


def _t1_sampled(params: SuiteParams):
    """Classify every cell map at n = 3, and decide L/R/H preservation
    exactly for T1_MAP_SAMPLES seeded cell maps.

    Each (map, relation) verdict tries the probe pairs first: they are
    related, so the first one whose images are unrelated refutes the map.
    A map that no probe refutes is decided by `check_preservation` in
    `Exhaustive` mode, as `_preserver_sets` decides every map.  Every
    verdict is therefore exact, and the seed draws only the map shuffles;
    --trials does not enter.  Refuting pairs are kept as bit indices.
    """
    n = params.n
    sp = space(n)
    class_counts = {"standard": 0, "transpose": 0, "non_canonical": 0}
    for cells in all_cell_maps(n):
        class_counts[cell_shape(cells, n) or "non_canonical"] += 1
    rels = (GreenRelation.L, GreenRelation.R, GreenRelation.H)
    probes = {rel: _probe_pairs(sp, rel) for rel in rels}
    rng = random.Random(params.seed)
    discrepancies = []
    probe_refuted = table_checks = pair_checks = 0
    for _ in range(T1_MAP_SAMPLES):
        cells_list = list(range(n * n))
        rng.shuffle(cells_list)
        cells = tuple(cells_list)
        shape = cell_shape(cells, n)
        for rel in rels:
            found = None
            for a, b in probes[rel]:
                pair_checks += 1
                if not sp.related(act_on_bits(cells, a), act_on_bits(cells, b), rel):
                    found = (a, b)
                    probe_refuted += 1
                    break
            else:
                v = check_preservation(_unit_map_from_cells(cells, n), rel, Exhaustive())
                pair_checks += v.pairs_checked
                table_checks += 1
                if not v.ok:
                    cx = v.counterexample
                    found = matrix_to_index(cx.a), matrix_to_index(cx.b)
            expect_preserved = _preserves(shape, (rel,))
            if expect_preserved == (found is not None):
                witness = {
                    "map_cells": list(cells),
                    "classified_as": shape or "non_canonical",
                    "relation": rel.value,
                    "expected_preserved": expect_preserved,
                }
                if found is not None:
                    witness["pair"] = [matrix_to_json(sp.matrix_of(m)) for m in found]
                discrepancies.append(witness)
    expected_canonical = factorial(n) ** 2
    witnesses = list(discrepancies)
    if not class_counts["standard"] == class_counts["transpose"] == expected_canonical:
        witnesses.append({"class_counts": class_counts, "expected_per_shape": expected_canonical})
    counts = {
        "maps_classified": sum(class_counts.values()),
        "standard": class_counts["standard"],
        "transpose": class_counts["transpose"],
        "non_canonical": class_counts["non_canonical"],
        "sampled_maps": T1_MAP_SAMPLES,
        "probe_pairs": sum(len(pairs) for pairs in probes.values()),
        "probe_refuted": probe_refuted,
        "table_checks": table_checks,
        "pair_checks": pair_checks,
        "discrepancies": len(discrepancies),
    }
    return not witnesses, counts, witnesses


# --- t2: D/J/leqJ preservers are exactly the canonical maps -----------------


def _t2_exhaustive(params: SuiteParams):
    n = params.n
    rels = (GreenRelation.D, GreenRelation.J, GreenRelation.LEQ_J)
    shapes, canonical, preservers, pairs = _preserver_sets(n, rels)
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
    return not witnesses, counts, witnesses


# --- corollaries: strong preservation / exchange of the canonical maps ------


def _corollaries_exhaustive(params: SuiteParams):
    n = params.n
    canonical_maps = []
    for cells in all_cell_maps(n):
        shape = cell_shape(cells, n)
        if shape is not None:
            canonical_maps.append((_unit_map_from_cells(cells, n), shape))
    witnesses = []
    checks = 0
    pairs = 0
    for u, shape in canonical_maps:
        exchanged = set()  # each exchanged pair is checked once, at its first relation
        for rel, target in IMAGE_RELATION[shape].items():
            if target is rel:
                v = check_preservation(u, rel, Exhaustive(), strong=True)
            elif rel in exchanged:
                continue
            else:
                exchanged.add(target)
                v = check_exchange(u, Exhaustive(), strong=True, pair=(rel, target))
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
    return not witnesses, counts, witnesses


def _corollaries_randomized(params: SuiteParams):
    """Seeded check that canonical maps of each shape carry every relation
    decidable over the carrier (L, R, leqL, leqR and H over a tropical one)
    to its `IMAGE_RELATION` target.

    Pair pools are shared across the monomial pairs.  Each pair is drawn
    as integer grids at its own lcm of denominators and each map's
    coefficients are scaled once to theirs, and `first_counterexample`
    decides each (map, relation) on the pool, re-verifying any failure
    against the reference decider, premise and conclusion, before it is
    reported.
    """
    sf, n = params.semifield, params.n
    rng = random.Random(params.seed)
    pool_rels = [rel for rel in IMAGE_RELATION["standard"] if decidable_over(rel, sf)]
    per_rel = max(1, params.trials // len(pool_rels))
    pools = {
        rel: [sampling.related_grids(rng, sf, n, rel) for _ in range(per_rel)]
        for rel in pool_rels
    }
    witnesses = []
    pair_checks = 0
    for idx in range(params.monomial_pairs):
        p = sampling.random_monomial(rng, sf, n)
        q = sampling.random_monomial(rng, sf, n)
        for label, image in IMAGE_RELATION.items():
            u = synthesize(CanonicalForm(p, q, label == "transpose"), n, sf)
            smap = _tropfast.scale_map(u)
            for rel in pool_rels:
                target = image[rel]
                checked, cx = first_counterexample(u, smap, pools[rel], rel, target, True)
                pair_checks += checked
                if cx is not None:
                    witnesses.append(
                        {
                            "monomial_pair_index": idx,
                            "form": label,
                            "p": monomial_to_json(p),
                            "q": monomial_to_json(q),
                            "relation": rel.value,
                            "target": target.value,
                            "pair": [matrix_to_json(cx.a), matrix_to_json(cx.b)],
                        }
                    )
    counts = {
        "monomial_pairs": params.monomial_pairs,
        "pairs_per_relation": per_rel,
        "pair_checks": pair_checks,
        "failures": len(witnesses),
    }
    return not witnesses, counts, witnesses


# --- h_theorem: H-preservers coincide with D-preservers; no sticky matrix ---


def _h_theorem_exhaustive(params: SuiteParams):
    shapes, canonical, preservers, _ = _preserver_sets(
        params.n, (GreenRelation.H, GreenRelation.D)
    )
    witnesses = _membership_witnesses(preservers, canonical, "canonical")
    sticky = find_sticky(Semifield.BOOLEAN, Exhaustive())
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
    return not witnesses, counts, witnesses


def _h_theorem_randomized(params: SuiteParams):
    """The sticky search over 2x2 tropical matrices."""
    report = find_sticky(params.semifield, Randomized(seed=params.seed, trials=params.trials))
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
    return passed, counts, witnesses


# --- lemma_bg: bijective iff unit-permutation shaped -------------------------


def _lemma_bg(params: SuiteParams):
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
    return passed, counts, mismatches


# --- invertibles: invertible = monomial ---------------------------------------


def _invertibles(params: SuiteParams):
    n = params.n
    sp = space(n)
    ident = sp.identity
    invertible = set()
    for a in range(sp.size):
        for b in range(sp.size):
            if sp.mul(a, b) == ident and sp.mul(b, a) == ident:
                invertible.add(a)
                break
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
    return passed, counts, witnesses


# --- rank_j_monotone: leqJ implies rank does not increase --------------------


def _rank_j_monotone(params: SuiteParams):
    sp = space(params.n)
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
    return not witnesses, counts, witnesses


# --- remark_2_6_regression: rank equality does not force R over naturals -----


def _remark_regression(params: SuiteParams):
    """Fixed witness over the naturals: A = 2*E11 and B = E11 satisfy
    A leqR B with equal factor rank, yet A R B fails since 2t = 1 has no
    solution.  Checked with plain integer arithmetic, whatever the carrier."""
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
    return passed, counts, witnesses


# --- the suites and their modes ---------------------------------------------

_BOOLEAN = (Semifield.BOOLEAN,)
_TROPICAL = (Semifield.TROPICAL, Semifield.TROPICAL_INT)
#: Sizes of the exhaustive boolean suites that scan every map: the
#: (n^2)! cell maps (9! at n = 3) or the image tables of lemma_bg.
_DESK = range(1, 3)

_SUITES: dict[str, tuple[_Mode, ...]] = {
    "t1": (
        _Mode(_t1_exhaustive, "exhaustive", _BOOLEAN, _DESK, False),
        _Mode(_t1_sampled, "sampled", _BOOLEAN, range(3, 4), True),
    ),
    "t2": (_Mode(_t2_exhaustive, "exhaustive", _BOOLEAN, _DESK, False),),
    "corollaries": (
        _Mode(_corollaries_exhaustive, "exhaustive", _BOOLEAN, _DESK, False),
        _Mode(_corollaries_randomized, "randomized", _TROPICAL,
              range(1, MAX_TROPICAL_N + 1), True),
    ),
    "h_theorem": (
        _Mode(_h_theorem_exhaustive, "exhaustive", _BOOLEAN, _DESK, False),
        _Mode(_h_theorem_randomized, "randomized", _TROPICAL, range(2, 3), True),
    ),
    "lemma_bg": (_Mode(_lemma_bg, "exhaustive", _BOOLEAN, _DESK, False),),
    "invertibles": (
        _Mode(_invertibles, "exhaustive", _BOOLEAN, range(1, MAX_BOUNDED_N + 1), False),
    ),
    "rank_j_monotone": (_Mode(_rank_j_monotone, "exhaustive", _BOOLEAN, _DESK, False),),
    "remark_2_6_regression": (
        _Mode(_remark_regression, "fixed", tuple(Semifield), range(2, 3), False),
    ),
}
