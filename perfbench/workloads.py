"""The suite-level workloads: tropical_preservers, reference_deciders and
boolean_exhaustive.  Each builds a list of `Op`s from the seed; one pass
runs every op once.  The cli_requests workload lives in cli_mix.py.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen


@dataclass
class Op:
    """One public call, timed on its own, then checked outside the timing.

    `call` returns the output, `render` makes it a byte-stable string
    compared across passes, and `check` returns an error message or None.
    `expect_exit_2` marks malformed input, which the program should
    reject with exit code 2.
    """

    label: str
    call: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], str | None]
    expect_exit_2: bool = False


def _suite_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def _suite_op(prog, label, name, params, pinned: dict) -> Op:
    def call():
        return prog.verify.run_suite(name, params)

    def check(report):
        if not report.passed:
            return f"{label}: suite failed"
        wrong = {k: (report.counts.get(k), v) for k, v in pinned.items() if report.counts.get(k) != v}
        if wrong:
            return f"{label}: counts (got, pinned) {wrong}"
        return None

    return Op(label, call, _suite_json, check)


def _battery_op(prog, label, suites: list[Op]) -> Op:
    """Several suite ops as one: each suite starts with cold tables, as it
    would as an op of its own, and is checked against its own pins."""
    clear = prog._boolspace.space.cache_clear

    def call():
        reports = []
        for op in suites:
            clear()
            reports.append(op.call())
        return reports

    def check(reports):
        return next((msg for op, r in zip(suites, reports) if (msg := op.check(r))), None)

    return Op(label, call, lambda reports: "".join(map(_suite_json, reports)), check)


# --- tropical_preservers -----------------------------------------------------

#: Scaled from the battery's 100 monomial pairs x 1000 trials so that a pass
#: takes about 1 s: three suites of 10 monomial pairs x 100 trials per
#: carrier and size, each an op of 40 to 150 ms.  A 40-second run then has
#: 25 passes or more for each op's median.  10 pairs over 20 pairs per relation keep
#: pool generation the same share of a suite as in 10 x 500.
COROLLARY_MONOMIAL_PAIRS = 10
COROLLARY_TRIALS = 100
COROLLARY_SUITES = 3


def tropical_preservers(prog, seed: int, workdir, files) -> list[Op]:
    Semifield = prog.semiring.Semifield
    rng = random.Random(seed)
    ops = []
    per_rel = COROLLARY_TRIALS // 5
    pinned = {
        "monomial_pairs": COROLLARY_MONOMIAL_PAIRS,
        "pairs_per_relation": per_rel,
        "pair_checks": 2 * 5 * COROLLARY_MONOMIAL_PAIRS * per_rel,
        "failures": 0,
    }
    for sf, n in ((Semifield.TROPICAL, 2), (Semifield.TROPICAL, 3), (Semifield.TROPICAL_INT, 3)):
        for k in range(COROLLARY_SUITES):
            params = prog.verify.SuiteParams(
                semifield=sf, n=n, seed=rng.randrange(2**31), trials=COROLLARY_TRIALS,
                monomial_pairs=COROLLARY_MONOMIAL_PAIRS,
            )
            ops.append(_suite_op(prog, f"corollaries {sf.value} n={n} #{k}", "corollaries",
                                 params, pinned))
    return ops


# --- boolean_exhaustive ------------------------------------------------------


def boolean_exhaustive(prog, seed: int, workdir, files) -> list[Op]:
    Semifield = prog.semiring.Semifield
    SuiteParams = prog.verify.SuiteParams
    boolean = Semifield.BOOLEAN
    t1_seed = random.Random(seed).randrange(2**31)
    # the paper's counts: (n!)^2 maps X -> PXQ, as many X -> P X^T Q
    runs = (
        ("t1", 2, None, {"maps_enumerated": 24, "l_preservers": 4, "r_preservers": 4,
                         "leql_preservers": 4, "leqr_preservers": 4, "canonical_standard": 4}),
        ("t2", 2, None, {"maps_enumerated": 24, "d_preservers": 8, "j_preservers": 8,
                         "leqj_preservers": 8, "canonical_total": 8}),
        ("corollaries", 2, None, {"canonical_maps": 8, "failures": 0}),
        ("h_theorem", 2, None, {"h_preservers": 8, "d_preservers": 8, "canonical_total": 8}),
        ("lemma_bg", 2, None, {"maps_enumerated": 14641, "bijective": 24, "mismatches": 0}),
        ("rank_j_monotone", 2, None, {"violations": 0}),
        ("invertibles", 2, None, {"matrices": 16, "invertible": 2}),
        ("invertibles", 3, None, {"matrices": 512, "invertible": 6}),
        ("t1", 3, t1_seed, {"maps_classified": 362880, "standard": 36, "transpose": 36,
                            "non_canonical": 362808, "discrepancies": 0}),
    )
    ops = [
        _suite_op(prog, f"{name} boolean n={n}", name,
                  SuiteParams(semifield=boolean, n=n, seed=s), pinned)
        for name, n, s, pinned in runs
    ]
    # the n = 2 suites take 1 to 100 ms each, short enough that one of
    # them would be the median op; as one op they take about 130 ms
    return [_battery_op(prog, "battery boolean n=2", ops[:-2]), *ops[-2:]]


# --- reference_deciders ------------------------------------------------------

#: Trials per randomized check; each strong trial draws a related and an
#: unrelated pair.
REFERENCE_TRIALS = 20
#: Maps per (carrier, n).  Canonical maps run the full trial loops, whose
#: cost is steady from seed to seed, and they are most of the checks, so
#: the median check is one of them.  A non-canonical map stops at its first
#: counterexample, which makes its cost vary with the seed.
CANONICAL_MAPS = 2
NONCANONICAL_MAPS = 1
#: The sticky search runs as three suites of 100 candidates per carrier
#: rather than one of 300: p99 over 90 ops is the slowest op, and a single
#: 90-ms search would be that op in every run.
STICKY_TRIALS = 100
STICKY_SUITES = 3


def reference_deciders(prog, seed: int, workdir, files) -> list[Op]:
    G = prog.green.GreenRelation
    Semifield = prog.semiring.Semifield
    rng = random.Random(seed)
    preserved = (G.L, G.R, G.LEQ_L, G.LEQ_R, G.H)
    ops = []
    for sf in (Semifield.TROPICAL, Semifield.TROPICAL_INT):
        for n in (2, 3):
            for k in range(CANONICAL_MAPS):
                tag = f"#{k} {sf.value} n={n}"
                u = _unit_map(prog, rng, sf, n, gen.canonical_cells(rng, n, False), rank_one=True)
                for rel in preserved:
                    ops.append(_check_op(prog, f"preserves {rel.value} standard{tag}", u, rel,
                                         None, rng.randrange(2**31), must_hold=True))
                u = _unit_map(prog, rng, sf, n, gen.canonical_cells(rng, n, True), rank_one=True)
                for pair in ((G.L, G.R), (G.LEQ_L, G.LEQ_R)):
                    ops.append(_check_op(prog, f"exchanges {pair[0].value}/{pair[1].value}{tag}",
                                         u, None, pair, rng.randrange(2**31), must_hold=True))
                ops.append(_check_op(prog, f"preserves H transpose{tag}", u, G.H, None,
                                     rng.randrange(2**31), must_hold=True))
            tag = f"{sf.value} n={n}"
            for k in range(NONCANONICAL_MAPS):
                u = _unit_map(prog, rng, sf, n, gen.noncanonical_cells(rng, n), rank_one=False)
                for rel in preserved:
                    ops.append(_check_op(prog, f"preserves {rel.value} non-canonical#{k} {tag}",
                                         u, rel, None, rng.randrange(2**31), must_hold=False))
        pinned = {"sticky_candidates": STICKY_TRIALS, "survivors": 0}
        for k in range(STICKY_SUITES):
            params = prog.verify.SuiteParams(
                semifield=sf, n=2, seed=rng.randrange(2**31), trials=STICKY_TRIALS
            )
            ops.append(_suite_op(prog, f"h_theorem {sf.value} #{k}", "h_theorem", params, pinned))
    return ops


def _unit_map(prog, rng, sf, n, cells, rank_one: bool):
    """A unit-permutation map; coefficients x_i*y_j when rank_one, else free."""
    value = prog.semiring.value
    xs = [gen.payload(rng, sf.value) for _ in range(n)]
    ys = [gen.payload(rng, sf.value) for _ in range(n)]
    sigma = tuple(tuple(divmod(cells[i * n + j], n) for j in range(n)) for i in range(n))
    alpha = tuple(
        tuple(
            value(sf, xs[i] + ys[j] if rank_one else gen.payload(rng, sf.value))
            for j in range(n)
        )
        for i in range(n)
    )
    return prog.linear_maps.UnitPermutationMap(n, sf, sigma, alpha)


def _check_op(prog, label, u, rel, pair, check_seed, must_hold: bool) -> Op:
    lm = prog.linear_maps
    mode = lm.Randomized(seed=check_seed, trials=REFERENCE_TRIALS)
    if pair is None:
        def call():
            return prog.linear_maps.check_preservation(u, rel, mode, strong=True)
        per_trial = (1, 2)
    else:
        def call():
            return prog.linear_maps.check_exchange(u, mode, strong=True, pair=pair)
        per_trial = (2, 4)

    def check(verdict):
        if verdict.counterexample is None:
            if verdict.outcome != "NoCounterexampleFound":
                return f"{label}: outcome {verdict.outcome} without a counterexample"
            lo, hi = per_trial
            if not lo * REFERENCE_TRIALS <= verdict.pairs_checked <= hi * REFERENCE_TRIALS:
                return f"{label}: {verdict.pairs_checked} pairs checked"
            return None
        if must_hold:
            return f"{label}: counterexample against a canonical map"
        return _check_counterexample(prog, label, u, verdict, rel)

    return Op(label, call, lambda v: _verdict_json(prog, v), check)


def _verdict_json(prog, v) -> str:
    mj = prog.matrix.matrix_to_json
    cx = v.counterexample
    out = {
        "checked": v.checked, "outcome": v.outcome, "mode": v.mode,
        "pairs_checked": v.pairs_checked, "seed": v.seed, "counterexample": None,
    }
    if cx is not None:
        out["counterexample"] = {
            "a": mj(cx.a), "b": mj(cx.b), "image_a": mj(cx.image_a),
            "image_b": mj(cx.image_b), "detail": cx.detail,
            "witness": None if cx.witness is None else {k: mj(m) for k, m in cx.witness.items()},
        }
    return json.dumps(out, sort_keys=True)


def _check_counterexample(prog, label, u, verdict, rel) -> str | None:
    """Re-derive a preservation counterexample with the independent
    `_tropfast` decider.

    The images are recomputed through `_tropfast.apply_map`, the premise
    and the failed conclusion through `_tropfast.related`, and the
    witness must multiply out through `matrix.mat_mul`.
    """
    tf = prog._tropfast
    cx = verdict.counterexample
    cells, coeffs = tf.map_rep(u)
    n = u.n
    for x, image in ((cx.a, cx.image_a), (cx.b, cx.image_b)):
        if _reduced(tf.apply_map(cells, coeffs, tf.grid_of(x), n)) != _reduced(tf.grid_of(image)):
            return f"{label}: reported image differs from the map applied to the input"
    ga, gb = tf.grid_of(cx.a), tf.grid_of(cx.b)
    ta, tb = tf.grid_of(cx.image_a), tf.grid_of(cx.image_b)
    if "holds but" in cx.detail:
        if not tf.related(ga, gb, rel) or tf.related(ta, tb, rel):
            return f"{label}: counterexample does not refute preservation"
        witness_pair = (cx.a, cx.b, rel)
    else:
        if tf.related(ga, gb, rel) or not tf.related(ta, tb, rel):
            return f"{label}: counterexample does not refute reflection"
        witness_pair = (cx.image_a, cx.image_b, rel)
    return check_witness(prog, *witness_pair, cx.witness, label=label)


def _reduced(grid):
    """A `_tropfast` (num, den) grid with every fraction reduced."""
    return [[None if x is None else Fraction(*x) for x in row] for row in grid]


# --- witnesses -----------------------------------------------------------------

_WITNESS_KEYS = {
    "leqL": {"s"}, "leqR": {"t"}, "leqJ": {"s", "t"}, "D": {"c"},
    "L": {"s_forward", "s_backward"}, "R": {"t_forward", "t_backward"},
    "H": {"s_forward", "s_backward", "t_forward", "t_backward"},
    "J": {"s_forward", "t_forward", "s_backward", "t_backward"},
}


def check_witness(prog, a, b, rel, witness: dict, label: str, d_oracle=None) -> str | None:
    """The witness multipliers must multiply out through `matrix.mat_mul`.

    For D the witness is the intermediate c; `d_oracle(a, c, b)` confirms
    a R c and c L b independently.
    """
    mm = prog.matrix.mat_mul
    name = rel.value
    if witness is None or set(witness) != _WITNESS_KEYS[name]:
        return f"{label}: witness keys {None if witness is None else sorted(witness)}"
    w = witness
    if name == "D":
        ok = d_oracle is not None and d_oracle(a, w["c"], b)
    elif name == "leqL":
        ok = mm(w["s"], b) == a
    elif name == "leqR":
        ok = mm(b, w["t"]) == a
    elif name == "leqJ":
        ok = mm(mm(w["s"], b), w["t"]) == a
    elif name == "J":
        ok = (mm(mm(w["s_forward"], b), w["t_forward"]) == a
              and mm(mm(w["s_backward"], a), w["t_backward"]) == b)
    else:
        ok = True
        if name in ("L", "H"):
            ok = mm(w["s_forward"], b) == a and mm(w["s_backward"], a) == b
        if name in ("R", "H"):
            ok = ok and mm(b, w["t_forward"]) == a and mm(a, w["t_backward"]) == b
    return None if ok else f"{label}: {name} witness does not multiply out"
