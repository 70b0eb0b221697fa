"""cli_requests: a closed loop, one client, calling ``greenmat.cli.main``
in-process on seeded JSON files.

Every pass sends the same REQUESTS_PER_PASS requests in a seeded order.
The share of each request kind is fixed (MIX), and within a kind the
sizes, relations and formats take their turns in a fixed cycle (only
the entries and the order are seeded), so a pass costs about the same
for every seed.  The latency quantiles sit inside one kind rather than
on the boundary between two: the slowest 2% are boolean D at n = 3,
most of them unrelated pairs, each a full bounded search, and two
`eggbox --n 3` of the same cost, so p99 falls in the middle of that
group.

Each output is checked on its own after the pass, outside the timing:
relate verdicts against an independent decider (`_tropfast` for the
tropical carrier, a private `BooleanSpace` for boolean) with witnesses
multiplied out through `matrix.mat_mul`; ranks against the benchmark's
own search; classify results by a round trip through `synthesize`;
egg-boxes against an independent D-class count; and exit codes against
the kind's expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import gen
from workloads import Op, check_witness

REQUESTS_PER_PASS = 1000

#: (kind, requests per pass)
MIX = (
    ("relate_tropical_related", 240),
    ("relate_tropical_random", 125),
    ("relate_tropical_bounded", 20),   # D/J/leqJ over tropical: exit 2 by design
    ("relate_boolean2_related", 96),
    ("relate_boolean2_random", 96),
    # the slow tail, 50 to 90 ms each: few enough that a pass takes
    # about 3 s and a 40-second run has ten passes for each request's median
    ("relate_boolean3_D_related", 4),
    ("relate_boolean3_D_unrelated", 14),
    ("rank_boolean", 100),
    ("rank_tropical2", 50),
    ("rank_tropical_undetermined", 30),
    ("classify_canonical", 96),
    ("classify_noncanonical", 60),
    ("eggbox_2", 20),
    ("eggbox_3", 2),
    ("malformed", 42),
    ("out_of_range", 5),               # known defect: escapes cli.main as an exception
)
assert sum(count for _, count in MIX) == REQUESTS_PER_PASS

TROPICAL_RELS = ("L", "R", "H", "leqL", "leqR")
BOUNDED_RELS = ("D", "J", "leqJ")
ALL_RELS = TROPICAL_RELS + BOUNDED_RELS


class _Files:
    """Names input files and renders their text into `pending`."""

    def __init__(self, workdir, pending: dict):
        self.dir = workdir
        self.pending = pending

    def add(self, obj) -> str:
        path = self.dir / f"r{len(self.pending):05d}.json"
        self.pending[path] = obj if isinstance(obj, str) else json.dumps(obj)
        return str(path)


def cli_requests(prog, seed: int, workdir, pending: dict) -> list[Op]:
    rng = random.Random(seed)
    files = _Files(workdir, pending)
    kinds = [kind for kind, count in MIX for _ in range(count)]
    rng.shuffle(kinds)
    oracle = _Oracle(prog)
    turn = dict.fromkeys(kinds, 0)
    ops = []
    for i, kind in enumerate(kinds):
        ops.append(_request(prog, oracle, rng, files, kind, i, turn[kind]))
        turn[kind] += 1
    return ops


def _cycle(k: int, *choices):
    """The k-th combination of `choices`: a kind's requests go through
    every combination in turn, so its make-up is the same for every seed."""
    out = []
    for options in choices:
        k, r = divmod(k, len(options))
        out.append(options[r])
    return out


# --- request generation --------------------------------------------------------


def _related_grid(rng, sf, rel, b):
    n = len(b)
    if rel in ("leqL", "leqJ"):
        a = gen.mul(sf, gen.grid(rng, sf, n, n), b)
        return gen.mul(sf, a, gen.grid(rng, sf, n, n)) if rel == "leqJ" else a
    if rel == "leqR":
        return gen.mul(sf, b, gen.grid(rng, sf, n, n))
    if rel == "L":
        return gen.mul(sf, gen.monomial(rng, sf, n), b)
    if rel == "R":
        return gen.mul(sf, b, gen.monomial(rng, sf, n))
    if rel == "H" and sf != "boolean":
        shift = gen.payload(rng, sf)
        return [[None if x is None else x + shift for x in row] for row in b]
    # boolean H, D, J: P b Q is D- and J-related to b
    return gen.mul(sf, gen.mul(sf, gen.monomial(rng, sf, n), b), gen.monomial(rng, sf, n))


def _request(prog, oracle, rng, files, kind, index, k) -> Op:
    """The request `index` of the pass, the k-th of its kind."""
    expect = {"kind": kind}
    if kind.startswith("relate"):
        if kind.startswith("relate_tropical"):
            sf = "tropical"
            n, rel = _cycle(k, (2, 3, 4), BOUNDED_RELS if kind.endswith("bounded") else TROPICAL_RELS)
        elif kind.startswith("relate_boolean2"):
            sf, n, rel = "boolean", 2, ALL_RELS[k % len(ALL_RELS)]
        else:
            sf, n, rel = "boolean", 3, "D"
        b = gen.grid(rng, sf, n, n)
        if kind.endswith("_related"):
            a = _related_grid(rng, sf, rel, b)
        elif kind.endswith("D_unrelated"):
            a = gen.grid(rng, sf, n, n)
            while gen.row_space_size(a) == gen.row_space_size(b):
                a = gen.grid(rng, sf, n, n)
        else:
            a = gen.grid(rng, sf, n, n)
        pa, pb = files.add(gen.matrix_json(sf, a)), files.add(gen.matrix_json(sf, b))
        argv = ["relate", "--rel", rel, pa, pb]
        expect.update(sf=sf, n=n, rel=rel, a=pa, b=pb, exit=2 if kind.endswith("bounded") else 0)
    elif kind.startswith("rank"):
        if kind == "rank_boolean":
            sf, g = "boolean", gen.grid(rng, "boolean", *_cycle(k, range(2, 6), range(2, 6)))
        elif kind == "rank_tropical2":
            sf = "tropical"
            if k % 5 < 2:
                u = gen.grid(rng, sf, 2, 1, zero_prob=0.2)
                v = gen.grid(rng, sf, 1, 2, zero_prob=0.2)
                g = gen.mul(sf, u, v)
            else:
                g = gen.grid(rng, sf, 2, 2, zero_prob=0.2)
        else:
            sf, g = "tropical", gen.grid(rng, "tropical", 3, 3, zero_prob=0.0)
        argv = ["rank", files.add(gen.matrix_json(sf, g))]
        expect.update(sf=sf, grid=g, exit=0)
    elif kind.startswith("classify"):
        argv, extra = _classify_request(rng, files, kind, k)
        expect.update(extra, exit=0)
    elif kind.startswith("eggbox"):
        n = 2 if kind == "eggbox_2" else 3
        fmt = ("json", "dot")[k % 2] if n == 2 else "json"
        argv = ["eggbox", "--n", str(n), "--format", fmt]
        expect.update(n=n, format=fmt, exit=0)
    elif kind == "malformed":
        argv = _malformed(rng, files, k)
        expect.update(exit=2)
    else:  # out_of_range: an entry whose integer part has thousands of digits
        entry = f"{rng.choice(('', '-'))}1e{rng.randint(5000, 6000)}"
        argv = ["rank", files.add({"semifield": "tropical", "rows": 1, "cols": 1,
                                     "entries": [[entry]]})]
        expect.update(exit=2)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = prog.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    label = f"#{index} {kind}: greenmat {' '.join(argv)}"
    return Op(
        label, call,
        render=lambda r: f"{r[0]}\n{r[1]}\n{r[2]}",
        check=lambda r: oracle.check(label, expect, r),
        expect_exit_2=expect["exit"] == 2,
    )


def _map_json(sf, n, cells, coeffs, extra_entry=None) -> dict:
    images = []
    for i in range(n):
        for j in range(n):
            g = [[None] * n for _ in range(n)]
            k, l = divmod(cells[i * n + j], n)
            g[k][l] = coeffs[i][j]
            if extra_entry is not None and (i, j) == (0, 0):
                g[(k + 1) % n][l] = extra_entry
            images.append(gen.matrix_json(sf, g))
    return {"n": n, "semifield": sf, "images": images}


def _classify_request(rng, files, kind, k):
    sf, n = _cycle(k, ("tropical", "boolean"), (2, 3, 4))
    turn = k // 6  # the turn of this (sf, n)
    xs = [gen.payload(rng, sf) for _ in range(n)]
    ys = [gen.payload(rng, sf) for _ in range(n)]
    rank_one = [[1 if sf == "boolean" else xs[i] + ys[j] for j in range(n)] for i in range(n)]
    if kind == "classify_canonical":
        transposed = turn % 2 == 1
        cells = gen.canonical_cells(rng, n, transposed)
        path = files.add(_map_json(sf, n, cells, rank_one))
        return ["classify", path], {"sf": sf, "n": n, "map": path, "transposed": transposed}
    reasons = (("RowColumnStructureViolated", "NotUnitPermutation")
               + (("CoefficientsNotRankOne",) if sf != "boolean" else ()))
    reason = reasons[turn % len(reasons)]
    if reason == "RowColumnStructureViolated":
        obj = _map_json(sf, n, gen.noncanonical_cells(rng, n), rank_one)
    elif reason == "NotUnitPermutation":
        obj = _map_json(sf, n, gen.canonical_cells(rng, n, False), rank_one,
                        extra_entry=gen.payload(rng, sf))
    else:
        rank_one[n - 1][n - 1] += 1
        obj = _map_json(sf, n, gen.canonical_cells(rng, n, False), rank_one)
    return ["classify", files.add(obj)], {"reason": reason}


def _malformed(rng, files, k):
    """Inputs the CLI must reject with exit 2 and a one-line error."""
    case = k % 7
    good = files.add(gen.matrix_json("tropical", gen.grid(rng, "tropical", 2, 2)))
    if case == 0:
        return ["rank", files.add({"semifield": "tropical", "rows": 1, "cols": 1,
                                     "entries": [["2/4"]]})]
    if case == 1:
        return ["rank", files.add({"semifield": "tropical", "rows": 1, "entries": [["1"]]})]
    if case == 2:
        return ["rank", files.add('{"semifield": "tropical", "rows": ')]
    if case == 3:
        return ["relate", "--rel", "Q", good, good]
    if case == 4:
        other = files.add(gen.matrix_json("tropical", gen.grid(rng, "tropical", 3, 3)))
        return ["relate", "--rel", "L", good, other]
    if case == 5:
        other = files.add(gen.matrix_json("boolean", gen.grid(rng, "boolean", 2, 2)))
        return ["relate", "--rel", "H", good, other]
    return ["eggbox", "--n", "4"]


# --- checking -------------------------------------------------------------------


class _Oracle:
    """Expected answers, computed independently of the path the CLI takes."""

    def __init__(self, prog):
        self.prog = prog
        self._spaces = {}

    def space(self, n):
        # a private instance: the program's space(n) cache is cleared per request
        if n not in self._spaces:
            self._spaces[n] = self.prog._boolspace.BooleanSpace(n)
        return self._spaces[n]

    def matrix(self, path):
        with open(path, encoding="utf-8") as fh:
            return self.prog.matrix.matrix_from_json(json.load(fh))

    def related(self, sf, n, a, b, rel: str) -> bool:
        G = self.prog.green.GreenRelation
        if sf != "boolean":
            tf = self.prog._tropfast
            return tf.related(tf.grid_of(a), tf.grid_of(b), G(rel))
        idx = self.prog._boolspace.matrix_to_index
        if rel == "D":
            return self.d_related(idx(a), idx(b), n)
        return self.space(n).related(idx(a), idx(b), G(rel))

    def d_related(self, a: int, b: int, n: int) -> bool:
        """a D b iff a R c and c L b for some c."""
        sp = self.space(n)
        G = self.prog.green.GreenRelation
        r_row, l_tab = sp.table(G.R)[a], sp.table(G.L)
        return any((r_row >> c) & 1 and (l_tab[c] >> b) & 1 for c in range(sp.size))

    def d_classes(self, n: int) -> int:
        sp = self.space(n)
        G = self.prog.green.GreenRelation
        r_tab, l_tab = sp.table(G.R), sp.table(G.L)
        rows = set()
        for a in range(sp.size):
            row = 0
            for c in range(sp.size):
                if (r_tab[a] >> c) & 1:
                    row |= l_tab[c]
            rows.add(row)
        return len(rows)

    def check(self, label, expect, result) -> str | None:
        code, out, err = result
        if code != expect["exit"]:
            return f"{label}: exit {code}, expected {expect['exit']}; stderr {err[:200]!r}"
        if code == 2:
            if out or not err.strip() or "Traceback" in err:
                return f"{label}: exit 2 without a clean error line"
            return None
        kind = expect["kind"]
        try:
            obj = json.loads(out) if expect.get("format") != "dot" else None
        except json.JSONDecodeError:
            return f"{label}: output is not JSON"
        if kind.startswith("relate"):
            return self._check_relate(label, expect, obj)
        if kind.startswith("rank"):
            g = expect["grid"]
            want = gen.boolean_rank(g) if expect["sf"] == "boolean" else gen.tropical_rank(g)
            got = obj.get("rank")
            return None if got == want else f"{label}: rank {got!r}, expected {want!r}"
        if kind == "classify_canonical":
            return self._check_classify(label, expect, obj)
        if kind == "classify_noncanonical":
            want = {"non_canonical": expect["reason"]}
            return None if obj == want else f"{label}: {obj!r}, expected {want!r}"
        return self._check_eggbox(label, expect, obj, out)

    def _check_relate(self, label, expect, obj):
        prog = self.prog
        a, b = self.matrix(expect["a"]), self.matrix(expect["b"])
        rel = prog.green.GreenRelation(expect["rel"])
        want = self.related(expect["sf"], expect["n"], a, b, expect["rel"])
        if obj.get("related") is not want or set(obj) != {"related", "witness"}:
            return f"{label}: related={obj.get('related')!r}, expected {want}"
        if not want:
            return None if obj["witness"] is None else f"{label}: witness on an unrelated pair"
        witness = {k: prog.matrix.matrix_from_json(v) for k, v in obj["witness"].items()}
        idx = prog._boolspace.matrix_to_index

        def d_oracle(x, c, y):
            sp = self.space(expect["n"])
            G = prog.green.GreenRelation
            return sp.related(idx(x), idx(c), G.R) and sp.related(idx(c), idx(y), G.L)

        return check_witness(prog, a, b, rel, witness, label, d_oracle)

    def _check_classify(self, label, expect, obj):
        prog = self.prog
        lm = prog.linear_maps
        sf = prog.semiring.Semifield(expect["sf"])
        with open(expect["map"], encoding="utf-8") as fh:
            u = lm.extract_unit_form(lm.linear_map_from_json(json.load(fh)))
        form = lm.canonical_form_from_json(sf, obj)
        if form.transposed != expect["transposed"]:
            return f"{label}: transposed={form.transposed}"
        if lm.synthesize(form, expect["n"], sf) != u:
            return f"{label}: synthesize(classify(map)) differs from the map"
        return None

    def _check_eggbox(self, label, expect, obj, out):
        n = expect["n"]
        want = self.d_classes(n)
        if expect["format"] == "dot":
            got = out.count("subgraph cluster_d")
            return None if got == want else f"{label}: {got} D-classes, expected {want}"
        sizes = sum(d["size"] for d in obj["d_classes"])
        if sizes != 1 << (n * n) or len(obj["d_classes"]) != want:
            return f"{label}: {len(obj['d_classes'])} D-classes covering {sizes} matrices"
        return None
