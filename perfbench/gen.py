"""The benchmark's own seeded input generators and exact oracles.

Inputs are drawn here rather than with ``greenmat.sampling`` so that a
change to the program's samplers cannot change what is measured.
Tropical payloads mirror the program's range: p/q with |p| <= 10**6 and
1 <= q <= 10**3 (integers for tropical_int); ``None`` is -inf.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

P_BOUND = 10**6
Q_BOUND = 10**3


def payload(rng: random.Random, sf: str):
    """A nonzero payload: 1 over boolean, p/q or p over the tropical carriers."""
    if sf == "boolean":
        return 1
    p = rng.randint(-P_BOUND, P_BOUND)
    return p if sf == "tropical_int" else Fraction(p, rng.randint(1, Q_BOUND))


def grid(rng: random.Random, sf: str, rows: int, cols: int, zero_prob: float = 0.125):
    if sf == "boolean":
        return [[1 if rng.random() < 0.5 else None for _ in range(cols)] for _ in range(rows)]
    return [
        [None if rng.random() < zero_prob else payload(rng, sf) for _ in range(cols)]
        for _ in range(rows)
    ]


def mul(sf: str, a, b):
    """Matrix product over payload grids (boolean AND/OR, max-plus)."""
    out = []
    for arow in a:
        row = []
        for col in zip(*b):
            acc = None
            for x, y in zip(arow, col):
                if x is None or y is None:
                    continue
                v = 1 if sf == "boolean" else x + y
                if acc is None or v > acc:
                    acc = v
            row.append(acc)
        out.append(row)
    return out


def monomial(rng: random.Random, sf: str, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[None] * n for _ in range(n)]
    for col, row in enumerate(perm):
        g[row][col] = payload(rng, sf)
    return g


def text(sf: str, x) -> str:
    """Canonical entry text, as the program's wire format demands."""
    if x is None:
        return "0" if sf == "boolean" else "-inf"
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def matrix_json(sf: str, g) -> dict:
    return {
        "semifield": sf,
        "rows": len(g),
        "cols": len(g[0]),
        "entries": [[text(sf, x) for x in row] for row in g],
    }


def cell_structure(cells, n: int) -> str:
    """standard / transpose / non_canonical shape of a cell permutation."""
    rows = [[cells[i * n + j] // n for j in range(n)] for i in range(n)]
    cols = [[cells[i * n + j] % n for j in range(n)] for i in range(n)]
    if all(len(set(r)) == 1 for r in rows) and all(len(set(c)) == 1 for c in zip(*cols)):
        return "standard"
    if all(len(set(c)) == 1 for c in cols) and all(len(set(r)) == 1 for r in zip(*rows)):
        return "transpose"
    return "non_canonical"


def noncanonical_cells(rng: random.Random, n: int) -> list[int]:
    while True:
        cells = list(range(n * n))
        rng.shuffle(cells)
        if cell_structure(cells, n) == "non_canonical":
            return cells


def canonical_cells(rng: random.Random, n: int, transposed: bool):
    """Cell targets and rank-one coefficient factors of X -> PXQ or P X^T Q."""
    rho = list(range(n))
    tau = list(range(n))
    rng.shuffle(rho)
    rng.shuffle(tau)
    if transposed:
        return [tau[j] * n + rho[i] for i in range(n) for j in range(n)]
    return [rho[i] * n + tau[j] for i in range(n) for j in range(n)]


# --- oracles -----------------------------------------------------------------


def boolean_rank(g) -> int:
    """Boolean factor rank by a search over row generators.

    Rank of a equals rank of its transpose, so this searches sets of k
    row vectors (the program searches column vectors): a row is covered
    when it is the union of the chosen vectors it contains.
    """
    ncols = len(g[0])
    rows = [sum(1 << j for j, x in enumerate(r) if x is not None) for r in g]
    targets = sorted({r for r in rows if r})
    if not targets:
        return 0
    candidates = range(1, 1 << ncols)
    for k in range(1, min(len(g), ncols) + 1):
        for chosen in itertools.combinations(candidates, k):
            if all(_cover(chosen, t) == t for t in targets):
                return k
    raise AssertionError("unreachable: the rows themselves always cover")


def _cover(chosen, target: int) -> int:
    out = 0
    for c in chosen:
        if c & ~target == 0:
            out |= c
    return out


def tropical_rank(g):
    """0, 1, 2 or "undetermined", by the program's decidable fragment."""
    support = [(i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x is not None]
    if not support:
        return 0
    rs = sorted({i for i, _ in support})
    cs = sorted({j for _, j in support})
    if len(support) == len(rs) * len(cs):
        i0, j0 = rs[0], cs[0]
        if all(g[i][j] + g[i0][j0] == g[i][j0] + g[i0][j] for i in rs for j in cs):
            return 1
    if len(g) == 2 and len(g[0]) == 2 and len(support) == 4:
        return 2
    return "undetermined"


def row_space_size(g) -> int:
    """Number of distinct unions of rows; D-related boolean matrices agree on it."""
    rows = {sum(1 << j for j, x in enumerate(r) if x is not None) for r in g}
    space = {0}
    for r in rows:
        space |= {s | r for s in space}
    return len(space)
