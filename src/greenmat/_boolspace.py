"""Bit-encoded enumeration of M_n(B) for exhaustive verification, n <= 3.

Matrix number k has a one in cell (i, j) iff bit i*n + j of k is set --
the same total order as matrix.all_boolean_matrices.

A linear map over B maps a matrix to the OR of its units' images, and
`image_table` builds the image of every index at once: the transposes,
the row and column spans behind the keys below, every map image of an
exhaustive check and those of lemma_bg.  `act_on_bits` maps one matrix,
for the probe pairs of `verify._t1_sampled`.  A workspace is built on
integers alone; only matrix_of turns an index back into a Matrix.

Every relation here is decided from two keys per matrix: its row space
and its column space, each a 2**n-bit mask of the vectors spanned (by
OR-ing subsets of rows, or of columns).  Over M_n(B), a leqL b iff
Row(a) <= Row(b) and a leqR b iff Col(a) <= Col(b); L, R and H are key
equalities, D = R o L and leqJ = leqL o leqR (a = s*b*t gives
a leqL b*t leqR b).  The keys are built on first use; tests pin the
tables against brute-force product closures and the Matrix-level
deciders.  A composed table (D, leqJ, and the converse of leqJ behind
J) is built once per distinct row, since the members of a class share
one row.  Every query (`related`) is a lookup in one of these tables.
The egg-box (eggbox) reads its L-, R- and D-classes off them as their
distinct rows, and its ranks off `ranks`: a = B*C with B of k columns
iff Col(a) lies in the span of k vectors, so the factor rank depends on
the column space alone and is searched once per distinct column key.

`d_witness` and `leq_j_witness` are the searches behind the D, J and
leqJ witnesses of green.relate_witness.  Every exhaustive preservation
or exchange check is one `first_violation` scan over the tables, made
by `linear_maps._check_exhaustive`, which re-verifies what it finds.
"""

from __future__ import annotations

import functools
import itertools

from .matrix import Matrix
from .semiring import Semifield
from . import semiring
from .green import MAX_BOUNDED_N, GreenRelation, boolean_rank_of_columns


@functools.lru_cache(maxsize=None)
def space(n: int) -> "BooleanSpace":
    return BooleanSpace(n)


def matrix_to_index(a: Matrix) -> int:
    bits = 0
    for i in range(a.rows):
        for j in range(a.cols):
            if not semiring.is_zero(a.entries[i][j]):
                bits |= 1 << (i * a.cols + j)
    return bits


class BooleanSpace:
    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"exhaustive boolean workspace size must be an int, got {n!r}")
        if not 1 <= n <= MAX_BOUNDED_N:
            raise ValueError(f"exhaustive boolean workspace supports 1 <= n <= {MAX_BOUNDED_N}")
        self.n = n
        self.size = 1 << (n * n)
        # the transpose is the cell map c = i*n + j -> j*n + i
        self.transposed = image_table([1 << (c % n * n + c // n) for c in range(n * n)])
        self.identity = sum(1 << (i * n + i) for i in range(n))

    @functools.cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The rows of each matrix as n-bit masks, row 0 first.  Row 0
        holds the lowest bits, so it is the fastest-varying coordinate,
        which product() puts last."""
        return [r[::-1] for r in itertools.product(range(1 << self.n), repeat=self.n)]

    def matrix_of(self, index: int) -> Matrix:
        n = self.n
        z = semiring.zero(Semifield.BOOLEAN)
        o = semiring.one(Semifield.BOOLEAN)
        return Matrix(
            Semifield.BOOLEAN, n, n,
            tuple(
                tuple(o if (index >> (i * n + j)) & 1 else z for j in range(n))
                for i in range(n)
            ),
        )

    # --- row- and column-space keys -------------------------------------

    @functools.cached_property
    def row_keys(self) -> list[int]:
        """Row(m) per matrix m: bit v is set iff row vector v is an OR of
        rows of m (the empty OR gives v = 0)."""
        by_rows: dict[int, int] = {}  # the span depends on the set of rows only
        keys = []
        for rows in self.rows:
            row_set = 0
            for r in rows:
                row_set |= 1 << r
            if row_set not in by_rows:
                by_rows[row_set] = sum(1 << v for v in set(image_table(rows)))
            keys.append(by_rows[row_set])
        return keys

    @functools.cached_property
    def col_keys(self) -> list[int]:
        """Col(m) per matrix m, as the row space of its transpose."""
        rk = self.row_keys
        return [rk[t] for t in self.transposed]

    @functools.cached_property
    def ranks(self) -> list[int]:
        """The factor rank of each matrix, searched once per column key
        (green.boolean_rank_of_columns on the columns of its first holder)."""
        by_key: dict[int, int] = {}
        for m, key in enumerate(self.col_keys):
            if key not in by_key:
                by_key[key] = boolean_rank_of_columns(self.rows[self.transposed[m]], self.n)
        return [by_key[key] for key in self.col_keys]

    def leq_l(self, a: int, b: int) -> bool:
        """a leqL b iff Row(a) <= Row(b).  The deciders ask `related`;
        this key comparison stays for perfbench/tracing.py, which counts
        its calls."""
        return self.row_keys[a] & ~self.row_keys[b] == 0

    def mul(self, a: int, b: int) -> int:
        n = self.n
        arows, brows = self.rows[a], self.rows[b]
        out = 0
        for i in range(n):
            arow = arows[i]
            acc = 0
            for j in range(n):
                if (arow >> j) & 1:
                    acc |= brows[j]
            out |= acc << (i * n)
        return out

    # --- full relation tables as bitmask rows ---------------------------

    @functools.cached_property
    def leq_l_table(self) -> list[int]:
        return _below(self.row_keys)

    @functools.cached_property
    def leq_r_table(self) -> list[int]:
        return _below(self.col_keys)

    @functools.cached_property
    def l_table(self) -> list[int]:
        members = _members(self.row_keys)
        return [members[k] for k in self.row_keys]

    @functools.cached_property
    def r_table(self) -> list[int]:
        members = _members(self.col_keys)
        return [members[k] for k in self.col_keys]

    @functools.cached_property
    def h_table(self) -> list[int]:
        return [l & r for l, r in zip(self.l_table, self.r_table)]

    @functools.cached_property
    def d_table(self) -> list[int]:
        return _compose(self.r_table, self.l_table)

    @functools.cached_property
    def leq_j_table(self) -> list[int]:
        return _compose(self.leq_l_table, self.leq_r_table)

    @functools.cached_property
    def j_table(self) -> list[int]:
        leq = self.leq_j_table
        return [up & down for up, down in zip(leq, _converse(leq))]

    def table(self, rel: GreenRelation) -> list[int]:
        return getattr(self, _TABLES[rel])

    def related(self, a: int, b: int, rel: GreenRelation) -> bool:
        """Decide a rel b by a lookup in its table."""
        return (self.table(rel)[a] >> b) & 1 == 1

    # --- witness searches, in the index order of the multipliers ---------

    def d_witness(self, a: int, b: int) -> int | None:
        """The first c with a R c and c L b: Col(c) = Col(a), Row(c) = Row(b)."""
        want = (self.col_keys[a], self.row_keys[b])
        for c, keys in enumerate(zip(self.col_keys, self.row_keys)):
            if keys == want:
                return c
        return None

    def leq_j_witness(self, a: int, b: int) -> tuple[int, int] | None:
        """The first (s, t), s before t, with a = s*b*t.

        For a fixed s some t exists iff a leqR s*b, i.e. Col(a) <= Col(s*b),
        so s is the first such; t is then the least t with s*b*t = a.
        """
        col_a, col_keys = self.col_keys[a], self.col_keys
        for s in range(self.size):
            sb = self.mul(s, b)
            if col_a & ~col_keys[sb] == 0:
                return s, self._least_right_factor(sb, a)
        return None

    def _least_right_factor(self, x: int, a: int) -> int:
        """The least t with x*t = a, column by column.

        Column j of x*t is x times column j of t, so the columns are
        independent; and two t compare by their highest differing cell,
        row-major, so the least t takes in every column the least vector
        (row i as bit i) that x maps to the column of a.
        """
        n = self.n
        images = image_table(self.rows[self.transposed[x]])  # images[v] = x*v
        t = 0
        for j, target in enumerate(self.rows[self.transposed[a]]):
            if target not in images:
                raise AssertionError("column keys disagree with the product")
            v = images.index(target)
            for i in range(n):
                if (v >> i) & 1:
                    t |= 1 << (i * n + j)
        return t


#: The table property of BooleanSpace behind each relation.
_TABLES = {
    GreenRelation.LEQ_L: "leq_l_table",
    GreenRelation.LEQ_R: "leq_r_table",
    GreenRelation.LEQ_J: "leq_j_table",
    GreenRelation.L: "l_table",
    GreenRelation.R: "r_table",
    GreenRelation.H: "h_table",
    GreenRelation.D: "d_table",
    GreenRelation.J: "j_table",
}


def _members(keys: list[int]) -> dict[int, int]:
    """The matrices with each key, as a bitmask over matrix indices."""
    members: dict[int, int] = {}
    for m, k in enumerate(keys):
        members[k] = members.get(k, 0) | (1 << m)
    return members


def _below(keys: list[int]) -> list[int]:
    """The pre-order keys[a] <= keys[b] as bitmask rows, one row per key."""
    members = _members(keys)
    row_of = {
        k: sum(m for k2, m in members.items() if k & ~k2 == 0) for k in members
    }
    return [row_of[k] for k in keys]


def _converse(table: list[int]) -> list[int]:
    """Transpose a bitmask relation table, one pass per distinct row: the
    matrices that share a row join the column of each of its set bits."""
    out = [0] * len(table)
    for row, holders in _members(table).items():
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= holders
            row ^= low
    return out


def _compose(first: list[int], second: list[int]) -> list[int]:
    """The relation a first c, c second b, as bitmask rows; each distinct
    row of first is composed once, since equal rows give equal results."""
    composed = {}
    for row in set(first):
        acc, bits = 0, row
        while bits:
            low = bits & -bits
            acc |= second[low.bit_length() - 1]
            bits ^= low
        composed[row] = acc
    return [composed[row] for row in first]


def image_table(units) -> list[int]:
    """The image of every index in range(2**len(units)) under the OR-linear
    map sending bit c to units[c]: that of m is that of m without its lowest
    set bit OR'd with that bit's unit image.  Built by doubling."""
    table = [0]
    for unit in units:
        table += [v | unit for v in table]
    return table


def act_on_bits(cell_map: tuple[int, ...], m: int) -> int:
    """Apply a cell permutation (a boolean unit-permutation map) to the
    bits of one matrix; `image_table` gives the images of all of them."""
    out = 0
    c = 0
    while m:
        if m & 1:
            out |= 1 << cell_map[c]
        m >>= 1
        c += 1
    return out


def all_cell_maps(n: int):
    """All (n*n)! cell permutations, i.e. all bijective linear maps over B."""
    return itertools.permutations(range(n * n))


def first_violation(table_pairs, tmap: list[int], strong: bool):
    """The first pair that breaks ``a P b => T(a) C T(b)`` for a (P, C) in
    table_pairs, or in strong mode also its converse.

    tmap[m] is the image of matrix m.  Pairs are visited a, then b, then
    each (P, C) in turn; ``checked`` counts the premises that held, or in
    strong mode every visit.  Returns (checked, None) when nothing breaks,
    else (checked, (a, b, k, holds)): k indexes table_pairs and holds says
    whether a P b held.

    Each a is decided a whole row at a time: the row of T(a) in C is
    pulled back through tmap to the b with T(a) C T(b), and compared with
    the row of a in P.  Only a broken row is searched for its first b.
    """
    inverse = [0] * len(tmap)
    for m, t in enumerate(tmap):
        inverse[t] = m
    checked = 0
    for a, ta in enumerate(tmap):
        premises = [prem[a] for prem, _ in table_pairs]
        broken = []
        for prow, (_, conc) in zip(premises, table_pairs):
            crow = conc[ta]
            pulled = 0
            while crow:
                low = crow & -crow
                pulled |= 1 << inverse[low.bit_length() - 1]
                crow ^= low
            broken.append(prow ^ pulled if strong else prow & ~pulled)
        hits = [((x & -x).bit_length() - 1, k) for k, x in enumerate(broken) if x]
        if not hits:
            checked += len(tmap) * len(premises) if strong else sum(p.bit_count() for p in premises)
            continue
        b, k = min(hits)
        if strong:
            checked += b * len(premises) + k + 1
        else:
            below = (1 << b) - 1
            checked += sum((p & below).bit_count() for p in premises)
            checked += sum((p >> b) & 1 for p in premises[: k + 1])
        return checked, (a, b, k, (premises[k] >> b) & 1 == 1)
    return checked, None
