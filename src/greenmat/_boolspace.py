"""Bit-encoded enumeration of M_n(B) for exhaustive verification, n <= 3.

Matrix number k has a one in cell (i, j) iff bit i*n + j of k is set --
the same total order as matrix.all_boolean_matrices.  The relation
deciders here are the residuation algorithm from the green module
reimplemented on row bitmasks; tests pin their equivalence against the
Matrix-level deciders, exhaustively at n = 2 and on samples at n = 3.

Relation tables are built from the two pre-orders: L, R and H as
intersections with converses, D = R o L and leqJ = leqL o leqR (a = s*b*t
gives a leqL b*t leqR b).  Every exhaustive preservation or exchange
check, of one map or of all of them, is one `first_violation` scan over
these tables.
"""

from __future__ import annotations

import functools

from .matrix import Matrix, all_boolean_matrices
from .semiring import Semifield
from . import semiring
from .green import GreenRelation


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
        if not 1 <= n <= 3:
            raise ValueError("exhaustive boolean workspace supports 1 <= n <= 3")
        self.n = n
        self.size = 1 << (n * n)
        mask = (1 << n) - 1
        self.rows = [
            tuple((m >> (i * n)) & mask for i in range(n)) for m in range(self.size)
        ]
        self.transposed = [self._transpose_bits(m) for m in range(self.size)]
        self.identity = matrix_to_index(
            _identity_matrix(n)
        )

    def _transpose_bits(self, m: int) -> int:
        out = 0
        n = self.n
        for i in range(n):
            for j in range(n):
                if (m >> (i * n + j)) & 1:
                    out |= 1 << (j * n + i)
        return out

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

    # --- scalar-free residuation on row masks ---------------------------

    def leq_l(self, a: int, b: int) -> bool:
        """Row space containment Row(a) <= Row(b) via the principal solution."""
        arows, brows = self.rows[a], self.rows[b]
        for arow in arows:
            prod = 0
            for brow in brows:
                if brow & ~arow == 0:
                    prod |= brow
            if prod != arow:
                return False
        return True

    def leq_r(self, a: int, b: int) -> bool:
        return self.leq_l(self.transposed[a], self.transposed[b])

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
        table = [0] * self.size
        for a in range(self.size):
            row = 0
            for b in range(self.size):
                if self.leq_l(a, b):
                    row |= 1 << b
            table[a] = row
        return table

    @functools.cached_property
    def leq_r_table(self) -> list[int]:
        table = [0] * self.size
        for a in range(self.size):
            row = 0
            for b in range(self.size):
                if self.leq_r(a, b):
                    row |= 1 << b
            table[a] = row
        return table

    @functools.cached_property
    def l_table(self) -> list[int]:
        leq = self.leq_l_table
        conv = _converse(leq, self.size)
        return [leq[a] & conv[a] for a in range(self.size)]

    @functools.cached_property
    def r_table(self) -> list[int]:
        leq = self.leq_r_table
        conv = _converse(leq, self.size)
        return [leq[a] & conv[a] for a in range(self.size)]

    @functools.cached_property
    def h_table(self) -> list[int]:
        return [l & r for l, r in zip(self.l_table, self.r_table)]

    @functools.cached_property
    def d_table(self) -> list[int]:
        if self.n > 2:
            raise ValueError("full D table is only built for n <= 2")
        return _compose(self.r_table, self.l_table)

    @functools.cached_property
    def leq_j_table(self) -> list[int]:
        if self.n > 2:
            raise ValueError("full leqJ table is only built for n <= 2")
        return _compose(self.leq_l_table, self.leq_r_table)

    @functools.cached_property
    def j_table(self) -> list[int]:
        leq = self.leq_j_table
        conv = _converse(leq, self.size)
        return [leq[a] & conv[a] for a in range(self.size)]

    def table(self, rel: GreenRelation) -> list[int]:
        return {
            GreenRelation.LEQ_L: lambda: self.leq_l_table,
            GreenRelation.LEQ_R: lambda: self.leq_r_table,
            GreenRelation.LEQ_J: lambda: self.leq_j_table,
            GreenRelation.L: lambda: self.l_table,
            GreenRelation.R: lambda: self.r_table,
            GreenRelation.H: lambda: self.h_table,
            GreenRelation.D: lambda: self.d_table,
            GreenRelation.J: lambda: self.j_table,
        }[rel]()

    def related(self, a: int, b: int, rel: GreenRelation) -> bool:
        """Decide a rel b: L, R and H from the pre-orders, without building
        a table; every other relation by a lookup in its table."""
        if rel is GreenRelation.L:
            return self.leq_l(a, b) and self.leq_l(b, a)
        if rel is GreenRelation.R:
            return self.leq_r(a, b) and self.leq_r(b, a)
        if rel is GreenRelation.H:
            return self.related(a, b, GreenRelation.L) and self.related(a, b, GreenRelation.R)
        return (self.table(rel)[a] >> b) & 1 == 1


def _converse(table: list[int], size: int) -> list[int]:
    """Transpose a bitmask relation table in one pass."""
    out = [0] * size
    for b in range(size):
        row = table[b]
        a = 0
        while row:
            if row & 1:
                out[a] |= 1 << b
            row >>= 1
            a += 1
    return out


def _compose(first: list[int], second: list[int]) -> list[int]:
    """The relation a first c, c second b, as bitmask rows."""
    out = []
    for row in first:
        acc = 0
        c = 0
        while row:
            if row & 1:
                acc |= second[c]
            row >>= 1
            c += 1
        out.append(acc)
    return out


def _identity_matrix(n: int) -> Matrix:
    from .matrix import identity

    return identity(Semifield.BOOLEAN, n)


def act_on_bits(cell_map: tuple[int, ...], m: int) -> int:
    """Apply a cell permutation (a boolean unit-permutation map) to matrix bits."""
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
    import itertools

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
