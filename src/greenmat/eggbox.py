"""Egg-box decomposition of the boolean matrix monoid, with JSON/DOT output.

Matrices are grouped into L-, R-, H- and D-classes; each D-class is a
grid of H-classes indexed by (R-class, L-class).  L- and R-classes are
the matrices with equal row-space and column-space keys (_boolspace).
D is computed as the join of the L- and R-partitions, which agrees with
the one-intermediate definition; the equivalence of the two routes is
pinned by tests.  All orderings come from the fixed total order on
bit-encoded matrices, so renderings are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._boolspace import space
from .green import factor_rank
from .matrix import Matrix, matrix_to_json
from .semiring import UnsupportedParams


@dataclass(frozen=True)
class HClass:
    r_index: int
    l_index: int
    size: int
    representative: Matrix


@dataclass(frozen=True)
class DClass:
    index: int
    rank: int
    size: int
    r_class_count: int
    l_class_count: int
    h_classes: tuple[HClass, ...]


@dataclass(frozen=True)
class EggBox:
    n: int
    d_classes: tuple[DClass, ...]


def _number_classes(keys: list[int]) -> list[int]:
    """Class index per element, where equal keys share a class; classes are
    numbered by first (least) member."""
    number: dict[int, int] = {}
    return [number.setdefault(k, len(number)) for k in keys]


def eggbox(n: int) -> EggBox:
    """The egg-box decomposition of all n-by-n boolean matrices, n <= 3."""
    if not 1 <= n <= 3:
        raise UnsupportedParams("egg-box decomposition is available for 1 <= n <= 3")
    sp = space(n)
    l_of = _number_classes(sp.row_keys)  # a L b iff Row(a) = Row(b)
    r_of = _number_classes(sp.col_keys)  # a R b iff Col(a) = Col(b)
    # D = join of L and R: union-find over elements seeded by both partitions
    parent = list(range(sp.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    first_l: dict[int, int] = {}
    first_r: dict[int, int] = {}
    for m in range(sp.size):
        if l_of[m] in first_l:
            union(m, first_l[l_of[m]])
        else:
            first_l[l_of[m]] = m
        if r_of[m] in first_r:
            union(m, first_r[r_of[m]])
        else:
            first_r[r_of[m]] = m
    members: dict[int, list[int]] = {}
    for m in range(sp.size):
        members.setdefault(find(m), []).append(m)
    d_classes = []
    for index, root in enumerate(sorted(members)):
        elems = members[root]
        r_ids = sorted({r_of[m] for m in elems})
        l_ids = sorted({l_of[m] for m in elems})
        r_local = {g: i for i, g in enumerate(r_ids)}
        l_local = {g: i for i, g in enumerate(l_ids)}
        cells: dict[tuple[int, int], list[int]] = {}
        for m in elems:
            cells.setdefault((r_local[r_of[m]], l_local[l_of[m]]), []).append(m)
        ranks = {
            factor_rank(sp.matrix_of(min(cell))).value for cell in cells.values()
        }
        if len(ranks) != 1:
            raise AssertionError("factor rank is not constant on a D-class")
        h_classes = tuple(
            HClass(r, l, len(cells[(r, l)]), sp.matrix_of(min(cells[(r, l)])))
            for r, l in sorted(cells)
        )
        d_classes.append(
            DClass(index, ranks.pop(), len(elems), len(r_ids), len(l_ids), h_classes)
        )
    return EggBox(n, tuple(d_classes))


def eggbox_to_json(e: EggBox) -> dict:
    return {
        "n": e.n,
        "d_classes": [
            {
                "index": d.index,
                "rank": d.rank,
                "size": d.size,
                "r_classes": d.r_class_count,
                "l_classes": d.l_class_count,
                "h_classes": [
                    {
                        "r": h.r_index,
                        "l": h.l_index,
                        "size": h.size,
                        "representative": matrix_to_json(h.representative),
                    }
                    for h in d.h_classes
                ],
            }
            for d in e.d_classes
        ],
    }


def eggbox_to_dot(e: EggBox) -> str:
    """One subgraph cluster per D-class, one node per H-class."""
    lines = [
        "digraph eggbox {",
        f'  label="egg-box of {e.n}x{e.n} boolean matrices";',
        "  node [shape=box];",
    ]
    for d in e.d_classes:
        lines.append(f"  subgraph cluster_d{d.index} {{")
        lines.append(f'    label="D{d.index} rank={d.rank} size={d.size}";')
        for h in d.h_classes:
            node = f"D{d.index}_R{h.r_index}_L{h.l_index}"
            label = f"R_{h.r_index},L_{h.l_index},rank={d.rank},size={h.size}"
            lines.append(f'    "{node}" [label="{label}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
