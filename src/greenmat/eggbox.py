"""Egg-box decomposition of the boolean matrix monoid, with JSON/DOT output.

Matrices are grouped into L-, R-, H- and D-classes; each D-class is a
grid of H-classes indexed by (R-class, L-class).  The L-, R- and
D-classes are read off the relation tables of _boolspace: the matrices
with equal rows in a table form one class, and each D-class must be
exactly its own row.  Every member is ranked by the `ranks` table of
_boolspace, and the ranks must agree across a D-class.  All orderings
come from the fixed total order on bit-encoded matrices, so renderings
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._boolspace import space
from .green import MAX_BOUNDED_N, GreenRelation
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


def _number_classes(rows: list[int]) -> list[int]:
    """Class index per element, where equal table rows share a class;
    classes are numbered by first (least) member."""
    number: dict[int, int] = {}
    return [number.setdefault(row, len(number)) for row in rows]


def eggbox(n: int) -> EggBox:
    """The egg-box decomposition of all n-by-n boolean matrices, n <= 3."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise UnsupportedParams(f"egg-box size must be an int, got {n!r}")
    if not 1 <= n <= MAX_BOUNDED_N:
        raise UnsupportedParams(f"egg-box decomposition is available for 1 <= n <= {MAX_BOUNDED_N}")
    sp = space(n)
    l_of = _number_classes(sp.table(GreenRelation.L))
    r_of = _number_classes(sp.table(GreenRelation.R))
    members: dict[int, list[int]] = {}  # by D row, in order of least member
    for m, row in enumerate(sp.table(GreenRelation.D)):
        members.setdefault(row, []).append(m)
    d_classes = []
    for index, (row, elems) in enumerate(members.items()):
        r_ids = sorted({r_of[m] for m in elems})
        l_ids = sorted({l_of[m] for m in elems})
        r_local = {g: i for i, g in enumerate(r_ids)}
        l_local = {g: i for i, g in enumerate(l_ids)}
        cells: dict[tuple[int, int], list[int]] = {}
        for m in elems:
            cells.setdefault((r_local[r_of[m]], l_local[l_of[m]]), []).append(m)
        ranks = {sp.ranks[m] for m in elems}
        if len(ranks) != 1:
            raise AssertionError("factor rank is not constant on a D-class")
        if row != sum(1 << m for m in elems):
            raise AssertionError("a D-class's table row is not exactly its members")
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
