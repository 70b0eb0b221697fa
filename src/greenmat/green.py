"""Deciders for Green's pre-orders and equivalences, and factor rank.

Containment of row spaces (and dually column spaces) is decided through
residuation: the greatest S with S*b <= a entrywise exists because the
supported semifields are idempotent and totally ordered, and a = s*b is
solvable iff that principal solution attains equality.

The equivalences L, R, H and J are composed from the pre-orders in one
place, EQUIVALENCE_PARTS, which the integer kernel of _tropfast also
reads: each listed pre-order must hold from a to b and from b to a.
Likewise PREORDERS states once that leqR is leqL on the transposes and
which witness key each of the two carries.

D, J and the J-pre-order have no residuation characterisation here.
They are decided over the boolean semifield only, for sizes up to 3,
from the row- and column-space keys of _boolspace (D = R o L,
leqJ = leqL o leqR), and every witness found there is re-verified on
Matrix objects before it is returned.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import semiring
# all_boolean_matrices is not called here any more; it stays a module
# attribute because perfbench/tracing.py wraps green.all_boolean_matrices.
from .matrix import (
    DimensionMismatch,
    Matrix,
    all_boolean_matrices,
    is_zero_matrix,
    mat_mul,
    transpose,
)
from .semiring import MixedSemifields, Semifield, SemifieldValue, natural_leq


class GreenRelation(enum.Enum):
    LEQ_L = "leqL"
    LEQ_R = "leqR"
    LEQ_J = "leqJ"
    L = "L"
    R = "R"
    H = "H"
    D = "D"
    J = "J"

    # identity hash, as for `semiring.Semifield`
    __hash__ = object.__hash__


#: The pre-orders each equivalence needs in both directions, in the order
#: they are decided: L, R and J are leqL, leqR and leqJ both ways, and H is
#: the intersection of L and R (Green 1951; Howie 1995).
EQUIVALENCE_PARTS = {
    GreenRelation.L: (GreenRelation.LEQ_L,),
    GreenRelation.R: (GreenRelation.LEQ_R,),
    GreenRelation.H: (GreenRelation.LEQ_L, GreenRelation.LEQ_R),
    GreenRelation.J: (GreenRelation.LEQ_J,),
}

#: The residuation pre-orders as (witness key, transposed): leqL is decided
#: on (a, b), its witness "s" with a = s*b; leqR is leqL on the transposes,
#: its witness "t" with a = b*t the multiplier transposed back.
PREORDERS = {GreenRelation.LEQ_L: ("s", False), GreenRelation.LEQ_R: ("t", True)}

#: Relations decided over the boolean semifield only, by _boolspace keys.
BOUNDED_SEARCH = frozenset({GreenRelation.D, GreenRelation.J, GreenRelation.LEQ_J})

#: Largest size admitted to the D / J / leqJ deciders.
MAX_BOUNDED_N = 3

#: Largest shorter side admitted to the exhaustive boolean rank search.
MAX_RANK_SEARCH_SIDE = 5


class UndecidableOverSemifield(ValueError):
    """D/J/leqJ were requested outside the boolean semifield."""


class SearchSpaceExceeded(ValueError):
    """A bounded exhaustive search was requested beyond its size limit."""


class RankUndetermined(ValueError):
    """Factor rank falls outside the decidable fragment."""


def decidable_over(rel: GreenRelation, semifield: Semifield) -> bool:
    return semifield is Semifield.BOOLEAN or rel not in BOUNDED_SEARCH


def _scalar_residual(x: SemifieldValue, y: SemifieldValue) -> SemifieldValue | None:
    """Greatest t with t*y <= x; None stands for the adjoined top element."""
    if semiring.is_zero(y):
        return None
    if x.semifield is Semifield.BOOLEAN:
        return x
    if semiring.is_zero(x):
        return x
    return SemifieldValue(x.semifield, x.payload - y.payload)


def left_residual(a: Matrix, b: Matrix) -> Matrix:
    """The greatest S with S*b <= a entrywise (principal solution of S*b = a).

    Computed in a completion with a top element; a top coefficient can
    only multiply an all-zero row of b, so it is projected to the
    multiplicative identity before returning.
    """
    if a.semifield is not b.semifield:
        raise MixedSemifields(f"{a.semifield.value} vs {b.semifield.value}")
    if a.cols != b.cols:
        raise DimensionMismatch("residual needs matching column counts")
    one_v = semiring.one(a.semifield)
    rows = []
    for i in range(a.rows):
        arow = a.entries[i]
        row = []
        for j in range(b.rows):
            brow = b.entries[j]
            acc: SemifieldValue | None = None
            for x, y in zip(arow, brow):
                r = _scalar_residual(x, y)
                if r is None:
                    continue
                if acc is None or natural_leq(r, acc):
                    acc = r
            row.append(one_v if acc is None else acc)
        rows.append(tuple(row))
    return Matrix(a.semifield, a.rows, b.rows, tuple(rows))


def _leq_l(a: Matrix, b: Matrix) -> tuple[bool, Matrix]:
    s = left_residual(a, b)
    return mat_mul(s, b) == a, s


def _check_relate_pre(a: Matrix, b: Matrix, rel: GreenRelation) -> None:
    if a.semifield is not b.semifield:
        raise MixedSemifields(f"{a.semifield.value} vs {b.semifield.value}")
    if not (a.rows == a.cols == b.rows == b.cols):
        raise DimensionMismatch("Green's relations compare square matrices of equal size")
    if rel in BOUNDED_SEARCH:
        if a.semifield is not Semifield.BOOLEAN:
            raise UndecidableOverSemifield(
                f"{rel.value} is only decidable here over the boolean semifield"
            )
        if a.rows > MAX_BOUNDED_N:
            raise SearchSpaceExceeded(
                f"bounded {rel.value} search is limited to n <= {MAX_BOUNDED_N}"
            )


def relate(a: Matrix, b: Matrix, rel: GreenRelation) -> bool:
    return relate_witness(a, b, rel) is not None


def relate_witness(a: Matrix, b: Matrix, rel: GreenRelation) -> dict | None:
    """Decide a rel b; on success return the multiplier matrices realizing it.

    Witness keys: "s" with a = s*b (leqL), "t" with a = b*t (leqR),
    "s"/"t" with a = s*b*t (leqJ), "c" for the intermediate element of D,
    and for an equivalence the keys of each pre-order in EQUIVALENCE_PARTS
    with "_forward" (a to b) and then "_backward" (b to a) appended.
    """
    _check_relate_pre(a, b, rel)
    parts = EQUIVALENCE_PARTS.get(rel)
    if parts is None:
        return _direct_witness(a, b, rel)
    witness = {}
    for pre in parts:
        for x, y, suffix in ((a, b, "_forward"), (b, a, "_backward")):
            w = _direct_witness(x, y, pre)
            if w is None:
                return None
            for key, m in w.items():
                witness[key + suffix] = m
    return witness


def _direct_witness(a: Matrix, b: Matrix, rel: GreenRelation) -> dict | None:
    """The witness of a pre-order or of D, which are not composed."""
    if rel in PREORDERS:
        key, transposed = PREORDERS[rel]
        ok, s = _leq_l(transpose(a), transpose(b)) if transposed else _leq_l(a, b)
        if not ok:
            return None
        return {key: transpose(s) if transposed else s}
    if rel is GreenRelation.D:
        return _boolean_d_witness(a, b)
    if rel is GreenRelation.LEQ_J:
        return _boolean_leq_j_witness(a, b)
    raise ValueError(f"unknown relation {rel!r}")


def _boolean_d_witness(a: Matrix, b: Matrix) -> dict | None:
    """The first c in index order with a R c and c L b, found by keys and
    re-verified by the residuation deciders."""
    from ._boolspace import matrix_to_index, space  # _boolspace imports this module

    sp = space(a.rows)
    c = sp.d_witness(matrix_to_index(a), matrix_to_index(b))
    if c is None:
        return None
    cm = sp.matrix_of(c)
    if not (relate(a, cm, GreenRelation.R) and relate(cm, b, GreenRelation.L)):
        raise AssertionError("D witness from the space keys fails the reference deciders")
    return {"c": cm}


def _boolean_leq_j_witness(a: Matrix, b: Matrix) -> dict | None:
    """The first (s, t) in index order with a = s*b*t, found by keys and
    re-verified by multiplying it out."""
    from ._boolspace import matrix_to_index, space  # _boolspace imports this module

    sp = space(a.rows)
    found = sp.leq_j_witness(matrix_to_index(a), matrix_to_index(b))
    if found is None:
        return None
    s, t = sp.matrix_of(found[0]), sp.matrix_of(found[1])
    if mat_mul(mat_mul(s, b), t) != a:
        raise AssertionError("leqJ witness from the space keys fails s*b*t = a")
    return {"s": s, "t": t}


# --- factor rank ----------------------------------------------------------


class RankMethod(enum.Enum):
    ZERO_MATRIX = "ZeroMatrix"
    RANK_ONE_WITNESS = "RankOneWitness"
    TWO_BY_TWO_CRITERION = "TwoByTwoCriterion"
    EXHAUSTIVE_BOOLEAN = "ExhaustiveBoolean"


@dataclass(frozen=True)
class RankResult:
    value: int
    method: RankMethod


def has_factor_rank_at_most_one(a: Matrix) -> bool:
    """Rank <= 1 test valid over any of the supported semifields.

    A nonzero matrix is an outer product u*v exactly when its nonzero
    support is a full rectangle RxC and the two-by-two cross products
    agree on the support: a[i][j]*a[i0][j0] = a[i][j0]*a[i0][j].
    """
    sup_rows = [i for i in range(a.rows) if any(not semiring.is_zero(x) for x in a.entries[i])]
    sup_cols = [j for j in range(a.cols) if any(not semiring.is_zero(a.entries[i][j]) for i in range(a.rows))]
    if not sup_rows:
        return True
    for i in sup_rows:
        for j in sup_cols:
            if semiring.is_zero(a.entries[i][j]):
                return False
    i0, j0 = sup_rows[0], sup_cols[0]
    anchor = a.entries[i0][j0]
    for i in sup_rows:
        for j in sup_cols:
            lhs = semiring.mul(a.entries[i][j], anchor)
            rhs = semiring.mul(a.entries[i][j0], a.entries[i0][j])
            if lhs != rhs:
                return False
    return True


def _boolean_rank_exhaustive(a: Matrix) -> int:
    """Boolean factor rank by boolean_rank_of_columns on the shorter side.

    rank(a^T) = rank(a), and the columns of B range over masks of the
    column height, so the search runs on the shorter side and stops
    beyond MAX_RANK_SEARCH_SIDE.
    """
    if min(a.rows, a.cols) > MAX_RANK_SEARCH_SIDE:
        raise SearchSpaceExceeded(
            f"boolean factor rank search is limited to matrices with a side "
            f"of at most {MAX_RANK_SEARCH_SIDE}, got {a.rows}x{a.cols}"
        )
    if a.rows > a.cols:
        a = transpose(a)
    col_masks = []
    for j in range(a.cols):
        m = 0
        for i in range(a.rows):
            if not semiring.is_zero(a.entries[i][j]):
                m |= 1 << i
        col_masks.append(m)
    return boolean_rank_of_columns(col_masks, a.rows)


def boolean_rank_of_columns(col_masks, height: int) -> int:
    """Factor rank of the boolean matrix whose column j has a one in row i
    iff bit i of col_masks[j] is set: the smallest k with a = B*C, B of
    k columns.  The zero matrix has rank 0 and k = 1 is the rank-one case.

    Any factorization can be rewritten to use distinct nonzero columns
    without increasing k, and in one of least k every column of B lies
    inside a column of a it is used for; so the search takes k-sets of
    such masks.  For a fixed B the greatest C with B*C <= a already
    attains equality whenever any C does, so checking that single C per
    choice is exact: column j is covered iff the chosen masks inside it
    OR to it.
    """
    if not any(col_masks):
        return 0
    candidates = [
        c for c in range(1, 1 << height) if any(c & ~t == 0 for t in col_masks)
    ]
    for k in range(1, min(height, len(col_masks)) + 1):
        for chosen in itertools.combinations(candidates, k):
            if all(
                _best_cover(chosen, target) == target for target in col_masks
            ):
                return k
    raise AssertionError("boolean factor rank search failed to terminate")


def _best_cover(chosen: tuple[int, ...], target: int) -> int:
    cover = 0
    for cand in chosen:
        if cand & ~target == 0:
            cover |= cand
    return cover


def factor_rank(a: Matrix) -> RankResult:
    """Factor rank where decidable; raises RankUndetermined otherwise.

    Zero matrices have rank 0; rank <= 1 is decided for every supported
    semifield; full-support 2x2 matrices fall to the ad != bc
    criterion; boolean matrices with a side of at most
    MAX_RANK_SEARCH_SIDE are settled by exhaustive search over
    factorizations, and larger ones raise SearchSpaceExceeded.
    """
    if is_zero_matrix(a):
        return RankResult(0, RankMethod.ZERO_MATRIX)
    if has_factor_rank_at_most_one(a):
        return RankResult(1, RankMethod.RANK_ONE_WITNESS)
    if a.rows == 2 and a.cols == 2 and not any(
        semiring.is_zero(x) for row in a.entries for x in row
    ):
        # full support and not rank one means the cross products differ
        return RankResult(2, RankMethod.TWO_BY_TWO_CRITERION)
    if a.semifield is Semifield.BOOLEAN:
        return RankResult(_boolean_rank_exhaustive(a), RankMethod.EXHAUSTIVE_BOOLEAN)
    raise RankUndetermined(
        f"factor rank >= 2 of a {a.rows}x{a.cols} {a.semifield.value} matrix "
        "is outside the decidable fragment"
    )
