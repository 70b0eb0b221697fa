"""Integer max-plus kernel for bulk tropical relation checking.

Multiplying every payload by one rational ``L > 0`` is an automorphism
of the tropical semifield Q_max: it fixes -inf and commutes with max and
with +, since ``L*max(x, y) = max(L*x, L*y)`` and
``L*(x + y) = L*x + L*y``.  The relations decided here (leqL, leqR, L,
R, H) are defined by products and equality alone, so they hold for
``(a, b)`` exactly when they hold for ``(L*a, L*b)``.  With ``L`` the
lcm of the denominators in a pair, both matrices become integer grids,
and the residuals ``x - y`` of integers are integers: the principal
solution and the check that it attains equality never leave Z (see
Butkovic, *Max-linear Systems*, on residuation).  The integer carrier is
the case ``L = 1``.  Values stay Python ints, which grow as needed:
scaled magnitudes reach about 127 bits at the sampler's sizes, beyond
any fixed-width type, and floats are never used.

Grids are tuples of rows, with ``None`` for -inf.  Two kinds of caller
use the kernel:

* the randomized ``corollaries`` loop of the verify module scales each
  pair and each map once (`scale_grids`), meets them at a common scale
  while applying the map (`apply_scaled`), and decides on the integer
  images (`decide`);
* callers holding two `Matrix` objects go through `decide_matrices`,
  which sends the tropical carriers and the relations above to the
  kernel and everything else (the boolean carrier, D, J, leqJ) to
  ``green.relate``.  These are the randomized preservation and exchange
  checks and the sticky search of the linear_maps module, and the
  rejection tests of the sampling module.

The kernel is trusted only on verdicts that agree with the paper's
classification.  A verdict against it (a counterexample, a sticky
survivor, a failed corollary) is re-decided by the reference decider
through `reverify` before it is reported.

`grid_of`, `map_rep`, `apply_map` and `related` keep the exact
``(num, den)`` pair contract for callers that hold one matrix or one
image at a time, such as independent oracles comparing an image with a
reported matrix by value.  They scale and then delegate to the integer
core, so there is one kernel.  Tests pin it against the residuation
decider of the green module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .matrix import Matrix
from .green import GreenRelation, relate
from .semiring import Semifield

_TOP = object()

#: The relations the integer kernel decides.
KERNEL_RELATIONS = frozenset(
    {GreenRelation.LEQ_L, GreenRelation.LEQ_R, GreenRelation.L, GreenRelation.R, GreenRelation.H}
)


def grid_of(a: Matrix) -> tuple:
    """Extract an exact (num, den) payload grid from a tropical matrix."""
    if a.semifield is Semifield.BOOLEAN:
        raise ValueError("the fast path is for the tropical carriers")
    out = []
    for row in a.entries:
        grow = []
        for e in row:
            p = e.payload
            if not isinstance(p, (int, Fraction)):
                grow.append(None)
            elif isinstance(p, Fraction):
                grow.append((p.numerator, p.denominator))
            else:
                grow.append((p, 1))
        out.append(tuple(grow))
    return tuple(out)


def transpose_grid(g: tuple) -> tuple:
    return tuple(zip(*g))


def scale_grids(*grids: tuple) -> tuple[int, tuple]:
    """Scale (num, den) grids by the lcm L of their denominators.

    Returns ``(L, int_grids)``, one integer grid per input, in order;
    ``None`` (-inf) stays ``None``.
    """
    scale = lcm(*{x[1] for g in grids for row in g for x in row if x is not None})
    return scale, tuple(
        tuple(
            tuple(None if x is None else x[0] * (scale // x[1]) for x in row)
            for row in g
        )
        for g in grids
    )


def leq_l(agrid: tuple, bgrid: tuple) -> bool:
    """a leqL b on integer grids, row by row of a.

    The principal solution of ``s*b = a`` is ``s_k = min_j (a_ij - b_kj)``
    over the finite ``b_kj``, and always ``s*b <= a``.  Equality needs
    ``max_k (s_k + b_kj) = a_ij`` for every finite ``a_ij``: some finite
    ``s_k`` must attain its minimum at j.  A -inf ``a_ij`` forces
    ``s_k = -inf`` for every finite ``b_kj``, so it always holds.  The
    columns where each ``s_k`` attains its minimum are kept as a bit mask.
    """
    bits = [1 << j for j in range(len(agrid[0]))] if agrid else []
    for arow in agrid:
        need = 0
        for bit, x in zip(bits, arow):
            if x is not None:
                need |= bit
        covered = 0
        for brow in bgrid:
            s = _TOP  # stays _TOP for an all -inf row of b, which attains nothing
            hit = 0
            for bit, x, y in zip(bits, arow, brow):
                if y is None:
                    continue
                if x is None:
                    s = None
                    break
                d = x - y
                if s is _TOP or d < s:
                    s = d
                    hit = bit
                elif d == s:
                    hit |= bit
            if s is not None:
                covered |= hit
        if covered != need:
            return False
    return True


def decide(agrid: tuple, bgrid: tuple, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` for integer grids at one common scale."""
    if rel is GreenRelation.LEQ_L:
        return leq_l(agrid, bgrid)
    if rel is GreenRelation.LEQ_R:
        return leq_l(transpose_grid(agrid), transpose_grid(bgrid))
    if rel is GreenRelation.L:
        return leq_l(agrid, bgrid) and leq_l(bgrid, agrid)
    if rel is GreenRelation.R:
        at, bt = transpose_grid(agrid), transpose_grid(bgrid)
        return leq_l(at, bt) and leq_l(bt, at)
    if rel is GreenRelation.H:
        if not (leq_l(agrid, bgrid) and leq_l(bgrid, agrid)):
            return False
        at, bt = transpose_grid(agrid), transpose_grid(bgrid)
        return leq_l(at, bt) and leq_l(bt, at)
    raise ValueError(f"no fast decider for {rel.value}")


def related(agrid: tuple, bgrid: tuple, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` for (num, den) grids."""
    _, (a, b) = scale_grids(agrid, bgrid)
    return decide(a, b, rel)


def decide_matrices(a: Matrix, b: Matrix, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` on the kernel where it applies, else by ``green.relate``.

    Mixed carriers and mismatched or non-square sizes also go to
    ``green.relate``, which rejects them.
    """
    if (
        rel in KERNEL_RELATIONS
        and a.semifield.is_tropical
        and a.semifield is b.semifield
        and a.rows == a.cols == b.rows == b.cols
    ):
        return related(grid_of(a), grid_of(b), rel)
    return relate(a, b, rel)


def reverify(a: Matrix, b: Matrix, rel: GreenRelation, expected: bool) -> None:
    """Raise AssertionError unless ``green.relate`` finds ``a rel b`` to be ``expected``."""
    if relate(a, b, rel) is not expected:
        raise AssertionError("fast path disagrees with the reference decider")


def map_rep(u) -> tuple[tuple[int, ...], tuple]:
    """Flatten a unit-permutation map to (cell targets, (num, den) coefficient grid)."""
    n = u.n
    cells = []
    coeffs = []
    for i in range(n):
        crow = []
        for j in range(n):
            k, l = u.sigma[i][j]
            cells.append(k * n + l)
            p = u.alpha[i][j].payload
            crow.append((p.numerator, p.denominator) if isinstance(p, Fraction) else (p, 1))
        coeffs.append(tuple(crow))
    return tuple(cells), tuple(coeffs)


def apply_scaled(
    cells: tuple[int, ...], coeffs: tuple, xgrid: tuple, n: int, fc: int, fx: int
) -> tuple:
    """Apply a map to an integer grid, bringing both to one scale.

    With coefficients scaled by ``L_u`` and the input by ``L_x``, the
    factors ``fc = M // L_u`` and ``fx = M // L_x`` for a common
    multiple ``M`` give the image at scale ``M``.
    """
    flat: list = [None] * (n * n)
    for cell, c, x in zip(cells, chain.from_iterable(coeffs), chain.from_iterable(xgrid)):
        if x is not None:
            flat[cell] = c * fc + x * fx
    return tuple([tuple(flat[k : k + n]) for k in range(0, n * n, n)])


def apply_map(cells: tuple[int, ...], coeffs: tuple, xgrid: tuple, n: int) -> tuple:
    """Apply a map to a (num, den) grid; the image is a (num, den) grid
    whose fractions are not necessarily reduced."""
    scale, (icoeffs, ix) = scale_grids(coeffs, xgrid)
    image = apply_scaled(cells, icoeffs, ix, n, 1, 1)
    return tuple(tuple(None if v is None else (v, scale) for v in row) for row in image)
