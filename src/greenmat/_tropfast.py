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

The kernel decides leqL by `leq_l` and leqR by `leq_l` on the transposes,
and composes L, R and H from them by ``green.EQUIVALENCE_PARTS``, the
table the reference decider composes by.  `leq_l` runs a kernel written
for one width: `_leq_source` writes out the column loop of one template,
so each entry is a local variable.  The source is made from the int
width alone and compiled on first use, never at import; `_leq_kernel`
keeps one kernel per width for the life of the module.  Widths are
bounded by the callers: ``matrix.MAX_MATRIX_SIDE`` = 16 on the command
line and ``verify.MAX_TROPICAL_N`` = 8 in the suites, so the cache holds
at most 16 entries.  A kernel compiles in 0.4 ms at width 3 and 1.6 ms
at width 16 (a 2-vCPU Xeon VM, Python 3.11.7).

Grids are tuples of rows, with ``None`` for -inf.  Three kinds of
caller use the kernel:

* the two randomized map loops, the ``corollaries`` suite of the verify
  module and the randomized preservation and exchange checks of the
  linear_maps module, scale each map once (`scale_map`) and each pair
  once (`kernel_grids`), and `decide_images` meets the two at their
  common scale while applying the map (`apply_scaled`) and decides on
  the integer images (`decide`).  Only a counterexample, or a pair the
  kernel does not take, has its images built as `Matrix` objects;
* callers holding two `Matrix` objects go through `decide_matrices`.
  These are the fallback of the map loops, the sticky search of the
  linear_maps module, and the rejection tests of the sampling module;
* ``greenmat relate`` goes through `relate_witness`, which also builds
  the witness as the integer principal solution (`principal_solution`)
  and multiplies it out on integers (`max_plus`) before returning it.

A pair reaches the kernel only where `kernel_grids` admits it: the
tropical carriers, the relations above, square matrices of one size, and
a common scale of at most MAX_SCALE_BITS bits (`_capped_scale`, which
`decide_images` applies again to the scale the pair shares with a map).
Everything else (the boolean carrier, D, J, leqJ, invalid input) goes to
the green module, and so do over-cap pairs: the lcm of many large
distinct denominators grows with their sum, and integer residuation at
such scales is slower than Fraction residuation (see MAX_SCALE_BITS).
The cap is tested with an early-exit lcm, so a hostile pair costs little
to turn away: for a 16x16 matrix of 1000-digit denominators the full lcm
(850 kbit) takes 1.2 s and the capped check 0.3 ms.

The kernel is trusted only on verdicts that agree with the paper's
classification.  A verdict against it (a counterexample, a sticky
survivor, a failed corollary) is re-decided by the reference decider
through `reverify` before it is reported.  A witness that ``relate``
reports has been multiplied out.

`grid_of`, `map_rep`, `apply_map` and `related` keep the exact
``(num, den)`` pair contract for callers that hold one matrix or one
image at a time, such as independent oracles comparing an image with a
reported matrix by value.  They scale and then delegate to the integer
core, so there is one kernel.  Tests pin it against the residuation
decider of the green module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm

from . import green
from .matrix import Matrix
from .green import GreenRelation, relate
from .semiring import MINUS_INF, Semifield, SemifieldValue

_TOP = object()

#: The one orientation step: leqL is `leq_l`, and leqR is `leq_l` on the
#: transposes, its multiplier transposed back.  (witness key, transposed)
_PREORDERS = {GreenRelation.LEQ_L: ("s", False), GreenRelation.LEQ_R: ("t", True)}

#: Each kernel relation as (oriented pre-orders, needed both ways): the two
#: pre-orders, and the equivalences ``green.EQUIVALENCE_PARTS`` builds from them.
_COMPOSED = {rel: ((_PREORDERS[rel],), False) for rel in _PREORDERS}
_COMPOSED.update(
    (rel, (tuple(_PREORDERS[p] for p in parts), True))
    for rel, parts in green.EQUIVALENCE_PARTS.items()
    if _PREORDERS.keys() >= set(parts)
)

#: The relations the integer kernel decides.
KERNEL_RELATIONS = frozenset(_COMPOSED)

#: The largest common scale, in bits, at which a pair of matrices reaches
#: the kernel.  Scaling by the lcm loses to Fraction residuation once the
#: lcm is huge.  On relate requests (a 2-CPU VM, Python 3.11.7) the kernel
#: took 0.06 to 0.51 of the reference's time up to 6.4-kbit scales, 1.07 at
#: 15.9 kbit, 1.87 at 63 kbit and 4.2 at 253 kbit; a 16x16 H request with
#: 1000-digit denominators took 47 s on the kernel and 7.5 s by reference.
MAX_SCALE_BITS = 8192


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


def _capped_scale(dens: set | tuple) -> int | None:
    """The lcm of ``dens``, or None when it has more than MAX_SCALE_BITS bits.

    The lcm divides the product, whose bit length is at most the count
    times the largest bit length, so a bound under the cap settles it at
    once; otherwise the lcm is built up and the loop stops as soon as it
    passes the cap, before it grows further.
    """
    if (max(dens) if dens else 1).bit_length() * len(dens) <= MAX_SCALE_BITS:
        return lcm(*dens)
    scale = 1
    for d in dens:
        scale = lcm(scale, d)
        if scale.bit_length() > MAX_SCALE_BITS:
            return None
    return scale


def kernel_grids(a: Matrix, b: Matrix, rel: GreenRelation) -> tuple | None:
    """``(L, a, b)`` with ``a`` and ``b`` as integer grids at their common
    scale ``L`` when the kernel decides ``a rel b``, else None.

    The kernel takes L, R, H, leqL and leqR on square matrices of one size
    over one tropical carrier whose common scale fits in MAX_SCALE_BITS.
    Everything else (the boolean carrier, D, J, leqJ, mixed carriers,
    mismatched or non-square sizes and over-cap scales) belongs to the
    green module, which also raises the errors for invalid input.
    """
    if not (
        rel in KERNEL_RELATIONS
        and a.semifield.is_tropical
        and a.semifield is b.semifield
        and a.rows == a.cols == b.rows == b.cols
    ):
        return None
    # payloads are Fractions or, over tropical_int, ints (denominator 1)
    scale = _capped_scale({
        e.payload.denominator
        for m in (a, b) for row in m.entries for e in row if e.payload is not MINUS_INF
    })
    if scale is None:
        return None
    return scale, _at_scale(a, scale), _at_scale(b, scale)


def _at_scale(m: Matrix, scale: int) -> tuple:
    """The integer grid of ``scale * m``."""
    return tuple(
        tuple(
            None if (p := e.payload) is MINUS_INF else p.numerator * (scale // p.denominator)
            for e in row
        )
        for row in m.entries
    )


#: The leqL kernel of one width.  `_leq_source` writes its column loop
#: out, one _COLUMN block per column ``{j}`` with the bit ``{bit}``, so the
#: kernel reads each entry from a local variable.  ``s`` is None until a
#: finite ``b_kj`` is met; a -inf ``a_ij`` against a finite ``b_kj`` makes
#: ``s_k`` -inf, which attains nothing, so the row of b is skipped.
_KERNEL = """\
def leq_l(agrid, bgrid):
    for {xs}, in agrid:
        need = {need}
        covered = 0
        for {ys}, in bgrid:
            s = None
            hit = 0
{columns}            covered |= hit
            if covered == need:
                break
        if covered != need:
            return False
    return True
"""
_COLUMN = """\
            if y{j} is not None:
                if x{j} is None:
                    continue
                d = x{j} - y{j}
                if s is None or d < s:
                    s = d
                    hit = {bit}
                elif d == s:
                    hit |= {bit}
"""


def _leq_source(n: int) -> str:
    """The source of the leqL kernel for grids ``n`` columns wide, made
    from the int ``n`` alone."""
    cols = range(int(n))
    return _KERNEL.format(
        xs=", ".join(f"x{j}" for j in cols),
        ys=", ".join(f"y{j}" for j in cols),
        need=" | ".join(f"(0 if x{j} is None else {1 << j})" for j in cols),
        columns="".join(_COLUMN.format(j=j, bit=1 << j) for j in cols),
    )


@cache
def _leq_kernel(n: int):
    """The compiled kernel of `_leq_source`, built on first use and kept
    for the life of the module: one entry per width."""
    namespace: dict = {}
    code = compile(_leq_source(n), f"<leq_l n={n}>", "exec")
    exec(code, namespace)
    return namespace["leq_l"]


def leq_l(agrid: tuple, bgrid: tuple) -> bool:
    """a leqL b on integer grids, row by row of a.  leqR is this on the
    transposes (`_PREORDERS`).

    The principal solution of ``s*b = a`` is ``s_k = min_j (a_ij - b_kj)``
    over the finite ``b_kj``, and always ``s*b <= a``.  Equality needs
    ``max_k (s_k + b_kj) = a_ij`` for every finite ``a_ij``: some finite
    ``s_k`` must attain its minimum at j.  A -inf ``a_ij`` forces
    ``s_k = -inf`` for every finite ``b_kj``, so it always holds.  The
    columns where each ``s_k`` attains its minimum are kept as a bit mask.

    The scan of a row of a stops at the first row of b after which every
    finite ``a_ij`` is attained.  The work is done by the kernel that
    `_leq_kernel` compiles for the width of the grids.
    """
    return _leq_kernel(len(agrid[0]))(agrid, bgrid)


def decide(agrid: tuple, bgrid: tuple, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` for integer grids at one common scale."""
    try:
        parts, both = _COMPOSED[rel]
    except KeyError:
        raise ValueError(f"no fast decider for {rel.value}") from None
    for _, transposed in parts:
        x, y = (transpose_grid(agrid), transpose_grid(bgrid)) if transposed else (agrid, bgrid)
        if not leq_l(x, y) or both and not leq_l(y, x):
            return False
    return True


def related(agrid: tuple, bgrid: tuple, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` for (num, den) grids."""
    _, (a, b) = scale_grids(agrid, bgrid)
    return decide(a, b, rel)


def decide_matrices(a: Matrix, b: Matrix, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` on the kernel where `kernel_grids` admits the
    pair, else by ``green.relate``."""
    scaled = kernel_grids(a, b, rel)
    if scaled is None:
        return relate(a, b, rel)
    return decide(scaled[1], scaled[2], rel)


def principal_solution(agrid: tuple, bgrid: tuple) -> tuple:
    """The greatest integer grid ``s`` with ``s*b <= a``, as in `leq_l`.

    The top element an all -inf row of b leaves is projected to 0, the
    multiplicative identity, as ``green.left_residual`` does.
    """
    out = []
    for arow in agrid:
        srow = []
        for brow in bgrid:
            s = _TOP
            for x, y in zip(arow, brow):
                if y is None:
                    continue
                if x is None:
                    s = None
                    break
                if s is _TOP or x - y < s:
                    s = x - y
            srow.append(0 if s is _TOP else s)
        out.append(tuple(srow))
    return tuple(out)


def max_plus(sgrid: tuple, bgrid: tuple) -> tuple:
    """The max-plus product of two integer grids."""
    out = []
    for srow in sgrid:
        orow = []
        for bcol in zip(*bgrid):
            acc = None
            for x, y in zip(srow, bcol):
                if x is not None and y is not None and (acc is None or x + y > acc):
                    acc = x + y
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def relate_witness(a: Matrix, b: Matrix, rel: GreenRelation) -> dict | None:
    """``green.relate_witness``, decided and solved on the kernel where
    `kernel_grids` admits the pair.

    The verdict comes from `decide`.  Each multiplier of a positive verdict
    is the integer principal solution at the common scale ``L``; it is
    multiplied out on integers, raising AssertionError unless it gives the
    matrix it solves for, and returned as a Matrix at ``1/L``.
    """
    scaled = kernel_grids(a, b, rel)
    if scaled is None:
        return green.relate_witness(a, b, rel)
    scale, ga, gb = scaled
    if not decide(ga, gb, rel):
        return None
    parts, both = _COMPOSED[rel]
    directions = (("_forward", False), ("_backward", True)) if both else (("", False),)
    witness = {}
    for key, transposed in parts:
        x, y = (transpose_grid(ga), transpose_grid(gb)) if transposed else (ga, gb)
        for suffix, backward in directions:
            p, q = (y, x) if backward else (x, y)
            s = principal_solution(p, q)
            if max_plus(s, q) != p:
                raise AssertionError(f"{key}{suffix} witness from the kernel fails to multiply out")
            witness[key + suffix] = _lift(a.semifield, scale, transpose_grid(s) if transposed else s)
    return witness


def _lift(sf: Semifield, scale: int, grid: tuple) -> Matrix:
    """The Matrix over ``sf`` of an integer grid at scale ``scale``
    (always 1 over tropical_int, whose payloads are ints)."""
    zero = SemifieldValue(sf, MINUS_INF)
    ints = sf is Semifield.TROPICAL_INT
    n = len(grid)
    return Matrix(sf, n, n, tuple(
        tuple(
            zero if v is None else SemifieldValue(sf, v if ints else Fraction(v, scale))
            for v in row
        )
        for row in grid
    ))


def reverify(a: Matrix, b: Matrix, rel: GreenRelation, expected: bool) -> None:
    """Raise AssertionError unless ``green.relate`` finds ``a rel b`` to be ``expected``."""
    if relate(a, b, rel) is not expected:
        raise AssertionError("fast path disagrees with the reference decider")


def map_rep(u) -> tuple[tuple[int, ...], tuple]:
    """A unit-permutation map as (its cell map ``u.cells``, (num, den) coefficient grid)."""
    coeffs = tuple(
        tuple(
            (p.numerator, p.denominator) if isinstance(p, Fraction) else (p, 1)
            for p in (c.payload for c in row)
        )
        for row in u.alpha
    )
    return u.cells, coeffs


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


def scale_map(u) -> tuple[tuple[int, ...], int, tuple]:
    """``(cells, L_u, coefficients)``: a map's cell targets (`map_rep`) and
    its coefficient grid as integers at the lcm ``L_u`` of its denominators."""
    cells, coeffs = map_rep(u)
    scale, (icoeffs,) = scale_grids(coeffs)
    return cells, scale, icoeffs


def decide_images(smap: tuple, scaled: tuple | None, rel: GreenRelation) -> bool | None:
    """Decide ``T(a) rel T(b)`` on the kernel, or None where it does not apply.

    ``smap`` is the map from `scale_map` and ``scaled`` the pair from
    `kernel_grids`, None when the kernel does not take the pair.  Both are
    brought to their common scale ``lcm(L_ab, L_u)`` while the map is
    applied; None also when that scale passes MAX_SCALE_BITS.
    """
    if scaled is None:
        return None
    cells, scale_u, coeffs = smap
    scale_ab, ga, gb = scaled
    common = _capped_scale((scale_ab, scale_u))
    if common is None:
        return None
    n = len(ga)
    fc, fx = common // scale_u, common // scale_ab
    return decide(
        apply_scaled(cells, coeffs, ga, n, fc, fx), apply_scaled(cells, coeffs, gb, n, fc, fx), rel
    )


def apply_map(cells: tuple[int, ...], coeffs: tuple, xgrid: tuple, n: int) -> tuple:
    """Apply a map to a (num, den) grid; the image is a (num, den) grid
    whose fractions are not necessarily reduced."""
    scale, (icoeffs, ix) = scale_grids(coeffs, xgrid)
    image = apply_scaled(cells, icoeffs, ix, n, 1, 1)
    return tuple(tuple(None if v is None else (v, scale) for v in row) for row in image)
