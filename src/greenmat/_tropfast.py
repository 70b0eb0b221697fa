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
entries of sampled pairs reach about 150 bits at n = 3 and 510 at
n = 8, beyond any fixed-width type, and floats are never used.

The kernel decides leqL by `leq_l` and leqR by `leq_l` on the transposes,
as ``green.PREORDERS`` orients them, and composes L, R and H from them by
``green.EQUIVALENCE_PARTS``: the two tables the reference decider reads.
`leq_l` runs a kernel written for one width: `_leq_source` writes out
the column loop of one template, so each entry is a local variable.  The
source is made from the int width alone and compiled on first use, never
at import; `_leq_kernel`
keeps one kernel per width for the life of the module, and `decide` looks
its width's kernel up once per verdict.  `kernel_takes`
admits no side above ``matrix.MAX_MATRIX_SIDE`` = 16, so the program
compiles at most 16 kernels.  A kernel compiles in 0.4 ms at width 3
and 1.6 ms at width 16 (a 2-vCPU Xeon VM, Python 3.11.7).

Grids are tuples of rows, with ``None`` for -inf.  Pairs are drawn on
these integers: the sampling module draws, multiplies and
rejection-tests matrices as grids, and hands out a pair as ``(L, a, b)``
at one common scale, the form `kernel_grids` gives two matrices.  A
drawn pair becomes `Matrix` objects only when it is lifted (`lift`).
Every grid pair, map images included, is decided by `decide_grids`, the
one dispatcher; `relate_witness` is the one entry for `Matrix` pairs.
Three kinds of caller use the kernel:

* the sampler decides its rejection tests on its own grids, and
  multiplies them by `max_plus`, which takes a factor for each grid so
  that two grids at different scales multiply at their lcm as they are;
  the sticky search of the linear_maps module decides its pairs too,
  each candidate and its k drawn as integers at their lcm, and lifts a
  candidate only when it survives or its refutation is read;
* the two randomized map loops, the ``corollaries`` suite of the verify
  module and the randomized preservation and exchange checks of the
  linear_maps module, take each map in its kernel form
  (``UnitPermutationMap.scaled``) and each pair as the sampler drew it;
  ``linear_maps.first_counterexample`` hands a pool of pairs to
  `first_miss`.  It meets the two scales of each pair in the image
  function of the width, which writes both images in row orientation and
  transposed, and hands them to `decide_grids`, so `decide` reads the
  transposes for the leqR part.  Only a counterexample is lifted and has
  its images built as `Matrix` objects;
* ``greenmat relate`` goes through `relate_witness`, which also builds
  the witness as the integer principal solution (`principal_solution`)
  and multiplies it out on integers (`max_plus`) before returning it.

The image function is generated like the leqL kernel: `_image_source`
writes one block per destination cell, made from the int width alone,
and `_image_kernel` compiles it on first use and keeps one function per
width.  A map, like a matrix, has a side of at most 16, so that cache
too has 16 entries at most.  The map enters as data, its inverse cell
index and its coefficients in destination order, so no map is ever
compiled: there are up to ``2*(n!)**2`` canonical maps alone.  It
compiles in 0.8 ms at width 3, 4.6 ms at width 8 and 19 ms at width 16
(same VM).

A pair reaches the kernel only where `kernel_takes` holds, the one
statement of the rule that `kernel_grids` and `decide_grids` read: the
tropical carriers, the relations above, and square matrices of one size
up to 16.  `GreenRelation` and `Semifield` hash by identity, so the test
runs once per pair without a hash written in Python.  Its common scale
must also have at most MAX_SCALE_BITS bits: `kernel_grids` tests the lcm
of a pair's denominators with `_capped_scale`, `decide_grids` the scale
it is given.  Everything else
(the boolean carrier, D, J, leqJ, invalid input) goes to the green
module, and so do over-cap pairs: the lcm of many large
distinct denominators grows with their sum, and integer residuation at
such scales is slower than Fraction residuation (see MAX_SCALE_BITS).
The cap is tested with an early-exit lcm, so a hostile pair costs little
to turn away: for a 16x16 matrix of 1000-digit denominators the full lcm
(850 kbit) takes 1.2 s and the capped check 0.3 ms.

The kernel is trusted only on verdicts that agree with the paper's
classification.  This module re-verifies nothing: the linear_maps module
re-decides a verdict against the paper (a counterexample, a sticky
survivor, a failed corollary) by the reference decider before it is
reported.  A witness that ``relate`` reports has been multiplied out.

`grid_of`, `scale_grids`, `related`, `map_rep` and `apply_map`, grouped
at the end, keep the exact ``(num, den)`` pair contract for the
benchmark's oracles, which compare one image with a reported matrix by
value.  No program path uses that form.  They scale and then delegate to
the integer core, so there is one kernel and one image function.  Tests
pin both against ``linear_maps.apply`` and the residuation decider of
the green module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, isqrt, lcm

from . import green, semiring
from .matrix import MAX_MATRIX_SIDE, Matrix
from .green import GreenRelation, relate
from .semiring import MINUS_INF, Semifield, SemifieldValue

_TOP = object()

#: Each kernel relation as (oriented pre-orders, needed both ways): the two
#: pre-orders of ``green.PREORDERS``, as (witness key, transposed), and the
#: equivalences ``green.EQUIVALENCE_PARTS`` builds from them.
_COMPOSED = {rel: ((oriented,), False) for rel, oriented in green.PREORDERS.items()}
_COMPOSED.update(
    (rel, (tuple(green.PREORDERS[p] for p in parts), True))
    for rel, parts in green.EQUIVALENCE_PARTS.items()
    if green.PREORDERS.keys() >= set(parts)
)

#: The relations and carriers the integer kernel decides.
KERNEL_RELATIONS = frozenset(_COMPOSED)
_KERNEL_CARRIERS = frozenset(sf for sf in Semifield if sf.is_tropical)

#: The largest common scale, in bits, at which a pair of matrices reaches
#: the kernel.  Scaling by the lcm loses to Fraction residuation once the
#: lcm is huge.  On relate requests (a 2-CPU VM, Python 3.11.7) the kernel
#: took 0.06 to 0.51 of the reference's time up to 6.4-kbit scales, 1.07 at
#: 15.9 kbit, 1.87 at 63 kbit and 4.2 at 253 kbit; a 16x16 H request with
#: 1000-digit denominators took 47 s on the kernel and 7.5 s by reference.
MAX_SCALE_BITS = 8192


def transpose_grid(g: tuple) -> tuple:
    return tuple(zip(*g))


def _capped_scale(dens: set) -> int | None:
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


def kernel_takes(semifield: Semifield, rel: GreenRelation, side: int) -> bool:
    """Whether the kernel decides ``a rel b`` for two side-by-side matrices
    over ``semifield``: L, R, H, leqL and leqR over the tropical carriers,
    up to MAX_MATRIX_SIDE.  The scale cap is `_capped_scale`'s.  Both enums
    hash by identity, so neither membership test calls into Python."""
    return rel in KERNEL_RELATIONS and semifield in _KERNEL_CARRIERS and side <= MAX_MATRIX_SIDE


def kernel_grids(a: Matrix, b: Matrix, rel: GreenRelation) -> tuple | None:
    """``(L, a, b)`` with ``a`` and ``b`` as integer grids at their common
    scale ``L`` when the kernel decides ``a rel b`` (`kernel_takes`, at a
    scale `_capped_scale` admits), else None.

    Everything the kernel does not take (the boolean carrier, D, J, leqJ,
    mixed carriers, other sizes and over-cap scales) belongs to the green
    module, which also raises the errors for invalid input.
    """
    square = a.semifield is b.semifield and a.rows == a.cols == b.rows == b.cols
    if not (square and kernel_takes(a.semifield, rel, a.rows)):
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
    return _compiled(_leq_source(n), f"<leq_l n={n}>", "leq_l")


def _compiled(source: str, filename: str, name: str):
    """The function ``name`` that ``source`` defines, compiled and run in
    a namespace of its own."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def leq_l(agrid: tuple, bgrid: tuple) -> bool:
    """a leqL b on integer grids, row by row of a.  leqR is this on the
    transposes (``green.PREORDERS``).

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


def decide(
    agrid: tuple, bgrid: tuple, rel: GreenRelation, transposes: tuple | None = None
) -> bool:
    """Decide ``a rel b`` for integer grids at one common scale.

    ``transposes`` is ``(transpose_grid(agrid), transpose_grid(bgrid))``
    where the caller has built them already (`first_miss`); the leqR
    part reads them instead of transposing.  The width's kernel is looked
    up once, and every `leq_l` part runs on it.
    """
    try:
        parts, both = _COMPOSED[rel]
    except KeyError:
        raise ValueError(f"no fast decider for {rel.value}") from None
    leq = _leq_kernel(len(agrid[0]))
    for _, transposed in parts:
        if transposed:
            x, y = transposes or (transpose_grid(agrid), transpose_grid(bgrid))
        else:
            x, y = agrid, bgrid
        if not leq(x, y) or both and not leq(y, x):
            return False
    return True


def decide_grids(
    semifield: Semifield, scale: int, agrid: tuple, bgrid: tuple, rel: GreenRelation,
    transposes: tuple | None = None,
) -> bool:
    """Decide ``a rel b`` for two grids at one scale: on the kernel where
    `kernel_takes` holds and ``scale`` has at most MAX_SCALE_BITS bits, else
    by ``green.relate`` on the lifted matrices (the boolean carrier, D, J,
    leqJ, sides above 16, over-cap scales).  ``transposes`` are handed to
    `decide` as they are."""
    if kernel_takes(semifield, rel, len(agrid)) and scale.bit_length() <= MAX_SCALE_BITS:
        return decide(agrid, bgrid, rel, transposes)
    return relate(lift(semifield, scale, agrid), lift(semifield, scale, bgrid), rel)


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


def max_plus(sgrid: tuple, bgrid: tuple, fs: int = 1, fb: int = 1) -> tuple:
    """The max-plus product of ``fs * s`` and ``fb * b`` for integer grids:
    ``s`` and ``b`` at scales ``L/fs`` and ``L/fb`` multiply to the product
    at scale ``L``.  The columns of ``b`` are built once, times ``fb``."""
    if fb == 1:
        cols = tuple(zip(*bgrid))
    else:
        cols = [[None if y is None else y * fb for y in col] for col in zip(*bgrid)]
    out = []
    for srow in sgrid:
        if fs != 1:
            srow = [None if x is None else x * fs for x in srow]
        orow = []
        for bcol in cols:
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
            witness[key + suffix] = lift(a.semifield, scale, transpose_grid(s) if transposed else s)
    return witness


def lift(sf: Semifield, scale: int, grid: tuple) -> Matrix:
    """The Matrix over ``sf`` of an integer grid at scale ``scale``: the
    payload ``v/scale`` for each int ``v`` (``v`` itself over tropical_int,
    whose scale is 1), zero for None.  The boolean carrier is its copy
    {None, 0} inside max-plus, at scale 1: 0 is one."""
    zero = semiring.zero(sf)
    n = len(grid)
    if sf is Semifield.BOOLEAN:
        one = semiring.one(sf)
        return Matrix(sf, n, n, tuple(tuple(zero if v is None else one for v in row) for row in grid))
    ints = sf is Semifield.TROPICAL_INT
    return Matrix(sf, n, n, tuple(
        tuple(
            zero if v is None else SemifieldValue(sf, v if ints else Fraction(v, scale))
            for v in row
        )
        for row in grid
    ))


#: The image function of one width.  `_image_source` writes one _ENTRY
#: block per destination cell ``{d}``: the entry is read from the flat
#: source grid at the inverse cell index ``k{d}``, and the coefficient
#: ``c{d}`` is already in destination order.  Both images are returned in
#: row orientation and transposed, for the leqR part of `decide`.
_IMAGES = """\
def images(agrid, bgrid, inv, coeffs, fc, fx):
    fa = {flat_a}
    fb = {flat_b}
    {ks} = inv
    {cs} = coeffs
{entries}    return {rows_a}, {rows_b}, {cols_a}, {cols_b}
"""
_ENTRY = """\
    c = c{d} * fc
    x = fa[k{d}]
    a{d} = None if x is None else x * fx + c
    x = fb[k{d}]
    b{d} = None if x is None else x * fx + c
"""


def _image_source(n: int) -> str:
    """The source of the image function for n-by-n grids, made from the
    int ``n`` alone."""
    n = int(n)
    lines = range(n)

    def tup(items) -> str:
        items = list(items)
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def grid(name, transposed=False):
        return tup(
            tup(f"{name}{j * n + i if transposed else i * n + j}" for j in lines) for i in lines
        )

    return _IMAGES.format(
        flat_a=" + ".join(f"agrid[{i}]" for i in lines),
        flat_b=" + ".join(f"bgrid[{i}]" for i in lines),
        ks=tup(f"k{d}" for d in range(n * n)),
        cs=tup(f"c{d}" for d in range(n * n)),
        entries="".join(_ENTRY.format(d=d) for d in range(n * n)),
        rows_a=grid("a"),
        rows_b=grid("b"),
        cols_a=grid("a", True),
        cols_b=grid("b", True),
    )


@cache
def _image_kernel(n: int):
    """The compiled function of `_image_source`, built on first use and
    kept for the life of the module: one entry per width."""
    return _compiled(_image_source(n), f"<images n={n}>", "images")


def first_miss(
    semifield: Semifield, scaled: tuple, pairs: list, rel: GreenRelation, holds: bool
) -> int:
    """The index of the first pair whose images ``T(a) rel T(b)`` are not
    ``holds``, or ``len(pairs)``.  ``scaled`` is ``UnitPermutationMap.scaled``,
    ``(L_u, inv, coeffs)``; each pair is ``(L_ab, a, b)``, integer grids at
    one scale, as the sampling module draws it or `kernel_grids` makes it.

    The factors ``fc = L_ab // g`` and ``fx = L_u // g`` for
    ``g = gcd(L_ab, L_u)`` give both images at ``M = lcm(L_ab, L_u) = L_u * fc``.
    The width's image function, looked up once, writes them in both
    orientations, so `decide` transposes nothing; `decide_grids` decides
    them, and where the kernel does not take them, their lift at ``M`` is
    ``T(a), T(b)``.
    """
    scale_u, inv, coeffs = scaled
    images = _image_kernel(isqrt(len(inv)))
    for k, (scale_ab, ga, gb) in enumerate(pairs):
        g = gcd(scale_ab, scale_u)
        fc, fx = scale_ab // g, scale_u // g
        ia, ib, ta, tb = images(ga, gb, inv, coeffs, fc, fx)
        if decide_grids(semifield, scale_u * fc, ia, ib, rel, (ta, tb)) != holds:
            return k
    return len(pairs)


# --- (num, den) adapters for the benchmark's oracles ------------------------


def grid_of(a: Matrix) -> tuple:
    """Extract an exact (num, den) payload grid from a tropical matrix."""
    if a.semifield is Semifield.BOOLEAN:
        raise ValueError("the fast path is for the tropical carriers")
    return tuple(
        tuple(None if (p := e.payload) is MINUS_INF else (p.numerator, p.denominator) for e in row)
        for row in a.entries
    )


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


def related(agrid: tuple, bgrid: tuple, rel: GreenRelation) -> bool:
    """Decide ``a rel b`` for (num, den) grids."""
    _, (a, b) = scale_grids(agrid, bgrid)
    return decide(a, b, rel)


def map_rep(u) -> tuple[tuple[int, ...], tuple]:
    """A unit-permutation map as (its cell map ``u.cells``, (num, den) coefficient grid)."""
    return u.cells, tuple(
        tuple((c.payload.numerator, c.payload.denominator) for c in row) for row in u.alpha
    )


def apply_map(cells: tuple[int, ...], coeffs: tuple, xgrid: tuple, n: int) -> tuple:
    """Apply a map to a (num, den) grid; the image is a (num, den) grid
    whose fractions are not necessarily reduced."""
    scale, (icoeffs, ix) = scale_grids(coeffs, xgrid)
    flat = tuple(chain.from_iterable(icoeffs))
    inv = sorted(range(n * n), key=cells.__getitem__)  # the source cell of each destination cell
    image = _image_kernel(n)(ix, ix, inv, [flat[k] for k in inv], 1, 1)[0]
    return tuple(tuple(None if v is None else (v, scale) for v in row) for row in image)
