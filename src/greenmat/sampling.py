"""Seeded random scalars, matrices, and relation-conditioned pairs.

Everything is driven by an explicit random.Random instance so that any
"no counterexample found" verdict is reproducible from its seed.
Nonzero tropical entries are fractions p/q with p uniform in
[-10**6, 10**6] and q uniform in [1, 10**3].

Matrices are drawn, multiplied and rejection-tested on the integers of
the max-plus kernel (the _tropfast module): a grid of ints and None
(zero) at a scale ``L`` stands for the matrix of the payloads ``v/L``.  A
drawn matrix is at the lcm of its denominators, a product at the lcm of
its factors' scales, and a scalar multiple is a shift.  `_random_grid`
draws a matrix in one loop, with the draws of `_nonzero` written out per
entry; over tropical_int and the boolean carrier it is at scale 1 as
drawn.  `_mul` hands `_tropfast.max_plus` both factors as drawn, with the
factors that bring each to the common scale, so neither is rescaled
before it is multiplied.  Every scale divides ``lcm(1, ..., Q_BOUND)``,
of 1438 bits, so it is always within `_tropfast.MAX_SCALE_BITS`.  The
boolean carrier is its copy {None, 0} inside max-plus, at scale 1.
Each rejection test is one `_tropfast.decide_grids` call, whose
admission test `_tropfast.kernel_takes` hashes no enum member in Python.

`related_grids` and `unrelated_grids` return a pair as ``(L, a, b)``, both
grids at one scale L: the form `_tropfast.kernel_grids` gives a pair of
matrices, though L may be a multiple of the lcm of the reduced
denominators that it takes.  The randomized map loops decide the triples
as drawn.  A pair becomes two `Matrix` objects only when it is lifted
(`lift_pair`): `related_pair`, `unrelated_pair` and `random_matrix` are
the grid draws lifted, and make the same draws in the same order as
when they were built from `Matrix` products.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import _tropfast, semiring
from .green import GreenRelation
from .matrix import Matrix, MonomialMatrix
from .semiring import Semifield, SemifieldValue

GENERATOR_NAME = "python-random-mt19937"

P_BOUND = 10**6
Q_BOUND = 10**3

#: Probability that a matrix entry is drawn as zero outright; a boolean
#: entry that passes is then zero or one with equal odds.
ZERO_PROB = 0.125

#: Draws `unrelated_grids` makes before it gives up and returns None.
MAX_ATTEMPTS = 64

#: ``rng.randint(low, high)`` is ``low + r`` for the first ``r`` below
#: ``width = high - low + 1`` among ``rng.getrandbits(k)``, k the bit
#: length of width.  `_nonzero` draws p and q so, at a tenth of the cost
#: of randint; a test pins the two streams equal.
_P_WIDTH = 2 * P_BOUND + 1
_P_BITS = _P_WIDTH.bit_length()
_Q_BITS = Q_BOUND.bit_length()


def _nonzero(rng: random.Random, semifield: Semifield) -> tuple[int, int]:
    """The draws of a nonzero scalar as ``(p, q)``, its payload p/q, with p
    as ``randint(-P_BOUND, P_BOUND)`` and q as ``randint(1, Q_BOUND)``; the
    boolean one is (0, 1), the one of max-plus, and draws nothing."""
    if semifield is Semifield.BOOLEAN:
        return 0, 1
    bits = rng.getrandbits
    p = bits(_P_BITS)
    while p >= _P_WIDTH:
        p = bits(_P_BITS)
    if semifield is Semifield.TROPICAL_INT:
        return p - P_BOUND, 1
    q = bits(_Q_BITS)
    while q >= Q_BOUND:
        q = bits(_Q_BITS)
    return p - P_BOUND, q + 1


def _value(semifield: Semifield, p: int, q: int) -> SemifieldValue:
    """The nonzero scalar of the draws ``(p, q)``."""
    if semifield is Semifield.BOOLEAN:
        return semiring.one(semifield)
    # the payloads are canonical as built, so `semiring.value` would only
    # check and copy them again
    return SemifieldValue(semifield, p if semifield is Semifield.TROPICAL_INT else Fraction(p, q))


def random_nonzero_scalar(rng: random.Random, semifield: Semifield) -> SemifieldValue:
    return _value(semifield, *_nonzero(rng, semifield))


def _scaled(cells: list, n: int) -> tuple[int, tuple]:
    """``(L, grid)``: the n-by-n grid whose cells, row by row, are ``(p, q)``
    draws or None, at the lcm L of the q."""
    scale = lcm(*{c[1] for c in cells if c is not None})
    ints = [None if c is None else c[0] * (scale // c[1]) for c in cells]
    return scale, tuple(zip(*[iter(ints)] * n))


def _random_grid(rng: random.Random, semifield: Semifield, n: int) -> tuple[int, tuple]:
    """A random matrix: each entry zero with probability ZERO_PROB, else,
    over the boolean carrier, zero or one with equal odds, else a nonzero
    scalar.  The draws are `_nonzero`'s, written out in one loop."""
    rnd = rng.random
    if semifield is Semifield.BOOLEAN:
        ints = [None if rnd() < ZERO_PROB or rnd() >= 0.5 else 0 for _ in range(n * n)]
        return 1, tuple(zip(*[iter(ints)] * n))
    bits = rng.getrandbits
    fractions = semifield is Semifield.TROPICAL
    ps, qs = [], []
    for _ in range(n * n):
        if rnd() < ZERO_PROB:
            ps.append(None)
            qs.append(1)
            continue
        p = bits(_P_BITS)
        while p >= _P_WIDTH:
            p = bits(_P_BITS)
        ps.append(p - P_BOUND)
        if fractions:
            q = bits(_Q_BITS)
            while q >= Q_BOUND:
                q = bits(_Q_BITS)
            qs.append(q + 1)
    if not fractions:
        return 1, tuple(zip(*[iter(ps)] * n))
    scale = lcm(*qs)
    ints = [None if p is None else p * (scale // q) for p, q in zip(ps, qs)]
    return scale, tuple(zip(*[iter(ints)] * n))


def random_matrix(rng: random.Random, semifield: Semifield, n: int) -> Matrix:
    return _tropfast.lift(semifield, *_random_grid(rng, semifield, n))


def _monomial(rng: random.Random, semifield: Semifield, n: int) -> tuple[list, list]:
    """A monomial matrix as its permutation and the draws of its scalars."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [_nonzero(rng, semifield) for _ in range(n)]


def random_monomial(rng: random.Random, semifield: Semifield, n: int) -> MonomialMatrix:
    perm, draws = _monomial(rng, semifield, n)
    return MonomialMatrix(n, tuple(perm), tuple(_value(semifield, p, q) for p, q in draws))


def _monomial_grid(rng: random.Random, semifield: Semifield, n: int) -> tuple[int, tuple]:
    """A random monomial matrix, expanded: column c holds scalar c in row ``perm[c]``."""
    perm, draws = _monomial(rng, semifield, n)
    cells = [None] * (n * n)
    for col, row in enumerate(perm):
        cells[row * n + col] = draws[col]
    return _scaled(cells, n)


def _rescaled(grid: tuple, factor: int) -> tuple:
    if factor == 1:
        return grid
    # a tuple of a list comprehension is built faster than of a generator
    return tuple([tuple([None if v is None else v * factor for v in row]) for row in grid])


def _pair(a: tuple[int, tuple], b: tuple[int, tuple]) -> tuple[int, tuple, tuple]:
    """``(L, a, b)``, both grids at the lcm L of their scales."""
    (la, ga), (lb, gb) = a, b
    scale = lcm(la, lb)
    return scale, _rescaled(ga, scale // la), _rescaled(gb, scale // lb)


def _mul(x: tuple[int, tuple], y: tuple[int, tuple]) -> tuple[int, tuple]:
    """The product ``x*y``, at the lcm of the two scales."""
    (lx, gx), (ly, gy) = x, y
    scale = lcm(lx, ly)
    return scale, _tropfast.max_plus(gx, gy, scale // lx, scale // ly)


def _scalar_mul(c: tuple[int, int], x: tuple[int, tuple]) -> tuple[int, tuple]:
    """``(p/q) * x``, a shift of every finite entry, at ``lcm(L, q)``."""
    (p, q), (lx, gx) = c, x
    scale = lcm(lx, q)
    factor, shift = scale // lx, p * (scale // q)
    return scale, tuple([
        tuple([None if v is None else v * factor + shift for v in row]) for row in gx
    ])


def _swap_blocks(
    rng: random.Random, semifield: Semifield, n: int
) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
    """An H-related pair: two-by-two blocks whose rows and columns coincide as sets."""
    x = _nonzero(rng, semifield)
    y = _nonzero(rng, semifield)
    if n == 1:
        # all nonzero 1x1 matrices are H-related
        return _scaled([x], 1), _scaled([y], 1)
    l, m = rng.sample(range(n), 2)
    p, q = rng.sample(range(n), 2)
    u = [None] * (n * n)
    v = [None] * (n * n)
    u[l * n + p], u[l * n + q], u[m * n + p], u[m * n + q] = x, y, y, x
    v[l * n + p], v[l * n + q], v[m * n + p], v[m * n + q] = y, x, x, y
    return _scaled(u, n), _scaled(v, n)


def related_grids(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[int, tuple, tuple]:
    """Draw ``(L, a, b)`` with a rel b, by construction or verified
    rejection, both grids at scale L."""

    def draw():
        return _random_grid(rng, semifield, n)

    def monomial():
        return _monomial_grid(rng, semifield, n)

    b = draw()
    variant = rng.randrange(4)
    if rel in (GreenRelation.LEQ_L, GreenRelation.LEQ_R):
        if variant == 0:
            return _pair((1, ((None,) * n,) * n), b)
        return _pair(_mul(draw(), b) if rel is GreenRelation.LEQ_L else _mul(b, draw()), b)
    if rel in (GreenRelation.L, GreenRelation.R):
        if variant == 0:
            return _pair(b, b)
        left = rel is GreenRelation.L
        if variant == 1:
            pair = _pair(_mul(draw(), b) if left else _mul(b, draw()), b)
            scale, ga, gb = pair
            # b is below a as well, so a rel b
            below = GreenRelation.LEQ_L if left else GreenRelation.LEQ_R
            if _tropfast.decide_grids(semifield, scale, gb, ga, below):
                return pair
        return _pair(_mul(monomial(), b) if left else _mul(b, monomial()), b)
    if rel is GreenRelation.H:
        if variant == 0:
            return _pair(b, b)
        if variant == 1:
            return _pair(_scalar_mul(_nonzero(rng, semifield), b), b)
        if variant == 2:
            p = monomial()
            q = monomial()
            pair = _pair(_mul(_mul(p, b), q), b)
            if _tropfast.decide_grids(semifield, *pair, GreenRelation.H):
                return pair
        return _pair(*_swap_blocks(rng, semifield, n))
    if rel is GreenRelation.LEQ_J:
        s = draw()
        t = draw()
        return _pair(_mul(_mul(s, b), t), b)
    if rel in (GreenRelation.J, GreenRelation.D):
        p = monomial()
        if rel is GreenRelation.D and variant % 2:
            return _pair(_mul(b, p), b)
        return _pair(_mul(p, b), b)
    raise ValueError(f"unknown relation {rel!r}")


def unrelated_grids(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[int, tuple, tuple] | None:
    """Draw ``(L, a, b)`` with a rel b false, both grids at scale L, or
    None if rejection keeps failing."""
    for _ in range(MAX_ATTEMPTS):
        a = _random_grid(rng, semifield, n)
        pair = _pair(a, _random_grid(rng, semifield, n))
        if not _tropfast.decide_grids(semifield, *pair, rel):
            return pair
    return None


def lift_pair(semifield: Semifield, pair: tuple[int, tuple, tuple]) -> tuple[Matrix, Matrix]:
    """The two matrices of a pair ``(L, a, b)``."""
    scale, ga, gb = pair
    return _tropfast.lift(semifield, scale, ga), _tropfast.lift(semifield, scale, gb)


def related_pair(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[Matrix, Matrix]:
    """Draw (a, b) with a rel b: `related_grids`, lifted."""
    return lift_pair(semifield, related_grids(rng, semifield, n, rel))


def unrelated_pair(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[Matrix, Matrix] | None:
    """Draw (a, b) with a rel b false, or None: `unrelated_grids`, lifted."""
    pair = unrelated_grids(rng, semifield, n, rel)
    return None if pair is None else lift_pair(semifield, pair)
