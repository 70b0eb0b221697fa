"""Seeded random scalars, matrices, and relation-conditioned pairs.

Everything is driven by an explicit random.Random instance so that any
"no counterexample found" verdict is reproducible from its seed.
Nonzero tropical entries are fractions p/q with p uniform in
[-10**6, 10**6] and q uniform in [1, 10**3].
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import semiring
from ._tropfast import decide_matrices
from .green import GreenRelation
from .matrix import (
    Matrix,
    MonomialMatrix,
    mat_mul,
    monomial_expand,
    scalar_mul,
    zero_matrix,
)
from .semiring import Semifield, SemifieldValue

GENERATOR_NAME = "python-random-mt19937"

P_BOUND = 10**6
Q_BOUND = 10**3

#: Probability that `random_scalar` draws zero outright; a boolean draw
#: that passes is then zero or one with equal odds.
ZERO_PROB = 0.125

#: Draws `unrelated_pair` makes before it gives up and returns None.
MAX_ATTEMPTS = 64


def random_nonzero_scalar(rng: random.Random, semifield: Semifield) -> SemifieldValue:
    if semifield is Semifield.BOOLEAN:
        return semiring.one(semifield)
    # the payloads are canonical as built, so `semiring.value` would only
    # check and copy them again
    p = rng.randint(-P_BOUND, P_BOUND)
    if semifield is Semifield.TROPICAL_INT:
        return SemifieldValue(semifield, p)
    q = rng.randint(1, Q_BOUND)
    return SemifieldValue(semifield, Fraction(p, q))


def random_scalar(rng: random.Random, semifield: Semifield) -> SemifieldValue:
    if rng.random() < ZERO_PROB:
        return semiring.zero(semifield)
    if semifield is Semifield.BOOLEAN:
        return semiring.one(semifield) if rng.random() < 0.5 else semiring.zero(semifield)
    return random_nonzero_scalar(rng, semifield)


def random_matrix(rng: random.Random, semifield: Semifield, n: int) -> Matrix:
    return Matrix(
        semifield, n, n,
        tuple(tuple(random_scalar(rng, semifield) for _ in range(n)) for _ in range(n)),
    )


def random_monomial(rng: random.Random, semifield: Semifield, n: int) -> MonomialMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMatrix(
        n, tuple(perm), tuple(random_nonzero_scalar(rng, semifield) for _ in range(n))
    )


def _swap_block_pair(rng: random.Random, semifield: Semifield, n: int) -> tuple[Matrix, Matrix]:
    """An H-related pair: two-by-two blocks whose rows and columns coincide as sets."""
    a = random_nonzero_scalar(rng, semifield)
    b = random_nonzero_scalar(rng, semifield)
    if n == 1:
        # all nonzero 1x1 matrices are H-related
        return Matrix(semifield, 1, 1, ((a,),)), Matrix(semifield, 1, 1, ((b,),))
    rows = rng.sample(range(n), 2)
    cols = rng.sample(range(n), 2)
    l, m = rows
    p, q = cols
    u = [[semiring.zero(semifield)] * n for _ in range(n)]
    v = [[semiring.zero(semifield)] * n for _ in range(n)]
    u[l][p], u[l][q], u[m][p], u[m][q] = a, b, b, a
    v[l][p], v[l][q], v[m][p], v[m][q] = b, a, a, b
    return (
        Matrix(semifield, n, n, tuple(tuple(r) for r in u)),
        Matrix(semifield, n, n, tuple(tuple(r) for r in v)),
    )


def related_pair(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[Matrix, Matrix]:
    """Draw (a, b) with a rel b, by construction or verified rejection."""
    b = random_matrix(rng, semifield, n)
    variant = rng.randrange(4)
    if rel is GreenRelation.LEQ_L:
        if variant == 0:
            return zero_matrix(semifield, n, n), b
        return mat_mul(random_matrix(rng, semifield, n), b), b
    if rel is GreenRelation.LEQ_R:
        if variant == 0:
            return zero_matrix(semifield, n, n), b
        return mat_mul(b, random_matrix(rng, semifield, n)), b
    if rel is GreenRelation.L:
        if variant == 0:
            return b, b
        if variant == 1:
            a = mat_mul(random_matrix(rng, semifield, n), b)
            if decide_matrices(b, a, GreenRelation.LEQ_L):
                return a, b
        return mat_mul(monomial_expand(random_monomial(rng, semifield, n)), b), b
    if rel is GreenRelation.R:
        if variant == 0:
            return b, b
        if variant == 1:
            a = mat_mul(b, random_matrix(rng, semifield, n))
            if decide_matrices(b, a, GreenRelation.LEQ_R):
                return a, b
        return mat_mul(b, monomial_expand(random_monomial(rng, semifield, n))), b
    if rel is GreenRelation.H:
        if variant == 0:
            return b, b
        if variant == 1:
            return scalar_mul(random_nonzero_scalar(rng, semifield), b), b
        if variant == 2:
            p = monomial_expand(random_monomial(rng, semifield, n))
            q = monomial_expand(random_monomial(rng, semifield, n))
            a = mat_mul(mat_mul(p, b), q)
            if decide_matrices(a, b, GreenRelation.H):
                return a, b
        return _swap_block_pair(rng, semifield, n)
    if rel is GreenRelation.LEQ_J:
        s = random_matrix(rng, semifield, n)
        t = random_matrix(rng, semifield, n)
        return mat_mul(mat_mul(s, b), t), b
    if rel in (GreenRelation.J, GreenRelation.D):
        p = monomial_expand(random_monomial(rng, semifield, n))
        if rel is GreenRelation.D and variant % 2:
            return mat_mul(b, p), b
        return mat_mul(p, b), b
    raise ValueError(f"unknown relation {rel!r}")


def unrelated_pair(
    rng: random.Random, semifield: Semifield, n: int, rel: GreenRelation
) -> tuple[Matrix, Matrix] | None:
    """Draw (a, b) with a rel b false, or None if rejection keeps failing."""
    for _ in range(MAX_ATTEMPTS):
        a = random_matrix(rng, semifield, n)
        b = random_matrix(rng, semifield, n)
        if not decide_matrices(a, b, rel):
            return a, b
    return None
