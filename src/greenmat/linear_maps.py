"""Linear transformations of n-by-n matrices: classification and checking.

A linear map is determined by the images of the matrix units.  The
bijective ones send each unit to a nonzero multiple of a single unit,
with the cells permuted; those whose cell permutation splits into a row
permutation and a column permutation, and whose coefficient matrix has
factor rank one, are exactly the maps X -> PXQ (or X -> P X^T Q in the
transpose case) for monomial P, Q.  This module extracts that shape,
classifies it, synthesizes maps back from canonical forms, and checks
preservation/exchange of Green's relations exhaustively (boolean) or on
seeded random pairs (tropical).

The cell-structure test is `cell_shape`, shared with the exhaustive
suites.  Preservation and exchange are one check over (src, dst)
directions, which decides every map verdict of the exhaustive suites too:
exhaustively it is one `_boolspace.first_violation` scan of the relation
tables, and every counterexample, exhaustive or randomized, is
re-decided by the reference decider before it is reported.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from math import lcm

from . import semiring
from .green import (
    BOUNDED_SEARCH,
    MAX_BOUNDED_N,
    GreenRelation,
    decidable_over,
    has_factor_rank_at_most_one,
    relate_witness,
)
from .matrix import (
    MAX_MATRIX_SIDE,
    DimensionMismatch,
    Matrix,
    MonomialMatrix,
    ParseError,
    matrix_from_json,
    matrix_to_json,
    mat_add,
    monomial_from_json,
    monomial_to_json,
    require_size,
    scalar_mul,
    zero_matrix,
)
from .semiring import MixedSemifields, Semifield, SemifieldValue
from . import _boolspace, _tropfast, sampling


class NotBijective(ValueError):
    """The linear map is not a bijection (not of unit-permutation shape)."""


class UnsupportedMode(ValueError):
    """The requested check mode is unavailable for this relation/semifield/size."""


def _require_side(n: int) -> None:
    """Maps act on the sides a matrix may have, ints 1 to MAX_MATRIX_SIDE."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DimensionMismatch(f"a map's size must be an int, got {n!r}")
    if not 1 <= n <= MAX_MATRIX_SIDE:
        raise DimensionMismatch(f"maps act on sizes 1 to {MAX_MATRIX_SIDE}, got {n}")


@dataclass(frozen=True)
class LinearMap:
    """A linear map given by the images of all matrix units, row-major."""

    n: int
    semifield: Semifield
    images: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self):
        _require_side(self.n)
        if len(self.images) != self.n or any(len(r) != self.n for r in self.images):
            raise DimensionMismatch("need one image per matrix unit")
        for row in self.images:
            for img in row:
                if img.rows != self.n or img.cols != self.n:
                    raise DimensionMismatch("images must be n-by-n")
                if img.semifield is not self.semifield:
                    raise MixedSemifields("image over a different semifield")


@dataclass(frozen=True)
class UnitPermutationMap:
    """A bijective linear map: unit (i, j) goes to alpha[i][j] times unit sigma[i][j]."""

    n: int
    semifield: Semifield
    sigma: tuple[tuple[tuple[int, int], ...], ...]
    alpha: tuple[tuple[SemifieldValue, ...], ...]

    def __post_init__(self):
        n = self.n
        _require_side(n)
        for table in (self.sigma, self.alpha):
            if len(table) != n or any(len(row) != n for row in table):
                raise DimensionMismatch("sigma and alpha must be n-by-n")
        cells = {self.sigma[i][j] for i in range(n) for j in range(n)}
        if len(cells) != n * n or any(
            not (0 <= k < n and 0 <= l < n) for k, l in cells
        ):
            raise ValueError("sigma must permute the n*n cells")
        for row in self.alpha:
            for c in row:
                if c.semifield is not self.semifield:
                    raise MixedSemifields("coefficient over a different semifield")
                if semiring.is_zero(c):
                    raise ValueError("coefficients must be nonzero")

    @functools.cached_property
    def cells(self) -> tuple[int, ...]:
        """The cell map, row-major: unit (i, j) goes to cell cells[i*n + j] = k*n + l."""
        n = self.n
        return tuple(k * n + l for row in self.sigma for k, l in row)


class NonCanonicalReason(enum.Enum):
    NOT_UNIT_PERMUTATION = "NotUnitPermutation"
    ROW_COLUMN_STRUCTURE_VIOLATED = "RowColumnStructureViolated"
    COEFFICIENTS_NOT_RANK_ONE = "CoefficientsNotRankOne"


@dataclass(frozen=True)
class NonCanonical:
    reason: NonCanonicalReason


@dataclass(frozen=True)
class CanonicalForm:
    """X -> PXQ when transposed is False, X -> P X^T Q when True."""

    p: MonomialMatrix
    q: MonomialMatrix
    transposed: bool


ClassifyOutcome = CanonicalForm | NonCanonical


# --- application ----------------------------------------------------------


def apply(t: LinearMap | UnitPermutationMap, x: Matrix) -> Matrix:
    if x.rows != t.n or x.cols != t.n:
        raise DimensionMismatch(f"expected a {t.n}x{t.n} argument")
    if x.semifield is not t.semifield:
        raise MixedSemifields("argument over a different semifield")
    if isinstance(t, UnitPermutationMap):
        grid = [[semiring.zero(t.semifield)] * t.n for _ in range(t.n)]
        for i in range(t.n):
            for j in range(t.n):
                k, l = t.sigma[i][j]
                grid[k][l] = semiring.mul(t.alpha[i][j], x.entries[i][j])
        return Matrix(t.semifield, t.n, t.n, tuple(tuple(r) for r in grid))
    acc = zero_matrix(t.semifield, t.n, t.n)
    for i in range(t.n):
        for j in range(t.n):
            c = x.entries[i][j]
            if not semiring.is_zero(c):
                acc = mat_add(acc, scalar_mul(c, t.images[i][j]))
    return acc


def to_linear_map(u: UnitPermutationMap) -> LinearMap:
    z = zero_matrix(u.semifield, u.n, u.n)
    images = []
    for i in range(u.n):
        row = []
        for j in range(u.n):
            k, l = u.sigma[i][j]
            grid = [list(r) for r in z.entries]
            grid[k][l] = u.alpha[i][j]
            row.append(Matrix(u.semifield, u.n, u.n, tuple(tuple(r) for r in grid)))
        images.append(tuple(row))
    return LinearMap(u.n, u.semifield, tuple(images))


def extract_unit_form(t: LinearMap) -> UnitPermutationMap:
    """Recover the unit-permutation shape of a bijective map, or fail.

    Succeeds iff every unit image is a nonzero multiple of a single
    unit and the induced cell map is injective; this is equivalent to
    bijectivity of the map.
    """
    n = t.n
    sigma = []
    alpha = []
    for i in range(n):
        srow = []
        arow = []
        for j in range(n):
            img = t.images[i][j]
            hits = [
                (k, l)
                for k in range(n)
                for l in range(n)
                if not semiring.is_zero(img.entries[k][l])
            ]
            if len(hits) != 1:
                raise NotBijective(
                    f"image of unit ({i + 1},{j + 1}) has {len(hits)} nonzero entries"
                )
            srow.append(hits[0])
            arow.append(img.entries[hits[0][0]][hits[0][1]])
        sigma.append(tuple(srow))
        alpha.append(tuple(arow))
    cells = {c for row in sigma for c in row}
    if len(cells) != n * n:
        raise NotBijective("two units map to multiples of the same unit")
    return UnitPermutationMap(n, t.semifield, tuple(sigma), tuple(alpha))


# --- classification ---------------------------------------------------------


def cell_shape(cells, n: int) -> str | None:
    """The structure of a cell permutation, row-major (unit (i, j) goes to
    cell cells[i*n + j] = k*n + l): "standard" when (k, l) = (rho(i), tau(j)),
    "transpose" when (k, l) = (tau(j), rho(i)), else None.

    Units (0, 0) and (0, 1) sharing an image row leave only the standard
    shape possible, else only the transpose; row 0 is checked first, so
    most maps are rejected there.
    """
    flip = n > 1 and cells[1] // n != cells[0] // n
    for i in range(0, n * n, n):
        a = cells[i]
        for j in range(1, n):
            b = cells[j]
            # the image row of unit (i, 0) and the image column of unit (0, j),
            # or, flipped, the image row of (0, j) and the column of (i, 0)
            want = (b - b % n) + a % n if flip else (a - a % n) + b % n
            if cells[i + j] != want:
                return None
    return "transpose" if flip else "standard"


_G = GreenRelation

#: The classification, keyed by `cell_shape`: a canonical map of each shape
#: carries each relation (the key) to the relation it names.  X -> PXQ
#: preserves every relation; X -> P X^T Q exchanges L with R and leqL with
#: leqR and preserves H, D, J and leqJ.  A map of no shape preserves none.
IMAGE_RELATION: dict[str, dict[GreenRelation, GreenRelation]] = {
    "standard": {_G.L: _G.L, _G.R: _G.R, _G.LEQ_L: _G.LEQ_L, _G.LEQ_R: _G.LEQ_R,
                 _G.H: _G.H, _G.D: _G.D, _G.J: _G.J, _G.LEQ_J: _G.LEQ_J},
    "transpose": {_G.L: _G.R, _G.R: _G.L, _G.LEQ_L: _G.LEQ_R, _G.LEQ_R: _G.LEQ_L,
                  _G.H: _G.H, _G.D: _G.D, _G.J: _G.J, _G.LEQ_J: _G.LEQ_J},
}


def classify(u: UnitPermutationMap) -> ClassifyOutcome:
    """Decide whether u is X -> PXQ or X -> P X^T Q and build P, Q.

    Checks, in order: the cell permutation factors through a row and a
    column permutation (directly or after a transpose; `cell_shape`),
    then the coefficient matrix has factor rank one.  A map of the
    transpose shape sends unit (i, j) where X -> PXQ sends unit (j, i),
    so its transposed unit tables are split as a map of the standard
    shape.  P comes from column 0 of the coefficients and Q from row 0,
    normalized by x_1 = 1 (the first coefficient of P is the identity),
    so classify/synthesize round-trip exactly.
    """
    n = u.n
    shape = cell_shape(u.cells, n)
    if shape is None:
        return NonCanonical(NonCanonicalReason.ROW_COLUMN_STRUCTURE_VIOLATED)
    sigma, alpha = u.sigma, u.alpha
    if shape == "transpose":
        sigma, alpha = tuple(zip(*sigma)), tuple(zip(*alpha))
    if not has_factor_rank_at_most_one(Matrix(u.semifield, n, n, alpha)):
        return NonCanonical(NonCanonicalReason.COEFFICIENTS_NOT_RANK_ONE)
    one_v = semiring.one(u.semifield)
    inv00 = semiring.inv(alpha[0][0])
    xs = (one_v,) + tuple(semiring.mul(alpha[i][0], inv00) for i in range(1, n))
    p = MonomialMatrix(n, tuple(sigma[i][0][0] for i in range(n)), xs)
    qperm = [0] * n
    qscale = [one_v] * n
    for j in range(n):
        qperm[sigma[0][j][1]] = j
        qscale[sigma[0][j][1]] = alpha[0][j]
    q = MonomialMatrix(n, tuple(qperm), tuple(qscale))
    return CanonicalForm(p, q, shape == "transpose")


def classify_linear_map(t: LinearMap) -> ClassifyOutcome:
    try:
        u = extract_unit_form(t)
    except NotBijective:
        return NonCanonical(NonCanonicalReason.NOT_UNIT_PERMUTATION)
    return classify(u)


def synthesize(c: CanonicalForm, n: int, semifield: Semifield) -> UnitPermutationMap:
    """The unit-permutation form of X -> PXQ (or P X^T Q)."""
    if c.p.n != n or c.q.n != n:
        raise DimensionMismatch("monomial matrices do not match the requested size")
    if c.p.semifield is not semifield or c.q.semifield is not semifield:
        raise MixedSemifields("monomial matrices over a different semifield")
    qinv = [0] * n
    for col, row in enumerate(c.q.perm):
        qinv[row] = col
    sigma = tuple(tuple((c.p.perm[i], qinv[j]) for j in range(n)) for i in range(n))
    alpha = tuple(
        tuple(semiring.mul(c.p.scale[i], c.q.scale[qinv[j]]) for j in range(n))
        for i in range(n)
    )
    if c.transposed:  # unit (i, j) goes where X -> PXQ sends unit (j, i)
        sigma, alpha = tuple(zip(*sigma)), tuple(zip(*alpha))
    return UnitPermutationMap(n, semifield, sigma, alpha)


# --- preservation and exchange checks ---------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Randomized:
    seed: int
    trials: int = 1000

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, int):
            raise ValueError(f"trials must be an int, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


Mode = Exhaustive | Randomized


@dataclass(frozen=True)
class CounterexamplePair:
    a: Matrix
    b: Matrix
    image_a: Matrix
    image_b: Matrix
    detail: str
    witness: dict | None = None


@dataclass(frozen=True)
class Verdict:
    checked: str
    outcome: str  # Preserved | Exchanges | NoCounterexampleFound | Counterexample
    mode: str
    pairs_checked: int
    counterexample: CounterexamplePair | None = None
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _exhaustive_pre(u: UnitPermutationMap, rels) -> None:
    if u.semifield is not Semifield.BOOLEAN:
        raise UnsupportedMode("exhaustive checks require the boolean semifield")
    if u.n > MAX_BOUNDED_N:
        raise UnsupportedMode(
            f"exhaustive check of {'/'.join(r.value for r in rels)} "
            f"is limited to n <= {MAX_BOUNDED_N}"
        )


def _randomized_pre(u: UnitPermutationMap, rels) -> None:
    for r in rels:
        if not decidable_over(r, u.semifield):
            raise UnsupportedMode(
                f"{r.value} is not decidable over {u.semifield.value}; "
                "randomized checking cannot condition on it"
            )
        if r in BOUNDED_SEARCH and u.n > MAX_BOUNDED_N:
            raise UnsupportedMode(
                f"randomized check of {r.value} is limited to n <= {MAX_BOUNDED_N}"
            )


def _require_kinds(u: UnitPermutationMap, rels) -> None:
    """Reject a map over something that is not a `Semifield`, and a
    relation that is not a `GreenRelation`."""
    if not isinstance(u.semifield, Semifield):
        raise UnsupportedMode(f"unknown semifield {u.semifield!r}")
    for r in rels:
        if not isinstance(r, GreenRelation):
            raise UnsupportedMode(f"unknown relation {r!r}")


def check_preservation(
    u: UnitPermutationMap,
    rel: GreenRelation,
    mode: Mode,
    strong: bool = False,
) -> Verdict:
    """Does u preserve rel?  Strong mode also requires preserving its negation."""
    _require_kinds(u, (rel,))
    return _check(u, mode, strong, ((rel, rel),))


def check_exchange(
    u: UnitPermutationMap,
    mode: Mode,
    strong: bool = False,
    pair: tuple[GreenRelation, GreenRelation] = (GreenRelation.L, GreenRelation.R),
) -> Verdict:
    """Does u exchange the two relations (a tau b implies T(a) rho T(b), both ways)?"""
    _require_kinds(u, pair)
    rel1, rel2 = pair
    if rel1 is rel2:
        raise UnsupportedMode(f"{rel1.value} cannot be exchanged with itself; check preservation")
    return _check(u, mode, strong, ((rel1, rel2), (rel2, rel1)))


def _check(
    u: UnitPermutationMap,
    mode: Mode,
    strong: bool,
    directions: tuple[tuple[GreenRelation, GreenRelation], ...],
) -> Verdict:
    """Check that a src b implies T(a) dst T(b) for each (src, dst) in
    directions, and in strong mode that unrelated pairs stay unrelated.

    The one builder of a `Verdict`: its labels follow from the directions.
    One direction (rel, rel) is "preserves rel", two are "exchanges src
    with dst"; a check that finds nothing is Preserved or Exchanges when
    exhaustive, NoCounterexampleFound when randomized, which also reports
    its seed.
    """
    (src, dst), *_ = directions
    name = f"preserves {src.value}" if src is dst else f"exchanges {src.value} with {dst.value}"
    name = f"strongly {name}" if strong else name
    rels = [src for src, _ in directions]
    if isinstance(mode, Exhaustive):
        _exhaustive_pre(u, rels)
        checked, cx = _check_exhaustive(u, strong, directions)
        label, passed, seed = "exhaustive", "Preserved" if src is dst else "Exchanges", None
    elif isinstance(mode, Randomized):
        _randomized_pre(u, rels)
        checked, cx = _check_randomized(u, mode, strong, directions)
        label, passed, seed = "randomized", "NoCounterexampleFound", mode.seed
    else:
        raise UnsupportedMode(f"unknown mode {mode!r}")
    return Verdict(name, passed if cx is None else "Counterexample", label, checked, cx, seed)


def _check_exhaustive(u, strong, directions) -> tuple[int, CounterexamplePair | None]:
    """Every pair of boolean matrices, in one `_boolspace.first_violation` scan."""
    sp = _boolspace.space(u.n)
    tmap = [_boolspace.act_on_bits(u.cells, m) for m in range(sp.size)]
    table_pairs = [(sp.table(src), sp.table(dst)) for src, dst in directions]
    checked, hit = _boolspace.first_violation(table_pairs, tmap, strong)
    if hit is None:
        return checked, None
    a, b, k, holds = hit
    ma, mb = sp.matrix_of(a), sp.matrix_of(b)
    return checked, _reverified_counterexample(u, ma, mb, *directions[k], holds)


def _check_randomized(
    u: UnitPermutationMap,
    mode: Randomized,
    strong: bool,
    directions: tuple[tuple[GreenRelation, GreenRelation], ...],
) -> tuple[int, CounterexamplePair | None]:
    """Seeded related (and in strong mode unrelated) pairs for each direction.

    The map is scaled once, each pair is drawn as integer grids, and each
    pair is checked by `first_counterexample` as soon as it is drawn.
    """
    rng = random.Random(mode.seed)
    smap = _tropfast.scale_map(u)
    draws = (sampling.related_grids, sampling.unrelated_grids)[: 2 if strong else 1]
    checked = 0
    for _ in range(mode.trials):
        for src, dst in directions:
            for holds, draw in zip((True, False), draws):
                pair = draw(rng, u.semifield, u.n, src)
                if pair is None:  # the unrelated draw gave up
                    continue
                checked += 1
                _, cx = first_counterexample(u, smap, [pair], src, dst, holds)
                if cx is not None:
                    return checked, cx
    return checked, None


def first_counterexample(
    u: UnitPermutationMap, smap: tuple, pairs: list, src: GreenRelation, dst: GreenRelation,
    holds: bool,
) -> tuple[int, CounterexamplePair | None]:
    """The count of ``pairs`` checked, and the first ``(a, b)`` among them
    with ``u(a) dst u(b)`` not ``holds`` as a `_reverified_counterexample`,
    or None.  Both randomized map loops decide their pairs here.

    ``smap`` is `_tropfast.scale_map(u)` and ``pairs`` holds each pair as
    ``(L, a, b)``, integer grids at one scale, as `sampling.related_grids`
    draws it.  `_tropfast.decide_images` decides every pair's images, on
    the kernel or by the reference; only a counterexample is lifted to
    matrices.
    """
    sf = u.semifield
    for checked, pair in enumerate(pairs, 1):
        if _tropfast.decide_images(sf, smap, pair, dst) != holds:
            a, b = sampling.lift_pair(sf, pair)
            return checked, _reverified_counterexample(u, a, b, src, dst, holds)
    return len(pairs), None


def _reverified_counterexample(u, a, b, src, dst, holds: bool):
    """A counterexample to ``a src b => T(a) dst T(b)`` (holds) or to its
    converse, once the reference decider agrees on premise and conclusion.
    The witness certifies whichever side is related.  The detail calls the
    images "unrelated" or "related" when src is dst, else "not dst-related"
    or "dst-related"."""
    ta, tb = apply(u, a), apply(u, b)
    _tropfast.reverify(a, b, src, holds)
    _tropfast.reverify(ta, tb, dst, not holds)
    witness = relate_witness(a, b, src) if holds else relate_witness(ta, tb, dst)
    related = "related" if src is dst else f"{dst.value}-related"
    unrelated = "unrelated" if src is dst else f"not {related}"
    premise, images = ("holds", unrelated) if holds else ("fails", related)
    detail = f"a {src.value} b {premise} but the images are {images}"
    return CounterexamplePair(a, b, ta, tb, detail, witness)


# --- sticky-matrix search ----------------------------------------------------


#: Random invertible k the randomized search tests per candidate, after
#: the square-root witness when there is one.
STICKY_K_SAMPLES = 8


@dataclass(frozen=True)
class StickyRefutation:
    """How one candidate fails: S2 (factor rank below 2) or S3 (A_k and B_k
    not H-related at k).  The candidate is kept as its integer grid at a
    scale and k as its ``(p, q)`` draws for p/q, as the search drew them;
    ``m`` and ``k`` are lifted when read."""

    semifield: Semifield
    scale: int
    grid: tuple
    failed: str  # "S2" or "S3"
    k_draws: tuple[int, int] | None
    k_is_square_root_witness: bool

    @property
    def m(self) -> Matrix:
        return _tropfast.lift(self.semifield, self.scale, self.grid)

    @property
    def k(self) -> SemifieldValue | None:
        return None if self.k_draws is None else sampling._value(self.semifield, *self.k_draws)


@dataclass(frozen=True)
class StickyReport:
    semifield: str
    mode: str
    candidates: int
    refutations: tuple[StickyRefutation, ...]
    survivor: Matrix | None
    seed: int | None = None
    generator: str | None = None

    @property
    def outcome(self) -> str:
        return "NoCandidateFound" if self.survivor is None else "CandidateSurvived"


def _sticky_pair(m: Matrix, k: SemifieldValue) -> tuple[Matrix, Matrix]:
    """``(A_k, B_k)`` as matrices: the reference form of `_sticky_grids`,
    which re-verifies a survivor."""
    (a, b), (c, d) = m.entries
    mk = semiring.mul
    sf = m.semifield
    ak = Matrix(sf, 2, 2, ((mk(a, k), b), (c, mk(d, k))))
    bk = Matrix(sf, 2, 2, ((a, mk(b, k)), (mk(c, k), d)))
    return ak, bk


def _sticky_grids(scale: int, grid: tuple, p: int, q: int) -> tuple[int, tuple, tuple]:
    """``(S, A_k, B_k)`` for the candidate ``grid`` at ``scale`` and k = p/q:
    both grids at ``S = lcm(scale, q)``, where multiplying by k adds
    ``p * (S // q)``."""
    s = lcm(scale, q)
    f, k = s // scale, p * (s // q)
    a, b, c, d = (x * f for row in grid for x in row)
    return s, ((a + k, b), (c, d + k)), ((a, b + k), (c + k, d))


def _rank_two(grid: tuple) -> bool:
    """Whether a 2x2 grid of finite entries has factor rank 2: ad != bc,
    which on the integers is ``A + D != B + C``."""
    (a, b), (c, d) = grid
    return a + d != b + c


def _square_root(semifield: Semifield, scale: int, grid: tuple) -> tuple[int, int] | None:
    """The square root of bc/(ad) for a tropical candidate ``grid`` at
    ``scale``, as ``(p, q)`` for p/q, or None where the carrier has none.

    At scale L, bc/(ad) is t/L with ``t = B + C - A - D``: its root is
    t/(2L) over tropical, and t/2 over tropical_int (L = 1) when t is even.
    """
    (a, b), (c, d) = grid
    t = b + c - a - d
    if semifield is Semifield.TROPICAL_INT:
        return None if t % 2 else (t // 2, 1)
    return t, 2 * scale


def _refute_candidate(
    semifield: Semifield, scale: int, grid: tuple, ks: list[tuple[int, int, bool]]
) -> StickyRefutation | None:
    """The refutation of the candidate ``grid`` at ``scale``: S2 when its
    factor rank is below 2, else the first k = p/q among ks, each
    ``(p, q, is_witness)``, with A_k and B_k not H-related; None if all
    survive.

    Each pair is decided as grids by `_tropfast.decide_grids`, and nothing
    is lifted.
    """
    if not _rank_two(grid):
        return StickyRefutation(semifield, scale, grid, "S2", None, False)
    for p, q, is_witness in ks:
        pair = _sticky_grids(scale, grid, p, q)
        if not _tropfast.decide_grids(semifield, *pair, GreenRelation.H):
            return StickyRefutation(semifield, scale, grid, "S3", (p, q), is_witness)
    return None


def find_sticky(semifield: Semifield, mode: Mode) -> StickyReport:
    """Search for a 2x2 matrix with invertible entries, factor rank 2, and
    A_k H B_k at every tested invertible k.  No such matrix is expected
    to exist; the report carries one refutation per candidate.

    Exhaustive() searches the boolean carrier, Randomized(seed, trials)
    a tropical one.  Both hand `_refute_candidate` each candidate as an
    integer grid at a scale, as `sampling` draws matrices, and its k as
    ``(p, q)`` draws; a candidate becomes a `Matrix` only when it survives
    or its refutation's ``m`` is read.
    """
    if not isinstance(semifield, Semifield):
        raise UnsupportedMode(f"unknown semifield {semifield!r}")
    if isinstance(mode, Exhaustive):
        if semifield is not Semifield.BOOLEAN:
            raise UnsupportedMode("exhaustive sticky search is boolean-only")
        label, seed, generator = "exhaustive", None, None
        # all ones, the boolean copy {None, 0} in max-plus: the only
        # full-support candidate, tested at k = 1
        stream = [(1, ((0, 0), (0, 0)), [(0, 1, False)])]
    elif isinstance(mode, Randomized):
        if not semifield.is_tropical:
            raise UnsupportedMode("randomized sticky search needs a tropical carrier")
        label, seed, generator = "randomized", mode.seed, sampling.GENERATOR_NAME
        stream = _random_sticky_candidates(random.Random(mode.seed), semifield, mode.trials)
    else:
        raise UnsupportedMode(f"unknown sticky search mode {mode!r}")
    refutations = []
    candidates = 0
    survivor = None
    for scale, grid, ks in stream:
        candidates += 1
        refutation = _refute_candidate(semifield, scale, grid, ks)
        if refutation is None:
            # a survivor would refute the paper, so every k is re-decided
            # on matrices by the reference first
            survivor = _tropfast.lift(semifield, scale, grid)
            for p, q, _ in ks:
                k = sampling._value(semifield, p, q)
                _tropfast.reverify(*_sticky_pair(survivor, k), GreenRelation.H, True)
            break
        refutations.append(refutation)
    return StickyReport(
        semifield.value, label, candidates, tuple(refutations), survivor, seed, generator
    )


def _random_sticky_candidates(rng: random.Random, semifield: Semifield, trials: int):
    """``trials`` seeded 2x2 candidates of invertible entries and factor
    rank 2, each as ``(L, grid, ks)``: the entries as an integer grid at the
    lcm L of their denominators, and the k list as ``(p, q, is_witness)``
    for k = p/q: the square root of bc/(ad) when it exists, then
    STICKY_K_SAMPLES random invertible k, drawn by `sampling._nonzero`."""
    for _ in range(trials):
        while True:
            scale, grid = sampling._scaled([sampling._nonzero(rng, semifield) for _ in range(4)], 2)
            if _rank_two(grid):
                break  # factor rank 1 fails S2; only rank-2 candidates count
        root = _square_root(semifield, scale, grid)
        ks = [] if root is None else [(*root, True)]
        ks.extend((*sampling._nonzero(rng, semifield), False) for _ in range(STICKY_K_SAMPLES))
        yield scale, grid, ks


# --- JSON wire formats -------------------------------------------------------

_MAP_KEYS = {"n", "semifield", "images"}
_FORM_KEYS = {"p", "q", "transposed"}


def linear_map_to_json(t: LinearMap) -> dict:
    return {
        "n": t.n,
        "semifield": t.semifield.value,
        "images": [matrix_to_json(t.images[i][j]) for i in range(t.n) for j in range(t.n)],
    }


def linear_map_from_json(obj) -> LinearMap:
    if not isinstance(obj, dict) or set(obj) != _MAP_KEYS:
        raise ParseError(f"linear map object must have exactly the keys {sorted(_MAP_KEYS)}")
    n = require_size(obj["n"], "n")
    try:
        sf = Semifield(obj["semifield"])
    except ValueError:
        raise ParseError(f"unknown semifield {obj['semifield']!r}") from None
    raw = obj["images"]
    if not isinstance(raw, list) or len(raw) != n * n:
        raise ParseError(f"expected {n * n} images, row-major over the units")
    mats = [matrix_from_json(o) for o in raw]
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ParseError("every image must be n-by-n")
        if m.semifield is not sf:
            raise ParseError("image semifield differs from the map's")
    images = tuple(tuple(mats[i * n + j] for j in range(n)) for i in range(n))
    return LinearMap(n, sf, images)


def canonical_form_to_json(c: CanonicalForm) -> dict:
    return {
        "p": monomial_to_json(c.p),
        "q": monomial_to_json(c.q),
        "transposed": c.transposed,
    }


def canonical_form_from_json(semifield: Semifield, obj) -> CanonicalForm:
    if not isinstance(obj, dict) or set(obj) != _FORM_KEYS:
        raise ParseError(f"canonical form object must have exactly the keys {sorted(_FORM_KEYS)}")
    if not isinstance(obj["transposed"], bool):
        raise ParseError("transposed must be a boolean")
    p = monomial_from_json(semifield, obj["p"])
    q = monomial_from_json(semifield, obj["q"])
    if p.n != q.n:
        raise ParseError("p and q must have the same size")
    return CanonicalForm(p, q, obj["transposed"])
