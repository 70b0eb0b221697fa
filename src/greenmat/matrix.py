"""Dense matrices over a fixed semifield, and monomial matrices.

Matrices are immutable; entries live in one declared semifield.  The
only invertible elements of the n-by-n matrix monoid over these
semifields are the monomial matrices (one nonzero entry per row and per
column), which get their own compact (permutation, scales)
representation so they are invertible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semiring
from .semiring import (
    MixedSemifields,
    ParseError,
    Semifield,
    SemifieldValue,
    format_value,
    parse_value,
)


class DimensionMismatch(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


class ZeroCoefficient(ValueError):
    pass


class NotMonomial(ValueError):
    """The matrix has no inverse: some row or column is not exactly singly supported."""


@dataclass(frozen=True)
class Matrix:
    semifield: Semifield
    rows: int
    cols: int
    entries: tuple[tuple[SemifieldValue, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("matrix dimensions must be positive")
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged entry rows")
            for e in row:
                if e.semifield is not self.semifield:
                    raise MixedSemifields("entry from a different semifield")

    def entry(self, i: int, j: int) -> SemifieldValue:
        return self.entries[i][j]

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_value(e) for e in row) for row in self.entries
        )
        return f"<{self.semifield.value} {self.rows}x{self.cols} [{body}]>"


def from_rows(semifield: Semifield, raw_rows) -> Matrix:
    """Build a matrix from raw payload rows (ints, Fractions, MINUS_INF)."""
    entries = tuple(
        tuple(semiring.value(semifield, x) for x in row) for row in raw_rows
    )
    return Matrix(semifield, len(entries), len(entries[0]) if entries else 0, entries)


def zero_matrix(semifield: Semifield, rows: int, cols: int) -> Matrix:
    z = semiring.zero(semifield)
    return Matrix(semifield, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))


def identity(semifield: Semifield, n: int) -> Matrix:
    z, o = semiring.zero(semifield), semiring.one(semifield)
    return Matrix(
        semifield, n, n,
        tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
    )


def unit_matrix(n: int, i: int, j: int, c: SemifieldValue) -> Matrix:
    """The n-by-n matrix with c in 1-based position (i, j) and zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"position ({i},{j}) outside [1,{n}]^2")
    if semiring.is_zero(c):
        raise ZeroCoefficient("unit matrices carry a nonzero coefficient")
    z = semiring.zero(c.semifield)
    return Matrix(
        c.semifield, n, n,
        tuple(
            tuple(c if (r, s) == (i - 1, j - 1) else z for s in range(n))
            for r in range(n)
        ),
    )


def _check_compatible(a: Matrix, b: Matrix) -> None:
    if a.semifield is not b.semifield:
        raise MixedSemifields(f"{a.semifield.value} vs {b.semifield.value}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_compatible(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    add, mul = semiring.add, semiring.mul
    bt = tuple(zip(*b.entries))
    out = []
    for arow in a.entries:
        out_row = []
        for bcol in bt:
            acc = mul(arow[0], bcol[0])
            for x, y in zip(arow[1:], bcol[1:]):
                acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return Matrix(a.semifield, a.rows, b.cols, tuple(out))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _check_compatible(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("entrywise sum of unequal shapes")
    return Matrix(
        a.semifield, a.rows, a.cols,
        tuple(
            tuple(semiring.add(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries)
        ),
    )


def scalar_mul(c: SemifieldValue, a: Matrix) -> Matrix:
    if c.semifield is not a.semifield:
        raise MixedSemifields("scalar from a different semifield")
    return Matrix(
        a.semifield, a.rows, a.cols,
        tuple(tuple(semiring.mul(c, x) for x in row) for row in a.entries),
    )


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.semifield, a.cols, a.rows, tuple(zip(*a.entries)))


def is_zero_matrix(a: Matrix) -> bool:
    return all(semiring.is_zero(x) for row in a.entries for x in row)


def all_boolean_matrices(rows: int, cols: int):
    """All boolean rows-by-cols matrices in a fixed total order.

    Matrix number ``k`` has a one in cell (r, c) exactly when bit
    ``r*cols + c`` of ``k`` is set, so the zero matrix comes first and
    the all-ones matrix last.  This order is the canonical one used by
    every exhaustive search and rendering in the package.
    """
    z = semiring.zero(Semifield.BOOLEAN)
    o = semiring.one(Semifield.BOOLEAN)
    for k in range(1 << (rows * cols)):
        yield Matrix(
            Semifield.BOOLEAN, rows, cols,
            tuple(
                tuple(o if (k >> (r * cols + c)) & 1 else z for c in range(cols))
                for r in range(rows)
            ),
        )


@dataclass(frozen=True)
class MonomialMatrix:
    """An invertible matrix: column i holds scale[i] in row perm[i].

    perm is a permutation of range(n) and every scale entry is nonzero,
    so the dense expansion has exactly one nonzero entry per row and per
    column.
    """

    n: int
    perm: tuple[int, ...]
    scale: tuple[SemifieldValue, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("monomial matrices have positive size")
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError(f"perm {self.perm} is not a permutation of range({self.n})")
        if len(self.scale) != self.n:
            raise DimensionMismatch("need one scale per column")
        sf = self.scale[0].semifield
        for s in self.scale:
            if s.semifield is not sf:
                raise MixedSemifields("mixed scale entries")
            if semiring.is_zero(s):
                raise ZeroCoefficient("monomial scales must be invertible")

    @property
    def semifield(self) -> Semifield:
        return self.scale[0].semifield


def monomial_identity(semifield: Semifield, n: int) -> MonomialMatrix:
    o = semiring.one(semifield)
    return MonomialMatrix(n, tuple(range(n)), tuple(o for _ in range(n)))


def monomial_expand(m: MonomialMatrix) -> Matrix:
    z = semiring.zero(m.semifield)
    grid = [[z] * m.n for _ in range(m.n)]
    for col, row in enumerate(m.perm):
        grid[row][col] = m.scale[col]
    return Matrix(m.semifield, m.n, m.n, tuple(tuple(r) for r in grid))


def try_monomial(a: Matrix) -> MonomialMatrix:
    """Recognize an invertible matrix, raising NotMonomial otherwise."""
    if a.rows != a.cols:
        raise NotMonomial("only square matrices can be invertible")
    n = a.rows
    perm = [-1] * n
    scale: list[SemifieldValue | None] = [None] * n
    for i in range(n):
        hits = [j for j in range(n) if not semiring.is_zero(a.entries[i][j])]
        if len(hits) != 1:
            raise NotMonomial(f"row {i} has {len(hits)} nonzero entries")
        j = hits[0]
        if scale[j] is not None:
            raise NotMonomial(f"column {j} has two nonzero entries")
        perm[j] = i
        scale[j] = a.entries[i][j]
    return MonomialMatrix(n, tuple(perm), tuple(scale))  # type: ignore[arg-type]


def monomial_inverse(m: MonomialMatrix) -> MonomialMatrix:
    """The unique two-sided inverse: invert the permutation and the scales."""
    perm = [0] * m.n
    scale: list[SemifieldValue] = [semiring.one(m.semifield)] * m.n
    for col, row in enumerate(m.perm):
        perm[row] = col
        scale[row] = semiring.inv(m.scale[col])
    return MonomialMatrix(m.n, tuple(perm), tuple(scale))


# --- JSON wire format ---------------------------------------------------

_MATRIX_KEYS = {"semifield", "rows", "cols", "entries"}

#: The largest number of rows or columns the JSON readers accept (also
#: the largest n of a linear map).  Deciding a relation is cubic in the
#: side, in exact rational operations: at this limit a tropical H with
#: 1000-digit entries takes seconds, not minutes.
MAX_MATRIX_SIDE = 16


def _semifield_from_name(name) -> Semifield:
    try:
        return Semifield(name)
    except ValueError:
        raise ParseError(f"unknown semifield {name!r}") from None


def require_size(x, what: str) -> int:
    """x as a matrix side: an int from 1 to MAX_MATRIX_SIDE."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ParseError(f"{what} must be a positive integer, got {x!r}")
    if x > MAX_MATRIX_SIDE:
        raise ParseError(f"{what} must be at most {MAX_MATRIX_SIDE}, got {x}")
    return x


def matrix_to_json(a: Matrix) -> dict:
    return {
        "semifield": a.semifield.value,
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[format_value(e) for e in row] for row in a.entries],
    }


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict) or set(obj) != _MATRIX_KEYS:
        raise ParseError(f"matrix object must have exactly the keys {sorted(_MATRIX_KEYS)}")
    sf = _semifield_from_name(obj["semifield"])
    rows = require_size(obj["rows"], "rows")
    cols = require_size(obj["cols"], "cols")
    raw = obj["entries"]
    if not isinstance(raw, list) or len(raw) != rows:
        raise ParseError(f"expected {rows} entry rows")
    entries = []
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"expected entry rows of length {cols}")
        entries.append(tuple(parse_value(sf, e) for e in row))
    return Matrix(sf, rows, cols, tuple(entries))


def monomial_to_json(m: MonomialMatrix) -> dict:
    return {
        "perm": list(m.perm),
        "scale": [format_value(s) for s in m.scale],
    }


def monomial_from_json(semifield: Semifield, obj) -> MonomialMatrix:
    if not isinstance(obj, dict) or set(obj) != {"perm", "scale"}:
        raise ParseError("monomial object must have exactly the keys ['perm', 'scale']")
    perm = obj["perm"]
    scale = obj["scale"]
    if not isinstance(perm, list) or not isinstance(scale, list) or len(perm) != len(scale) or not perm:
        raise ParseError("perm and scale must be nonempty lists of equal length")
    for p in perm:
        if isinstance(p, bool) or not isinstance(p, int):
            raise ParseError("perm entries must be integers")
    try:
        return MonomialMatrix(
            len(perm), tuple(perm), tuple(parse_value(semifield, s) for s in scale)
        )
    except (ValueError, DimensionMismatch) as exc:
        raise ParseError(str(exc)) from None
