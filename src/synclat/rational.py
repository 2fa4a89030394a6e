"""Dense exact-rational matrices and the few linear-algebra primitives we need.

Every entry is a ``fractions.Fraction`` (arbitrary precision, always in lowest
terms), so equality tests are exact.  The whole point of working over the
rationals is that partition refinement keys on *exact* row equality; floating
point would silently merge or split classes.

Column-space containment is decided by fraction-free (integer) Gaussian
elimination after clearing denominators column by column, which keeps
intermediate entries integral and of bounded size on the sparse 0/1 inputs
that dominate in practice.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, str, Fraction]

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


# Fractions are immutable, so the entries of sparse 0/1 matrices share these
# two instead of building one per entry.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _to_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction; reject floats."""
    if isinstance(x, bool):
        raise TypeError("boolean is not a matrix entry")
    if isinstance(x, int):
        return _ZERO if x == 0 else _ONE if x == 1 else Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if not _RAT_RE.match(x.strip()):
            raise ValueError(f"not an integer or p/q rational: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


def _index(x) -> int:
    """An integer read from outside input: an index, a size or a declared
    count.  Floats and booleans are rejected, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer index, size or count, got {x!r}")
    return x


def _check_declared(obj: dict, key: str, actual: int) -> None:
    """A count that a JSON object may declare must be an integer equal to
    what it counts."""
    if key in obj and _index(obj[key]) != actual:
        raise ValueError(f"declared {key}={obj[key]} but the input has {actual}")


def _row(row):
    """A matrix row; a string would otherwise be read digit by digit."""
    if isinstance(row, str):
        raise ValueError(f"matrix rows must be lists of entries, not the string {row!r}")
    return row


class RationalMatrix:
    """Immutable dense matrix over the rationals.

    ``entries`` is a tuple of row tuples.  Rows and columns are 0-indexed in
    code; the 1-based convention of the surrounding theory only shows up in
    partition colorings.
    """

    __slots__ = ("rows", "cols", "entries", "_sparse_rows")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        if isinstance(entries, str):
            raise ValueError(f"matrix entries must be a list of rows, not the string {entries!r}")
        grid = tuple(tuple(map(_to_fraction, _row(row))) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and one column")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged rows: all rows must have the same length")
        self.rows = len(grid)
        self.cols = cols
        self.entries = grid
        self._sparse_rows = None

    def __getitem__(self, i: int) -> tuple:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def sparse_rows(self) -> tuple:
        """Per-row tuples of (column, value) over the nonzero entries."""
        cached = self._sparse_rows
        if cached is None:
            cached = tuple(
                tuple((j, x) for j, x in enumerate(row) if x)
                for row in self.entries
            )
            self._sparse_rows = cached
        return cached

    def to_json_dict(self) -> dict:
        def emit(x: Fraction):
            return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[emit(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RationalMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("matrix JSON must be an object with an 'entries' field")
        for row in obj["entries"]:
            for x in row:
                if isinstance(x, float):
                    raise ValueError("float matrix entries are not accepted; use 'p/q' strings")
        mat = cls(obj["entries"])
        _check_declared(obj, "rows", mat.rows)
        _check_declared(obj, "cols", mat.cols)
        return mat


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zeros(m: int, n: int) -> RationalMatrix:
    return RationalMatrix([[0] * n for _ in range(m)])


def transpose(matrix: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(list(zip(*matrix.entries)))


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Plain product, summed over the nonzero entries of both factors.

    It knows nothing of colorings, so it stays the independent reference for
    the coloring-vector product below and for the refinement engine.
    """
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_rows = b.sparse_rows()
    out = []
    for a_row in a.sparse_rows():
        acc = [0] * b.cols
        for k, x in a_row:
            for j, y in b_rows[k]:
                acc[j] += x * y
        out.append(acc)
    return RationalMatrix(out)


def augment(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    """Horizontal concatenation of matrices with equal row counts."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("augment needs at least one block")
    m = blocks[0].rows
    if any(b.rows != m for b in blocks):
        raise ValueError("all blocks must have the same number of rows")
    return RationalMatrix(
        [sum((blk.entries[i] for blk in blocks), ()) for i in range(m)]
    )


def colored_product(matrix: RationalMatrix, coloring: Sequence[int]) -> RationalMatrix:
    """Product of ``matrix`` with the characteristic matrix of the partition
    whose coloring vector is ``coloring``, without materializing it.

    ``coloring`` holds 1-based class indices; the result has one column per
    class.  Equivalent to ``matmul(matrix, characteristic_matrix(p))``: column
    a of the result sums the columns of ``matrix`` whose index has color a.
    """
    coloring = tuple(coloring)
    if len(coloring) != matrix.cols:
        raise ValueError(
            f"coloring length {len(coloring)} does not match {matrix.cols} columns"
        )
    if any(_index(c) < 1 for c in coloring):
        raise ValueError("coloring entries must be positive integers")
    k = max(coloring)
    out = [[Fraction(0)] * k for _ in range(matrix.rows)]
    for i, row in enumerate(matrix.sparse_rows()):
        oi = out[i]
        for j, x in row:
            oi[coloring[j] - 1] += x
    return RationalMatrix(out)


def _integer_grid(matrix_rows: Sequence[Sequence[Fraction]], cols: range) -> list:
    """Clear denominators column by column (column scaling by a positive
    integer preserves the column space)."""
    out_cols = []
    for j in cols:
        col = [row[j] for row in matrix_rows]
        scale = math.lcm(*(x.denominator for x in col)) if col else 1
        out_cols.append([int(x * scale) for x in col])
    return [list(col) for col in zip(*out_cols)]


def _pivot_columns(grid: list) -> list:
    """Pivot columns of an integer matrix, by fraction-free (Bareiss)
    elimination.  ``grid`` is destroyed."""
    m = len(grid)
    ncols = len(grid[0]) if m else 0
    pivots = []
    piv_r = 0
    denom = 1
    for c in range(ncols):
        pivot_row = None
        for r in range(piv_r, m):
            if grid[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != piv_r:
            grid[piv_r], grid[pivot_row] = grid[pivot_row], grid[piv_r]
        p = grid[piv_r][c]
        top = grid[piv_r]
        for r in range(piv_r + 1, m):
            row = grid[r]
            f = row[c]
            # Bareiss update applies to every row, including f == 0, or the
            # exactness of later integer divisions breaks.
            for cc in range(c + 1, ncols):
                row[cc] = (p * row[cc] - f * top[cc]) // denom
            row[c] = 0
        denom = p
        pivots.append(c)
        piv_r += 1
        if piv_r == m:
            break
    return pivots


def rank(matrix: RationalMatrix) -> int:
    grid = _integer_grid(matrix.entries, range(matrix.cols))
    return len(_pivot_columns(grid))


def column_space_contains(r: RationalMatrix, q: RationalMatrix) -> bool:
    """True iff every column of ``q`` is a linear combination of columns of
    ``r``, i.e. Col(q) is a subspace of Col(r).

    Eliminates the augmented matrix [r | q]; containment holds exactly when no
    pivot lands in the q block.
    """
    if r.rows != q.rows:
        raise ValueError(f"row counts differ: {r.rows} vs {q.rows}")
    joined = [r.entries[i] + q.entries[i] for i in range(r.rows)]
    grid = _integer_grid(joined, range(r.cols + q.cols))
    pivots = _pivot_columns(grid)
    return all(c < r.cols for c in pivots)
