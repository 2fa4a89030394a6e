"""Invariance predicates and coarsest-refinement iteration.

A partition is invariant under a square matrix family when each matrix maps
the partition's synchrony subspace into itself.  The refinement loop below
finds the coarsest invariant partition underneath a given start partition: at
every step, each class is split according to the rows of the products
M * P(current partition), i.e. according to the per-class column sums each
element receives from each matrix.  The step is exactly the induced-partition
meet of the current partition with those product blocks, so the sequence
decreases monotonically and stabilizes on the coarsest invariant refinement
in fewer than n strict steps.

Tactical decompositions of a rectangular family are the same loop on a
square family.  A pair (A, B) of a row and a column partition is tactical
for M_1..M_r exactly when the joined coloring (the rows, then the columns,
in disjoint classes) is invariant under the block matrices
[[0, M_l], [M_l^T, 0]].  In the block family a row gets weight only from
columns and a column only from rows, so one refinement pass splits each row
class against the column coloring and each column class against the row
coloring, both from the same state; a start that separates rows from
columns keeps them apart.  :meth:`MatrixFamily.block_engine` prepares that
family straight from the sparse entries, without the (m+n)^2 matrix.
:func:`_prepare` is the one place that maps an element type onto its
engine, so :func:`cir`, :func:`cir_chain`, :func:`is_invariant` and the
lattice search take a partition or a pair alike.

Implementation notes, because this is the hot path of the whole package:
each family is prepared once into one integer engine.  Every matrix is
scaled by the lcm of its denominators (M and cM have the same invariant
partitions and tactical decompositions for c != 0), and the scaled matrices
are packed into one integer weight per nonzero entry, so a row's signature
against a coloring is a single exact integer key (see :func:`_digits`).
Families whose packed weights are all 1 (plain adjacency matrices) key
two-entry rows without a loop.
Classes are refined bucket-by-bucket, so elements already isolated in
singleton classes cost nothing.  The working coloring is the canonical
1-based one of :class:`Partition` throughout: each pass numbers the classes
by smallest member, so every step is the working list as a tuple.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .partition import Partition, PartitionPair
from .rational import RationalMatrix, transpose

Element = Union[Partition, PartitionPair]


class MatrixFamily:
    """A nonempty list of rational matrices sharing one shape.

    The order of the matrices is fixed at construction; it only affects the
    column order of intermediate product blocks, never any result.
    """

    __slots__ = ("matrices", "rows", "cols", "_engine", "_block")

    def __init__(self, matrices: Sequence):
        mats = tuple(
            m if isinstance(m, RationalMatrix) else RationalMatrix(m)
            for m in matrices
        )
        if not mats:
            raise ValueError("matrix family must contain at least one matrix")
        rows, cols = mats[0].rows, mats[0].cols
        for m in mats:
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError(
                    f"matrix shapes differ: {rows}x{cols} vs {m.rows}x{m.cols}"
                )
        self.matrices = mats
        self.rows = rows
        self.cols = cols
        self._engine = None
        self._block = None

    def __len__(self) -> int:
        return len(self.matrices)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixFamily) and self.matrices == other.matrices

    def __hash__(self) -> int:
        return hash(self.matrices)

    def __repr__(self) -> str:
        return f"MatrixFamily({len(self.matrices)} matrices, {self.rows}x{self.cols})"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MatrixFamily":
        """A family ``{"matrices": [...]}``, each item a matrix object or a
        bare ``entries`` list, or one matrix object."""
        if not isinstance(obj, dict):
            raise ValueError("expected a matrix object or a 'matrices' family")
        if "matrices" not in obj:
            return cls([RationalMatrix.from_json_dict(obj)])
        return cls([
            RationalMatrix.from_json_dict(m if isinstance(m, dict) else {"entries": m})
            for m in obj["matrices"]
        ])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transposed(self) -> "MatrixFamily":
        return MatrixFamily([transpose(m) for m in self.matrices])

    def engine(self) -> tuple:
        if self._engine is None:
            self._engine = _pack(_scaled(self.matrices), self.cols)
        return self._engine

    def block_engine(self) -> tuple:
        """The engine of the square family [[0, M_l], [M_l^T, 0]] on the
        rows followed by the columns, whose invariant partitions that
        separate rows from columns are the tactical decompositions."""
        if self._block is None:
            m, n = self.rows, self.cols
            blocks = [
                [[(m + j, x) for j, x in row] for row in rows] + _columns(rows, n)
                for rows in _scaled(self.matrices)
            ]
            self._block = _pack(blocks, m + n)
        return self._block


def _scaled(matrices: Sequence[RationalMatrix]) -> list:
    """Per matrix, its sparse rows ``[(j, x), ...]`` times the lcm of its
    denominators; this changes no invariant partition or tactical
    decomposition."""
    out = []
    for m in matrices:
        sparse = m.sparse_rows()
        d = math.lcm(*(x.denominator for row in sparse for _, x in row))
        out.append(
            [[(j, x.numerator * (d // x.denominator)) for j, x in row] for row in sparse]
        )
    return out


def _base(matrices: list) -> int:
    """2R + 1 for the largest absolute row sum R of any of the integer
    matrices, given as sparse rows: every in-weight that a row of one of
    them gives is below half of it in absolute value."""
    return 2 * max(sum(abs(x) for _, x in row) for m in matrices for row in m) + 1


def _digits(matrices: list, shift: int) -> list:
    """The sparse rows of sum_l shift**l * M_l for the integer matrices
    M_0, M_1, ..., given as sparse rows: row i lists the ``(j, x)`` with
    x != 0, in order of j.

    Why the packed integers are exact: a sum sum_k b**k * d_k of integers
    with |d_k| < b/2 for every k but the highest determines each d_k.  Two
    digit vectors that differ have a lowest differing position k, where the
    sums differ by b**k times a nonzero number below b in absolute value
    plus a multiple of b**(k+1), which is not 0.

    * :func:`_pack` takes shift B**n for B = :func:`_base` of the family,
      and the key of row i against a coloring with colors 1..n adds
      W_ij * B**(c-1) for the color c of each column j.  Its base-B digit at
      position l*n + c - 1 is the in-weight that row i of M_l gives to
      color c, below B/2 in absolute value.  So two rows have equal keys
      exactly when they give the same weight to every color under every
      matrix: the key is an exact encoding of the signature, not a hash.
    * :func:`_filter_table` takes the powers W, W², ... of the packed
      weights and shift K = :func:`_base` of every power but the highest.
      An F-weight sum_{j in S} F_ij has the in-weights under each power as
      its base-K digits, so equal F-weights mean equal in-weights under
      every power.
    * The second stage of :mod:`synclat.lattice`'s filter takes base
      2**b for the b of :func:`_filter_table`.  In each class Y it checks,
      every member after the smallest has its own power of 2**b and Y's
      smallest member minus their sum (see
      :func:`synclat.lattice._digit_places`).  The sum over S of the codes
      is then A - A': A has the F-weights from S of Y's other members as
      its digits, and A' has the F-weight from S of Y's smallest member in
      each of those digits.  Every F-weight is below 2**b / 2 in absolute
      value, so the sum is 0 exactly when every member of each Y gets the
      F-weight of Y's smallest member.
    """
    rows = []
    for i in range(len(matrices[0])):
        packed: dict = {}
        scale = 1
        for m in matrices:
            for j, x in m[i]:
                packed[j] = packed.get(j, 0) + x * scale
            scale *= shift
        rows.append(tuple(sorted((j, x) for j, x in packed.items() if x)))
    return rows


def _columns(rows: Sequence, n: int) -> list:
    """The columns of a matrix with ``n`` columns from its sparse rows:
    item j lists the ``(i, x)`` with x = M_ij != 0, in order of i."""
    cols: list = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    return cols


def _pack(matrices: list, n: int) -> tuple:
    """Pack integer matrices with ``n`` columns, given as sparse rows, into
    the engine ``(rows, pw, ones)``.

    ``rows[i]`` lists the ``(j, W_ij)`` with W_ij != 0 for the packed
    weights W = sum_l B**(l*n) * M_l, with B = :func:`_base` of the
    matrices.  ``pw[c]`` is B**(c-1) for the colors c = 1..n, and ``pw[0]``
    is a dummy 0.  The key of row i against a column coloring ``ncol`` is
    sum_j W_ij * pw[ncol[j]], an exact encoding of the weight it gives to
    each color under each matrix (see :func:`_digits`).

    When every packed weight is 1, ``ones`` is true and ``rows[i]`` holds the
    column indices alone; the key is then the plain sum of ``pw[ncol[j]]``.
    """
    base = _base(matrices)
    rows = _digits(matrices, base**n)
    ones = all(w == 1 for row in rows for _, w in row)
    if ones:
        rows = [tuple(j for j, _ in row) for row in rows]
    return (tuple(rows), (0,) + tuple(base**c for c in range(n)), ones)


def _filter_table(engine: tuple, start: Sequence[int]) -> tuple:
    """The filter ``(rows, columns, bits)`` with which :mod:`synclat.lattice`
    filters splits, for F = W + K·W² + K²·W³ and the packed weights W of
    the engine.  ``rows[i]`` lists the ``(j, F_ij)`` with F_ij != 0 in
    order of j, and ``columns[j]`` the ``(i, F_ij)`` in order of i (see
    :func:`_columns`).  ``bits`` is the least b > 0 with 2**b > 2R for the
    largest absolute row sum R of F: every in-weight a row gives is below
    2**b / 2 in absolute value, as :func:`_digits` needs of base 2**b.

    W³ is taken only if it has an entry (i, j) != 0 with
    ``start[i] == start[j]``: each class that the search splits lies inside
    one class of its start coloring, and the witness check reads no other
    entry.  On the block engine from {rows | columns}, W³ maps each side to
    the other, so F stays W + K·W².  K is the :func:`_base` of the powers
    below the highest one taken, so that F's integers are exact (see
    :func:`_digits`).
    """
    rows, _, ones = engine
    if ones:
        rows = [[(j, 1) for j in row] for row in rows]
    powers = [rows]
    for _ in range(2):  # W², then W³ = W·W²
        last = powers[-1]
        power = []
        for row in rows:
            weights: dict = {}
            for j, w in row:
                for t, x in last[j]:
                    weights[t] = weights.get(t, 0) + w * x
            power.append([(t, x) for t, x in weights.items() if x])
        powers.append(power)
    if not any(start[i] == start[j] for i, row in enumerate(powers[2]) for j, _ in row):
        powers.pop()
    table = tuple(_digits(powers, _base(powers[:-1])))
    return table, _columns(table, len(table)), _base([table]).bit_length()


def _split_pass(engine: tuple, classes: list, ncol: list, guard: int = 0) -> tuple:
    """One refinement pass: split every class by row key.

    ``ncol`` maps a matrix column index to its canonical 1-based color (the
    coloring being refined, or for :func:`directed_containment` the column
    coloring).  Members of a sorted class stay together exactly when their
    keys (see :func:`_pack`) are equal; the new classes are sorted, in order
    of their first member.  Returns ``(new_classes, changed)`` and mutates
    nothing, so every class is split against the same state.

    The first ``guard`` classes are the guarded ones of
    :func:`_square_fixpoint`: the pass stops at the first of them that
    splits and returns ``(None, True)``.
    """
    rows, pw, ones = engine
    out = []
    changed = False
    for index, members in enumerate(classes):
        if len(members) < 2:
            out.append(members)
            continue
        buckets: dict = {}
        for i in members:
            row = rows[i]
            if not ones:
                key = 0
                for j, w in row:
                    key += w * pw[ncol[j]]
            elif len(row) == 2:
                key = pw[ncol[row[0]]] + pw[ncol[row[1]]]
            else:
                key = 0
                for j in row:
                    key += pw[ncol[j]]
            got = buckets.get(key)
            if got is None:
                buckets[key] = [i]
            else:
                got.append(i)
        if len(buckets) == 1:
            out.append(members)
        elif index < guard:
            return None, True
        else:
            changed = True
            out.extend(buckets.values())
    return out, changed


def _start_state(coloring: Sequence[int]) -> tuple:
    """The working state ``(col, classes)`` of a canonical coloring, with
    ``classes[c - 1]`` the sorted members of color c."""
    col = list(coloring)
    classes: list = [[] for _ in range(max(col))]
    for i, c in enumerate(col):
        classes[c - 1].append(i)
    return col, classes


def _square_fixpoint(
    engine: tuple,
    col: list,
    classes: list,
    on_step: Optional[Callable[[tuple], None]] = None,
    witness: Optional[int] = None,
) -> Optional[tuple]:
    """Refine the working state ``(col, classes)``, with ``col`` updated in
    place, and return the fixed point.  ``col`` is canonical and each class
    sorted, in any order: each strict step sorts the classes by smallest
    member and numbers them from 1, so ``col`` stays canonical.

    ``on_step`` gets ``tuple(col)`` for the start and each strict step; the
    last one is the result, so a start that the first pass leaves unchanged
    is returned as the tuple already reported.

    ``witness`` is a member x0 of the start that is the smallest of its
    class.  The guarded classes are the class of x0 and the classes whose
    smallest members are below x0; the canonical ``col`` gives them the
    colors 1..col[x0], and ``classes`` lists them first.  The pass stops at
    the first of them that splits, and the refinement returns None without
    reporting that step.  Every other class has its smallest member above
    x0, so a step that splits no guarded class sorts them first again.
    """
    n = len(col)
    guard = 0 if witness is None else col[witness]
    step = tuple(col)
    if on_step is not None:
        on_step(step)
    for _ in range(n + 1):
        if len(classes) == n:
            break
        classes, changed = _split_pass(engine, classes, col, guard)
        if not changed:
            break
        if classes is None:
            return None
        classes.sort()  # distinct smallest members decide the order
        for label, members in enumerate(classes, 1):
            for i in members:
                col[i] = label
        step = tuple(col)
        if on_step is not None:
            on_step(step)
    else:
        raise AssertionError(
            "refinement failed to stabilize within the ground-set size; "
            "this indicates an internal invariant violation"
        )
    return step


def _prepare(family: MatrixFamily, part: Element) -> tuple:
    """``(engine, start coloring, decode)`` for a partition (its own coloring
    on the square family) or a pair (its joined coloring on the block
    family); ``decode`` maps a canonical coloring back to the element type.
    A size or shape mismatch raises :class:`ValueError`."""
    if isinstance(part, PartitionPair):
        if part.shape != (family.rows, family.cols):
            raise ValueError(
                f"pair shape {part.shape} does not match family shape "
                f"({family.rows}, {family.cols})"
            )
        decode = partial(PartitionPair._from_joined, m=family.rows)
        return family.block_engine(), part.joined(), decode
    if not family.is_square:
        raise ValueError(
            f"square matrix family required, got {family.rows}x{family.cols}"
        )
    if part.n != family.cols:
        raise ValueError(
            f"partition of {part.n} elements does not match family size {family.cols}"
        )
    return family.engine(), part.coloring, Partition._from_canonical


def cir(family: MatrixFamily, start: Element) -> Element:
    """Coarsest invariant refinement: the unique coarsest partition that is
    invariant under every matrix of the family and refines ``start``.  For a
    pair, the paper's generalization to a (possibly rectangular) family: the
    coarsest tactical decomposition that refines it coordinatewise."""
    engine, coloring, decode = _prepare(family, start)
    return decode(_square_fixpoint(engine, *_start_state(coloring)))


def cir_chain(family: MatrixFamily, start: Element) -> list:
    """The refinement iteration from ``start`` down to its fixed point.

    Element 0 is ``start``, each following element is one strictly
    finer step, and the last element is ``cir(family, start)``; ``start``
    may be a pair, as in :func:`cir`.
    """
    engine, coloring, decode = _prepare(family, start)
    chain: list = []
    _square_fixpoint(engine, *_start_state(coloring), lambda c: chain.append(decode(c)))
    return chain


def is_invariant(family: MatrixFamily, part: Element) -> bool:
    """True iff the synchrony subspace of ``part`` is mapped into itself by
    every matrix of the family (one refinement pass changes nothing).  A
    pair is invariant when it is tactical: the family maps the column
    synchrony subspace into the row one, and its transpose the reverse."""
    engine, coloring, _ = _prepare(family, part)
    col, classes = _start_state(coloring)
    return not _split_pass(engine, classes, col)[1]


def directed_containment(
    family: MatrixFamily, row_part: Partition, col_part: Partition
) -> bool:
    """True iff every matrix maps the synchrony subspace of ``col_part`` into
    the synchrony subspace of ``row_part`` (one pass over the row classes
    against the column coloring splits nothing)."""
    if row_part.n != family.rows or col_part.n != family.cols:
        raise ValueError(
            f"partition sizes ({row_part.n}, {col_part.n}) do not match "
            f"family shape {family.rows}x{family.cols}"
        )
    _, classes = _start_state(row_part.coloring)
    _, changed = _split_pass(family.engine(), classes, col_part.coloring)
    return not changed


def is_tactical(family: MatrixFamily, pair: PartitionPair) -> bool:
    """True iff the pair is a tactical decomposition of the family."""
    return is_invariant(family, pair)


def tactical_cir(family: MatrixFamily, pair: PartitionPair) -> PartitionPair:
    """Coarsest tactical refinement below ``pair``."""
    return cir(family, pair)


def tactical_cir_chain(family: MatrixFamily, pair: PartitionPair) -> list:
    """Step-by-step tactical refinement from ``pair`` to its fixed point."""
    return cir_chain(family, pair)
