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

The same machinery, run on both sides of a rectangular family (the family on
the column partition, the transposed family on the row partition, both sides
advanced simultaneously from the step-k state), yields the coarsest tactical
refinement.

Implementation notes, because this is the hot path of the whole package:
each family is prepared once into one integer engine.  Every matrix is
scaled by the lcm of its denominators (M and cM have the same invariant
partitions and tactical decompositions for c != 0), and the scaled matrices
are packed into one integer weight per nonzero entry, so a row's signature
against a coloring is a single exact integer key (see :func:`_prepare`).
Families whose packed weights are all 1 (plain adjacency matrices) key short
rows without a loop.
Classes are refined bucket-by-bucket, so elements already isolated in
singleton classes cost nothing, and colorings stay as plain integer lists
until the final canonicalization.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .partition import Partition, PartitionPair, canonical_coloring
from .rational import RationalMatrix


class MatrixFamily:
    """A nonempty list of rational matrices sharing one shape.

    The order of the matrices is fixed at construction; it only affects the
    column order of intermediate product blocks, never any result.
    """

    __slots__ = ("matrices", "rows", "cols", "_engine", "_transposed")

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
        self._transposed = None

    def __len__(self) -> int:
        return len(self.matrices)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixFamily) and self.matrices == other.matrices

    def __hash__(self) -> int:
        return hash(self.matrices)

    def __repr__(self) -> str:
        return f"MatrixFamily({len(self.matrices)} matrices, {self.rows}x{self.cols})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transposed(self) -> "MatrixFamily":
        if self._transposed is None:
            from .rational import transpose

            fam = MatrixFamily([transpose(m) for m in self.matrices])
            fam._transposed = self
            self._transposed = fam
        return self._transposed

    def engine(self) -> tuple:
        if self._engine is None:
            self._engine = _prepare(self.matrices)
        return self._engine


def _prepare(matrices: Sequence[RationalMatrix]) -> tuple:
    """Pack a family into the integer engine ``(rows, pw, ones)``.

    Each matrix M_l is scaled by the lcm of its denominators; this changes no
    invariant partition or tactical decomposition.  With N columns, R the largest absolute row sum of
    any scaled matrix and B = 2R + 1, entry (i, j) of the family becomes the
    weight W_ij = sum_l M_l[i][j] * B**(l*N), and ``rows[i]`` lists the
    ``(j, W_ij)`` with W_ij != 0.  ``pw[c]`` is B**c.

    The key of row i against a column coloring ``ncol`` (colors below N) is
    sum_j W_ij * pw[ncol[j]].  Its base-B digit at position l*N + c is the
    exact in-weight s(l, c) that row i of M_l gives to color c, and
    |s(l, c)| <= R < B/2.  Two such digit vectors that differ have a lowest
    differing position k, where the difference of the keys is B**k times a
    nonzero number below B in absolute value plus a multiple of B**(k+1),
    hence nonzero.  So two rows have equal keys exactly when they give the
    same weight to every color under every matrix: the key is an exact
    encoding of the signature, not a hash.

    When every packed weight is 1, ``ones`` is true and ``rows[i]`` holds the
    column indices alone; the key is then the plain sum of ``pw[ncol[j]]``.
    """
    n = matrices[0].cols
    scaled = []
    for m in matrices:
        d = math.lcm(*(x.denominator for row in m.entries for x in row))
        scaled.append(
            [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]
        )
    bound = max(sum(abs(x) for x in row) for m in scaled for row in m)
    base = 2 * bound + 1
    shift = base**n
    rows = []
    for i in range(matrices[0].rows):
        packed = [0] * n
        scale = 1
        for m in scaled:
            for j, x in enumerate(m[i]):
                if x:
                    packed[j] += x * scale
            scale *= shift
        rows.append(tuple((j, w) for j, w in enumerate(packed) if w))
    ones = all(w == 1 for row in rows for _, w in row)
    if ones:
        rows = [tuple(j for j, _ in row) for row in rows]
    return (tuple(rows), tuple(base**c for c in range(n)), ones)


def _split_pass(engine: tuple, classes: list, ncol: list) -> tuple:
    """One refinement pass: split every class by row key.

    ``ncol`` maps a matrix column index to its current 0-based color (for the
    square iteration this is the same coloring being refined; for the
    tactical iteration it is the opposite side's coloring).  Members of a
    class stay together exactly when their keys (see :func:`_prepare`) are
    equal, and the new classes come in order of their first member.  Returns
    ``(new_classes, changed)`` and mutates nothing, so both sides of a
    tactical step can be computed from the same state before either is
    applied.
    """
    rows, pw, ones = engine
    out = []
    changed = False
    for members in classes:
        if len(members) < 2:
            out.append(members)
            continue
        buckets: dict = {}
        if ones:
            for i in members:
                nb = rows[i]
                ln = len(nb)
                if ln == 2:
                    key = pw[ncol[nb[0]]] + pw[ncol[nb[1]]]
                elif ln == 1:
                    key = pw[ncol[nb[0]]]
                elif ln == 0:
                    key = 0
                else:
                    key = 0
                    for j in nb:
                        key += pw[ncol[j]]
                got = buckets.get(key)
                if got is None:
                    buckets[key] = [i]
                else:
                    got.append(i)
        else:
            for i in members:
                key = 0
                for j, w in rows[i]:
                    key += w * pw[ncol[j]]
                got = buckets.get(key)
                if got is None:
                    buckets[key] = [i]
                else:
                    got.append(i)
        if len(buckets) == 1:
            out.append(members)
        else:
            changed = True
            out.extend(buckets.values())
    return out, changed


def _apply_classes(classes: list, col: list) -> None:
    for label, members in enumerate(classes):
        for i in members:
            col[i] = label


def _classes_of(col: list) -> list:
    k = max(col) + 1
    classes: list = [[] for _ in range(k)]
    for i, c in enumerate(col):
        classes[c].append(i)
    return classes


def _start_state(coloring: Sequence[int]) -> tuple:
    """(col, classes) working state from a 1-based canonical coloring."""
    col = [c - 1 for c in coloring]
    return col, _classes_of(col)


def _square_fixpoint(
    engine: tuple,
    col: list,
    classes: list,
    on_step: Optional[Callable[[list], None]] = None,
) -> list:
    """Run refinement to its fixed point in place; returns final classes."""
    n = len(col)
    for _ in range(n + 1):
        if len(classes) == n:
            return classes
        new_classes, changed = _split_pass(engine, classes, col)
        if not changed:
            return classes
        classes = new_classes
        _apply_classes(classes, col)
        if on_step is not None:
            on_step(col)
    raise AssertionError(
        "refinement failed to stabilize within the ground-set size; "
        "this indicates an internal invariant violation"
    )


def cir(family: MatrixFamily, start: Partition) -> Partition:
    """Coarsest invariant refinement: the unique coarsest partition that is
    invariant under every matrix of the family and refines ``start``."""
    _check_square(family, start)
    col, classes = _start_state(start.coloring)
    _square_fixpoint(family.engine(), col, classes)
    return Partition._from_canonical(canonical_coloring(col))


def cir_chain(family: MatrixFamily, start: Partition) -> list:
    """The refinement iteration from ``start`` down to its fixed point.

    Element 0 is ``start`` itself, each following element is one strictly
    finer step, and the last element is ``cir(family, start)``.
    """
    _check_square(family, start)
    chain = [start.coloring]
    col, classes = _start_state(start.coloring)
    _square_fixpoint(
        family.engine(), col, classes, on_step=lambda c: chain.append(canonical_coloring(c))
    )
    return [Partition._from_canonical(c) for c in chain]


def is_invariant(family: MatrixFamily, part: Partition) -> bool:
    """True iff the synchrony subspace of ``part`` is mapped into itself by
    every matrix of the family (one refinement pass changes nothing)."""
    _check_square(family, part)
    col, classes = _start_state(part.coloring)
    _, changed = _split_pass(family.engine(), classes, col)
    return not changed


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
    ncol = [c - 1 for c in col_part.coloring]
    _, changed = _split_pass(family.engine(), classes, ncol)
    return not changed


def is_tactical(family: MatrixFamily, pair: PartitionPair) -> bool:
    """True iff the pair is a tactical decomposition of the family: the
    family maps the column synchrony subspace into the row one and the
    transposed family maps the row one into the column one."""
    _check_shape(family, pair)
    return directed_containment(
        family, pair.row_part, pair.col_part
    ) and directed_containment(family.transposed(), pair.col_part, pair.row_part)


def tactical_fixpoint_colorings(
    fwd: tuple,
    bwd: tuple,
    ca: Sequence[int],
    cb: Sequence[int],
    on_step: Optional[Callable[[list, list], None]] = None,
) -> tuple:
    """Raw tactical refinement on the engines of a family (``fwd``) and of
    its transpose (``bwd``); takes 1-based row and column labelings and
    returns canonical coloring tuples.

    Both sides advance from the same step-k state: the row side is split by
    the family against the step-k column coloring, the column side by the
    transposed family against the step-k row coloring, and only then are both
    updates applied.
    """
    col_a, classes_a = _start_state(ca)
    col_b, classes_b = _start_state(cb)
    m, n = len(col_a), len(col_b)
    for _ in range(m + n + 1):
        new_a, changed_a = _split_pass(fwd, classes_a, col_b)
        new_b, changed_b = _split_pass(bwd, classes_b, col_a)
        if not changed_a and not changed_b:
            return canonical_coloring(col_a), canonical_coloring(col_b)
        if changed_a:
            classes_a = new_a
            _apply_classes(classes_a, col_a)
        if changed_b:
            classes_b = new_b
            _apply_classes(classes_b, col_b)
        if on_step is not None:
            on_step(col_a, col_b)
    raise AssertionError(
        "tactical refinement failed to stabilize; internal invariant violation"
    )


def tactical_cir(family: MatrixFamily, pair: PartitionPair) -> PartitionPair:
    """Coarsest tactical refinement below ``pair``: the coarsest tactical
    decomposition of the family that refines ``pair`` coordinatewise."""
    _check_shape(family, pair)
    ca, cb = tactical_fixpoint_colorings(
        *_tactical_engines(family), pair.row_part.coloring, pair.col_part.coloring
    )
    return PartitionPair(
        Partition._from_canonical(ca), Partition._from_canonical(cb)
    )


def tactical_cir_chain(family: MatrixFamily, pair: PartitionPair) -> list:
    """Step-by-step tactical refinement from ``pair`` to its fixed point."""
    _check_shape(family, pair)
    chain = [(pair.row_part.coloring, pair.col_part.coloring)]
    tactical_fixpoint_colorings(
        *_tactical_engines(family),
        pair.row_part.coloring,
        pair.col_part.coloring,
        on_step=lambda a, b: chain.append(
            (canonical_coloring(a), canonical_coloring(b))
        ),
    )
    return [
        PartitionPair(Partition._from_canonical(a), Partition._from_canonical(b))
        for a, b in chain
    ]


def _tactical_engines(family: MatrixFamily) -> tuple:
    return family.engine(), family.transposed().engine()


def _check_square(family: MatrixFamily, part: Partition) -> None:
    if not family.is_square:
        raise ValueError(
            f"square matrix family required, got {family.rows}x{family.cols}"
        )
    if part.n != family.cols:
        raise ValueError(
            f"partition of {part.n} elements does not match family size {family.cols}"
        )


def _check_shape(family: MatrixFamily, pair: PartitionPair) -> None:
    if pair.shape != (family.rows, family.cols):
        raise ValueError(
            f"pair shape {pair.shape} does not match family shape "
            f"({family.rows}, {family.cols})"
        )
