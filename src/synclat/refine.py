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
rows are preprocessed once per family into neighbor lists.  When every entry
is a small nonnegative integer ("unit" mode, the adjacency-matrix case) the
row signature is just the sorted tuple of neighbor colors, with the entry
value acting as arrow multiplicity.  Otherwise ("general" mode) signatures
are per-color sums with exact zero cancellation.  Classes are refined
bucket-by-bucket, so elements already isolated in singleton classes cost
nothing, and colorings stay as plain integer lists until the final
canonicalization.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .partition import Partition, PartitionPair, canonical_coloring
from .rational import RationalMatrix

_UNIT_ENTRY_CAP = 8  # expand integer entries up to this multiplicity

_UNIT = 0
_GENERAL = 1


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
    """Preprocess matrices into (mode, per-matrix per-row neighbor data)."""
    unit = True
    for m in matrices:
        for row in m.entries:
            for x in row:
                if x.denominator != 1 or not 0 <= x <= _UNIT_ENTRY_CAP:
                    unit = False
                    break
            if not unit:
                break
        if not unit:
            break
    if unit:
        rows = tuple(
            tuple(
                tuple(
                    j
                    for j, x in enumerate(row)
                    for _ in range(int(x))
                )
                for row in m.entries
            )
            for m in matrices
        )
        return (_UNIT, rows)
    rows = tuple(
        tuple(
            tuple(
                (j, int(x) if x.denominator == 1 else x)
                for j, x in enumerate(row)
                if x
            )
            for row in m.entries
        )
        for m in matrices
    )
    return (_GENERAL, rows)


def _signature_unit(mats, i: int, ncol: list) -> tuple:
    parts = []
    for rows in mats:
        cs = [ncol[j] for j in rows[i]]
        cs.sort()
        parts.append(tuple(cs))
    return tuple(parts)


def _signature_general(mats, i: int, ncol: list) -> tuple:
    parts = []
    for rows in mats:
        acc: dict = {}
        get = acc.get
        for j, w in rows[i]:
            c = ncol[j]
            acc[c] = get(c, 0) + w
        parts.append(tuple(sorted((c, v) for c, v in acc.items() if v)))
    return tuple(parts)


def _split_pass(engine: tuple, classes: list, ncol: list) -> tuple:
    """One refinement pass: split every class by row signature.

    ``ncol`` maps a matrix column index to its current color (for the square
    iteration this is the same coloring being refined; for the tactical
    iteration it is the opposite side's coloring).  Returns
    ``(new_classes, changed)`` and mutates nothing, so both sides of a
    tactical step can be computed from the same state before either is
    applied.
    """
    mode, mats = engine
    out = []
    changed = False
    if mode == _UNIT and len(mats) == 1:
        rows0 = mats[0]
        for members in classes:
            if len(members) < 2:
                out.append(members)
                continue
            buckets: dict = {}
            for i in members:
                nb = rows0[i]
                ln = len(nb)
                if ln == 2:
                    a = ncol[nb[0]]
                    b = ncol[nb[1]]
                    key = (a, b) if a <= b else (b, a)
                elif ln == 1:
                    key = (ncol[nb[0]],)
                elif ln == 0:
                    key = ()
                else:
                    cs = [ncol[j] for j in nb]
                    cs.sort()
                    key = tuple(cs)
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

    sig = _signature_unit if mode == _UNIT else _signature_general
    for members in classes:
        if len(members) < 2:
            out.append(members)
            continue
        buckets = {}
        for i in members:
            key = sig(mats, i, ncol)
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


def cir_coloring(family: MatrixFamily, coloring: Sequence[int]) -> tuple:
    """Raw-coloring variant of :func:`cir` for hot loops: takes and returns a
    canonical 1-based coloring tuple."""
    col, classes = _start_state(coloring)
    _square_fixpoint(family.engine(), col, classes)
    return canonical_coloring(col)


def cir(family: MatrixFamily, start: Partition) -> Partition:
    """Coarsest invariant refinement: the unique coarsest partition that is
    invariant under every matrix of the family and refines ``start``."""
    _check_square(family, start)
    return Partition._from_canonical(cir_coloring(family, start.coloring))


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


def _psi_coloring(engine: tuple, m: int, ncol: list) -> list:
    """Induced partition of {0..m-1} by full row signatures (0-based)."""
    mode, mats = engine
    sig = _signature_unit if mode == _UNIT else _signature_general
    buckets: dict = {}
    out = [0] * m
    for i in range(m):
        key = sig(mats, i, ncol)
        label = buckets.get(key)
        if label is None:
            label = len(buckets)
            buckets[key] = label
        out[i] = label
    return out


def directed_containment(
    family: MatrixFamily, row_part: Partition, col_part: Partition
) -> bool:
    """True iff every matrix maps the synchrony subspace of ``col_part`` into
    the synchrony subspace of ``row_part``."""
    if row_part.n != family.rows or col_part.n != family.cols:
        raise ValueError(
            f"partition sizes ({row_part.n}, {col_part.n}) do not match "
            f"family shape {family.rows}x{family.cols}"
        )
    ncol = [c - 1 for c in col_part.coloring]
    psi = _psi_coloring(family.engine(), family.rows, ncol)
    image: dict = {}
    for ca, cpsi in zip(row_part.coloring, psi):
        prev = image.setdefault(ca, cpsi)
        if prev != cpsi:
            return False
    return True


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
