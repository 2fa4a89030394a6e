"""Enumeration of the full lattice of invariant partitions (or tactical
decompositions) of a matrix family, by split and cir.

One search serves both.  An element is a tuple of canonical colorings, one
per side: the ground set of a square family, or the rows and the columns of
a possibly rectangular one.  The search starts from the refinement fixpoint
of the one-class element, then repeatedly pops an element, forms every lower
cover by splitting one class of one side in two, and runs the refinement
fixpoint (cir) on each cover.  Every fixpoint is invariant (tactical, for two
sides); a seen-set of elements ensures each is expanded at most once.  Since
every invariant element below a popped one is reachable through some cover,
the search is exhaustive.

The splits of an element are cut into tasks ``(element, side, class color,
mask lo, mask hi)``.  With one worker the tasks run inline, in queue order;
with more they run in a process pool, submitted as soon as their element is
found.  Results are set-valued and order-independent, so the output is
identical for any worker count.

Invariant partitions form a lattice but not a sublattice of the full
partition lattice: meets differ, so cover edges are recomputed here by
transitive reduction of refinement restricted to the enumerated elements
rather than inherited from the ambient lattice.
"""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .partition import Partition, PartitionPair, _split_labels, canonical_coloring
from .refine import (
    MatrixFamily,
    _square_fixpoint,
    _start_state,
    _tactical_engines,
    tactical_fixpoint_colorings,
)

_TASK_CHUNK = 4096  # cover masks per worker task

Element = Union[Partition, PartitionPair]


class ElementCapExceeded(RuntimeError):
    """Raised when enumeration finds more elements than the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"invariant lattice exceeds the element cap ({count} > {cap})"
        )
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class LatticeStats:
    """Instrumentation collected during enumeration.

    ``visited_partitions`` counts the distinct partitions materialized during
    the whole run: the start partition, every split candidate, and every
    intermediate step of every refinement chain (pairs of partitions for a
    tactical lattice).  It is collected exactly in every ``workers == 1``
    run, square or tactical (up to ``visited_cap``, after which
    ``visited_exact`` drops to False); multi-worker runs report None since
    unioning the per-worker sets would dwarf the actual computation.

    ``queue_peak`` measures the element queue in sequential mode and the
    outstanding task set in worker mode (where it can vary with scheduling;
    elements and cover edges never do).
    """

    cir_calls: int = 0
    splits_examined: int = 0
    queue_peak: int = 0
    popped: int = 0
    visited_partitions: Optional[int] = None
    visited_exact: bool = False

    def to_json_dict(self) -> dict:
        return {
            "cir_calls": self.cir_calls,
            "splits_examined": self.splits_examined,
            "queue_peak": self.queue_peak,
            "popped": self.popped,
            "visited_partitions": self.visited_partitions,
            "visited_exact": self.visited_exact,
        }


@dataclass(frozen=True)
class InvariantLattice:
    """The enumerated elements plus their cover relation.

    ``elements`` is sorted by lexicographic coloring vector (row coloring
    first for pairs), so the coarsest element found from the one-class seed
    comes first and the all-singletons bottom comes last.  ``cover_edges``
    holds (coarser_index, finer_index) pairs into ``elements`` and is the
    transitive reduction of refinement restricted to the element set.
    """

    elements: tuple
    cover_edges: tuple
    stats: LatticeStats

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        return item in set(self.elements)

    @property
    def is_tactical(self) -> bool:
        return bool(self.elements) and isinstance(self.elements[0], PartitionPair)

    def bars(self) -> list:
        return [e.bar() for e in self.elements]

    def index_of(self, element: Element) -> int:
        return self.elements.index(element)

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.is_tactical:
            out["m"], out["n"] = self.elements[0].shape
        elif self.elements:
            out["n"] = self.elements[0].n
        out["count"] = len(self.elements)
        out["elements"] = [
            e.to_json_dict() if isinstance(e, PartitionPair) else list(e.coloring)
            for e in self.elements
        ]
        out["bar"] = self.bars()
        out["cover_edges"] = [list(edge) for edge in self.cover_edges]
        out["stats"] = self.stats.to_json_dict()
        return out


def hasse_edges(elements: Sequence[Element]) -> list:
    """Transitive reduction of refinement restricted to ``elements``.

    Returns (coarser_index, finer_index) pairs.  Needed because the
    enumerated set is generally not cover-closed in the ambient partition
    lattice: two elements can have strictly intermediate partitions that are
    not invariant, making them covers here but not there.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("hasse_edges expects pairwise distinct elements")
    k = len(elements)
    below = [0] * k  # bitmask: below[i] has bit j iff elements[j] < elements[i]
    for i in range(k):
        ei = elements[i]
        mask = 0
        for j in range(k):
            if i != j and elements[j].refines(ei):
                mask |= 1 << j
        below[i] = mask
    edges = []
    for i in range(k):
        mask = below[i]
        through = 0
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            through |= below[j]
            m &= m - 1
        covers = mask & ~through
        while covers:
            j = (covers & -covers).bit_length() - 1
            edges.append((i, j))
            covers &= covers - 1
    edges.sort()
    return edges


class _VisitedSet:
    """Distinct-partition tracker with a saturation cap."""

    def __init__(self, cap: int, sides: tuple):
        self.cap = cap
        self.items: set = set()
        self.exact = True
        # colors are bounded by the side length, so byte strings are a
        # compact set key
        self.compact = max(sides) < 256

    def add(self, element: tuple) -> None:
        """Add an element given as one canonical coloring per side."""
        if self.exact:
            self.items.add(b"\x00".join(map(bytes, element)) if self.compact else element)
            if len(self.items) > self.cap:
                self.exact = False

    def record(self, *labelings) -> None:
        """Add the element given by one labeling per side."""
        if self.exact:
            self.add(tuple(map(canonical_coloring, labelings)))


def invariant_lattice(
    family: MatrixFamily,
    *,
    workers: int = 1,
    element_cap: int = 10**6,
    visited_cap: int = 2 * 10**6,
) -> InvariantLattice:
    """All partitions invariant under every matrix of the square family.

    ``workers`` > 1 distributes the cover refinements over processes; the
    result is identical for any worker count.  ``element_cap`` bounds the
    number of lattice elements (the lattice can be the whole partition
    lattice, which grows like the Bell numbers) and trips
    :class:`ElementCapExceeded` when exceeded.
    """
    if not family.is_square:
        raise ValueError(
            f"invariant_lattice needs a square family, got {family.rows}x{family.cols}"
        )
    found, stats = _search(
        (family.engine(),), (family.cols,), workers, element_cap, visited_cap
    )
    elements = tuple(Partition._from_canonical(c) for (c,) in found)
    return InvariantLattice(elements, tuple(hasse_edges(elements)), stats)


def tactical_lattice(
    family: MatrixFamily,
    *,
    element_cap: int = 10**6,
    visited_cap: int = 2 * 10**6,
    workers: int = 1,
) -> InvariantLattice:
    """All tactical decompositions of a (possibly rectangular) family.

    Same search as :func:`invariant_lattice` with pair covers (split one
    class on either side) and the two-sided refinement fixpoint, and the
    same use of ``workers``.  The pair of all-singletons partitions is always
    tactical, so the lattice is never empty.
    """
    found, stats = _search(
        _tactical_engines(family),
        (family.rows, family.cols),
        workers,
        element_cap,
        visited_cap,
    )
    elements = tuple(
        PartitionPair(Partition._from_canonical(a), Partition._from_canonical(b))
        for a, b in found
    )
    return InvariantLattice(elements, tuple(hasse_edges(elements)), stats)


def _search(
    engines: tuple, sides: tuple, workers: int, element_cap: int, visited_cap: int
) -> tuple:
    """Split and cir from the one-class element; returns the sorted elements
    (one canonical coloring per side) and the stats.

    With one engine the elements are invariant partitions; with the engines
    of a family and of its transpose they are tactical pairs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    visited = _VisitedSet(visited_cap, sides) if workers == 1 else None
    top = _fixpoint(engines, tuple(tuple([1] * s) for s in sides), visited)
    seen = {top}
    splits = 0
    popped = 0

    def discover(batch) -> list:
        fresh = [e for e in batch if e not in seen]
        for element in fresh:
            seen.add(element)
            if len(seen) > element_cap:
                raise ElementCapExceeded(len(seen), element_cap)
        return fresh

    def expand(element: tuple) -> list:
        nonlocal splits, popped
        popped += 1
        tasks = list(_split_tasks(element))
        splits += sum(hi - lo for *_, lo, hi in tasks)
        return tasks

    if workers == 1:
        queue = deque([top])
        queue_peak = 1
        while queue:
            for task in expand(queue.popleft()):
                queue.extend(discover(_run_task(engines, task, visited)))
                queue_peak = max(queue_peak, len(queue))
    else:
        queue_peak = 0
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(engines,)
        )
        try:
            pending = {pool.submit(_pool_run_task, t) for t in expand(top)}
            while pending:
                queue_peak = max(queue_peak, len(pending))
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    for element in discover(fut.result()):
                        pending.update(
                            pool.submit(_pool_run_task, t) for t in expand(element)
                        )
        finally:
            pool.shutdown(cancel_futures=True)
    stats = LatticeStats(
        cir_calls=1 + splits,
        splits_examined=splits,
        queue_peak=queue_peak,
        popped=popped,
        visited_partitions=len(visited.items) if visited is not None else None,
        visited_exact=visited is not None and visited.exact,
    )
    return sorted(seen), stats


def _split_tasks(element: tuple) -> Iterable[tuple]:
    """``(element, side, class color, mask lo, mask hi)`` ranges covering
    every one-class split of every side, in ``_TASK_CHUNK`` masks each."""
    for side, coloring in enumerate(element):
        for color, size in Counter(coloring).items():
            end = 1 << (size - 1)
            for lo in range(1, end, _TASK_CHUNK):
                yield (element, side, color, lo, min(lo + _TASK_CHUNK, end))


def _run_task(
    engines: tuple, task: tuple, visited: Optional[_VisitedSet] = None
) -> dict:
    """Refine every split of one task; returns the distinct fixpoints in
    order of first appearance."""
    element, side, color, lo, hi = task
    found: dict = {}
    for labels in _split_labels(element[side], color, lo, hi):
        if visited is not None:
            # visited keys are canonical, as the other sides already are
            labels = canonical_coloring(labels)
        start = element[:side] + (labels,) + element[side + 1 :]
        found[_fixpoint(engines, start, visited)] = None
    return found


def _fixpoint(
    engines: tuple, start: tuple, visited: Optional[_VisitedSet] = None
) -> tuple:
    """cir of a start element given by one 1-based labeling per side, as one
    canonical coloring per side.  ``visited`` gets the start, which must then
    be canonical, and every refinement step."""
    record = None
    if visited is not None:
        visited.add(start)
        record = visited.record
    if len(start) == 1:
        col, classes = _start_state(start[0])
        _square_fixpoint(engines[0], col, classes, record)
        return (canonical_coloring(col),)
    return tactical_fixpoint_colorings(*engines, *start, on_step=record)


# Pool workers receive the engines once, through the initializer, instead of
# with every task.
_WORKER_ENGINES = None


def _pool_init(engines: tuple) -> None:
    global _WORKER_ENGINES
    _WORKER_ENGINES = engines


def _pool_run_task(task: tuple) -> dict:
    return _run_task(_WORKER_ENGINES, task)


def filter_below(lattice: InvariantLattice, top: Partition) -> InvariantLattice:
    """Restrict a partition lattice to the down-set of ``top``.

    Cover edges are recomputed for the restricted set.  The subset is still
    closed under joins and still contains the all-singletons bottom, so it is
    a lattice in its own right.  Stats are inherited from the enumeration
    that built the parent.
    """
    if lattice.is_tactical:
        raise TypeError("filter_below applies to partition lattices, not pair lattices")
    if lattice.elements and lattice.elements[0].n != top.n:
        raise ValueError(
            f"filter partition has {top.n} elements, lattice ground set has "
            f"{lattice.elements[0].n}"
        )
    kept = tuple(e for e in lattice.elements if e.refines(top))
    return InvariantLattice(kept, tuple(hasse_edges(kept)), lattice.stats)
