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
partition lattice, so covers are not inherited from the ambient lattice.
They come from the search instead.  Let L be a lower cover of an element E.
On some side L splits a class of E; split that class in two along a union of
L's classes.  The cir of that start lies between L and E and is strictly
below E, so it is L.  Hence the lower covers of E are exactly the maximal
elements among the cir results of E's one-class splits, which the search
computes anyway.  The argument is the same for pair splits.
"""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Optional, Union

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
    holds the sorted (coarser_index, finer_index) pairs into ``elements``
    such that the finer element is a lower cover of the coarser one within
    the element set (see the module docstring for how they are found).
    """

    elements: tuple
    cover_edges: tuple
    stats: LatticeStats

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        return item in self._index

    @cached_property
    def _index(self) -> dict:
        return {element: i for i, element in enumerate(self.elements)}

    @property
    def is_tactical(self) -> bool:
        return bool(self.elements) and isinstance(self.elements[0], PartitionPair)

    def bars(self) -> list:
        return [e.bar() for e in self.elements]

    def index_of(self, element: Element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ValueError(f"{element!r} is not in the lattice") from None

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
    found, stats, edges = _search(
        (family.engine(),), (family.cols,), workers, element_cap, visited_cap
    )
    elements = tuple(Partition._from_canonical(c) for (c,) in found)
    return InvariantLattice(elements, edges, stats)


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
    found, stats, edges = _search(
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
    return InvariantLattice(elements, edges, stats)


def _search(
    engines: tuple, sides: tuple, workers: int, element_cap: int, visited_cap: int
) -> tuple:
    """Split and cir from the one-class element; returns the sorted elements
    (one canonical coloring per side), the stats and the cover edges as
    sorted (coarser, finer) index pairs into the elements.

    With one engine the elements are invariant partitions; with the engines
    of a family and of its transpose they are tactical pairs.  The lower
    covers of a popped element are the maxima of the fixpoints of all its
    splits, taken once the last of its tasks has returned.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    visited = _VisitedSet(visited_cap, sides) if workers == 1 else None
    top = _fixpoint(engines, tuple(tuple([1] * s) for s in sides), visited)
    seen = {top: top}  # the one stored instance of each element
    covers = []  # (coarser, finer) pairs of instances stored in seen
    splits = 0
    popped = 0

    def discover(batch) -> list:
        fresh = [e for e in batch if e not in seen]
        for element in fresh:
            seen[element] = element
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
            element = queue.popleft()
            below: dict = {}
            for task in expand(element):
                found = _run_task(engines, task, visited)
                below.update(found)
                queue.extend(discover(found))
                queue_peak = max(queue_peak, len(queue))
            covers.extend((element, seen[cover]) for cover in _maxima(below))
    else:
        queue_peak = 0
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(engines,)
        )
        pending: dict = {}  # future -> the element it splits
        open_elements: dict = {}  # element -> [tasks outstanding, fixpoints so far]

        def submit(element: tuple) -> None:
            tasks = expand(element)
            if tasks:
                open_elements[element] = [len(tasks), {}]
            for task in tasks:
                pending[pool.submit(_pool_run_task, task)] = element

        try:
            submit(top)
            while pending:
                queue_peak = max(queue_peak, len(pending))
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    element = pending.pop(fut)
                    found = fut.result()
                    for fresh in discover(found):
                        submit(fresh)
                    entry = open_elements[element]
                    entry[0] -= 1
                    entry[1].update(found)
                    if not entry[0]:
                        del open_elements[element]
                        covers.extend(
                            (element, seen[cover]) for cover in _maxima(entry[1])
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
    elements = sorted(seen)
    index = {element: i for i, element in enumerate(elements)}
    edges = tuple(sorted((index[coarse], index[fine]) for coarse, fine in covers))
    return elements, stats, edges


def _maxima(candidates: Iterable[tuple]) -> list:
    """The candidates (one canonical coloring per side) that refine no other
    candidate.  A strictly finer element has strictly more classes, so each
    candidate is compared only with the maxima that have fewer classes."""
    maxima: list = []
    for _, group in groupby(sorted(candidates, key=_class_count), _class_count):
        coarser = tuple(maxima)
        maxima += [c for c in group if not any(_refines(c, m) for m in coarser)]
    return maxima


def _class_count(element: tuple) -> int:
    # a canonical coloring's largest color is its number of classes
    return sum(map(max, element))


def _refines(fine: tuple, coarse: tuple) -> bool:
    """True iff every class of ``fine`` lies inside a class of ``coarse``,
    side by side; both are canonical colorings."""
    return all(len(set(zip(f, c))) == max(f) for f, c in zip(fine, coarse))


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

    The subset is still closed under joins and still contains the
    all-singletons bottom, so it is a lattice in its own right.  A down-set is
    convex (everything between two of its elements is in it), so its cover
    edges are the parent's edges with both ends kept.  Stats are inherited
    from the enumeration that built the parent.
    """
    if lattice.is_tactical:
        raise TypeError("filter_below applies to partition lattices, not pair lattices")
    if lattice.elements and lattice.elements[0].n != top.n:
        raise ValueError(
            f"filter partition has {top.n} elements, lattice ground set has "
            f"{lattice.elements[0].n}"
        )
    renumber = {}
    for i, element in enumerate(lattice.elements):
        if element.refines(top):
            renumber[i] = len(renumber)
    kept = tuple(lattice.elements[i] for i in renumber)
    edges = tuple(
        (renumber[i], renumber[j])
        for i, j in lattice.cover_edges
        if i in renumber and j in renumber
    )
    return InvariantLattice(kept, edges, lattice.stats)
