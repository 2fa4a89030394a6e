"""Enumeration of the full lattice of invariant partitions (or tactical
decompositions) of a matrix family, by split and cir.

One search serves both.  It starts from the refinement fixpoint (cir) of a
start coloring and keeps one queue of elements: for every element it pops,
it splits one class in two in each way that can witness a lower cover (see
below) and runs cir on each split, and the new fixpoints join the end of
the queue.  Every fixpoint is invariant, and a seen-set of elements ensures
each is expanded at most once.  Every invariant element below an expanded
one is reachable through some cover, so the search finds exactly the
invariant partitions below cir(start): with the one-class start, all of
them; with the cell types of a network, its balanced partitions.

A tactical decomposition (A, B) of a rectangular family is one coloring of
the rows followed by the columns: it is tactical exactly when that joined
coloring is invariant under the square block family [[0, M_l], [M_l^T, 0]]
(see :mod:`synclat.refine`).  The split {rows | columns} lies above every
such coloring, and splitting a class of a joined coloring splits one class
on one side, so the tactical lattice is the same search on the block engine
from that start (:func:`synclat.refine._prepare` maps a pair onto it).
Canonical joined colorings number the row classes first, so their order is
the order of (row, column) pairs.

The search runs in one process and expands the elements in order of
discovery: its FIFO queue is the part of the discovery list after the
element being expanded.  Covers are kept as pairs of discovery indices and
mapped to sorted order once, at the end.

Invariant partitions form a lattice but not a sublattice of the full
partition lattice, so covers are not inherited from the ambient lattice.
They come from the search instead.  Let L be a lower cover of an element E.
Let X be the first class of E (in order of smallest member) that L splits,
x0 the smallest member of X and S the class of L that holds x0, so S is not
all of X.  Split X into S and X minus S; call that start Q.  L refines Q, so
L <= cir(Q) <= Q < E, and cir(Q) = L.
So every lower cover is the cir of a split of one class X into some S that
holds x0 and the rest, and two conditions single out the splits that can
give one:

* Filter.  L is invariant, so each matrix M_l maps its synchrony subspace V
  into V, and so does every linear combination of the M_l and of their
  products.  A matrix F that maps V into V maps the indicator of the class S
  into V, so every i in S gets the same in-weight sum_{j in S} F_ij from S.
  The search takes F = W + K·W² + K²·W³ (see
  :func:`synclat.refine._filter_table`), where W is the engine's packed
  family and W² and W³ its exact integer powers.  An in-weight under F has
  the in-weights under W, W² and W³ as its exact digits in base K (see
  :func:`synclat.refine._digits`), and S passes when all three are uniform
  on S.  Every X lies inside one class of the start, so the check on S
  reads no entry of W³ whose ends the start keeps apart.  When the start
  keeps apart the ends of every nonzero entry of W³, F is W + K·W²: so it
  is on the tactical search, whose W³ maps rows to columns.  Any F that
  maps V into V gives a sound filter; the exact digits only make this one
  stronger.  L splits no class Y of E before X, so each such Y is a class
  of L too, and F maps the indicator of S to a vector constant on Y: every
  member of Y gets the same F-weight sum_{j in S} F_yj from S.  A second
  stage checks that on every earlier class with two or more members, as
  one exact sum of per-member codes: each member j of X has the code d_j =
  sum_i F_ij·c_i over F's column j (:func:`synclat.refine._filter_table`),
  where each member of Y after the smallest has its own digit c_i, a power
  of 2**b, and Y's smallest member minus their sum, and S passes exactly
  when sum_{j in S} d_j = 0.  The width b of the digits keeps them exact
  (see :func:`synclat.refine._digits`).  Only splits that pass both stages
  are refined.
* Guard.  Every step P of the refinement chain from Q satisfies
  L <= P <= Q, so S and every class of E before X stay whole in every step.
  A chain whose step splits S or a class of E before X is abandoned and its
  result dropped.  Those guarded classes come first in every state of the
  chain, so the refinement pass stops at the first of them that splits.

Nothing is lost.  Every lower cover of E is still found, from its own X and
S, and every kept result is strictly below E and so below some lower cover;
the lower covers of E are therefore exactly the maximal elements among its
kept results.  A strictly finer partition has more classes, so when all
kept results have one class count (as for every element of K_n) they are
all maximal.  A kept result splits X and no class before it, and S is its
class of x0, so it is kept from one split only and no two chains of E end
in the same result (a canonical construction path, after McKay 1998).
The argument of the second stage holds for any kept result in place of L,
so that stage skips only splits whose chains the guard would drop.
Every element is reached from the top through covers, so the elements are
the same too.  A split Q that is already an element is invariant, so
cir(Q) = Q with no step, and the guard holds: the refinement would return Q
itself.  So :func:`_run_task` numbers Q canonically and looks it up among
the elements already found before the second stage or a pass.  Q still
counts as a refined split, since its cir is known exactly, and was reported
as the last step of the refinement that found it.  On K_n every split is an
element, so the search refines each element once.  Q is a kept result
itself, so it would pass the second stage too, and the counts do not depend
on what is known.

The S that pass the filter are found by lazy backtracking over X in
breadth-first order from x0: a member of S is checked once it and all its
in-neighbours in X are decided.  The backtracking is one loop over an
explicit stack, so a class of any size is searched without recursion.  When
the weights inside X are uniform (one diagonal value d, and either no
off-diagonal weight or one value w on every off-diagonal pair), each i in S
gets d + (|S| - 1)w, every S passes, and the splits are the plain masks
without checks.  That holds for every class of K_n, since W = J - I and its
powers, such as W² = (n - 2)J + I, are uniform on every class.  A class of a
tactical search lies on one side and gets no weight from it under W, but
under W² = diag(M M^T, M^T M) it does.  Uniformity reads only the weights
inside X, so it depends only on X's members: each search keeps the member
tuples of the classes it found uniform and does not read their weights
again.  It stores a uniform class's list of splits from the second visit
on, so a large class seen once is never held as a list.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Container, Iterator, Optional

from .partition import Partition, PartitionPair, _bars, _class_splits, _refines
from .refine import (
    Element,
    MatrixFamily,
    _filter_table,
    _prepare,
    _square_fixpoint,
    _start_state,
)

_VISITED_CAP = 2 * 10**6  # distinct partitions tracked before visited_exact drops


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

    ``visited_partitions`` counts the distinct partitions that the refinements
    of the whole run report: the start of each (the search's start and every
    split that was refined) and each strict step before the guard of the
    module docstring abandons it (pairs of partitions for a tactical
    lattice).  It is exact up to 2·10^6 partitions, after which
    ``visited_exact`` drops to False.

    ``queue_peak`` is the longest the search's FIFO queue grows: the
    elements found and not yet popped, after each popped element's new
    fixpoints join it.

    ``splits_examined`` counts the one-class splits that were refined and
    ``splits_pruned`` those that either stage of the filter skipped: the
    members of the witness S, or of a class before the split one, get
    unequal F-weights from S (see the module docstring).  Together they are
    the sum of 2^(s-1) - 1 over the classes of every element.  A
    split that is already an element is answered without a refinement pass
    but counts as examined, since its cir is known exactly.  ``cir_calls``
    is ``splits_examined`` plus the top.

    The counts describe the search that ran: for balanced and exo-balanced
    partitions, the search below the cell types, not the whole lattice.
    """

    cir_calls: int = 0
    splits_examined: int = 0
    splits_pruned: int = 0
    queue_peak: int = 0
    popped: int = 0
    visited_partitions: int = 0
    visited_exact: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


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
        """The bar notation of every element, in order."""
        if not self.is_tactical:
            return _bars([e.coloring for e in self.elements])
        rows = _bars([e.row_part.coloring for e in self.elements])
        cols = _bars([e.col_part.coloring for e in self.elements])
        return [f"({r}, {c})" for r, c in zip(rows, cols)]

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


def invariant_lattice(family: MatrixFamily, **kwargs) -> InvariantLattice:
    """All partitions invariant under every matrix of the square family.

    The keywords are those of :func:`_invariant_below`.  ``element_cap``
    bounds the number of lattice elements (the lattice can be the whole
    partition lattice, which grows like the Bell numbers) and trips
    :class:`ElementCapExceeded` when exceeded.
    """
    return _invariant_below(family, Partition.singleton(family.cols), **kwargs)


def _invariant_below(
    family: MatrixFamily, top: Element, *, element_cap: int = 10**6, workers: int = 1
) -> InvariantLattice:
    """The invariant partitions (tactical pairs, for a pair ``top``) that
    refine ``top``, found by split and cir from cir(top) on the engine and
    canonical start coloring of :func:`synclat.refine._prepare`; the
    element cap and the stats count only that down-set.

    Every front end reaches this function.  ``workers`` must be at least 1
    and otherwise changes nothing: the search runs in this process.  The
    keyword stays only because ``bench/run.py`` passes it, and goes once the
    benchmark stops passing it.

    The elements are expanded one at a time in order of discovery, so each
    task looks up every element found before it and each element's lower
    covers are the maxima of its kept fixpoints.  The elements come out
    sorted by coloring, with the cover edges as sorted (coarser, finer)
    index pairs into them.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    engine, start, decode = _prepare(family, top)
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    # the canonical colorings that refinements report; colors are bounded by
    # the ground-set size, so byte strings are a compact set key, and the set
    # stops growing one item past the cap
    visited: set = set()
    cap, compact = _VISITED_CAP, len(start) < 256

    def on_step(coloring: tuple) -> None:
        if len(visited) <= cap:
            visited.add(bytes(coloring) if compact else coloring)

    first = _square_fixpoint(engine, *_start_state(start), on_step)
    # the elements in order of discovery; the queue is the part after the
    # element being expanded, and seen maps each element to its index here
    order = [first]
    seen = {first: 0}
    covers = []  # (coarser, finer) discovery indices
    splits = pruned = 0
    split_filter = _filter_table(engine, start)
    uniform: dict = {}
    queue_peak = 1
    for e, element in enumerate(order):
        found, examined, skipped = _run_task(
            engine, split_filter, seen, uniform, element, on_step
        )
        splits += examined
        pruned += skipped
        for fixpoint in found:
            if fixpoint not in seen:
                seen[fixpoint] = len(order)
                order.append(fixpoint)
                if len(order) > element_cap:
                    raise ElementCapExceeded(len(order), element_cap)
        queue_peak = max(queue_peak, len(order) - 1 - e)
        covers += [(e, seen[cover]) for cover in _maxima(found)]
    stats = LatticeStats(
        cir_calls=1 + splits,
        splits_examined=splits,
        splits_pruned=pruned,
        queue_peak=queue_peak,
        popped=len(order),  # every element found is expanded once
        visited_partitions=len(visited),
        visited_exact=len(visited) <= _VISITED_CAP,
    )
    # rank[e]: the place of discovery index e in sorted order
    ranked = sorted(range(len(order)), key=order.__getitem__)
    rank = [0] * len(order)
    for r, e in enumerate(ranked):
        rank[e] = r
    edges = tuple(sorted([(rank[coarse], rank[fine]) for coarse, fine in covers]))
    return InvariantLattice(tuple(decode(order[e]) for e in ranked), edges, stats)


def tactical_lattice(family: MatrixFamily, **kwargs) -> InvariantLattice:
    """All tactical decompositions of a (possibly rectangular) family.

    The search of :func:`invariant_lattice` on the block family
    [[0, M_l], [M_l^T, 0]] from the split {rows | columns}, with the same
    keywords.  The pair of all-singletons partitions is always tactical, so
    the lattice is never empty.
    """
    return _invariant_below(
        family, PartitionPair.singleton(family.rows, family.cols), **kwargs
    )


def _maxima(candidates: list) -> list:
    """The canonical colorings among the candidates that refine no other
    candidate.  A strictly finer element has strictly more classes (a
    canonical coloring's largest color), so candidates with the fewest
    classes are maxima, and each other candidate is compared only with the
    maxima that have fewer classes than it; when all have one count, all
    are maxima unchecked."""
    counts = list(map(max, candidates))
    if not counts or min(counts) == max(counts):
        return candidates
    maxima: list = []
    ranked = sorted(zip(counts, candidates), key=itemgetter(0))
    for _, group in groupby(ranked, itemgetter(0)):
        coarser = maxima.copy()
        maxima += [c for _, c in group if not any(_refines(c, m) for m in coarser)]
    return maxima


def _run_task(
    engine: tuple,
    split_filter: tuple,
    known: Container[tuple],
    uniform: dict,
    element: tuple,
    on_step: Optional[Callable[[tuple], None]] = None,
) -> tuple:
    """Refine the splits of one element that pass both stages of the
    filter ``(table, back, bits)`` of :func:`synclat.refine._filter_table`:
    S on F's rows ``table`` (see :func:`_witnesses`, which reads and fills
    the memo ``uniform``), then the earlier classes on F's columns
    ``back``.  Returns the fixpoints of the chains that the guard kept, in
    order, the number of splits refined and the number the two stages
    skipped.

    A split keeps the witness S, which holds X's smallest member, in the
    place of its class X and puts X minus S among the classes by smallest
    member, so its start is canonical: the classes after X minus S move one
    color up, in a coloring built once per insertion point and copied for
    each split.  A start in ``known`` (elements already found) is answered
    by lookup, with no pass.  Any other split goes on only if every class
    before X with two or more members gets one F-weight from S (a member
    with no entry gets 0); a split that fails could only start a chain that
    the guard drops.  That check is one exact sum: each member j of X has
    the code d_j of :func:`_member_code`, made at its first check with the
    digits ``bits`` wide of :func:`_digit_places`, and the split passes
    exactly when sum_{j in S} d_j is 0 (see :func:`synclat.refine._digits`).
    """
    table, back, bits = split_filter
    col, classes = _start_state(element)
    smallest = [members[0] for members in classes]
    bases: dict = {}  # at -> col with the colors above at moved one up
    found = []  # distinct: each kept result names its own split
    examined = 0
    codes = None  # j -> d_j, from the element's first check of earlier classes
    for color, members in enumerate(classes):
        if len(members) < 2:
            continue
        for inside, outside in _witnesses(table, col, members, uniform):
            at = bisect(smallest, outside[0])
            base = bases.get(at)
            if base is None:
                base = bases[at] = [c + (c > at) for c in col]
            split_col = base.copy()
            for i in outside:
                split_col[i] = at + 1
            start = tuple(split_col)
            if start in known:
                fixpoint = start
            else:
                if color:
                    if codes is None:
                        codes = {}
                        place, lowest = _digit_places(classes, bits)
                    total = 0
                    for j in inside:
                        code = codes.get(j)
                        if code is None:
                            code = codes[j] = _member_code(back[j], col, color, place, lowest)
                        total += code
                    if total:
                        continue  # pruned: the guard would drop its chain
                split_classes = classes.copy()
                split_classes[color] = inside
                split_classes.append(outside)
                fixpoint = _square_fixpoint(
                    engine, split_col, split_classes, on_step, members[0]
                )
            examined += 1
            if fixpoint is not None:
                found.append(fixpoint)
    skipped = sum((1 << (len(members) - 1)) - 1 for members in classes) - examined
    return found, examined, skipped


def _digit_places(classes: list, bits: int) -> tuple:
    """The digits of an element's classes for the second stage of the
    filter, as ``(place, lowest)``.  In each class Y with two or more
    members, every member after the smallest has its own digit
    2**(bits·k), given in ``place`` as its shift bits·k, and Y's smallest
    member has minus the sum of Y's digits, given in ``lowest`` as their
    shifts.  Earlier classes have lower digits."""
    place: dict = {}
    lowest: dict = {}
    for y in classes:
        if len(y) > 1:
            shifts = range(bits * len(place), bits * (len(place) + len(y) - 1), bits)
            place.update(zip(y[1:], shifts))
            lowest[y[0]] = shifts
    return place, lowest


def _member_code(column: list, col: list, color: int, place: dict, lowest: dict) -> int:
    """The code d_j = sum_{(i, f) in column} f·c_i of a member j of the
    class X of color ``color`` + 1, for its column ``back[j]`` of F: c_i is
    the digit code of :func:`_digit_places` for a member i of a class
    before X (``col[i] <= color``) and 0 for any other i.  So the sum of d_j over S is 0
    exactly when every member of each class before X gets the F-weight of
    that class's smallest member from S.  Digits are placed by shifts, not
    products, since F's entries can be thousands of bits long."""
    code = 0
    for i, f in column:
        if col[i] <= color:
            shift = place.get(i)
            if shift is not None:
                code += f << shift
            elif i in lowest:
                for shift in lowest[i]:
                    code -= f << shift
    return code


def _witnesses(
    table: tuple, col: list, members: list, uniform: dict
) -> Iterator[tuple]:
    """The splits ``(S, X minus S)`` of the class X = ``members`` (sorted,
    working coloring ``col``) that pass the filter of the module
    docstring: x0 = ``members[0]`` in S, S != X, and every i in S getting
    the same in-weight sum_{j in S} F_ij, with F's rows in ``table``.

    A class with uniform weights yields every split, in the order of
    :func:`synclat.partition._class_splits`.  Whether it is uniform depends
    only on the table entries inside X, so the member tuples of classes
    found uniform go into the memo ``uniform`` and are not checked again;
    the memo maps them to None on the first visit, which streams the
    splits, and to their list from the second.
    Any other class is searched by lazy backtracking in breadth-first order
    from x0 along in-weights, each member taken before it is left out, as
    one loop over an explicit stack.
    """
    key = tuple(members)
    if key in uniform:
        splits = uniform[key]
        if splits is None:
            splits = uniform[key] = list(_class_splits(members))
        yield from splits
        return
    size = len(members)
    inner = {}  # i -> [(j, F_ij)] for j in X
    diagonal, off = set(), []
    for i in members:
        inner[i] = weights = [(j, w) for j, w in table[i] if col[j] == col[i]]
        diagonal.add(dict(weights).get(i, 0))
        off += [w for j, w in weights if j != i]
    if len(diagonal) == 1 and (
        not off or (len(off) == size * (size - 1) and len(set(off)) == 1)
    ):
        uniform[key] = None  # its splits are stored on the next visit
        yield from _class_splits(members)
        return
    # breadth-first along in-weights, component by component
    order, depth_of, head = [], {}, 0
    for root in members:
        if root not in depth_of:
            depth_of[root] = len(order)
            order.append(root)
        while head < len(order):
            for j, _ in inner[order[head]]:
                if j not in depth_of:
                    depth_of[j] = len(order)
                    order.append(j)
            head += 1
    # ready[d]: the members whose in-weight from S is known at depth d
    ready: list = [[] for _ in order]
    for i in members:
        ready[max([depth_of[i]] + [depth_of[j] for j, _ in inner[i]])].append(i)
    # (depth, take, common in-weight); "leave" is pushed below "take", and a
    # check at a depth reads only members the current path has decided
    in_s: dict = {}
    stack: list = [(0, True, None)]  # x0 is always in S
    while stack:
        depth, take, value = stack.pop()
        in_s[order[depth]] = take
        for k in ready[depth]:
            if in_s[k]:
                weight = sum(w for j, w in inner[k] if in_s[j])
                if value is None:
                    value = weight
                elif weight != value:
                    break
        else:
            depth += 1
            if depth < size:
                stack += (depth, False, value), (depth, True, value)
                continue
            inside = [i for i in members if in_s[i]]
            if len(inside) < size:
                yield inside, [i for i in members if not in_s[i]]


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
