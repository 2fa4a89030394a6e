"""The four benchmark workloads: seeded inputs and exact output checks.

Every function takes the imported ``synclat`` package as ``sl`` instead of
importing it at module level, because the set-up measurement re-imports the
package on each repetition and the objects of one import must not mix with
those of another.

The checks run outside the timed region and do not use the refinement
engine for the elements: containment is decided on materialized
characteristic matrices with ``matmul`` and ``column_space_contains``, as in
the library's brute-force oracle.  The one exception is ``weighted``, whose
reference is the unit-mode (integer adjacency) lattice of the same graph, a
different signature path from the general Fraction path under test.

A check returns a list of problems; an empty list means the output is exact.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def _permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(sl, matrix, perm: list):
    """The same graph with vertex i renamed perm[i]."""
    n = matrix.rows
    grid = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix.entries):
        for j, x in enumerate(row):
            grid[perm[i]][perm[j]] = x
    return sl.RationalMatrix(grid)


def _non_integer(rng: random.Random, denominator: int) -> Fraction:
    """A two-digit numerator over a fixed odd prime, random sign: seeds
    change the values but not their size, so not the cost of the
    arithmetic."""
    while True:
        p = rng.randint(10, 99)
        if p % denominator:
            return Fraction(rng.choice((-p, p)), denominator)


def cycle_count_formula(n: int) -> int:
    """Number of equitable partitions of C_n: one per divisor d of n, the
    orbit partitions of the d-fold rotation and its reflections (d + 1 of
    them for d > 2, one for d <= 2)."""
    return sum(1 if d <= 2 else d + 1 for d in range(1, n + 1) if n % d == 0)


def split_count(coloring) -> int:
    """Number of one-class splits of a partition: sum of 2^(s-1) - 1."""
    sizes: dict = {}
    for c in coloring:
        sizes[c] = sizes.get(c, 0) + 1
    return sum((1 << (s - 1)) - 1 for s in sizes.values())


def colorings(lattice) -> list:
    """Element colorings as JSON-ready lists; pairs as [rows, cols]."""
    out = []
    for e in lattice.elements:
        if hasattr(e, "row_part"):
            out.append([list(e.row_part.coloring), list(e.col_part.coloring)])
        else:
            out.append(list(e.coloring))
    return out


def digest(lattice) -> str:
    """SHA-256 of (elements, cover_edges): two commits that agree on it
    produced identical lattices."""
    body = json.dumps(
        [colorings(lattice), [list(edge) for edge in lattice.cover_edges]],
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _contained(sl, part, matrices) -> bool:
    p = sl.characteristic_matrix(part)
    return all(sl.column_space_contains(p, sl.matmul(m, p)) for m in matrices)


def _pair_contained(sl, pair, matrices) -> bool:
    pa = sl.characteristic_matrix(pair.row_part)
    pb = sl.characteristic_matrix(pair.col_part)
    return all(
        sl.column_space_contains(pa, sl.matmul(m, pb))
        and sl.column_space_contains(pb, sl.matmul(sl.transpose(m), pa))
        for m in matrices
    )


def _structure_problems(lattice) -> list:
    """Sorted, distinct elements and sorted, distinct, in-range edges."""
    problems = []
    cols = colorings(lattice)
    if any(a >= b for a, b in zip(cols, cols[1:])):
        problems.append("elements are not strictly increasing by coloring")
    edges = [tuple(e) for e in lattice.cover_edges]
    if any(a >= b for a, b in zip(edges, edges[1:])):
        problems.append("cover edges are not strictly increasing")
    k = len(cols)
    if any(not (0 <= i < k and 0 <= j < k) for i, j in edges):
        problems.append("cover edge index out of range")
    return problems


class Workload:
    """One benchmark input family.

    ``matrices(sl, rng)`` builds the seeded matrices through the library's
    ``networks``/``rational`` constructors; ``check(sl, matrices, lattice)``
    returns the problems found in a computed lattice.
    """

    name = ""
    workers = 1
    tactical = False

    def matrices(self, sl, rng: random.Random) -> list:
        raise NotImplementedError

    def check(self, sl, matrices: list, lattice) -> list:
        raise NotImplementedError


class Cycle(Workload):
    """Equitable partitions of C_n, vertices shuffled, over a process pool."""

    name = "cycle"
    workers = 2

    def __init__(self, n: int):
        self.n = n

    def matrices(self, sl, rng):
        return [_relabel(sl, sl.cycle_graph(self.n), _permutation(rng, self.n))]

    def check(self, sl, matrices, lattice):
        problems = _structure_problems(lattice)
        want = cycle_count_formula(self.n)
        if len(lattice) != want:
            problems.append(f"{len(lattice)} elements, divisor formula gives {want}")
        if tuple(lattice.cover_edges) != tuple(sl.hasse_edges(lattice.elements)):
            problems.append("cover edges differ from hasse_edges(elements)")
        bad = sum(not _contained(sl, e, matrices) for e in lattice.elements)
        if bad:
            problems.append(f"{bad} elements fail exact containment")
        return problems


class Weighted(Workload):
    """{a*A + b*I, c*(2I - A)} for a shuffled C_n with seeded non-integer
    a, b, c: the lattice is the equitable lattice of C_n, but every
    signature takes the general Fraction path."""

    name = "weighted"

    def __init__(self, n: int):
        self.n = n

    def matrices(self, sl, rng):
        n = self.n
        adj = _relabel(sl, sl.cycle_graph(n), _permutation(rng, n))
        eye = sl.identity(n)
        a, b, c = (_non_integer(rng, q) for q in (7, 5, 3))
        pairs = [list(zip(ra, ri)) for ra, ri in zip(adj.entries, eye.entries)]
        return [
            sl.RationalMatrix([[a * x + b * y for x, y in row] for row in pairs]),
            sl.RationalMatrix([[c * (2 * y - x) for x, y in row] for row in pairs]),
        ]

    def check(self, sl, matrices, lattice):
        problems = _structure_problems(lattice)
        # a != 0, so the graph is the off-diagonal support of a*A + b*I
        adj = sl.RationalMatrix(
            [[int(i != j and x != 0) for j, x in enumerate(row)]
             for i, row in enumerate(matrices[0].entries)]
        )
        reference = sl.invariant_lattice(sl.MatrixFamily([adj]))
        if colorings(lattice) != colorings(reference):
            problems.append("element set differs from the unit-mode equitable lattice")
        elif tuple(lattice.cover_edges) != tuple(reference.cover_edges):
            problems.append("cover edges differ from the unit-mode equitable lattice")
        bad = sum(not _contained(sl, e, matrices) for e in lattice.elements)
        if bad:
            problems.append(f"{bad} elements fail exact containment")
        return problems


class Complete(Workload):
    """Equitable partitions of K_n: every partition is invariant."""

    name = "complete"

    def __init__(self, n: int):
        self.n = n

    def matrices(self, sl, rng):
        # K_n is fully symmetric, so a relabelling would change nothing
        return [sl.complete_graph(self.n)]

    def check(self, sl, matrices, lattice):
        problems = _structure_problems(lattice)
        want = [list(p.coloring) for p in sl.all_partitions(self.n)]
        if colorings(lattice) != want:
            problems.append(
                f"element set differs from all_partitions({self.n}) "
                f"({len(lattice)} vs {sl.bell_number(self.n)})"
            )
        want_edges = sum(split_count(c) for c in want)
        if len(lattice.cover_edges) != want_edges:
            problems.append(f"{len(lattice.cover_edges)} cover edges, want {want_edges}")
        els = lattice.elements
        if any(
            not 0 <= i < len(els)
            or not 0 <= j < len(els)
            or els[j].num_classes != els[i].num_classes + 1
            or not els[j].refines(els[i])
            for i, j in lattice.cover_edges
        ):
            problems.append("a cover edge is not a one-class split")
        return problems


class Tactical(Workload):
    """Tactical decompositions of a graph's vertex-edge incidence matrix,
    vertices and edges shuffled."""

    name = "tactical"
    tactical = True

    def __init__(self, n: int, edges: list, count: int, cover_edges: int):
        self.n = n
        self.edges = edges
        self.count = count
        self.cover_edges = cover_edges

    def matrices(self, sl, rng):
        perm = _permutation(rng, self.n)
        edges = [(perm[a - 1] + 1, perm[b - 1] + 1) for a, b in self.edges]
        rng.shuffle(edges)
        return [sl.graph_incidence(self.n, edges)]

    def check(self, sl, matrices, lattice):
        problems = _structure_problems(lattice)
        if len(lattice) != self.count:
            problems.append(f"{len(lattice)} pairs, want {self.count}")
        if len(lattice.cover_edges) != self.cover_edges:
            problems.append(f"{len(lattice.cover_edges)} cover edges, want {self.cover_edges}")
        if tuple(lattice.cover_edges) != tuple(sl.hasse_edges(lattice.elements)):
            problems.append("cover edges differ from hasse_edges(elements)")
        bad = sum(not _pair_contained(sl, e, matrices) for e in lattice.elements)
        if bad:
            problems.append(f"{bad} pairs fail two-sided exact containment")
        return problems


PETERSEN_EDGES = (
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
)
K4_EDGES = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]

# name -> (full workload, smoke workload on tiny inputs).  The tactical counts
# were taken at the seed commit; the K_4 ones agree with brute_tactical_set.
WORKLOADS = {
    "cycle": (Cycle(19), Cycle(8)),
    "weighted": (Weighted(13), Weighted(6)),
    "complete": (Complete(8), Complete(4)),
    "tactical": (
        Tactical(10, PETERSEN_EDGES, count=134, cover_edges=407),
        Tactical(4, K4_EDGES, count=22, cover_edges=46),
    ),
}
