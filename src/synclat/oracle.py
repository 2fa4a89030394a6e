"""Independent brute-force references, for tests and the CLI --verify flag.

Everything here deliberately avoids the refinement engine: invariance is
decided by exact column-space containment on materialized characteristic
matrices, tactical pairs by the row partitions induced by materialized
products, enumeration walks all partitions via the restricted-growth
successor, and cover edges come from a transitive reduction of the
refinement order, read off per-point-pair bitsets.  Slow by design; the
point is a second, unrelated code path.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Set

from .partition import Partition, PartitionPair, characteristic_matrix, induced_partition
from .rational import augment, column_space_contains, matmul, transpose
from .refine import MatrixFamily

_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]

MAX_ENUM_N = 12
MAX_BRUTE_N = 10
MAX_BRUTE_PAIRS = 10**6


class OracleLimit(ValueError):
    """A brute-force scan past its size cap; the message is the reason."""


def bell_number(n: int) -> int:
    if not 0 <= n < len(_BELL):
        raise ValueError(f"Bell numbers tabulated only up to n={len(_BELL) - 1}")
    return _BELL[n]


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {1..n} exactly once, in lexicographic coloring
    order: first the one-class partition, last the all-singletons one."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"partition enumeration supports 1 <= n <= {MAX_ENUM_N}")
    a = [1] * n
    peak = [1] * n  # peak[i] = max(a[0..i])
    while True:
        yield Partition._from_canonical(tuple(a))
        # successor in restricted-growth order: bump the rightmost position
        # that can still grow, reset the tail to 1
        i = n - 1
        while i > 0 and a[i] > peak[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        peak[i] = max(peak[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 1
            peak[j] = peak[i]


def _invariant_direct(family: MatrixFamily, part: Partition) -> bool:
    p = characteristic_matrix(part)
    return all(column_space_contains(p, matmul(m, p)) for m in family.matrices)


def brute_invariant_set(family: MatrixFamily) -> Set[Partition]:
    """All invariant partitions of a square family by exhaustive scan with
    direct containment checks."""
    if not family.is_square:
        raise ValueError("brute_invariant_set needs a square family")
    n = family.cols
    if n > MAX_BRUTE_N:
        raise OracleLimit(f"n > {MAX_BRUTE_N}")
    return {part for part in all_partitions(n) if _invariant_direct(family, part)}


def brute_tactical_set(family: MatrixFamily) -> Set[PartitionPair]:
    """All tactical decompositions of a family, deciding each side once per
    partition.

    The column space of a matrix Q lies in the synchrony subspace of a row
    partition a exactly when Q's rows are equal within a's classes, that is
    when a refines the partition induced by Q's rows.  So with rho(b) the
    partition induced by [M_1 P_b | ... | M_r P_b] and sigma(a) the one
    induced by [M_1^T P_a | ... | M_r^T P_a], the pair (a, b) is tactical
    exactly when a refines rho(b) and b refines sigma(a).
    """
    m, n = family.rows, family.cols
    # bell_number stops at MAX_ENUM_N, so that bound is checked first
    if max(m, n) > MAX_ENUM_N or bell_number(m) * bell_number(n) > MAX_BRUTE_PAIRS:
        raise OracleLimit("ground sets too large")

    def induced(mats: list, part: Partition) -> Partition:
        p = characteristic_matrix(part)
        return induced_partition(augment([matmul(mat, p) for mat in mats]))

    transposes = [transpose(mat) for mat in family.matrices]
    rows = [(a, induced(transposes, a)) for a in all_partitions(m)]
    out = set()
    for b in all_partitions(n):
        rho = induced(family.matrices, b)
        for a, sigma in rows:
            if a.refines(rho) and b.refines(sigma):
                out.add(PartitionPair(a, b))
    return out


def hasse_edges(elements: Sequence) -> list:
    """Transitive reduction of refinement restricted to ``elements``
    (partitions, or partition pairs).

    Returns sorted (coarser_index, finer_index) pairs.  The reference for the
    cover edges the lattice search derives from its splits: two invariant
    elements can have strictly intermediate partitions that are not
    invariant, making them covers here but not in the ambient lattice.

    Refinement is read off bitsets over the element indices.  For each pair
    of points a < b, ``together`` holds the elements that put a and b in one
    class.  Element j refines element i exactly when j keeps apart every
    pair that i keeps apart, so the elements below i are those in none of
    the masks of the pairs i separates.  A pair of partitions is taken as its
    joined coloring of the rows, then the columns, in disjoint classes, which
    refines another exactly when both sides do.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("hasse_edges expects pairwise distinct elements")
    k = len(elements)
    if not k:
        return []
    colorings = [
        e.joined() if isinstance(e, PartitionPair) else e.coloring for e in elements
    ]
    joined = [0] * k  # joined[i]: elements that join a pair that i splits
    n = len(colorings[0])
    for a in range(n):
        for b in range(a + 1, n):
            together = 0
            for j, c in enumerate(colorings):
                if c[a] == c[b]:
                    together |= 1 << j
            for i, c in enumerate(colorings):
                if c[a] != c[b]:
                    joined[i] |= together
    # complemented in place, so that only one list of k-bit masks is alive:
    # below[i] has bit j iff elements[j] strictly refines elements[i]
    full = (1 << k) - 1
    below = joined
    for i in range(k):
        below[i] = full ^ (joined[i] | 1 << i)
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
