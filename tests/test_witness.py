"""The search refines only the splits that can witness a lower cover.

The reference below is the plain split-and-cir search: every one-class split
of every element, refined to its fixpoint with nothing pruned or abandoned,
and the lower covers as the maxima of each element's fixpoints.  The library
must find the same elements and cover edges at every worker count.
"""

import random
import warnings
from fractions import Fraction

from synclat import (
    MatrixFamily,
    NetworkConsistencyWarning,
    Partition,
    balanced_partitions,
    cir,
    complete_graph,
    cycle_graph,
    exo_balanced_partitions,
    grid_graph,
    invariant_lattice,
    laplacian,
    monochrome_adjacency,
    tactical_lattice,
)
from synclat.lattice import _invariant_below
from synclat.networks import network_from_adjacencies
from synclat.partition import iter_cover_colorings
from test_tactical import petersen_incidence


def lattice_by_all_splits(family, top):
    """Elements below cir(top), sorted, and the sorted (coarser, finer) cover
    index pairs, from cir of every one-class split of every element."""
    first = cir(family, top)
    seen = {first}
    queue = [first]
    covers = []
    for element in queue:
        fixpoints = {
            cir(family, Partition(c)) for c in iter_cover_colorings(element.coloring)
        }
        for fixpoint in fixpoints:
            if fixpoint not in seen:
                seen.add(fixpoint)
                queue.append(fixpoint)
        covers += [
            (element, f)
            for f in fixpoints
            if not any(g != f and f.refines(g) for g in fixpoints)
        ]
    elements = sorted(seen, key=lambda p: p.coloring)
    index = {e: i for i, e in enumerate(elements)}
    return tuple(elements), tuple(sorted((index[a], index[b]) for a, b in covers))


def assert_matches_reference(family, top=None, searched=None):
    """``searched(workers)`` (the lattice below ``top`` by default) equals
    the reference at workers 1 and 2; returns the inline lattice."""
    if top is None:
        top = Partition.singleton(family.cols)
    if searched is None:

        def searched(workers):
            return _invariant_below(family, top, workers=workers, element_cap=10**6)

    elements, edges = lattice_by_all_splits(family, top)
    runs = [searched(workers) for workers in (1, 2)]
    for lat in runs:
        assert lat.elements == elements
        assert lat.cover_edges == edges
    assert runs[0].stats.splits_examined == runs[1].stats.splits_examined
    assert runs[0].stats.splits_pruned == runs[1].stats.splits_pruned
    return runs[0]


def relabeled(matrix, perm):
    n = matrix.rows
    grid = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix.entries):
        for j, x in enumerate(row):
            grid[perm[i]][perm[j]] = x
    return grid


def planted_family(rng, n):
    """One or two random signed rational matrices under which a random
    partition P is invariant: in each matrix, every row of a class of P gets
    one total from each class of P, spread over signed entries that cancel.
    So the lattice is not trivial and its classes get unequal in-weights."""
    values = (-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2))
    labels = [rng.randint(1, 3) for _ in range(n)]
    matrices = []
    for _ in range(rng.randint(1, 2)):
        m = [[0] * n for _ in range(n)]
        for a in set(labels):
            for b in set(labels):
                *free, last = [j for j in range(n) if labels[j] == b]
                total = rng.choice(values)
                for i in range(n):
                    if labels[i] == a:
                        for j in free:
                            m[i][j] = rng.choice(values)
                        m[i][last] = total - sum(m[i][j] for j in free)
        matrices.append(m)
    return MatrixFamily(matrices)


def symmetric_circulant_family(rng, n):
    """One or two signed rational matrices whose entry (i, j) depends only on
    the cyclic distance of i and j, with the points shuffled: the dihedral
    symmetry gives a lattice of many elements."""
    values = (-2, -1, -1, 0, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    matrices = []
    for _ in range(rng.randint(1, 2)):
        by_distance = [rng.choice(values) for _ in range(n // 2 + 1)]
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                m[perm[i]][perm[j]] = by_distance[min((i - j) % n, (j - i) % n)]
        matrices.append(m)
    return MatrixFamily(matrices)


def test_random_signed_rational_families_match_reference():
    # small signed entries, so in-weights from a split often cancel to zero
    rng = random.Random(9)
    values = (-2, -1, -1, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3))
    pruned = 0
    for _ in range(30):
        n = rng.randint(2, 7)
        sparse = MatrixFamily(
            [
                [[rng.choice(values) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
                for _ in range(rng.randint(1, 2))
            ]
        )
        for family in (
            sparse,
            planted_family(rng, n),
            symmetric_circulant_family(rng, rng.randint(4, 10)),
        ):
            pruned += assert_matches_reference(family).stats.splits_pruned
    assert pruned > 0


def test_shuffled_cycles_match_reference():
    rng = random.Random(3)
    for n in range(8, 17):
        perm = list(range(n))
        rng.shuffle(perm)
        family = MatrixFamily([relabeled(cycle_graph(n), perm)])
        lat = assert_matches_reference(family)
        assert lat.stats.splits_pruned > 0


def test_grids_match_reference_as_adjacency_and_laplacian():
    for rows, cols in ((3, 4), (4, 4)):
        grid = grid_graph(rows, cols)
        for matrix in (grid, laplacian(grid)):
            assert_matches_reference(MatrixFamily([matrix]))


def test_balanced_partitions_below_cell_types_match_reference():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 7)
        mats = [
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]
        labels = [1] + [rng.randint(1, 3) for _ in range(n - 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NetworkConsistencyWarning)
            net = network_from_adjacencies(mats, cell_types=Partition(labels))
        adjacency = monochrome_adjacency(net)
        laplacians = MatrixFamily([laplacian(m) for m in adjacency.matrices])
        for family, search in (
            (adjacency, balanced_partitions),
            (laplacians, exo_balanced_partitions),
        ):
            assert_matches_reference(
                family, net.cell_types, lambda workers: search(net, workers=workers)
            )


def test_cycle_19_refines_few_splits():
    lat = invariant_lattice(MatrixFamily([cycle_graph(19)]))
    stats = lat.stats
    assert len(lat) == 21
    assert stats.splits_examined == 3309
    # the unpruned search refines every one-class split of every element
    assert stats.splits_examined + stats.splits_pruned == 262314
    assert stats.cir_calls == stats.splits_examined + 1
    pooled = invariant_lattice(MatrixFamily([cycle_graph(19)]), workers=2)
    assert (pooled.elements, pooled.cover_edges) == (lat.elements, lat.cover_edges)
    assert pooled.stats.splits_examined == stats.splits_examined
    assert pooled.stats.splits_pruned == stats.splits_pruned


def test_uniform_classes_prune_nothing():
    # every split of a class of K_n, or of one side of an incidence
    # structure, passes the in-weight filter
    for lat in (
        invariant_lattice(MatrixFamily([complete_graph(8)])),
        tactical_lattice(petersen_incidence()),
    ):
        assert lat.stats.splits_pruned == 0
        assert lat.stats.cir_calls == lat.stats.splits_examined + 1
