"""The search refines only the splits that can witness a lower cover.

The reference below is the plain split-and-cir search: every one-class split
of every element (of either side, for a pair), refined to its fixpoint with
nothing pruned or abandoned, and the lower covers as the maxima of each
element's fixpoints.  The library must find the same elements and cover
edges at every worker count.
"""

import json
import os
import random
import warnings
from fractions import Fraction
from itertools import combinations, islice, product

from synclat import (
    MatrixFamily,
    NetworkConsistencyWarning,
    Partition,
    PartitionPair,
    balanced_partitions,
    brute_invariant_set,
    cir,
    complete_graph,
    cycle_graph,
    exo_balanced_partitions,
    graph_incidence,
    grid_graph,
    hasse_edges,
    invariant_lattice,
    laplacian,
    monochrome_adjacency,
    tactical_cir,
    tactical_lattice,
)
from synclat.lattice import _invariant_below, _run_task, _witnesses
from synclat.networks import network_from_adjacencies
from synclat.partition import _class_splits, canonical_coloring, iter_cover_colorings
from synclat.refine import _filter_table, _pack, _square_fixpoint, _start_state
from test_tactical import petersen_incidence, rand_rect_family

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def one_class_splits(element):
    """Every partition (pair) that splits one class of ``element`` in two."""
    if isinstance(element, PartitionPair):
        rows, cols = element.row_part, element.col_part
        return [PartitionPair(s, cols) for s in one_class_splits(rows)] + [
            PartitionPair(rows, s) for s in one_class_splits(cols)
        ]
    return [Partition(c) for c in iter_cover_colorings(element.coloring)]


def lattice_by_all_splits(family, top):
    """Elements below cir(top), sorted, and the sorted (coarser, finer) cover
    index pairs, from cir (tactical_cir, for a pair) of every one-class split
    of every element."""
    refine = tactical_cir if isinstance(top, PartitionPair) else cir
    first = refine(family, top)
    seen = {first}
    queue = [first]
    covers = []
    for element in queue:
        fixpoints = {refine(family, split) for split in one_class_splits(element)}
        for fixpoint in fixpoints:
            if fixpoint not in seen:
                seen.add(fixpoint)
                queue.append(fixpoint)
        covers += [
            (element, f)
            for f in fixpoints
            if not any(g != f and f.refines(g) for g in fixpoints)
        ]
    elements = sorted(
        seen, key=lambda p: p.joined() if isinstance(p, PartitionPair) else p.coloring
    )
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
    assert stats.splits_examined == 178
    # the unpruned search refines every one-class split of every element
    assert stats.splits_examined + stats.splits_pruned == 262314
    assert stats.cir_calls == stats.splits_examined + 1
    # the guard drops almost every chain here, and these counts hold only
    # while a dropped chain reports no step past its last whole one
    assert (stats.visited_partitions, stats.queue_peak) == (933, 19)
    two = invariant_lattice(MatrixFamily([cycle_graph(19)]), workers=2)
    assert (two.elements, two.cover_edges) == (lat.elements, lat.cover_edges)
    assert two.stats.splits_examined == stats.splits_examined
    assert two.stats.splits_pruned == stats.splits_pruned


def test_cycle_28_lattice_and_its_refined_splits():
    # past the brute-force range: the count is the divisor formula, one
    # element per divisor d of 28 (d + 1 of them for d > 2), and the
    # covers are those of the quadratic Hasse pass; W³ in the filter leaves
    # 3,836 of the splits that W + K·W² passes (14,661) to refine
    lat = invariant_lattice(MatrixFamily([cycle_graph(28)]))
    assert len(lat) == sum(1 if d <= 2 else d + 1 for d in (1, 2, 4, 7, 14, 28)) == 59
    assert lat.cover_edges == tuple(hasse_edges(lat.elements))
    assert lat.stats.splits_examined == 3836
    assert (lat.stats.visited_partitions, lat.stats.queue_peak) == (17595, 53)


def test_uniform_classes_prune_nothing():
    # every split of a class of K_n passes the filter: J - I and its square
    # are uniform on every class
    lat = invariant_lattice(MatrixFamily([complete_graph(8)]))
    assert lat.stats.splits_examined == 28337
    assert lat.stats.splits_pruned == 0
    assert lat.stats.cir_calls == lat.stats.splits_examined + 1
    # a side of an incidence structure gets no weight from itself, but its
    # square M M^T = A + 3I does separate the Petersen vertices
    stats = tactical_lattice(petersen_incidence()).stats
    assert stats.splits_examined + stats.splits_pruned == 40056
    assert stats.splits_pruned > 0
    assert stats.cir_calls == stats.splits_examined + 1


def test_uniform_splits_are_stored_from_the_second_visit():
    # every class of K_6 is uniform: the first visit streams its splits and
    # marks it, the second stores the list it yields
    table = _filter_table(MatrixFamily([complete_graph(6)]).engine(), [1] * 6)[0]
    members = [0, 2, 3, 5]
    col = [1, 2, 1, 1, 3, 1]
    want = list(_class_splits(members))
    uniform = {}
    assert list(_witnesses(table, col, members, uniform)) == want
    assert uniform == {(0, 2, 3, 5): None}
    assert list(_witnesses(table, col, members, uniform)) == want
    assert uniform == {(0, 2, 3, 5): want}
    assert list(_witnesses(table, col, members, uniform)) == want


def test_tactical_lattices_match_reference():
    with open(os.path.join(DATA, "fano.json")) as fh:
        fano = MatrixFamily(json.load(fh)["matrices"])
    k4 = MatrixFamily([graph_incidence(4, list(combinations(range(1, 5), 2)))])
    rng = random.Random(11)
    families = [k4, fano] + [
        rand_rect_family(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(25)
    ]
    pruned = 0
    for family in families:
        lat = assert_matches_reference(
            family,
            PartitionPair.singleton(family.rows, family.cols),
            lambda workers: tactical_lattice(family, workers=workers),
        )
        pruned += lat.stats.splits_pruned
    assert pruned > 0


def test_each_fixpoint_is_kept_from_one_split():
    # a kept fixpoint L of a split of X with witness S keeps S and every
    # class before X whole, so X is the first class of E that L splits and
    # S is L's class of min X: no two splits of an element keep one fixpoint
    rng = random.Random(13)
    cases = [(petersen_incidence(), tactical_lattice)]
    for _ in range(70):
        n = rng.randint(3, 8)
        cases += [
            (planted_family(rng, n), invariant_lattice),
            (symmetric_circulant_family(rng, rng.randint(4, 10)), invariant_lattice),
            (rand_rect_family(rng, rng.randint(1, 5), rng.randint(1, 5)), tactical_lattice),
        ]
    refined = 0
    for family, search in cases:
        lat = search(family)
        tactical = search is tactical_lattice
        engine = family.block_engine() if tactical else family.engine()
        # the filter of the search, from the one-class or {rows | columns} start
        split_filter = _filter_table(
            engine, [1] * family.rows + [2] * family.cols if tactical else [1] * family.cols
        )
        for element in lat.elements:
            # with nothing known, no split is answered by lookup
            start = element.joined() if tactical else element.coloring
            found, examined, _ = _run_task(engine, split_filter, set(), {}, start)
            assert len(found) == len(set(found))
            refined += examined
    assert refined > 4000


def test_filter_passes_the_witness_of_every_brute_force_cover():
    # direct soundness of _witnesses: for every cover (E, L) of the
    # brute-force lattice and every class X of E that L splits, the class S
    # of L that holds X's smallest member is among the splits of X yielded
    rng = random.Random(17)
    checked = 0
    for _ in range(12):
        for family in (
            planted_family(rng, rng.randint(2, 7)),
            symmetric_circulant_family(rng, rng.randint(4, 7)),
        ):
            elements = sorted(brute_invariant_set(family), key=lambda p: p.coloring)
            table = _filter_table(family.engine(), [1] * family.cols)[0]
            for coarse, fine in hasse_edges(elements):
                col, classes = _start_state(elements[coarse].coloring)
                below = elements[fine].coloring
                for members in classes:
                    witness = [i for i in members if below[i] == below[members[0]]]
                    if len(witness) < len(members):
                        splits = _witnesses(table, col, members, {})
                        assert (witness, sorted(set(members) - set(witness))) in splits
                        checked += 1
    assert checked > 100


def earlier_weights(table, classes, color, inside):
    """For each class before ``classes[color]``, the set of F-weights
    sum_{j in S} F_ij that its members get from S = ``inside``."""
    inside = set(inside)
    return [
        {sum(w for j, w in table[i] if j in inside) for i in earlier}
        for earlier in classes[:color]
    ]


def test_earlier_classes_get_uniform_weight_from_every_cover_witness():
    # the premise of _run_task's second stage: for every cover (E, L) of the
    # brute-force lattice, with X the first class of E that L splits and S
    # the class of L that holds X's smallest member, each class of E before
    # X gets one F-weight from S
    rng = random.Random(17)
    checked = 0
    for _ in range(12):
        for family in (
            planted_family(rng, rng.randint(2, 7)),
            symmetric_circulant_family(rng, rng.randint(4, 7)),
        ):
            elements = sorted(brute_invariant_set(family), key=lambda p: p.coloring)
            table = _filter_table(family.engine(), [1] * family.cols)[0]
            for coarse, fine in hasse_edges(elements):
                _, classes = _start_state(elements[coarse].coloring)
                below = elements[fine].coloring
                color = next(
                    c for c, members in enumerate(classes)
                    if len({below[i] for i in members}) > 1
                )
                members = classes[color]
                witness = [i for i in members if below[i] == below[members[0]]]
                weights = earlier_weights(table, classes, color, witness)
                assert all(len(w) == 1 for w in weights)
                checked += sum(len(earlier) > 1 for earlier in classes[:color])
    assert checked > 20


def test_rejected_splits_are_ones_the_guard_drops():
    # every split that passes _witnesses but gives some earlier class
    # unequal F-weights starts a chain that the guard abandons, and
    # _run_task refines exactly the splits that give none
    rng = random.Random(19)
    cases = [(petersen_incidence(), tactical_lattice)]
    for _ in range(10):
        cases += [
            (planted_family(rng, rng.randint(3, 8)), invariant_lattice),
            (symmetric_circulant_family(rng, rng.randint(4, 10)), invariant_lattice),
            (rand_rect_family(rng, rng.randint(1, 5), rng.randint(1, 5)), tactical_lattice),
        ]
    rejected = 0
    for family, search in cases:
        tactical = search is tactical_lattice
        engine = family.block_engine() if tactical else family.engine()
        # the table of the search, from the one-class or {rows | columns} start
        split_filter = _filter_table(
            engine, [1] * family.rows + [2] * family.cols if tactical else [1] * family.cols
        )
        table = split_filter[0]
        for element in search(family).elements:
            start = element.joined() if tactical else element.coloring
            col, classes = _start_state(start)
            passed = 0
            for color, members in enumerate(classes):
                for inside, outside in _witnesses(table, col, members, {}):
                    weights = earlier_weights(table, classes, color, inside)
                    if all(len(w) == 1 for w in weights):
                        passed += 1
                        continue
                    labels = list(col)
                    for i in outside:
                        labels[i] = len(classes) + 1
                    split_col, split_classes = _start_state(canonical_coloring(labels))
                    assert _square_fixpoint(engine, split_col, split_classes, witness=members[0]) is None
                    rejected += 1
            _, examined, _ = _run_task(engine, split_filter, set(), {}, start)
            assert examined == passed
    assert rejected > 3000


def cycle_engine(n):
    """The engine of C_n, packed from its sparse rows: the dense adjacency
    of C_3000 holds nine million Fractions and takes seconds to build."""
    return _pack([[[((i - 1) % n, 1), ((i + 1) % n, 1)] for i in range(n)]], n)


def test_large_classes_are_searched_without_recursion():
    assert cycle_engine(12) == MatrixFamily([cycle_graph(12)]).engine()
    # a search with one frame per member would run out of stack here
    for n in (1100, 3000):
        table = _filter_table(cycle_engine(n), [1] * n)[0]
        members = list(range(n))
        splits = list(islice(_witnesses(table, [0] * n, members, {}), 5))
        assert len(splits) == 5
        for inside, outside in splits:
            assert inside[0] == 0 and outside
            assert sorted(inside + outside) == members
            in_s = set(inside)
            assert len({sum(w for j, w in table[i] if j in in_s) for i in inside}) == 1


def breadth_first(table, members):
    """X's members from x0, component by component in member order, each
    followed by its in-neighbours within X in increasing index."""
    order, head = [], 0
    for root in members:
        if root not in order:
            order.append(root)
        while head < len(order):
            row = table[order[head]]
            order += [j for j, _ in row if j in members and j not in order]
            head += 1
    return order


def witnesses_by_product(table, members):
    """Every S that holds x0, is not X and gives each of its members the
    same in-weight under F, in the order of the members' choices along the
    breadth-first order, each member taken before it is left out."""
    first, *rest = breadth_first(table, members)
    splits = []
    for bits in product((True, False), repeat=len(rest)):
        inside = {first} | {i for i, take in zip(rest, bits) if take}
        weights = {sum(w for j, w in table[i] if j in inside) for i in inside}
        if len(inside) < len(members) and len(weights) == 1:
            splits.append((sorted(inside), sorted(set(members) - inside)))
    return splits


def uniform(table, members):
    """One diagonal and one off-diagonal weight (zero included) under F
    inside X: such a class yields the plain masks, unchecked."""
    weight = {(i, j): w for i in members for j, w in table[i]}
    diagonal = {weight.get((i, i), 0) for i in members}
    off = {weight.get((i, j), 0) for i in members for j in members if i != j}
    return len(diagonal) == len(off) == 1


def test_witnesses_come_in_breadth_first_take_before_leave_order():
    # the order of the refined splits moves queue_peak and the JSON stdout
    rng = random.Random(21)
    checked = several = 0
    for _ in range(8):
        for family in (
            planted_family(rng, rng.randint(3, 12)),
            symmetric_circulant_family(rng, rng.randint(4, 12)),
        ):
            table = _filter_table(family.engine(), [1] * family.cols)[0]
            for element in invariant_lattice(family).elements:
                col, classes = _start_state(element.coloring)
                for members in classes:
                    if not 3 <= len(members) <= 12 or uniform(table, members):
                        continue
                    expected = witnesses_by_product(table, members)
                    assert list(_witnesses(table, col, members, {})) == expected
                    checked += 1
                    several += len(expected) > 1
    assert checked > 50 and several > 20
