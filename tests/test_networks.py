import json
import os
import random
from fractions import Fraction

import pytest

from synclat import (
    ColoredNetwork,
    GroupTable,
    IncidenceStructure,
    MatrixFamily,
    NetworkConsistencyWarning,
    Partition,
    RationalMatrix,
    almost_equitable_partitions,
    balanced_partitions,
    bell_number,
    cayley_network,
    cell_types_to_loops,
    colored_product,
    complete_graph,
    cycle_graph,
    equitable_partitions,
    exo_balanced_partitions,
    filter_below,
    graph_incidence,
    grid_graph,
    identity,
    incidence_family,
    invariant_lattice,
    laplacian,
    monochrome_adjacency,
    network_from_adjacencies,
    path_graph,
    star_graph,
    subgroup_coset_partitions,
    subgroups,
)
from conftest import BALEX_M1, BALEX_M2, K13_INCIDENCE


def test_monochrome_adjacency_balex(balex_net):
    fam = monochrome_adjacency(balex_net)
    assert fam.matrices[0] == RationalMatrix(BALEX_M1)
    assert fam.matrices[1] == RationalMatrix(BALEX_M2)


def test_monochrome_adjacency_quotient_digraph():
    # two-cell quotient: a loop at 1, one arrow 2 -> 1, three arrows 1 -> 2
    net = ColoredNetwork(2, [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 2, 1), (1, 2, 1)])
    fam = monochrome_adjacency(net)
    assert fam.matrices[0] == RationalMatrix([[1, 1], [3, 0]])


def test_monochrome_adjacency_unused_color():
    # color 2 has no arrows, so it adds no zero matrix
    net = ColoredNetwork(3, [(1, 2, 1), (2, 3, 3)])
    assert list(monochrome_adjacency(net).matrices) == [
        RationalMatrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
        RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
    ]
    # a family cannot be empty: a network without arrows gets one zero matrix
    fam = monochrome_adjacency(ColoredNetwork(3, []))
    assert list(fam.matrices) == [RationalMatrix([[0] * 3] * 3)]


def test_network_round_trips_adjacencies():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 5)
        mats = [
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(1, 3))
        ]
        net = network_from_adjacencies(mats)
        got = monochrome_adjacency(net)
        # a zero matrix gives no color, unless every matrix is zero
        nonzero = [RationalMatrix(m) for m in mats if any(map(any, m))]
        assert list(got.matrices) == (nonzero or [RationalMatrix(mats[0])])


def test_unused_colors_change_no_lattice():
    # colors {1, 3} give the lattices of the family [M1, 0, M3], in which
    # the unused color 2 stands for a zero matrix
    import warnings

    from synclat.lattice import _invariant_below

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        m1, m3 = ([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)] for _ in "13")
        arrows = [
            (j + 1, i + 1, color)
            for color, m in ((1, m1), (3, m3))
            for i in range(n)
            for j in range(n)
            if m[i][j]
        ]
        labels = [1] + [rng.randint(1, 2) for _ in range(n - 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NetworkConsistencyWarning)
            net = ColoredNetwork(n, arrows, cell_types=Partition(labels))
        family = MatrixFamily([m1, [[0] * n for _ in range(n)], m3])
        laplacians = MatrixFamily([laplacian(m) for m in family.matrices])
        for got, fam in (
            (balanced_partitions(net), family),
            (exo_balanced_partitions(net), laplacians),
        ):
            want = _invariant_below(fam, net.cell_types)
            assert got.elements == want.elements
            assert got.cover_edges == want.cover_edges


def test_consistency_warning():
    types = Partition.from_bar("12|34", 4)
    with pytest.warns(NetworkConsistencyWarning):
        ColoredNetwork(4, [(1, 2, 1), (3, 4, 1), (1, 3, 1)], cell_types=types)


def test_laplacian_examples(weighted_w):
    assert laplacian(weighted_w) == RationalMatrix(
        [[-1, 0, 1], [-2, 2, 0], [-2, -1, 3]]
    )
    forpath = RationalMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert laplacian(forpath) == RationalMatrix(
        [[0, 0, 0], [-1, 1, 0], [0, -1, 1]]
    )
    z = RationalMatrix([[0, 0], [0, 0]])
    assert laplacian(z) == z


def test_weighted_laplacian_network():
    # loops only: D equals W, so the companion network has no arrows
    diag = RationalMatrix([[3, 0], [0, "1/2"]])
    assert laplacian(diag) == RationalMatrix([[0, 0], [0, 0]])
    # constant row sums s give L = s*I - W
    reg = RationalMatrix([[1, 2], [2, 1]])
    assert laplacian(reg) == RationalMatrix([[2, -2], [-2, 2]])


def test_laplacian_rows_sum_to_zero():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        w = RationalMatrix(
            [
                [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
                for _ in range(n)
            ]
        )
        lap = laplacian(w)
        assert all(sum(row) == 0 for row in lap.entries)


def test_balanced_balex(balex_net):
    lat = balanced_partitions(balex_net)
    assert lat.bars() == ["13|245", "13|24|5", "1|25|3|4", "1|2|3|4|5"]


def test_balanced_balex2(balex2_net):
    assert balanced_partitions(balex2_net).bars() == ["1|2|34", "1|2|3|4"]


def test_cell_types_to_loops_balex2(balex2_net):
    looped = cell_types_to_loops(balex2_net)
    assert looped.cell_types == Partition.singleton(4)
    mats = monochrome_adjacency(looped).matrices
    assert mats[2] == RationalMatrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert mats[3] == RationalMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert balanced_partitions(looped).elements == balanced_partitions(
        balex2_net
    ).elements


def test_cell_types_to_loops_preserves_balanced_random():
    import warnings

    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 5)
        mats = [
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]
        labels = [1] + [rng.randint(1, 2) for _ in range(n - 1)]
        with warnings.catch_warnings():
            # random arrows routinely straddle the random cell types
            warnings.simplefilter("ignore", NetworkConsistencyWarning)
            net = network_from_adjacencies(mats, cell_types=Partition(labels))
        looped = cell_types_to_loops(net)
        assert (
            balanced_partitions(net).elements
            == balanced_partitions(looped).elements
        )


def test_balanced_search_below_cell_types_keeps_the_down_set():
    # the search from cir(cell types) finds exactly the down-set of the whole
    # lattice, with the same cover edges, while refining fewer splits
    import warnings

    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 6)
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
        for below, family in (
            (balanced_partitions(net), adjacency),
            (exo_balanced_partitions(net), laplacians),
        ):
            whole = invariant_lattice(family)
            kept = filter_below(whole, net.cell_types)
            assert below.elements == kept.elements
            assert below.cover_edges == kept.cover_edges
            assert below.stats.splits_examined <= whole.stats.splits_examined


def test_loops_on_single_type_are_harmless():
    net = network_from_adjacencies([[[0, 1], [1, 0]]])
    looped = cell_types_to_loops(net)
    assert len(monochrome_adjacency(looped).matrices) == 2
    assert monochrome_adjacency(looped).matrices[1] == RationalMatrix(
        [[1, 0], [0, 1]]
    )
    assert balanced_partitions(net).elements == balanced_partitions(looped).elements


def test_forpath_exo_and_balanced(forpath_net):
    assert exo_balanced_partitions(forpath_net).bars() == ["123", "12|3", "1|2|3"]
    assert balanced_partitions(forpath_net).bars() == ["1|2|3"]


def test_weighted_exo_equals_balanced_of_companion(weighted_w):
    exo = invariant_lattice(MatrixFamily([laplacian(weighted_w)]))
    assert exo.bars() == ["123", "1|23", "1|2|3"]
    companion = invariant_lattice(MatrixFamily([laplacian(weighted_w)]))
    assert companion.elements == exo.elements


def test_regular_network_exo_equals_balanced():
    net = network_from_adjacencies([complete_graph(3)])
    assert (
        balanced_partitions(net).elements
        == exo_balanced_partitions(net).elements
    )


def test_balanced_subset_of_exo_balanced():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        mats = [
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]
        net = network_from_adjacencies(mats)
        balanced = set(balanced_partitions(net).elements)
        exo = set(exo_balanced_partitions(net).elements)
        assert balanced <= exo


def test_equitable_complete_graphs():
    for n in (3, 4, 5):
        assert len(equitable_partitions(complete_graph(n))) == bell_number(n)


def test_equitable_subset_of_almost_equitable():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 6)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    grid[i][j] = grid[j][i] = 1
        adjacency = RationalMatrix(grid)
        eq = set(equitable_partitions(adjacency).elements)
        ae = set(almost_equitable_partitions(adjacency).elements)
        assert eq <= ae


def test_equitable_rejects_bad_input():
    with pytest.raises(ValueError):
        equitable_partitions([[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(ValueError):
        equitable_partitions([[1, 0], [0, 1]])  # loops
    with pytest.raises(ValueError):
        equitable_partitions([[0, 2], [2, 0]])  # multigraph


def test_orbit_partitions_are_equitable():
    # rotation orbits of a cycle and the full dihedral orbit of the grid
    cyc = cycle_graph(6)
    eq = set(equitable_partitions(cyc).elements)
    for step in (1, 2, 3):
        orbit_size = _order(step, 6)
        labels = [min((i + k * step) % 6 for k in range(orbit_size)) + 1
                  for i in range(6)]
        assert Partition(labels) in eq
    grid = grid_graph(3, 3)
    eq_grid = set(equitable_partitions(grid).elements)
    # orbits of the 90-degree rotation: center, edge midpoints, corners
    rot = Partition.from_bar("1379|2468|5", 9)
    assert rot in eq_grid


def _order(step, n):
    k, acc = 1, step % n
    while acc:
        acc = (acc + step) % n
        k += 1
    return k


def test_path_cycle_star_generators():
    assert path_graph(3) == RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert cycle_graph(3) == complete_graph(3)
    assert star_graph(3) == RationalMatrix(
        [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
    )
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_graph_incidence_star():
    inc = graph_incidence(4, [(1, 2), (1, 3), (1, 4)])
    assert inc == RationalMatrix(K13_INCIDENCE)


def test_incidence_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure([[[0, 2], [1, 0]]])
    with pytest.raises(ValueError):
        IncidenceStructure([])
    inc = IncidenceStructure([K13_INCIDENCE])
    fam = incidence_family(inc)
    assert (fam.rows, fam.cols) == (4, 3)


# ---------------------------------------------------------------------------
# groups


def test_group_table_validation():
    with pytest.raises(ValueError):
        GroupTable([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(ValueError):
        GroupTable([[1, 0], [1, 0]])  # columns not permutations
    z3 = GroupTable.cyclic(3)
    assert z3.identity == 0 and z3.mul(1, 2) == 0


def test_group_table_rejects_non_associative_latin_square():
    # a 5-element loop (quasigroup with identity) that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        GroupTable(table)


def test_quaternion_table():
    q8 = GroupTable.quaternion()
    # i * j = k, j * i = -k, i * i = -1
    assert q8.mul(1, 2) == 3
    assert q8.mul(2, 1) == 7
    assert q8.mul(1, 1) == 4
    assert q8.identity == 0


def test_subgroups_counts():
    assert len(subgroups(GroupTable.cyclic(2))) == 2
    assert len(subgroups(GroupTable.cyclic(6))) == 4
    assert len(subgroups(GroupTable.quaternion())) == 6


def test_coset_partitions_z2_z6():
    z2 = subgroup_coset_partitions(GroupTable.cyclic(2))
    assert {p.bar() for p in z2} == {"12", "1|2"}
    z6 = subgroup_coset_partitions(GroupTable.cyclic(6))
    assert len(z6) == 4


def test_q8_cayley_balanced_equals_cosets():
    q8 = GroupTable.quaternion()
    net = cayley_network(q8, [2, 3])  # generators i and j
    lat = balanced_partitions(net)
    assert lat.bars() == [
        "12345678",
        "1256|3478",
        "1357|2468",
        "1458|2367",
        "15|26|37|48",
        "1|2|3|4|5|6|7|8",
    ]
    assert set(lat.elements) == subgroup_coset_partitions(q8)


def test_cyclic_cayley_balanced_equals_cosets():
    z4 = GroupTable.cyclic(4)
    net = cayley_network(z4, [2])  # the 1-step generator
    lat = balanced_partitions(net)
    assert set(lat.elements) == subgroup_coset_partitions(z4)
    assert len(lat) == 3  # subgroups of orders 1, 2, 4


def test_cayley_coset_identity_groups_up_to_order_16():
    z2 = GroupTable.cyclic(2)
    groups = [
        GroupTable.cyclic(2),
        GroupTable.cyclic(3),
        GroupTable.cyclic(5),
        GroupTable.cyclic(12),
        GroupTable.cyclic(16),
        GroupTable.quaternion(),
        _symmetric3(),
        _direct_product(_direct_product(z2, z2), z2),  # needs 3 generators
        _dihedral(8),  # order 16, 19 subgroups
    ]
    for group in groups:
        gens = _generating_set(group)
        net = cayley_network(group, [g + 1 for g in gens])
        lat = balanced_partitions(net, workers=2 if group.order >= 16 else 1)
        assert set(lat.elements) == subgroup_coset_partitions(group)


def _direct_product(g1, g2):
    n2 = g2.order

    def idx(a, b):
        return a * n2 + b

    table = [[0] * (g1.order * n2) for _ in range(g1.order * n2)]
    for a1 in range(g1.order):
        for b1 in range(n2):
            for a2 in range(g1.order):
                for b2 in range(n2):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(
                        g1.mul(a1, a2), g2.mul(b1, b2)
                    )
    return GroupTable(table)


def _dihedral(k):
    # order 2k on pairs (rotation, flip)
    def idx(r, f):
        return r + k * f

    table = [[0] * (2 * k) for _ in range(2 * k)]
    for r1 in range(k):
        for f1 in range(2):
            for r2 in range(k):
                for f2 in range(2):
                    r = (r1 + (r2 if f1 == 0 else -r2)) % k
                    table[idx(r1, f1)][idx(r2, f2)] = idx(r, f1 ^ f2)
    return GroupTable(table)


def _symmetric3():
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return GroupTable(
        [[index[compose(p, q)] for q in perms] for p in perms]
    )


def _generating_set(group):
    # grow a generating set greedily
    gens = []
    reached = {group.identity}
    for g in range(group.order):
        if g in reached:
            continue
        gens.append(g)
        frontier = [group.identity]
        reached = {group.identity}
        while frontier:
            a = frontier.pop()
            for s in gens:
                b = group.mul(a, s)
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if len(reached) == group.order:
            break
    return gens


def test_trivial_group_cayley():
    trivial = GroupTable.cyclic(1)
    net = cayley_network(trivial, [1])
    assert net.arrows == ((1, 1, 1),)
    assert balanced_partitions(net).bars() == ["1"]


def test_non_generating_set_warns():
    z4 = GroupTable.cyclic(4)
    with pytest.warns(NetworkConsistencyWarning):
        cayley_network(z4, [3])  # the 2-step element generates only half


def test_float_and_bool_indices_are_rejected():
    # a float or a boolean index would otherwise be truncated to an int
    with pytest.raises(ValueError, match="2.7"):
        ColoredNetwork(3, [(2.7, 1, 1)])
    with pytest.raises(ValueError, match="True"):
        ColoredNetwork(3, [(1, 2, True)])
    with pytest.raises(ValueError, match="True"):
        ColoredNetwork(True, [(1, 1, 1)])
    with pytest.raises(ValueError, match="True"):
        ColoredNetwork.from_json_dict(
            {"n": 2, "num_colors": True, "arrows": [{"from": 1, "to": 2}]}
        )
    for labels, shown in (([1, True, 2], "True"), ([1, 1.5, 2], "1.5")):
        obj = {"n": 3, "cell_types": labels, "arrows": [{"from": 1, "to": 2}]}
        with pytest.raises(ValueError, match=shown):
            ColoredNetwork.from_json_dict(obj)
    with pytest.raises(ValueError, match="1.0"):
        GroupTable([[0, 1], [1, 1.0]])
    with pytest.raises(ValueError, match="False"):
        GroupTable([[False, 1], [1, 0]])
    q8 = GroupTable.quaternion()
    with pytest.raises(ValueError, match="2.9"):
        cayley_network(q8, [2.9, 3])
    with pytest.raises(ValueError, match="True"):
        cayley_network(q8, [True])
    # so are declared counts, sizes, partition elements and coloring labels
    order = dict(q8.to_json_dict(), order=8.0)
    order["table"] = [[x + 1 for x in row] for row in order["table"]]
    with pytest.raises(ValueError, match="8.0"):
        GroupTable.from_json_dict(order)
    with pytest.raises(ValueError, match="True"):
        IncidenceStructure.from_json_dict({"points": True, "matrices": [[[1, 1]]]})
    with pytest.raises(ValueError, match="2.0"):
        IncidenceStructure.from_json_dict({"lines": 2.0, "matrices": [[[1, 1]]]})
    with pytest.raises(ValueError, match="True"):
        RationalMatrix.from_json_dict({"rows": True, "entries": [[1, 2]]})
    with pytest.raises(ValueError, match="True"):
        Partition.singleton(True)
    for classes, shown in (([[True, 2], [3]], "True"), ([[1.0, 2], [3]], "1.0")):
        with pytest.raises(ValueError, match=shown):
            Partition.from_classes(3, classes)
    with pytest.raises(ValueError, match="3.0"):
        Partition.from_json_dict({"n": 3.0, "coloring": [1, 1, 2]})
    with pytest.raises(ValueError, match="1.0"):
        Partition.from_json_dict({"coloring": [1, 1.0, 2]})
    for edge, shown in (((True, 2), "True"), ((1.0, 2), "1.0")):
        with pytest.raises(ValueError, match=shown):
            graph_incidence(3, [edge])
    with pytest.raises(ValueError, match="True"):
        colored_product(identity(2), (True, 2))


def test_group_json_round_trip():
    q8 = GroupTable.quaternion()
    obj = q8.to_json_dict()
    obj["table"] = [[x + 1 for x in row] for row in obj["table"]]
    assert GroupTable.from_json_dict(obj).table == q8.table


def test_incidence_json_round_trip():
    path = os.path.join(os.path.dirname(__file__), "data", "fano.json")
    with open(path) as fh:
        fano = IncidenceStructure.from_json_dict(json.load(fh))
    obj = fano.to_json_dict()
    assert (obj["points"], obj["lines"]) == (7, 7)
    assert IncidenceStructure.from_json_dict(obj) == fano


def test_network_json_round_trip(balex2_net):
    obj = balex2_net.to_json_dict()
    back = ColoredNetwork.from_json_dict(obj)
    assert back.arrows == balex2_net.arrows
    assert back.cell_types == balex2_net.cell_types
    assert "num_colors" not in obj
