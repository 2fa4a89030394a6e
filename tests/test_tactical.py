import json
import os
import random

import pytest

from synclat import (
    IncidenceStructure,
    MatrixFamily,
    Partition,
    PartitionPair,
    RationalMatrix,
    all_partitions,
    brute_tactical_set,
    characteristic_matrix,
    cir,
    cir_chain,
    column_space_contains,
    cycle_graph,
    directed_containment,
    filter_below,
    graph_incidence,
    hasse_edges,
    incidence_family,
    invariant_lattice,
    is_invariant,
    is_tactical,
    matmul,
    tactical_cir,
    tactical_cir_chain,
    tactical_lattice,
    transpose,
)
from synclat.lattice import _invariant_below
from synclat.refine import _filter_table, _square_fixpoint, _start_state
from conftest import K13_PAIRS, rand_partition
from test_partition import reference_bar


def rand_rect_family(rng, m, n):
    # p/q strings (q in {2, 3}) put rational families on every tactical path
    def entry():
        if rng.random() >= 0.5:
            return 0
        if rng.random() < 0.35:
            return f"{rng.randint(-3, 3)}/{rng.choice([2, 3])}"
        return rng.randint(-1, 2)

    count = rng.randint(1, 2)
    return MatrixFamily(
        [[[entry() for _ in range(n)] for _ in range(m)] for _ in range(count)]
    )


def pair(a, b, m, n):
    return PartitionPair(Partition.from_bar(a, m), Partition.from_bar(b, n))


def directed_by_columns(family, row_part, col_part):
    """Containment oracle: M * P(col) landing inside Col(P(row)), matrix by
    matrix."""
    pa = characteristic_matrix(row_part)
    pb = characteristic_matrix(col_part)
    return all(
        column_space_contains(pa, matmul(m, pb)) for m in family.matrices
    )


def test_directed_containment_star(k13_family):
    assert directed_containment(
        k13_family, Partition.from_bar("1|234", 4), Partition.from_bar("123", 3)
    )
    # the one-class row partition demands Col(M P(1|2|3)) = Col(M) inside a
    # line, which fails; settled independently by the column-space oracle
    a = Partition.singleton(4)
    b = Partition.discrete(3)
    assert directed_by_columns(k13_family, a, b) is False
    assert directed_containment(k13_family, a, b) is False
    # the all-singletons row partition accepts anything
    assert directed_containment(k13_family, Partition.discrete(4), b)


def test_directed_containment_matches_oracle():
    rng = random.Random(0)
    for _ in range(500):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = rand_rect_family(rng, m, n)
        a, b = rand_partition(rng, m), rand_partition(rng, n)
        assert directed_containment(fam, a, b) == directed_by_columns(fam, a, b)


def test_is_tactical_star_examples(k13_family):
    assert is_tactical(k13_family, pair("1|2|34", "1|23", 4, 3))
    assert is_tactical(k13_family, PartitionPair.discrete(4, 3))
    assert not is_tactical(k13_family, pair("1234", "123", 4, 3))
    for a, b in K13_PAIRS:
        assert is_tactical(k13_family, pair(a, b, 4, 3))


def test_tactical_cir_star(k13_family):
    got = tactical_cir(k13_family, PartitionPair.singleton(4, 3))
    assert got == pair("1|234", "123", 4, 3)


def test_tactical_cir_two_colors(tacticalex1_family):
    got = tactical_cir(tacticalex1_family, PartitionPair.singleton(2, 4))
    assert got == pair("12", "14|23", 2, 4)


def test_tactical_cir_bottom_fixed():
    rng = random.Random(1)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = rand_rect_family(rng, m, n)
        bottom = PartitionPair.discrete(m, n)
        assert tactical_cir(fam, bottom) == bottom


def test_tactical_cir_properties_random():
    rng = random.Random(2)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        fam = rand_rect_family(rng, m, n)
        start = PartitionPair(rand_partition(rng, m), rand_partition(rng, n))
        got = tactical_cir(fam, start)
        assert got.refines(start)
        assert is_tactical(fam, got)
        assert tactical_cir(fam, got) == got


def test_tactical_cir_maximality_against_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        fam = rand_rect_family(rng, m, n)
        start = PartitionPair(rand_partition(rng, m), rand_partition(rng, n))
        got = tactical_cir(fam, start)
        for candidate in brute_tactical_set(fam):
            if candidate.refines(start):
                assert candidate.refines(got)


def test_tactical_chain_monotone():
    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        fam = rand_rect_family(rng, m, n)
        start = PartitionPair(rand_partition(rng, m), rand_partition(rng, n))
        chain = tactical_cir_chain(fam, start)
        assert chain[0] == start and chain[-1] == tactical_cir(fam, start)
        for coarser, finer in zip(chain, chain[1:]):
            assert finer.refines(coarser) and finer != coarser


def test_square_invariant_joins_diagonal_for_transpose_closed_families():
    # for a family closed under transposition, invariant partitions embed
    # diagonally as tactical decompositions
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 4)
        half = rand_rect_family(rng, n, n)
        mats = list(half.matrices) + [transpose(m) for m in half.matrices]
        fam = MatrixFamily(mats)
        part = rand_partition(rng, n)
        if is_invariant(fam, part):
            assert is_tactical(fam, PartitionPair(part, part))


def test_tactical_lattice_star(k13_family):
    lat = tactical_lattice(k13_family)
    assert [p.bar() for p in lat.elements] == [
        f"({a}, {b})" for a, b in K13_PAIRS
    ]


def test_tactical_lattice_identity_swap():
    fam = MatrixFamily([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    lat = tactical_lattice(fam)
    assert [p.bar() for p in lat.elements] == ["(12, 12)", "(1|2, 1|2)"]


def test_tactical_lattice_two_colors(tacticalex1_family):
    lat = tactical_lattice(tacticalex1_family)
    assert [p.bar() for p in lat.elements] == ["(12, 14|23)", "(1|2, 1|2|3|4)"]


@pytest.mark.parametrize("fixture", ["k13_family", "tacticalex1_family", "fano_family"])
def test_tactical_lattice_workers_agree(fixture, request):
    family = request.getfixturevalue(fixture)
    runs = [tactical_lattice(family, workers=w) for w in (1, 2, 3)]
    assert runs[0].cover_edges == tuple(hasse_edges(runs[0].elements))
    for other in runs[1:]:
        assert other.elements == runs[0].elements
        assert other.cover_edges == runs[0].cover_edges
        assert other.stats == runs[0].stats
    assert runs[0].stats.visited_exact


def petersen_incidence():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return MatrixFamily([graph_incidence(10, outer + spokes + inner)])


def test_tactical_lattice_petersen_stats():
    family = petersen_incidence()
    seq = tactical_lattice(family)
    par = tactical_lattice(family, workers=2)  # the same in-process search
    assert (len(seq), len(seq.cover_edges)) == (134, 407)
    assert par.elements == seq.elements
    assert par.cover_edges == seq.cover_edges
    # the work of the sequential search, pinned
    stats = seq.stats
    assert (stats.cir_calls, stats.splits_examined, stats.popped) == (902, 901, 134)
    assert (stats.visited_partitions, stats.queue_peak) == (2765, 82)


def test_tactical_lattice_petersen_json_is_reproducible():
    # workers=2 runs the inline search, so its JSON is reproducible
    family = petersen_incidence()
    first = tactical_lattice(family, workers=2).to_json_dict()
    assert first["stats"]["queue_peak"] == 82  # the inline value
    assert tactical_lattice(family, workers=2).to_json_dict() == first


def test_pair_bars_match_the_classes(k13_family):
    # Petersen has comma bars on both sides (10 and 15 points), K_{1,3} on none
    for family in (petersen_incidence(), k13_family):
        lat = tactical_lattice(family)
        want = [
            f"({reference_bar(e.row_part)}, {reference_bar(e.col_part)})" for e in lat
        ]
        assert lat.bars() == want
        assert [e.bar() for e in lat] == want
        assert all(PartitionPair.from_bar(e.bar(), *e.shape) == e for e in lat)


def test_tactical_lattice_petersen_refinement_passes(split_passes):
    # each kept refinement chain is the one split credited with its result,
    # so no lower cover is refined twice
    tactical_lattice(petersen_incidence())
    assert len(split_passes) == 3233


def two_power_table(engine):
    """The rows of F = W + K·W² with K = 2·max_i sum_j |W_ij| + 1, for the
    packed weights W of the engine."""
    rows, _, ones = engine
    if ones:
        rows = [[(j, 1) for j in row] for row in rows]
    k = 2 * max(sum(abs(w) for _, w in row) for row in rows) + 1
    table = []
    for row in rows:
        weights = dict(row)
        for j, w in row:
            for t, x in rows[j]:
                weights[t] = weights.get(t, 0) + k * w * x
        table.append(tuple(sorted((j, x) for j, x in weights.items() if x)))
    return tuple(table)


def test_tactical_filter_table_leaves_out_w_cubed():
    # W³ maps each side of the block family to the other, so no class of a
    # coloring below {rows | columns} reads it: the tactical search filters
    # on W + K·W² alone, and refines the splits it did without W³
    rng = random.Random(29)
    families = [petersen_incidence(), fano_from_file()]
    families += [rand_rect_family(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)]
    for family in families:
        engine = family.block_engine()
        sides = [1] * family.rows + [2] * family.cols
        assert _filter_table(engine, sides)[0] == two_power_table(engine)


def block_matrix(m):
    """The square matrix [[0, M], [M^T, 0]] on the rows, then the columns."""
    rows, cols = m.rows, m.cols
    top = [[0] * rows + list(row) for row in m.entries]
    bottom = [[m.entries[i][j] for i in range(rows)] + [0] * cols for j in range(cols)]
    return RationalMatrix(top + bottom)


def test_tactical_lattice_is_the_block_lattice_below_the_side_split():
    # a pair is tactical exactly when its joined coloring is invariant under
    # the block family; such colorings are the ones below {rows | columns}
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = rand_rect_family(rng, m, n)
        block = MatrixFamily([block_matrix(mat) for mat in fam.matrices])
        split = Partition([1] * m + [2] * n)
        below = filter_below(invariant_lattice(block), split)
        pairs = tuple(
            PartitionPair(Partition(e.coloring[:m]), Partition(e.coloring[m:]))
            for e in below.elements
        )
        lat = tactical_lattice(fam)
        assert lat.elements == pairs
        assert lat.cover_edges == below.cover_edges
        for pair_ in pairs:
            assert Partition(pair_.joined()) in below


def test_tactical_lattice_1x1():
    lat = tactical_lattice(MatrixFamily([[[1]]]))
    assert [p.bar() for p in lat.elements] == ["(1, 1)"]


def tactical_by_definition(family):
    """All tactical pairs by the double scan over the definition: column-space
    containment of both sides' products, pair by pair."""
    transposes = [transpose(mat) for mat in family.matrices]
    rows = [(a, characteristic_matrix(a)) for a in all_partitions(family.rows)]
    out = set()
    for b in all_partitions(family.cols):
        pb = characteristic_matrix(b)
        products = [matmul(mat, pb) for mat in family.matrices]
        for a, pa in rows:
            if all(column_space_contains(pa, q) for q in products) and all(
                column_space_contains(pb, matmul(mt, pa)) for mt in transposes
            ):
                out.add(PartitionPair(a, b))
    return out


def test_brute_tactical_set_matches_the_definition():
    rng = random.Random(8)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = rand_rect_family(rng, m, n)
        assert brute_tactical_set(fam) == tactical_by_definition(fam)


def test_tactical_lattice_matches_brute_force():
    rng = random.Random(6)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = rand_rect_family(rng, m, n)
        lat = tactical_lattice(fam)
        assert set(lat.elements) == brute_tactical_set(fam)
        assert lat.cover_edges == tuple(hasse_edges(lat.elements))


def test_tactical_shape_errors(k13_family):
    with pytest.raises(ValueError):
        is_tactical(k13_family, PartitionPair.discrete(3, 4))
    with pytest.raises(ValueError):
        tactical_cir(k13_family, PartitionPair.singleton(4, 4))
    with pytest.raises(ValueError):
        directed_containment(
            k13_family, Partition.singleton(3), Partition.singleton(4)
        )


C5 = MatrixFamily([cycle_graph(5)])
RECT = MatrixFamily([[[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]])  # 4x3
MISMATCHES = {
    "partition-size": (C5, Partition.singleton(4)),
    "partition-rectangular": (RECT, Partition.singleton(3)),
    "pair-square": (C5, PartitionPair.singleton(5, 4)),
    "pair-rectangular": (RECT, PartitionPair.singleton(3, 4)),
}
ENTRY_POINTS = (
    cir,
    cir_chain,
    is_invariant,
    tactical_cir,
    tactical_cir_chain,
    is_tactical,
    _invariant_below,
)


@pytest.mark.parametrize(
    "call, family, part",
    [
        pytest.param(call, *case, id=f"{call.__name__}-{name}")
        for call in ENTRY_POINTS
        for name, case in MISMATCHES.items()
    ]
    + [
        pytest.param(
            lambda family, _: invariant_lattice(family),
            RECT,
            None,
            id="invariant_lattice-rectangular",
        )
    ],
)
def test_shape_mismatch_raises_value_error(call, family, part):
    with pytest.raises(ValueError):
        call(family, part)


def fano_from_file():
    data = os.path.join(os.path.dirname(__file__), "data", "fano.json")
    with open(data) as fh:
        return incidence_family(IncidenceStructure.from_json_dict(json.load(fh)))


def test_witness_guard_stops_when_an_earlier_class_splits():
    # Fano, E = (123|4|567, 124|356|7), S = {5, 7} of the row class 567: the
    # second step splits the earlier row class 123 and keeps S whole.  Its
    # fixpoint is credited to a split of 123, so this chain stops there
    family = fano_from_file()
    start = pair("123|4|57|6", "124|356|7", 7, 7)
    chain = tactical_cir_chain(family, start)
    assert [(p.row_part.bar(), p.col_part.bar()) for p in chain] == [
        ("123|4|57|6", "124|356|7"),
        ("123|4|57|6", "12|3|4|56|7"),
        ("1|23|4|57|6", "12|3|4|56|7"),
    ]
    steps = []
    engine = family.block_engine()
    got = _square_fixpoint(engine, *_start_state(start.joined()), steps.append, 4)
    assert got is None
    assert steps == [p.joined() for p in chain[:2]]


@pytest.mark.parametrize("make_family", [fano_from_file, petersen_incidence])
def test_square_entry_points_on_a_pair_are_the_tactical_ones(make_family):
    family = make_family()
    m, n = family.rows, family.cols
    rng = random.Random(12)
    starts = [PartitionPair.singleton(m, n), PartitionPair.discrete(m, n)]
    starts += [
        PartitionPair(rand_partition(rng, m), rand_partition(rng, n))
        for _ in range(20)
    ]
    for start in starts:
        result = cir(family, start)
        assert result == tactical_cir(family, start)
        assert result.refines(start) and is_tactical(family, result)
        assert cir_chain(family, start) == tactical_cir_chain(family, start)
        assert is_invariant(family, start) == is_tactical(family, start)
    for pair in tactical_lattice(family).elements[:20]:
        assert is_invariant(family, pair) and is_tactical(family, pair)
