import multiprocessing
import random
import time
from fractions import Fraction

import pytest

from synclat import (
    ElementCapExceeded,
    MatrixFamily,
    Partition,
    PartitionPair,
    all_partitions,
    balanced_partitions,
    bell_number,
    brute_invariant_set,
    cir_chain,
    complete_graph,
    cycle_graph,
    equitable_partitions,
    filter_below,
    hasse_edges,
    invariant_lattice,
    is_invariant,
    path_graph,
    tactical_lattice,
    zeros,
)
from synclat.lattice import _maxima, _run_task, _witnesses
from synclat.partition import canonical_coloring
from synclat.refine import _filter_table, _prepare, _start_state
from conftest import FIG1_BARS, bar
from test_tactical import rand_rect_family
from test_witness import earlier_weights, planted_family, symmetric_circulant_family


def rand_family(rng, n):
    count = rng.randint(1, 2)
    return MatrixFamily(
        [
            [[rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
            for _ in range(count)
        ]
    )


def test_fig1_lattice(fig1_family):
    lat = invariant_lattice(fig1_family)
    assert lat.bars() == FIG1_BARS


def test_fig1_meet_within_lattice_is_discrete(fig1_family):
    # the two nontrivial elements meet at 1|2|35|4 in the full partition
    # lattice, but that partition is not invariant; within the invariant
    # lattice their meet drops to the bottom
    lat = invariant_lattice(fig1_family)
    a = bar("135|24", 5)
    b = bar("14|235", 5)
    ambient = a.meet(b)
    assert ambient == bar("1|2|35|4", 5)
    assert ambient not in lat
    below_both = [e for e in lat.elements if e.refines(a) and e.refines(b)]
    meet_in_lattice = below_both[0]
    for e in below_both[1:]:
        meet_in_lattice = meet_in_lattice.join(e)
    assert meet_in_lattice == Partition.discrete(5)
    # 13|24|5 is invariant and sits strictly between 135|24 and the bottom,
    # so the reduced diagram routes through it rather than jumping down
    mid = bar("13|24|5", 5)
    assert mid in lat and mid.refines(a) and Partition.discrete(5).refines(mid)
    ia, ib = lat.index_of(a), lat.index_of(Partition.discrete(5))
    assert (ia, lat.index_of(mid)) in lat.cover_edges
    assert (ia, ib) not in lat.cover_edges


def test_balex_lattice(balex_family):
    lat = invariant_lattice(balex_family)
    assert lat.bars() == ["13|245", "13|24|5", "1|25|3|4", "1|2|3|4|5"]
    # the four elements form a diamond: the middle two are incomparable
    edges = {
        (lat.elements[c].bar(), lat.elements[f].bar()) for c, f in lat.cover_edges
    }
    assert edges == {
        ("13|245", "13|24|5"),
        ("13|245", "1|25|3|4"),
        ("13|24|5", "1|2|3|4|5"),
        ("1|25|3|4", "1|2|3|4|5"),
    }


def test_singleton_ground_set():
    lat = invariant_lattice(MatrixFamily([[[5]]]))
    assert lat.bars() == ["1"]
    assert lat.cover_edges == ()


def test_zero_family_gives_whole_partition_lattice():
    for fam in (MatrixFamily([zeros(4, 4)]), MatrixFamily([zeros(4, 4)] * 2)):
        # every row of the integer engine is empty, so every row keys to 0
        assert fam.engine()[0] == ((),) * 4
        lat = invariant_lattice(fam)
        assert len(lat) == 15  # Bell(4)


def test_every_element_is_invariant(fig1_family, balex_family, posetalgo_family):
    for fam in (fig1_family, balex_family, posetalgo_family):
        lat = invariant_lattice(fam)
        for element in lat.elements:
            assert is_invariant(fam, element)


def test_top_and_bottom(fig1_family):
    from synclat import cir

    lat = invariant_lattice(fig1_family)
    assert lat.elements[0] == cir(fig1_family, Partition.singleton(5))
    assert lat.elements[-1] == Partition.discrete(5)


def test_join_closure_random():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 5)
        lat = invariant_lattice(rand_family(rng, n))
        elements = set(lat.elements)
        for a in lat.elements:
            for b in lat.elements:
                assert a.join(b) in elements


def test_matches_brute_force_random():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 6)
        fam = rand_family(rng, n)
        lat = invariant_lattice(fam)
        assert set(lat.elements) == brute_invariant_set(fam)


def test_deterministic_across_runs_and_workers(fig1_family, posetalgo_family):
    for fam in (fig1_family, posetalgo_family):
        runs = [invariant_lattice(fam) for _ in range(2)]
        runs.append(invariant_lattice(fam, workers=2))
        runs.append(invariant_lattice(fam, workers=3))
        assert runs[0].cover_edges == tuple(hasse_edges(runs[0].elements))
        for other in runs[1:]:
            assert other.elements == runs[0].elements
            assert other.cover_edges == runs[0].cover_edges
            assert other.stats == runs[0].stats


def test_membership_and_index_of_complete_graph():
    lat = invariant_lattice(MatrixFamily([complete_graph(6)]))
    assert len(lat) == bell_number(6)
    for i, element in enumerate(lat.elements):
        twin = Partition(list(element.coloring))
        assert twin is not element and twin in lat
        assert lat.index_of(twin) == i
    outsider = Partition.singleton(7)
    assert outsider not in lat
    with pytest.raises(ValueError):
        lat.index_of(outsider)


def test_complete_graph_k9_covers_are_one_class_splits():
    t0 = time.monotonic()
    lat = invariant_lattice(MatrixFamily([complete_graph(9)]))
    elapsed = time.monotonic() - t0
    assert len(lat) == bell_number(9) == 21147
    # every partition is invariant, so its lower covers are all its
    # one-class splits: 2^(s-1) - 1 of them per class of size s
    want = sum(
        sum(2 ** (len(c) - 1) - 1 for c in e.classes()) for e in lat.elements
    )
    assert len(lat.cover_edges) == want == 175896
    for i, j in lat.cover_edges:
        coarse, fine = lat.elements[i], lat.elements[j]
        assert fine.num_classes == coarse.num_classes + 1 and fine.refines(coarse)
    assert elapsed < 60.0


def test_posetalgo_stats(posetalgo_family):
    lat = invariant_lattice(posetalgo_family)
    assert len(lat) == 4
    assert lat.stats.visited_partitions == 10
    assert lat.stats.visited_exact
    assert lat.stats.popped == 4
    assert lat.stats.cir_calls == lat.stats.splits_examined + 1


def test_visited_cap_saturates_the_count(monkeypatch):
    import synclat.lattice as lattice

    family = MatrixFamily([cycle_graph(8)])
    full = invariant_lattice(family, workers=1)
    assert (full.stats.visited_partitions, full.stats.visited_exact) == (71, True)
    monkeypatch.setattr(lattice, "_VISITED_CAP", 5)
    capped = invariant_lattice(family, workers=1)
    # the tracker stops one partition past the cap and keeps that count
    assert (capped.stats.visited_partitions, capped.stats.visited_exact) == (6, False)
    assert capped.elements == full.elements
    assert capped.cover_edges == full.cover_edges


@pytest.mark.parametrize("n", [255, 256])
def test_visited_keys_on_both_sides_of_the_byte_bound(n):
    # the visited set keys colorings of fewer than 256 elements as bytes and
    # longer ones as tuples; bytes() of P_256's discrete coloring, whose
    # largest color is 256, would raise
    lat = equitable_partitions(path_graph(n))
    assert len(lat) == 2 and lat.cover_edges == ((0, 1),)
    assert (lat.stats.visited_partitions, lat.stats.visited_exact) == (n, True)


def test_stats_split_bound(fig1_family):
    # the queue only ever examines the ambient lower covers of elements
    lat = invariant_lattice(fig1_family)
    bound = sum(len(e.lower_covers()) for e in lat.elements)
    assert lat.stats.splits_examined <= bound
    assert lat.stats.queue_peak <= len(lat)


def test_element_cap():
    with pytest.raises(ElementCapExceeded) as info:
        invariant_lattice(MatrixFamily([zeros(5, 5)]), element_cap=10)
    assert info.value.count == 11
    with pytest.raises(ElementCapExceeded):
        invariant_lattice(MatrixFamily([zeros(5, 5)]), element_cap=10, workers=2)
    # 25 tactical pairs of the 3x3 zero matrix
    with pytest.raises(ElementCapExceeded) as info:
        tactical_lattice(MatrixFamily([zeros(3, 3)]), element_cap=10, workers=2)
    assert info.value.count == 11


@pytest.mark.parametrize("cap", [0, -5])
def test_element_cap_below_one_is_rejected(cap, balex2_net):
    # the top element alone would already exceed such a cap
    diagonal = MatrixFamily([[[1, 0], [0, 2]]])
    for compute, arg in (
        (invariant_lattice, diagonal),
        (tactical_lattice, diagonal),
        (balanced_partitions, balex2_net),
    ):
        with pytest.raises(ValueError, match="element_cap"):
            compute(arg, element_cap=cap)
    # the cap is checked before any work: no engine was built
    assert diagonal._engine is None and diagonal._block is None


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_rejected(workers, balex2_net):
    diagonal = MatrixFamily([[[1, 0], [0, 2]]])
    for compute, arg in (
        (invariant_lattice, diagonal),
        (tactical_lattice, diagonal),
        (balanced_partitions, balex2_net),
        (equitable_partitions, cycle_graph(4)),
    ):
        with pytest.raises(ValueError, match="workers"):
            compute(arg, workers=workers)


def test_workers_keyword_starts_no_process():
    # any worker count runs the search in this process
    lat = invariant_lattice(MatrixFamily([cycle_graph(8)]), workers=2)
    assert multiprocessing.active_children() == []
    assert lat.stats == invariant_lattice(MatrixFamily([cycle_graph(8)])).stats


def test_cap_abort_with_two_workers_starts_no_process():
    # workers=2 starts no process, also when the cap ends the search
    with pytest.raises(ElementCapExceeded):
        invariant_lattice(MatrixFamily([zeros(5, 5)]), element_cap=10, workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(ElementCapExceeded):
        tactical_lattice(MatrixFamily([zeros(3, 3)]), element_cap=10, workers=2)
    assert multiprocessing.active_children() == []


def test_complete_graph_k8_with_two_workers_matches_one():
    # 4140 elements: workers=2 runs the same search in this process
    fam = MatrixFamily([complete_graph(8)])
    inline = invariant_lattice(fam)
    t0 = time.monotonic()
    pooled = invariant_lattice(fam, workers=2)
    elapsed = time.monotonic() - t0
    assert len(pooled) == bell_number(8) == 4140
    assert pooled.elements == inline.elements
    assert pooled.cover_edges == inline.cover_edges
    assert pooled.stats == inline.stats
    assert elapsed < 15.0


def test_complete_graph_k7_refines_each_element_once(split_passes, monkeypatch):
    # every split of K_7 is invariant: the first split that reaches an
    # element takes one pass (the bottom none) and every later one is
    # answered from the elements already found
    import synclat.lattice as lattice

    refines = []
    real = lattice._refines

    def counted(fine, coarse):
        refines.append(None)
        return real(fine, coarse)

    monkeypatch.setattr(lattice, "_refines", counted)
    fam = MatrixFamily([complete_graph(7)])
    inline = invariant_lattice(fam)
    assert len(split_passes) == 876
    assert len(inline) == bell_number(7) == 877
    assert len(inline.cover_edges) == 4802
    # each kept result has one class more than its element, so it is a
    # lower cover with no comparison; C_8's results after a strict step are
    # compared
    assert refines == []
    invariant_lattice(MatrixFamily([cycle_graph(8)]))
    assert refines
    stats = inline.stats
    assert (
        stats.cir_calls,
        stats.splits_examined,
        stats.splits_pruned,
        stats.queue_peak,
        stats.popped,
        stats.visited_partitions,
        stats.visited_exact,
    ) == (4803, 4802, 0, 467, 877, 877, True)
    two = invariant_lattice(fam, workers=2)
    assert two.elements == inline.elements
    assert two.cover_edges == inline.cover_edges
    assert two.stats == stats


def split_starts(element, table):
    """The start of every split that ``_run_task`` refines, in order,
    numbered by ``canonical_coloring``: the splits that ``_witnesses``
    yields whose witness S gives one F-weight to each member of every
    earlier class."""
    col, classes = _start_state(element)
    starts = []
    for color, members in enumerate(classes):
        if len(members) < 2:
            continue
        for inside, outside in _witnesses(table, col, members, {}):
            if any(len(w) > 1 for w in earlier_weights(table, classes, color, inside)):
                continue
            labels = list(col)
            for i in outside:
                labels[i] = len(classes) + 1
            starts.append(canonical_coloring(labels))
    return starts


@pytest.mark.parametrize(
    "graph, top, all_known",
    [
        # the splits include 1267|3458, whose witness splits in the second
        # step, and 1|2345678, the classes by distance from vertex 1
        (cycle_graph(8), "12345678", False),
        (cycle_graph(8), "1357|2468", False),
        # every split of K_6 is its own fixpoint, 125|346 among them
        (complete_graph(6), "123456", True),
    ],
)
def test_known_splits_are_answered_without_a_pass(split_passes, graph, top, all_known):
    engine = MatrixFamily([graph]).engine()
    split_filter = _filter_table(engine, [1] * graph.rows)
    table = split_filter[0]
    element = Partition.from_bar(top, graph.rows).coloring
    plain = []
    found, _, _, examined, skipped = _run_task(engine, split_filter, {}, {}, element, plain.append)
    want = found, examined, skipped
    refined = len(split_passes)
    assert refined > 0
    # a known coloring that no split starts from changes nothing
    split_passes.clear()
    steps = []
    found, _, _, examined, skipped = _run_task(
        engine, split_filter, {element: 0}, {}, element, steps.append
    )
    got = found, examined, skipped
    assert (got, steps, len(split_passes)) == (want, plain, refined)
    # a split whose start is a known fixpoint is answered by the lookup; had
    # it been refined, it would have made one report and, with fewer than n
    # classes, one pass that changed nothing
    known = {coloring: index for index, coloring in enumerate(want[0])}
    answered = [start for start in split_starts(element, table) if start in known]
    assert answered and (len(answered) == want[1]) == all_known
    split_passes.clear()
    steps = []
    found, _, _, examined, skipped = _run_task(
        engine, split_filter, known, {}, element, steps.append
    )
    got = found, examined, skipped
    assert got == want
    assert len(steps) == len(plain) - len(answered)
    assert len(split_passes) == refined - sum(max(s) < len(s) for s in answered)
    if all_known:
        assert (steps, split_passes) == ([], [])


def weighted_cycle_family(rng, n):
    """{a·A + b·I, c·(2I - A)} for a shuffled C_n, with two-digit
    numerators over 7, 5 and 3 (the shape of the bench's weighted family)."""

    def value(denominator):
        p = rng.choice([p for p in range(10, 100) if p % denominator])
        return Fraction(rng.choice((-p, p)), denominator)

    perm = list(range(n))
    rng.shuffle(perm)
    a, b, c = value(7), value(5), value(3)
    first = [[0] * n for _ in range(n)]
    second = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            adjacent = int((i - j) % n in (1, n - 1))
            first[perm[i]][perm[j]] = a * adjacent + b * (i == j)
            second[perm[i]][perm[j]] = c * (2 * (i == j) - adjacent)
    return MatrixFamily([first, second])


def random_coloring(rng, sizes):
    """A canonical coloring whose blocks of ``sizes`` members each get
    their own random labels, so no class straddles two blocks."""
    labels = []
    for offset, size in enumerate(sizes):
        labels += [(offset, rng.randint(1, 3)) for _ in range(size)]
    return canonical_coloring(labels)


def assert_second_stage_is_exact(engine, split_filter, colorings):
    """``_run_task`` refines exactly the splits of :func:`split_starts`,
    whose witness gives one F-weight to every member of each earlier class
    by ``earlier_weights``, for the filter ``split_filter`` of
    ``_filter_table``.  Returns the number of splits the second stage
    decides and, among those it passes, how many pass a class whose
    members' rows of F differ on S."""
    table = split_filter[0]
    checks = cancelled = 0
    for coloring in colorings:
        col, classes = _start_state(coloring)
        for color, members in enumerate(classes):
            earlier = [y for y in classes[:color] if len(y) > 1]
            if len(members) < 2 or not earlier:
                continue
            for inside, _ in _witnesses(table, col, members, {}):
                checks += 1
                if all(len(w) == 1 for w in earlier_weights(table, earlier, len(earlier), inside)):
                    cancelled += any(
                        len({tuple(dict(table[i]).get(j, 0) for j in inside) for i in y}) > 1
                        for y in earlier
                    )
        starts = split_starts(coloring, table)
        reports = []
        _, _, _, examined, _ = _run_task(engine, split_filter, {}, {}, coloring, reports.append)
        assert examined == len(starts)
        assert set(starts) <= set(reports)
    return checks, cancelled


def test_second_stage_is_exact_at_its_edges():
    rng = random.Random(31)
    # the bench's weighted shape: F's entries pass 1,000 bits
    for n, entry_bits in ((15, 1000), (9, 500)):
        family = weighted_cycle_family(rng, n)
        engine = family.engine()
        split_filter = _filter_table(engine, [1] * n)
        table = split_filter[0]
        assert max(abs(f).bit_length() for row in table for _, f in row) > entry_bits
        colorings = [e.coloring for e in invariant_lattice(family).elements]
        colorings += [random_coloring(rng, [n]) for _ in range(10)]
        checks, _ = assert_second_stage_is_exact(engine, split_filter, colorings)
        assert checks > 20
    # signed families, whose rows of F can differ on S and still give each
    # member one F-weight; and rectangular families on the block engine
    checks = cancelled = 0
    for trial in range(60):
        n = rng.randint(4, 8)
        if trial % 3 == 2:
            m = rng.randint(2, 5)
            family = rand_rect_family(rng, m, n)
            sizes, search = [m, n], tactical_lattice
            engine = family.block_engine()
        else:
            family = (planted_family, symmetric_circulant_family)[trial % 3](rng, n)
            sizes, search = [family.cols], invariant_lattice
            engine = family.engine()
        # the table of the search, from the one-class or {rows | columns} start
        split_filter = _filter_table(
            engine, [k for k, size in enumerate(sizes, 1) for _ in range(size)]
        )
        colorings = [
            e.joined() if isinstance(e, PartitionPair) else e.coloring
            for e in search(family).elements
        ]
        colorings += [random_coloring(rng, sizes) for _ in range(8)]
        got = assert_second_stage_is_exact(engine, split_filter, colorings)
        checks += got[0]
        cancelled += got[1]
    assert checks > 1000 and cancelled > 40
    # W maps the columns 3, 4, 5 to the rows 0, 1, 2, so W² = 0 and F = W,
    # with largest absolute row sum R = 3 and digits 3 bits wide.  From
    # S = {3, 4} the earlier class {0, 1, 2} gets -2, 2, -3; digits 2 bits
    # wide would add 4 - 1·4 = 0.  From S = {2, 3} the class {0, 1} of the
    # second family gets -3 and 3, which differ by 2R
    for grid, coloring in (
        ([[0, 0, 0, -1, -1, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, -2, -1, 0]] + [[0] * 6] * 3,
         (1, 1, 1, 2, 2, 2)),
        ([[0, 0, -1, -2, 0], [0, 0, 1, 2, 0]] + [[0] * 5] * 3, (1, 1, 2, 2, 2)),
    ):
        engine = MatrixFamily([grid]).engine()
        split_filter = _filter_table(engine, [1] * len(grid))
        table, _, bits = split_filter
        assert [list(row) for row in table] == [
            [(j, x) for j, x in enumerate(row) if x] for row in grid
        ]
        assert assert_second_stage_is_exact(engine, split_filter, [coloring]) == (3, 0)
        assert bits == 3


def test_every_coloring_the_refinement_hands_out_is_canonical():
    # Partition._from_canonical and PartitionPair._from_joined trust their
    # input, so every step, report and fixpoint must be canonical already
    rng = random.Random(23)

    def labels(n):
        out = [1]
        for _ in range(n - 1):
            out.append(rng.randint(1, max(out) + 1))
        return out

    checked = 0
    for trial in range(72):
        make = (planted_family, symmetric_circulant_family, rand_rect_family)[trial % 3]
        if make is rand_rect_family:
            fam = make(rng, rng.randint(2, 5), rng.randint(2, 5))
        else:
            fam = make(rng, rng.randint(3, 8))
        search = invariant_lattice if fam.is_square else tactical_lattice
        lattice = search(fam)
        for _ in range(3):
            start = Partition(labels(fam.cols))
            if not fam.is_square:
                start = PartitionPair(Partition(labels(fam.rows)), start)
            for step in cir_chain(fam, start):
                parts = (step,) if fam.is_square else (step.row_part, step.col_part)
                for part in parts:
                    assert part.coloring == canonical_coloring(part.coloring)
        engine, _, _ = _prepare(fam, lattice.elements[0])
        split_filter = _filter_table(engine, [1] * len(engine[0]))
        table = split_filter[0]
        for element in lattice.elements:
            _, coloring, _ = _prepare(fam, element)
            reports = []
            found, _, _, _, _ = _run_task(engine, split_filter, {}, {}, coloring, reports.append)
            # each split is reported from its own start, numbered canonically
            assert set(split_starts(coloring, table)) <= set(reports)
            for handed_out in [*reports, *found]:
                assert handed_out == canonical_coloring(handed_out)
                checked += 1
        if trial < 3:
            two = search(fam, workers=2)
            assert (two.elements, two.cover_edges) == (lattice.elements, lattice.cover_edges)
            assert two.stats == lattice.stats
    assert checked > 1000


def below(fine, coarse):
    """Every class of ``fine`` inside one class of ``coarse``."""
    classes = {}
    for f, c in zip(fine, coarse):
        classes.setdefault(f, set()).add(c)
    return all(len(c) == 1 for c in classes.values())


def test_results_after_a_strict_step_are_checked_against_the_unchecked_covers():
    # a kept result with one class more than its element is a lower cover
    # unchecked; one after a strict step can lie strictly below such a
    # cover, and is then none.  With nothing known, every kept result is
    # fresh, and its discovery index is its place in found
    rng = random.Random(1)
    below_unchecked = 0
    for _ in range(20):
        family = symmetric_circulant_family(rng, rng.randint(4, 10))
        lat = invariant_lattice(family)
        assert list(lat.cover_edges) == hasse_edges(lat.elements)
        finer = {}
        for coarse, fine in lat.cover_edges:
            finer.setdefault(coarse, []).append(lat.elements[fine].coloring)
        engine = family.engine()
        split_filter = _filter_table(engine, [1] * family.cols)
        for e, element in enumerate(lat.elements):
            found, fresh, covers, _, _ = _run_task(engine, split_filter, {}, {}, element.coloring)
            assert fresh == found
            assert sorted(found[k] for k in covers) == sorted(finer.get(e, []))
            unchecked = [c for c in found if max(c) == element.num_classes + 1]
            for k, result in enumerate(found):
                stepped = max(result) > element.num_classes + 1
                if stepped and any(below(result, c) for c in unchecked):
                    assert k not in covers
                    below_unchecked += 1
    assert below_unchecked > 40


def test_maxima_match_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 7)
        pool = list(all_partitions(n))
        candidates = [p.coloring for p in rng.sample(pool, rng.randint(1, min(12, len(pool))))]
        want = [c for c in candidates if not any(c != d and below(c, d) for d in candidates)]
        assert sorted(_maxima([], candidates)) == sorted(want)
        # the candidates of the fewest classes are maxima; passed as the
        # coarsest, they are compared with, and not returned
        fewest = min(map(max, candidates))
        top = [c for c in candidates if max(c) == fewest]
        rest = [c for c in candidates if max(c) > fewest]
        assert sorted(_maxima(top, rest)) == sorted(c for c in want if max(c) > fewest)
        # with one class count nothing refines anything else
        k = rng.randint(1, n)
        level = [p.coloring for p in pool if max(p.coloring) == k]
        level = rng.sample(level, rng.randint(1, len(level)))
        assert _maxima([], level) == level
    assert _maxima([], []) == []


def test_rectangular_family_rejected():
    with pytest.raises(ValueError):
        invariant_lattice(MatrixFamily([[[1, 0, 0], [0, 1, 0]]]))


def test_filter_below(balex2_net, fig1_family):
    from synclat import monochrome_adjacency

    lat = invariant_lattice(monochrome_adjacency(balex2_net))
    assert lat.bars() == ["1|234", "1|23|4", "1|24|3", "1|2|34", "1|2|3|4"]
    kept = filter_below(lat, bar("12|34", 4))
    assert kept.bars() == ["1|2|34", "1|2|3|4"]
    assert kept.cover_edges == ((0, 1),)
    # a down-set keeps exactly the parent's covers between its elements
    for parent in (lat, invariant_lattice(fig1_family)):
        for top in parent.elements:
            kept = filter_below(parent, top)
            assert kept.cover_edges == tuple(hasse_edges(kept.elements))
    # filtering below the one-class partition keeps everything
    full = filter_below(lat, Partition.singleton(4))
    assert full.elements == lat.elements
    # filtering below the all-singletons partition keeps only the bottom
    bottom = filter_below(lat, Partition.discrete(4))
    assert bottom.bars() == ["1|2|3|4"]
    with pytest.raises(ValueError):
        filter_below(lat, Partition.singleton(5))


def test_hasse_edges_chain_and_single():
    chain = [bar("123", 3), bar("12|3", 3), bar("1|2|3", 3)]
    assert hasse_edges(chain) == [(0, 1), (1, 2)]
    assert hasse_edges([bar("12|3", 3)]) == []
    with pytest.raises(ValueError):
        hasse_edges([bar("12|3", 3), bar("12|3", 3)])


def covers_by_definition(elements):
    """The (coarser, finer) index pairs with nothing of ``elements`` strictly
    between them, by the triple loop over the definition."""
    edges = []
    for i, coarse in enumerate(elements):
        for j, fine in enumerate(elements):
            if i == j or not fine.refines(coarse):
                continue
            if not any(
                k not in (i, j) and fine.refines(mid) and mid.refines(coarse)
                for k, mid in enumerate(elements)
            ):
                edges.append((i, j))
    return edges


def test_hasse_edges_transitive_reduction_random():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 5)
        fam = rand_family(rng, n)
        lat = invariant_lattice(fam)
        elements = lat.elements
        assert lat.cover_edges == tuple(hasse_edges(elements))
        assert hasse_edges(elements) == covers_by_definition(elements)
    # arbitrary element sets, not lattices: partitions, and pairs of them
    for _ in range(40):
        n = rng.randint(1, 5)
        parts = list(all_partitions(n))
        subset = rng.sample(parts, rng.randint(0, min(len(parts), 25)))
        assert hasse_edges(subset) == covers_by_definition(subset)
        rows = list(all_partitions(rng.randint(1, 4)))
        pairs = list(
            {
                PartitionPair(rng.choice(rows), rng.choice(parts))
                for _ in range(rng.randint(0, 25))
            }
        )
        assert hasse_edges(pairs) == covers_by_definition(pairs)


def test_lattice_json_shape(balex_family):
    lat = invariant_lattice(balex_family)
    obj = lat.to_json_dict()
    assert obj["n"] == 5
    assert obj["count"] == 4
    assert obj["elements"][0] == [1, 2, 1, 2, 2]
    assert obj["bar"][0] == "13|245"
    assert all(len(edge) == 2 for edge in obj["cover_edges"])
    assert obj["stats"]["visited_exact"] is True


def test_balanced_partitions_posetalgo(posetalgo_family):
    from synclat.networks import network_from_adjacencies

    net = network_from_adjacencies([m for m in posetalgo_family.matrices])
    lat = balanced_partitions(net)
    assert len(lat) == 4
