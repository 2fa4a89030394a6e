import random
from fractions import Fraction

import pytest

from synclat import (
    MatrixFamily,
    Partition,
    RationalMatrix,
    augment,
    brute_invariant_set,
    characteristic_matrix,
    cir,
    cir_chain,
    colored_product,
    column_space_contains,
    complete_graph,
    cycle_graph,
    induced_partition,
    invariant_lattice,
    is_invariant,
    matmul,
)
from synclat.oracle import all_partitions
from synclat.refine import _filter_table, _split_pass, _square_fixpoint, _start_state
from conftest import M3_DIAG, M3_OTHER, rand_partition
from test_tactical import rand_rect_family


def rand_family(rng, n, rational=False):
    def entry():
        if rng.random() > 0.5:
            return 0
        if rational and rng.random() < 0.4:
            return Fraction(rng.randint(-3, 3), rng.choice([2, 3]))
        return rng.randint(-2, 2)

    count = rng.randint(1, 2)
    return MatrixFamily(
        [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(count)]
    )


def refinement_step_by_matrices(family, part):
    """One refinement step computed the slow way, through materialized
    characteristic matrices: psi([P(part) | M_1 P(part) | ... ])."""
    p = characteristic_matrix(part)
    blocks = [p] + [matmul(m, p) for m in family.matrices]
    return induced_partition(augment(blocks))


def refinement_step_by_coloring(family, part):
    """Same step through the coloring-vector shortcut: the characteristic
    block is replaced by the coloring column."""
    col = RationalMatrix([[c] for c in part.coloring])
    blocks = [col] + [
        colored_product(m, part.coloring) for m in family.matrices
    ]
    return induced_partition(augment(blocks))


def reference_cir(family, part):
    while True:
        nxt = refinement_step_by_matrices(family, part)
        if nxt == part:
            return part
        part = nxt


def test_invariance_worked_examples():
    m1 = MatrixFamily([M3_DIAG])
    m2 = MatrixFamily([M3_OTHER])
    both = MatrixFamily([M3_DIAG, M3_OTHER])
    assert is_invariant(m1, Partition.from_bar("12|3", 3))
    assert not is_invariant(m2, Partition.from_bar("12|3", 3))
    assert is_invariant(m2, Partition.from_bar("13|2", 3))
    assert not is_invariant(both, Partition.from_bar("12|3", 3))
    for fam in (m1, m2, both):
        assert is_invariant(fam, Partition.discrete(3))


def test_invariant_sets_worked_examples():
    assert {p.bar() for p in brute_invariant_set(MatrixFamily([M3_DIAG]))} == {
        "12|3",
        "1|2|3",
    }
    assert {p.bar() for p in brute_invariant_set(MatrixFamily([M3_OTHER]))} == {
        "13|2",
        "1|2|3",
    }
    assert {
        p.bar() for p in brute_invariant_set(MatrixFamily([M3_DIAG, M3_OTHER]))
    } == {"1|2|3"}


def test_is_invariant_agrees_with_direct_containment():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 6)
        fam = rand_family(rng, n, rational=True)
        part = rand_partition(rng, n)
        p = characteristic_matrix(part)
        direct = all(
            column_space_contains(p, matmul(m, p)) for m in fam.matrices
        )
        assert is_invariant(fam, part) == direct


def test_cir_chain_worked_example(cip_family):
    chain = cir_chain(cip_family, Partition.from_bar("14|235", 5))
    assert [p.bar() for p in chain] == ["14|235", "14|2|35", "1|2|35|4"]
    assert cir(cip_family, Partition.from_bar("14|235", 5)) == chain[-1]


def test_witness_guard_reports_steps_until_the_witness_splits():
    # C_8, S = {1,2,6,7}: the rest splits into 35|4|8 by in-weight from S,
    # and the next step splits S into 17|26, which ends the refinement
    engine = MatrixFamily([cycle_graph(8)]).engine()
    start = Partition.from_bar("1267|3458", 8)
    steps = []
    got = _square_fixpoint(engine, *_start_state(start.coloring), steps.append, 1)
    assert got is None
    assert [Partition(c).bar() for c in steps] == ["1267|3458", "1267|35|4|8"]
    # a split of K_n is its own fixpoint: the start is the one report and
    # the result
    engine = MatrixFamily([complete_graph(6)]).engine()
    start = Partition.from_bar("125|346", 6)
    steps = []
    got = _square_fixpoint(engine, *_start_state(start.coloring), steps.append, 1)
    assert steps == [start.coloring]
    assert got is steps[0]


def test_cir_from_singleton_balex(balex_family):
    got = cir(balex_family, Partition.singleton(5))
    assert got == Partition.from_bar("13|245", 5)


def test_cir_of_discrete_is_discrete():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        fam = rand_family(rng, n)
        assert cir(fam, Partition.discrete(n)) == Partition.discrete(n)


def test_cir_properties_random():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(1, 7)
        fam = rand_family(rng, n, rational=True)
        start = rand_partition(rng, n)
        got = cir(fam, start)
        assert got.refines(start)
        assert is_invariant(fam, got)
        assert cir(fam, got) == got


def test_cir_chain_strictly_decreases():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 7)
        fam = rand_family(rng, n)
        chain = cir_chain(fam, rand_partition(rng, n))
        assert len(chain) <= n + 1
        for coarser, finer in zip(chain, chain[1:]):
            assert finer.refines(coarser) and finer != coarser


def test_cir_maximality_against_brute_force():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 6)
        fam = rand_family(rng, n)
        start = rand_partition(rng, n)
        got = cir(fam, start)
        for candidate in brute_invariant_set(fam):
            if candidate.refines(start):
                assert candidate.refines(got)


def test_cir_equals_matrix_reference_path():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        fam = rand_family(rng, n, rational=True)
        start = rand_partition(rng, n)
        assert cir(fam, start) == reference_cir(fam, start)


def test_coloring_and_characteristic_steps_agree():
    # the step may prefix either the characteristic block or the raw coloring
    # column; rows repeat in one exactly when they repeat in the other
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 6)
        fam = rand_family(rng, n, rational=True)
        part = rand_partition(rng, n)
        assert refinement_step_by_matrices(fam, part) == refinement_step_by_coloring(
            fam, part
        )


def test_invariance_closed_under_join():
    rng = random.Random(7)
    trials = 0
    while trials < 300:
        n = rng.randint(2, 5)
        fam = rand_family(rng, n)
        invariant = list(brute_invariant_set(fam))
        if len(invariant) < 2:
            continue
        a, b = rng.sample(invariant, 2)
        assert is_invariant(fam, a.join(b))
        trials += 1


def test_dimension_errors():
    fam = MatrixFamily([M3_DIAG])
    with pytest.raises(ValueError):
        cir(fam, Partition.singleton(4))
    with pytest.raises(ValueError):
        is_invariant(fam, Partition.singleton(2))
    rect = MatrixFamily([[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValueError):
        cir(rect, Partition.singleton(2))


def planted_family(rng, n, values, denominators):
    """1-2 matrices for which a random partition is invariant: each row gives
    the same total to each class as the other rows of its own class.  Every
    matrix gets its own denominator from ``denominators``."""
    classes = [[i - 1 for i in cls] for cls in rand_partition(rng, n).classes()]
    mats = []
    for _ in range(rng.randint(1, 2)):
        q = rng.choice(denominators)
        m = [[0] * n for _ in range(n)]
        for rows in classes:
            for cols in classes:
                total = rng.choice(values)
                for i in rows:
                    # split ``total`` over the columns of ``cols`` at random
                    rest = total
                    for j in cols[:-1]:
                        x = rng.choice(values) if rng.random() < 0.5 else 0
                        m[i][j] = Fraction(x, q)
                        rest -= x
                    m[i][cols[-1]] = Fraction(rest, q)
        mats.append(m)
    return MatrixFamily(mats)


def test_wide_entries_and_mixed_denominators_against_brute_force():
    # entries far beyond small multiplicities, of both signs, with a
    # different denominator in each matrix of a family
    rng = random.Random(8)
    values = [9, 1000, -1000] + list(range(-60, 61, 7))
    for _ in range(60):
        n = rng.randint(2, 5)
        fam = planted_family(rng, n, values, [1, 1, 2, 7, 9, 10])
        brute = brute_invariant_set(fam)
        assert set(invariant_lattice(fam).elements) == brute
        for part in all_partitions(n):
            assert is_invariant(fam, part) == (part in brute)


def test_cancelling_row_keys_like_an_empty_row():
    # row 1 sends +1 and -1 into class {3, 4}: its in-weight there is 0, the
    # same as the empty rows 2-4
    fam = MatrixFamily([[[0, 0, 1, -1], [0] * 4, [0] * 4, [0] * 4]])
    assert _split_pass(fam.engine(), [[0, 1, 2, 3]], [1, 1, 2, 2]) == [[0, 1, 2, 3]]
    assert _split_pass(fam.engine(), [[0, 1, 2, 3]], [1, 1, 2, 3]) == [[0], [1, 2, 3]]
    for bar, expected in (("12|34", True), ("1234", True), ("12|3|4", False)):
        part = Partition.from_bar(bar, 4)
        assert is_invariant(fam, part) is expected
        assert (part in brute_invariant_set(fam)) is expected


def test_row_keys_do_not_carry_between_digits():
    # with colors [1, 1, 2], row 1 gives (-1, +1) and row 2 gives (2, 0); a
    # key base of 3 (below 2R + 1 = 5 for the row sum R = 2) would make
    # -1 + 3 == 2 and merge the two rows
    fam = MatrixFamily([[[-1, 0, 1], [1, 1, 0], [0, 0, 0]]])
    assert _split_pass(fam.engine(), [[0, 1, 2]], [1, 1, 2]) == [[0], [1], [2]]
    part = Partition.from_bar("12|3", 3)
    assert not is_invariant(fam, part)
    assert part not in brute_invariant_set(fam)


def rand_zero_one(rng, m, n):
    """An m x n 0/1 matrix whose rows have 0 to 5 entries each."""
    out = []
    for _ in range(m):
        ones = set(rng.sample(range(n), min(n, rng.randint(0, 5))))
        out.append([int(j in ones) for j in range(n)])
    return out


def rand_engines(rng):
    """160 engines: random rational and 0/1 square families, and the block
    engines of random rectangular ones."""
    engines = []
    for _ in range(40):
        n = rng.randint(1, 8)
        engines.append(rand_family(rng, n, rational=True).engine())
        engines.append(MatrixFamily([rand_zero_one(rng, n, n)]).engine())
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        engines.append(rand_rect_family(rng, m, n).block_engine())
        engines.append(MatrixFamily([rand_zero_one(rng, m, n)]).block_engine())
    return engines


def test_guarded_pass_stops_where_a_guarded_class_splits():
    # the first ``guard`` classes of a canonical state are guarded: the pass
    # is the unguarded one while none of them splits, and None once one does
    rng = random.Random(26)
    engines = rand_engines(rng)
    assert {engine[2] for engine in engines} == {True, False}
    stopped = 0
    for engine in engines:
        n = len(engine[0])
        for _ in range(5):
            col, classes = _start_state(rand_partition(rng, n).coloring)
            unguarded = _split_pass(engine, classes, col)
            splits = [len(_split_pass(engine, [members], col)) > 1 for members in classes]
            for guard in range(len(classes) + 1):
                got = _split_pass(engine, classes, col, guard)
                if any(splits[:guard]):
                    assert got is None
                    stopped += 1
                else:
                    assert got == unguarded
    assert stopped > 100


def test_guard_count_holds_along_whole_chains():
    # the first ``guard`` classes of a canonical start stay the first classes
    # of every step that keeps them whole: the guarded refinement is the
    # unguarded chain up to the step that splits one of them, and None there
    rng = random.Random(28)
    stopped = late = kept = 0
    for engine in rand_engines(rng):
        n = len(engine[0])
        for _ in range(20):
            start = rand_partition(rng, n).coloring
            chain = []
            result = _square_fixpoint(engine, *_start_state(start), chain.append)
            assert result is not None
            whole = [set(map(tuple, _start_state(c)[1])) for c in chain]
            classes = list(map(tuple, _start_state(start)[1]))
            for guard in range(len(classes) + 1):
                steps = []
                got = _square_fixpoint(engine, *_start_state(start), steps.append, guard)
                guarded = classes[:guard]
                if all(y in whole[-1] for y in guarded):
                    assert got == result
                    assert steps == chain
                    kept += 1
                else:
                    assert got is None
                    split = next(
                        t for t, w in enumerate(whole) if any(y not in w for y in guarded)
                    )
                    assert steps == chain[:split]
                    stopped += 1
                    late += split > 1
    assert stopped > 100 and kept > 100 and late > 5


def test_all_ones_rows_key_like_general_rows():
    # a 0/1 matrix packs as an all-ones engine, twice it as a general one;
    # rows of every length from 0 to 5 split each state alike on both
    rng = random.Random(27)
    lengths = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        matrix = rand_zero_one(rng, n, n)
        lengths.update(sum(row) for row in matrix)
        ones = MatrixFamily([matrix]).engine()
        general = MatrixFamily([[[2 * x for x in row] for row in matrix]]).engine()
        assert ones[2]
        # a matrix without entries packs as all-ones either way
        assert general[2] == (not any(map(any, matrix)))
        for _ in range(5):
            col, classes = _start_state(rand_partition(rng, n).coloring)
            assert _split_pass(ones, classes, col) == _split_pass(general, classes, col)
    assert lengths == set(range(6))


def test_scaling_a_matrix_keeps_its_lattice():
    rng = random.Random(9)
    families = [MatrixFamily([[[1, 1, 0], [0, 1, 1], [1, 0, 1]]])]
    families += [planted_family(rng, 6, [-2, -1, 1, 3], [1, 3]) for _ in range(8)]
    for fam in families:
        base = invariant_lattice(fam)
        for c in (Fraction(-3, 7), Fraction(5, 2)):
            scaled = MatrixFamily(
                [[[c * x for x in row] for row in m.entries] for m in fam.matrices]
            )
            got = invariant_lattice(scaled)
            assert got.elements == base.elements
            assert got.cover_edges == base.cover_edges


def test_engine_of_rational_family_holds_only_ints():
    rng = random.Random(10)
    fam = rand_family(rng, 6, rational=True)
    while all(m.is_integer() for m in fam.matrices):
        fam = rand_family(rng, 6, rational=True)
    for engine in (fam.engine(), fam.transposed().engine()):
        rows, pw, ones = engine
        assert isinstance(ones, bool)
        leaves = list(pw)
        for row in rows:
            for entry in row:
                leaves.extend(entry if isinstance(entry, tuple) else (entry,))
        assert leaves and all(type(x) is int for x in leaves)


def times_packed(engine, vector):
    """W·v for the packed weights W of the engine, read off its rows."""
    rows, _, ones = engine
    if ones:
        return [sum(vector[j] for j in row) for row in rows]
    return [sum(w * vector[j] for j, w in row) for row in rows]


def test_filter_table_encodes_each_power_exactly():
    # each F-weight sum_{j in S} F_ij, read in balanced base K, is the
    # in-weights of i from S under W, W² and, where the start keeps the
    # ends of a nonzero entry of W³ in one class, W³
    rng = random.Random(25)
    cases = [(MatrixFamily([cycle_graph(n)]).engine(), [1] * n) for n in (3, 8)]
    for _ in range(40):
        n = rng.randint(2, 7)
        engine = rand_family(rng, n, rational=True).engine()
        cases += [(engine, [1] * n), (engine, rand_partition(rng, n).coloring)]
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        block = rand_rect_family(rng, m, n).block_engine()
        cases += [(block, [1] * (m + n)), (block, [1] * m + [2] * n)]
    taken = set()
    for engine, start in cases:
        n = len(engine[0])
        columns = [[int(i == j) for i in range(n)] for j in range(n)]
        power_columns = []  # item p - 1: the columns of W^p
        for _ in range(3):
            columns = [times_packed(engine, c) for c in columns]
            power_columns.append(columns)
        cube = any(
            power_columns[2][j][i] and start[i] == start[j]
            for i in range(n) for j in range(n)
        )
        powers = 3 if cube else 2
        taken.add(powers)
        k = 2 * max(
            sum(abs(c[i]) for c in cols) for cols in power_columns[: powers - 1]
            for i in range(n)
        ) + 1
        table = _filter_table(engine, start)[0]
        for _ in range(6):
            inside = {j for j in range(n) if rng.random() < 0.5}
            weights = [[int(j in inside) for j in range(n)]]
            for _ in range(powers):
                weights.append(times_packed(engine, weights[-1]))
            for i, row in enumerate(table):
                f = sum(x for j, x in row if j in inside)
                digits = []
                for _ in range(powers - 1):
                    digits.append((f + k // 2) % k - k // 2)
                    f = (f - digits[-1]) // k
                assert digits + [f] == [w[i] for w in weights[1:]]
    assert taken == {2, 3}
