import random

import pytest

from synclat import (
    Partition,
    PartitionPair,
    all_partitions,
    characteristic_matrix,
    induced_partition,
    RationalMatrix,
    augment,
    column_space_contains,
    zeros,
)
from synclat.partition import _bars
from conftest import rand_partition


def brute_meet(a, b):
    """Coarsest common refinement by scanning the whole partition lattice."""
    best = Partition.discrete(a.n)
    for c in all_partitions(a.n):
        if c.refines(a) and c.refines(b) and best.refines(c):
            best = c
    return best


def brute_join(a, b):
    best = Partition.singleton(a.n)
    for c in all_partitions(a.n):
        if a.refines(c) and b.refines(c) and c.refines(best):
            best = c
    return best


def test_canonicalization():
    assert Partition([7, 7, 2]).coloring == (1, 1, 2)
    assert Partition((3, 1, 3, 2)).coloring == (1, 2, 1, 3)
    assert Partition.singleton(4).coloring == (1, 1, 1, 1)
    assert Partition.discrete(4).coloring == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition.singleton(0)


def test_parse_bar_examples():
    assert Partition.from_bar("14|235", 5).coloring == (1, 2, 2, 1, 2)
    assert Partition.from_bar("1|2|3", 3).coloring == (1, 2, 3)
    assert Partition.from_bar("123", 3).coloring == (1, 1, 1)


def test_parse_bar_errors():
    with pytest.raises(ValueError):
        Partition.from_bar("12", 3)  # 3 missing
    with pytest.raises(ValueError):
        Partition.from_bar("12|23", 3)  # 2 duplicated
    with pytest.raises(ValueError):
        Partition.from_bar("124", 3)  # out of range
    with pytest.raises(ValueError):
        Partition.from_bar("1||2", 2)


def test_bar_comma_form_beyond_nine():
    p = Partition.from_bar("1,10|2,3,4,5,6,7,8,9", 10)
    assert p.coloring == (1, 2, 2, 2, 2, 2, 2, 2, 2, 1)
    assert p.bar() == "1,10|2,3,4,5,6,7,8,9"
    # juxtaposed digits are ambiguous past n = 9
    with pytest.raises(ValueError):
        Partition.from_bar("110|23456789", 10)


def test_bar_round_trip_random():
    rng = random.Random(0)
    for _ in range(300):
        p = rand_partition(rng, rng.randint(1, 12))
        assert Partition.from_bar(p.bar(), p.n) == p


def reference_bar(p):
    sep = "," if p.n > 9 else ""
    return "|".join(sep.join(map(str, c)) for c in p.classes())


def test_bars_match_the_classes():
    # the comma form starts at n = 10
    rng = random.Random(5)
    for n in range(1, 13):
        parts = [rand_partition(rng, n) for _ in range(40)]
        want = [reference_bar(p) for p in parts]
        assert _bars([p.coloring for p in parts]) == want
        assert [p.bar() for p in parts] == want
        assert all(Partition.from_bar(p.bar(), n) == p for p in parts)
    assert _bars([]) == []


def test_characteristic_matrix_examples():
    assert characteristic_matrix(Partition.from_bar("12|3", 3)) == RationalMatrix(
        [[1, 0], [1, 0], [0, 1]]
    )
    assert characteristic_matrix(Partition.from_bar("1|23", 3)) == RationalMatrix(
        [[1, 0], [0, 1], [0, 1]]
    )
    assert characteristic_matrix(Partition.discrete(3)) == RationalMatrix(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )


def test_induced_partition_examples():
    q = RationalMatrix([[5, 6], [7, 8], [5, 6], [7, 8]])
    assert induced_partition(q) == Partition.from_bar("13|24", 4)
    assert induced_partition(zeros(4, 2)) == Partition.singleton(4)


def test_induced_partition_inverts_characteristic_matrix():
    rng = random.Random(1)
    for _ in range(300):
        p = rand_partition(rng, rng.randint(1, 9))
        assert induced_partition(characteristic_matrix(p)) == p


def test_refines_examples():
    assert Partition.from_bar("12|3", 3).refines(Partition.singleton(3))
    # classic incomparable pair
    a, b = Partition.from_bar("12|3", 3), Partition.from_bar("1|23", 3)
    assert not a.refines(b) and not b.refines(a)
    assert a.refines(a)
    with pytest.raises(ValueError):
        a.refines(Partition.singleton(4))


def test_meet_examples():
    def m(x, y, n=3):
        return Partition.from_bar(x, n).meet(Partition.from_bar(y, n))

    assert m("12|3", "1|23") == Partition.discrete(3)
    got = Partition.from_bar("135|24", 5).meet(Partition.from_bar("14|235", 5))
    assert got == Partition.from_bar("1|2|35|4", 5)
    rng = random.Random(2)
    for _ in range(50):
        a = rand_partition(rng, 5)
        assert a.meet(Partition.singleton(5)) == a


def test_join_examples():
    a, b = Partition.from_bar("12|3", 3), Partition.from_bar("1|23", 3)
    assert a.join(b) == Partition.singleton(3)
    rng = random.Random(3)
    for _ in range(50):
        p = rand_partition(rng, 6)
        assert p.join(Partition.discrete(6)) == p
    got = Partition.from_bar("13|24|5", 5).join(Partition.from_bar("14|23|5", 5))
    assert got == brute_join(
        Partition.from_bar("13|24|5", 5), Partition.from_bar("14|23|5", 5)
    )
    assert got == Partition.from_bar("1234|5", 5)


def test_meet_join_against_brute_force():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_partition(rng, n), rand_partition(rng, n)
        assert a.meet(b) == brute_meet(a, b)
        assert a.join(b) == brute_join(a, b)


def test_lattice_laws_random():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 7)
        a, b, c = (rand_partition(rng, n) for _ in range(3))
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.join(b.join(c)) == a.join(b).join(c)
        assert a.meet(a.join(b)) == a
        assert a.join(a.meet(b)) == a


def test_order_embedding_into_column_spaces():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 6)
        a, b = rand_partition(rng, n), rand_partition(rng, n)
        assert a.refines(b) == column_space_contains(
            characteristic_matrix(a), characteristic_matrix(b)
        )


def test_psi_of_augmented_blocks_is_meet():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        kq, kr = rng.randint(1, 3), rng.randint(1, 3)
        q = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(kq)] for _ in range(n)]
        )
        r = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(kr)] for _ in range(n)]
        )
        assert induced_partition(augment([q, r])) == induced_partition(q).meet(
            induced_partition(r)
        )


def test_lower_covers_examples():
    got = {p.bar() for p in Partition.singleton(3).lower_covers()}
    assert got == {"12|3", "13|2", "1|23"}
    assert Partition.discrete(3).lower_covers() == []
    got = {p.bar() for p in Partition.from_bar("12|34", 4).lower_covers()}
    assert got == {"1|2|34", "12|3|4"}


def test_lower_cover_counts():
    # a class of size s contributes 2**(s-1) - 1 splits
    for n in range(2, 9):
        covers = Partition.singleton(n).lower_covers()
        assert len(covers) == 2 ** (n - 1) - 1
        assert len(set(covers)) == len(covers)


def test_lower_covers_are_covers():
    rng = random.Random(8)
    for _ in range(60):
        p = rand_partition(rng, rng.randint(2, 6))
        for q in p.lower_covers():
            assert q.refines(p) and q != p
            assert q.num_classes == p.num_classes + 1
            # nothing strictly between q and p
            for mid in all_partitions(p.n):
                if q.refines(mid) and mid.refines(p):
                    assert mid in (q, p)


def test_cover_implies_lexicographic_increase():
    rng = random.Random(9)
    for _ in range(1000):
        p = rand_partition(rng, rng.randint(2, 8))
        covers = p.lower_covers()
        if not covers:
            continue
        q = covers[rng.randrange(len(covers))]
        assert q.coloring > p.coloring
        assert not q.coloring < p.coloring


def test_partition_json_round_trip():
    p = Partition.from_bar("14|235", 5)
    assert Partition.from_json_dict(p.to_json_dict()) == p
    with pytest.raises(ValueError):
        Partition.from_json_dict({"n": 3, "coloring": [2, 1, 1]})


# ---------------------------------------------------------------------------
# pairs


def test_pair_lower_covers():
    pair = PartitionPair(Partition.singleton(2), Partition.singleton(2))
    got = {p.bar() for p in pair.lower_covers()}
    assert got == {"(1|2, 12)", "(12, 1|2)"}


def test_pair_join_meet_coordinatewise():
    a = PartitionPair(Partition.from_bar("1|2", 2), Partition.from_bar("12", 2))
    b = PartitionPair(Partition.from_bar("12", 2), Partition.from_bar("1|2", 2))
    assert a.join(b) == PartitionPair.singleton(2, 2)
    assert a.meet(b) == PartitionPair.discrete(2, 2)

    x = PartitionPair(
        Partition.from_bar("1234|5", 5), Partition.from_bar("12|345", 5)
    )
    y = PartitionPair(
        Partition.from_bar("123|45", 5), Partition.from_bar("1|2345", 5)
    )
    got = x.meet(y)
    assert got.row_part == x.row_part.meet(y.row_part)
    assert got.col_part == x.col_part.meet(y.col_part)
    assert got == PartitionPair(
        Partition.from_bar("123|4|5", 5), Partition.from_bar("1|2|345", 5)
    )


def test_pair_order_and_bottom():
    rng = random.Random(10)
    bottom = PartitionPair.discrete(4, 3)
    for _ in range(100):
        pair = PartitionPair(rand_partition(rng, 4), rand_partition(rng, 3))
        assert bottom.refines(pair)
        assert pair.refines(PartitionPair.singleton(4, 3))
    with pytest.raises(ValueError):
        bottom.refines(PartitionPair.discrete(3, 4))


def test_pair_meet_matches_class_intersections():
    rng = random.Random(11)
    for _ in range(100):
        x = PartitionPair(rand_partition(rng, 4), rand_partition(rng, 4))
        y = PartitionPair(rand_partition(rng, 4), rand_partition(rng, 4))
        got = x.meet(y)
        assert got.row_part == brute_meet(x.row_part, y.row_part)
        assert got.col_part == brute_meet(x.col_part, y.col_part)


def test_pair_bar_round_trip():
    pair = PartitionPair(
        Partition.from_bar("1|234", 4), Partition.from_bar("123", 3)
    )
    assert pair.bar() == "(1|234, 123)"
    assert PartitionPair.from_bar(pair.bar(), 4, 3) == pair
