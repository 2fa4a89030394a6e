import random

import pytest

from synclat import (
    MatrixFamily,
    Partition,
    all_partitions,
    bell_number,
    brute_invariant_set,
    brute_tactical_set,
    invariant_lattice,
    is_invariant,
    tactical_lattice,
    zeros,
)
from synclat.oracle import OracleLimit
from conftest import M3_DIAG, M3_OTHER


def test_bell_counts():
    expected = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
    for n, count in expected.items():
        assert bell_number(n) == count
        assert sum(1 for _ in all_partitions(n)) == count


def test_enumeration_order_and_bounds():
    parts = list(all_partitions(3))
    assert [p.bar() for p in parts] == ["123", "12|3", "13|2", "1|23", "1|2|3"]
    assert parts[0] == Partition.singleton(3)
    assert parts[-1] == Partition.discrete(3)
    colorings = [p.coloring for p in parts]
    assert colorings == sorted(colorings)
    assert [p.bar() for p in all_partitions(1)] == ["1"]
    with pytest.raises(ValueError):
        list(all_partitions(0))
    with pytest.raises(ValueError):
        list(all_partitions(13))


def test_enumeration_distinct():
    for n in range(1, 8):
        parts = list(all_partitions(n))
        assert len(set(parts)) == len(parts) == bell_number(n)


def test_brute_invariant_worked_examples():
    assert {p.bar() for p in brute_invariant_set(MatrixFamily([M3_DIAG]))} == {
        "12|3",
        "1|2|3",
    }
    assert {
        p.bar() for p in brute_invariant_set(MatrixFamily([M3_DIAG, M3_OTHER]))
    } == {"1|2|3"}


def test_brute_invariant_zero_family():
    for n in (2, 3, 4):
        assert len(brute_invariant_set(MatrixFamily([zeros(n, n)]))) == bell_number(n)


def test_brute_size_caps():
    with pytest.raises(ValueError):
        brute_invariant_set(MatrixFamily([zeros(11, 11)]))
    with pytest.raises(ValueError):
        brute_tactical_set(MatrixFamily([zeros(10, 10)]))
    # the limit is a ValueError whose message is the reason the CLI prints
    assert issubclass(OracleLimit, ValueError)
    with pytest.raises(OracleLimit, match="^n > 10$"):
        brute_invariant_set(MatrixFamily([zeros(11, 11)]))
    # past MAX_ENUM_N the limit comes before the Bell-number lookup
    for m, n in ((13, 1), (1, 13), (10, 10)):
        with pytest.raises(OracleLimit, match="^ground sets too large$"):
            brute_tactical_set(MatrixFamily([zeros(m, n)]))


def test_brute_tactical_worked_examples(k13_family, tacticalex1_family):
    got = brute_tactical_set(k13_family)
    assert {p.bar() for p in got} == {
        "(1|234, 123)",
        "(1|23|4, 12|3)",
        "(1|24|3, 13|2)",
        "(1|2|34, 1|23)",
        "(1|2|3|4, 1|2|3)",
    }
    assert len(brute_tactical_set(tacticalex1_family)) == 2
    single = brute_tactical_set(MatrixFamily([[[1]]]))
    assert {p.bar() for p in single} == {"(1, 1)"}


def test_predicates_agree_on_random_samples():
    # the engine's one-pass predicate against the containment oracle, via
    # membership in the brute set
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 5)
        fam = MatrixFamily(
            [
                [
                    [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n)
                ]
            ]
        )
        brute = brute_invariant_set(fam)
        for part in all_partitions(n):
            assert is_invariant(fam, part) == (part in brute)


def test_engine_equals_oracle_random_families():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 6)
        count = rng.randint(1, 2)
        fam = MatrixFamily(
            [
                [
                    [rng.randint(-1, 2) if rng.random() < 0.4 else 0 for _ in range(n)]
                    for _ in range(n)
                ]
                for _ in range(count)
            ]
        )
        assert set(invariant_lattice(fam).elements) == brute_invariant_set(fam)


def test_tactical_engine_equals_oracle_random_families():
    rng = random.Random(2)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fam = MatrixFamily(
            [
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
                for _ in range(rng.randint(1, 2))
            ]
        )
        assert set(tactical_lattice(fam).elements) == brute_tactical_set(fam)
