import random
from fractions import Fraction

import pytest

from synclat import (
    MatrixFamily,
    Partition,
    RationalMatrix,
    augment,
    characteristic_matrix,
    colored_product,
    column_space_contains,
    identity,
    matmul,
    rank,
    transpose,
    zeros,
)
from conftest import K13_INCIDENCE, M3_OTHER, rand_partition


def rand_matrix(rng, m, n, density=0.6, rational=False):
    def entry():
        if rng.random() > density:
            return 0
        num = rng.randint(-3, 3)
        if rational and rng.random() < 0.5:
            return Fraction(num, rng.choice([2, 3]))
        return num

    return RationalMatrix([[entry() for _ in range(n)] for _ in range(m)])


def test_construction_validates():
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        RationalMatrix([[1.5]])
    with pytest.raises(ValueError):
        RationalMatrix([["1.5"]])
    m = RationalMatrix([[1, "2/3"], ["-4", 0]])
    assert m[0][1] == Fraction(2, 3)
    assert m[1][0] == -4


def test_transpose_examples():
    assert transpose(RationalMatrix([[1, 2], [3, 4]])).entries == (
        (1, 3),
        (2, 4),
    )
    assert transpose(identity(3)) == identity(3)
    inc = RationalMatrix(K13_INCIDENCE)
    t = transpose(inc)
    assert (t.rows, t.cols) == (3, 4)
    assert all(t[j][i] == inc[i][j] for i in range(4) for j in range(3))


def test_transpose_involution():
    rng = random.Random(0)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), rational=True)
        assert transpose(transpose(m)) == m


def test_colored_product_worked_example():
    m2 = RationalMatrix(M3_OTHER)
    # partition 13|2 has coloring (1, 2, 1)
    got = colored_product(m2, (1, 2, 1))
    assert got == RationalMatrix([[0, 0], [0, 2], [0, 0]])
    dense = matmul(m2, characteristic_matrix(Partition((1, 2, 1))))
    assert got == dense


def test_colored_product_discrete_is_identity_product():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, rng.randint(1, 5), n, rational=True)
        assert colored_product(m, tuple(range(1, n + 1))) == m


def test_colored_product_cip_block():
    dashed = RationalMatrix(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )
    got = colored_product(dashed, (1, 2, 2, 1, 2))
    assert got == RationalMatrix([[0, 0], [0, 1], [0, 0], [0, 0], [0, 0]])


def test_colored_product_matches_dense_product():
    rng = random.Random(2)
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rational=True)
        p = rand_partition(rng, m.cols)
        assert colored_product(m, p.coloring) == matmul(m, characteristic_matrix(p))


def test_colored_product_dimension_error():
    with pytest.raises(ValueError):
        colored_product(identity(3), (1, 2))


def test_augment():
    a = RationalMatrix([[1, 2], [3, 4], [5, 6]])
    b = RationalMatrix([[7], [8], [9]])
    assert augment([a, b]).entries == ((1, 2, 7), (3, 4, 8), (5, 6, 9))
    assert augment([a]) == a
    with pytest.raises(ValueError):
        augment([])
    with pytest.raises(ValueError):
        augment([a, identity(2)])


def test_augmented_containment_worked_example():
    # rows 1 and 3 of q are equal, rows 2 and 4 are equal, so Col(q) sits
    # inside the synchrony subspace of 13|2|4
    p = characteristic_matrix(Partition.from_bar("13|2|4", 4))
    q = RationalMatrix([[5, 6], [7, 8], [5, 6], [7, 8]])
    joined = augment([p, q])
    assert (joined.rows, joined.cols) == (4, 5)
    assert column_space_contains(p, q)
    assert rank(joined) == rank(p)


def test_containment_counterexample():
    m2 = RationalMatrix(M3_OTHER)
    p = characteristic_matrix(Partition.from_bar("12|3", 3))
    assert not column_space_contains(p, matmul(m2, p))


def test_containment_zero_column():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), rational=True)
        assert column_space_contains(m, zeros(m.rows, 1))


def test_containment_row_mismatch():
    with pytest.raises(ValueError):
        column_space_contains(identity(3), identity(4))


def test_mutual_containment_implies_equal_rank():
    rng = random.Random(4)
    for _ in range(100):
        r = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 3), rational=True)
        c = rand_matrix(rng, r.cols, rng.randint(1, 3), rational=True)
        # the sparse product against the definition of the product
        assert matmul(r, c).entries == tuple(
            tuple(sum(r[i][k] * c[k][j] for k in range(r.cols)) for j in range(c.cols))
            for i in range(r.rows)
        )
        # q keeps r's columns, so the two column spaces coincide
        q = augment([matmul(r, c), r])
        assert column_space_contains(r, q) and column_space_contains(q, r)
        assert rank(r) == rank(q)
    for _ in range(200):
        r = rand_matrix(rng, 4, rng.randint(1, 3), rational=True)
        q = rand_matrix(rng, 4, rng.randint(1, 3), rational=True)
        if column_space_contains(r, q) and column_space_contains(q, r):
            assert rank(r) == rank(q)


def test_containment_respects_column_operations():
    # Col(r * c) is contained in Col(r) for any shape-compatible c
    rng = random.Random(5)
    for _ in range(100):
        r = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), rational=True)
        c = rand_matrix(rng, r.cols, rng.randint(1, 4), rational=True)
        assert column_space_contains(r, matmul(r, c))


def test_rank_known_values():
    assert rank(identity(4)) == 4
    assert rank(zeros(3, 2)) == 0
    assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix([["1/2", 0], [0, "1/3"], ["1/2", "1/3"]])) == 2


def test_json_round_trip():
    m = RationalMatrix([[1, "2/3"], [-4, 0]])
    obj = m.to_json_dict()
    assert obj == {"rows": 2, "cols": 2, "entries": [[1, "2/3"], [-4, 0]]}
    assert RationalMatrix.from_json_dict(obj) == m


def test_json_rejects_floats_and_bad_shapes():
    with pytest.raises(ValueError):
        RationalMatrix.from_json_dict({"entries": [[1.5]]})
    with pytest.raises(ValueError):
        RationalMatrix.from_json_dict({"rows": 3, "cols": 2, "entries": [[1, 2]]})
    with pytest.raises(ValueError):
        RationalMatrix.from_json_dict({"entries": [["nan"]]})
    # a string row is no list of digits
    for entries in (["110", "011", "101"], ["10"], "110"):
        with pytest.raises(ValueError, match="string"):
            RationalMatrix.from_json_dict({"entries": entries})


def test_matrix_family_validation():
    with pytest.raises(ValueError):
        MatrixFamily([])
    with pytest.raises(ValueError):
        MatrixFamily([identity(2), identity(3)])
    fam = MatrixFamily([identity(2)])
    assert fam.is_square and len(fam) == 1
    # JSON: each item a matrix object or a bare entries list, or one matrix
    eye = {"entries": [[1, 0], [0, 1]]}
    both = MatrixFamily.from_json_dict({"matrices": [eye, eye["entries"]]})
    assert both == MatrixFamily([identity(2), identity(2)])
    assert MatrixFamily.from_json_dict(eye) == fam
    with pytest.raises(ValueError):
        MatrixFamily.from_json_dict([eye])
