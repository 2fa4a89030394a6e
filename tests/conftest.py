"""Shared fixtures: the worked examples used across the suite.

Matrices are transcribed from the standard worked examples for this problem
family; expected outputs asserted in the tests were either taken from the
same sources or recomputed with the brute-force oracle.
"""

import sys

import pytest

import synclat.cli  # the one submodule that synclat does not import
from synclat import (
    IncidenceStructure,
    MatrixFamily,
    Partition,
    RationalMatrix,
    incidence_family,
)
from synclat.networks import network_from_adjacencies

# the synclat modules that these tests import; the bench set-up deletes them
# from sys.modules and imports fresh copies, which the tests must not see
SYNCLAT_MODULES = {
    name: module
    for name, module in sys.modules.items()
    if name == "synclat" or name.startswith("synclat.")
}


@pytest.fixture(autouse=True)
def synclat_modules(monkeypatch):
    """Put this suite's synclat modules back into sys.modules, so a test
    that imports or patches a submodule reaches the copy the suite runs."""
    for name, module in SYNCLAT_MODULES.items():
        monkeypatch.setitem(sys.modules, name, module)


def bar(text, n):
    return Partition.from_bar(text, n)


def rand_partition(rng, n):
    labels = [1]
    for _ in range(n - 1):
        labels.append(rng.randint(1, max(labels) + 1))
    return Partition(labels)


@pytest.fixture
def split_passes(monkeypatch):
    """A list that gets one item for every refinement pass of
    synclat.refine in this process."""
    import synclat.refine as refine

    passes = []
    real = refine._split_pass

    def counted(*args):
        passes.append(None)
        return real(*args)

    monkeypatch.setattr(refine, "_split_pass", counted)
    return passes


@pytest.fixture
def fig1_family():
    # 5x5 block matrix whose invariant partitions form an 11-element lattice
    return MatrixFamily(
        [
            [
                [1, 1, 0, 0, 0],
                [1, 1, 0, 0, 0],
                [1, 1, 0, 0, 0],
                [0, 0, 1, 1, 0],
                [0, 0, 0, 1, 1],
            ]
        ]
    )


FIG1_BARS = [
    "12345",
    "1234|5",
    "123|4|5",
    "12|3|4|5",
    "135|24",
    "13|24|5",
    "13|2|4|5",
    "14|235",
    "14|23|5",
    "1|23|4|5",
    "1|2|3|4|5",
]


@pytest.fixture
def cip_family():
    # two-color 5-cell network: dashed arrow 3->2, solid arrows
    # 2->1, 1->2, 4->3, 3->4, 4->5
    dashed = [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    solid = [
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ]
    return MatrixFamily([dashed, solid])


BALEX_M1 = [
    [0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0],
]
BALEX_M2 = [
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]


@pytest.fixture
def balex_family():
    return MatrixFamily([BALEX_M1, BALEX_M2])


@pytest.fixture
def balex_net():
    return network_from_adjacencies([BALEX_M1, BALEX_M2])


BALEX2_M1 = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
BALEX2_M2 = [[0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.fixture
def balex2_net():
    return network_from_adjacencies(
        [BALEX2_M1, BALEX2_M2], cell_types=Partition.from_bar("12|34", 4)
    )


@pytest.fixture
def posetalgo_family():
    # in-adjacency of the 7-cell network 1->2->3->4<-5<-6<-7
    return MatrixFamily(
        [
            [
                [0, 0, 0, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 0],
            ]
        ]
    )


K13_INCIDENCE = [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.fixture
def k13_family():
    return incidence_family(IncidenceStructure([K13_INCIDENCE]))


K13_PAIRS = [
    ("1|234", "123"),
    ("1|23|4", "12|3"),
    ("1|24|3", "13|2"),
    ("1|2|34", "1|23"),
    ("1|2|3|4", "1|2|3"),
]


@pytest.fixture
def tacticalex1_family():
    return MatrixFamily([[[1, 1, 0, 0], [0, 0, 1, 1]], [[0, 0, 1, 0], [0, 1, 0, 0]]])


FANO_INCIDENCE = [
    [1, 1, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1],
    [1, 0, 0, 0, 0, 1, 1],
]


@pytest.fixture
def fano_family():
    return incidence_family(IncidenceStructure([FANO_INCIDENCE]))


@pytest.fixture
def weighted_w():
    return RationalMatrix([[1, 0, -1], [2, 0, 0], [2, 1, 0]])


@pytest.fixture
def forpath_net():
    # forward path 1 -> 2 -> 3
    return network_from_adjacencies([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])


# matrices of the 3x3 diagonal/nilpotent pair whose joint invariant set is
# only the all-singletons partition
M3_DIAG = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
M3_OTHER = [[1, 0, -1], [0, 2, 0], [0, 0, 0]]
