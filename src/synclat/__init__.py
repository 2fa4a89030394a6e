"""Lattices of invariant synchrony partitions over exact rational arithmetic.

A partition of {1..n} determines a synchrony subspace of R^n (coordinates
equal within each class).  Given a set of rational matrices, the partitions
whose synchrony subspace is mapped into itself by every matrix form a
lattice; this package computes that lattice exactly, along with the
rectangular generalization to tactical decompositions and the graph/network
front-ends (equitable, almost equitable, balanced, exo-balanced, Cayley
coset partitions) that reduce to it.
"""

from .lattice import (
    ElementCapExceeded,
    InvariantLattice,
    LatticeStats,
    filter_below,
    invariant_lattice,
    tactical_lattice,
)
from .networks import (
    ColoredNetwork,
    GroupTable,
    IncidenceStructure,
    NetworkConsistencyWarning,
    almost_equitable_partitions,
    balanced_partitions,
    cayley_network,
    cell_types_to_loops,
    complete_graph,
    cycle_graph,
    equitable_partitions,
    exo_balanced_partitions,
    graph_incidence,
    grid_graph,
    incidence_family,
    laplacian,
    monochrome_adjacency,
    network_from_adjacencies,
    path_graph,
    star_graph,
    subgroup_coset_partitions,
    subgroups,
)
from .oracle import (
    all_partitions,
    bell_number,
    brute_invariant_set,
    brute_tactical_set,
    hasse_edges,
)
from .partition import (
    Partition,
    PartitionPair,
    characteristic_matrix,
    induced_partition,
)
from .rational import (
    RationalMatrix,
    augment,
    colored_product,
    column_space_contains,
    identity,
    matmul,
    rank,
    transpose,
    zeros,
)
from .refine import (
    MatrixFamily,
    cir,
    cir_chain,
    directed_containment,
    is_invariant,
    is_tactical,
    tactical_cir,
    tactical_cir_chain,
)

__version__ = "0.1.0"

__all__ = [
    "ColoredNetwork",
    "ElementCapExceeded",
    "GroupTable",
    "IncidenceStructure",
    "InvariantLattice",
    "LatticeStats",
    "MatrixFamily",
    "NetworkConsistencyWarning",
    "Partition",
    "PartitionPair",
    "RationalMatrix",
    "all_partitions",
    "almost_equitable_partitions",
    "augment",
    "balanced_partitions",
    "bell_number",
    "brute_invariant_set",
    "brute_tactical_set",
    "cayley_network",
    "cell_types_to_loops",
    "characteristic_matrix",
    "cir",
    "cir_chain",
    "colored_product",
    "column_space_contains",
    "complete_graph",
    "cycle_graph",
    "directed_containment",
    "equitable_partitions",
    "exo_balanced_partitions",
    "filter_below",
    "graph_incidence",
    "grid_graph",
    "hasse_edges",
    "identity",
    "incidence_family",
    "induced_partition",
    "invariant_lattice",
    "is_invariant",
    "is_tactical",
    "laplacian",
    "matmul",
    "monochrome_adjacency",
    "network_from_adjacencies",
    "path_graph",
    "rank",
    "star_graph",
    "subgroup_coset_partitions",
    "subgroups",
    "tactical_cir",
    "tactical_cir_chain",
    "tactical_lattice",
    "transpose",
    "zeros",
]
