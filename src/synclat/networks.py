"""Application front-ends that reduce to a matrix family.

Everything here funnels into :func:`synclat.lattice.invariant_lattice` or
:func:`synclat.lattice.tactical_lattice`:

* simple graphs: equitable partitions are the partitions invariant under the
  adjacency matrix, almost equitable ones those invariant under the graph
  Laplacian;
* arrow-colored cell networks: balanced partitions are the invariant
  partitions of the per-color in-adjacency matrices restricted below the
  cell-type partition, exo-balanced ones the same with the per-color
  Laplacians;
* Cayley color digraphs of a finite group: balanced partitions are exactly
  the right-coset partitions by subgroups, which is checked against an
  independent subgroup enumeration;
* weighted networks: any square rational matrix is a weighted in-adjacency
  matrix, and passing to the Laplacian turns exo-balanced questions into
  balanced ones;
* incidence structures: the point-line incidence matrices feed the tactical
  enumeration.

Orientation convention: adjacency entry A[i][j] counts arrows from j to i
(in-adjacency).  Graph-theory data using the out-adjacency convention must be
transposed by the caller; for the symmetric matrices of simple graphs the
two agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .lattice import InvariantLattice, _invariant_below, invariant_lattice
from .partition import Partition
from .rational import RationalMatrix, _check_declared, _index
from .refine import MatrixFamily


class NetworkConsistencyWarning(UserWarning):
    """Arrow colors that straddle cell types.

    The cell-network formalism wants arrows of one color to have heads of one
    cell type and tails of one cell type.  Invariant partitions are well
    defined without that, so violations warn instead of failing.
    """


@dataclass(frozen=True)
class ColoredNetwork:
    """Arrow-colored digraph with a cell-type partition.

    ``arrows`` is a multiset of (source, target, color) triples with 1-based
    cells and colors; parallel arrows repeat.  The network's colors are the
    colors its arrows use: a color without arrows would add a zero adjacency
    matrix, which constrains no partition.
    """

    n: int
    cell_types: Partition
    arrows: tuple

    def __init__(
        self, n: int, arrows: Iterable, cell_types: Optional[Partition] = None
    ):
        n = _index(n)
        if n < 1:
            raise ValueError("network needs at least one cell")
        if cell_types is None:
            cell_types = Partition.singleton(n)
        if cell_types.n != n:
            raise ValueError(
                f"cell-type partition covers {cell_types.n} cells, network has {n}"
            )
        arrows = tuple(tuple(map(_index, arrow)) for arrow in arrows)
        for s, t, c in arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise ValueError(f"arrow ({s}, {t}) out of cell range 1..{n}")
            if c < 1:
                raise ValueError(f"arrow color {c} must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cell_types", cell_types)
        object.__setattr__(self, "arrows", arrows)
        types = cell_types.coloring
        for color, pairs in self._arrows_by_color().items():
            heads = {types[t - 1] for s, t in pairs}
            tails = {types[s - 1] for s, t in pairs}
            if len(heads) > 1 or len(tails) > 1:
                warnings.warn(
                    f"arrows of color {color} join several cell types "
                    f"(head types {sorted(heads)}, tail types {sorted(tails)})",
                    NetworkConsistencyWarning,
                    stacklevel=2,
                )

    def _arrows_by_color(self) -> dict:
        """The (source, target) pairs of each color in use, by increasing color."""
        groups = {}
        for s, t, c in sorted(self.arrows, key=lambda arrow: arrow[2]):
            groups.setdefault(c, []).append((s, t))
        return groups

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cell_types": list(self.cell_types.coloring),
            "arrows": [
                {"from": s, "to": t, "color": c} for s, t, c in self.arrows
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ColoredNetwork":
        """A declared ``num_colors`` is checked, then dropped."""
        n = obj["n"]
        types = obj.get("cell_types")
        if types is not None and not (isinstance(types, list) and types):
            raise ValueError(f"cell_types must be a list of n cell types, not {types!r}")
        cell_types = None if types is None else Partition([_index(c) for c in types])
        arrows = [(a["from"], a["to"], a.get("color", 1)) for a in obj["arrows"]]
        net = cls(n, arrows, cell_types=cell_types)
        declared = obj.get("num_colors")
        largest = max((c for _, _, c in net.arrows), default=1)
        if declared is not None and _index(declared) < largest:
            raise ValueError(f"num_colors={declared} below largest used color {largest}")
        return net


def monochrome_adjacency(net: ColoredNetwork) -> MatrixFamily:
    """One in-adjacency matrix per color in use, by increasing color: entry
    (i, j) counts the arrows of that color from cell j to cell i.  A network
    without arrows gets one zero matrix, as a family cannot be empty."""
    mats = []
    for pairs in list(net._arrows_by_color().values()) or [[]]:
        grid = [[0] * net.n for _ in range(net.n)]
        for s, t in pairs:
            grid[t - 1][s - 1] += 1
        mats.append(RationalMatrix(grid))
    return MatrixFamily(mats)


def network_from_adjacencies(
    matrices: Sequence, cell_types: Optional[Partition] = None
) -> ColoredNetwork:
    """Build an arrow-colored network from in-adjacency matrices with
    nonnegative integer entries (entry value = arrow multiplicity); matrix l
    gives the arrows of color l, so a zero matrix gives no color."""
    fam = MatrixFamily(matrices)
    if not fam.is_square:
        raise ValueError("adjacency matrices must be square")
    n = fam.cols
    arrows = []
    for color, mat in enumerate(fam.matrices, start=1):
        for i, row in enumerate(mat.entries):
            for j, x in enumerate(row):
                if x.denominator != 1 or x < 0:
                    raise ValueError(
                        f"adjacency entries must be nonnegative integers, got {x}"
                    )
                arrows.extend([(j + 1, i + 1, color)] * int(x))
    return ColoredNetwork(n, arrows, cell_types=cell_types)


def laplacian(weights: RationalMatrix) -> RationalMatrix:
    """L = D - W with D the diagonal of row sums; rows of L sum to zero.

    L is the in-adjacency matrix of the Laplacian companion network, whose
    balanced partitions are exactly the exo-balanced partitions of the
    weighted network W."""
    if weights.rows != weights.cols:
        raise ValueError("laplacian needs a square matrix")
    out = []
    for i, row in enumerate(weights.sparse_rows()):
        line = [0] * weights.cols
        for j, x in row:
            line[j] = -x
        line[i] += sum(x for _, x in row)
        out.append(line)
    return RationalMatrix(out)


def cell_types_to_loops(net: ColoredNetwork) -> ColoredNetwork:
    """Replace the cell-type partition by per-type loop colors.

    Every cell gets a loop whose color, past the largest color in use,
    encodes its cell type; the cell-type partition collapses to a single
    class.  The balanced partitions are unchanged, because refining the
    cell-type partition is the same constraint as being balanced for the
    added loop colors.  A single-type network gains one identity-matrix
    color, which never changes the invariant set.
    """
    base = max((c for _, _, c in net.arrows), default=0)
    arrows = list(net.arrows)
    for i, c in enumerate(net.cell_types.coloring, start=1):
        arrows.append((i, i, base + c))
    return ColoredNetwork(net.n, arrows, cell_types=Partition.singleton(net.n))


def balanced_partitions(net: ColoredNetwork, **kwargs) -> InvariantLattice:
    """Partitions refining the cell types with constant per-class in-arrow
    counts in every monochrome subgraph: the invariant partitions of the
    monochrome adjacency matrices below the cell-type partition.

    Each of them lies below the cir of the cell types, so the search starts
    there; its stats and ``element_cap`` count only this down-set."""
    return _invariant_below(monochrome_adjacency(net), net.cell_types, **kwargs)


def exo_balanced_partitions(net: ColoredNetwork, **kwargs) -> InvariantLattice:
    """Like balanced, but only arrows between distinct classes are counted:
    the invariant partitions of the monochrome Laplacians below the
    cell-type partition, searched as in :func:`balanced_partitions`."""
    fam = MatrixFamily(
        [laplacian(m) for m in monochrome_adjacency(net).matrices]
    )
    return _invariant_below(fam, net.cell_types, **kwargs)


def _check_simple_graph(adjacency) -> RationalMatrix:
    """The adjacency as a matrix, checked to be a simple graph's."""
    if not isinstance(adjacency, RationalMatrix):
        adjacency = RationalMatrix(adjacency)
    if adjacency.rows != adjacency.cols:
        raise ValueError("adjacency matrix must be square")
    for i, row in enumerate(adjacency.entries):
        for j, x in enumerate(row):
            if x not in (0, 1):
                raise ValueError(f"simple-graph adjacency entries must be 0/1, got {x}")
            if i == j and x:
                raise ValueError("simple graph cannot have loops")
            if x != adjacency.entries[j][i]:
                raise ValueError("simple-graph adjacency must be symmetric")
    return adjacency


def equitable_partitions(adjacency, **kwargs) -> InvariantLattice:
    """Vertex partitions of a simple graph with constant class-to-class
    degrees; exactly the invariant partitions of the adjacency matrix."""
    return invariant_lattice(MatrixFamily([_check_simple_graph(adjacency)]), **kwargs)


def almost_equitable_partitions(adjacency, **kwargs) -> InvariantLattice:
    """Like equitable, but degrees toward the own class are unconstrained;
    exactly the invariant partitions of the graph Laplacian."""
    return invariant_lattice(MatrixFamily([laplacian(_check_simple_graph(adjacency))]), **kwargs)


# ---------------------------------------------------------------------------
# groups and Cayley color digraphs


class GroupTable(object):
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the 0-based index of the product of elements i and j.
    The table must be a Latin square with an identity; associativity is
    checked exhaustively up to order 256 (cubic cost, skipped above that).
    """

    __slots__ = ("order", "table", "identity")

    def __init__(self, table: Sequence[Sequence[int]]):
        g = len(table)
        if g < 1:
            raise ValueError("group must have at least one element")
        tab = tuple(tuple(map(_index, row)) for row in table)
        full = set(range(g))
        for row in tab:
            if len(row) != g or set(row) != full:
                raise ValueError("multiplication table rows must permute 0..g-1")
        for j in range(g):
            if {tab[i][j] for i in range(g)} != full:
                raise ValueError("multiplication table columns must permute 0..g-1")
        identity = None
        for e in range(g):
            if all(tab[e][j] == j and tab[j][e] == j for j in range(g)):
                identity = e
                break
        if identity is None:
            raise ValueError("multiplication table has no identity element")
        if g <= 256:
            for a in range(g):
                ta = tab[a]
                for b in range(g):
                    tab_ab = tab[ta[b]]
                    tb = tab[b]
                    for c in range(g):
                        if tab_ab[c] != ta[tb[c]]:
                            raise ValueError(
                                f"multiplication table is not associative at "
                                f"({a}, {b}, {c})"
                            )
        self.order = g
        self.table = tab
        self.identity = identity

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def generated(self, gens: Iterable[int]) -> frozenset:
        """The subgroup generated by the 0-based elements ``gens``: every
        product of them, found as the elements reached from the identity by
        right multiplication (in a finite group inverses are such products)."""
        gens = tuple(gens)
        reached = {self.identity}
        frontier = [self.identity]
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = self.table[g][s]
                if h not in reached:
                    reached.add(h)
                    frontier.append(h)
        return frozenset(reached)

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def quaternion(cls) -> "GroupTable":
        """The quaternion group on (1, i, j, k, -1, -i, -j, -k)."""
        # unit products: (sign, unit index) with units 1,i,j,k = 0,1,2,3
        unit = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }

        def index(sign: int, u: int) -> int:
            return u + (4 if sign < 0 else 0)

        table = [[0] * 8 for _ in range(8)]
        for a in range(8):
            sa, ua = (-1 if a >= 4 else 1), a % 4
            for b in range(8):
                sb, ub = (-1 if b >= 4 else 1), b % 4
                s, u = unit[(ua, ub)]
                table[a][b] = index(sa * sb * s, u)
        return cls(table)

    def to_json_dict(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroupTable":
        # 1-based element indices on the wire
        table = [[_index(x) - 1 for x in row] for row in obj["table"]]
        group = cls(table)
        _check_declared(obj, "order", group.order)
        return group


def cayley_network(group: GroupTable, generators: Sequence[int]) -> ColoredNetwork:
    """Cayley color digraph: one arrow color per generator s, with arrows
    g -> g*s.  ``generators`` holds 1-based element indices.  Warns when the
    generators do not generate the whole group (the coset description of the
    balanced partitions assumes they do)."""
    gens = [_index(s) - 1 for s in generators]
    if not gens:
        raise ValueError("generator list must be nonempty")
    for s in gens:
        if not 0 <= s < group.order:
            raise ValueError(f"generator index {s + 1} out of range 1..{group.order}")
    reached = len(group.generated(gens))
    if reached != group.order:
        warnings.warn(
            f"generators reach only {reached} of {group.order} elements",
            NetworkConsistencyWarning,
            stacklevel=2,
        )
    arrows = [
        (g + 1, group.mul(g, s) + 1, color)
        for color, s in enumerate(gens, start=1)
        for g in range(group.order)
    ]
    return ColoredNetwork(group.order, arrows)


def subgroups(group: GroupTable) -> list:
    """All subgroups as sorted element-index tuples, by closure of seed sets
    extended one generator at a time until no new subgroup appears."""
    if group.order > 1024:
        raise ValueError("subgroup enumeration is capped at order 1024")

    found = {frozenset([group.identity])}
    frontier = [frozenset([group.identity])]
    while frontier:
        h = frontier.pop()
        for g in range(group.order):
            if g in h:
                continue
            extended = group.generated(h | {g})
            if extended not in found:
                found.add(extended)
                frontier.append(extended)
    return sorted(tuple(sorted(h)) for h in found)


def subgroup_coset_partitions(group: GroupTable) -> set:
    """Right-coset partitions {Hg} of the group by each of its subgroups,
    over 1-based element indices."""
    out = set()
    for sub in subgroups(group):
        labels = [0] * group.order
        for g in range(group.order):
            coset = min(group.mul(h, g) for h in sub)
            labels[g] = coset + 1
        out.add(Partition(labels))
    return out


# ---------------------------------------------------------------------------
# incidence structures


@dataclass(frozen=True)
class IncidenceStructure:
    """Points, lines, and one 0/1 incidence matrix per incidence color."""

    points: int
    lines: int
    matrices: tuple

    def __init__(self, matrices: Sequence):
        family = MatrixFamily(matrices)
        for mat in family.matrices:
            for row in mat.entries:
                for x in row:
                    if x not in (0, 1):
                        raise ValueError(f"incidence entries must be 0/1, got {x}")
        object.__setattr__(self, "points", family.rows)
        object.__setattr__(self, "lines", family.cols)
        object.__setattr__(self, "matrices", family.matrices)

    def to_json_dict(self) -> dict:
        return {
            "points": self.points,
            "lines": self.lines,
            "matrices": [
                [[int(x) for x in row] for row in m.entries] for m in self.matrices
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IncidenceStructure":
        """Matrices as in :meth:`MatrixFamily.from_json_dict`."""
        inc = cls(MatrixFamily.from_json_dict(obj).matrices)
        _check_declared(obj, "points", inc.points)
        _check_declared(obj, "lines", inc.lines)
        return inc


def incidence_family(inc: IncidenceStructure) -> MatrixFamily:
    """The incidence matrices as a rectangular family, ready for the
    tactical enumeration."""
    return MatrixFamily(inc.matrices)


# ---------------------------------------------------------------------------
# small graph generators used by tests, demos, and the docs


def _simple_graph(n: int, edges: Iterable) -> RationalMatrix:
    """Adjacency matrix of the simple graph on vertices 0..n-1 with the given
    0-based edges."""
    grid = [[0] * n for _ in range(n)]
    for a, b in edges:
        grid[a][b] = grid[b][a] = 1
    return RationalMatrix(grid)


def path_graph(n: int) -> RationalMatrix:
    return _simple_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> RationalMatrix:
    if n < 3:
        raise ValueError("cycle graph needs at least 3 vertices")
    return _simple_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i != j) for j in range(n)] for i in range(n)])


def grid_graph(m: int, n: int) -> RationalMatrix:
    """Cartesian product of two paths, vertices numbered row-major."""
    across = [(r * n + c, r * n + c + 1) for r in range(m) for c in range(n - 1)]
    down = [(r * n + c, (r + 1) * n + c) for r in range(m - 1) for c in range(n)]
    return _simple_graph(m * n, across + down)


def star_graph(leaves: int) -> RationalMatrix:
    """Star with the center as vertex 1 and the given number of leaves."""
    return _simple_graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])


def graph_incidence(n: int, edges: Sequence) -> RationalMatrix:
    """Vertex-edge incidence matrix of a graph: rows are vertices 1..n,
    columns follow the given edge order."""
    cols = []
    for edge in edges:
        a, b = map(_index, edge)
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError(f"bad edge ({a}, {b})")
        cols.append((a, b))
    grid = [[0] * len(cols) for _ in range(n)]
    for j, (a, b) in enumerate(cols):
        grid[a - 1][j] = 1
        grid[b - 1][j] = 1
    return RationalMatrix(grid)
