"""Canonical partitions of {1..n} and the partition lattice operations.

A partition is stored as its coloring vector c = (c_1, ..., c_n): element i
belongs to class number c_i.  The canonical form is the restricted-growth
labeling, c_1 = 1 and c_{i+1} <= 1 + max(c_1..c_i), so classes are numbered in
order of first occurrence.  Under this convention classes come out sorted by
their smallest element, the coloring vector is a unique key, and the
lexicographic order on coloring vectors runs from the one-class partition
(1,1,...,1) to the all-singletons partition (1,2,...,n).

The partial order is refinement: a <= b when every class of a sits inside a
class of b.  Do not confuse it with the lexicographic order used for sorting
output; Partition deliberately implements neither __lt__ nor __le__.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .rational import RationalMatrix, _check_declared, _index


def canonical_coloring(labels: Sequence[int]) -> tuple:
    """Relabel an arbitrary class labeling into restricted-growth form."""
    if len(labels) == 0:
        raise ValueError("partitions of the empty set are not supported")
    seen: dict = {}
    out = []
    for lab in labels:
        c = seen.get(lab)
        if c is None:
            c = len(seen) + 1
            seen[lab] = c
        out.append(c)
    return tuple(out)


class Partition:
    """A partition of {1..n}, kept in canonical coloring form.

    The constructor accepts any labeling sequence and canonicalizes it, so
    ``Partition([7, 7, 2])`` equals ``Partition([1, 1, 2])``.
    """

    __slots__ = ("coloring",)

    def __init__(self, labels: Sequence[int]):
        self.coloring = canonical_coloring(labels)

    @staticmethod
    def _from_canonical(coloring: tuple) -> "Partition":
        # Trusted fast path for engine output that is canonical by construction.
        p = object.__new__(Partition)
        p.coloring = coloring
        return p

    @classmethod
    def singleton(cls, n: int) -> "Partition":
        return cls._from_canonical(tuple([1] * _check_n(n)))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls._from_canonical(tuple(range(1, _check_n(n) + 1)))

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Partition":
        _check_n(n)
        labels = [0] * n
        seen = 0
        for idx, cl in enumerate(classes, start=1):
            for el in map(_index, cl):
                if not 1 <= el <= n:
                    raise ValueError(f"element {el} out of range 1..{n}")
                if labels[el - 1]:
                    raise ValueError(f"element {el} appears in two classes")
                labels[el - 1] = idx
                seen += 1
        if seen != n:
            missing = [i + 1 for i, lab in enumerate(labels) if not lab]
            raise ValueError(f"elements missing from partition: {missing}")
        return cls(labels)

    @classmethod
    def from_bar(cls, text: str, n: int) -> "Partition":
        """Parse bar notation: classes separated by '|', e.g. ``14|235``.

        Single-digit juxtaposition only works up to n = 9; beyond that,
        elements inside a class are comma-separated, e.g. ``1,10|2,3``.
        """
        _check_n(n)
        classes = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty class in bar notation: {text!r}")
            if "," in chunk:
                members = [_parse_element(tok, n) for tok in chunk.split(",")]
            elif n > 9:
                # multi-element classes are comma-separated past n = 9, so a
                # plain chunk must be one whole element
                members = [_parse_element(chunk, n)]
            else:
                members = [_parse_element(ch, n) for ch in chunk]
            classes.append(members)
        return cls.from_classes(n, classes)

    def bar(self) -> str:
        """Canonical bar notation; comma-separated inside classes for n > 9."""
        return _bars([self.coloring])[0]

    @property
    def n(self) -> int:
        return len(self.coloring)

    @property
    def num_classes(self) -> int:
        return max(self.coloring)

    def classes(self) -> tuple:
        """Classes as tuples of elements, ordered by smallest element."""
        out = [[] for _ in range(self.num_classes)]
        for i, c in enumerate(self.coloring, start=1):
            out[c - 1].append(i)
        return tuple(tuple(cl) for cl in out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.coloring == other.coloring

    def __hash__(self) -> int:
        return hash(self.coloring)

    def __repr__(self) -> str:
        return f"Partition({self.bar()!r})"

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other: every class of self lies inside a class of
        other (reflexive)."""
        if not isinstance(other, Partition):
            raise TypeError("refines expects a Partition")
        if other.n != self.n:
            raise ValueError(f"ground sets differ: {self.n} vs {other.n}")
        return _refines(self.coloring, other.coloring)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: classes are pairwise intersections."""
        if other.n != self.n:
            raise ValueError(f"ground sets differ: {self.n} vs {other.n}")
        return Partition._from_canonical(
            canonical_coloring(list(zip(self.coloring, other.coloring)))
        )

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening, by union-find over overlapping classes."""
        if other.n != self.n:
            raise ValueError(f"ground sets differ: {self.n} vs {other.n}")
        n = self.n
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for coloring in (self.coloring, other.coloring):
            first: dict = {}
            for i, c in enumerate(coloring):
                j = first.setdefault(c, i)
                if j != i:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        return Partition(tuple(find(i) for i in range(n)))

    def lower_covers(self) -> list:
        """All partitions obtained by splitting exactly one class in two.

        A class of size s yields 2**(s-1) - 1 splits: the smallest element is
        pinned to the first part and the remaining s-1 elements range over
        proper subsets, so each unordered bipartition appears exactly once.
        """
        return [
            Partition._from_canonical(c)
            for c in iter_cover_colorings(self.coloring)
        ]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "coloring": list(self.coloring)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Partition":
        coloring = [_index(c) for c in obj["coloring"]]
        _check_declared(obj, "n", len(coloring))
        p = cls(coloring)
        if tuple(coloring) != p.coloring:
            raise ValueError(f"coloring {coloring} is not in canonical form")
        return p


def _check_n(n: int) -> int:
    if not 1 <= _index(n) <= sys.maxsize:
        raise ValueError(f"ground set size must be in 1..{sys.maxsize}, got {n}")
    return n


def _parse_element(tok: str, n: int) -> int:
    tok = tok.strip()
    if not tok.isdigit():
        raise ValueError(f"bad element {tok!r} in bar notation")
    el = int(tok)
    if not 1 <= el <= n:
        raise ValueError(f"element {el} out of range 1..{n}")
    return el


def _refines(fine: Sequence[int], coarse: Sequence[int]) -> bool:
    """True iff every class of ``fine`` lies inside a class of ``coarse``;
    both are canonical colorings of one ground set."""
    return len(set(zip(fine, coarse))) == max(fine)


def _bars(colorings: Sequence[Sequence[int]]) -> list:
    """The bar notation of canonical colorings of one ground set: classes
    by smallest member, joined by '|', and members comma-separated past
    n = 9.  The element names are built once for all the colorings."""
    if not colorings:
        return []
    n = len(colorings[0])
    names = [str(i) for i in range(1, n + 1)]
    sep = "," if n > 9 else ""
    out = []
    for coloring in colorings:
        classes: dict = {}  # by first occurrence, which is canonical order
        for name, c in zip(names, coloring):
            if c in classes:
                classes[c].append(name)
            else:
                classes[c] = [name]
        out.append("|".join(map(sep.join, classes.values())))
    return out


def _class_splits(members: Sequence) -> Iterator[tuple]:
    """The splits ``(inside, outside)`` of a class given by its sorted
    members, each unordered bipartition once: the smallest member x0 stays
    inside, and bit t of the masks 1..2**(s-1)-1 of a class of size s moves
    the (t+1)-th member after x0 out."""
    x0, rest = members[0], members[1:]
    for mask in range(1, 1 << len(rest)):
        inside, outside = [x0], []
        for i in rest:
            (outside if mask & 1 else inside).append(i)
            mask >>= 1
        yield inside, outside


def iter_cover_colorings(coloring: Sequence[int]) -> Iterator[tuple]:
    """Canonical colorings of all one-class splits of a canonical coloring,
    class by class, each in the order of :func:`_class_splits`."""
    # a canonical coloring numbers its classes in order of first occurrence
    fresh = max(coloring) + 1
    for color in Counter(coloring):
        members = [i for i, c in enumerate(coloring) if c == color]
        for _, outside in _class_splits(members):
            labels = list(coloring)
            for i in outside:
                labels[i] = fresh
            yield canonical_coloring(labels)


def induced_partition(matrix: RationalMatrix) -> Partition:
    """Partition of the row indices grouping exactly equal rows."""
    return Partition._from_canonical(canonical_coloring(matrix.entries))


def characteristic_matrix(part: Partition) -> RationalMatrix:
    """The n-by-k 0/1 matrix whose column a is the indicator of class a; its
    column space is the synchrony subspace of the partition."""
    k = part.num_classes
    return RationalMatrix(
        [[1 if c == a else 0 for a in range(1, k + 1)] for c in part.coloring]
    )


class PartitionPair:
    """An element of the product lattice Pi(m) x Pi(n): a partition of the
    row indices paired with a partition of the column indices.

    Order, meet and join are coordinatewise, so the bottom element is the
    pair of all-singletons partitions and the top is the pair of one-class
    partitions.
    """

    __slots__ = ("row_part", "col_part")

    def __init__(self, row_part: Partition, col_part: Partition):
        if not isinstance(row_part, Partition) or not isinstance(col_part, Partition):
            raise TypeError("PartitionPair expects two Partitions")
        self.row_part = row_part
        self.col_part = col_part

    @classmethod
    def singleton(cls, m: int, n: int) -> "PartitionPair":
        return cls(Partition.singleton(m), Partition.singleton(n))

    @classmethod
    def discrete(cls, m: int, n: int) -> "PartitionPair":
        return cls(Partition.discrete(m), Partition.discrete(n))

    @property
    def shape(self) -> tuple:
        return (self.row_part.n, self.col_part.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionPair)
            and self.row_part == other.row_part
            and self.col_part == other.col_part
        )

    def __hash__(self) -> int:
        return hash((self.row_part.coloring, self.col_part.coloring))

    def __repr__(self) -> str:
        return f"PartitionPair({self.bar()})"

    def bar(self) -> str:
        return f"({self.row_part.bar()}, {self.col_part.bar()})"

    def joined(self) -> tuple:
        """One canonical coloring of the rows followed by the columns, with
        the column classes numbered after the row classes."""
        k = self.row_part.num_classes
        return self.row_part.coloring + tuple(c + k for c in self.col_part.coloring)

    @staticmethod
    def _from_joined(coloring: tuple, m: int) -> "PartitionPair":
        # Trusted inverse of joined() for engine output: a canonical coloring
        # whose first m points share no class with the rest.
        k = max(coloring[:m])
        cols = Partition._from_canonical(tuple(c - k for c in coloring[m:]))
        return PartitionPair(Partition._from_canonical(coloring[:m]), cols)

    @classmethod
    def from_bar(cls, text: str, m: int, n: int) -> "PartitionPair":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        left, _, right = body.partition(", ")
        if not right:
            raise ValueError(f"pair bar notation needs two comma-separated parts: {text!r}")
        return cls(Partition.from_bar(left, m), Partition.from_bar(right, n))

    def refines(self, other: "PartitionPair") -> bool:
        self._check_shape(other)
        return self.row_part.refines(other.row_part) and self.col_part.refines(
            other.col_part
        )

    def meet(self, other: "PartitionPair") -> "PartitionPair":
        self._check_shape(other)
        return PartitionPair(
            self.row_part.meet(other.row_part), self.col_part.meet(other.col_part)
        )

    def join(self, other: "PartitionPair") -> "PartitionPair":
        self._check_shape(other)
        return PartitionPair(
            self.row_part.join(other.row_part), self.col_part.join(other.col_part)
        )

    def lower_covers(self) -> list:
        """Split one class on either coordinate."""
        out = [
            PartitionPair(p, self.col_part) for p in self.row_part.lower_covers()
        ]
        out.extend(
            PartitionPair(self.row_part, p) for p in self.col_part.lower_covers()
        )
        return out

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.row_part.coloring),
            "cols": list(self.col_part.coloring),
        }

    def _check_shape(self, other: "PartitionPair") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shapes differ: {self.shape} vs {other.shape}")
