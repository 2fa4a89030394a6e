"""Command-line interface.

Commands take JSON inputs (schemas below), compute with the exact engine,
and write text, JSON, or DOT to stdout; diagnostics go to stderr.

All lattice commands share one path.  Each is one search of a matrix family
built once: :func:`_searches` turns the arguments into labelled families,
each with the top whose invariant refinements form its lattice, and under
--verify :func:`_verify` checks each lattice against that same family and
top right after it is written: elements first, then cover edges.
``verify --X`` is every command that reads input X, run with --verify and
no stdout: --network runs balanced and exo-balanced, --adjacency equitable
and almost-equitable, --group cayley, --matrices lattice (tactical for
rectangular matrices), --incidence tactical.  The cayley check also
compares with the subgroup coset partitions when the generators generate
the group.  A check that the oracle refuses as past its size caps
(:class:`synclat.oracle.OracleLimit`) is skipped with the oracle's reason,
not failed.  ``cir`` computes one partition and has its own check.

Exit codes: 0 success, 2 parse or validation error, 3 element-cap abort,
4 oracle mismatch under --verify.

Input schemas (all indices 1-based on the wire):

* matrix file: {"rows": m, "cols": n, "entries": [[...]]} where entries are
  integers or "p/q" strings; a family is {"matrices": [...]}, each item a
  matrix object or a bare entries list.
* network file: {"n": n, "cell_types": [c1..cn], "arrows":
  [{"from": j, "to": i, "color": c}, ...], "num_colors": r}.
* group file: {"order": g, "table": [[...]], "generators": [...]}.
* incidence file: {"points": m, "lines": n, "matrices": [...]} as in a
  family, with 0/1 entries.

The declared counts "rows", "cols", "order", "points" and "lines" may be
left out; if given, each must be an integer equal to what it counts.  A
network's colors are the colors its arrows use; a declared "num_colors" must
be an integer at least the largest of them, and is otherwise ignored.  A
network's "cell_types", unless left out or null, must list n integer labels.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Iterator, Optional

from .lattice import ElementCapExceeded, InvariantLattice, _invariant_below
from .networks import (
    ColoredNetwork,
    GroupTable,
    IncidenceStructure,
    _check_simple_graph,
    cayley_network,
    incidence_family,
    laplacian,
    monochrome_adjacency,
    subgroup_coset_partitions,
)
from .oracle import OracleLimit, brute_invariant_set, brute_tactical_set, hasse_edges
from .partition import Partition, PartitionPair
from .rational import RationalMatrix
from .refine import Element, MatrixFamily, cir_chain, is_invariant


def emit_dot(lattice: InvariantLattice) -> str:
    """Render the lattice as a DOT digraph, one node per element labeled in
    bar notation, edges from coarser to finer cover."""
    lines = ["digraph lattice {", "  node [shape=box];"]
    for idx, bar in enumerate(lattice.bars()):
        lines.append(f'  n{idx} [label="{bar}"];')
    for coarser, finer in lattice.cover_edges:
        lines.append(f"  n{coarser} -> n{finer};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_lattice(lattice: InvariantLattice, fmt: str) -> None:
    if fmt == "text":
        for bar in lattice.bars():
            print(bar)
    elif fmt == "json":
        print(json.dumps(lattice.to_json_dict(), indent=2))
    else:
        sys.stdout.write(emit_dot(lattice))


def _reject_constant(token: str):
    raise ValueError(f"non-finite numeric literal {token!r} is not valid input")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _verify(
    label: str, lattice: InvariantLattice, family: MatrixFamily, top: Element
) -> Optional[bool]:
    """Check a lattice against the brute-force oracle: its elements against
    the invariant partitions of ``family`` that refine ``top`` (tactical
    decompositions, for a pair lattice), then its cover edges against the
    oracle's transitive reduction.  None when past the oracle's size caps."""
    try:
        if lattice.is_tactical:
            expected = brute_tactical_set(family)
        else:
            expected = brute_invariant_set(family)
    except OracleLimit as exc:
        print(f"verify skipped ({label}): {exc}", file=sys.stderr)
        return None
    expected = {p for p in expected if p.refines(top)}
    got = set(lattice.elements)
    if got != expected:
        missing = sorted(p.bar() for p in expected - got)
        extra = sorted(p.bar() for p in got - expected)
        print(
            f"verify MISMATCH ({label}): missing {missing}, unexpected {extra}",
            file=sys.stderr,
        )
        return False
    want = hasse_edges(lattice.elements)
    if list(lattice.cover_edges) != want:
        have, want = set(lattice.cover_edges), set(want)
        print(
            f"verify MISMATCH (edges): {len(want - have)} missing, "
            f"{len(have - want)} unexpected",
            file=sys.stderr,
        )
        return False
    print(
        f"verify ok ({label}): {len(got)} "
        f"{'pairs' if lattice.is_tactical else 'elements'}, "
        f"{len(lattice.cover_edges)} cover edges",
        file=sys.stderr,
    )
    return True


def _verify_cosets(
    group: GroupTable, generators: list, lattice: InvariantLattice
) -> Optional[bool]:
    """The balanced partitions of a Cayley digraph are the right-coset
    partitions by the subgroups, when the generators generate the group.
    ``generators`` are the 1-based indices that :func:`cayley_network` has
    already checked."""
    reached = len(group.generated(s - 1 for s in generators))
    if reached != group.order:
        print(
            f"verify skipped (coset partitions): generators reach only "
            f"{reached} of {group.order} elements",
            file=sys.stderr,
        )
        return None
    cosets = subgroup_coset_partitions(group)
    if set(lattice.elements) == cosets:
        print(f"verify ok (coset partitions): {len(cosets)} subgroups", file=sys.stderr)
        return True
    print("verify MISMATCH (coset partitions)", file=sys.stderr)
    return False


def _verify_cir(family: MatrixFamily, start: Partition, result: Partition) -> Optional[bool]:
    try:
        invariant = brute_invariant_set(family)
    except OracleLimit as exc:
        print(f"verify skipped (cir): {exc}", file=sys.stderr)
        return None
    coarsest = Partition.discrete(start.n)
    for candidate in invariant:
        if candidate.refines(start):
            coarsest = coarsest.join(candidate)
    ok = (
        result == coarsest
        and result.refines(start)
        and is_invariant(family, result)
    )
    if ok:
        print("verify ok (cir)", file=sys.stderr)
        return True
    print(
        f"verify MISMATCH (cir): engine {result.bar()}, oracle {coarsest.bar()}",
        file=sys.stderr,
    )
    return False


_INPUTS = ("matrices", "incidence", "network", "adjacency", "group")

_COMMANDS = (  # name, help, the input options (exactly one is given)
    ("lattice", "all invariant partitions of a square matrix family", ("matrices",)),
    ("cir", "coarsest invariant refinement of a start partition", ("matrices",)),
    ("tactical", "all tactical decompositions of a rectangular family", ("incidence", "matrices")),
    ("balanced", "balanced partitions of a colored cell network", ("network",)),
    ("exo-balanced", "exo-balanced partitions of a colored cell network", ("network",)),
    ("equitable", "equitable partitions of a simple graph", ("adjacency",)),
    ("almost-equitable", "almost equitable partitions of a simple graph", ("adjacency",)),
    ("cayley", "balanced partitions of a Cayley color digraph", ("group",)),
    ("verify", "run engine and brute-force oracle, compare", _INPUTS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synclat",
        description="Lattices of invariant synchrony partitions and tactical "
        "decompositions over exact rational arithmetic.",
    )
    parser.set_defaults(run=_cmd_lattices, **dict.fromkeys(_INPUTS))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, inputs in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True) if len(inputs) > 1 else p
        for source in inputs:
            group.add_argument(f"--{source}", required=len(inputs) == 1)
        if name == "cir":
            p.add_argument("--start", default=None, help="bar notation; default: the one-class partition")
        if name == "verify":
            p.set_defaults(format=None, verify=True)
        else:
            formats = ("text", "json") if name == "cir" else ("text", "json", "dot")
            p.add_argument("--format", choices=formats, default="text")
            p.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle")
        if name == "cir":
            p.set_defaults(run=_cmd_cir)
            continue
        p.add_argument("--cap", type=int, default=10**6, help="element cap (exit 3 when exceeded)")
    return parser


def _searches(args) -> Iterator[tuple]:
    """The searches a command asks for, each family built once.

    Yields ``(label, family, top, also)``: the lattice is the invariant
    partitions of ``family`` that refine ``top``, :func:`_verify` checks it
    against the same family and top, and ``also``, when not None, is one
    more check to call with the lattice.  ``verify`` asks for every search
    that the commands reading its input run.
    """

    def wants(command: str) -> bool:
        return args.command in (command, "verify")

    if args.network:
        net = ColoredNetwork.from_json_dict(_load_json(args.network))
        fam = monochrome_adjacency(net)
        if wants("balanced"):
            yield "balanced", fam, net.cell_types, None
        if wants("exo-balanced"):
            lfam = MatrixFamily([laplacian(m) for m in fam.matrices])
            yield "exo-balanced", lfam, net.cell_types, None
    elif args.adjacency:
        obj = _load_json(args.adjacency)
        adjacency = _check_simple_graph(RationalMatrix.from_json_dict(obj))
        top = Partition.singleton(adjacency.cols)
        if wants("equitable"):
            yield "equitable", MatrixFamily([adjacency]), top, None
        if wants("almost-equitable"):
            yield "almost-equitable", MatrixFamily([laplacian(adjacency)]), top, None
    elif args.group:
        obj = _load_json(args.group)
        group = GroupTable.from_json_dict(obj)
        generators = obj.get("generators") or []
        net = cayley_network(group, generators)
        cosets = partial(_verify_cosets, group, generators)
        yield "cayley", monochrome_adjacency(net), net.cell_types, cosets
    else:
        if args.incidence:
            inc = IncidenceStructure.from_json_dict(_load_json(args.incidence))
            family = incidence_family(inc)
        else:
            family = MatrixFamily.from_json_dict(_load_json(args.matrices))
        square = family.is_square and not args.incidence and args.command != "tactical"
        if args.command == "lattice" and not square:
            raise ValueError("the 'lattice' command needs square matrices; see 'tactical'")
        if square:
            yield "lattice", family, Partition.singleton(family.cols), None
        else:
            top = PartitionPair.singleton(family.rows, family.cols)
            yield "tactical", family, top, None


def _cmd_lattices(args) -> int:
    """Search each family below its top, emit the lattice in ``--format``
    (none for ``verify``), and under ``--verify`` check it right after; exit
    4 if any check failed."""
    checks = []
    for label, family, top, also in _searches(args):
        lattice = _invariant_below(family, top, element_cap=args.cap)
        if args.format:
            _emit_lattice(lattice, args.format)
        if args.verify:
            checks.append(_verify(label, lattice, family, top))
            if also is not None:
                checks.append(also(lattice))
    return 4 if False in checks else 0


def _cmd_cir(args) -> int:
    family = MatrixFamily.from_json_dict(_load_json(args.matrices))
    if not family.is_square:
        raise ValueError("the 'cir' command needs square matrices")
    n = family.cols
    start = Partition.from_bar(args.start, n) if args.start else Partition.singleton(n)
    chain = cir_chain(family, start)
    result = chain[-1]
    if args.format == "text":
        print(result.bar())
    else:
        print(
            json.dumps(
                {
                    "n": n,
                    "start": start.bar(),
                    "result": result.bar(),
                    "coloring": list(result.coloring),
                    "steps": len(chain) - 1,
                    "chain": [p.bar() for p in chain],
                },
                indent=2,
            )
        )
    if args.verify and _verify_cir(family, start, result) is False:
        return 4
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ElementCapExceeded as exc:
        print(f"synclat: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"synclat: missing key {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"synclat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
