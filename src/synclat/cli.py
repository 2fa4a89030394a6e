"""Command-line interface.

Commands take JSON inputs (schemas below), compute with the exact engine,
and write text, JSON, or DOT to stdout; diagnostics go to stderr.

Exit codes: 0 success, 2 parse or validation error, 3 element-cap abort,
4 oracle mismatch under --verify.

Input schemas (all indices 1-based on the wire):

* matrix file: {"rows": m, "cols": n, "entries": [[...]]} where entries are
  integers or "p/q" strings; a family is {"matrices": [matrix, ...]}.
* network file: {"n": n, "cell_types": [c1..cn], "arrows":
  [{"from": j, "to": i, "color": c}, ...], "num_colors": r}.
* group file: {"order": g, "table": [[...]], "generators": [...]}.
* incidence file: {"points": m, "lines": n, "matrices": [[[0/1, ...]]]}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .lattice import (
    ElementCapExceeded,
    InvariantLattice,
    invariant_lattice,
    tactical_lattice,
)
from .networks import (
    ColoredNetwork,
    GroupTable,
    IncidenceStructure,
    balanced_partitions,
    cayley_network,
    equitable_partitions,
    exo_balanced_partitions,
    almost_equitable_partitions,
    incidence_family,
    laplacian,
    monochrome_adjacency,
    subgroup_coset_partitions,
)
from .oracle import (
    MAX_BRUTE_N,
    MAX_BRUTE_PAIRS,
    bell_number,
    brute_invariant_set,
    brute_tactical_set,
    hasse_edges,
)
from .partition import Partition
from .rational import RationalMatrix
from .refine import MatrixFamily, cir_chain, is_invariant

_SMALL_N = 14  # below this, auto worker selection stays sequential


def emit_dot(lattice: InvariantLattice) -> str:
    """Render the lattice as a DOT digraph, one node per element labeled in
    bar notation, edges from coarser to finer cover."""
    lines = ["digraph lattice {", "  node [shape=box];"]
    for idx, element in enumerate(lattice.elements):
        lines.append(f'  n{idx} [label="{element.bar()}"];')
    for coarser, finer in lattice.cover_edges:
        lines.append(f"  n{coarser} -> n{finer};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_lattice(lattice: InvariantLattice, fmt: str) -> None:
    if fmt == "text":
        for element in lattice.elements:
            print(element.bar())
    elif fmt == "json":
        print(json.dumps(lattice.to_json_dict(), indent=2))
    else:
        sys.stdout.write(emit_dot(lattice))


def _reject_constant(token: str):
    raise ValueError(f"non-finite numeric literal {token!r} is not valid input")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _family_from_path(path: str) -> MatrixFamily:
    obj = _load_json(path)
    if isinstance(obj, dict) and "matrices" in obj:
        mats = []
        for item in obj["matrices"]:
            if isinstance(item, dict):
                mats.append(RationalMatrix.from_json_dict(item))
            else:
                mats.append(RationalMatrix.from_json_dict({"entries": item}))
        return MatrixFamily(mats)
    if isinstance(obj, dict):
        return MatrixFamily([RationalMatrix.from_json_dict(obj)])
    raise ValueError(f"{path}: expected a matrix object or a 'matrices' family")


def _adjacency_from_path(path: str) -> RationalMatrix:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a matrix object")
    return RationalMatrix.from_json_dict(obj)


def _network_from_path(path: str) -> ColoredNetwork:
    return ColoredNetwork.from_json_dict(_load_json(path))


def _incidence_from_path(path: str) -> IncidenceStructure:
    return IncidenceStructure.from_json_dict(_load_json(path))


def _group_from_path(path: str) -> tuple:
    obj = _load_json(path)
    group = GroupTable.from_json_dict(obj)
    generators = obj.get("generators")
    if not generators:
        raise ValueError(f"{path}: group file needs a nonempty 'generators' list")
    return group, generators


def _resolve_workers(requested: Optional[int], n: int) -> int:
    if requested is not None:
        if requested < 1:
            raise ValueError("--workers must be >= 1")
        return requested
    if n < _SMALL_N:
        return 1
    return os.cpu_count() or 1


def _brute_square(family: MatrixFamily, below: Optional[Partition] = None):
    """Brute invariant set, or None when past the oracle size cap."""
    if family.cols > MAX_BRUTE_N:
        return None
    found = brute_invariant_set(family)
    if below is not None:
        found = {p for p in found if p.refines(below)}
    return found


def _verify_square(
    lattice: InvariantLattice,
    family: MatrixFamily,
    below: Optional[Partition],
    label: str,
) -> Optional[bool]:
    expected = _brute_square(family, below)
    if expected is None:
        print(f"verify skipped ({label}): n > {MAX_BRUTE_N}", file=sys.stderr)
        return None
    got = set(lattice.elements)
    if got == expected:
        if not _verify_edges(lattice):
            return False
        print(
            f"verify ok ({label}): {len(got)} elements, "
            f"{len(lattice.cover_edges)} cover edges",
            file=sys.stderr,
        )
        return True
    missing = sorted(p.bar() for p in expected - got)
    extra = sorted(p.bar() for p in got - expected)
    print(
        f"verify MISMATCH ({label}): missing {missing}, unexpected {extra}",
        file=sys.stderr,
    )
    return False


def _verify_edges(lattice: InvariantLattice) -> bool:
    """Compare the search's cover edges with the oracle's transitive
    reduction of the (already verified) elements."""
    expected = hasse_edges(lattice.elements)
    if list(lattice.cover_edges) == expected:
        return True
    got, want = set(lattice.cover_edges), set(expected)
    print(
        f"verify MISMATCH (edges): {len(want - got)} missing, "
        f"{len(got - want)} unexpected",
        file=sys.stderr,
    )
    return False


def _verify_tactical(lattice: InvariantLattice, family: MatrixFamily) -> Optional[bool]:
    if bell_number(family.rows) * bell_number(family.cols) > MAX_BRUTE_PAIRS:
        print("verify skipped (tactical): ground sets too large", file=sys.stderr)
        return None
    expected = brute_tactical_set(family)
    got = set(lattice.elements)
    if got == expected:
        if not _verify_edges(lattice):
            return False
        print(
            f"verify ok (tactical): {len(got)} pairs, "
            f"{len(lattice.cover_edges)} cover edges",
            file=sys.stderr,
        )
        return True
    missing = sorted(p.bar() for p in expected - got)
    extra = sorted(p.bar() for p in got - expected)
    print(
        f"verify MISMATCH (tactical): missing {missing}, unexpected {extra}",
        file=sys.stderr,
    )
    return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synclat",
        description="Lattices of invariant synchrony partitions and tactical "
        "decompositions over exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("text", "json", "dot")) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle")
        p.add_argument("--cap", type=int, default=10**6, help="element cap (exit 3 when exceeded)")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes; default: 1 for small inputs, all CPUs otherwise",
        )

    p = sub.add_parser("lattice", help="all invariant partitions of a square matrix family")
    p.add_argument("--matrices", required=True)
    common(p)

    p = sub.add_parser("cir", help="coarsest invariant refinement of a start partition")
    p.add_argument("--matrices", required=True)
    p.add_argument("--start", default=None, help="bar notation; default: the one-class partition")
    common(p, formats=("text", "json"))

    p = sub.add_parser("tactical", help="all tactical decompositions of a rectangular family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--incidence")
    group.add_argument("--matrices")
    common(p)

    p = sub.add_parser("balanced", help="balanced partitions of a colored cell network")
    p.add_argument("--network", required=True)
    common(p)

    p = sub.add_parser("exo-balanced", help="exo-balanced partitions of a colored cell network")
    p.add_argument("--network", required=True)
    common(p)

    p = sub.add_parser("equitable", help="equitable partitions of a simple graph")
    p.add_argument("--adjacency", required=True)
    common(p)

    p = sub.add_parser("almost-equitable", help="almost equitable partitions of a simple graph")
    p.add_argument("--adjacency", required=True)
    common(p)

    p = sub.add_parser("cayley", help="balanced partitions of a Cayley color digraph")
    p.add_argument("--group", required=True)
    common(p)

    p = sub.add_parser("verify", help="run engine and brute-force oracle, compare")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrices")
    group.add_argument("--incidence")
    group.add_argument("--network")
    group.add_argument("--adjacency")
    group.add_argument("--group")
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--workers", type=int, default=None)

    return parser


def _cmd_lattice(args) -> int:
    family = _family_from_path(args.matrices)
    if not family.is_square:
        raise ValueError("the 'lattice' command needs square matrices; see 'tactical'")
    workers = _resolve_workers(args.workers, family.cols)
    lattice = invariant_lattice(family, workers=workers, element_cap=args.cap)
    _emit_lattice(lattice, args.format)
    if args.verify and _verify_square(lattice, family, None, "lattice") is False:
        return 4
    return 0


def _cmd_cir(args) -> int:
    family = _family_from_path(args.matrices)
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
    if args.verify:
        ok = _verify_cir(family, start, result)
        if ok is False:
            return 4
    return 0


def _verify_cir(family: MatrixFamily, start: Partition, result: Partition) -> Optional[bool]:
    expected = _brute_square(family, below=start)
    if expected is None:
        print(f"verify skipped (cir): n > {MAX_BRUTE_N}", file=sys.stderr)
        return None
    coarsest = Partition.discrete(start.n)
    for candidate in expected:
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


def _cmd_tactical(args) -> int:
    if args.incidence:
        family = incidence_family(_incidence_from_path(args.incidence))
    else:
        family = _family_from_path(args.matrices)
    lattice = _tactical(family, args)
    _emit_lattice(lattice, args.format)
    if args.verify and _verify_tactical(lattice, family) is False:
        return 4
    return 0


def _tactical(family: MatrixFamily, args) -> InvariantLattice:
    workers = _resolve_workers(args.workers, max(family.rows, family.cols))
    return tactical_lattice(family, workers=workers, element_cap=args.cap)


def _cmd_network(args, exo: bool) -> int:
    net = _network_from_path(args.network)
    workers = _resolve_workers(args.workers, net.n)
    compute = exo_balanced_partitions if exo else balanced_partitions
    lattice = compute(net, workers=workers, element_cap=args.cap)
    _emit_lattice(lattice, args.format)
    if args.verify:
        fam = monochrome_adjacency(net)
        if exo:
            fam = MatrixFamily([laplacian(m) for m in fam.matrices])
        label = "exo-balanced" if exo else "balanced"
        if _verify_square(lattice, fam, net.cell_types, label) is False:
            return 4
    return 0


def _cmd_graph(args, almost: bool) -> int:
    adjacency = _adjacency_from_path(args.adjacency)
    workers = _resolve_workers(args.workers, adjacency.cols)
    compute = almost_equitable_partitions if almost else equitable_partitions
    lattice = compute(adjacency, workers=workers, element_cap=args.cap)
    _emit_lattice(lattice, args.format)
    if args.verify:
        fam = MatrixFamily([laplacian(adjacency) if almost else adjacency])
        label = "almost-equitable" if almost else "equitable"
        if _verify_square(lattice, fam, None, label) is False:
            return 4
    return 0


def _cmd_cayley(args) -> int:
    group, generators = _group_from_path(args.group)
    net = cayley_network(group, generators)
    workers = _resolve_workers(args.workers, net.n)
    lattice = balanced_partitions(net, workers=workers, element_cap=args.cap)
    _emit_lattice(lattice, args.format)
    if args.verify:
        fam = monochrome_adjacency(net)
        if _verify_square(lattice, fam, net.cell_types, "cayley") is False:
            return 4
    return 0


def _cmd_verify(args) -> int:
    checks = []
    if args.matrices:
        family = _family_from_path(args.matrices)
        if family.is_square:
            workers = _resolve_workers(args.workers, family.cols)
            lat = invariant_lattice(family, workers=workers, element_cap=args.cap)
            checks.append(_verify_square(lat, family, None, "lattice"))
        else:
            lat = _tactical(family, args)
            checks.append(_verify_tactical(lat, family))
    elif args.incidence:
        family = incidence_family(_incidence_from_path(args.incidence))
        lat = _tactical(family, args)
        checks.append(_verify_tactical(lat, family))
    elif args.network:
        net = _network_from_path(args.network)
        workers = _resolve_workers(args.workers, net.n)
        fam = monochrome_adjacency(net)
        lat = balanced_partitions(net, workers=workers, element_cap=args.cap)
        checks.append(_verify_square(lat, fam, net.cell_types, "balanced"))
        lfam = MatrixFamily([laplacian(m) for m in fam.matrices])
        lat = exo_balanced_partitions(net, workers=workers, element_cap=args.cap)
        checks.append(_verify_square(lat, lfam, net.cell_types, "exo-balanced"))
    elif args.adjacency:
        adjacency = _adjacency_from_path(args.adjacency)
        workers = _resolve_workers(args.workers, adjacency.cols)
        lat = equitable_partitions(adjacency, workers=workers, element_cap=args.cap)
        checks.append(_verify_square(lat, MatrixFamily([adjacency]), None, "equitable"))
        lat = almost_equitable_partitions(adjacency, workers=workers, element_cap=args.cap)
        checks.append(
            _verify_square(
                lat, MatrixFamily([laplacian(adjacency)]), None, "almost-equitable"
            )
        )
    else:
        group, generators = _group_from_path(args.group)
        net = cayley_network(group, generators)
        workers = _resolve_workers(args.workers, net.n)
        lat = balanced_partitions(net, workers=workers, element_cap=args.cap)
        checks.append(
            _verify_square(lat, monochrome_adjacency(net), net.cell_types, "cayley")
        )
        cosets = subgroup_coset_partitions(group)
        if set(lat.elements) == cosets:
            print(
                f"verify ok (coset partitions): {len(cosets)} subgroups",
                file=sys.stderr,
            )
            checks.append(True)
        else:
            print("verify MISMATCH (coset partitions)", file=sys.stderr)
            checks.append(False)
    return 4 if any(c is False for c in checks) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "lattice":
            return _cmd_lattice(args)
        if args.command == "cir":
            return _cmd_cir(args)
        if args.command == "tactical":
            return _cmd_tactical(args)
        if args.command == "balanced":
            return _cmd_network(args, exo=False)
        if args.command == "exo-balanced":
            return _cmd_network(args, exo=True)
        if args.command == "equitable":
            return _cmd_graph(args, almost=False)
        if args.command == "almost-equitable":
            return _cmd_graph(args, almost=True)
        if args.command == "cayley":
            return _cmd_cayley(args)
        return _cmd_verify(args)
    except ElementCapExceeded as exc:
        print(f"synclat: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"synclat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
