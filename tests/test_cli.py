import contextlib
import copy
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import warnings

import pytest

from synclat import (
    NetworkConsistencyWarning,
    Partition,
    PartitionPair,
    cycle_graph,
    graph_incidence,
)
from synclat.cli import _COMMANDS, main

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_text(capsys):
    code, out, _ = run(capsys, "lattice", "--matrices", path("fig1.json"))
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 11
    assert lines[0] == "12345"
    assert lines[-1] == "1|2|3|4|5"
    # every line re-parses to a canonical partition
    for line in lines:
        assert Partition.from_bar(line, 5).bar() == line


def test_lattice_json(capsys):
    code, out, _ = run(
        capsys, "lattice", "--matrices", path("fig1.json"), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 11
    assert obj["bar"][0] == "12345"
    assert obj["elements"][0] == [1, 1, 1, 1, 1]
    assert obj["stats"]["cir_calls"] >= 1


def test_lattice_dot(capsys):
    code, out, _ = run(
        capsys, "lattice", "--matrices", path("fig1.json"), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count('label="') == 11
    # edges are index pairs into the node list, acyclic by coarser -> finer
    edges = [
        tuple(int(x[1:]) for x in line.strip().rstrip(";").split(" -> "))
        for line in out.splitlines()
        if "->" in line
    ]
    assert all(a != b for a, b in edges)
    assert len(edges) == len(set(edges))


def test_lattice_verify_ok(capsys):
    code, out, err = run(
        capsys, "lattice", "--matrices", path("fig1.json"), "--verify"
    )
    assert code == 0
    assert "verify ok" in err
    # --verify must not change the artifact
    plain = run(capsys, "lattice", "--matrices", path("fig1.json"))[1]
    assert out == plain


def test_cir_command(capsys):
    code, out, _ = run(
        capsys, "cir", "--matrices", path("cipnet.json"), "--start", "14|235"
    )
    assert code == 0
    assert out.strip() == "1|2|35|4"


def test_cir_default_start_and_json(capsys):
    code, out, _ = run(
        capsys, "cir", "--matrices", path("cipnet.json"), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["start"] == "12345"
    assert obj["result"] == "1|2|345"
    assert obj["chain"] == ["12345", "1345|2", "1|2|345"]
    assert obj["steps"] == len(obj["chain"]) - 1


def test_cir_verify(capsys):
    code, _, err = run(
        capsys,
        "cir",
        "--matrices",
        path("cipnet.json"),
        "--start",
        "14|235",
        "--verify",
    )
    assert code == 0
    assert "verify ok" in err


def test_tactical_text(capsys):
    code, out, _ = run(capsys, "tactical", "--incidence", path("k13.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(1|234, 123)"
    assert len(lines) == 5
    for line in lines:
        assert PartitionPair.from_bar(line, 4, 3).bar() == line


def test_tactical_fano_json(capsys):
    code, out, _ = run(
        capsys, "tactical", "--incidence", path("fano.json"), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 100
    assert obj["m"] == 7 and obj["n"] == 7


def test_tactical_rect_matrices_and_verify(capsys):
    code, _, err = run(
        capsys, "tactical", "--matrices", path("rect.json"), "--verify"
    )
    assert code == 0
    assert "verify ok" in err


def test_balanced_and_exo(capsys):
    code, out, _ = run(capsys, "balanced", "--network", path("balex2.json"))
    assert code == 0
    assert out.splitlines() == ["1|2|34", "1|2|3|4"]
    code, out, _ = run(capsys, "exo-balanced", "--network", path("forpath.json"))
    assert code == 0
    assert out.splitlines() == ["123", "12|3", "1|2|3"]


def test_equitable_and_almost(capsys):
    code, out, _ = run(capsys, "equitable", "--adjacency", path("path4.json"))
    assert code == 0
    assert out.splitlines() == ["14|23", "1|2|3|4"]
    code, out, _ = run(
        capsys, "almost-equitable", "--adjacency", path("path4.json")
    )
    assert code == 0
    assert out.splitlines()[0] == "1234"


def test_cayley(capsys):
    code, out, _ = run(capsys, "cayley", "--group", path("q8.json"))
    assert code == 0
    assert out.splitlines() == [
        "12345678",
        "1256|3478",
        "1357|2468",
        "1458|2367",
        "15|26|37|48",
        "1|2|3|4|5|6|7|8",
    ]


def test_verify_command(capsys):
    for argv in (
        ["verify", "--matrices", path("fig1.json")],
        ["verify", "--incidence", path("k13.json")],
        ["verify", "--network", path("balex2.json")],
        ["verify", "--adjacency", path("path4.json")],
        ["verify", "--group", path("q8.json")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert "verify ok" in err and "MISMATCH" not in err


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "lattice", "--matrices", path("bad_float.json"))
    assert code == 2 and "float" in err
    code, _, err = run(capsys, "lattice", "--matrices", path("rect.json"))
    assert code == 2
    code, _, err = run(capsys, "lattice", "--matrices", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"entries": [[1, NaN]]}')
    code, _, err = run(capsys, "lattice", "--matrices", str(bad))
    assert code == 2 and "NaN" in err
    code, _, err = run(
        capsys, "cir", "--matrices", path("cipnet.json"), "--start", "12|45"
    )
    assert code == 2
    # float indices are rejected, not truncated to the lattice of their ints
    with open(path("q8.json")) as fh:
        group = json.load(fh)
    group["generators"] = [2.9, 3.2]
    bad_group = tmp_path / "float_generators.json"
    bad_group.write_text(json.dumps(group))
    code, out, err = run(capsys, "cayley", "--group", str(bad_group))
    assert code == 2 and out == "" and "2.9" in err
    with open(path("balex2.json")) as fh:
        network = json.load(fh)
    network["arrows"][0]["from"] = 2.7
    bad_network = tmp_path / "float_arrow.json"
    bad_network.write_text(json.dumps(network))
    code, out, err = run(capsys, "balanced", "--network", str(bad_network))
    assert code == 2 and out == "" and "2.7" in err
    # string rows are rejected, not read digit by digit
    for command, source, obj in (
        ("lattice", "matrices", {"entries": ["110", "011", "101"]}),
        ("lattice", "matrices", {"entries": ["10"]}),
        ("tactical", "incidence", {"matrices": [["1100", "0110", "0011"]]}),
    ):
        strings = tmp_path / "strings.json"
        strings.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, f"--{source}", str(strings))
        assert code == 2 and out == "" and "string" in err
    # network counts and cell-type labels are indices too
    arrow = [{"from": 1, "to": 2}]
    for obj, shown in (
        ({"n": 3, "cell_types": [1, True, 2], "arrows": arrow}, "True"),
        ({"n": 3, "cell_types": [1, 1.5, 2], "arrows": arrow}, "1.5"),
        ({"n": True, "arrows": [{"from": 1, "to": 1}]}, "True"),
        ({"n": 2, "num_colors": True, "arrows": arrow}, "True"),
    ):
        bad_network.write_text(json.dumps(obj))
        code, out, err = run(capsys, "balanced", "--network", str(bad_network))
        assert code == 2 and out == "" and shown in err
    # a group file needs its generators
    del group["generators"]
    bad_group.write_text(json.dumps(group))
    code, out, err = run(capsys, "cayley", "--group", str(bad_group))
    assert code == 2 and out == "" and "nonempty" in err
    # declared counts are integers too, not just equal to what they count
    with open(path("q8.json")) as fh:
        group = json.load(fh)
    group["order"] = 8.0
    declared = tmp_path / "declared.json"
    for command, source, obj, shown in (
        ("cayley", "group", group, "8.0"),
        ("tactical", "incidence", {"points": True, "matrices": [[[1, 1]]]}, "True"),
        ("lattice", "matrices", {"rows": True, "entries": [[1]]}, "True"),
    ):
        declared.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, f"--{source}", str(declared))
        assert code == 2 and out == "" and shown in err
    # entries, arrows, adjacencies, group tables and starts that each
    # reader rejects
    arrow = {"from": 1, "to": 2}
    for command, source, obj, shown in (
        ("lattice", "matrices", {"entries": [[True, 0], [0, 1]]}, "boolean is not a matrix entry"),
        ("lattice", "matrices", {"entries": [["1/0", 0], [0, 1]]}, "zero denominator"),
        ("lattice", "matrices", {"matrices": [{"rows": 2}]}, "'entries' field"),
        ("balanced", "network", {"n": 3, "arrows": [{"from": 4, "to": 1}]}, "out of cell range"),
        ("balanced", "network", {"n": 3, "arrows": [{"from": 0, "to": 2}]}, "out of cell range"),
        ("balanced", "network", {"n": 3, "arrows": [dict(arrow, color=0)]}, "must be positive"),
        ("balanced", "network", {"n": 3, "arrows": [dict(arrow, color=-3)]}, "must be positive"),
        ("equitable", "adjacency", {"entries": [[0, 1, 0], [1, 0, 1]]}, "must be square"),
        ("cayley", "group", {"table": [[1, 3, 2], [3, 2, 1], [2, 1, 3]], "generators": [1]},
         "no identity"),
        ("cayley", "group", {"table": [[1, 2], [2, 1]], "generators": [3]}, "out of range"),
    ):
        declared.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, f"--{source}", str(declared))
        assert code == 2 and out == "" and shown in err
    code, out, err = run(
        capsys, "cir", "--matrices", path("cipnet.json"), "--start", "1a|2345"
    )
    assert code == 2 and out == "" and "bad element" in err
    # a missing JSON key is named as one
    for command, source, obj, key in (
        ("cayley", "group", {"order": 2}, "table"),
        ("balanced", "network", {"n": 2}, "arrows"),
        ("balanced", "network", {"n": 2, "arrows": [{"from": 1}]}, "to"),
    ):
        declared.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, f"--{source}", str(declared))
        assert code == 2 and out == "" and f"synclat: missing key '{key}'" in err


@pytest.mark.parametrize("types", [0, True, False, [], {}, ""])
def test_cell_types_must_be_a_list_of_labels(capsys, tmp_path, types):
    # a present cell_types is a nonempty list of labels, even when it is falsy
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "cell_types": types, "arrows": [{"from": 1, "to": 2}]}))
    code, out, err = run(capsys, "balanced", "--network", str(bad))
    assert code == 2 and out == ""
    assert "cell_types must be a list of n cell types" in err


def test_network_reader_checks_declared_sizes(capsys, tmp_path):
    # a declared num_colors is checked, then dropped: an integer at least the
    # largest color in use
    with open(path("balex2.json")) as fh:
        balex2 = json.load(fh)
    bad = tmp_path / "bad.json"
    for obj, shown in (
        (dict(balex2, num_colors=True), "True"),
        (dict(balex2, num_colors=2.5), "2.5"),
        (dict(balex2, num_colors=1), "num_colors=1 below largest used color 2"),
        ({"n": 10**30, "arrows": [{"from": 1, "to": 2}]}, "ground set size"),
    ):
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "balanced", "--network", str(bad))
        assert code == 2 and out == "" and shown in err


class Hung(Exception):
    """Raised by :func:`alarm`.  It is no ``OSError`` (as ``TimeoutError``
    is), which ``main`` would report as exit 2."""


@contextlib.contextmanager
def alarm(seconds):
    def ring(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_huge_colors_are_not_scanned(capsys, tmp_path):
    # a network's colors are the colors its arrows use, so neither a huge
    # declared num_colors nor a huge color costs a loop over the colors
    with open(path("balex2.json")) as fh:
        balex2 = json.load(fh)
    undeclared = {k: v for k, v in balex2.items() if k != "num_colors"}
    one_arrow = {"n": 4, "arrows": [{"from": 1, "to": 2, "color": 1}]}
    huge_color = {"n": 4, "arrows": [{"from": 1, "to": 2, "color": 10**30}]}
    net, same = tmp_path / "net.json", tmp_path / "same.json"
    for obj, plain in ((dict(balex2, num_colors=10**30), undeclared), (huge_color, one_arrow)):
        net.write_text(json.dumps(obj))
        same.write_text(json.dumps(plain))
        for command in ("balanced", "exo-balanced", "verify"):
            start = time.perf_counter()
            with alarm(5):
                code, out, err = run(capsys, command, "--network", str(net))
            assert time.perf_counter() - start < 1
            want = run(capsys, command, "--network", str(same))
            assert (code, out, verify_lines(err)) == (want[0], want[1], verify_lines(want[2]))
            assert code == 0


# per command line: its calls of monochrome_adjacency, laplacian and
# _check_simple_graph; balex2 has two colors
BUILD_COUNTS = [
    ("balanced --network balex2.json", (1, 0, 0)),
    ("balanced --network balex2.json --verify", (1, 0, 0)),
    ("exo-balanced --network balex2.json", (1, 2, 0)),
    ("verify --network balex2.json", (1, 2, 0)),
    ("equitable --adjacency path4.json", (0, 0, 1)),
    ("almost-equitable --adjacency path4.json", (0, 1, 1)),
    ("verify --adjacency path4.json", (0, 1, 1)),
    ("cayley --group q8.json", (1, 0, 0)),
    ("verify --group q8.json", (1, 0, 0)),
    ("verify --matrices fig1.json", (0, 0, 0)),
    ("verify --incidence k13.json", (0, 0, 0)),
]


@pytest.mark.parametrize("line, want", BUILD_COUNTS, ids=[line for line, _ in BUILD_COUNTS])
def test_each_family_is_built_once(capsys, monkeypatch, line, want):
    # the search and --verify read one family, built once
    import synclat.cli as cli
    import synclat.networks as networks

    names = ("monochrome_adjacency", "laplacian", "_check_simple_graph")
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(networks, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(networks, name, counted)
        monkeypatch.setattr(cli, name, counted)
    argv = [path(a) if a.endswith(".json") else a for a in line.split()]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert tuple(calls.values()) == want


def test_incidence_matrices_may_be_matrix_objects(capsys, tmp_path):
    with open(path("k13.json")) as fh:
        bare = json.load(fh)
    objects = dict(bare, matrices=[{"entries": m} for m in bare["matrices"]])
    k13 = tmp_path / "k13_objects.json"
    k13.write_text(json.dumps(objects))
    for fmt in ("text", "json", "dot"):
        want = run(capsys, "tactical", "--incidence", path("k13.json"), "--format", fmt)
        got = run(capsys, "tactical", "--incidence", str(k13), "--format", fmt)
        assert got == want and got[0] == 0
    objects["matrices"][0]["entries"][0][0] = 2
    k13.write_text(json.dumps(objects))
    code, out, err = run(capsys, "tactical", "--incidence", str(k13))
    assert code == 2 and out == "" and "incidence entries must be 0/1" in err


def test_exit_code_3_on_cap(capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"entries": [[0] * 5 for _ in range(5)]}))
    code, _, err = run(capsys, "lattice", "--matrices", str(zero), "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_exit_code_2_on_cap_below_one(capsys, tmp_path):
    # the diagonal's lattice is its top alone, which such a cap never saw
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps({"entries": [[1, 0], [0, 2]]}))
    for argv in (
        ["lattice", "--matrices", path("fig1.json")],
        ["lattice", "--matrices", str(diagonal)],
        ["tactical", "--incidence", path("k13.json")],
        ["balanced", "--network", path("balex2.json")],
    ):
        for cap in ("0", "-5"):
            code, out, err = run(capsys, *argv, "--cap", cap)
            assert code == 2 and out == ""
            assert "element_cap" in err


def test_exit_code_4_on_verify_mismatch(capsys, tmp_path, monkeypatch):
    # force a mismatch by lying to the oracle
    import synclat.cli as cli

    monkeypatch.setattr(cli, "brute_invariant_set", lambda fam: set())
    code, out, err = run(
        capsys, "lattice", "--matrices", path("fig1.json"), "--verify"
    )
    assert code == 4
    assert "MISMATCH" in err
    assert out.splitlines()[0] == "12345"  # artifact still emitted, unchanged
    # an oracle that knows only the discrete partition puts cir(14|235) there
    monkeypatch.setattr(
        cli, "brute_invariant_set", lambda fam: {Partition.discrete(fam.cols)}
    )
    code, _, err = run(
        capsys, "cir", "--matrices", path("cipnet.json"), "--start", "14|235", "--verify"
    )
    assert code == 4 and "verify MISMATCH (cir)" in err
    # a group whose subgroups the oracle cannot find
    monkeypatch.setattr(cli, "subgroup_coset_partitions", lambda group: set())
    code, _, err = run(capsys, "cayley", "--group", path("q8.json"), "--verify")
    assert code == 4 and "verify MISMATCH (coset partitions)" in err


def test_verify_checks_cover_edges(capsys, monkeypatch):
    code, _, err = run(capsys, "lattice", "--matrices", path("fig1.json"), "--verify")
    assert code == 0 and "11 elements, 16 cover edges" in err
    code, _, err = run(capsys, "verify", "--incidence", path("k13.json"))
    assert code == 0 and "cover edges" in err
    # the oracle's reduction is the reference: disagreeing with it fails
    import synclat.cli as cli

    monkeypatch.setattr(cli, "hasse_edges", lambda elements: [])
    for argv in (
        ["lattice", "--matrices", path("fig1.json"), "--verify"],
        ["verify", "--incidence", path("k13.json")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "verify MISMATCH (edges)" in err


def test_argparse_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["lattice"])  # missing --matrices
    assert info.value.code == 2


def test_workers_flag_is_gone():
    with pytest.raises(SystemExit) as info:
        main(["lattice", "--matrices", path("fig1.json"), "--workers", "2"])
    assert info.value.code == 2


def verify_lines(err):
    return [line for line in err.splitlines() if line.startswith("verify")]


# (input, file, the commands that read it); verify --X must act like them
ONE_PATH_CASES = [
    ("matrices", "fig1.json", ["lattice"]),
    ("matrices", "cipnet.json", ["lattice"]),
    ("matrices", "fano.json", ["lattice"]),
    ("matrices", "path4.json", ["lattice"]),
    ("matrices", "rect.json", ["tactical"]),
    ("matrices", "bad_float.json", ["lattice"]),
    ("incidence", "k13.json", ["tactical"]),
    ("incidence", "fano.json", ["tactical"]),
    ("incidence", "cipnet.json", ["tactical"]),
    ("network", "balex2.json", ["balanced", "exo-balanced"]),
    ("network", "forpath.json", ["balanced", "exo-balanced"]),
    ("adjacency", "path4.json", ["equitable", "almost-equitable"]),
    ("adjacency", "fig1.json", ["equitable", "almost-equitable"]),
    ("group", "q8.json", ["cayley"]),
]


@pytest.mark.parametrize(
    "source, name, commands",
    ONE_PATH_CASES,
    ids=[f"{source}-{name}" for source, name, _ in ONE_PATH_CASES],
)
def test_verify_runs_the_commands_that_read_its_input(capsys, source, name, commands):
    # verify --X is every command reading X, run with --verify, minus stdout
    codes, lines = [], []
    for command in commands:
        code, _, err = run(capsys, command, f"--{source}", path(name), "--verify")
        codes.append(code)
        lines += verify_lines(err)
    code, out, err = run(capsys, "verify", f"--{source}", path(name))
    assert out == ""
    assert code == max(codes)
    assert verify_lines(err) == lines


def test_tactical_verify_skips_past_the_oracle_caps(capsys, tmp_path):
    # 10 x 15 vertex-edge incidence: Bell(15) is past the tabulated Bell
    # numbers, so the check is skipped instead of failing
    edges = [(i, i + 1) for i in range(1, 10)]
    edges += [(1, 3), (1, 4), (2, 6), (3, 7), (5, 9), (6, 10)]
    inc = tmp_path / "inc.json"
    entries = graph_incidence(10, edges).to_json_dict()["entries"]
    inc.write_text(json.dumps({"matrices": [entries]}))
    for argv in (
        ["tactical", "--incidence", str(inc), "--verify"],
        ["verify", "--incidence", str(inc)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert verify_lines(err) == ["verify skipped (tactical): ground sets too large"]
    # the same on the point side: a 13-point path
    path13 = graph_incidence(13, [(i, i + 1) for i in range(1, 13)])
    inc.write_text(json.dumps({"matrices": [path13.to_json_dict()["entries"]]}))
    code, _, err = run(capsys, "verify", "--incidence", str(inc))
    assert code == 0, err
    assert verify_lines(err) == ["verify skipped (tactical): ground sets too large"]


def test_square_verify_skips_past_the_oracle_cap(capsys, tmp_path):
    # the oracle scans partitions of at most 10 points; an 11-cycle is
    # skipped with its reason, not failed
    cycle = tmp_path / "c11.json"
    cycle.write_text(json.dumps(cycle_graph(11).to_json_dict()))
    for argv, label in (
        (["lattice", "--matrices", str(cycle), "--verify"], "lattice"),
        (["cir", "--matrices", str(cycle), "--verify"], "cir"),
        (["verify", "--matrices", str(cycle)], "lattice"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert verify_lines(err) == [f"verify skipped ({label}): n > 10"]


def test_worker_count_does_not_depend_on_the_host(capsys, tmp_path, monkeypatch):
    # the search runs in-process on any host, so the JSON stats stay exact
    cycle = tmp_path / "c14.json"
    cycle.write_text(json.dumps(cycle_graph(14).to_json_dict()))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, out, err = run(capsys, "equitable", "--adjacency", str(cycle), "--format", "json")
    assert code == 0, err
    visited = json.loads(out)["stats"]["visited_partitions"]
    assert isinstance(visited, int) and visited > 0


def test_cayley_verify_compares_cosets_only_for_generating_sets(capsys, tmp_path):
    for argv in (["cayley", "--verify"], ["verify"]):
        code, _, err = run(capsys, *argv, "--group", path("q8.json"))
        assert code == 0
        assert verify_lines(err) == [
            "verify ok (cayley): 6 elements, 7 cover edges",
            "verify ok (coset partitions): 6 subgroups",
        ]
    # the element i alone generates a subgroup of order 4: the balanced
    # partitions are no coset partitions, and the engine still agrees with
    # the oracle
    with open(path("q8.json")) as fh:
        group = json.load(fh)
    group["generators"] = [2]
    single = tmp_path / "q8_i.json"
    single.write_text(json.dumps(group))
    for argv in (["cayley", "--verify"], ["verify"]):
        with pytest.warns(NetworkConsistencyWarning):
            code, _, err = run(capsys, *argv, "--group", str(single))
        assert code == 0, err
        lines = verify_lines(err)
        assert lines[0].startswith("verify ok (cayley): ")
        assert lines[1:] == [
            "verify skipped (coset partitions): generators reach only 4 of 8 elements"
        ]


# The first 16 hex digits of the SHA-256 of stdout per --format (text, json,
# dot; cir has no dot), for every command and tests/data input it accepts.
# Every input has n < 14, so each run is inline and its JSON stats are exact.
STDOUT_SHA256 = {
    ("lattice", "matrices", "cipnet.json"): ("2ca5a4232b7b9b46", "45aa3b5ab7eb573f", "04838ada6c58f3a0"),
    ("lattice", "matrices", "fano.json"): ("1d756da7ddb70e2b", "39fac8671c9fa4f2", "0344bad189b8e49f"),
    ("lattice", "matrices", "fig1.json"): ("3ea7e71353370abf", "aa04e7941b11dda4", "2dfc081f89a6eb39"),
    ("lattice", "matrices", "path4.json"): ("fc3cc6e4dad11992", "6b81c0c3200b33aa", "6d2a7297cf4f4185"),
    ("cir", "matrices", "cipnet.json"): ("464fc0fe30b25af6", "442e6e9db52bb5f5"),
    ("cir", "matrices", "fano.json"): ("349abe1272178917", "24ac0ae109373c2b"),
    ("cir", "matrices", "fig1.json"): ("f33ae3bc9a22cd75", "dcd64fe0a6ac85c1"),
    ("cir", "matrices", "path4.json"): ("fa133e252b97d108", "bebc2bd3539202ce"),
    ("tactical", "matrices", "cipnet.json"): ("0331f4b63b1b05f1", "5bab581add0f5ac8", "9553cae180fe6f6b"),
    ("tactical", "matrices", "fano.json"): ("84501511078bdaaa", "4053c91dabbd6520", "07f1c1e2c93b9bec"),
    ("tactical", "matrices", "fig1.json"): ("1ce31544fecea719", "f969a41d6f021311", "15d08e90eb9b7948"),
    ("tactical", "matrices", "k13.json"): ("c887dd9abe191e2a", "424d90dac8279e0e", "cefeb9cf2ef4a771"),
    ("tactical", "matrices", "path4.json"): ("e0d7ca5d99829417", "46d5d7cc0f795d0b", "b6b6ffcaee0bd964"),
    ("tactical", "matrices", "rect.json"): ("1e11e57be08529cd", "9a7160fb42c766e0", "ba89617493b8d899"),
    ("tactical", "incidence", "fano.json"): ("84501511078bdaaa", "4053c91dabbd6520", "07f1c1e2c93b9bec"),
    ("tactical", "incidence", "k13.json"): ("c887dd9abe191e2a", "424d90dac8279e0e", "cefeb9cf2ef4a771"),
    ("balanced", "network", "balex2.json"): ("8af783ffd236d848", "b2f389ecde104af1", "68ccb802b7596311"),
    ("balanced", "network", "forpath.json"): ("c345301e50bdb894", "ecfed398dab22d3c", "1209c6eb6cba3f17"),
    ("exo-balanced", "network", "balex2.json"): ("8af783ffd236d848", "b2f389ecde104af1", "68ccb802b7596311"),
    ("exo-balanced", "network", "forpath.json"): ("b5af2adeb0be6562", "341e269caa5915bc", "e0cfa0b7a84d6522"),
    ("equitable", "adjacency", "path4.json"): ("fc3cc6e4dad11992", "6b81c0c3200b33aa", "6d2a7297cf4f4185"),
    ("almost-equitable", "adjacency", "path4.json"): ("4ec39f5c52ac82a6", "9ef59cb3425b1a1e", "c5b01f90c3203977"),
    ("cayley", "group", "q8.json"): ("339867f7b93e9e79", "50c77821dc55a626", "9ebb42ef70d28e11"),
}


@pytest.mark.parametrize(
    "command, source, name",
    list(STDOUT_SHA256),
    ids=[f"{command}-{name}" for command, _, name in STDOUT_SHA256],
)
def test_stdout_is_pinned(capsys, command, source, name):
    got = []
    for fmt in ("text", "json") if command == "cir" else ("text", "json", "dot"):
        code, out, err = run(capsys, command, f"--{source}", path(name), "--format", fmt)
        assert code == 0, err
        got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(got) == STDOUT_SHA256[command, source, name]


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "synclat.cli", "verify", "--matrices", path("fig1.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert verify_lines(proc.stderr) == ["verify ok (lattice): 11 elements, 16 cover edges"]


# the input options that read each tests/data file
FUZZ_SOURCES = {
    "bad_float.json": ("matrices",),
    "balex2.json": ("network",),
    "c28.json": ("adjacency",),
    "cipnet.json": ("matrices", "incidence"),
    "fano.json": ("matrices", "incidence"),
    "fig1.json": ("matrices", "adjacency"),
    "forpath.json": ("network",),
    "k13.json": ("incidence",),
    "k6.json": ("adjacency",),
    "path4.json": ("matrices", "adjacency"),
    "petersen.json": ("incidence",),
    "q8.json": ("group",),
    "rect.json": ("matrices",),
}
# no mid-sized integers: a network of a few hundred cells and few arrows has
# a lattice that exhausts memory before the element cap stops the search
FUZZ_VALUES = (0, -1, 1, 2, 10**30, True, 2.5, "x", None, [], {})


def mutate(obj, rng):
    """A copy of ``obj`` with one dict key or list item dropped, or set to
    one of FUZZ_VALUES; a random walk from the top picks which."""
    obj = copy.deepcopy(obj)
    node = obj
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and rng.random() < 0.6):
            break
        node = child
    choice = rng.randrange(len(FUZZ_VALUES) + 1)
    if choice == len(FUZZ_VALUES):
        del node[key]
    else:
        node[key] = copy.deepcopy(FUZZ_VALUES[choice])
    return obj


def test_mutated_inputs_exit_cleanly(capsys, tmp_path):
    # every command that reads a mutated tests/data file ends with exit 0, 2
    # or 3 before the alarm: no traceback and no hang
    assert sorted(FUZZ_SOURCES) == sorted(os.listdir(DATA))
    rng = random.Random(13)
    mutated = tmp_path / "mutated.json"
    for name, sources in FUZZ_SOURCES.items():
        with open(path(name)) as fh:
            original = json.load(fh)
        for _ in range(8):
            text = json.dumps(mutate(original, rng))
            mutated.write_text(text)
            for source in sources:
                for command, _, inputs in _COMMANDS:
                    if source not in inputs:
                        continue
                    with warnings.catch_warnings(), alarm(5):
                        warnings.simplefilter("ignore")
                        code = main([command, f"--{source}", str(mutated)])
                    capsys.readouterr()
                    assert code in (0, 2, 3), (command, source, text)
