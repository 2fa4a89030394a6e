import json
import os

import pytest

from synclat import Partition, PartitionPair
from synclat.cli import main

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


def test_exit_code_3_on_cap(capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"entries": [[0] * 5 for _ in range(5)]}))
    code, _, err = run(capsys, "lattice", "--matrices", str(zero), "--cap", "10")
    assert code == 3
    assert "cap" in err


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


def test_workers_flag_matches_sequential(capsys):
    base = run(capsys, "lattice", "--matrices", path("fig1.json"))[1]
    par = run(
        capsys, "lattice", "--matrices", path("fig1.json"), "--workers", "2"
    )[1]
    assert base == par
    base = run(capsys, "tactical", "--incidence", path("fano.json"))[1]
    par = run(
        capsys, "tactical", "--incidence", path("fano.json"), "--workers", "2"
    )[1]
    assert base == par
