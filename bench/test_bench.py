"""Tests of the benchmark itself, on the tiny --smoke inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from spans import Histogram
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    if trace and workload == "cycle":
        for name in ("lattice.workers1_s", "lattice.workers2_s", "lattice.pool_speedup"):
            assert name in proc.stdout


@pytest.fixture(scope="module")
def sl():
    assert bench.import_check() is None
    import synclat

    return synclat


def _drop_one(sl, lattice, k):
    """The lattice with element k removed and the edges renumbered."""
    elements = lattice.elements[:k] + lattice.elements[k + 1:]
    edges = tuple(
        (i - (i > k), j - (j > k)) for i, j in lattice.cover_edges if k not in (i, j)
    )
    return sl.InvariantLattice(elements, edges, lattice.stats)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_dropped_element_counts_as_failure(workload, sl, monkeypatch):
    smoke = WORKLOADS[workload][1]
    _, sl, matrices, family = bench.set_up(smoke, 5)
    good = bench.Attempts(sl, smoke, matrices, family, None)
    good.run(smoke.workers)
    assert (good.attempted, good.failed) == (1, 0)
    lattice, _ = bench.compute(sl, smoke, family, smoke.workers)
    bad = _drop_one(sl, lattice, len(lattice) // 2)
    monkeypatch.setattr(bench, "compute", lambda *a, **k: (bad, bad.to_json_dict()))
    attempts = bench.Attempts(sl, smoke, matrices, family, None)
    attempts.run(smoke.workers)
    assert (attempts.attempted, attempts.failed) == (1, 1)


def test_recorded_digest_mismatch_counts_as_failure(sl):
    smoke = WORKLOADS["complete"][1]
    _, sl, matrices, family = bench.set_up(smoke, 1)
    attempts = bench.Attempts(sl, smoke, matrices, family, "0" * 64)
    attempts.run(smoke.workers)
    assert (attempts.attempted, attempts.failed) == (1, 1)


def test_inputs_depend_only_on_the_seed(sl):
    for full, _ in WORKLOADS.values():
        a = full.matrices(sl, random.Random(11))
        assert a == full.matrices(sl, random.Random(11))
    cycle = WORKLOADS["cycle"][0]
    assert cycle.matrices(sl, random.Random(1)) != cycle.matrices(sl, random.Random(2))


def test_smoke_tactical_counts_match_brute_force(sl):
    smoke = WORKLOADS["tactical"][1]
    family = sl.MatrixFamily(smoke.matrices(sl, random.Random(0)))
    lattice = sl.tactical_lattice(family)
    assert set(lattice.elements) == sl.brute_tactical_set(family)
    assert (len(lattice), len(lattice.cover_edges)) == (smoke.count, smoke.cover_edges)


def test_histogram_quantiles_within_bucket_error():
    rng = random.Random(0)
    values = sorted(int(rng.lognormvariate(10, 1.5)) + 1 for _ in range(5000))
    hist = Histogram()
    for v in values:
        hist.add(v)
    for q in (0.5, 0.9, 0.99):
        exact = values[int(q * (len(values) - 1))]
        assert abs(hist.quantile_ns(q) - exact) <= exact / 2 ** Histogram.SUB_BITS
    assert hist.count == len(values) and hist.total_ns == sum(values)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cycle", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
