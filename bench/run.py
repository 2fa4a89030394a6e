"""synclat benchmark: lattice enumeration time, set-up time and memory on
four seeded workloads, with a traced run that splits the time by module.

    python3 bench/run.py --workload cycle --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all   --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (``lattice_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` measures the per-layer metrics named
``<module>.<metric>``.  ``--workload all`` runs every workload in a fresh
process and prints a table.  ``--smoke`` swaps in tiny inputs for the
benchmark's own tests.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory and sees only
the generated matrices.  Nothing in the library is patched: the traced run
times the public calls the benchmark makes into each module.  See README.md
for the choice of workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from spans import Histogram, Tracer  # noqa: E402  (lives next to this file)
from workloads import WORKLOADS, digest, split_count  # noqa: E402

# Set-up takes tens of milliseconds, so it is repeated and its median taken.
SETUP_REPS = 41
# Chains are replayed for every k-th split, k chosen so at most this many run.
CHAIN_SAMPLE = 65536
# Per-workload limit for --workload all.
WORKLOAD_TIMEOUT_S = 600

END_TO_END_UNITS = {"lattice_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _null_span(name, **attrs):
    return nullcontext()


def _purge_synclat() -> None:
    for name in [m for m in sys.modules if m == "synclat" or m.startswith("synclat.")]:
        del sys.modules[name]


def set_up(workload, seed: int, span=_null_span):
    """One full set-up from a cold import: import synclat, build the seeded
    matrices, the MatrixFamily and its engines.

    Returns ``(seconds, sl, matrices, family)``.
    """
    _purge_synclat()
    t0 = time.perf_counter()
    with span("setup"):
        with span("import"):
            sl = importlib.import_module("synclat")
        with span("networks.build"):
            matrices = workload.matrices(sl, random.Random(seed))
        with span("refine.MatrixFamily"):
            family = sl.MatrixFamily(matrices)
        with span("refine.engine"):
            family.engine()
            if workload.tactical:
                family.transposed().engine()
    return time.perf_counter() - t0, sl, matrices, family


def compute(sl, workload, family, workers: int, span=_null_span):
    """The timed region: the front-end on the prepared family until the full
    result, including its JSON form, exists."""
    front_end = sl.tactical_lattice if workload.tactical else sl.invariant_lattice
    with span("lattice.front_end"):
        lattice = front_end(family, workers=workers)
    with span("lattice.to_json_dict"):
        output = lattice.to_json_dict()
    return lattice, output


class Attempts:
    """Lattice computations of one run and their exact checks.

    Each result is checked as soon as its timed region ends and then
    dropped, so that memory does not grow with the number of repetitions.
    A computation fails if it raises, fails its workload check, or yields a
    digest that differs from the recorded one or from the run's first
    result.
    """

    def __init__(self, sl, workload, matrices, family, recorded_digest):
        self.sl = sl
        self.workload = workload
        self.matrices = matrices
        self.family = family
        self.recorded_digest = recorded_digest
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, workers: int, span=_null_span):
        """One computation; returns (seconds, lattice or None if it failed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            lattice, output = compute(self.sl, self.workload, self.family, workers, span)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        problems = self.problems(lattice, output)
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            return seconds, None
        return seconds, lattice

    def problems(self, lattice, output) -> list:
        try:
            problems = self.workload.check(self.sl, self.matrices, lattice)
        except Exception as exc:
            traceback.print_exc()
            return [f"check raised {type(exc).__name__}"]
        if output.get("count") != len(lattice) or len(output.get("cover_edges", ())) != len(
            lattice.cover_edges
        ):
            problems.append("to_json_dict() disagrees with the lattice")
        got = digest(lattice)
        if self.digest is None:
            self.digest = got
        if got != self.digest:
            problems.append(f"digest {got[:16]} differs from this run's first {self.digest[:16]}")
        if self.recorded_digest is not None and got != self.recorded_digest:
            problems.append(
                f"digest {got[:16]} differs from the recorded {self.recorded_digest[:16]}"
            )
        return problems


def repeat(seconds: float, attempt) -> list:
    """Call ``attempt()`` (which returns its own duration) until another call
    as long as the last would pass ``seconds``; always at least once."""
    durations = []
    start = time.perf_counter()
    while True:
        last = attempt()
        durations.append(last)
        if time.perf_counter() - start + last > seconds:
            return durations


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus one largest-child peak per pool worker
    (Linux reports kilobytes); an upper bound on the combined peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers if workers > 1 else 0) * child) / 1024


def timed_run(workload, seed: int, seconds: float, recorded_digest):
    """End-to-end metrics, tracing off.

    Half the set-ups run before the lattice repetitions and half after, so
    that their median spans the run and not only its first second.
    """
    setup_times = []
    for _ in range(SETUP_REPS // 2 + 1):
        elapsed, sl, matrices, family = set_up(workload, seed)
        setup_times.append(elapsed)
    attempts = Attempts(sl, workload, matrices, family, recorded_digest)
    ok_times, all_times = [], []

    def attempt():
        elapsed, lattice = attempts.run(workload.workers)
        all_times.append(elapsed)
        if lattice is not None:
            ok_times.append(elapsed)
        return elapsed

    repeat(seconds, attempt)
    setup_times += [set_up(workload, seed)[0] for _ in range(SETUP_REPS - len(setup_times))]
    metrics = {
        "lattice_s": statistics.median(ok_times or all_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(workload.workers),
    }
    notes = {"lattice_reps": len(all_times), "setup_reps": SETUP_REPS}
    return attempts, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes, None


def replay(sl, workload, family, elements, tracer: Tracer) -> dict:
    """Re-run the top call and every one-class split of every element through
    the public ``cir`` / ``tactical_cir``, timing each call into a histogram
    and the split generator separately; every k-th start also goes through
    ``cir_chain`` / ``tactical_cir_chain`` to count refinement passes."""
    iter_covers = sl.partition.iter_cover_colorings
    Partition, PartitionPair = sl.Partition, sl.PartitionPair
    refine = sl.tactical_cir if workload.tactical else sl.cir
    chain = sl.tactical_cir_chain if workload.tactical else sl.cir_chain
    clock = time.perf_counter_ns
    if workload.tactical:
        total = sum(split_count(e.row_part.coloring) + split_count(e.col_part.coloring) for e in elements)
        top = PartitionPair.singleton(family.rows, family.cols)
    else:
        total = sum(split_count(e.coloring) for e in elements)
        top = Partition.singleton(family.cols)
    stride = max(1, -(-(total + 1) // CHAIN_SAMPLE))
    hist = Histogram()
    gen_ns = 0
    calls = chained = chain_len = 0

    def splits(coloring):
        nonlocal gen_ns
        it = iter_covers(coloring)
        while True:
            t0 = clock()
            c = next(it, None)
            gen_ns += clock() - t0
            if c is None:
                return
            yield Partition(c)

    def starts():
        yield top
        for e in elements:
            if workload.tactical:
                for p in splits(e.row_part.coloring):
                    yield PartitionPair(p, e.col_part)
                for p in splits(e.col_part.coloring):
                    yield PartitionPair(e.row_part, p)
            else:
                yield from splits(e.coloring)

    with tracer.span("refine.replay", elements=len(elements), stride=stride):
        for start in starts():
            t0 = clock()
            refine(family, start)
            hist.add(clock() - t0)
            if calls % stride == 0:
                chained += 1
                chain_len += len(chain(family, start))
            calls += 1
        tracer.add("partition.iter_cover_colorings", busy_s=gen_ns / 1e9, splits=calls - 1)
        tracer.add(
            "refine.cir", busy_s=hist.total_ns / 1e9, calls=calls, histogram=hist.to_json_dict()
        )
        tracer.add("refine.cir_chain", calls=chained, mean_length=chain_len / chained)
    return {
        "hist": hist,
        "calls": calls,
        "splits": calls - 1,
        "split_gen_s": gen_ns / 1e9,
        "passes_per_call": chain_len / chained,
        "stride": stride,
    }


def traced_run(workload, seed: int, seconds: float, recorded_digest):
    """Per-layer metrics from a run with spans around every public call.

    The time split (``refine.busy_s`` ... ``lattice.search_self_s``) is taken
    against a sequential computation.  A pooled workload therefore also runs
    one traced computation with ``workers=1``, which gives the pool speed-up
    as a by-product; it is reported for that workload only.
    """
    tracer = Tracer()
    with tracer.span("run", workload=workload.name, seed=seed):
        for rep in range(SETUP_REPS):
            _, sl, matrices, family = set_up(workload, seed, partial(tracer.span, rep=rep))
        attempts = Attempts(sl, workload, matrices, family, recorded_digest)
        main = workload.workers
        untraced, traced = [], []
        lattices = {}

        def traced_attempt(rep: int, workers: int) -> float:
            with tracer.span("lattice.rep", rep=rep, workers=workers) as record:
                _, lattice = attempts.run(workers, partial(tracer.span, rep=rep, workers=workers))
            if lattice is not None:
                lattices[workers] = lattice
            return Tracer.duration(record)

        def pair() -> float:
            # the same computation without and with spans: trace.overhead_ratio
            plain, _ = attempts.run(main)
            untraced.append(plain)
            traced.append(traced_attempt(len(traced), main))
            return plain + traced[-1]

        repeat(seconds, pair)
        lattice_s = statistics.median(traced)
        sequential_s = lattice_s if main == 1 else traced_attempt(len(traced), 1)
        sequential = lattices.get(1)
        if sequential is None:
            return attempts, {}, {"error": "no sequential lattice to trace"}, tracer
        with tracer.span("lattice.hasse_edges") as record:
            sl.hasse_edges(sequential.elements)
        hasse_s = Tracer.duration(record)
        layers = replay(sl, workload, family, sequential.elements, tracer)

    stats = sequential.stats
    hist = layers["hist"]
    busy_s = hist.total_ns / 1e9
    output_s = statistics.median(tracer.durations("lattice.to_json_dict", workers=1))
    metrics = {
        "networks.build_s": (statistics.median(tracer.durations("networks.build")), "s"),
        "refine.engine_s": (statistics.median(tracer.durations("refine.engine")), "s"),
        "refine.cir_calls": (stats.cir_calls, "count"),
        "refine.cir_us_p50": (hist.quantile_ns(0.5) / 1e3, "us"),
        "refine.cir_us_p99": (hist.quantile_ns(0.99) / 1e3, "us"),
        "refine.passes_per_call": (layers["passes_per_call"], "passes"),
        "refine.busy_s": (busy_s, "s"),
        "partition.splits": (layers["splits"], "count"),
        "partition.split_gen_s": (layers["split_gen_s"], "s"),
        "lattice.hasse_s": (hasse_s, "s"),
        "lattice.output_s": (output_s, "s"),
        "lattice.search_self_s": (
            sequential_s - busy_s - layers["split_gen_s"] - hasse_s - output_s,
            "s",
        ),
        "lattice.elements": (len(sequential), "count"),
        "lattice.cover_edges": (len(sequential.cover_edges), "count"),
        "lattice.popped": (stats.popped, "count"),
        "lattice.visited_partitions": (stats.visited_partitions, "count"),
        "lattice.dedup_ratio": (len(sequential) / stats.cir_calls, "ratio"),
        "trace.overhead_ratio": (lattice_s / statistics.median(untraced), "ratio"),
    }
    notes = {
        "lattice_s_traced": lattice_s,
        "sequential_s_traced": sequential_s,
        "hasse_share": hasse_s / lattice_s,
        "overhead_pairs": len(traced),
        "replayed_calls": layers["calls"],
        "chain_stride": layers["stride"],
    }
    if main != 1:
        notes["pool"] = {
            "lattice.workers1_s": (sequential_s, "s"),
            f"lattice.workers{main}_s": (lattice_s, "s"),
            "lattice.pool_speedup": (sequential_s / lattice_s, "ratio"),
        }
    if layers["calls"] != stats.cir_calls:
        print(
            f"note: replayed {layers['calls']} calls, the search reports {stats.cir_calls}",
            file=sys.stderr,
        )
    return attempts, metrics, notes, tracer


def commit_id() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run from an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_check() -> str | None:
    """Put this checkout's ``src/`` first on ``sys.path`` and import synclat
    from it; returns why that failed, or None."""
    if not (SRC / "synclat" / "__init__.py").is_file():
        return f"no synclat sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import synclat

    where = Path(synclat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        return f"imported synclat from {where}, not from {SRC}"
    return None


def run_one(args) -> int:
    problem = import_check()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    full, smoke = WORKLOADS[args.workload]
    workload = smoke if args.smoke else full
    recorded = None
    if not args.smoke:
        recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    run = traced_run if args.trace else timed_run
    attempts, metrics, notes, tracer = run(workload, args.seed, args.seconds, recorded)
    bad = [k for k, (v, _) in metrics.items() if not isinstance(v, (int, float)) or v != v]
    if bad or not metrics:
        print(f"error: metrics without a numeric value: {bad or 'all'}", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    for name, (value, unit) in notes.get("pool", {}).items():
        print(f"{name:28s} {value:>14.6g} {unit} (pooled workload only)")
    error_rate = attempts.failed / attempts.attempted
    print(f"{'error_rate':28s} {error_rate:>14.6g} ({attempts.failed}/{attempts.attempted} failed)")
    record = {
        "workload": args.workload,
        "smoke": args.smoke,
        "seed": args.seed,
        "workers": workload.workers,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": attempts.digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        **notes,
    }
    print("env " + json.dumps(record, sort_keys=True))
    if tracer is not None:
        print("spans " + json.dumps(tracer.spans, separators=(",", ":")))
    print(json.dumps(result(attempts.attempted, attempts.failed, metrics)))
    return 0


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def load_digests() -> dict:
    """Digests recorded at the seed commit, keyed by workload then seed."""
    with open(BENCH_DIR / "digests.json") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("spans "):
                print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print()
    print(f"{'workload':10s} {'metric':28s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:28s} {m['value']:>14.6g} {m['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"{name:10s} {'error_rate':28s} {rate:>14.6g} ({res['failed']}/{res['attempted']})")
    metrics = {
        f"{name}.{metric}": (m["value"], m["unit"])
        for name, res in results.items()
        for metric, m in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps(result(attempted, failed, metrics)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
