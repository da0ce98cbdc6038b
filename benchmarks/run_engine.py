"""Engine-core benchmark runner: legacy interpreter vs compiled columnar.

Runs the TPC-H executor workloads (the S1 revenue flow and the S2
integrated/partial flows built from ``benchmarks/_workloads.py``) at
several scale factors in BOTH executor modes, plus the A1-equivalence
micro-workload, and writes ``BENCH_engine.json`` with both timings as
the median and quartiles of the rounds; for ``s2_integrated`` it adds
each node kind's milliseconds, read from the executor's ``NodeStats``.
An ingest section times the database's write path: ``load_source`` of
every TPC-H source and a ``lineitem`` reload, in rows/s as median and
IQR over the rounds.

The runner is also the equivalence gate for the compiled columnar
engine: after every workload it compares the loaded warehouse tables of
the two modes as **ordered rows with types visible**
(:func:`repro.fuzz.oracle.loaded_rows`, so ``1``, ``1.0`` and
``True`` differ) and exits non-zero on any disagreement — a benchmark
number is only reported for results that are known identical.  Timings
are recorded, never gated.

Usage::

    python -m benchmarks.run_engine [--output BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

try:
    import repro  # noqa: F401  (needs PYTHONPATH=src or an install)
except ModuleNotFoundError:  # running from a source checkout
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
    )

from repro.engine import Database, Executor, TableDef
from repro.expressions import ScalarType
from repro.fuzz.oracle import MODES, loaded_rows
from repro.sources import tpch

from benchmarks.bench_a1_equivalence import (
    consolidate_pairwise,
    reordered_pair,
)
from benchmarks.bench_s2_integration_etl import build_flows
from benchmarks.conftest import make_database

SCALE_FACTORS = (0.25, 0.5, 1.0, 2.0)
ROUNDS = 7


def spread(values):
    """Median and quartiles of the rounds' values."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def time_flows(database, flows, mode):
    """Wall-clock of executing ``flows`` in ``mode``, once per round.

    Returns (each round's seconds, each round's seconds per node kind,
    snapshot of every loaded table, merged over the flows).  The flows'
    loaders run in replace mode, so repeated rounds are idempotent; one
    warmup round removes one-time costs (parse/compile caches) from the
    measurement.
    """
    executor = Executor(database, mode=mode)
    for flow in flows:  # warmup
        executor.execute(flow)
    seconds, by_kind = [], []
    for __ in range(ROUNDS):
        started = time.perf_counter()
        runs = [executor.execute(flow) for flow in flows]
        seconds.append(time.perf_counter() - started)
        kinds = defaultdict(float)
        for run in runs:
            for node in run.nodes:
                kinds[node.kind] += node.seconds
        by_kind.append(kinds)
    snapshot = {}
    for flow in flows:
        snapshot.update(loaded_rows(database, flow))
    return seconds, by_kind, snapshot


def node_ms(by_kind):
    """Each node kind's median milliseconds over the rounds, largest first."""
    kinds = {kind for kinds in by_kind for kind in kinds}
    medians = {
        kind: 1000 * statistics.median(
            kinds.get(kind, 0.0) for kinds in by_kind
        )
        for kind in kinds
    }
    return dict(sorted(medians.items(), key=lambda item: -item[1]))


def compare_snapshots(name, snapshots, mismatches):
    baseline, candidate = snapshots["legacy"], snapshots["columnar"]
    for table in sorted(set(baseline) | set(candidate)):
        if baseline.get(table) != candidate.get(table):
            mismatches.append(f"{name}: table {table!r} differs across modes")


def run_tpch_workloads(mismatches):
    unified, partials = build_flows(6)
    workloads = {
        "s1_revenue": [partials[0]],
        "s2_integrated": [unified],
        "s2_partials": partials,
    }
    results = {}
    for scale_factor in SCALE_FACTORS:
        database = make_database(scale_factor)
        per_workload = {}
        for name, flows in workloads.items():
            timings, kinds, snapshots = {}, {}, {}
            for mode in MODES:
                seconds, kinds[mode], snapshots[mode] = time_flows(
                    database, flows, mode
                )
                timings[mode] = spread([second * 1000 for second in seconds])
            compare_snapshots(f"SF {scale_factor} {name}", snapshots, mismatches)
            legacy, columnar = timings["legacy"], timings["columnar"]
            per_workload[name] = {
                "legacy_ms": legacy,
                "columnar_ms": columnar,
                "speedup": legacy["median"] / columnar["median"],
                "results_identical": not any(
                    m.startswith(f"SF {scale_factor} {name}")
                    for m in mismatches
                ),
            }
            if name == "s2_integrated":
                per_workload[name]["node_ms"] = {
                    mode: node_ms(kinds[mode]) for mode in MODES
                }
            print(
                f"  SF {scale_factor:<5} {name:<14} "
                f"legacy {legacy['median']:8.1f}ms "
                f"[{legacy['q1']:.1f}-{legacy['q3']:.1f}]  "
                f"columnar {columnar['median']:8.1f}ms "
                f"[{columnar['q1']:.1f}-{columnar['q3']:.1f}]  "
                f"speedup {per_workload[name]['speedup']:.2f}x"
            )
        results[str(scale_factor)] = per_workload
    return results


def rows_per_second(rows, seconds):
    """Median and quartiles of ``rows / s`` over the rounds' seconds."""
    return spread([rows / elapsed for elapsed in seconds])


def check_loaded(label, database, data, mismatches):
    """Gate: every table holds its generated rows, in generated order."""
    for table, rows in data.items():
        if database.scan(table).rows != rows:
            mismatches.append(f"{label}: table {table!r} differs from the data")


def run_ingest(mismatches):
    """Rows/s of the database's validated write path.

    ``load_source`` of every TPC-H source at each scale factor, into a
    new database per round, and a ``lineitem`` reload (``truncate``
    plus ``insert_many``) at the largest scale factor.
    """
    schema = tpch.schema()
    load_source = {}
    for scale_factor in SCALE_FACTORS:
        data = tpch.generate(scale_factor)
        rows = sum(len(table_rows) for table_rows in data.values())
        seconds = []
        for __ in range(ROUNDS):
            database = Database()
            started = time.perf_counter()
            database.load_source(schema, data)
            seconds.append(time.perf_counter() - started)
        check_loaded(f"ingest SF {scale_factor}", database, data, mismatches)
        load_source[str(scale_factor)] = {
            "rows": rows,
            "rows_per_s": rows_per_second(rows, seconds),
        }
        print(
            f"  SF {scale_factor:<5} load_source   {rows:7d} rows  "
            f"{load_source[str(scale_factor)]['rows_per_s']['median']:10.0f} rows/s"
        )

    largest = max(SCALE_FACTORS)
    data = tpch.generate(largest)
    database = Database()
    database.load_source(schema, data)
    lineitem = data["lineitem"]
    seconds = []
    for __ in range(ROUNDS):
        started = time.perf_counter()
        database.truncate("lineitem")
        database.insert_many("lineitem", lineitem)
        seconds.append(time.perf_counter() - started)
    check_loaded("ingest lineitem reload", database, data, mismatches)
    reload = {
        "scale_factor": largest,
        "rows": len(lineitem),
        "rows_per_s": rows_per_second(len(lineitem), seconds),
    }
    print(
        f"  SF {largest:<5} lineitem reload {len(lineitem):5d} rows  "
        f"{reload['rows_per_s']['median']:10.0f} rows/s"
    )
    return {
        "timing": "rows/s, median and quartiles over rounds",
        "rounds": ROUNDS,
        "load_source": load_source,
        "lineitem_reload": reload,
        "results_identical": not any(
            m.startswith("ingest") for m in mismatches
        ),
    }


def host_facts():
    """Cores, Python version and the checked-out git commit (``-dirty``
    when the working tree has uncommitted changes)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git": commit,
    }


def a1_database():
    database = Database()
    database.create_table(
        TableDef(
            "t",
            {
                "a": ScalarType.STRING,
                "b": ScalarType.STRING,
                "c": ScalarType.STRING,
            },
        )
    )
    database.insert_many(
        "t",
        [
            {"a": "x", "b": "y", "c": "1"},
            {"a": "x", "b": "z", "c": "2"},
            {"a": "q", "b": "y", "c": "3"},
        ],
    )
    return database


def run_a1_equivalence(mismatches):
    """The A1 workload: reordered-then-consolidated flows must load the
    same tables under both executor modes."""
    flows = reordered_pair()
    unified, __ = consolidate_pairwise(flows, align=True)
    snapshots = {}
    for mode in MODES:
        database = a1_database()
        Executor(database, mode=mode).execute(unified)
        snapshots[mode] = loaded_rows(database, unified)
    compare_snapshots("A1", snapshots, mismatches)
    identical = not any(m.startswith("A1") for m in mismatches)
    print(f"  A1 equivalence workload: {'identical' if identical else 'MISMATCH'}")
    return {"tables": list(snapshots["legacy"]), "results_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_engine.json",
        help="where to write the JSON report (default: BENCH_engine.json)",
    )
    options = parser.parse_args(argv)
    try:
        # Fail before the measurements, not after two minutes of them.
        open(options.output, "a").close()
    except OSError as exc:
        print(f"cannot write {options.output}: {exc}", file=sys.stderr)
        return 2

    mismatches: list = []
    print("engine-core benchmark: legacy interpreter vs compiled columnar")
    by_scale_factor = run_tpch_workloads(mismatches)
    a1 = run_a1_equivalence(mismatches)
    print("ingest benchmark: the database's validated write path")
    ingest = run_ingest(mismatches)

    largest = str(max(SCALE_FACTORS))
    report = {
        "host": host_facts(),
        "benchmark": "engine-core: legacy row interpreter vs compiled columnar",
        "modes": list(MODES),
        "rounds": ROUNDS,
        "timing": (
            "ms, median and quartiles over rounds, after one warmup "
            "execution; node_ms: each node kind's median ms"
        ),
        "scale_factors": by_scale_factor,
        "a1_equivalence": a1,
        "ingest": ingest,
        "largest_scale_factor": largest,
        "speedup_at_largest_scale_factor": {
            name: by_scale_factor[largest][name]["speedup"]
            for name in by_scale_factor[largest]
        },
        "all_results_identical": not mismatches,
    }
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {options.output}")

    for mismatch in mismatches:
        print(f"MISMATCH: {mismatch}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
