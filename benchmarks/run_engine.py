"""Engine-core benchmark runner: legacy interpreter vs compiled columnar.

Runs the TPC-H executor workloads (the S1 revenue flow and the S2
integrated/partial flows built from ``benchmarks/_workloads.py``) at
several scale factors in BOTH executor modes, plus the A1-equivalence
micro-workload, and writes ``BENCH_engine.json`` with both timings.
It also compares unplanned columnar execution against the cost-based
``planned`` mode on join-order-sensitive flows (selection pushdown,
join reordering, build-side choice), gated on quantised row-multiset
equivalence, and serial columnar execution against the chunk-partitioned
``parallel`` mode on a scan-heavy revenue workload — sweeping worker
counts over the thread pool — gated on **exact** row-multiset
equivalence (the parallel engine promises byte-identical results, so no
quantisation is tolerated).

The runner is also the equivalence gate for the compiled columnar
engine: after every workload it compares the loaded warehouse tables of
the two modes **row-set-wise** (as multisets of rows, order ignored)
and exits non-zero on any disagreement — a benchmark number is only
reported for results that are known identical.  A missed parallel
speedup gate is reported apart from result mismatches
(``parallel_comparison.speedup_gate_misses``) and also exits non-zero.

Usage::

    python -m benchmarks.run_engine [--output BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

try:
    import repro  # noqa: F401  (needs PYTHONPATH=src or an install)
except ModuleNotFoundError:  # running from a source checkout
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
    )

from repro.engine import Database, Executor, TableDef
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Datastore,
    DerivedAttribute,
    Join,
    Loader,
    Selection,
)
from repro.expressions import ScalarType
from repro.fuzz.planoracle import quantized_multiset

from benchmarks.bench_a1_equivalence import (
    consolidate_pairwise,
    reordered_pair,
)
from benchmarks.bench_s2_integration_etl import build_flows
from benchmarks.conftest import make_database

SCALE_FACTORS = (0.25, 0.5, 1.0, 2.0)
ROUNDS = 5
MODES = ("legacy", "columnar")

#: Scale factor of the planner scenarios — larger than the mode-parity
#: sweep so join-order effects dominate fixed per-execution overheads.
PLANNER_SCALE_FACTOR = 4.0

#: The parallel scenario runs at the same large scale, sweeping worker
#: counts over the thread pool; the ≥2x speedup gate is enforced per
#: configuration only when the machine has at least that many cores (a
#: 1-CPU box cannot speed anything up, and a waived gate is recorded in
#: the report rather than silently passed).
PARALLEL_SCALE_FACTOR = 4.0
PARALLEL_WORKER_SWEEP = (2, 4)
PARALLEL_SPEEDUP_TARGET = 2.0


def loaded_tables(flow):
    return sorted(
        {node.table for node in flow.nodes() if node.kind == "Loader"}
    )


def row_multiset(database, tables):
    """{table: multiset of rows} — order-insensitive, duplicate-exact."""
    return {
        table: Counter(
            tuple(sorted(row.items())) for row in database.scan(table).rows
        )
        for table in tables
    }


def quantized_snapshot(database, tables):
    """{table: quantised multiset} — tolerant of accumulation-order
    float noise, which join reordering legitimately introduces."""
    return {
        table: quantized_multiset(database.scan(table).rows)
        for table in tables
    }


def time_flows(database, flows, mode, snapshot=row_multiset, **executor_options):
    """Best-of-rounds wall-clock of executing ``flows`` in ``mode``.

    Returns (seconds, snapshot of every loaded table).  The flows'
    loaders run in replace mode, so repeated rounds are idempotent; one
    warmup round removes one-time costs (parse/compile caches, columnar
    scan pivots, worker-pool spin-up) from the measurement.
    """
    tables = sorted({t for flow in flows for t in loaded_tables(flow)})
    with Executor(database, mode=mode, **executor_options) as executor:
        for flow in flows:  # warmup
            executor.execute(flow)
        best = float("inf")
        for __ in range(ROUNDS):
            started = time.perf_counter()
            for flow in flows:
                executor.execute(flow)
            best = min(best, time.perf_counter() - started)
    return best, snapshot(database, tables)


def compare_snapshots(name, snapshots, mismatches, modes=("legacy", "columnar")):
    baseline, candidate = snapshots[modes[0]], snapshots[modes[1]]
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
            timings, snapshots = {}, {}
            for mode in MODES:
                timings[mode], snapshots[mode] = time_flows(
                    database, flows, mode
                )
            compare_snapshots(f"SF {scale_factor} {name}", snapshots, mismatches)
            per_workload[name] = {
                "legacy_seconds": timings["legacy"],
                "columnar_seconds": timings["columnar"],
                "speedup": timings["legacy"] / timings["columnar"],
                "results_identical": not any(
                    m.startswith(f"SF {scale_factor} {name}")
                    for m in mismatches
                ),
            }
            print(
                f"  SF {scale_factor:<5} {name:<14} "
                f"legacy {timings['legacy'] * 1000:8.1f}ms  "
                f"columnar {timings['columnar'] * 1000:8.1f}ms  "
                f"speedup {per_workload[name]['speedup']:.2f}x"
            )
        results[str(scale_factor)] = per_workload
    return results


def planner_join_order_flow(nation_key):
    """A join-order-sensitive flow, written in its worst order.

    As authored, every lineitem row is joined against the (wide) part
    table before the selective supplier filter applies.  The planner
    pushes the ``s_nationkey`` selection below both joins and reorders
    the chain so the filtered supplier join runs first, shrinking the
    expensive wide join from the full lineitem table to the few rows
    that survive the filter.  All three source payloads reach the
    loader, so column pruning cannot erase the difference — the speedup
    is the join order.
    """
    flow = EtlFlow("planner_join_order")
    flow.add(Datastore("src_lineitem", table="lineitem"))
    flow.add(Datastore("src_part", table="part"))
    flow.add(Datastore("src_supplier", table="supplier"))
    flow.add(
        Join("j_part", left_keys=("l_partkey",), right_keys=("p_partkey",))
    )
    flow.add(
        Join("j_supp", left_keys=("l_suppkey",), right_keys=("s_suppkey",))
    )
    flow.add(
        Selection("only_nation", predicate=f"s_nationkey = {nation_key}")
    )
    flow.add(
        DerivedAttribute(
            "revenue",
            output="revenue",
            expression="l_extendedprice * (1 - l_discount)",
        )
    )
    flow.add(
        Loader("load_out", table="bench_planner_join_order", mode="replace")
    )
    flow.connect("src_lineitem", "j_part")
    flow.connect("src_part", "j_part")
    flow.connect("j_part", "j_supp")
    flow.connect("src_supplier", "j_supp")
    flow.connect("j_supp", "only_nation")
    flow.connect("only_nation", "revenue")
    flow.connect("revenue", "load_out")
    return flow


def planner_build_side_flow():
    """A join that hashes its huge input as authored: supplier is the
    probe side, lineitem the build side.  The planner flips the sides
    so the hash table is built over suppliers instead."""
    flow = EtlFlow("planner_build_side")
    flow.add(Datastore("src_supplier", table="supplier"))
    flow.add(Datastore("src_lineitem", table="lineitem"))
    flow.add(
        Join("j_supp", left_keys=("s_suppkey",), right_keys=("l_suppkey",))
    )
    flow.add(
        Loader("load_out", table="bench_planner_build_side", mode="replace")
    )
    flow.connect("src_supplier", "j_supp")
    flow.connect("src_lineitem", "j_supp")
    flow.connect("j_supp", "load_out")
    return flow


def run_planner_comparison(mismatches):
    """Unplanned columnar vs cost-based-planned on planner-sensitive
    flows, with quantised-multiset equivalence gating."""
    database = make_database(PLANNER_SCALE_FACTOR)
    nation_counts = Counter(
        row["s_nationkey"] for row in database.scan("supplier").rows
    )
    nation_key = nation_counts.most_common(1)[0][0]
    scenarios = {
        "join_order": planner_join_order_flow(nation_key),
        "build_side": planner_build_side_flow(),
    }
    results = {}
    for name, flow in scenarios.items():
        timings, snapshots = {}, {}
        for mode in ("columnar", "planned"):
            timings[mode], snapshots[mode] = time_flows(
                database, [flow], mode, snapshot=quantized_snapshot
            )
        compare_snapshots(
            f"planner {name}",
            snapshots,
            mismatches,
            modes=("columnar", "planned"),
        )
        executor = Executor(database, mode="planned")
        executor.execute(flow)
        results[name] = {
            "columnar_seconds": timings["columnar"],
            "planned_seconds": timings["planned"],
            "speedup": timings["columnar"] / timings["planned"],
            "results_identical": not any(
                m.startswith(f"planner {name}") for m in mismatches
            ),
            "decisions": list(executor.last_plan.decisions),
        }
        print(
            f"  SF {PLANNER_SCALE_FACTOR:<5} {name:<14} "
            f"unplanned {timings['columnar'] * 1000:8.1f}ms  "
            f"planned {timings['planned'] * 1000:8.1f}ms  "
            f"speedup {results[name]['speedup']:.2f}x"
        )
    return {
        "modes": ["columnar", "planned"],
        "scale_factor": PLANNER_SCALE_FACTOR,
        "scenarios": results,
        "join_order_speedup": results["join_order"]["speedup"],
    }


def parallel_revenue_flow():
    """The scan-heavy parallel scenario: a fused lineitem chain feeding
    a supplier join.

    Selection, derive and the join probe all partition over row chunks;
    the supplier-side hash build stays serial (it is tiny).  Everything
    downstream of the scan is per-row work, so this is the shape the
    partitioned engine is built for.
    """
    flow = EtlFlow("parallel_revenue")
    flow.add(Datastore("src_lineitem", table="lineitem"))
    flow.add(Datastore("src_supplier", table="supplier"))
    flow.add(Selection("bulk_only", predicate="l_quantity >= 10"))
    flow.add(
        DerivedAttribute(
            "revenue",
            output="revenue",
            expression="l_extendedprice * (1 - l_discount)",
        )
    )
    flow.add(
        Join("j_supp", left_keys=("l_suppkey",), right_keys=("s_suppkey",))
    )
    flow.add(
        Loader("load_out", table="bench_parallel_revenue", mode="replace")
    )
    flow.connect("src_lineitem", "bulk_only")
    flow.connect("bulk_only", "revenue")
    flow.connect("revenue", "j_supp")
    flow.connect("src_supplier", "j_supp")
    flow.connect("j_supp", "load_out")
    return flow


def run_parallel_comparison(mismatches):
    """Serial columnar vs chunk-partitioned parallel execution,
    sweeping worker counts over the thread pool.

    The equivalence gate is exact (unquantised) row multisets — the
    parallel engine's contract is byte-identical output; differences
    land in ``mismatches``.  The ≥2x speedup gate is enforced per
    configuration only when the host actually has as many cores as
    workers; a miss is reported under ``speedup_gate_misses``, never in
    ``mismatches``, because a slow configuration with identical results
    is not a result mismatch.  On smaller machines the honest numbers
    are still recorded, with the waiver spelled out in the report.
    """
    database = make_database(PARALLEL_SCALE_FACTOR)
    flow = parallel_revenue_flow()
    serial_seconds, serial_snapshot = time_flows(database, [flow], "columnar")
    cpu_count = os.cpu_count() or 1
    print(
        f"  SF {PARALLEL_SCALE_FACTOR:<5} {'revenue':<14} "
        f"serial {serial_seconds * 1000:8.1f}ms  ({cpu_count} core(s))"
    )
    gate_misses = []
    per_workers = {}
    for workers in PARALLEL_WORKER_SWEEP:
        label = f"parallel revenue [thread x{workers}]"
        seconds, snapshot = time_flows(
            database,
            [flow],
            "parallel",
            workers=workers,
            parallel_row_threshold=0,
        )
        compare_snapshots(
            label,
            {"columnar": serial_snapshot, "parallel": snapshot},
            mismatches,
            modes=("columnar", "parallel"),
        )
        speedup = serial_seconds / seconds
        gate_enforced = cpu_count >= workers
        entry = {
            "workers": workers,
            "parallel_seconds": seconds,
            "speedup": speedup,
            "results_identical": not any(
                m.startswith(label) for m in mismatches
            ),
            "speedup_gate_enforced": gate_enforced,
        }
        if not gate_enforced:
            entry["speedup_gate_waiver"] = (
                f"host has {cpu_count} core(s) for {workers} workers; "
                f"a worker pool cannot beat serial execution without "
                f"cores to run on, so the {PARALLEL_SPEEDUP_TARGET}x "
                f"gate is waived"
            )
        elif speedup < PARALLEL_SPEEDUP_TARGET:
            gate_misses.append(
                f"{label}: speedup {speedup:.2f}x is below the "
                f"{PARALLEL_SPEEDUP_TARGET}x target with {cpu_count} "
                f"cores for {workers} workers"
            )
        per_workers[str(workers)] = entry
        print(
            f"  SF {PARALLEL_SCALE_FACTOR:<5} "
            f"{'thread x' + str(workers):<14} "
            f"serial {serial_seconds * 1000:8.1f}ms  "
            f"parallel {seconds * 1000:8.1f}ms  "
            f"speedup {speedup:.2f}x"
            f"{'' if gate_enforced else '  (gate waived)'}"
        )
    return {
        "modes": ["columnar", "parallel"],
        "scale_factor": PARALLEL_SCALE_FACTOR,
        "cpu_count": cpu_count,
        "columnar_seconds": serial_seconds,
        "worker_sweep": list(PARALLEL_WORKER_SWEEP),
        "speedup_target": PARALLEL_SPEEDUP_TARGET,
        "pools": {"thread": per_workers},
        "results_identical": not any(
            m.startswith("parallel revenue") for m in mismatches
        ),
        "speedup_gate_misses": gate_misses,
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
    tables = loaded_tables(unified)
    snapshots = {}
    for mode in MODES:
        database = a1_database()
        Executor(database, mode=mode).execute(unified)
        snapshots[mode] = row_multiset(database, tables)
    compare_snapshots("A1", snapshots, mismatches)
    identical = not any(m.startswith("A1") for m in mismatches)
    print(f"  A1 equivalence workload: {'identical' if identical else 'MISMATCH'}")
    return {"tables": tables, "results_identical": identical}


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
    print("planner benchmark: unplanned columnar vs cost-based planned")
    planner = run_planner_comparison(mismatches)
    print("parallel benchmark: serial columnar vs chunk-partitioned")
    parallel = run_parallel_comparison(mismatches)
    a1 = run_a1_equivalence(mismatches)

    largest = str(max(SCALE_FACTORS))
    report = {
        "benchmark": "engine-core: legacy row interpreter vs compiled columnar",
        "modes": list(MODES),
        "rounds": ROUNDS,
        "timing": "best of rounds, after one warmup execution",
        "scale_factors": by_scale_factor,
        "planner_comparison": planner,
        "parallel_comparison": parallel,
        "a1_equivalence": a1,
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
    gate_misses = parallel["speedup_gate_misses"]
    for miss in gate_misses:
        print(f"GATE MISS: {miss}", file=sys.stderr)
    return 1 if mismatches or gate_misses else 0


if __name__ == "__main__":
    sys.exit(main())
