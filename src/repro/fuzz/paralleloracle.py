"""The parallel-equivalence oracle: chunked versus serial execution.

``Executor(mode="parallel")`` promises results *byte-identical* to the
serial columnar engine — chunk merges preserve row order, NULL
placement, group first-seen order and exact float bits (aggregates fold
the serial value sequences, never partial per-chunk sums).  That makes
this oracle strictly stronger than the planner one: it compares
**ordered canonical rows** per target, not quantised multisets — a
chunk merged out of order is a real bug even when the multiset matches.

Error parity is exact too (``TypeName: message``): the parallel engine
collects chunk results in chunk order so the earliest chunk's failure —
the one holding the globally-first failing row — surfaces, and
unhashable-key reporting scans full columns, so messages are
chunk-layout-independent.  Trials therefore mirror the plain flow kind
in full: division *and* unhashable injection stay enabled.

The executor runs with ``workers=3`` and ``parallel_row_threshold=2``
so even the fuzzer's tiny tables actually chunk — the default
threshold would silently test the serial path.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.engine.executor import Executor
from repro.fuzz.datagen import LooseDatabase, inject_unhashable, make_tables
from repro.fuzz.flowgen import FlowTrial, build_flow
from repro.fuzz.oracle import canonical_rows

Outcome = Tuple[str, object]

#: Forced-chunking executor settings (see module docstring).
PARALLEL_WORKERS = 3
PARALLEL_ROW_THRESHOLD = 2


class ParallelTrial(FlowTrial):
    """A flow trial checked for parallel/serial byte-identity."""


def execute_parallel_trial(mode: str, trial: FlowTrial) -> Outcome:
    """Run the trial on a fresh database; ordered canonical outcome."""
    database = LooseDatabase.from_specs(trial.tables)
    executor = Executor(
        database,
        mode=mode,
        workers=PARALLEL_WORKERS,
        parallel_row_threshold=PARALLEL_ROW_THRESHOLD,
    )
    try:
        with executor:
            executor.execute(trial.flow)
    except Exception as exc:  # error parity is part of the contract
        return ("error", f"{type(exc).__name__}: {exc}")
    targets = sorted(
        {node.table for node in trial.flow.nodes() if node.kind == "Loader"}
    )
    return (
        "ok",
        {
            target: canonical_rows(database.scan(target).rows)
            for target in targets
        },
    )


def check_parallel_trial(trial: FlowTrial) -> Optional[str]:
    """``None`` when serial and parallel agree byte-for-byte.

    The category (text before the first colon) is
    ``parallel-divergence`` so the shrinker preserves the failure class
    while minimising.
    """
    serial = execute_parallel_trial("columnar", trial)
    parallel = execute_parallel_trial("parallel", trial)
    if serial == parallel:
        return None
    serial_kind, serial_value = serial
    parallel_kind, parallel_value = parallel
    if serial_kind != parallel_kind or serial_kind == "error":
        return (
            f"parallel-divergence: columnar -> {serial_kind} "
            f"({serial_value!r}), parallel -> {parallel_kind} "
            f"({parallel_value!r})"
        )
    for target in sorted(serial_value):
        before: List[str] = serial_value[target]
        after: List[str] = parallel_value.get(target, [])
        if before != after:
            divergence = next(
                (
                    index
                    for index, pair in enumerate(zip(before, after))
                    if pair[0] != pair[1]
                ),
                min(len(before), len(after)),
            )
            return (
                f"parallel-divergence: table {target!r}: columnar "
                f"{len(before)} row(s) vs parallel "
                f"{len(after)}, first difference at row {divergence}: "
                f"{before[divergence:divergence + 1]!r} vs "
                f"{after[divergence:divergence + 1]!r}"
            )
    return "parallel-divergence: outcomes differ"


def build_parallel_trial(seed: int) -> ParallelTrial:
    """The deterministic parallel trial for a seed.

    Same recipe as :func:`repro.fuzz.flowgen.build_flow_trial` —
    unhashable injection and division included — on an independent RNG
    stream.
    """
    rng = random.Random(f"parallel:{seed}")
    tables = make_tables(rng)
    notes = []
    if rng.random() < 0.12 and inject_unhashable(rng, tables):
        notes.append("unhashable value injected")
    flow = build_flow(rng, tables)
    return ParallelTrial(tables=tables, flow=flow, seed=seed, notes=notes)


def shrink_parallel_trial(trial: FlowTrial, budget: int = 250) -> FlowTrial:
    from repro.fuzz.shrink import shrink_flow_trial

    return shrink_flow_trial(trial, check=check_parallel_trial, budget=budget)
