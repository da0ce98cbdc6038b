"""Quarry's end-to-end benchmark over the paper's design path.

Usage, from the repository root::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Runs one workload of :mod:`workloads` in this process as a closed loop.
Set-up is timed ``SETUP_REPEATS`` times from scratch (``setup_s`` is
the median; timing starts after the imports); one untimed warm-up op per
client and a ``gc.collect()`` follow; then the workload's fixed number
of ops runs, cut short only if ``--seconds`` run out first.  Runs are
sized in ops, not seconds, because every op grows the bus log and the
repository: a faster commit running more ops would otherwise carry a
bigger heap into every garbage collection.

Every op passes the workload's correctness gate, checked after the op
and outside its timing; a mismatch or an exception is a failed op and
fails the run (exit 1).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions (:mod:`tracing`), alternates untraced and
traced blocks of ops and reports per-layer metrics per traced op, the
span reconciliation and the tracing overhead; the spans are written to
``perfbench/traces/<workload>-seed<seed>.json``.

The host facts (cores, Python, git commit) and the seed are printed
with every result.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up runs this many times from scratch; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A traced run alternates this many untraced and traced blocks of ops.
TRACE_BLOCKS = 6


def bootstrap() -> None:
    """Put the repository's ``src`` on the import path, or exit."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no Quarry sources under {source}")
    if source not in sys.path:
        sys.path.insert(0, source)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(f" {ref}"):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Samples:
    """Outcomes of the ops of one kind of block (traced or untraced)."""

    def __init__(self) -> None:
        self.latencies = []  # seconds per successful op
        self.failures = []  # one message per failed op
        self.seconds = 0.0  # wall time of the blocks, gates excluded

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def set_up(workload):
    """Time fresh set-ups, prepare the gate, run the warm-up ops.

    Returns the median set-up seconds and the warm-up failures.
    """
    timings, states = [], []
    for __ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        timings.append(time.perf_counter() - started)
        if len(states) == 2:  # keep the first (reference) and the newest
            workload.discard(states.pop())
        states.append(state)
    workload.prepare(states[0], states[-1])
    failures = []
    for client in range(workload.clients):
        problem = workload.op(client) or workload.verify(client)
        if problem is not None:
            failures.append(f"warm-up: {problem}")
    gc.collect()
    return statistics.median(timings), failures


def _drive(workload, client, ops, deadline, tracer):
    """One client's closed loop: ``ops`` ops, or fewer at ``deadline``."""
    latencies, failures, gate_seconds = [], [], 0.0
    pause = tracer is not None and workload.clients == 1
    for __ in range(ops):
        if time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        try:
            problem = workload.op(client)
        except Exception as exc:  # a failed op is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        if problem is None:
            traced = pause and tracer.enabled
            if traced:
                tracer.enabled = False
            try:
                problem = workload.verify(client)
            except Exception as exc:  # the gate itself broke: a failure
                problem = f"gate {type(exc).__name__}: {exc}"
            if traced:
                tracer.enabled = True
        gate_seconds += time.perf_counter() - finished
        if problem is None:
            latencies.append(finished - started)
        else:
            failures.append(problem)
    return latencies, failures, gate_seconds


def run_block(
    workload, ops, deadline, samples, tracer=None, traced=False
) -> None:
    """Run ``ops`` ops over all clients; add the outcomes to ``samples``."""
    if tracer is not None:
        tracer.enabled = traced
    started = time.perf_counter()
    per_client = max(ops // workload.clients, 1)
    if workload.clients == 1:
        outcomes = [_drive(workload, 0, per_client, deadline, tracer)]
    else:
        outcomes = [None] * workload.clients

        def client_loop(client):
            outcomes[client] = _drive(
                workload, client, per_client, deadline, tracer
            )

        threads = [
            threading.Thread(
                target=client_loop, args=(client,), name=f"client-{client}"
            )
            for client in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.enabled = False
    gate = 0.0
    for outcome in outcomes:
        if outcome is None:
            samples.failures.append("client thread died")
            continue
        latencies, failures, gate_seconds = outcome
        samples.latencies.extend(latencies)
        samples.failures.extend(failures)
        gate = max(gate, gate_seconds)
    samples.seconds += wall - gate


def measure(workload, seconds, tracer=None):
    """The timed loop; returns (untraced, traced) samples.

    Without a tracer every op is untraced.  With one, untraced and
    traced blocks alternate, so both see the same heap growth.
    """
    untraced, traced = Samples(), Samples()
    deadline = time.perf_counter() + seconds
    if tracer is None:
        run_block(workload, workload.ops, deadline, untraced)
    else:
        for block in range(TRACE_BLOCKS):
            run_block(
                workload,
                workload.ops // TRACE_BLOCKS,
                deadline,
                traced if block % 2 else untraced,
                tracer,
                traced=bool(block % 2),
            )
    return untraced, traced


def end_to_end_metrics(setup_seconds, samples) -> dict:
    latencies = sorted(seconds * 1000.0 for seconds in samples.latencies)
    if not latencies:
        latencies = [0.0]
    p90 = (
        statistics.quantiles(latencies, n=10)[8]
        if len(latencies) > 1
        else latencies[0]
    )
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(samples.latencies) / samples.seconds, "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
        "setup_s": (setup_seconds, "s"),
    }


#: Layers whose self time is reported per op in the trace table.
LAYERS = (
    "session", "services", "evolution", "bus", "repository", "xformats",
    "interpreter", "integrator.md", "integrator.etl", "lint", "deployer",
    "engine.load", "engine.execute", "serve", "gc",
)


def per_layer_metrics(tracer, untraced, traced):
    """Per traced op: layer counts, self times and shares of op time.

    Returns ``(metrics, table)``: the metrics reported in the result
    line, and every layer's calls and self milliseconds per op.
    """
    ops = max(len(traced.latencies), 1)
    op_seconds = sum(traced.latencies) or 1.0
    self_seconds = tracer.self_seconds()
    counts = tracer.counts

    def per_op(key):
        return counts.get(key, 0) / ops

    def share(*layers):
        busy = sum(self_seconds.get(layer, 0.0) for layer in layers)
        return 100.0 * busy / op_seconds

    handled = tracer.total_seconds("serve")
    untraced_rate = len(untraced.latencies) / (untraced.seconds or 1.0)
    traced_rate = len(traced.latencies) / (traced.seconds or 1.0)
    metrics = {
        "gc.pause_ms": (1000.0 * self_seconds.get("gc", 0.0) / ops, "ms"),
        "gc.full_collections": (per_op("gc.full_collections"), "count"),
        "gc.share": (share("gc"), "%"),
        "xformats.calls": (per_op("xformats.calls"), "count"),
        "xformats.bytes": (per_op("xformats.bytes"), "bytes"),
        "xformats.share": (share("xformats"), "%"),
        "repository.writes": (per_op("repository.calls"), "count"),
        "repository.documents": (per_op("repository.documents"), "count"),
        "repository.ms": (
            1000.0 * self_seconds.get("repository", 0.0) / ops, "ms"
        ),
        "repository.share": (share("repository"), "%"),
        "bus.publishes": (per_op("bus.calls"), "count"),
        "bus.ms": (1000.0 * self_seconds.get("bus", 0.0) / ops, "ms"),
        "bus.share": (share("bus"), "%"),
        "services.share": (share("services", "session"), "%"),
        "evolution.refold_steps": (per_op("evolution.refold_steps"), "count"),
        "evolution.share": (share("evolution"), "%"),
        "integrator.md_calls": (per_op("integrator.md.calls"), "count"),
        "integrator.etl_calls": (per_op("integrator.etl.calls"), "count"),
        "integrator.share": (share("integrator.md", "integrator.etl"), "%"),
        "interpreter.calls": (per_op("interpreter.calls"), "count"),
        "interpreter.share": (share("interpreter"), "%"),
        "lint.calls": (per_op("lint.calls"), "count"),
        "lint.share": (share("lint"), "%"),
        "deployer.share": (share("deployer"), "%"),
        "engine.rows_loaded": (per_op("engine.rows_loaded"), "count"),
        "engine.rows_out": (per_op("engine.rows_out"), "count"),
        "engine.scan_calls": (per_op("engine.scan_calls"), "count"),
        "engine.pivots": (per_op("engine.pivots"), "count"),
        "engine.share": (share("engine.load", "engine.execute"), "%"),
        "serve.requests": (per_op("serve.calls"), "count"),
        "serve.handler_share": (100.0 * handled / op_seconds, "%"),
        "serve.transport_share": (
            100.0 * (op_seconds - handled) / op_seconds if handled else 0.0,
            "%",
        ),
        "trace.reconciled": (
            100.0 * tracer.top_level_seconds() / op_seconds, "%"
        ),
        "trace.overhead": (
            100.0 * (untraced_rate - traced_rate) / (untraced_rate or 1.0),
            "%",
        ),
    }
    table = {
        layer: {
            "calls_per_op": per_op(f"{layer}.calls"),
            "self_ms_per_op": 1000.0 * self_seconds.get(layer, 0.0) / ops,
            "share": share(layer),
        }
        for layer in LAYERS
        if layer in self_seconds
    }
    if handled:
        table["serve.transport_wait"] = {
            "calls_per_op": per_op("serve.calls"),
            "self_ms_per_op": 1000.0 * (op_seconds - handled) / ops,
            "share": 100.0 * (op_seconds - handled) / op_seconds,
        }
    return metrics, table


def main(argv=None) -> int:
    bootstrap()
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for quick checks"
    )
    options = parser.parse_args(argv)

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git": git_commit(),
        "seed": options.seed,
    }
    print(
        f"perfbench {options.workload}: "
        + " ".join(f"{key}={value}" for key, value in host.items())
    )
    tracer = None
    if options.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    workload = workloads.WORKLOADS[options.workload](
        options.seed, tiny=options.tiny, tracer=tracer
    )
    try:
        setup_seconds, warm_up_failures = set_up(workload)
        untraced, traced = measure(workload, options.seconds, tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()

    failures = warm_up_failures + untraced.failures + traced.failures
    attempted = (
        workload.clients + untraced.attempted + traced.attempted
    )
    for failure in failures[:10]:
        print(f"MISMATCH: {failure}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end_metrics(setup_seconds, untraced)
        samples = untraced
    else:
        metrics, table = per_layer_metrics(tracer, untraced, traced)
        samples = traced
        print(f"  {'layer':<22} {'calls/op':>10} {'self ms/op':>11} {'share':>7}")
        for layer, row in table.items():
            print(
                f"  {layer:<22} {row['calls_per_op']:>10.2f} "
                f"{row['self_ms_per_op']:>11.3f} {row['share']:>6.1f}%"
            )
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write(
            os.path.join(
                HERE, "traces", f"{options.workload}-seed{options.seed}.json"
            ),
            {
                "workload": options.workload,
                "host": host,
                "traced_ops": len(traced.latencies),
                "untraced_ops": len(untraced.latencies),
                "layers": table,
                "metrics": {name: value for name, (value, __) in metrics.items()},
            },
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:14.4f} {unit}")
    print(
        f"  {'error_rate':<24} {len(failures) / attempted:14.4f} ratio "
        f"({len(failures)} of {attempted} ops; "
        f"{len(samples.latencies)} timed ops)"
    )
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
