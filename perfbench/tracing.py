"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps public functions of each ``repro`` layer.  A module-level
function is replaced in every ``repro`` module that holds it (callers
that did ``from ... import name`` see the wrapper too); a method is
replaced on its class.  While the tracer is enabled, each wrapped call
records one span: its layer, its parent span, its thread, its start
and end, and its *self time*, the duration minus the time of the spans
nested in it.  Python's cyclic garbage collector is traced through
``gc.callbacks``: every collection becomes a ``gc`` span nested in the
span running in that thread, so GC pauses come out of the self time of
the layer whose allocations triggered them.

Disabled, a wrapper costs one attribute test per call, so a traced run
installs the wrappers before its set-up (bus subscribers are bound when
a session is built) and toggles ``enabled`` around the ops it traces.
Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import gc
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Nested spans per thread, plus counters, kept in memory."""

    def __init__(self) -> None:
        self.enabled = False
        #: Finished spans as (id, parent id or 0, layer, thread, start,
        #: end, self seconds), in the order they finished.
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._gc_started: Optional[float] = None
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, function: Callable, args, kwargs):
        """Run ``function(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0]  # span id, seconds in child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._finish(frame, parent, layer, start, end)

    def _finish(self, frame, parent, layer, start, end) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (
                frame[0],
                parent[0] if parent is not None else 0,
                layer,
                threading.get_ident(),
                start,
                end,
                duration - frame[1],
            )
        )
        self.counts[f"{layer}.calls"] += 1

    def _on_gc(self, phase: str, info: dict) -> None:
        # A collection runs in one thread with every other thread
        # stopped, so one start time is enough.
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        started, self._gc_started = self._gc_started, None
        if not self.enabled or started is None:
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0]
        self._finish(frame, parent, "gc", started, time.perf_counter())
        if info.get("generation") == 2:
            self.counts["gc.full_collections"] += 1

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        layer: str,
        function: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``function``, recording a span per call while enabled.

        ``observe(counts, args, result)`` adds layer counters from the
        arguments and the result of each traced call.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            result = tracer.call(layer, function, args, kwargs)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def counted(self, key: str, function: Callable) -> Callable:
        """``function``, counting its calls (no span) while enabled."""
        tracer = self

        @functools.wraps(function)
        def counting(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return function(*args, **kwargs)

        return counting

    def patch_method(self, owner: type, name: str, wrapper_of) -> None:
        """Replace the plain method ``owner.name`` by ``wrapper_of(it)``."""
        original = inspect.getattr_static(owner, name)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner.__name__}.{name} is not a plain method")
        setattr(owner, name, wrapper_of(original))
        self._patches.append((owner, name, original))

    def patch_function(self, function: Callable, wrapper_of) -> None:
        """Replace ``function`` in every ``repro`` module that holds it."""
        wrapper = wrapper_of(function)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, function))

    def uninstall(self) -> None:
        """Restore every patched attribute and drop the GC callback."""
        self.enabled = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reporting -------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer over every recorded span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span[2]] = totals.get(span[2], 0.0) + span[6]
        return totals

    def total_seconds(self, layer: str) -> float:
        """Total duration (not self time) of the spans of ``layer``."""
        return sum(span[5] - span[4] for span in self.spans if span[2] == layer)

    def top_level_seconds(self) -> float:
        """Total duration of the spans that have no parent span."""
        return sum(span[5] - span[4] for span in self.spans if span[1] == 0)

    def write(self, path: str, summary: dict) -> None:
        """Write the spans, the counters and ``summary`` as one JSON file."""
        names = ("id", "parent", "layer", "thread", "start", "end", "self")
        with open(path, "w") as handle:
            json.dump(
                {
                    "summary": summary,
                    "counts": dict(self.counts),
                    "spans": [dict(zip(names, span)) for span in self.spans],
                },
                handle,
            )
            handle.write("\n")


# -- what the benchmark instruments ------------------------------------------


def _xml_bytes(counts, args, result) -> None:
    """xformats: the XML text a call produced or consumed."""
    text = result if isinstance(result, str) else args[0]
    if isinstance(text, str):
        counts["xformats.bytes"] += len(text)


def _rows_out(counts, args, result) -> None:
    counts["engine.rows_out"] += sum(node.output_rows for node in result.nodes)


def _refold_steps(counts, args, result) -> None:
    """evolution: fold steps re-run, from the first affected checkpoint."""
    if result.refolded_from is not None:
        session = args[0]
        counts["evolution.refold_steps"] += (
            len(session.integration.order()) - result.refolded_from
        )


def _scan_columns_counter(tracer: Tracer):
    """Counts ``Database.scan_columns`` calls and pivots.

    Seen from outside, a pivot (a scan-cache miss) is a call that
    returns another columnar view than the last call for that table.
    """
    last: Dict[tuple, object] = {}

    def wrapper_of(scan_columns):
        @functools.wraps(scan_columns)
        def counting(database, table_name):
            view = scan_columns(database, table_name)
            key = (id(database), table_name)
            if tracer.enabled:
                tracer.counts["engine.scan_calls"] += 1
                if last.get(key) is not view:
                    tracer.counts["engine.pivots"] += 1
            last[key] = view
            return view

        return counting

    return wrapper_of


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every measured ``repro`` layer.

    Call before any session is built: ``ArtifactBus.subscribe`` is
    wrapped so that each service handler runs in a ``services`` span.
    """
    import repro  # noqa: F401  (loads every module that holds a codec)
    from repro.core.deployer.deployer import Deployer
    from repro.core.integrator import EtlIntegrator, MDIntegrator
    from repro.core.interpreter import Interpreter
    from repro.core.services.bus import ArtifactBus
    from repro.core.services.deployment import DeploymentService
    from repro.core.services.session import DesignSession
    from repro.engine.database import Database
    from repro.engine.executor import Executor
    from repro.repository.documents import Collection
    from repro.repository.metadata import MetadataRepository
    from repro.serve.server import _Handler
    from repro.xformats import xlm, xmd, xmljson, xrq

    def spans(layer, observe=None):
        return lambda function: tracer.wrap(layer, function, observe)

    for codec in (xmd, xlm, xrq):
        tracer.patch_function(codec.dumps, spans("xformats", _xml_bytes))
        tracer.patch_function(codec.loads, spans("xformats", _xml_bytes))
    tracer.patch_function(xmljson.xml_to_json, spans("xformats", _xml_bytes))
    tracer.patch_function(xmljson.json_to_xml, spans("xformats", _xml_bytes))

    for name in (
        "save_requirement",
        "save_partial_design",
        "save_unified_design",
        "save_checkpoint",
        "save_session_state",
        "record_deployment",
        "append_bus_event",
        "delete_requirement",
        "truncate_checkpoints",
        "delete_bus_events_after",
    ):
        tracer.patch_method(MetadataRepository, name, spans("repository"))
    for name in ("insert", "replace", "delete", "delete_many"):
        tracer.patch_method(
            Collection,
            name,
            lambda function: tracer.counted("repository.documents", function),
        )

    tracer.patch_method(ArtifactBus, "publish", spans("bus"))

    def subscribe_wrapper(subscribe):
        @functools.wraps(subscribe)
        def subscribing(bus, topic, handler):
            return subscribe(bus, topic, tracer.wrap("services", handler))

        return subscribing

    tracer.patch_method(ArtifactBus, "subscribe", subscribe_wrapper)
    for name in (
        "add_requirement",
        "change_requirement",
        "remove_requirement",
        "deploy",
    ):
        tracer.patch_method(DesignSession, name, spans("session"))
    tracer.patch_method(
        DesignSession, "rename_concept", spans("evolution", _refold_steps)
    )

    tracer.patch_method(MDIntegrator, "integrate", spans("integrator.md"))
    tracer.patch_method(EtlIntegrator, "consolidate", spans("integrator.etl"))
    tracer.patch_method(Interpreter, "interpret", spans("interpreter"))
    tracer.patch_method(DeploymentService, "lint", spans("lint"))
    tracer.patch_method(Deployer, "deploy", spans("deployer"))
    tracer.patch_method(Executor, "execute", spans("engine.execute", _rows_out))
    tracer.patch_method(Database, "scan_columns", _scan_columns_counter(tracer))
    tracer.patch_method(_Handler, "_handle", spans("serve"))
    gc.callbacks.append(tracer._on_gc)
