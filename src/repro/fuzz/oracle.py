"""The differential oracle: what makes a trial pass or fail.

The harness every kind shares: :func:`run_mode` executes one flow in
one of :data:`MODES` and returns the :func:`outcome` of
:func:`loaded_rows`, every loader target's :func:`canonical_rows`.

A flow trial passes when

* ``Executor(mode="columnar")`` and ``Executor(mode="legacy")`` load
  the same rows *in the same order* into every target table — or raise
  the same error (``TypeName: message``), and
* the flow survives an xLM round-trip: ``dumps(loads(dumps(flow)))``
  is byte-identical and the reloaded flow re-executes to the same
  outcome.

A query trial passes when ``Collection.find``/``count`` agree with the
naive reference over the same documents.

Row canonicalisation is ``repr``-based rather than value-based on
purpose: ``0 == False == 0.0`` in Python, so a value-level comparison
would silently excuse an engine that turns ``False`` into ``0``; the
``repr`` keeps the type visible.  It also tolerates unhashable values,
which :class:`repro.fuzz.datagen.LooseDatabase` lets through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.executor import Executor
from repro.fuzz.datagen import LooseDatabase
from repro.fuzz.flowgen import FlowTrial
from repro.fuzz.querygen import (
    QueryTrial,
    reference_count,
    reference_find,
)
from repro.xformats import xlm

Outcome = Tuple[str, object]

#: The executor modes every kind compares, the reference first.
MODES = ("legacy", "columnar")


def outcome(compute) -> Outcome:
    """``("ok", compute())``, or ``("error", "TypeName: message")``."""
    try:
        return ("ok", compute())
    except Exception as exc:  # error parity is part of the contract
        return ("error", f"{type(exc).__name__}: {exc}")


def canonical_rows(rows) -> List[str]:
    """An order-sensitive, type-strict fingerprint of rows or documents.

    Both engine modes promise fully deterministic row order (stable
    NULLs-first sorts, insertion-ordered groups, first-occurrence
    distinct), and ``find()`` promises collection (or sort) order, so
    the oracle compares ordered lists, not multisets — an order bug is
    a real divergence.
    """
    return [repr(sorted(row.items())) for row in rows]


def loaded_rows(database, flow) -> Dict[str, List[str]]:
    """``{target: canonical rows}`` for every loader target of ``flow``."""
    targets = sorted(
        {node.table for node in flow.nodes() if node.kind == "Loader"}
    )
    return {
        target: canonical_rows(database.scan(target).rows)
        for target in targets
    }


def run_mode(mode: str, database, flow) -> Outcome:
    """Execute ``flow`` on ``database`` in one executor mode.

    Returns ``("ok", loaded_rows(database, flow))`` or ``("error",
    "TypeName: message")`` — both modes must produce the *same*
    outcome, errors included.
    """

    def loaded():
        Executor(database, mode=mode).execute(flow)
        return loaded_rows(database, flow)

    return outcome(loaded)


def execute_flow(mode: str, trial: FlowTrial, flow=None) -> Outcome:
    """Run the trial's flow (or a substitute) on a fresh database."""
    return run_mode(
        mode,
        LooseDatabase.from_specs(trial.tables),
        flow if flow is not None else trial.flow,
    )


def _describe_outcomes(label: str, left: Outcome, right: Outcome) -> str:
    left_kind, left_value = left
    right_kind, right_value = right
    if left_kind != right_kind or left_kind == "error":
        return (
            f"{label}: legacy -> {left_kind} ({left_value!r}), "
            f"columnar -> {right_kind} ({right_value!r})"
        )
    for target in sorted(left_value):
        if left_value[target] != right_value.get(target):
            return (
                f"{label}: table {target!r}: legacy "
                f"{left_value[target][:3]!r} ({len(left_value[target])} rows) "
                f"vs columnar {right_value.get(target, [])[:3]!r} "
                f"({len(right_value.get(target, []))} rows)"
            )
    return f"{label}: outcomes differ"


def check_flow_trial(trial: FlowTrial) -> Optional[str]:
    """``None`` when the trial passes, else a categorised description.

    The category is the text before the first colon; the shrinker uses
    it to keep a reduced trial failing *for the same reason*.
    """
    legacy, columnar = (execute_flow(mode, trial) for mode in MODES)
    if legacy != columnar:
        return _describe_outcomes("mode-divergence", legacy, columnar)

    text = xlm.dumps(trial.flow)
    try:
        reloaded = xlm.loads(text)
        text_again = xlm.dumps(reloaded)
    except Exception as exc:
        return f"roundtrip: xLM reload failed: {type(exc).__name__}: {exc}"
    if text_again != text:
        return "roundtrip: dumps(loads(dumps(flow))) is not byte-identical"
    replayed = execute_flow("columnar", trial, flow=reloaded)
    if replayed != columnar:
        return _describe_outcomes("roundtrip", columnar, replayed)
    return None


def check_query_trial(trial: QueryTrial) -> Optional[str]:
    """Differential check of the document store against the reference.

    The trial runs in its session's namespaced collection of a shared
    :class:`~repro.repository.documents.DocumentStore`; decoy documents
    are written into *other* sessions' collections first and checked
    untouched afterwards — session isolation is part of the contract.
    """
    from repro.repository import DocumentStore
    from repro.repository.metadata import namespaced

    store = DocumentStore()
    for session, documents in sorted(trial.decoys.items()):
        decoy_collection = store.collection(namespaced("fuzz", session))
        for document in documents:
            decoy_collection.replace(document)
    collection = store.collection(namespaced("fuzz", trial.session))
    for document in trial.documents:
        collection.replace(document)

    actual = outcome(
        lambda: canonical_rows(
            collection.find(trial.query, trial.sort_key, trial.limit)
        )
    )
    expected = outcome(
        lambda: canonical_rows(
            reference_find(
                trial.documents, trial.query, trial.sort_key, trial.limit
            )
        )
    )
    if actual != expected:
        return (
            f"query-divergence: find() -> {actual!r}, reference -> "
            f"{expected!r} (query={trial.query!r}, "
            f"sort_key={trial.sort_key!r}, limit={trial.limit!r})"
        )

    actual_count = outcome(lambda: collection.count(trial.query))
    expected_count = outcome(
        lambda: reference_count(trial.documents, trial.query)
    )
    if actual_count != expected_count:
        return (
            f"query-divergence: count() -> {actual_count!r}, reference -> "
            f"{expected_count!r} (query={trial.query!r})"
        )

    for session, documents in sorted(trial.decoys.items()):
        observed = outcome(
            lambda s=session: canonical_rows(
                store.collection(namespaced("fuzz", s)).find()
            )
        )
        untouched = outcome(
            lambda d=documents: canonical_rows(reference_find(d))
        )
        if observed != untouched:
            return (
                f"session-leakage: session {session!r} collection -> "
                f"{observed!r}, expected {untouched!r} "
                f"(trial session {trial.session!r})"
            )
    return None
