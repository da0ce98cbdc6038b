"""Greedy minimisation of failing trials: one loop, one candidate order per kind.

Not a full delta-debugger: :func:`shrink` is a budgeted greedy loop
that checks a kind's candidates in order, accepts the first one that
still fails with the *same category* (the text before the first colon
of the oracle's description), so reduction cannot morph one bug into
another, and then starts over from it.  It stops when a pass accepts
nothing or the budget is spent.  The candidate generators
(:func:`flow_candidates`, :func:`query_candidates`,
:func:`script_candidates`) yield strictly smaller variants, most
aggressive first, each built with :func:`dataclasses.replace` so it
keeps its trial type.  The result is what lands in the regression
corpus.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional

Check = Callable[[object], Optional[str]]
Candidates = Callable[[object], Iterator[object]]


def _category(detail: str) -> str:
    return detail.split(":", 1)[0]


def shrink(
    trial,
    check: Check,
    candidates: Candidates,
    budget: int = 250,
):
    """A smaller trial failing with the same category (best effort).

    Calls ``check`` at most ``1 + budget`` times: once on ``trial``,
    then once per candidate tried.
    """
    detail = check(trial)
    if detail is None:
        return trial
    category = _category(detail)
    accepted = True
    while accepted and budget > 0:
        accepted = False
        for candidate in candidates(trial):
            if budget == 0:
                break
            budget -= 1
            result = check(candidate)
            if result is not None and _category(result) == category:
                trial, accepted = candidate, True
                break
    return trial


# -- flow and lint trials ------------------------------------------------------


def _prune_dead(flow) -> None:
    """Drop non-loader nodes that lost all their consumers."""
    changed = True
    while changed:
        changed = False
        for name in flow.node_names():
            if flow.node(name).kind == "Loader":
                continue
            if not flow.outputs(name):
                flow.remove_node(name)
                changed = True
                break


def _without_node(trial, name: str):
    """The trial minus one node, its dead branch and the tables no
    datastore reads any more; ``None`` when that flow is invalid."""
    flow = trial.flow.copy()
    try:
        flow.remove_node(name)
        _prune_dead(flow)
    except Exception:
        return None
    if not any(node.kind == "Loader" for node in flow.nodes()):
        return None
    if flow.validate():
        return None
    used = {node.table for node in flow.nodes() if node.kind == "Datastore"}
    tables = [table for table in trial.tables if table.name in used]
    return replace(trial, tables=tables, flow=flow)


def _row_cuts(rows: List[dict]) -> Iterator[List[dict]]:
    """No rows, each half, then every single row removed."""
    half = len(rows) // 2
    if half:
        yield from ([], rows[:half], rows[half:])
    for index in range(len(rows)):
        yield rows[:index] + rows[index + 1:]


def flow_candidates(trial) -> Iterator[object]:
    """Each non-Datastore node dropped, then each table's rows cut."""
    for name in list(trial.flow.node_names()):
        if trial.flow.node(name).kind == "Datastore":
            continue
        candidate = _without_node(trial, name)
        if candidate is not None:
            yield candidate
    for position, table in enumerate(trial.tables):
        for rows in _row_cuts(table.rows):
            tables = list(trial.tables)
            tables[position] = replace(table, rows=rows)
            yield replace(trial, tables=tables)


# -- query trials --------------------------------------------------------------


def _query_candidates(query) -> List[object]:
    """Strictly-simpler variants of a query, most aggressive first."""
    if query is None:
        return []
    candidates: List[object] = [None]
    if not isinstance(query, dict):
        return candidates
    for key in list(query):
        if len(query) > 1:
            trimmed = dict(query)
            del trimmed[key]
            candidates.append(trimmed)
        condition = query[key]
        if key in ("$and", "$or"):
            candidates.extend(condition)
        elif key == "$not":
            candidates.append(condition)
        elif isinstance(condition, dict) and len(condition) > 1:
            for op in condition:
                slimmer = dict(condition)
                del slimmer[op]
                candidates.append({**query, key: slimmer})
        elif isinstance(condition, dict):
            for op, expected in condition.items():
                if isinstance(expected, list) and len(expected) > 1:
                    for index in range(len(expected)):
                        candidates.append(
                            {
                                **query,
                                key: {
                                    op: expected[:index]
                                    + expected[index + 1:]
                                },
                            }
                        )
    return candidates


def query_candidates(trial) -> Iterator[object]:
    """Documents, limit, sort key, decoys, session, then query."""
    documents = trial.documents
    for index in range(len(documents)):
        yield replace(
            trial, documents=documents[:index] + documents[index + 1:]
        )
    if trial.limit is not None:
        yield replace(trial, limit=None)
    if trial.sort_key is not None:
        yield replace(trial, sort_key=None)
    for dropped in sorted(trial.decoys):
        yield replace(
            trial,
            decoys={
                session: documents
                for session, documents in trial.decoys.items()
                if session != dropped
            },
        )
    if trial.session:
        yield replace(trial, session="")
    for simpler in _query_candidates(trial.query):
        yield replace(trial, query=simpler)


# -- evolve trials -------------------------------------------------------------


def script_candidates(trial) -> Iterator[object]:
    """The script minus one chunk, chunks halving from ``len // 2`` to 1.

    Ops are only ever *removed*, so every candidate's script is a
    non-empty subsequence of the original, replayable with the same
    policies.
    """
    script = trial.script
    chunk = len(script) // 2
    while chunk >= 1:
        for start in range(0, len(script), chunk):
            rest = script[:start] + script[start + chunk:]
            if rest:
                yield replace(trial, script=rest)
        chunk //= 2
