"""The kind table and the regression corpus: failing trials, frozen as JSON.

:data:`KINDS` maps every trial kind to how it is built, checked,
shrunk and (de)serialised; the runner, :func:`encode_trial`,
:func:`decode_entry` and :func:`replay` all read it.

Every shrunk failure the fuzzer finds can be serialised to a small JSON
document and committed under ``tests/fuzz/corpus/``; the tier-1 smoke
test replays every entry on each run, so a fixed bug stays fixed.

Four entry kinds, in per-seed order:

* ``"flow"`` — source tables (schema + rows) and the flow as xLM text;
  replay runs the full differential flow check.
* ``"query"`` — documents, query, sort key and limit (plus indexes,
  session and decoys, which older entries may lack); replay runs the
  document-store check against the naive reference.
* ``"lint"`` — same payload as ``"flow"``; replay runs the
  static/dynamic agreement check (linter versus engine) instead.
* ``"evolve"`` — SCD policy assignment plus a design script (adds,
  removals and evolution operators) over the TPC-H domain; replay
  checks incremental evolution against replay, rebuild and both
  engine modes.

Every entry also carries its ``kind``, a ``description`` and the
``seed`` it came from.  Dates are tagged ``{"$date": "YYYY-MM-DD"}``
since JSON has no date type; everything else the generators produce is
JSON-native.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.expressions.types import ScalarType
from repro.fuzz.datagen import TableSpec
from repro.fuzz.evolveoracle import (
    EvolveTrial,
    build_evolve_trial,
    check_evolve_trial,
)
from repro.fuzz.flowgen import FlowTrial, build_flow_trial
from repro.fuzz.lintoracle import build_lint_trial, check_lint_trial
from repro.fuzz.oracle import check_flow_trial, check_query_trial
from repro.fuzz.querygen import QueryTrial, build_query_trial
from repro.fuzz.shrink import (
    flow_candidates,
    query_candidates,
    script_candidates,
)
from repro.xformats import xlm


def encode_value(value):
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    return value


def decode_value(value):
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return datetime.date.fromisoformat(value["$date"])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# -- per-kind payloads ---------------------------------------------------------


def _encode_flow(trial: FlowTrial) -> dict:
    return {
        "tables": [
            {
                "name": table.name,
                "schema": {
                    column: scalar_type.name
                    for column, scalar_type in table.schema.items()
                },
                "rows": [
                    {
                        column: encode_value(row[column])
                        for column in table.schema
                    }
                    for row in table.rows
                ],
            }
            for table in trial.tables
        ],
        "xlm": xlm.dumps(trial.flow),
    }


def _decode_flow(entry: dict) -> FlowTrial:
    return FlowTrial(
        tables=[
            TableSpec(
                name=table["name"],
                schema={
                    column: ScalarType[type_name]
                    for column, type_name in table["schema"].items()
                },
                rows=[decode_value(row) for row in table["rows"]],
            )
            for table in entry["tables"]
        ],
        flow=xlm.loads(entry["xlm"]),
        seed=entry.get("seed"),
    )


def _encode_query(trial: QueryTrial) -> dict:
    return {
        "documents": [
            encode_value(document) for document in trial.documents
        ],
        "query": encode_value(trial.query),
        "sort_key": trial.sort_key,
        "limit": trial.limit,
        "indexes": list(trial.indexes),
        "session": trial.session,
        "decoys": {
            session: [encode_value(document) for document in documents]
            for session, documents in trial.decoys.items()
        },
    }


def _decode_query(entry: dict) -> QueryTrial:
    return QueryTrial(
        documents=[
            decode_value(document) for document in entry["documents"]
        ],
        query=decode_value(entry["query"]),
        sort_key=entry.get("sort_key"),
        limit=entry.get("limit"),
        indexes=list(entry.get("indexes", [])),
        session=entry.get("session", ""),
        decoys={
            session: [decode_value(document) for document in documents]
            for session, documents in entry.get("decoys", {}).items()
        },
        seed=entry.get("seed"),
    )


def _encode_evolve(trial: EvolveTrial) -> dict:
    return {
        "policies": dict(trial.policies),
        "script": [dict(op) for op in trial.script],
    }


def _decode_evolve(entry: dict) -> EvolveTrial:
    return EvolveTrial(
        policies=dict(entry.get("policies", {})),
        script=[dict(op) for op in entry["script"]],
        seed=entry.get("seed"),
    )


# -- the kind table ------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """Everything the harness needs to know about one trial kind."""

    #: seed -> trial, deterministic.
    build: Callable[[int], object]
    #: trial -> ``None`` when it passes, else ``"category: detail"``.
    check: Callable[[object], Optional[str]]
    #: trial -> strictly smaller variants, most aggressive first.
    candidates: Callable[[object], Iterator[object]]
    #: trial -> the entry's kind-specific JSON fields.
    encode: Callable[[object], dict]
    #: entry -> trial.
    decode: Callable[[dict], object]


KINDS: Dict[str, Kind] = {
    "flow": Kind(
        build_flow_trial,
        check_flow_trial,
        flow_candidates,
        _encode_flow,
        _decode_flow,
    ),
    "query": Kind(
        build_query_trial,
        check_query_trial,
        query_candidates,
        _encode_query,
        _decode_query,
    ),
    "lint": Kind(
        build_lint_trial,
        check_lint_trial,
        flow_candidates,
        _encode_flow,
        _decode_flow,
    ),
    "evolve": Kind(
        build_evolve_trial,
        check_evolve_trial,
        script_candidates,
        _encode_evolve,
        _decode_evolve,
    ),
}


def _kind(name) -> Kind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown corpus entry kind {name!r}") from None


def encode_trial(kind: str, trial, description: str = "") -> dict:
    """A trial of the named kind as a corpus entry dict."""
    return {
        "kind": kind,
        "description": description,
        "seed": trial.seed,
        **_kind(kind).encode(trial),
    }


def decode_entry(entry: dict):
    """An entry dict back into the trial object it froze."""
    return _kind(entry.get("kind")).decode(entry)


def replay(entry: dict) -> Optional[str]:
    """Re-run an entry's check; ``None`` means it passes."""
    kind = _kind(entry.get("kind"))
    return kind.check(kind.decode(entry))


def load_corpus(directory) -> List[Tuple[Path, dict]]:
    """All ``*.json`` entries in a corpus directory, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    entries = []
    for path in sorted(root.glob("*.json")):
        entries.append((path, json.loads(path.read_text())))
    return entries


def save_entry(path, entry: dict) -> None:
    Path(path).write_text(json.dumps(entry, indent=2, sort_keys=False) + "\n")
