"""The regression corpus: failing trials, frozen as JSON.

Every shrunk failure the fuzzer finds can be serialised to a small JSON
document and committed under ``tests/fuzz/corpus/``; the tier-1 smoke
test replays every entry on each run, so a fixed bug stays fixed.

Four entry kinds:

* ``"flow"`` — source tables (schema + rows) and the flow as xLM text;
  replay runs the full differential flow check.
* ``"lint"`` — same payload as ``"flow"``; replay runs the
  static/dynamic agreement check (linter versus engine) instead.
* ``"query"`` — documents, query, sort key and limit; replay runs the
  document-store check against the naive reference.
* ``"evolve"`` — SCD policy assignment plus a design script (adds,
  removals and evolution operators) over the TPC-H domain; replay
  checks incremental evolution against replay, rebuild and both
  engine modes.

Dates are tagged ``{"$date": "YYYY-MM-DD"}`` since JSON has no date
type; everything else the generators produce is JSON-native.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro.expressions.types import ScalarType
from repro.fuzz.datagen import TableSpec
from repro.fuzz.evolveoracle import EvolveTrial, check_evolve_trial
from repro.fuzz.flowgen import FlowTrial
from repro.fuzz.lintoracle import LintTrial, check_lint_trial
from repro.fuzz.oracle import check_flow_trial, check_query_trial
from repro.fuzz.querygen import QueryTrial
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


def flow_entry(trial: FlowTrial, description: str = "") -> dict:
    return {
        "kind": "flow",
        "description": description,
        "seed": trial.seed,
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


def query_entry(trial: QueryTrial, description: str = "") -> dict:
    return {
        "kind": "query",
        "description": description,
        "seed": trial.seed,
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


def lint_entry(trial, description: str = "") -> dict:
    entry = flow_entry(trial, description)
    entry["kind"] = "lint"
    return entry


def evolve_entry(trial: EvolveTrial, description: str = "") -> dict:
    return {
        "kind": "evolve",
        "description": description,
        "seed": trial.seed,
        "policies": dict(trial.policies),
        "script": [dict(op) for op in trial.script],
    }


def encode_trial(trial, description: str = "") -> dict:
    # Subclasses of FlowTrial must be tested before the base class.
    if isinstance(trial, LintTrial):
        return lint_entry(trial, description)
    if isinstance(trial, FlowTrial):
        return flow_entry(trial, description)
    if isinstance(trial, EvolveTrial):
        return evolve_entry(trial, description)
    return query_entry(trial, description)


def _decode_tables(entry: dict) -> List[TableSpec]:
    return [
        TableSpec(
            name=table["name"],
            schema={
                column: ScalarType[type_name]
                for column, type_name in table["schema"].items()
            },
            rows=[decode_value(row) for row in table["rows"]],
        )
        for table in entry["tables"]
    ]


def decode_entry(entry: dict):
    """An entry dict back into the trial object it froze."""
    if entry["kind"] in ("flow", "lint"):
        trial_class = LintTrial if entry["kind"] == "lint" else FlowTrial
        return trial_class(
            tables=_decode_tables(entry),
            flow=xlm.loads(entry["xlm"]),
            seed=entry.get("seed"),
        )
    if entry["kind"] == "evolve":
        return EvolveTrial(
            policies=dict(entry.get("policies", {})),
            script=[dict(op) for op in entry["script"]],
            seed=entry.get("seed"),
        )
    if entry["kind"] == "query":
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
    raise ValueError(f"unknown corpus entry kind {entry.get('kind')!r}")


def replay(entry: dict) -> Optional[str]:
    """Re-run an entry's differential check; ``None`` means it passes."""
    trial = decode_entry(entry)
    if isinstance(trial, LintTrial):
        return check_lint_trial(trial)
    if isinstance(trial, FlowTrial):
        return check_flow_trial(trial)
    if isinstance(trial, EvolveTrial):
        return check_evolve_trial(trial)
    return check_query_trial(trial)


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
