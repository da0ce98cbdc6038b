"""The slowly-changing-dimension merge kernel.

One pure function, :func:`scd_merge`, shared verbatim by the legacy
row-at-a-time interpreter and the columnar engine, so both execution
modes produce byte-identical dimension history — same row order, same
window values, same errors.

The merge follows pygrametl's ``SlowlyChangingDimension``:

* **type1** — a stored member whose descriptors changed is overwritten
  in place; unknown members are appended.  No history.
* **type2** — a changed member's current row is closed
  (``scd_valid_to`` = effective date, ``scd_is_current`` = False) and a
  new row opens with a bumped ``scd_version``; unknown members open at
  version 1.  Untouched members pass through unchanged.

Output row order is deterministic: stored rows in storage order (with
in-place updates/closures applied), then newly opened rows in incoming
order.  The effective date is an explicit operator property — never
wall clock — so repeated runs are reproducible.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Sequence, Tuple

from repro.errors import ExecutionError
from repro.engine.columnar import unhashable_key_error
from repro.etlmodel.ops import SCDType, SCDUpdate
from repro.mdmodel.model import (
    SCD2_IS_CURRENT,
    SCD2_VALID_FROM,
    SCD2_VALID_TO,
    SCD2_VERSION,
)


def effective_date_of(operation: SCDUpdate) -> datetime.date:
    """The operator's effective date as a date, or a clear error."""
    try:
        return datetime.date.fromisoformat(operation.effective_date)
    except ValueError:
        raise ExecutionError(
            f"scd update {operation.name!r}: effective date "
            f"{operation.effective_date!r} is not an ISO date"
        ) from None


def scd_merge(
    operation: SCDUpdate,
    schema: Dict[str, object],
    existing_rows: Sequence[dict],
    incoming_rows: Sequence[dict],
) -> List[dict]:
    """Merge incoming members into the stored dimension contents.

    ``schema`` is the operator's output schema (input attributes plus,
    for type2, the validity-window columns); every returned row carries
    exactly those keys in that order.  ``existing_rows`` must already
    conform to ``schema`` (callers pass ``[]`` when the stored table is
    missing or shaped differently — the downstream replace-mode loader
    rebuilds it).
    """
    keys = list(operation.business_keys)
    descriptors = [
        name
        for name in schema
        if name not in keys
        and name
        not in (SCD2_VERSION, SCD2_VALID_FROM, SCD2_VALID_TO, SCD2_IS_CURRENT)
    ]
    if operation.policy == SCDType.TYPE1:
        return _merge_type1(
            operation, schema, keys, descriptors, existing_rows, incoming_rows
        )
    return _merge_type2(
        operation, schema, keys, descriptors, existing_rows, incoming_rows
    )


def _business_key(operation, keys, row) -> Tuple:
    try:
        key = tuple(row[name] for name in keys)
        hash(key)
    except TypeError as exc:
        named = [(name, [row[name]]) for name in keys]
        raise unhashable_key_error("scd-update", named, exc) from exc
    return key


def _normalised(schema, row) -> dict:
    return {name: row.get(name) for name in schema}


def _merge_type1(
    operation, schema, keys, descriptors, existing_rows, incoming_rows
) -> List[dict]:
    merged = [_normalised(schema, row) for row in existing_rows]
    position: Dict[Tuple, int] = {}
    for index, row in enumerate(merged):
        position.setdefault(_business_key(operation, keys, row), index)
    for row in incoming_rows:
        key = _business_key(operation, keys, row)
        if key in position:
            stored = merged[position[key]]
            for name in descriptors:
                stored[name] = row.get(name)
        else:
            position[key] = len(merged)
            merged.append(_normalised(schema, row))
    return merged


def _merge_type2(
    operation, schema, keys, descriptors, existing_rows, incoming_rows
) -> List[dict]:
    effective = effective_date_of(operation)
    merged = [_normalised(schema, row) for row in existing_rows]
    # The open (current) row per business key; closed history rows are
    # never touched again.  Newly opened rows append after all stored
    # rows in incoming order, so the index stays valid for a later
    # incoming row that versions on top of one opened this run.
    current: Dict[Tuple, int] = {}
    for index, row in enumerate(merged):
        if row[SCD2_IS_CURRENT] is True:
            current[_business_key(operation, keys, row)] = index
    for row in incoming_rows:
        key = _business_key(operation, keys, row)
        index = current.get(key)
        stored = merged[index] if index is not None else None
        if stored is not None and all(
            stored[name] == row.get(name) for name in descriptors
        ):
            continue  # unchanged member: keep the open row as is
        version = 1
        if stored is not None:
            stored[SCD2_VALID_TO] = effective
            stored[SCD2_IS_CURRENT] = False
            version = stored[SCD2_VERSION] + 1
        fresh = _normalised(schema, row)
        fresh[SCD2_VERSION] = version
        fresh[SCD2_VALID_FROM] = effective
        fresh[SCD2_VALID_TO] = None
        fresh[SCD2_IS_CURRENT] = True
        merged.append(fresh)
        current[key] = len(merged) - 1
    return merged
