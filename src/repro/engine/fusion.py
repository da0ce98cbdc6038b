"""Fused unary chains of the columnar engine.

Every fusion decision lives here:

* :func:`fusion_plan` finds the maximal chains of
  Selection/Projection/Extraction/DerivedAttribute/Rename nodes where
  each link is the sole consumer of its predecessor;
* :func:`build_chain_spec` describes one chain against its input schema
  as a :class:`ChainSpec` — a frozen, hashable description (expression
  *texts* plus resolved slot indices) compacted to the chain's read-set;
* :func:`compile_chain_spec` compiles a spec into a :class:`ChainProgram`,
  memoised, so a chain compiles once however often it runs, and the
  program runs the whole chain in a single pass over the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.engine.columnar import ColumnarRelation
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    DerivedAttribute,
    Extraction,
    Projection,
    Rename,
    Selection,
)
from repro.expressions.compiler import compile_expression
from repro.expressions.types import ScalarType

#: Operation kinds a fused single-pass chain may contain.
_FUSABLE_KINDS = frozenset(
    {"Selection", "Projection", "Extraction", "DerivedAttribute", "Rename"}
)


def fusion_plan(
    flow: EtlFlow,
    order: List[str],
    inputs_of: Dict[str, List[str]],
) -> Tuple[Dict[str, List[str]], frozenset]:
    """Find maximal fusable unary chains.

    A chain is a run of Selection/Projection/Extraction/
    DerivedAttribute/Rename nodes where each link is the sole
    consumer of its predecessor.  Returns ``{head: [chain...]}``
    plus the set of non-head members to skip in the main loop.
    """
    chains: Dict[str, List[str]] = {}
    absorbed: set = set()
    for name in order:
        if name in absorbed or name in chains:
            continue
        if flow.node(name).kind not in _FUSABLE_KINDS:
            continue
        chain = [name]
        current = name
        while True:
            successors = flow.outputs(current)
            if len(successors) != 1:
                break
            successor = successors[0]
            if flow.node(successor).kind not in _FUSABLE_KINDS:
                break
            if inputs_of[successor] != [current]:
                break
            chain.append(successor)
            current = successor
        if len(chain) >= 2:
            chains[name] = chain
            absorbed.update(chain[1:])
    return chains, frozenset(absorbed)


@dataclass(frozen=True)
class ChainSpec:
    """A hashable description of one fused unary chain.

    ``steps`` hold expression *source text* plus resolved slot indices
    — never compiled closures — so a spec keys the compile cache of
    :func:`compile_chain_spec`.  ``input_names`` is the chain's
    **read-set**: the input columns the steps and the output actually
    touch, not the whole input schema (the fused pass zips only these).
    """

    input_names: Tuple[str, ...]
    #: ("filter", text, argument_positions, counter) or
    #: ("derive", text, argument_positions, output_slot)
    steps: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    output_schema: Tuple[Tuple[str, ScalarType], ...]
    output_positions: Tuple[int, ...]
    filter_count: int


def build_chain_spec(
    flow: EtlFlow, chain: List[str], input_relation: ColumnarRelation
) -> Optional[ChainSpec]:
    """Describe a fused chain against the input schema as a
    :class:`ChainSpec`.

    Returns ``None`` when the chain cannot be fused faithfully (missing
    attributes, schema errors, parse errors …) — the caller then runs
    the chain stage by stage, which reproduces the engine's exact error
    behaviour.

    The spec's ``input_names`` are compacted to the chain's *read-set*:
    input columns no step reads and the output does not keep are
    dropped from the slot space entirely, so the fused pass never
    touches them.
    """
    from repro.etlmodel.propagation import _derive_schema

    input_names = list(input_relation.schema)
    schema: Dict[str, ScalarType] = dict(input_relation.schema)
    positions: Dict[str, int] = {
        name: index for index, name in enumerate(input_names)
    }
    next_slot = len(input_names)
    steps: List[tuple] = []
    filter_count = 0
    for name in chain:
        operation = flow.node(name)
        if isinstance(operation, Selection):
            compiled = compile_expression(operation.predicate)
            if any(a not in positions for a in compiled.attributes):
                return None
            argument_positions = tuple(
                positions[a] for a in compiled.attributes
            )
            steps.append(
                ("filter", compiled.text, argument_positions, filter_count)
            )
            filter_count += 1
        elif isinstance(operation, (Projection, Extraction)):
            wanted = list(operation.columns)
            if any(column not in positions for column in wanted):
                return None
            schema = {column: schema[column] for column in wanted}
            positions = {column: positions[column] for column in wanted}
        elif isinstance(operation, DerivedAttribute):
            compiled = compile_expression(operation.expression)
            if any(a not in positions for a in compiled.attributes):
                return None
            schema = _derive_schema(operation, schema)
            argument_positions = tuple(
                positions[a] for a in compiled.attributes
            )
            steps.append(
                ("derive", compiled.text, argument_positions, next_slot)
            )
            positions = dict(positions)
            positions[operation.output] = next_slot
            next_slot += 1
        elif isinstance(operation, Rename):
            mapping = operation.mapping()
            schema = {
                mapping.get(key, key): value for key, value in schema.items()
            }
            positions = {
                mapping.get(key, key): value
                for key, value in positions.items()
            }
        else:
            return None
    output_positions = [positions[name] for name in schema]
    # Read-set compaction: keep only input slots some step argument or
    # output column actually references, then renumber — input slots to
    # their compacted index, derived slots shifted down by the dropped
    # input count (the runtime appends derived values right after the
    # inputs, wherever the input list ends).
    total_inputs = len(input_names)
    used = sorted(
        {
            position
            for __, __, argument_positions, __s in steps
            for position in argument_positions
            if position < total_inputs
        }
        | {
            position
            for position in output_positions
            if position < total_inputs
        }
    )
    new_index = {old: new for new, old in enumerate(used)}
    kept_inputs = len(used)

    def remap(position: int) -> int:
        if position < total_inputs:
            return new_index[position]
        return position - total_inputs + kept_inputs

    return ChainSpec(
        input_names=tuple(input_names[position] for position in used),
        steps=tuple(
            (
                kind,
                text,
                tuple(remap(p) for p in argument_positions),
                counter if kind == "filter" else remap(counter),
            )
            for kind, text, argument_positions, counter in steps
        ),
        output_schema=tuple(schema.items()),
        output_positions=tuple(
            remap(position) for position in output_positions
        ),
        filter_count=filter_count,
    )


class ChainProgram:
    """A fused single-pass program over an input relation.

    ``steps`` interleave compiled filters and derivations in chain
    order; pure structural stages (projection, extraction, rename) were
    resolved at build time into the slot mapping, so they cost nothing
    at runtime.
    """

    def __init__(self, spec: ChainSpec) -> None:
        self.input_names = list(spec.input_names)
        self.steps = [
            (kind, compile_expression(text).column_fn, positions, slot)
            for kind, text, positions, slot in spec.steps
        ]
        self.output_schema: Dict[str, ScalarType] = dict(spec.output_schema)
        self.output_positions = list(spec.output_positions)
        self.filter_count = spec.filter_count

    def run(self, relation: ColumnarRelation):
        filter_counts = [0] * self.filter_count
        if not self.steps:
            # Pure structural chain: zero-copy column re-selection.
            source = [relation.columns[name] for name in self.input_names]
            columns = {
                name: source[position]
                for name, position in zip(
                    self.output_schema, self.output_positions
                )
            }
            result = ColumnarRelation(
                schema=dict(self.output_schema),
                columns=columns,
                length=relation.length,
            )
            return result, filter_counts
        source = [relation.columns[name] for name in self.input_names]
        if source:
            row_iter = zip(*source)
        else:
            row_iter = (() for _ in range(relation.length))
        kept: List[tuple] = []
        steps = self.steps
        for values in row_iter:
            survived = True
            for step in steps:
                if step[0] == "filter":
                    __, function, positions, counter = step
                    if function(*[values[p] for p in positions]) is not True:
                        survived = False
                        break
                    filter_counts[counter] += 1
                else:
                    __, function, positions, __slot = step
                    values = (*values, function(*[values[p] for p in positions]))
            if survived:
                kept.append(values)
        columns = {
            name: [values[position] for values in kept]
            for name, position in zip(
                self.output_schema, self.output_positions
            )
        }
        result = ColumnarRelation(
            schema=dict(self.output_schema),
            columns=columns,
            length=len(kept),
        )
        return result, filter_counts


@lru_cache(maxsize=512)
def compile_chain_spec(spec: ChainSpec) -> ChainProgram:
    """Compile a chain spec, memoised: repeated chains across
    ``execute()`` calls compile once."""
    return ChainProgram(spec)
