"""Random valid ETL flows over the full operation vocabulary.

The generator keeps a pool of *open* nodes (name + tracked output
schema).  Each step draws an operation builder, consumes one or two open
nodes and pushes the result back; at the end every open node is closed
with a Loader into its own ``out<N>`` target so the flow validates
(only loaders may be sinks) and the oracle can diff every branch.

The tracked schemas mirror :mod:`repro.etlmodel.propagation` rule for
rule — attribute order included — so generated flows execute rather
than die in validation.  Deliberate error flows (join attribute
collisions, unhashable key values) are still generated occasionally:
for those the oracle asserts *error parity* between the two engine
modes instead of result equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    Distinct,
    Extraction,
    Join,
    JoinType,
    Loader,
    Projection,
    Rename,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.expressions.types import ScalarType
from repro.fuzz import exprgen
from repro.fuzz.datagen import TableSpec, inject_unhashable, make_tables

_NUMERIC = (ScalarType.INTEGER, ScalarType.DECIMAL)

_AGG_RESULT = {
    "SUM": None,  # input type
    "MIN": None,
    "MAX": None,
    "AVERAGE": ScalarType.DECIMAL,
    "COUNT": ScalarType.INTEGER,
}


@dataclass
class FlowTrial:
    """One differential trial: source tables plus a flow to run."""

    tables: List[TableSpec]
    flow: EtlFlow
    seed: object = None
    notes: List[str] = field(default_factory=list)


Entry = Tuple[str, Dict[str, ScalarType]]


class _Builder:
    def __init__(self, rng: random.Random, flow: EtlFlow) -> None:
        self.rng = rng
        self.flow = flow
        self._counter = 0
        self._column_counter = 0

    def fresh(self, stem: str) -> str:
        name = f"{stem}_{self._counter}"
        self._counter += 1
        return name

    def fresh_column(self, stem: str) -> str:
        name = f"{stem}{self._column_counter}"
        self._column_counter += 1
        return name


def _selection(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("sel")
    predicate = exprgen.random_predicate(builder.rng, schema)
    builder.flow.add(Selection(node, predicate=predicate))
    builder.flow.connect(name, node)
    return node, dict(schema)


def _projection(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("proj")
    columns = tuple(
        builder.rng.sample(list(schema), builder.rng.randint(1, len(schema)))
    )
    cls = builder.rng.choice((Projection, Extraction))
    builder.flow.add(cls(node, columns=columns))
    builder.flow.connect(name, node)
    return node, {column: schema[column] for column in columns}


def _derive(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("der")
    expression, result_type = exprgen.random_derivation(builder.rng, schema)
    if schema and builder.rng.random() < 0.15:
        output = builder.rng.choice(list(schema))  # overwrite in place
    else:
        output = builder.fresh_column("d")
    builder.flow.add(
        DerivedAttribute(node, output=output, expression=expression)
    )
    builder.flow.connect(name, node)
    new_schema = dict(schema)
    new_schema[output] = result_type
    return node, new_schema


def _rename(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("ren")
    olds = builder.rng.sample(
        list(schema), builder.rng.randint(1, min(2, len(schema)))
    )
    renaming = tuple(
        (old, builder.fresh_column("r")) for old in olds
    )
    builder.flow.add(Rename(node, renaming=renaming))
    builder.flow.connect(name, node)
    mapping = dict(renaming)
    return node, {
        mapping.get(column, column): t for column, t in schema.items()
    }


def _sort(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("sort")
    keys = tuple(
        builder.rng.sample(
            list(schema), builder.rng.randint(1, min(2, len(schema)))
        )
    )
    builder.flow.add(
        Sort(node, keys=keys, descending=builder.rng.random() < 0.5)
    )
    builder.flow.connect(name, node)
    return node, dict(schema)


def _distinct(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("dis")
    builder.flow.add(Distinct(node))
    builder.flow.connect(name, node)
    return node, dict(schema)


def _surrogate(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    node = builder.fresh("sk")
    output = builder.fresh_column("sk")
    business_keys = tuple(
        builder.rng.sample(
            list(schema), builder.rng.randint(0, min(2, len(schema)))
        )
    )
    builder.flow.add(
        SurrogateKey(node, output=output, business_keys=business_keys)
    )
    builder.flow.connect(name, node)
    new_schema = {output: ScalarType.INTEGER}
    new_schema.update(schema)
    return node, new_schema


def _aggregation(builder: _Builder, entry: Entry) -> Entry:
    name, schema = entry
    rng = builder.rng
    node = builder.fresh("agg")
    group_by = tuple(
        rng.sample(list(schema), rng.randint(0, min(2, len(schema))))
    )
    numeric = [c for c, t in schema.items() if t in _NUMERIC]
    specs = []
    new_schema = {column: schema[column] for column in group_by}
    for _ in range(rng.randint(1, 2)):
        function = rng.choice(list(_AGG_RESULT))
        if function in ("SUM", "AVERAGE"):
            if not numeric:
                function = rng.choice(("MIN", "MAX", "COUNT"))
                pool = list(schema)
            else:
                pool = numeric
        else:
            pool = list(schema)
        source = rng.choice(pool)
        output = builder.fresh_column("g")
        specs.append(AggregationSpec(output, function, source))
        fixed = _AGG_RESULT[function]
        new_schema[output] = fixed if fixed is not None else schema[source]
    builder.flow.add(
        Aggregation(node, group_by=group_by, aggregates=tuple(specs))
    )
    builder.flow.connect(name, node)
    return node, new_schema


def _union(builder: _Builder, entry: Entry) -> Entry:
    """Branch the entry through two fresh selections, then union them.

    The flow forbids duplicate edges, so a self-union needs distinct
    intermediate nodes; the selections also make the two branches carry
    different row subsets.
    """
    name, schema = entry
    branches = []
    for _ in range(2):
        branch, branch_schema = _selection(builder, (name, schema))
        branches.append(branch)
        schema = branch_schema
    node = builder.fresh("uni")
    builder.flow.add(UnionOp(node))
    builder.flow.connect(branches[0], node)
    builder.flow.connect(branches[1], node)
    return node, dict(schema)


def _join(builder: _Builder, left: Entry, right: Entry) -> Entry:
    rng = builder.rng
    left_name, left_schema = left
    right_name, right_schema = right
    draw = rng.random()
    if draw < 0.05:
        arity = 0  # a keyless join: the cross product
    elif draw < 0.35 and len(right_schema) >= 2:
        arity = 2
    else:
        arity = 1
    left_keys = [rng.choice(list(left_schema)) for _ in range(arity)]
    right_keys = rng.sample(list(right_schema), arity)

    mapping: Dict[str, str] = {}
    if arity and rng.random() < 0.35 and left_keys[0] not in right_schema:
        # Exercise the same-named-key path: the equi-joined column
        # collapses to one output attribute.
        mapping[right_keys[0]] = left_keys[0]
    joined_same = {
        mapping.get(r, r)
        for l, r in zip(left_keys, right_keys)
        if mapping.get(r, r) == l
    }
    keep_collision = rng.random() < 0.1  # error-parity trial
    for column in right_schema:
        target = mapping.get(column, column)
        if target in joined_same:
            continue
        if target in left_schema and not keep_collision:
            mapping[column] = builder.fresh_column("j")
    if mapping:
        rename_node = builder.fresh("jren")
        builder.flow.add(
            Rename(rename_node, renaming=tuple(mapping.items()))
        )
        builder.flow.connect(right_name, rename_node)
        right_name = rename_node
        right_schema = {
            mapping.get(column, column): t
            for column, t in right_schema.items()
        }
        right_keys = [mapping.get(key, key) for key in right_keys]

    node = builder.fresh("join")
    join_type = rng.choice(
        (JoinType.INNER, JoinType.INNER, JoinType.LEFT)
    )
    builder.flow.add(
        Join(
            node,
            left_keys=tuple(left_keys),
            right_keys=tuple(right_keys),
            join_type=join_type,
        )
    )
    builder.flow.connect(left_name, node)
    builder.flow.connect(right_name, node)
    joined_same_names = {
        r for l, r in zip(left_keys, right_keys) if l == r
    }
    new_schema = dict(left_schema)
    for column, t in right_schema.items():
        if column in joined_same_names or column in new_schema:
            continue
        new_schema[column] = t
    return node, new_schema


_UNARY_BUILDERS = (
    (_selection, 4),
    (_projection, 2),
    (_derive, 3),
    (_rename, 1),
    (_sort, 2),
    (_distinct, 2),
    (_surrogate, 1),
    (_aggregation, 2),
    (_union, 1),
)


def _weighted_choice(rng: random.Random, weighted):
    total = sum(weight for _, weight in weighted)
    mark = rng.random() * total
    for value, weight in weighted:
        mark -= weight
        if mark <= 0:
            return value
    return weighted[-1][0]


def build_flow(rng: random.Random, tables: List[TableSpec]) -> EtlFlow:
    """A random structurally-valid flow over the given source tables."""
    flow = EtlFlow("fuzz")
    builder = _Builder(rng, flow)
    sources = list(tables)
    if rng.random() < 0.3:
        sources.append(rng.choice(tables))  # scan one table twice
    open_nodes: List[Entry] = []
    for spec in sources:
        name = builder.fresh("src")
        flow.add(Datastore(name, table=spec.name))
        open_nodes.append((name, dict(spec.schema)))

    for _ in range(rng.randint(2, 8)):
        if len(open_nodes) >= 2 and rng.random() < 0.45:
            right = open_nodes.pop(rng.randrange(len(open_nodes)))
            left = open_nodes.pop(rng.randrange(len(open_nodes)))
            open_nodes.append(_join(builder, left, right))
            continue
        index = rng.randrange(len(open_nodes))
        entry = open_nodes.pop(index)
        build = _weighted_choice(rng, _UNARY_BUILDERS)
        open_nodes.append(build(builder, entry))

    for position, (name, _schema) in enumerate(open_nodes):
        loader = builder.fresh("load")
        flow.add(Loader(loader, table=f"out{position}", mode="insert"))
        flow.connect(name, loader)
    flow.check()
    return flow


def build_flow_trial(seed: int) -> FlowTrial:
    """The deterministic flow trial for a seed.

    String-seeding :class:`random.Random` is stable across processes
    and platforms (unlike hashing), so ``seed`` alone reproduces the
    trial anywhere.
    """
    rng = random.Random(f"flow:{seed}")
    tables = make_tables(rng)
    notes = []
    if rng.random() < 0.12 and inject_unhashable(rng, tables):
        notes.append("unhashable value injected")
    flow = build_flow(rng, tables)
    return FlowTrial(tables=tables, flow=flow, seed=seed, notes=notes)
