"""Fused-chain specs: what a chain reads is all the fused pass touches."""

from repro.engine import Database, TableDef
from repro.engine.fusion import build_chain_spec
from repro.etlmodel import Datastore, EtlFlow, Loader, Projection, Selection
from repro.expressions import ScalarType


def test_chain_spec_is_compacted_to_read_set():
    database = Database()
    database.create_table(
        TableDef(
            "facts",
            {
                "k": ScalarType.INTEGER,
                "fk": ScalarType.INTEGER,
                "cat": ScalarType.STRING,
                "amount": ScalarType.DECIMAL,
            },
        )
    )
    relation = database.scan_columns("facts")
    flow = EtlFlow("t")
    flow.chain(
        Datastore("src", table="facts"),
        Selection("sel", predicate="amount > 0"),
        Projection("proj", columns=("k", "amount")),
        Loader("load", table="out"),
    )
    spec = build_chain_spec(flow, ["sel", "proj"], relation)
    # fk and cat are neither read by the filter nor kept by the
    # projection: the fused pass must not zip them at all.
    assert spec.input_names == ("k", "amount")
    assert dict(spec.output_schema).keys() == {"k", "amount"}
    ((kind, text, positions, counter),) = spec.steps
    assert kind == "filter"
    assert positions == (1,)  # amount, renumbered into the read-set
    assert spec.output_positions == (0, 1)
