"""The hash-aggregation kernel against a row-at-a-time reference.

``columnar.hash_aggregate`` numbers groups in C and buckets each
aggregate's input with ``map`` over ``list.append``.  The reference is
the textbook loop of the legacy interpreter: groups keyed on key tuples
in first-seen order, each group's non-NULL inputs in row order, and one
row for a global aggregate even over no input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    ColumnarRelation,
    aggregate_values,
    hash_aggregate,
    unhashable_key_error,
)
from repro.errors import ExecutionError
from repro.etlmodel.ops import AggregationSpec
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
DEC = ScalarType.DECIMAL
STR = ScalarType.STRING

FUNCTIONS = ("SUM", "COUNT", "AVERAGE", "MIN", "MAX")


def relation(**columns):
    length = len(next(iter(columns.values())))
    schema = {name: DEC for name in columns}
    return ColumnarRelation(schema, {k: list(v) for k, v in columns.items()}, length)


def aggregate(source, group_by, *specs):
    schema = {name: source.schema[name] for name in group_by}
    schema.update({spec.output: DEC for spec in specs})
    result = hash_aggregate(source, tuple(group_by), specs, schema)
    return {name: result.columns[name] for name in schema}, result.length


def reference(source, group_by, specs):
    groups = {}
    if not group_by:
        groups[()] = []
    for row in range(source.length):
        key = tuple(source.columns[name][row] for name in group_by)
        groups.setdefault(key, []).append(row)
    columns = {name: [key[i] for key in groups] for i, name in enumerate(group_by)}
    for spec in specs:
        values = source.columns[spec.input]
        columns[spec.output] = [
            aggregate_values(
                spec.function,
                [values[row] for row in rows if values[row] is not None],
            )
            for rows in groups.values()
        ]
    return columns, len(groups)


def typed(columns):
    return {
        name: [(type(value), repr(value)) for value in values]
        for name, values in columns.items()
    }


@st.composite
def cases(draw):
    length = draw(st.integers(0, 25))
    keys = st.sampled_from([None, 0, 1, 1.0, 2, "a", "b"])
    values = st.one_of(st.none(), st.integers(-9, 9), st.floats(-9, 9, width=16))
    source = relation(
        k0=draw(st.lists(keys, min_size=length, max_size=length)),
        k1=draw(st.lists(keys, min_size=length, max_size=length)),
        v=draw(st.lists(values, min_size=length, max_size=length)),
    )
    group_by = draw(st.sampled_from([(), ("k0",), ("k0", "k1"), ("k1", "k0")]))
    specs = tuple(
        AggregationSpec(f"out{index}", function, "v")
        for index, function in enumerate(
            draw(st.lists(st.sampled_from(FUNCTIONS), min_size=1, max_size=3))
        )
    )
    return source, group_by, specs


@settings(max_examples=300, deadline=None)
@given(cases())
def test_kernel_matches_the_row_reference(case):
    source, group_by, specs = case

    columns, length = aggregate(source, group_by, *specs)

    expected_columns, expected_length = reference(source, group_by, specs)
    assert length == expected_length
    assert typed(columns) == typed(expected_columns)


def test_null_inputs_are_skipped_and_an_all_null_group_is_null():
    source = relation(g=["x", "y", "x", "y"], v=[1.5, None, None, None])

    columns, __ = aggregate(
        source,
        ["g"],
        AggregationSpec("total", "SUM", "v"),
        AggregationSpec("low", "MIN", "v"),
        AggregationSpec("mean", "AVERAGE", "v"),
        AggregationSpec("n", "COUNT", "v"),
    )

    assert columns == {
        "g": ["x", "y"],
        "total": [1.5, None],
        "low": [1.5, None],
        "mean": [1.5, None],
        "n": [1, 0],
    }


def test_count_counts_non_null_values_of_any_type():
    source = relation(g=[1, 1, 2], v=["a", None, "b"])

    columns, __ = aggregate(source, ["g"], AggregationSpec("n", "COUNT", "v"))

    assert columns["n"] == [1, 1]


def test_empty_input_with_group_by_keys_yields_no_rows():
    source = relation(g=[], h=[], v=[])

    columns, length = aggregate(
        source, ["g", "h"], AggregationSpec("n", "COUNT", "v")
    )

    assert length == 0
    assert columns == {"g": [], "h": [], "n": []}


def test_empty_input_without_keys_yields_one_row():
    columns, length = aggregate(
        relation(v=[]),
        [],
        AggregationSpec("n", "COUNT", "v"),
        AggregationSpec("total", "SUM", "v"),
    )

    assert length == 1
    assert columns == {"n": [0], "total": [None]}


def test_groups_come_out_in_first_seen_order_with_values_in_row_order():
    source = relation(g=["c", "a", "c", "b", "a"], v=[0.1, 0.2, 0.7, 1.0, 1e16])

    columns, __ = aggregate(source, ["g"], AggregationSpec("total", "SUM", "v"))

    assert columns["g"] == ["c", "a", "b"]
    assert columns["total"] == [0.1 + 0.7, 0.2 + 1e16, 1.0]


def test_one_key_groups_as_a_one_tuple_does():
    """Raw values group as the legacy interpreter's 1-tuples: ``1`` and
    ``1.0`` share a group named by the first seen, a NULL key is a group."""
    source = relation(g=[1.0, None, 1, None, True], v=[1, 2, 3, 4, 5])

    one, __ = aggregate(source, ["g"], AggregationSpec("n", "COUNT", "v"))
    two, __ = aggregate(
        relation(g=source.columns["g"], h=[0] * 5, v=source.columns["v"]),
        ["g", "h"],
        AggregationSpec("n", "COUNT", "v"),
    )

    assert typed(one)["g"] == typed({"g": [1.0, None]})["g"]
    assert one["n"] == [3, 2]
    assert two["g"] == one["g"] and two["n"] == one["n"]


@pytest.mark.parametrize("group_by", [["g"], ["h", "g"]])
def test_an_unhashable_key_names_its_attribute(group_by):
    source = relation(g=[1, [2], 3], h=[0, 0, 0], v=[1, 2, 3])

    with pytest.raises(ExecutionError) as excinfo:
        aggregate(source, group_by, AggregationSpec("n", "COUNT", "v"))

    named = [(name, source.columns[name]) for name in group_by]
    expected = unhashable_key_error("aggregate", named, TypeError())
    assert str(excinfo.value) == str(expected)
    assert str(excinfo.value) == "aggregate: unhashable value [2] for key attribute 'g'"


def test_string_schema_is_carried():
    source = ColumnarRelation({"g": STR, "v": INT}, {"g": ["a"], "v": [1]})

    result = hash_aggregate(
        source, ("g",), (AggregationSpec("n", "COUNT", "v"),), {"g": STR, "n": INT}
    )

    assert result.rows == [{"g": "a", "n": 1}]
