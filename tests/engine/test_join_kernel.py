"""The hash-join kernel against a nested-loop reference.

``columnar.hash_join`` builds an index over the right key columns,
probes it with every left row and gathers.  The reference here is the
textbook nested loop: left order, each left row's matches in right
order, a key with a NULL part never matches, and a LEFT join pads an
unmatched row with NULLs.  Random relations of 0–30 rows draw keys from
a tiny domain, so keys collide, repeat on the right and hold NULLs, and
occasionally a list, which cannot be hashed.  Key arity is 0 (a cross
product), 1 or 2.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    ColumnarRelation,
    hash_join,
    unhashable_key_error,
)
from repro.errors import ExecutionError
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING

KEY_VALUES = (None, 0, 1, 2)


@st.composite
def join_cases(draw):
    arity = draw(st.sampled_from((0, 1, 2)))
    left_keys = [f"lk{index}" for index in range(arity)]
    right_keys = [f"rk{index}" for index in range(arity)]

    def relation(keys, tag):
        length = draw(st.integers(0, 30))
        columns = {
            key: draw(
                st.lists(
                    st.sampled_from(KEY_VALUES),
                    min_size=length,
                    max_size=length,
                )
            )
            for key in keys
        }
        columns[tag] = [f"{tag}{row}" for row in range(length)]
        schema = {key: INT for key in keys}
        schema[tag] = STR
        return ColumnarRelation(schema, columns, length)

    left = relation(left_keys, "v")
    right = relation(right_keys, "p")
    if arity and draw(st.integers(0, 9)) == 0:
        # The occasional unhashable key value.
        side = draw(st.sampled_from((left, right)))
        if side.length:
            keys = left_keys if side is left else right_keys
            key = draw(st.sampled_from(keys))
            side.columns[key][draw(st.integers(0, side.length - 1))] = [1]
    left_outer = draw(st.booleans())
    return left, right, left_keys, right_keys, left_outer


def output_schema(left, right):
    schema = dict(left.schema)
    schema.update(right.schema)
    return schema


def output_rows(relation, schema):
    columns = [relation.columns[name] for name in schema]
    assert all(len(column) == relation.length for column in columns)
    return [list(row) for row in zip(*columns)] if columns else []


def rows_of(relation):
    names = list(relation.schema)
    return [
        {name: relation.columns[name][row] for name in names}
        for row in range(relation.length)
    ]


def has_null(key):
    return any(part is None for part in key)


def reference_join(left, right, left_keys, right_keys, left_outer):
    """Nested-loop join: ``(output rows, shares_left)``.

    ``shares_left`` is when the output is every left row once, in order,
    by the kernel's rule: a duplicate-free right side probed by an inner
    join that matches every left row, or by a LEFT join.
    """
    payload = list(right.schema)
    right_rows = rows_of(right)
    right_key_list = [
        [row[key] for key in right_keys] for row in right_rows
    ]
    output = []
    every_row_matched = True
    for row in rows_of(left):
        key = [row[name] for name in left_keys]
        matches = [
            match
            for match, match_key in zip(right_rows, right_key_list)
            if not has_null(key) and not has_null(match_key)
            and match_key == key
        ]
        every_row_matched = every_row_matched and bool(matches)
        for match in matches:
            output.append(list(row.values()) + [match[n] for n in payload])
        if not matches and left_outer:
            output.append(list(row.values()) + [None] * len(payload))
    non_null = [tuple(key) for key in right_key_list if not has_null(key)]
    duplicate_free = len(set(non_null)) == len(non_null)
    shares_left = duplicate_free and (left_outer or every_row_matched)
    return output, shares_left


def raises_on_hashing(relation, keys):
    """Whether some key with no NULL part holds an unhashable value."""
    for row in range(relation.length):
        key = [relation.columns[name][row] for name in keys]
        if not has_null(key) and any(isinstance(part, list) for part in key):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(join_cases())
def test_kernel_matches_nested_loop_reference(case):
    left, right, left_keys, right_keys, left_outer = case
    schema = output_schema(left, right)
    payload = list(right.schema)

    def join():
        return hash_join(
            left, right, left_keys, right_keys, payload, schema, left_outer
        )

    if raises_on_hashing(left, left_keys) or raises_on_hashing(
        right, right_keys
    ):
        named = [(key, left.columns[key]) for key in left_keys]
        named += [(key, right.columns[key]) for key in right_keys]
        expected = unhashable_key_error("join", named, TypeError())
        with pytest.raises(ExecutionError) as excinfo:
            join()
        assert type(excinfo.value) is type(expected)
        assert str(excinfo.value) == str(expected)
        return

    joined = join()
    expected_rows, shares_left = reference_join(
        left, right, left_keys, right_keys, left_outer
    )
    assert joined.length == len(expected_rows)
    assert output_rows(joined, schema) == expected_rows
    assert list(joined.schema) == list(schema)
    shared = [
        joined.columns[name] is left.columns[name] for name in left.schema
    ]
    assert all(shared) is shares_left
    assert any(shared) is shares_left


@pytest.mark.parametrize(
    "value",
    [
        0, -3, 2**70, True, False, 0.0, -0.0, 1.5, float("nan"),
        float("inf"), "", "x", datetime.date(2020, 1, 1),
        datetime.datetime(2020, 1, 1, 12), [], [1, 2],
    ],
)
def test_none_in_key_is_an_identity_test(value):
    """The kernel finds NULL key parts with ``None in key``; that equals
    ``any(part is None ...)`` because no stored value equals ``None``."""
    assert value != None  # noqa: E711 - the equality is the point
    assert None not in (value,)
    assert None not in (value, value)
    assert None in (value, None)
    assert None in (None, value)
