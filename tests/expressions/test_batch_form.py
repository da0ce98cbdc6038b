"""The compiler's batch form against its per-row form.

``batch_fn(columns)`` runs numeric arithmetic a whole column at a time.
It may decline (``None``) whenever it likes, but when it answers, the
answer must be exactly ``list(map(column_fn, *columns))``, type for
type; and it must decline whenever the per-row form raises.  The
columns mix ints, floats (``-0.0``, ``inf``, ``nan``), zeros, bools,
NULLs and ints too large for a float, so the guards (no NULL, no bool,
no zero divisor) and the ``ArithmeticError`` fallback are all reached.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.expressions import ast, compile_expression
from repro.expressions.compiler import compile_tree

ATTRIBUTES = ("a", "b", "c")

VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(
        [0, 0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"), float("nan")]
    ),
    st.sampled_from([10**400, -(10**400), 2**70]),
    st.booleans(),
    st.none(),
)

#: Mostly clean numeric columns, so the batch form answers often.
NUMBERS = st.one_of(st.integers(-5, 5), st.floats(-100, 100, width=32))

attributes = st.sampled_from(ATTRIBUTES).map(ast.Attribute)
leaves = st.one_of(
    attributes,
    attributes,
    st.sampled_from([0, 1, 2, -3, 0.5, 0.0, 2**70]).map(ast.Literal),
    st.just(ast.Literal(True)),
)


def _arithmetic(children):
    return st.builds(
        ast.BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), children, children
    )


#: The executor never batches a constant expression.
trees = st.recursive(leaves, _arithmetic, max_leaves=6).filter(
    lambda tree: tree.attributes()
)


@st.composite
def cases(draw):
    tree = draw(trees)
    length = draw(st.integers(0, 8))
    values = VALUES if draw(st.booleans()) else NUMBERS
    columns = {
        name: draw(st.lists(values, min_size=length, max_size=length))
        for name in ATTRIBUTES
    }
    return tree, columns


def typed(values):
    """Values with their types visible (``nan`` compared by its repr)."""
    return [(type(value), repr(value)) for value in values]


def row_outcome(compiled, columns):
    try:
        return "ok", list(map(compiled.column_fn, *columns))
    except Exception as exc:  # any error: the batch form must decline
        return "error", exc


@settings(max_examples=400, deadline=None)
@given(cases())
def test_batch_form_is_the_row_form_or_declines(case):
    tree, named = case
    compiled = compile_tree(tree)
    columns = [named[name] for name in compiled.attributes]

    batch = compiled.batch_fn(columns)
    status, expected = row_outcome(compiled, columns)

    if status == "error":
        assert batch is None
    elif batch is not None:
        assert typed(batch) == typed(expected)


def test_arithmetic_over_clean_columns_is_batched():
    compiled = compile_expression("l_extendedprice * (1 - l_discount)")
    prices, discounts = [10.0, 20, 30.5], [0.1, 0, 0.25]

    batch = compiled.batch_fn([prices, discounts])

    assert batch == list(map(compiled.column_fn, prices, discounts))
    assert typed(batch) == typed(
        [price * (1 - discount) for price, discount in zip(prices, discounts)]
    )


def test_a_bare_attribute_shares_its_column():
    column = ["x", None, True]

    assert compile_expression("name").batch_fn([column]) is column


def test_guards_decline():
    product = compile_expression("a * b")
    assert product.batch_fn([[1, None], [2, 3]]) is None  # a NULL
    assert product.batch_fn([[1, True], [2, 3]]) is None  # a bool
    assert product.batch_fn([[10**400], [1.5]]) is None  # OverflowError
    ratio = compile_expression("a / b")
    assert ratio.batch_fn([[1, 2], [4, -0.0]]) is None  # a zero divisor
    assert compile_expression("a % 0").batch_fn([[1, 2]]) is None
    assert ratio.batch_fn([[1, 2], [4, 8]]) == [0.25, 0.25]


def test_other_expressions_have_no_batch_form():
    for text in ("a > 1", "-a", "abs(a)", "a + 'x'", "a and b", "a + true"):
        compiled = compile_expression(text)
        columns = [[1, 2] for __ in compiled.attributes]
        assert compiled.batch_fn(columns) is None, text
