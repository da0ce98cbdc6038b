"""Type-correct random expressions over a given attribute schema.

Generates predicate strings (for Selections) and value expressions (for
DerivedAttributes) in the repo's expression language.  Construction is
type-directed, but every candidate is additionally validated through the
real :func:`repro.expressions.infer_type` — whatever that rejects is
regenerated, so the generator can never drift from the type checker.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ExpressionError
from repro.expressions import infer_type, parse
from repro.expressions.types import ScalarType

_NUMERIC = (ScalarType.INTEGER, ScalarType.DECIMAL)

#: Literal renderings per type.  Negative numbers are parenthesised so
#: they survive any operator context (e.g. ``a * (-1)``).
_LITERALS: Dict[ScalarType, List[str]] = {
    ScalarType.INTEGER: ["0", "1", "2", "3", "7", "100", "(-1)"],
    ScalarType.DECIMAL: ["0.0", "0.25", "1.5", "3.0", "(-0.5)", "2"],
    ScalarType.STRING: ["''", "'a'", "'b'", "'aa'", "' a'", "'A'"],
    ScalarType.BOOLEAN: ["true", "false"],
    ScalarType.DATE: [
        "date '2015-03-01'",
        "date '2015-03-15'",
        "date '2015-12-31'",
        "date '2020-01-01'",
    ],
}

_COMPARATORS = ["=", "!=", "<>", "<", "<=", ">", ">="]

#: (function, argument type) pairs the generator draws from; all are
#: single-argument so arity bookkeeping stays trivial.
_FUNCTIONS: List[Tuple[str, ScalarType]] = [
    ("length", ScalarType.STRING),
    ("upper", ScalarType.STRING),
    ("lower", ScalarType.STRING),
    ("trim", ScalarType.STRING),
    ("abs", ScalarType.INTEGER),
    ("abs", ScalarType.DECIMAL),
    ("year", ScalarType.DATE),
    ("month", ScalarType.DATE),
    ("quarter", ScalarType.DATE),
]


def _columns_of(schema: Dict[str, ScalarType], types) -> List[str]:
    return [name for name, t in schema.items() if t in types]


def _literal(rng: random.Random, scalar_type: ScalarType) -> str:
    return rng.choice(_LITERALS[scalar_type])


def _value(
    rng: random.Random,
    schema: Dict[str, ScalarType],
    scalar_type: ScalarType,
    depth: int,
) -> str:
    """A value expression of (roughly) the given type."""
    columns = _columns_of(schema, (scalar_type,))
    if scalar_type is ScalarType.DECIMAL:
        # Integers are acceptable decimals — widen the column pool.
        columns = _columns_of(schema, _NUMERIC)
    choices = ["literal"]
    if columns:
        choices += ["column", "column"]  # favour data over constants
    if depth > 0 and scalar_type in _NUMERIC:
        choices.append("arith")
    if depth > 0:
        choices.append("function")
    kind = rng.choice(choices)
    if kind == "column":
        return rng.choice(columns)
    if kind == "arith":
        operator = rng.choice(["+", "-", "*", "/", "%"])
        left = _value(rng, schema, scalar_type, depth - 1)
        right = _value(rng, schema, scalar_type, depth - 1)
        return f"({left} {operator} {right})"
    if kind == "function":
        candidates = [
            (name, argument_type)
            for name, argument_type in _FUNCTIONS
            if _result_of(name) is scalar_type
            and (_columns_of(schema, (argument_type,)) or True)
        ]
        if candidates:
            name, argument_type = rng.choice(candidates)
            argument = _value(rng, schema, argument_type, 0)
            return f"{name}({argument})"
    return _literal(rng, scalar_type)


def _result_of(function: str) -> ScalarType:
    if function in ("upper", "lower", "trim"):
        return ScalarType.STRING
    if function == "abs":
        return ScalarType.INTEGER  # close enough for candidate generation
    return ScalarType.INTEGER


def _comparison(rng: random.Random, schema: Dict[str, ScalarType]) -> str:
    scalar_type = rng.choice(list(_LITERALS))
    left = _value(rng, schema, scalar_type, 1)
    if rng.random() < 0.08:
        return f"{left} {rng.choice(['=', '!='])} null"
    right = _value(rng, schema, scalar_type, 1)
    return f"{left} {rng.choice(_COMPARATORS)} {right}"


def _membership(rng: random.Random, schema: Dict[str, ScalarType]) -> str:
    scalar_type = rng.choice(list(_LITERALS))
    columns = _columns_of(schema, (scalar_type,))
    needle = rng.choice(columns) if columns else _literal(rng, scalar_type)
    values = [
        _literal(rng, scalar_type) for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.2:
        values.append("null")
    membership = f"{needle} in ({', '.join(values)})"
    if rng.random() < 0.3:
        return f"not {membership}"
    return membership


def _boolean(
    rng: random.Random, schema: Dict[str, ScalarType], depth: int
) -> str:
    roll = rng.random()
    if depth > 0 and roll < 0.25:
        connector = rng.choice(["and", "or"])
        left = _boolean(rng, schema, depth - 1)
        right = _boolean(rng, schema, depth - 1)
        return f"({left} {connector} {right})"
    if depth > 0 and roll < 0.32:
        return f"not ({_boolean(rng, schema, depth - 1)})"
    if roll < 0.45:
        return _membership(rng, schema)
    boolean_columns = _columns_of(schema, (ScalarType.BOOLEAN,))
    if boolean_columns and roll < 0.55:
        return rng.choice(boolean_columns)
    return _comparison(rng, schema)


def _validated(
    candidate: str, schema: Dict[str, ScalarType]
) -> Optional[ScalarType]:
    """The inferred type, or ``None`` when the candidate is invalid."""
    try:
        return infer_type(parse(candidate), schema)
    except ExpressionError:
        return None


def random_predicate(
    rng: random.Random, schema: Dict[str, ScalarType]
) -> str:
    """A boolean predicate that type-checks under ``schema``."""
    for _ in range(10):
        candidate = _boolean(rng, schema, depth=2)
        result = _validated(candidate, schema)
        if result is None or result is not ScalarType.BOOLEAN:
            continue
        return candidate
    return "true"


def random_derivation(
    rng: random.Random, schema: Dict[str, ScalarType]
) -> Tuple[str, ScalarType]:
    """An expression plus its inferred type (for a DerivedAttribute).

    Matches :func:`repro.etlmodel.propagation._derive_schema`: the
    declared type of the derived column is whatever ``infer_type``
    says, STRING for a bare NULL.
    """
    for _ in range(10):
        scalar_type = rng.choice(list(_LITERALS))
        if rng.random() < 0.3:
            candidate = _boolean(rng, schema, depth=1)
        else:
            candidate = _value(rng, schema, scalar_type, 2)
        result = _validated(candidate, schema)
        if result is not None:
            return candidate, result
    return "1", ScalarType.INTEGER
