"""Compiled closures agree with the tree-walking reference evaluator.

For any expression and any bindings, calling the closure from
:func:`~repro.query.expressions.compile_expression` must give the value
the reference tree walk gives, or raise the same exception type with
the same message. Hypothesis generates expressions over every node
type — including ill-typed, ill-bound and ill-called ones — and
contexts with zero, one or two bound aliases, with or without a
function registry.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tuples import DeviceTuple
from repro.query import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    EvaluationContext,
    FunctionCall,
    FunctionRegistry,
    Literal,
    Negate,
    Not,
    Star,
    parse_expression,
)
from repro.query.expressions import compile_expression
from repro.query.functions import install_standard_functions

from tests.query.reference import reference_evaluate


def registry():
    functions = FunctionRegistry()
    install_standard_functions(functions)
    functions.register("coverage",
                       lambda camera_id, loc: camera_id == "cam1", arity=2)
    return functions


FUNCTIONS = registry()


def outcome(function, expression, context):
    """A comparable record of one evaluation: its value or its error."""
    try:
        value = function(expression, context)
    except Exception as error:  # noqa: BLE001 - errors are the subject
        return ("raised", type(error), str(error))
    if isinstance(value, float) and math.isnan(value):
        return ("value", float, "nan")
    return ("value", type(value), repr(value))


def compiled(expression, context):
    return compile_expression(expression)(context)


def assert_agrees(expression, context):
    expected = outcome(reference_evaluate, expression, context)
    assert outcome(compiled, expression, context) == expected
    return expected


# ----------------------------------------------------------------------
# Generated expressions and contexts
# ----------------------------------------------------------------------
NUMBERS = st.one_of(st.integers(-3, 3),
                    st.sampled_from([0.0, 0.5, -2.5, 7.0, 1e308]))
LITERALS = st.builds(Literal, st.one_of(
    NUMBERS, st.booleans(), st.sampled_from(["", "m1", "cam1", "a"])))
COLUMNS = st.builds(
    ColumnRef,
    st.sampled_from(["", "s", "c", "x"]),
    st.sampled_from(["id", "temperature", "accel_x", "ip", "loc",
                     "loc_x", "zoom", "flag", "missing"]))
FUNCTION_NAMES = st.sampled_from(
    ["abs", "min", "max", "distance", "coverage", "nosuch"])


def extend(children):
    return st.one_of(
        st.builds(Comparison,
                  st.sampled_from([">", "<", ">=", "<=", "=", "<>", "~"]),
                  children, children),
        st.builds(Arithmetic, st.sampled_from(["+", "-", "*", "/", "%"]),
                  children, children),
        st.builds(Negate, children),
        st.builds(BooleanOp, st.sampled_from(["AND", "OR"]),
                  st.lists(children, min_size=0, max_size=3).map(tuple)),
        st.builds(Not, children),
        st.builds(FunctionCall, FUNCTION_NAMES,
                  st.lists(children, max_size=3).map(tuple)),
    )


EXPRESSIONS = st.recursive(
    st.one_of(LITERALS, COLUMNS, st.just(Star())), extend, max_leaves=8)


@st.composite
def rows(draw, device_type, device_id):
    values = {"id": device_id}
    for name, strategy in (
            ("temperature", NUMBERS),
            ("accel_x", NUMBERS),
            ("loc_x", NUMBERS),
            ("loc_y", NUMBERS),
            ("ip", st.sampled_from(["10.0.0.1", "a"])),
            ("flag", st.booleans()),
            ("loc", st.sampled_from(["room-7"]))):
        if draw(st.booleans()):
            values[name] = draw(strategy)
    return DeviceTuple(device_type, device_id, values)


@st.composite
def contexts(draw):
    tuples = {}
    if draw(st.booleans()):
        tuples["s"] = draw(rows("sensor", "m1"))
    if draw(st.booleans()):
        tuples["c"] = draw(rows("camera", "cam1"))
    functions = FUNCTIONS if draw(st.integers(0, 4)) else None
    return EvaluationContext(tuples=tuples, functions=functions)


@settings(max_examples=600, deadline=None)
@given(EXPRESSIONS, contexts())
def test_compiled_matches_reference(expression, context):
    assert_agrees(expression, context)


@settings(max_examples=100, deadline=None)
@given(EXPRESSIONS, st.lists(contexts(), min_size=2, max_size=4))
def test_one_closure_serves_many_contexts(expression, many):
    """A closure keeps no state between calls."""
    closure = compile_expression(expression)
    for context in many:
        assert outcome(lambda e, c: closure(c), expression, context) \
            == outcome(reference_evaluate, expression, context)


# ----------------------------------------------------------------------
# The error cases, pinned
# ----------------------------------------------------------------------
SENSOR = DeviceTuple("sensor", "m1", {
    "id": "m1", "loc_x": 3.0, "loc_y": 4.0, "temperature": 22.0,
    "accel_x": 800.0})
CAMERA = DeviceTuple("camera", "cam1", {
    "id": "cam1", "ip": "10.0.0.1", "loc_x": 0.0, "loc_y": 0.0})
BOTH = EvaluationContext(tuples={"s": SENSOR, "c": CAMERA},
                         functions=FUNCTIONS)


@pytest.mark.parametrize("text, error", [
    ("z.temperature > 1", "unknown table alias 'z'"),
    ("s.temperature AND s.accel_x > 1", "expected a boolean condition"),
    ("s.accel_x > 1 OR 7", None),  # OR stops at the first True
    ("s.accel_x < 1 OR 7", "expected a boolean condition"),
    ("NOT s.temperature", "expected a boolean condition"),
    ("s.id > 5", "cannot compare str with int"),
    ("s.temperature / 0 > 1", "division by zero"),
    ("nosuch(s.id)", "unknown function 'nosuch'"),
    ("coverage(c.id)", "takes 2 argument(s), got 1"),
    ("id = \"m1\"", "ambiguous column 'id'"),
    ("loc", "ambiguous column 'loc'"),
    ("distance(s.loc, c.loc) = 5.0", None),
    ("temperature > 20", None),
    ("coverage(c.id, s.loc)", None),
])
def test_pinned_case_agrees(text, error):
    expected = assert_agrees(parse_expression(text), BOTH)
    if error is None:
        assert expected[0] == "value"
    else:
        assert expected[0] == "raised" and error in expected[2]


def test_loc_pseudo_column_builds_a_point():
    context = EvaluationContext(tuples={"s": SENSOR})
    kind, value_type, text = assert_agrees(parse_expression("s.loc"),
                                           context)
    assert (kind, value_type.__name__, text) == \
        ("value", "Point", "Point(x=3.0, y=4.0)")
    assert_agrees(parse_expression("loc"), context)


def test_no_registry_is_a_binding_error():
    context = EvaluationContext(tuples={"s": SENSOR})
    expected = assert_agrees(parse_expression("abs(s.temperature)"),
                             context)
    assert expected[1].__name__ == "BindingError"
