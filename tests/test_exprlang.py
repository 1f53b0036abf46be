"""Expression language: parsing, evaluation, errors and round-tripping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legpulse.basis import BasisConfig, project_function, project_kernel
from legpulse.exprlang import (
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    FUNCTIONS,
    Name,
    Neg,
    Num,
    UnknownIdentifier,
    evaluate,
    parse_expression,
    to_string,
    variables,
)


def value(source, t=0.0, s=None):
    return evaluate(parse_expression(source), t, s)


def test_arithmetic_precedence():
    assert value("2+3*4") == 14.0
    assert value("(2+3)*4") == 20.0
    assert value("6/3/2") == 1.0
    assert value("1-2-3") == -4.0
    assert value("2*3+4*5") == 26.0


def test_power_binds_tighter_than_unary_minus():
    assert value("-t^2", t=2.0) == -4.0
    assert value("(-t)^2", t=2.0) == 4.0


def test_power_is_right_associative():
    assert value("2^3^2") == 512.0
    assert value("2^-3") == 0.125


def test_unary_minus():
    assert value("2*-3") == -6.0
    assert value("--5") == 5.0
    assert value("-t", t=1.5) == -1.5


def test_number_literals():
    assert value("1e-2") == 0.01
    assert value(".5 + 1") == 1.5
    assert value("2.5E3") == 2500.0
    assert value("7") == 7.0


def test_constants_and_variables():
    assert value("pi") == math.pi
    assert value("e") == math.e
    assert value("t + s", t=1.0, s=2.0) == 3.0
    assert value("e^2") == pytest.approx(math.e**2, rel=1e-15)


def test_functions():
    assert value("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert value("cos(0)") == 1.0
    assert value("exp(1)") == math.e
    assert value("log(e)") == pytest.approx(1.0, abs=1e-15)
    assert value("sqrt(9)") == 3.0
    assert value("abs(-4)") == 4.0
    assert value("exp(t - s)", t=1.0, s=0.5) == pytest.approx(math.exp(0.5))


def test_whitespace_is_ignored():
    assert value(" 2 + 3 * t ", t=2.0) == 8.0


def test_python_power_operator_is_rejected_with_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2**t")
    assert info.value.position == 2
    assert "position 2" in str(info.value)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("")
    assert info.value.position == 0

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2+")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("sin(t")
    assert info.value.position == 5

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2 3")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2 @ 3")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError, match="not finite") as info:
        parse_expression("2*t + 1e999")
    assert info.value.position == 6


def test_unknown_names_are_flagged_at_their_offset():
    with pytest.raises(UnknownIdentifier) as info:
        parse_expression("foo")
    assert info.value.position == 0

    with pytest.raises(UnknownIdentifier) as info:
        parse_expression("2 + tan(t)")
    assert info.value.position == 4


def test_domain_errors_name_the_subexpression():
    with pytest.raises(ExprEvalError, match="log"):
        value("log(0)")
    with pytest.raises(ExprEvalError, match="sqrt"):
        value("sqrt(0 - 1)")
    with pytest.raises(ExprEvalError, match="/"):
        value("1/0")
    with pytest.raises(ExprEvalError):
        value("(0 - 2)^0.5")


def test_unbound_s_is_an_evaluation_error():
    tree = parse_expression("s + 1")
    with pytest.raises(ExprEvalError, match="'s'"):
        evaluate(tree, 0.5)
    assert evaluate(tree, 0.5, 2.0) == 3.0


def test_variables_reported():
    assert variables(parse_expression("exp(t - s)")) == frozenset({"t", "s"})
    assert variables(parse_expression("sin(t)")) == frozenset({"t"})
    assert variables(parse_expression("pi * e")) == frozenset()


def test_non_finite_literal_rejected():
    with pytest.raises(ValueError):
        Num(float("nan"))


ROUND_TRIP_CORPUS = [
    "2+3*4",
    "-t^2",
    "2^-3",
    "2^3^2",
    "(1 + t) * (1 - t)",
    "sin(t)*cos(s)",
    "exp(t - s)",
    "2*t^3 + t^2 - 12*t + 12*sin(t)",
    "e^(t + 1)",
    "-(t + s)",
    "--t",
    "1/(1 + t^2)",
    "sqrt(abs(t - 1))",
    "t/(s + 1)/2",
    "pi*e - t",
]


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_to_string_round_trips_structurally(source):
    tree = parse_expression(source)
    assert parse_expression(to_string(tree)) == tree


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_to_string_round_trips_numerically(source):
    tree = parse_expression(source)
    back = parse_expression(to_string(tree))
    for t, s in [(0.1, 0.9), (0.5, 0.25), (0.99, 0.0)]:
        assert evaluate(back, t, s) == evaluate(tree, t, s)


def ast_strategy(max_literal=1e6):
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=max_literal, allow_nan=False)),
        st.sampled_from([Name("t"), Name("s"), Name("pi"), Name("e")]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
            st.builds(
                BinOp, st.sampled_from(list("+-*/^")), children, children
            ),
        ),
        max_leaves=20,
    )


@settings(deadline=None, max_examples=200)
@given(tree=ast_strategy())
def test_round_trip_arbitrary_trees(tree):
    assert parse_expression(to_string(tree)) == tree


@given(t=st.floats(min_value=0.0, max_value=1.0), s=st.floats(min_value=0.0, max_value=1.0))
def test_evaluation_is_pure(t, s):
    tree = parse_expression("exp(t - s) * sin(t + s)")
    first = evaluate(tree, t, s)
    second = evaluate(tree, t, s)
    assert first == second


def test_array_domain_error_reports_first_offending_element():
    tree = parse_expression("log(t - 0.5)")
    with pytest.raises(ExprEvalError, match=r"log\(t-0\.5\) for argument -0\.3"):
        evaluate(tree, np.array([0.75, 0.2, 0.5]))
    # row-major order: (t=0.5, s=1) comes before (t=0.25, s=1)
    with pytest.raises(ExprEvalError, match=r"for operands 0\.5 and 0\.0"):
        evaluate(parse_expression("t/(s - 1)"), np.array([[0.5], [0.25]]), np.array([0.0, 1.0]))


def test_overflow_is_an_evaluation_error():
    with pytest.raises(ExprEvalError, match=r"\*"):
        value("1e300*1e300")
    with pytest.raises(ExprEvalError, match="exp"):
        value("exp(t)", t=1000.0)
    assert value("exp(-t)", t=1000.0) == 0.0


POINTS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)


@settings(deadline=None, max_examples=300)
@given(tree=ast_strategy(max_literal=10.0), ts=POINTS, ss=POINTS)
def test_array_evaluation_matches_per_point_evaluation(tree, ts, ss):
    # t is a column and s a row, so the result spans every (t, s) pair
    t, s = np.array(ts)[:, None], np.array(ss)
    expected = np.empty((len(ts), len(ss)))
    try:
        for i, ti in enumerate(ts):
            for j, sj in enumerate(ss):
                point = evaluate(tree, ti, sj)
                assert isinstance(point, float)
                expected[i, j] = point
    except ExprEvalError:
        with pytest.raises(ExprEvalError):
            evaluate(tree, t, s)
        return
    got = evaluate(tree, t, s)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "kernel, explicit",
    [("2", "2 + 0*t*s"), ("t", "t + 0*s"), ("cos(s)", "cos(s) + 0*t")],
)
def test_kernel_with_fewer_variables_projects_like_two_variable_form(kernel, explicit):
    cfg = BasisConfig(q=3, r=2)
    short, full = parse_expression(kernel), parse_expression(explicit)
    nodes = np.linspace(0.0, 0.9, 5)
    assert evaluate(short, nodes[:, None], nodes).shape == (5, 5)
    np.testing.assert_array_equal(
        project_kernel(cfg, lambda t, s: evaluate(short, t, s)),
        project_kernel(cfg, lambda t, s: evaluate(full, t, s)),
    )


def test_constant_forcing_projects_like_one_variable_form():
    cfg = BasisConfig(q=3, r=2)
    short, full = parse_expression("3"), parse_expression("3 + 0*t")
    assert evaluate(short, np.zeros((2, 4))).shape == (2, 4)
    np.testing.assert_array_equal(
        project_function(cfg, lambda t: evaluate(short, t)),
        project_function(cfg, lambda t: evaluate(full, t)),
    )
