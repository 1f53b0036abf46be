"""Legendre recursion and Gauss rules against closed-form and numpy oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from legpulse.legendre import QuadratureRule, gauss_rule, legendre_table


def legendre_closed_form(m: int, x: float) -> float:
    # p_m(x) = 2^-m sum_k C(m,k)^2 (x-1)^(m-k) (x+1)^k
    total = 0.0
    for k in range(m + 1):
        total += math.comb(m, k) ** 2 * (x - 1.0) ** (m - k) * (x + 1.0) ** k
    return total / 2.0**m


def test_recursion_matches_closed_form():
    grid = np.linspace(-1.0, 1.0, 101)
    table = legendre_table(11, grid)
    for m in range(11):
        for j, x in enumerate(grid):
            assert table[m, j] == pytest.approx(
                legendre_closed_form(m, x), abs=1e-11
            )


def test_low_order_values():
    assert legendre_table(1, [0.3])[0, 0] == 1.0
    assert legendre_table(2, [0.3])[1, 0] == 0.3
    assert legendre_table(3, [0.5])[2, 0] == pytest.approx(-0.125, abs=1e-15)
    assert legendre_table(4, [0.5])[3, 0] == pytest.approx(-0.4375, abs=1e-15)


def test_endpoint_values():
    table = legendre_table(8, [1.0, -1.0])
    for m in range(8):
        assert table[m, 0] == pytest.approx(1.0, abs=1e-13)
        assert table[m, 1] == pytest.approx((-1.0) ** m, abs=1e-13)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        legendre_table(0, [0.0])
    with pytest.raises(ValueError):
        legendre_table(-1, [0.0])


def test_table_matches_pointwise_eval():
    # a column of the table does not depend on the other points asked for
    x = np.linspace(-1.0, 1.0, 17)
    table = legendre_table(6, x)
    assert table.shape == (6, 17)
    for j, xj in enumerate(x):
        single = legendre_table(6, [xj])[:, 0]
        for m in range(6):
            assert table[m, j] == pytest.approx(single[m], abs=1e-14)


@given(st.integers(min_value=0, max_value=12), st.floats(min_value=-1.0, max_value=1.0))
def test_bounded_by_one_on_interval(m, x):
    assert abs(legendre_table(m + 1, [x])[m, 0]) <= 1.0 + 1e-12


def test_gauss_nodes_and_weights_match_numpy():
    for n in range(1, 13):
        rule = gauss_rule(n)
        nodes, weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(rule.nodes, nodes, atol=1e-13, rtol=0.0)
        np.testing.assert_allclose(rule.weights, weights, atol=1e-13, rtol=0.0)


def test_gauss_integrates_monomials_exactly():
    for n in range(1, 11):
        rule = gauss_rule(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = rule.integrate(rule.nodes**k)
            assert approx == pytest.approx(exact, abs=1e-13)


def test_gauss_symmetry_and_weight_sum():
    for n in (2, 5, 9, 24):
        rule = gauss_rule(n)
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-14)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-13)


def test_gauss_orthogonality_of_legendre():
    rule = gauss_rule(10)
    table = legendre_table(10, rule.nodes)
    for i in range(10):
        for j in range(i + 1):
            integral = rule.integrate(table[i] * table[j])
            expected = 2.0 / (2 * i + 1) if i == j else 0.0
            assert integral == pytest.approx(expected, abs=1e-12)


def test_gauss_size_validation():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_single_point_rule_is_midpoint():
    rule = gauss_rule(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == 2.0


def test_integrate_is_dot_product():
    rule = QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, 1.0]))
    assert rule.integrate(np.array([3.0, 4.0])) == 7.0
