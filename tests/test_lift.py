"""Derivative lift against its closed form and polynomial ground truth."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legpulse.basis import BasisConfig, project_function
from legpulse.lift import lift, lift_offset
from legpulse.opmatrices import build_J

E = math.e


def _constant(a, cfg):
    """Projection of the constant function a: a in every order-0 slot."""
    coeffs = np.zeros(cfg.dim)
    coeffs[:: cfg.r] = a
    return coeffs


def test_lift_order_zero_is_identity():
    cfg = BasisConfig(q=2, r=3)
    Y = np.arange(6, dtype=float)
    lifted = lift(Y, 0, (), cfg)
    np.testing.assert_allclose(lifted, Y, atol=0.0)


def test_lift_requires_enough_initial_conditions():
    cfg = BasisConfig(q=1, r=3)
    Y = np.zeros(3)
    with pytest.raises(ValueError, match="2 initial conditions"):
        lift(Y, 2, (1.0,), cfg)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_lift_offset_is_the_affine_lift(n):
    cfg = BasisConfig(q=3, r=3)
    ics = (0.7, -1.3)
    A, b = np.linalg.matrix_power(build_J(cfg), n), lift_offset(n, ics, cfg)
    y = np.random.default_rng(n).standard_normal(cfg.dim)
    expected = lift(y, n, ics, cfg)
    np.testing.assert_allclose(A @ y + b, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_lift_single_block_closed_form():
    # J (Y - Y0) with Y the projection of exp and Y0 = (1, 0):
    # [[0, 2], [-6, 6]] (e-2, 9-3e) = (18-6e, 66-24e)
    cfg = BasisConfig(q=1, r=2)
    Y = np.array([E - 1.0, 9.0 - 3.0 * E])
    lifted = lift(Y, 1, (1.0,), cfg)
    np.testing.assert_allclose(
        lifted, [18.0 - 6.0 * E, 66.0 - 24.0 * E], atol=1e-12
    )


@settings(deadline=None, max_examples=30)
@given(
    q=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_iterated_lift_matches_closed_form(q, r, n, seed):
    # unrolled recursion: J^n Y - sum_{k=1..n} J^k Y0^(n-k)
    cfg = BasisConfig(q=q, r=r)
    J = build_J(cfg)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, cfg.dim)
    ics = tuple(rng.uniform(-1.0, 1.0, n))
    lifted = lift(Y, n, ics, cfg)

    expected = np.linalg.matrix_power(J, n) @ Y
    for k in range(1, n + 1):
        y0 = _constant(ics[n - k], cfg)
        expected -= np.linalg.matrix_power(J, k) @ y0
    # J^4 entries reach ~1e4 at these shapes, so allow matching relative slack
    np.testing.assert_allclose(lifted, expected, rtol=1e-10, atol=1e-10)


def test_lift_composes():
    cfg = BasisConfig(q=2, r=4)
    rng = np.random.default_rng(17)
    Y = rng.uniform(-1.0, 1.0, cfg.dim)
    a0, a1 = 0.7, -0.3
    two_steps = lift(lift(Y, 1, (a0,), cfg), 1, (a1,), cfg)
    direct = lift(Y, 2, (a0, a1), cfg)
    np.testing.assert_allclose(two_steps, direct, atol=1e-12)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_polynomial_first_derivative_is_exact(r):
    # y = sum of t^j for j < r lies in the space; the lift of its projection
    # must equal the projection of y'
    cfg = BasisConfig(q=1, r=r)
    y = lambda t: sum(t**j for j in range(r))
    dy = lambda t: sum(j * t ** (j - 1) for j in range(1, r))
    Y = project_function(cfg, y)
    lifted = lift(Y, 1, (1.0,), cfg)
    expected = project_function(cfg, dy)
    np.testing.assert_allclose(lifted, expected, atol=1e-9)


@pytest.mark.parametrize("q", [1, 3])
def test_polynomial_second_derivative_is_exact(q):
    # y = 1 + t + t^2 + t^3 with y'(0) = 1: lift twice against y''
    cfg = BasisConfig(q=q, r=4)
    Y = project_function(cfg, lambda t: 1.0 + t + t**2 + t**3)
    lifted = lift(Y, 2, (1.0, 1.0), cfg)
    expected = project_function(cfg, lambda t: 2.0 + 6.0 * t)
    np.testing.assert_allclose(lifted, expected, atol=1e-9)


def test_lift_negative_order_rejected():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError):
        lift(np.zeros(2), -1, (), cfg)


def test_lift_takes_one_coefficient_vector():
    cfg = BasisConfig(q=3, r=3)
    ics = (0.4, -1.1)
    for bad in (np.zeros((cfg.dim, 2)), np.zeros(cfg.dim - 1)):
        with pytest.raises(ValueError, match="coefficient vector must have length 9"):
            lift(bad, 2, ics, cfg)
