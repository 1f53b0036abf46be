"""Residuals, Newton solver, error bound and derivative estimation."""

import math

import numpy as np
import pytest

from legpulse.basis import BasisConfig, CoeffVector, eval_basis, project_function, reconstruct
from legpulse.solver import (
    AssembledSystem,
    assemble,
    derivative_max,
    error_bound,
    residual,
    residual_fredholm,
    residual_volterra,
    solve,
)

E = math.e


def fredholm_exp_system(r=2, q=1):
    cfg = BasisConfig(q=q, r=r)
    return assemble(
        cfg,
        "fredholm",
        1.0,
        lambda t, s: np.exp(t - s),
        lambda t: np.exp(t + 1.0),
        0,
        1,
        (1.0,),
    )


def volterra_sin_system():
    cfg = BasisConfig(q=4, r=3)
    return assemble(
        cfg,
        "volterra",
        1.0,
        lambda t, s: np.sin(t - s),
        lambda t: 2 * t**3 + t**2 - 12 * t + 12 * np.sin(t),
        0,
        1,
        (0.0,),
    )


def test_assemble_validates_kind_and_orders():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="kind"):
        assemble(cfg, "hammerstein", 1.0, lambda t, s: 1.0, lambda t: 1.0, 0, 0)
    with pytest.raises(ValueError, match="initial condition"):
        assemble(cfg, "fredholm", 1.0, lambda t, s: 1.0, lambda t: 1.0, 0, 1, ())


def test_zero_scalar_fredholm_returns_forcing_unchanged():
    cfg = BasisConfig(q=2, r=3)
    system = assemble(
        cfg, "fredholm", 0.0, lambda t, s: np.cos(t * s), np.sin, 0, 0
    )
    report = solve(system)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.Y.coeffs, system.forcing.coeffs)
    assert report.residual_norm == 0.0


def test_zero_scalar_volterra_returns_forcing_unchanged():
    cfg = BasisConfig(q=3, r=2)
    system = assemble(
        cfg, "volterra", 0.0, lambda t, s: t + s, np.cos, 0, 0
    )
    report = solve(system)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.Y.coeffs, system.forcing.coeffs)


def test_fredholm_residual_at_exact_solution_projection():
    # the projection of exp(t) is (e-1, 9-3e); it does NOT satisfy the
    # projected system: the residual max-norm is 0.0522159...
    system = fredholm_exp_system()
    res = residual_fredholm(system, np.array([E - 1.0, 9.0 - 3.0 * E]))
    assert np.max(np.abs(res)) == pytest.approx(0.0522159491, abs=1e-6)


def test_fredholm_newton_root_is_reproducible():
    # frozen root of the projected r=2, q=1 system
    report = solve(fredholm_exp_system())
    assert report.converged
    assert report.residual_norm <= 1e-12
    np.testing.assert_allclose(
        report.Y.coeffs, [1.73018296084, 0.851008208466], atol=1e-6
    )


def test_volterra_residual_small_at_published_vector():
    published = np.array(
        [
            0.0208333, 0.0312487, 0.0104375,
            0.145833, 0.0937492, 0.0104781,
            0.395833, 0.15625, 0.0105145,
            0.770834, 0.218753, 0.010543,
        ]
    )
    res = residual_volterra(volterra_sin_system(), published)
    assert np.max(np.abs(res)) <= 1e-5


def test_volterra_newton_converges_quickly():
    report = solve(volterra_sin_system())
    assert report.converged
    assert report.iterations <= 10
    assert report.residual_norm <= 1e-12


def test_residual_dispatch():
    system = fredholm_exp_system()
    y = np.array([1.0, 0.5])
    np.testing.assert_array_equal(residual(system, y), residual_fredholm(system, y))


def test_forward_difference_jacobian_close_to_central():
    from legpulse.solver import _fd_jacobian

    system = fredholm_exp_system()
    y = np.array([1.2, 0.7])
    jac = _fd_jacobian(system, y, residual(system, y))
    h = 1e-6
    central = np.empty((2, 2))
    for i in range(2):
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        central[:, i] = (residual(system, up) - residual(system, down)) / (2 * h)
    np.testing.assert_allclose(jac, central, rtol=1e-5, atol=1e-7)


def test_solve_validates_inputs():
    system = fredholm_exp_system()
    with pytest.raises(ValueError):
        solve(system, tol=0.0)
    with pytest.raises(ValueError):
        solve(system, max_iter=0)


def test_config_mismatch_between_pieces_rejected():
    good = fredholm_exp_system()
    other = fredholm_exp_system(r=3, q=1)
    with pytest.raises(ValueError, match="built for"):
        AssembledSystem(
            kind=good.kind,
            scalar=good.scalar,
            kernel=other.kernel,
            forcing=good.forcing,
            m=good.m,
            n=good.n,
            ics=good.ics,
            tensor=good.tensor,
            P=good.P,
            L=good.L,
            J=good.J,
        )


def test_fredholm_residual_matches_direct_quadrature():
    # constant kernel, m = n = 0: the projected integral term is exact for
    # any coefficient vector, so the residual must match a dense-quadrature
    # evaluation of Y + proj(integral k u^2) - F
    cfg = BasisConfig(q=3, r=3)
    lam = 0.7
    system = assemble(
        cfg, "fredholm", lam, lambda t, s: 1.0, np.exp, 0, 0
    )
    rng = np.random.default_rng(41)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    for _ in range(3):
        y = rng.uniform(-1.0, 1.0, cfg.dim)
        u = CoeffVector(cfg, y)

        def usq_integral():
            total = 0.0
            for k in range(cfg.q):
                a, b = k / cfg.q, (k + 1) / cfg.q
                ts = (nodes + 1.0) / 2.0 * (b - a) + a
                vals = np.array([reconstruct(u, t) ** 2 for t in ts])
                total += float(np.dot(weights, vals)) * (b - a) / 2.0
            return total

        integral = usq_integral()
        expected = (
            y
            + lam * project_function(cfg, lambda t: integral).coeffs
            - system.forcing.coeffs
        )
        np.testing.assert_allclose(
            residual_fredholm(system, y), expected, atol=1e-8
        )


def test_volterra_residual_matches_direct_quadrature_for_block_constants():
    # constant kernel, m = n = 0, blockwise-constant u: the running integral
    # of u^2 is piecewise linear, inside the space, so the projected residual
    # is exact
    cfg = BasisConfig(q=4, r=3)
    beta = 0.9
    system = assemble(cfg, "volterra", beta, lambda t, s: 1.0, np.sin, 0, 0)
    rng = np.random.default_rng(43)
    y = np.zeros(cfg.dim)
    y[:: cfg.r] = rng.uniform(-1.0, 1.0, cfg.q)
    u = CoeffVector(cfg, y)

    def running_integral(t):
        # u is constant on each block, so integrate u^2 blockwise
        total = 0.0
        block_width = 1.0 / cfg.q
        for k in range(cfg.q):
            a = k * block_width
            if t <= a:
                break
            c = y[k * cfg.r]
            total += c * c * (min(t, a + block_width) - a)
        return total

    expected = (
        y
        + beta * project_function(cfg, np.vectorize(running_integral)).coeffs
        - system.forcing.coeffs
    )
    np.testing.assert_allclose(residual_volterra(system, y), expected, atol=1e-10)


def test_error_bound_values():
    assert error_bound(1, E) == pytest.approx(E / 16.0, abs=1e-15)
    assert error_bound(2, E) == pytest.approx(E / 192.0, abs=1e-15)
    assert error_bound(2, 2.0) == pytest.approx(0.0104166667, abs=1e-9)
    assert error_bound(0, 0.0) == 0.0


def test_error_bound_decreases_with_degree():
    for mu in range(6):
        assert error_bound(mu + 1, 3.0) < error_bound(mu, 3.0)


def test_error_bound_validation():
    with pytest.raises(ValueError):
        error_bound(-1, 1.0)
    with pytest.raises(ValueError):
        error_bound(2, -1.0)
    with pytest.raises(ValueError):
        error_bound(2, float("inf"))


def test_derivative_max_exponential():
    # third derivative of exp on the clipped grid [0.03, 0.97]
    assert derivative_max(np.exp, 3) == pytest.approx(math.exp(0.97), abs=2e-3)


def test_derivative_max_vanishing_higher_derivative():
    assert derivative_max(lambda t: t * t, 3) <= 1e-6


def test_derivative_max_first_order_and_plain_max():
    assert derivative_max(np.sin, 1) == pytest.approx(math.cos(0.01), abs=1e-6)
    assert derivative_max(np.sin, 0) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_derivative_max_validation():
    with pytest.raises(ValueError):
        derivative_max(math.exp, -1)
    with pytest.raises(ValueError):
        derivative_max(math.exp, 2, 0.0, 0.01)
