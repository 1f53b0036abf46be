"""Hybrid basis evaluation and projections against published and closed-form data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss, legvander

from legpulse.basis import (
    BasisConfig,
    block_of,
    eval_basis,
    project_function,
    project_kernel,
    reconstruct,
)

E = math.e

# 12-vector published for the projection of 2t^3 + t^2 - 12t + 12 sin(t)
# at r=3, q=4 (values displayed to 6 significant figures)
PUBLISHED_VOLTERRA_F = (
    0.0208496, 0.0312848, 0.0104457,
    0.146854, 0.0951443, 0.0109877,
    0.406543, 0.166108, 0.0129514,
    0.824576, 0.255306, 0.0171862,
)


def test_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(q=0, r=2)
    with pytest.raises(ValueError):
        BasisConfig(q=1, r=0)
    assert BasisConfig(q=4, r=3).dim == 12


def test_block_of_assigns_half_open_blocks():
    cfg = BasisConfig(q=4, r=2)
    assert block_of(cfg, 0.0) == 1
    assert block_of(cfg, 0.2499) == 1
    assert block_of(cfg, 0.25) == 2
    assert block_of(cfg, 0.75) == 4
    assert block_of(cfg, 0.999) == 4
    with pytest.raises(ValueError):
        block_of(cfg, 1.0)
    with pytest.raises(ValueError):
        block_of(cfg, -0.1)


def test_eval_basis_single_block():
    cfg = BasisConfig(q=1, r=2)
    np.testing.assert_allclose(eval_basis(cfg, 0.3), [1.0, -0.4], atol=1e-14)
    np.testing.assert_allclose(eval_basis(cfg, 0.0), [1.0, -1.0], atol=1e-14)


def test_eval_basis_block_support():
    # t = 0.3 falls in block 2 of 4; local coordinate x = 8*0.3 - 3 = -0.6
    cfg = BasisConfig(q=4, r=3)
    values = eval_basis(cfg, 0.3)
    expected = np.zeros(12)
    expected[3] = 1.0
    expected[4] = -0.6
    expected[5] = (3 * 0.36 - 1.0) / 2.0
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_project_constant():
    cfg = BasisConfig(q=3, r=4)
    proj = project_function(cfg, lambda t: 2.5)
    expected = np.zeros(12)
    expected[::4] = 2.5
    np.testing.assert_allclose(proj, expected, atol=1e-13)


def test_project_identity_function():
    # t = (1 + (2t - 1)) / 2, so the single-block coefficients are (1/2, 1/2)
    cfg = BasisConfig(q=1, r=4)
    proj = project_function(cfg, lambda t: t)
    np.testing.assert_allclose(proj, [0.5, 0.5, 0.0, 0.0], atol=1e-13)


def test_project_exponential_single_block():
    # integral of exp against 1 and 2t-1 on [0, 1]: e - 1 and 3(3 - e)
    cfg = BasisConfig(q=1, r=2)
    proj = project_function(cfg, np.exp)
    np.testing.assert_allclose(
        proj, [E - 1.0, 9.0 - 3.0 * E], atol=1e-13
    )


def test_project_matches_published_volterra_forcing():
    cfg = BasisConfig(q=4, r=3)
    proj = project_function(
        cfg, lambda t: 2 * t**3 + t**2 - 12 * t + 12 * np.sin(t)
    )
    np.testing.assert_allclose(proj, PUBLISHED_VOLTERRA_F, atol=1e-6)


def test_project_function_reports_bad_integrand():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="node"):
        project_function(cfg, lambda t: float("nan"))


def test_kernel_projection_closed_form():
    # exp(t - s) at r=2, q=1 has a separable closed form
    cfg = BasisConfig(q=1, r=2)
    K = project_kernel(cfg, lambda t, s: np.exp(t - s))
    expected = np.array(
        [
            [E + 1.0 / E - 2.0, 3.0 * (E + 3.0 / E - 4.0)],
            [3.0 * (-E + 4.0 - 3.0 / E), 9.0 * (6.0 - E - 9.0 / E)],
        ]
    )
    np.testing.assert_allclose(K, expected, atol=1e-12)


def test_kernel_projection_matches_published_entry():
    cfg = BasisConfig(q=4, r=3)
    G = project_kernel(cfg, lambda t, s: np.sin(t - s))
    assert G[0, 1] == pytest.approx(-0.1245, abs=5e-5)
    assert G[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_kernel_projection_is_separable_product():
    # g(t,s) = u(t) v(s) projects to the outer product of the 1-D projections
    cfg = BasisConfig(q=2, r=3)
    u, v = np.cos, np.exp
    K = project_kernel(cfg, lambda t, s: u(t) * v(s))
    U = project_function(cfg, u)
    V = project_function(cfg, v)
    np.testing.assert_allclose(K, np.outer(U, V), atol=1e-12)


def test_projections_match_blockwise_reference():
    # reference: one block (pair) at a time, the way the projections were
    # computed before they were vectorized
    cfg = BasisConfig(q=12, r=3)
    q, r = cfg.q, cfg.r
    x, w = leggauss(cfg.quad_points)
    wleg = legvander(x, r - 1).T * w
    scale = np.arange(r) + 0.5
    nodes = [(x + 2 * k + 1) / (2 * q) for k in range(q)]
    for g in (lambda t, s: np.exp(t - s), lambda t, s: np.sin(t - s)):
        K = project_kernel(cfg, g)
        for k, ts in enumerate(nodes):
            for kp, ss in enumerate(nodes):
                block = np.outer(scale, scale) * (wleg @ g(ts[:, None], ss) @ wleg.T)
                np.testing.assert_allclose(
                    K[k * r : (k + 1) * r, kp * r : (kp + 1) * r], block, rtol=0, atol=1e-14
                )
    F = project_function(cfg, lambda t: np.exp(t + 1.0))
    for k, ts in enumerate(nodes):
        expected = scale * (wleg @ np.exp(ts + 1.0))
        np.testing.assert_allclose(F[k * r : (k + 1) * r], expected, rtol=0, atol=1e-14)


def test_kernel_projection_reports_bad_kernel():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="node"):
        project_kernel(cfg, lambda t, s: float("inf"))


def test_reconstruct_affine_closed_form():
    cfg = BasisConfig(q=1, r=2)
    Y = np.array([E - 1.0, 9.0 - 3.0 * E])
    for t in np.linspace(0.0, 0.999, 100):
        expected = (4.0 * E - 10.0) + (18.0 - 6.0 * E) * t
        assert reconstruct(cfg, Y, t) == pytest.approx(expected, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(min_value=1, max_value=6),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_projection_recovers_basis_expansions(q, r, seed):
    # project(reconstruct(Y)) == Y: the projection is the identity on the space
    cfg = BasisConfig(q=q, r=r)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-2.0, 2.0, cfg.dim)
    proj = project_function(cfg, lambda t: reconstruct(cfg, Y, t))
    np.testing.assert_allclose(proj, Y, atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(min_value=1, max_value=5),
    r=st.integers(min_value=1, max_value=5),
)
def test_basis_orthogonality(q, r):
    # <b_i, b_j> = delta_ij / ((2 m_i + 1) q), via an independent per-block rule
    cfg = BasisConfig(q=q, r=r)
    ts, weights = blockwise_rule(q)
    samples = np.array([eval_basis(cfg, t) for t in ts])
    gram = samples.T @ (weights[:, None] * samples)
    expected = np.diag(np.tile(1.0 / ((2.0 * np.arange(r) + 1.0) * q), q))
    np.testing.assert_allclose(gram, expected, atol=1e-12)


def blockwise_rule(q, points=50):
    """Dense numpy Gauss rule mapped into each of the q blocks of [0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    ts, ws = [], []
    for k in range(q):
        a, b = k / q, (k + 1) / q
        ts.append((nodes + 1.0) / 2.0 * (b - a) + a)
        ws.append(weights * (b - a) / 2.0)
    return np.concatenate(ts), np.concatenate(ws)


@pytest.mark.parametrize("r", [3, 5, 30])
def test_projection_exact_up_to_degree_2q_minus_r(r):
    # the integrand f * p_m has degree deg f + r - 1, so the quad_points-point
    # rule is exact for deg f <= 2 * quad_points - r and no further.  f is the
    # Legendre polynomial of that degree on each block, whose exact projection
    # onto orders below r is zero; the top degrees of a monomial are too small
    # at 24 points to show the inexact side
    cfg = BasisConfig(q=2, r=r)
    points = cfg.quad_points
    assert points == max(24, r)

    def local_legendre(t, degree):
        k = np.minimum(np.floor(t * cfg.q), cfg.q - 1)
        return np.polynomial.legendre.Legendre.basis(degree)(2 * cfg.q * t - 2 * k - 1)

    errors = [
        np.max(np.abs(project_function(cfg, lambda t: local_legendre(t, degree))))
        for degree in (2 * points - r, 2 * points - r + 1)
    ]
    assert errors[0] <= 1e-13
    assert errors[1] >= 1e-7


def test_coeff_vector_validation():
    cfg = BasisConfig(q=2, r=2)
    with pytest.raises(ValueError, match="length 4"):
        reconstruct(cfg, np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="length 4"):
        reconstruct(cfg, np.zeros((4, 1)), 0.5)


# the overflow is reported by the ValueError alone, with no numpy warning
@pytest.mark.filterwarnings("error")
def test_projections_reject_overflow_of_finite_samples():
    # every sample is finite, but the weighted sums exceed the float range
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="coefficient vector contains non-finite"):
        project_function(cfg, lambda t: np.full_like(t, 1.5e308))
    # the order-1 rows sum (3/2)|p_1| against a kernel of sign p_1(t)
    with pytest.raises(ValueError, match="operator matrix contains non-finite"):
        project_kernel(cfg, lambda t, s: 1.5e308 * np.sign(t - 0.5) + 0.0 * s)
