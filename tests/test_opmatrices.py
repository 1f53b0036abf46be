"""Operational matrices against closed forms and independent quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legpulse.basis import BasisConfig, eval_basis, project_function, reconstruct
from legpulse.opmatrices import (
    build_J,
    build_L,
    build_P,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
)


def test_integration_matrix_single_block():
    # running integrals of 1 and 2t-1 projected back: rows (1/2, 1/2), (-1/6, 0)
    cfg = BasisConfig(q=1, r=2)
    expected = np.array([[0.5, 0.5], [-1.0 / 6.0, 0.0]])
    np.testing.assert_allclose(build_P(cfg), expected, atol=1e-14)


def test_integration_matrix_two_blocks():
    cfg = BasisConfig(q=2, r=2)
    E = np.array([[0.25, 0.25], [-1.0 / 12.0, 0.0]])
    expected = np.zeros((4, 4))
    expected[0:2, 0:2] = E
    expected[2:4, 2:4] = E
    expected[0, 2] = 0.5  # completed block contributes its full integral
    np.testing.assert_allclose(build_P(cfg), expected, atol=1e-14)


def test_gram_matrix_diagonal():
    cfg = BasisConfig(q=4, r=3)
    diag = np.diag(build_L(cfg))
    expected = np.tile([0.25, 1.0 / 12.0, 0.05], 4)
    np.testing.assert_allclose(diag, expected, atol=1e-15)
    assert np.count_nonzero(build_L(cfg) - np.diag(diag)) == 0


def test_lift_matrix_single_block():
    cfg = BasisConfig(q=1, r=2)
    expected = np.array([[0.0, 2.0], [-6.0, 6.0]])
    np.testing.assert_allclose(build_J(cfg), expected, atol=1e-12)


def test_lift_matrix_inverts_transposed_integration():
    for q, r in [(1, 4), (3, 2), (4, 3), (5, 5)]:
        cfg = BasisConfig(q=q, r=r)
        product = build_J(cfg) @ build_P(cfg).T
        np.testing.assert_allclose(product, np.eye(cfg.dim), atol=1e-10)


def test_integration_rows_are_cumulative_integral_projections():
    # row i of P must equal the projection of t -> integral of b_i over [0, t]
    for q, r in [(1, 3), (2, 2), (3, 4)]:
        cfg = BasisConfig(q=q, r=r)
        P = build_P(cfg)
        for i in range(cfg.dim):
            proj = project_function(cfg, _cumulative_basis_integral(cfg, i))
            np.testing.assert_allclose(proj, P[i], atol=1e-12)


def _cumulative_basis_integral(cfg, i):
    """t -> integral of basis function i over [0, t], via numpy Gauss."""
    k, m = divmod(i, cfg.r)
    lo, hi = k / cfg.q, (k + 1) / cfg.q
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def integral(t):
        upper = min(t, hi)
        if upper <= lo:
            return 0.0
        mapped = (nodes + 1.0) / 2.0 * (upper - lo) + lo
        values = [eval_basis(cfg, x)[i] for x in mapped]
        return float(np.dot(weights, values) * (upper - lo) / 2.0)

    return np.vectorize(integral)


def test_triple_tensor_known_entries():
    cfg = BasisConfig(q=1, r=4)
    t = build_triple_tensor(cfg)
    assert t[1, 1, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert t[1, 2, 1] == pytest.approx(2.0 / 5.0, abs=1e-14)
    assert t[1, 1, 2] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert t[2, 2, 2] == pytest.approx(2.0 / 7.0, abs=1e-14)
    assert t[1, 2, 3] == pytest.approx(3.0 / 5.0, abs=1e-14)
    # multiplying by the constant mode is the identity
    np.testing.assert_allclose(t[0], np.eye(4), atol=1e-14)


def test_triple_tensor_against_quadrature_oracle():
    cfg = BasisConfig(q=1, r=5)
    tensor = build_triple_tensor(cfg)
    nodes, weights = np.polynomial.legendre.leggauss(50)
    table = np.array([[_legendre(m, x) for x in nodes] for m in range(5)])
    for i in range(5):
        for j in range(5):
            for m in range(5):
                integral = np.dot(weights, table[i] * table[j] * table[m])
                expected = (2 * m + 1) / 2.0 * integral
                assert tensor[i, j, m] == pytest.approx(expected, abs=1e-13)


def _legendre(m, x):
    if m == 0:
        return 1.0
    prev, cur = 1.0, x
    for j in range(1, m):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur


def test_triple_tensor_symmetry_and_parity():
    cfg = BasisConfig(q=2, r=6)
    t = build_triple_tensor(cfg)
    np.testing.assert_allclose(t, np.swapaxes(t, 0, 1), atol=1e-14)
    for i in range(6):
        for j in range(6):
            for m in range(6):
                if (i + j + m) % 2 == 1:
                    assert abs(t[i, j, m]) <= 1e-14


def _block_diag(blocks):
    """Dense block-diagonal matrix from its (q, r, r) diagonal blocks."""
    q, r, _ = blocks.shape
    M = np.zeros((q * r, q * r))
    for k in range(q):
        M[k * r : (k + 1) * r, k * r : (k + 1) * r] = blocks[k]
    return M


def _diagonal_blocks(S, r):
    """The (q, r, r) diagonal blocks of a dense matrix S."""
    q = S.shape[0] // r
    return np.stack([S[k * r : (k + 1) * r, k * r : (k + 1) * r] for k in range(q)])


def test_coeff_matrix_single_block_closed_form():
    cfg = BasisConfig(q=1, r=2)
    tensor = build_triple_tensor(cfg)
    M = _block_diag(coeff_matrix(np.array([1.5, -2.0]), tensor))
    expected = np.array([[1.5, -2.0], [-2.0 / 3.0, 1.5]])
    np.testing.assert_allclose(M, expected, atol=1e-14)


def test_coeff_matrix_is_block_diagonal_and_linear():
    cfg = BasisConfig(q=3, r=3)
    tensor = build_triple_tensor(cfg)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(cfg.dim)
    b = rng.standard_normal(cfg.dim)
    combo = 2.0 * a - 0.5 * b
    Ma, Mb = coeff_matrix(a, tensor), coeff_matrix(b, tensor)
    Mc = coeff_matrix(combo, tensor)
    np.testing.assert_allclose(Mc, 2.0 * Ma - 0.5 * Mb, atol=1e-12)
    # only the diagonal blocks are returned: entries pairing different
    # blocks vanish by construction
    assert Ma.shape == (cfg.q, cfg.r, cfg.r)
    # a batch of vectors gives the blocks of each one
    np.testing.assert_array_equal(coeff_matrix(np.stack([a, b]), tensor), np.stack([Ma, Mb]))


def test_hat_vector_identity_single_block():
    cfg = BasisConfig(q=1, r=2)
    tensor = build_triple_tensor(cfg)
    np.testing.assert_allclose(
        hat_vector(np.eye(2)[None], tensor), [4.0 / 3.0, 0.0], atol=1e-14
    )


def test_hat_vector_three_order_pattern():
    # per block: (s11 + s22/3 + s33/5,
    #             s12 + s21 + (2/5)(s23 + s32),
    #             s13 + s31 + (2/3) s22 + (2/7) s33)
    cfg = BasisConfig(q=4, r=3)
    tensor = build_triple_tensor(cfg)
    rng = np.random.default_rng(11)
    S = rng.standard_normal((12, 12))
    hat = hat_vector(_diagonal_blocks(S, 3), tensor)
    for k in range(4):
        s = S[k * 3 : (k + 1) * 3, k * 3 : (k + 1) * 3]
        expected = [
            s[0, 0] + s[1, 1] / 3.0 + s[2, 2] / 5.0,
            s[0, 1] + s[1, 0] + 0.4 * (s[1, 2] + s[2, 1]),
            s[0, 2] + s[2, 0] + (2.0 / 3.0) * s[1, 1] + (2.0 / 7.0) * s[2, 2],
        ]
        np.testing.assert_allclose(hat[k * 3 : (k + 1) * 3], expected, atol=1e-14)


def test_hat_vector_ignores_cross_block_entries():
    # the quadratic form of a full S projects like that of its diagonal
    # blocks alone, which are all hat_vector takes
    cfg = BasisConfig(q=3, r=2)
    tensor = build_triple_tensor(cfg)
    rng = np.random.default_rng(3)
    S = rng.standard_normal((6, 6))
    blocks = hat_vector(_diagonal_blocks(S, 2), tensor)
    proj = project_function(
        cfg, np.vectorize(lambda t: eval_basis(cfg, t) @ S @ eval_basis(cfg, t))
    )
    np.testing.assert_allclose(blocks, proj, atol=1e-12)


def test_coeff_matrix_matches_projection_oracle():
    # row i of C~ holds the projection coefficients of b_i * u
    cfg = BasisConfig(q=2, r=3)
    tensor = build_triple_tensor(cfg)
    rng = np.random.default_rng(23)
    for _ in range(5):
        C = rng.uniform(-1.0, 1.0, cfg.dim)
        M = _block_diag(coeff_matrix(C, tensor))
        for i in range(cfg.dim):
            proj = project_function(
                cfg, np.vectorize(lambda t: eval_basis(cfg, t)[i] * reconstruct(cfg, C, t))
            )
            np.testing.assert_allclose(M[i], proj, atol=1e-12)


def test_hat_vector_matches_projection_oracle():
    # hat(S) holds the projection coefficients of t -> B(t)^T S B(t)
    cfg = BasisConfig(q=2, r=3)
    tensor = build_triple_tensor(cfg)
    rng = np.random.default_rng(29)
    for _ in range(5):
        S = rng.uniform(-1.0, 1.0, (cfg.dim, cfg.dim))
        hat = hat_vector(_diagonal_blocks(S, cfg.r), tensor)
        proj = project_function(
            cfg, np.vectorize(lambda t: eval_basis(cfg, t) @ S @ eval_basis(cfg, t))
        )
        np.testing.assert_allclose(hat, proj, atol=1e-12)


def test_config_mismatch_rejected():
    # raw arrays carry no config: a tensor of the wrong order r cannot be
    # matched against the coefficient or block shapes
    tensor = build_triple_tensor(BasisConfig(q=1, r=3))
    with pytest.raises(ValueError):
        coeff_matrix(np.zeros(4), tensor)
    with pytest.raises(ValueError):
        hat_vector(np.zeros((2, 2, 2)), tensor)


@settings(deadline=None, max_examples=15)
@given(
    q=st.integers(min_value=1, max_value=5),
    r=st.integers(min_value=1, max_value=5),
)
def test_gram_matrix_matches_quadrature(q, r):
    cfg = BasisConfig(q=q, r=r)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    gram = np.zeros((cfg.dim, cfg.dim))
    for k in range(q):
        a, b = k / q, (k + 1) / q
        ts = (nodes + 1.0) / 2.0 * (b - a) + a
        samples = np.array([eval_basis(cfg, t) for t in ts])
        gram += samples.T @ (weights[:, None] * samples) * (b - a) / 2.0
    np.testing.assert_allclose(build_L(cfg), gram, atol=1e-12)


@pytest.mark.parametrize("build", [build_P, build_L, build_J, build_triple_tensor])
def test_shape_only_operators_are_built_once_and_read_only(build):
    # every caller shares the cached array, so none of them may write to it
    first = build(BasisConfig(q=3, r=2))
    assert build(BasisConfig(q=3, r=2)) is first
    assert build(BasisConfig(q=3, r=3)) is not first
    with pytest.raises(ValueError, match="read-only"):
        first[(0,) * first.ndim] = 1.0
