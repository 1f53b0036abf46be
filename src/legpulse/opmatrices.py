"""Operational matrices of the hybrid basis.

P maps the coefficients of a function to (approximate) coefficients of its
running integral; L is the diagonal Gram matrix; J = (P^T)^-1 drives the
derivative lift. Multiplication of two basis expansions is captured by a
block-local tensor of normalized triple products, from which the coefficient
matrix of a vector and the row vector of a quadratic form are assembled for
arbitrary (r, q). Both work block by block and accept leading batch axes;
product_tangent gives the derivatives of the block product of two coefficient
matrices, from which Newton's Jacobian is built. The triple products are
Gauss-Legendre sums, with nodes, weights and Legendre values taken from
numpy.polynomial.legendre.

The build_* functions depend on the config alone, so each result is built
once per config, cached for the life of the process, and returned read-only.

Products of basis functions have degree up to 2(r-1); projecting them back
into the degree-(r-1) space silently drops the higher modes. That truncation
is inherent to the method and is applied uniformly here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .basis import BasisConfig

_INVERSE_RESIDUAL_TOL = 1e-10


def _integration_block(r: int, q: int) -> np.ndarray:
    """Within-block part of the integration matrix.

    Row m holds the basis coefficients of the running integral of the order-m
    basis function while t is still inside the block: order 0 integrates to
    (p_0 + p_1) / (4q); order m >= 1 to (p_{m+1} - p_{m-1}) / (2q(2m+1)),
    with the p_r overflow of the last row dropped.
    """
    E = np.zeros((r, r))
    E[0, 0] = 1.0
    if r > 1:
        E[0, 1] = 1.0
    for m in range(1, r):
        E[m, m - 1] = -1.0 / (2 * m + 1)
        if m + 1 < r:
            E[m, m + 1] = 1.0 / (2 * m + 1)
    return E / (2 * q)


def _frozen(a: np.ndarray) -> np.ndarray:
    # the caches hand the same array to every caller
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def build_P(config: BasisConfig) -> np.ndarray:
    """Operational matrix of integration, (dim, dim).

    Block upper-triangular: the within-block part on the diagonal, and the
    saturated value of each completed block (1/q, carried by the constant
    mode only) in every later block column.
    """
    r, q = config.r, config.q
    E = _integration_block(r, q)
    P = np.zeros((config.dim, config.dim))
    for k in range(q):
        P[k * r : (k + 1) * r, k * r : (k + 1) * r] = E
        for kp in range(k + 1, q):
            P[k * r, kp * r] = 1.0 / q
    return _frozen(P)


@lru_cache(maxsize=None)
def build_L(config: BasisConfig) -> np.ndarray:
    """Gram matrix of the basis, (dim, dim): diagonal with 1/((2m+1)q) per
    (k, m) slot."""
    diag = np.tile(1.0 / ((2.0 * np.arange(config.r) + 1.0) * config.q), config.q)
    return _frozen(np.diag(diag))


@lru_cache(maxsize=None)
def build_J(config: BasisConfig) -> np.ndarray:
    """Inverse transpose of the integration matrix, (dim, dim), residual-verified.

    Dense LU with partial pivoting (LAPACK); raises LinAlgError on a singular
    factorization and ArithmeticError if the inverse fails the 1e-10 residual
    check. Neither is expected for any valid config.
    """
    P = build_P(config)
    J = np.linalg.inv(P.T)
    residual = np.max(np.abs(J @ P.T - np.eye(config.dim)))
    if residual > _INVERSE_RESIDUAL_TOL:
        raise ArithmeticError(
            f"inverse of P^T failed the residual check: {residual:.3e}"
        )
    return _frozen(J)


@lru_cache(maxsize=None)
def build_triple_tensor(config: BasisConfig) -> np.ndarray:
    """All normalized triple products of block-local Legendre polynomials.

    Returns the (r, r, r) array t[i, j, m] = (2m+1)/2 * integral of
    p_i p_j p_m, which is the integral over one block of b_i b_j b_m divided
    by <b_m, b_m> and the same for every block by translation invariance.
    It is symmetric in (i, j), zero whenever i + j + m is odd, and t[0, j, m]
    is the identity.  The Gauss size ceil((3(r-1)+1)/2) integrates the
    degree-3(r-1) products exactly.
    """
    r = config.r
    nodes, weights = leggauss(-(-(3 * (r - 1) + 1) // 2))
    leg = legvander(nodes, r - 1)
    scale = (2.0 * np.arange(r) + 1.0) / 2.0
    return _frozen(np.einsum("n,ni,nj,nm,m->ijm", weights, leg, leg, leg, scale))


def coeff_matrix(c: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Diagonal blocks of the matrix of multiplication by the function with
    coefficients c.

    c has shape (..., dim) and tensor is the (r, r, r) array of triple
    products; the result has shape (..., q, r, r), block k holding rows and
    columns k*r .. k*r + r - 1.  The full matrix satisfies
    B(t) B^T(t) c = M B(t) after projection and is block-diagonal, because
    basis functions of different blocks have disjoint support.
    """
    r = tensor.shape[0]
    # block[i, m] = sum_j c_j t[i, j, m]: contract j in one matmul
    by_j = tensor.transpose(1, 0, 2).reshape(r, r * r)
    blocks = c.reshape(c.shape[:-1] + (-1, r)) @ by_j
    return blocks.reshape(blocks.shape[:-1] + (r, r))


def product_tangent(u: np.ndarray, v: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Diagonal blocks of the derivatives of the product C~_u C~_v in u and in v.

    u and v are (dim,) coefficient vectors and tensor the (r, r, r) triple
    tensor; the result X has shape (q, 2r, r, r).  X[k, j] is the derivative
    of block k of the product in coefficient (k, j) of u, T_j C~_v,k, and
    X[k, r + j] the one in coefficient (k, j) of v, C~_u,k T_j.  Here T_j,
    the coefficient matrix of the j-th basis function of a block, is tensor[j],
    since the tensor is symmetric in its first two indices.  No block depends
    on the coefficients of another.
    """
    cu, cv = coeff_matrix(np.stack([u, v]), tensor)
    return np.concatenate([tensor @ cv[:, None], cu[:, None] @ tensor], axis=1)


def hat_vector(S: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Basis coefficients of the quadratic form t -> B^T(t) S B(t).

    S is given by its diagonal blocks, shape (..., q, r, r); the result has
    shape (..., dim).  Off-block entries of S would not contribute: the
    corresponding products of basis functions vanish identically.
    """
    r = tensor.shape[0]
    v = S.reshape(S.shape[:-2] + (r * r,)) @ tensor.reshape(r * r, r)
    return v.reshape(v.shape[:-2] + (-1,))
