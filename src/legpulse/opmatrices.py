"""Operational matrices of the hybrid basis.

P maps the coefficients of a function to (approximate) coefficients of its
running integral; L is the diagonal Gram matrix; J = (P^T)^-1, in closed form,
drives the derivative lift. Multiplication of two basis expansions is captured
by a block-local tensor of normalized triple products, from which the
coefficient matrix of a vector and the row vector of a quadratic form are
assembled for arbitrary (r, q). Both work block by block and accept leading
batch axes. The product tensor holds the block product of two coefficient
matrices as a bilinear form, for the Volterra part of Newton's Jacobian.
Everything here is in closed form: the triple products are Adams' formula.

The build_* functions depend on the config alone.  build_J and
build_triple_tensor, which every solve reads, are kept by basis._shape_cache
per config, read-only; build_P, build_L and the (r, r, r, r) product tensor,
which a solve reads at most once, return a new array on every call.

Products of basis functions have degree up to 2(r-1); projecting them back
into the degree-(r-1) space silently drops the higher modes. That truncation
is inherent to the method and is applied uniformly here.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisConfig, _shape_cache


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
    return P


def build_L(config: BasisConfig) -> np.ndarray:
    """Gram matrix of the basis, (dim, dim): diagonal with 1/((2m+1)q) per
    (k, m) slot."""
    diag = np.tile(1.0 / ((2.0 * np.arange(config.r) + 1.0) * config.q), config.q)
    return np.diag(diag)


@_shape_cache
def build_J(config: BasisConfig) -> np.ndarray:
    """Inverse transpose of the integration matrix, (dim, dim): (P^T)^-1 exactly.

    With Lambda = diag(1, 3, ..., 2r - 1), p = (r - 1) mod 2 and N[i, j] = 1 if
    j > i and j = p (mod 2), (-1)^(i-j) if j <= i and i = p (mod 2), else 0,
    D = Lambda N is the integer matrix (2q E)^-T, E = _integration_block(r, q).
    With T[k, l] = (-1)^(r(k-l-1)) if k > l, else 0, J / (2q) is the integer
    matrix I_q kron D - 2 T kron D[:, 0] D[0, :], exact in float64; no build fails.
    """
    r, q = config.r, config.q
    i, j = np.indices((r, r))
    p = (r - 1) % 2
    N = np.where(j > i, j % 2 == p, np.where(i % 2 == p, (-1.0) ** (i - j), 0.0))
    D = (2 * i + 1) * N
    k, l = np.indices((q, q))
    T = np.where(k > l, (-1.0) ** (r * (k - l - 1)), 0.0)
    J = np.kron(np.eye(q), D) - 2.0 * np.kron(T, np.outer(D[:, 0], D[0]))
    return 2.0 * q * J


@_shape_cache
def build_triple_tensor(config: BasisConfig) -> np.ndarray:
    """All normalized triple products of block-local Legendre polynomials.

    Returns the (r, r, r) array t[i, j, m] = (2m+1)/2 * integral of
    p_i p_j p_m, which is the integral over one block of b_i b_j b_m divided
    by <b_m, b_m> and the same for every block by translation invariance.
    By Adams' formula (Proc. R. Soc. Lond. 27, 1878) that is (2m+1)/(2s+1)
    a(s-i) a(s-j) a(s-m) / a(s), a(n) = C(2n, n) / 4^n, where i + j + m = 2s
    and s >= i, j, m, and exactly 0 elsewhere; t[0] is exactly the identity.
    """
    r = config.r
    # a(n) as the running product of (2n - 1) / (2n), which cannot overflow
    n = np.arange(1, 3 * (r - 1) // 2 + 1)
    a = np.cumprod(np.r_[1.0, (2.0 * n - 1.0) / (2.0 * n)])
    i, j, m = np.ogrid[:r, :r, :r]
    s, odd = np.divmod(i + j + m, 2)
    i, j, m = np.nonzero((odd == 0) & (s >= np.maximum(np.maximum(i, j), m)))
    s = (i + j + m) // 2
    t = np.zeros((r, r, r))
    t[i, j, m] = (2 * m + 1) / (2 * s + 1) * (a[s - i] * a[s - j] * a[s - m] / a[s])
    return t


def build_product_tensor(config: BasisConfig) -> np.ndarray:
    """Products Z[j, l] = T_j T_l, shape (r, r, r, r), of the coefficient
    matrices T_j = t[j] of one block's basis functions, t the triple tensor:
    Z[j, l, c, d] = sum_e t[c, j, e] t[e, l, d], and each block of C~_u C~_v
    is the bilinear form sum_{j,l} u_j v_l Z[j, l] of its coefficients.
    """
    t = build_triple_tensor(config)
    return t[:, None] @ t[None, :]


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
    # block[i, m] = sum_j c_j t[i, j, m] = sum_j c_j t[j, i, m], as the triple
    # tensor is bitwise symmetric in i and j: contract j in one matmul
    blocks = c.reshape(c.shape[:-1] + (-1, r)) @ tensor.reshape(r, r * r)
    return blocks.reshape(blocks.shape[:-1] + (r, r))


def hat_vector(S: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Basis coefficients of the quadratic form t -> B^T(t) S B(t).

    S is given by its diagonal blocks, shape (..., q, r, r); the result has
    shape (..., dim).  Off-block entries of S would not contribute: the
    corresponding products of basis functions vanish identically.
    """
    r = tensor.shape[0]
    v = S.reshape(S.shape[:-2] + (r * r,)) @ tensor.reshape(r * r, r)
    return v.reshape(v.shape[:-2] + (-1,))
