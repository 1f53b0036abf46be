"""Hybrid block-pulse/Legendre basis on [0, 1): evaluation and L2 projection.

The basis splits [0, 1) into q equal half-open subintervals (blocks) and
carries the Legendre polynomials of orders 0 .. r-1 on each, rescaled by the
affine map x = 2qt - 2k + 1 that sends block k to [-1, 1]. Coefficients are
stored block-major: entry (k-1)*r + m belongs to order m on block k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .legendre import gauss_rule, legendre_table


@dataclass(frozen=True)
class BasisConfig:
    """Dimensions of the hybrid space: q blocks, Legendre orders 0..r-1.

    quad_points is the per-block Gauss size used by projections; the default
    24 keeps projection error orders of magnitude below the approximation
    error of the basis itself for smooth data.
    """

    q: int
    r: int
    quad_points: int = 24

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"need at least one block, got q={self.q}")
        if self.r < 1:
            raise ValueError(f"need at least one Legendre order, got r={self.r}")
        if self.quad_points < self.r:
            raise ValueError(
                f"quad_points={self.quad_points} cannot resolve r={self.r} orders"
            )

    @property
    def dim(self) -> int:
        return self.r * self.q


@dataclass
class CoeffVector:
    """Block-major coefficient vector of a function in the hybrid space."""

    config: BasisConfig
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.config.dim,):
            raise ValueError(
                f"coefficient vector must have length {self.config.dim}, "
                f"got shape {self.coeffs.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficient vector contains non-finite entries")


@dataclass
class OperatorMatrix:
    """Dense rq x rq matrix acting on hybrid coefficient vectors."""

    config: BasisConfig
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = self.config.dim
        if self.entries.shape != (n, n):
            raise ValueError(
                f"operator matrix must be {n}x{n}, got shape {self.entries.shape}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("operator matrix contains non-finite entries")


@lru_cache(maxsize=None)
def _projection_data(config: BasisConfig):
    """Per-block quadrature nodes, weights and Legendre values, cached.

    Returns (ts, w, leg, scale) with ts[k-1, i] = node x_i mapped into block
    k, leg[m, i] = p_m(x_i) and scale[m] = (2m + 1) / 2.
    """
    rule = gauss_rule(config.quad_points)
    k = np.arange(1, config.q + 1)[:, None]
    ts = (rule.nodes + 2 * k - 1) / (2 * config.q)
    leg = legendre_table(config.r, rule.nodes)
    scale = (2.0 * np.arange(config.r) + 1.0) / 2.0
    return ts, rule.weights, leg, scale


def block_of(config: BasisConfig, t: ArrayLike):
    """1-based index of the block containing t in [0, 1); t may be an array."""
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t < 1.0))
    if np.any(outside):
        raise ValueError(f"t={float(t[outside][0])!r} is outside the basis domain [0, 1)")
    k = np.minimum((t * config.q).astype(int), config.q - 1) + 1
    return int(k) if k.ndim == 0 else k


def eval_basis(config: BasisConfig, t: ArrayLike) -> np.ndarray:
    """All rq basis functions at t, shape t.shape + (rq,); at each point
    only the block containing it is nonzero."""
    t = np.asarray(t, dtype=float)
    k = np.asarray(block_of(config, t)).ravel()
    x = 2.0 * config.q * t.ravel() - 2.0 * k + 1.0
    out = np.zeros((t.size, config.q, config.r))
    out[np.arange(t.size), k - 1] = legendre_table(config.r, x).T
    return out.reshape(t.shape + (config.dim,))


def project_function(
    config: BasisConfig, f: Callable[[np.ndarray], np.ndarray]
) -> CoeffVector:
    """L2 projection of f onto the hybrid space.

    f must be numpy-vectorized: it is called once, on the (q, quad_points)
    array of all quadrature nodes.  Coefficient (k, m) is q(2m+1) times the
    integral of f against the basis function over block k, evaluated with
    the per-block Gauss rule, so it is exact whenever f restricted to the
    block is a polynomial of degree <= 2*quad_points - 1.
    """
    ts, w, leg, scale = _projection_data(config)
    vals = np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape)
    if not np.all(np.isfinite(vals)):
        i = tuple(np.argwhere(~np.isfinite(vals))[0])
        raise ValueError(f"integrand returned {float(vals[i])!r} at node t={float(ts[i])!r}")
    return CoeffVector(config, (scale * ((w * vals) @ leg.T)).ravel())


def project_kernel(
    config: BasisConfig, g: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> OperatorMatrix:
    """L2 projection of a two-variable kernel g(t, s) onto the tensor basis.

    g must be numpy-vectorized: it is called once, with t of shape
    (q, quad_points, 1, 1) and s of shape (q, quad_points), the quadrature
    nodes.  Entry (i, j) pairs basis function i in t with basis function j
    in s, normalized like the 1-D projection in each variable; the integral
    is a tensor-product Gauss rule over each block pair.
    """
    ts, w, leg, scale = _projection_data(config)
    gv = np.broadcast_to(np.asarray(g(ts[:, :, None, None], ts), dtype=float), ts.shape * 2)
    if not np.all(np.isfinite(gv)):
        k, a, l, b = np.argwhere(~np.isfinite(gv))[0]
        raise ValueError(
            f"kernel returned {float(gv[k, a, l, b])!r} at node "
            f"(t={float(ts[k, a])!r}, s={float(ts[l, b])!r})"
        )
    wleg = scale[:, None] * leg * w
    # contract the t nodes of every block, then the s nodes
    half = (wleg @ gv.reshape(ts.shape + (ts.size,))).reshape((config.dim,) + ts.shape)
    return OperatorMatrix(config, (half @ wleg.T).reshape(config.dim, config.dim))


def reconstruct(Y: CoeffVector, t: ArrayLike):
    """Value at t, a point or an array of points in [0, 1), of the function
    with hybrid coefficients Y; a float or an array of t's shape."""
    basis = eval_basis(Y.config, t)
    # one dot product per point, as eval_basis(t) @ Y at a single t, so a
    # value does not depend on how many points are asked for at once
    values = (basis[..., None, :] @ Y.coeffs[:, None])[..., 0, 0]
    return float(values) if values.ndim == 0 else values
