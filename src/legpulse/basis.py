"""Hybrid block-pulse/Legendre basis on [0, 1): evaluation and L2 projection.

The basis splits [0, 1) into q equal half-open subintervals (blocks) and
carries the Legendre polynomials of orders 0 .. r-1 on each, rescaled by the
affine map x = 2qt - 2k + 1 that sends block k to [-1, 1]. Coefficients are
stored block-major: entry (k-1)*r + m belongs to order m on block k.
Legendre values come from their three-term recurrence, and the Gauss-Legendre
rules of the projections, the only quadrature, from Newton's method on p_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .exprlang import Expr, evaluate, is_difference_kernel

# how many keys every cache of per-shape data keeps (for opmatrices and
# solver too): Z0 and a Volterra W are 4 MB each at r = 50, so a sweep
# over r must not keep every shape it passed
_SHAPES = 4


def _shape_cache(build: Callable) -> Callable:
    """lru_cache(_SHAPES) over a build whose result, an array or a tuple of
    arrays and Nones, is made read-only before it is kept: every caller of
    the same key gets the same arrays, and none can change them."""
    def read_only(*args, **kwargs):
        result = build(*args, **kwargs)
        for part in result if isinstance(result, tuple) else (result,):
            if part is not None:
                part.setflags(write=False)
        return result
    return lru_cache(_SHAPES)(wraps(build)(read_only))


@dataclass(frozen=True)
class BasisConfig:
    """Dimensions of the hybrid space: q blocks, Legendre orders 0..r-1."""

    q: int
    r: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"need at least one block, got q={self.q}")
        if self.r < 1:
            raise ValueError(f"need at least one Legendre order, got r={self.r}")

    @property
    def dim(self) -> int:
        return self.r * self.q

    @property
    def quad_points(self) -> int:
        """Per-block Gauss size of the projections: 24, which keeps the
        projection error orders of magnitude below the approximation error
        of the basis itself for smooth data, or r when that is larger."""
        return max(24, self.r)


# samples per kernel call in project_kernel: the most whole t-blocks whose float64
# sample array stays under glibc's 128 KiB mmap threshold, so no call faults in
# pages while one t-block fits (q <= 27 at quad_points 24), on either path
_KERNEL_SAMPLES = 16_000


def _legendre_values(x: np.ndarray, deg: int) -> np.ndarray:
    """p_0(x) .. p_deg(x), shape x.shape + (deg + 1,), from the recurrence
    (k + 1) p_{k+1} = (2k + 1) x p_k - k p_{k-1}: numpy's legvander, written
    out with its order of operations, so its values are bit for bit the same."""
    v = np.empty((deg + 1,) + x.shape)
    v[0] = 1.0
    if deg > 0:
        v[1] = x
    for k in range(2, deg + 1):
        v[k] = (v[k - 1] * x * (2 * k - 1) - v[k - 2] * (k - 1)) / k
    return np.moveaxis(v, 0, -1)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Increasing nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on p_n from x_k = -cos(pi (k - 1/4) / (n + 1/2)), with
    p_n' = n (p_{n-1} - x p_n) / (1 - x^2), until a step is below 1e-14 (else
    ArithmeticError); the weights 2 / ((1 - x^2) p_n'^2) are taken at the converged
    nodes.  Nodes are made exactly antisymmetric, weights exactly symmetric and
    summing to 2.
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    dx = np.inf
    for _ in range(10):  # every n up to 1000 converges in 4 steps
        p = _legendre_values(x, n)
        dp = n * (p[:, n - 1] - x * p[:, n]) / (1.0 - x * x)
        if np.max(np.abs(dx)) <= 1e-14:
            break  # quadratic convergence: x is at rounding, and dp is taken there
        dx = p[:, n] / dp
        x = x - dx
    else:
        raise ArithmeticError(f"{n}-point Gauss-Legendre nodes did not converge")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, w * (2.0 / w.sum())


@_shape_cache
def _projection_data(config: BasisConfig):
    """Per-block quadrature nodes, weights and Legendre values.

    Returns (ts, w, leg, scale) with ts[k-1, i] = node x_i mapped into block
    k, leg[m, i] = p_m(x_i) and scale[m] = (2m + 1) / 2.
    """
    nodes, weights = _gauss_legendre(config.quad_points)
    k = np.arange(1, config.q + 1)[:, None]
    ts = (nodes + 2 * k - 1) / (2 * config.q)
    leg = _legendre_values(nodes, config.r - 1).T
    scale = (2.0 * np.arange(config.r) + 1.0) / 2.0
    return ts, weights, leg, scale


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
    out[np.arange(t.size), k - 1] = _legendre_values(x, config.r - 1)
    return out.reshape(t.shape + (config.dim,))


def _require_finite(projected: np.ndarray, what: str) -> np.ndarray:
    # finite samples can still overflow in the weighted sums, which are
    # computed with numpy's overflow warnings off so that this error is the
    # only report
    if not np.all(np.isfinite(projected)):
        raise ValueError(f"{what} contains non-finite entries")
    return projected


def project_function(
    config: BasisConfig, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """L2 projection of f onto the hybrid space, a (dim,) coefficient vector.

    f must be numpy-vectorized: it is called once, on the read-only
    (q, quad_points) array of all quadrature nodes.  Coefficient (k, m) is
    q(2m+1) times the integral of f against the basis function over block k,
    evaluated with the per-block Gauss rule.  The integrand is f times a
    Legendre polynomial of degree up to r - 1, so the projection is exact
    whenever f restricted to the block is a polynomial of degree
    <= 2*quad_points - r.  Raises ValueError when f or the projection is not
    finite.
    """
    ts, w, leg, scale = _projection_data(config)
    vals = np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape)
    if not np.all(np.isfinite(vals)):
        i = tuple(np.argwhere(~np.isfinite(vals))[0])
        raise ValueError(f"integrand returned {float(vals[i])!r} at node t={float(ts[i])!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        projected = (scale * ((w * vals) @ leg.T)).ravel()
    return _require_finite(projected, "coefficient vector")


def _sample_kernel(g, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g(t, s) broadcast to the shape of t against s; a non-finite sample
    raises ValueError naming its node."""
    shape = np.broadcast(t, s).shape
    gv = np.asarray(g(t, s), dtype=float)
    if gv.shape != shape:
        gv = np.broadcast_to(gv, shape)
    if not np.isfinite(gv).all():
        i = tuple(np.argwhere(~np.isfinite(gv))[0])
        raise ValueError(
            f"kernel returned {float(gv[i])!r} at node "
            f"(t={float(np.broadcast_to(t, shape)[i])!r}, s={float(np.broadcast_to(s, shape)[i])!r})"
        )
    return gv


def project_kernel(
    config: BasisConfig, kernel: Expr | Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """L2 projection of a two-variable kernel onto the tensor basis, a (dim,
    dim) array; kernel is an exprlang tree in t and s, sampled through
    evaluate, or a numpy-vectorized callable g(t, s).

    The kernel is sampled on whole t-blocks, as many per call as fit in
    _KERNEL_SAMPLES samples and at least one, in block order, with t of shape
    (c, quad_points, 1, 1) and s of shape (q, quad_points), the quadrature
    nodes, both read-only.  Entry (i, j) pairs basis function i in t with
    basis function j in s, normalized like the 1-D projection in each
    variable; the integral is a tensor-product Gauss rule over each block
    pair.  Raises ValueError when a sample or the projection is not finite.

    A tree for which is_difference_kernel holds is a function of t - s alone.
    Blocks have equal width and the same Gauss offsets, so block (k, l) of
    its projection depends on k - l only: the result is block Toeplitz, and
    block rows 0 and q - 1 between them hold every offset.  With q > 2 such a
    tree is sampled on t-blocks 0 and q - 1 only, in the same way, and the
    result equals the full projection to rounding; with q <= 2 those are all
    the t-blocks, and the result is the full projection.  A callable is
    always sampled on every t-block.
    """
    ts, w, leg, scale = _projection_data(config)
    q, r, dim = config.q, config.r, config.dim
    wleg = scale[:, None] * leg * w
    tree = isinstance(kernel, Expr)
    g = (lambda t, s: evaluate(kernel, t, s)) if tree else kernel
    two_rows = tree and q > 2 and is_difference_kernel(kernel)
    rows = ts[:: q - 1] if two_rows else ts  # t-blocks 0 and q - 1, or all
    step = max(1, _KERNEL_SAMPLES // (ts.size * ts.shape[1]))
    projected = np.empty((len(rows) * r, dim))
    for k0 in range(0, len(rows), step):
        t = rows[k0 : k0 + step]
        gv = _sample_kernel(g, t[:, :, None, None], ts)
        # contract the t nodes of every block, then the s nodes
        with np.errstate(over="ignore", invalid="ignore"):
            half = (wleg @ gv.reshape(t.shape + (ts.size,))).reshape((-1,) + ts.shape)
            projected[k0 * r : (k0 + step) * r] = (half @ wleg.T).reshape(-1, dim)
    _require_finite(projected, "operator matrix")
    if not two_rows:
        return projected
    # read backwards in l, row 0 holds the offsets k - l = 1 - q .. 0 and row q - 1 0 .. q - 1
    row_blocks = projected.reshape(2, r, q, r).transpose(0, 2, 1, 3)
    blocks = np.empty((2 * q - 1, r, r))
    blocks[:q], blocks[q - 1 :] = row_blocks[0, ::-1], row_blocks[1, ::-1]
    # block (k, l) as a view of blocks[q - 1 + k - l], one block forward per k
    # and one back per l; reshape copies it once, into the result
    b0, b1, b2 = blocks.strides
    view = np.ndarray((q, r, q, r), float, blocks, (q - 1) * b0, (b0, b1, -b0, b2))
    return view.reshape(dim, dim)


@_shape_cache
def _grid_basis(config: BasisConfig, grid: tuple) -> np.ndarray:
    return eval_basis(config, grid)


def reconstruct(config: BasisConfig, y: np.ndarray, t: ArrayLike):
    """Value at t, a point or an array of points in [0, 1), of the function
    with hybrid coefficients y, a (dim,) array; a float or an array of t's
    shape.  A tuple t, the type of ProblemSpec.grid, is a grid: its basis
    values are kept for the last _SHAPES pairs of config and grid."""
    y = np.asarray(y, dtype=float)
    if y.shape != (config.dim,):
        raise ValueError(
            f"coefficient vector must have length {config.dim}, got shape {y.shape}"
        )
    try:
        basis = _grid_basis(config, t) if isinstance(t, tuple) else eval_basis(config, t)
    except TypeError:  # a tuple holding lists or arrays cannot key the cache
        basis = eval_basis(config, t)
    # one dot product per point, as eval_basis(t) @ y at a single t, so a
    # value does not depend on how many points are asked for at once
    values = (basis[..., None, :] @ y[:, None])[..., 0, 0]
    return float(values) if values.ndim == 0 else values
