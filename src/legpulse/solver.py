"""Residual assembly and a damped Newton iteration for the projected equations.

A problem y(t) + scalar * I[y](t) = f(t), with I the Fredholm or Volterra
integral of k(t,s) * y^(m)(s) * y^(n)(s), turns into a nonlinear algebraic
system for the hybrid coefficient vector Y once every ingredient is
projected onto the basis.  This module assembles that system, evaluates
its residual, and solves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import BasisConfig, project_function, project_kernel
from .lift import InitialConditions, lift, lift_with_derivative
from .opmatrices import (
    build_J,
    build_L,
    build_P,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
    product_tangent,
)

KINDS = ("fredholm", "volterra")

# budget for halving a Newton step that fails to reduce the residual
_MAX_HALVINGS = 20
# Newton stops, converged, once max|step| <= _STEP_ULPS * eps * max|y|: the
# residual has reached its rounding floor and cannot be driven lower
_STEP_ULPS = 64


@dataclass
class AssembledSystem:
    """Projected data of one integro-differential problem.

    kind is "fredholm" (integral over the whole interval) or "volterra"
    (integral from 0 to t); scalar multiplies the integral term; m and n
    are the derivative orders inside the integrand.  kernel, P, L and J are
    (dim, dim) arrays, forcing is (dim,) and tensor is the (r, r, r) triple
    tensor, all for config; assemble shares P, L, J and tensor read-only
    with every other system of the same config.
    """

    config: BasisConfig
    kind: str
    scalar: float
    kernel: np.ndarray
    forcing: np.ndarray
    m: int
    n: int
    ics: InitialConditions
    tensor: np.ndarray
    P: np.ndarray
    L: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not np.isfinite(self.scalar):
            raise ValueError(f"scalar must be finite, got {self.scalar}")
        if self.m < 0 or self.n < 0:
            raise ValueError(
                f"derivative orders must be nonnegative, got m={self.m}, n={self.n}"
            )
        needed = max(self.m, self.n)
        if len(self.ics) < needed:
            raise ValueError(
                f"derivative orders m={self.m}, n={self.n} require "
                f"{needed} initial condition(s), got {len(self.ics)}"
            )
        dim, r = self.config.dim, self.config.r
        built_for = {
            "kernel": (self.kernel.shape, (dim, dim)),
            "forcing": (self.forcing.shape, (dim,)),
            "ics": (self.ics.config, self.config),
            "tensor": (self.tensor.shape, (r, r, r)),
            "P": (self.P.shape, (dim, dim)),
            "L": (self.L.shape, (dim, dim)),
            "J": (self.J.shape, (dim, dim)),
        }
        for label, (got, want) in built_for.items():
            if got != want:
                raise ValueError(f"{label} was built for {got}, but {self.config} needs {want}")


@dataclass
class SolveReport:
    """Outcome of a Newton run: the (dim,) solution coefficients plus
    diagnostics."""

    Y: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def assemble(
    config: BasisConfig,
    kind: str,
    scalar: float,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    forcing: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    ics: Sequence[float] = (),
) -> AssembledSystem:
    """Project the problem data and build every operator it needs.

    kernel and forcing must be numpy-vectorized, as project_kernel and
    project_function describe.
    """
    return AssembledSystem(
        config=config,
        kind=kind,
        scalar=float(scalar),
        kernel=project_kernel(config, kernel),
        forcing=project_function(config, forcing),
        m=int(m),
        n=int(n),
        ics=InitialConditions(tuple(ics), config),
        tensor=build_triple_tensor(config),
        P=build_P(config),
        L=build_L(config),
        J=build_J(config),
    )


def residual(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """R(Y) = Y + scalar * I(u, v) - F, with u and v the m-th and n-th lifts of Y.

    y is one (dim,) coefficient vector, and so is R; lift rejects any other
    shape.  The integral term is K C~_u L v (Fredholm) or hat(K C~_u C~_v P)
    (Volterra), evaluated on the diagonal blocks of C~_u and C~_v, never on
    their dense block-diagonal matrices.
    """
    y = np.asarray(y, dtype=float)
    q, r = system.config.q, system.config.r
    u = lift(y, system.m, system.ics, system.J)
    v = lift(y, system.n, system.ics, system.J)
    if system.kind == "fredholm":
        # right to left: L v, then the block-local C~_u, then K
        lv = (np.diagonal(system.L) * v).reshape(q, r, 1)
        integral = (coeff_matrix(u, system.tensor) @ lv).ravel() @ system.kernel.T
    else:
        # hat reads only the diagonal blocks of S = K D P, where D = C~_u C~_v
        # is block-diagonal and P has E on its diagonal blocks and e0 e0^T / q
        # above them: S_kk = K_kk D_k E + (1/q) (sum_{l<k} K_kl D_l e0) e0^T.
        # hat(w e0^T) = w, since multiplying by the constant mode is the identity
        diagonal, below = _volterra_blocks(system)
        d = coeff_matrix(u, system.tensor) @ coeff_matrix(v, system.tensor)
        carried = d[..., 0].ravel() @ below.T
        S = diagonal @ d @ system.P[:r, :r]
        integral = hat_vector(S, system.tensor) + carried / q
    return y + system.scalar * integral - system.forcing


def _volterra_blocks(system: AssembledSystem) -> tuple[np.ndarray, np.ndarray]:
    """The (q, r, r) diagonal blocks of the kernel matrix, and the (dim, dim)
    kernel matrix with every block on and above the diagonal zeroed."""
    q, r = system.config.q, system.config.r
    diagonal = system.kernel.reshape(q, r, q, r)[np.arange(q), :, np.arange(q)]
    below = system.kernel * np.tri(q, k=-1).repeat(r, 0).repeat(r, 1)
    return diagonal, below


def _inf_norm(vec: np.ndarray) -> float:
    return float(np.abs(vec).max())


def _jacobian(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the residual at y, the tangent of its bilinear core.

    R = Y + c I(u, v) - F, with u = A_m Y + a and v = A_n Y + b the affine
    lifts (A_k = J^k), so dR = I + c (d_u I(., v) A_m + d_v I(u, .) A_n).
    Both partials come from X = product_tangent(u, v), the derivatives of
    the block product D = C~_u C~_v.  The Fredholm term K C~_u L v is
    K D e0 / q, since C~_v e0 = q L v, so its partials are
    K blockdiag(X e0) / q.  The Volterra term's are blockdiag(hat(K_kk X E))
    plus the carry below blockdiag(X e0) / q, as in residual.
    """
    q, r, dim = system.config.q, system.config.r, system.config.dim
    u, A_m = lift_with_derivative(y, system.m, system.ics, system.J)
    v, A_n = lift_with_derivative(y, system.n, system.ics, system.J)
    X = product_tangent(u, v, system.tensor)
    # block k of u and v depends on y through these 2r rows of A_m and A_n
    A = np.concatenate([A_m.reshape(q, r, dim), A_n.reshape(q, r, dim)], axis=1)
    carried = (X[..., 0].swapaxes(1, 2) @ A).reshape(dim, dim) / q
    if system.kind == "fredholm":
        tangent = system.kernel @ carried
    else:
        diagonal, below = _volterra_blocks(system)
        S = diagonal[:, None] @ X @ system.P[:r, :r]
        hat = S.reshape(q, 2 * r, r * r) @ system.tensor.reshape(r * r, r)
        tangent = (hat.swapaxes(1, 2) @ A).reshape(dim, dim) + below @ carried
    return np.eye(dim) + system.scalar * tangent


def _newton(
    system: AssembledSystem, start: np.ndarray, tol: float, max_iter: int
) -> SolveReport:
    """Damped Newton from start.

    Converged means the residual max-norm fell to tol, or the Newton step
    fell to rounding level, max|step| <= _STEP_ULPS * eps * max|y|.  The
    second test stops the iteration at the residual's rounding floor, which
    can lie above a tight tol.  Each step is halved, at most _MAX_HALVINGS
    times, until the residual decreases; the run stops unconverged when
    that fails, when the Jacobian is singular or after max_iter steps.
    """
    y = np.array(start, dtype=float)
    res = residual(system, y)
    norm = _inf_norm(res)
    converged = norm <= tol
    step_floor = _STEP_ULPS * np.finfo(float).eps
    iterations = 0
    while not converged and iterations < max_iter:
        try:
            step = np.linalg.solve(_jacobian(system, y), -res)
        except np.linalg.LinAlgError:
            break
        if _inf_norm(step) <= step_floor * _inf_norm(y):
            converged = True
            break
        # damping: halve the step until the residual actually decreases
        scale = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            candidate = y + scale * step
            cand_res = residual(system, candidate)
            cand_norm = _inf_norm(cand_res)
            if np.isfinite(cand_norm) and cand_norm < norm:
                y, res, norm = candidate, cand_res, cand_norm
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        iterations += 1
        converged = norm <= tol
    return SolveReport(
        Y=y,
        iterations=iterations,
        residual_norm=norm,
        converged=converged,
    )


def solve(system: AssembledSystem, tol: float = 1e-12, max_iter: int = 100) -> SolveReport:
    """Damped Newton on the residual, starting from Y = F.

    The forcing coefficients are the exact solution when the integral term
    vanishes and a good predictor otherwise.  The report is converged when
    the residual max-norm is at most tol, or when the Newton step fell to
    rounding level in Y, as _newton describes.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    return _newton(system, system.forcing, tol, max_iter)


def error_bound(mu: int, M: float) -> float:
    """Worst-case L2 error M / (2^(2*mu+1) * (mu+1)!) of a degree-mu approximant.

    M bounds the (mu+1)-th derivative of the function being approximated
    on the unit interval.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if not np.isfinite(M) or M < 0.0:
        raise ValueError(f"M must be finite and nonnegative, got {M}")
    return M / (2 ** (2 * mu + 1) * math.factorial(mu + 1))


def derivative_max(
    f: Callable[[np.ndarray], np.ndarray],
    order: int,
    lo: float = 0.0,
    hi: float = 1.0,
    *,
    step: float = 1e-2,
    samples: int = 1001,
) -> float:
    """Estimate max |f^(order)| on [lo, hi] by central differences.

    Uses one Richardson extrapolation from steps 2h and h.  The sample
    grid is clipped so every stencil point stays inside [lo, hi].  f must
    be numpy-vectorized: each stencil offset calls it on the whole grid.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    if order == 0:
        return float(np.max(np.abs(f(np.linspace(lo, hi, samples)))))
    offsets = np.arange(order + 1)
    weights = np.array([(-1.0) ** i * math.comb(order, i) for i in offsets])

    def stencil(grid: np.ndarray, h: float) -> np.ndarray:
        terms = (w * f(grid + (order / 2.0 - i) * h) for i, w in zip(offsets, weights))
        return sum(terms) / h**order

    coarse_h = 2.0 * step
    reach = (order / 2.0) * coarse_h
    a, b = lo + reach, hi - reach
    if b <= a:
        raise ValueError(
            f"step {step} is too large for order {order} on [{lo}, {hi}]"
        )
    grid = np.linspace(a, b, samples)
    coarse = stencil(grid, coarse_h)
    fine = stencil(grid, step)
    refined = (4.0 * fine - coarse) / 3.0
    return float(np.max(np.abs(refined)))
