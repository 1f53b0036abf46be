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

from .basis import (
    BasisConfig,
    CoeffVector,
    OperatorMatrix,
    project_function,
    project_kernel,
)
from .lift import InitialConditions, lift
from .opmatrices import (
    TripleTensor,
    build_J,
    build_L,
    build_P,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
)

KINDS = ("fredholm", "volterra")

# forward-difference step scale for the Jacobian
_JACOBIAN_STEP = 1e-7
# budget for halving a Newton step that fails to reduce the residual
_MAX_HALVINGS = 20


@dataclass
class AssembledSystem:
    """Projected data of one integro-differential problem.

    kind is "fredholm" (integral over the whole interval) or "volterra"
    (integral from 0 to t); scalar multiplies the integral term; m and n
    are the derivative orders inside the integrand.
    """

    kind: str
    scalar: float
    kernel: OperatorMatrix
    forcing: CoeffVector
    m: int
    n: int
    ics: InitialConditions
    tensor: TripleTensor
    P: OperatorMatrix
    L: OperatorMatrix
    J: OperatorMatrix

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
        config = self.config
        pieces = {
            "kernel": self.kernel.config,
            "ics": self.ics.config,
            "tensor": self.tensor.config,
            "P": self.P.config,
            "L": self.L.config,
            "J": self.J.config,
        }
        for label, other in pieces.items():
            if other != config:
                raise ValueError(
                    f"{label} was built for {other}, but the forcing uses {config}"
                )

    @property
    def config(self) -> BasisConfig:
        return self.forcing.config


@dataclass
class SolveReport:
    """Outcome of a Newton run: solution coefficients plus diagnostics."""

    Y: CoeffVector
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


def _lift_coeffs(system: AssembledSystem, y: np.ndarray, order: int) -> np.ndarray:
    vec = CoeffVector(system.config, np.asarray(y, dtype=float))
    return lift(vec, order, system.ics, system.J).coeffs


def residual_fredholm(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """R(Y) = Y + scalar * K C~_m L Y_n - F for the fixed-interval integral."""
    y = np.asarray(y, dtype=float)
    ym = _lift_coeffs(system, y, system.m)
    yn = _lift_coeffs(system, y, system.n)
    cm = coeff_matrix(CoeffVector(system.config, ym), system.tensor)
    integral = system.kernel.entries @ cm.entries @ system.L.entries @ yn
    return y + system.scalar * integral - system.forcing.coeffs


def residual_volterra(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """R(Y) = Y + scalar * hat(K C~_m C~_n P) - F for the running integral."""
    y = np.asarray(y, dtype=float)
    cm = coeff_matrix(
        CoeffVector(system.config, _lift_coeffs(system, y, system.m)), system.tensor
    )
    cn = coeff_matrix(
        CoeffVector(system.config, _lift_coeffs(system, y, system.n)), system.tensor
    )
    inner = system.kernel.entries @ cm.entries @ cn.entries @ system.P.entries
    hat = hat_vector(OperatorMatrix(system.config, inner), system.tensor)
    return y + system.scalar * hat.coeffs - system.forcing.coeffs


def residual(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """Dispatch to the Fredholm or Volterra residual."""
    if system.kind == "fredholm":
        return residual_fredholm(system, y)
    return residual_volterra(system, y)


def _inf_norm(vec: np.ndarray) -> float:
    return float(np.max(np.abs(vec)))


def _fd_jacobian(system: AssembledSystem, y: np.ndarray, res: np.ndarray) -> np.ndarray:
    dim = y.size
    jac = np.empty((dim, dim))
    for i in range(dim):
        h = _JACOBIAN_STEP * max(1.0, abs(y[i]))
        bumped = y.copy()
        bumped[i] += h
        jac[:, i] = (residual(system, bumped) - res) / h
    return jac


def _newton(
    system: AssembledSystem, start: np.ndarray, tol: float, max_iter: int
) -> SolveReport:
    y = np.asarray(start, dtype=float).copy()
    res = residual(system, y)
    norm = _inf_norm(res)
    iterations = 0
    while norm > tol and iterations < max_iter:
        jac = _fd_jacobian(system, y, res)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
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
    return SolveReport(
        Y=CoeffVector(system.config, y),
        iterations=iterations,
        residual_norm=norm,
        converged=norm <= tol,
    )


def solve(system: AssembledSystem, tol: float = 1e-12, max_iter: int = 100) -> SolveReport:
    """Damped Newton on the residual, starting from Y = F.

    The forcing coefficients are the exact solution when the integral term
    vanishes and a good predictor otherwise.  If that start stalls, a
    second attempt from the zero vector is made and the better of the two
    reports is returned.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    first = _newton(system, system.forcing.coeffs, tol, max_iter)
    if first.converged:
        return first
    second = _newton(system, np.zeros(system.config.dim), tol, max_iter)
    if second.converged or second.residual_norm < first.residual_norm:
        return second
    return first


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
