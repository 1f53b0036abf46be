"""Legendre polynomials and Gauss-Legendre quadrature on [-1, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NEWTON_TOL = 1e-15
_NEWTON_MAX_SWEEPS = 100


def legendre_table(r: int, x: np.ndarray) -> np.ndarray:
    """Values of p_0 .. p_{r-1} at the points x, shape (r, len(x)), by the
    three-term recursion (m+1) p_{m+1} = (2m+1) x p_m - m p_{m-1}."""
    if r < 1:
        raise ValueError(f"need at least one polynomial order, got r={r}")
    x = np.asarray(x, dtype=float)
    table = np.empty((r, x.size))
    table[0] = 1.0
    if r > 1:
        table[1] = x
    for j in range(1, r - 1):
        table[j + 1] = ((2 * j + 1) * x * table[j] - j * table[j - 1]) / (j + 1)
    return table


def _legendre_and_deriv(n: int, x: np.ndarray):
    """p_n and p_n' at interior points x (|x| < 1 required for the derivative)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on [-1, 1].

    Nodes are strictly increasing and symmetric about 0; weights are positive
    and sum to 2. An n-point rule integrates polynomials of degree <= 2n-1
    exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values sampled at the nodes."""
        return float(np.dot(self.weights, values))


def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of p_n, found by Newton iteration from the Chebyshev
    initial guesses cos(pi (4i - 1) / (4n + 2)); weights are
    2 / ((1 - x^2) p_n'(x)^2). Raises RuntimeError if the iteration fails to
    reach 1e-15, which would signal an internal defect.
    """
    if n < 1:
        raise ValueError(f"quadrature size must be >= 1, got {n}")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0))
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(_NEWTON_MAX_SWEEPS):
        p, dp = _legendre_and_deriv(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(
            f"Gauss-Legendre node iteration for n={n} did not reach "
            f"{_NEWTON_TOL} in {_NEWTON_MAX_SWEEPS} sweeps"
        )
    _, dp = _legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order])
