"""Derivative lift: coefficients of y^(n) from the coefficients of y.

Writing Y0^(i) for the projection of the constant y^(i)(0), the lift is the
recursion Y^(i+1) = J (Y^(i) - Y0^(i)) with J the inverse transpose of the
integration matrix; unrolled it reads J^n Y - sum_{k=1..n} J^k Y0^(n-k).
The recursion is applied directly rather than through explicit matrix
powers, which conditions better and needs no extra storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisConfig


@dataclass
class InitialConditions:
    """Values a_i = y^(i)(0), i = 0 .. l, attached to a basis config."""

    values: Sequence[float]
    config: BasisConfig

    def __post_init__(self):
        self.values = tuple(float(a) for a in self.values)
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError(f"initial conditions must be finite, got {self.values}")

    def __len__(self) -> int:
        return len(self.values)


def project_initial(a: float, config: BasisConfig) -> np.ndarray:
    """Projection of the constant function a, a (dim,) array: value a in
    every order-0 slot."""
    coeffs = np.zeros(config.dim)
    coeffs[:: config.r] = a
    return coeffs


def lift(y: np.ndarray, n: int, ics: InitialConditions, J: np.ndarray) -> np.ndarray:
    """Coefficients of the n-th derivative of the function with coefficients y.

    y is one (dim,) coefficient vector, and so is the result.  Needs the
    first n initial conditions; n = 0 returns y unchanged.
    """
    if y.shape != (ics.config.dim,):
        raise ValueError(
            f"coefficient vector must have length {ics.config.dim}, got shape {y.shape}"
        )
    if n < 0:
        raise ValueError(f"derivative order must be >= 0, got {n}")
    if len(ics) < n:
        raise ValueError(
            f"lifting to order {n} needs {n} initial conditions, got {len(ics)}"
        )
    for a in ics.values[:n]:
        # subtract the projected constant a, which lives in the order-0 slots
        shifted = y.copy()
        shifted[:: ics.config.r] -= a
        y = J @ shifted
    return y


def lift_map(n: int, ics: InitialConditions, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n-th lift as the affine map y -> J^n y + b: J^n, a (dim, dim)
    array, and b, the lift of the zero vector, a (dim,) array.  J^n is also
    the derivative of the lift at every y."""
    return np.linalg.matrix_power(J, n), lift(np.zeros(ics.config.dim), n, ics, J)
