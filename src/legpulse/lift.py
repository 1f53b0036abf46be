"""Derivative lift: coefficients of y^(n) from the coefficients of y.

Writing Y0^(i) for the projection of the constant y^(i)(0), the lift is the
recursion Y^(i+1) = J (Y^(i) - Y0^(i)) with J = build_J(config), the inverse
transpose of the integration matrix; unrolled it reads
J^n Y - sum_{k=1..n} J^k Y0^(n-k).  The initial conditions are a plain
sequence of floats a_i = y^(i)(0).  lift applies the recursion to one
vector; lift_map pairs the dense power J^n with the lift of the zero vector,
the affine map each assembled system keeps.  J^n depends on the config and
n alone, so lift_power forms it with matrix_power once per (config, n),
keeps it for the life of the process and returns it read-only, like the
build_* matrices of opmatrices; only the offset depends on the ics.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .basis import BasisConfig
from .opmatrices import _frozen, build_J


def project_initial(a: float, config: BasisConfig) -> np.ndarray:
    """Projection of the constant function a, a (dim,) array: value a in
    every order-0 slot."""
    coeffs = np.zeros(config.dim)
    coeffs[:: config.r] = a
    return coeffs


def lift(y: np.ndarray, n: int, ics: Sequence[float], config: BasisConfig) -> np.ndarray:
    """Coefficients of the n-th derivative of the function with coefficients y.

    y is one (config.dim,) coefficient vector, and so is the result.  Needs
    the first n initial conditions; n = 0 returns y unchanged.
    """
    if y.shape != (config.dim,):
        raise ValueError(
            f"coefficient vector must have length {config.dim}, got shape {y.shape}"
        )
    if n < 0:
        raise ValueError(f"derivative order must be >= 0, got {n}")
    if len(ics) < n:
        raise ValueError(
            f"lifting to order {n} needs {n} initial conditions, got {len(ics)}"
        )
    J = build_J(config)
    for a in ics[:n]:
        # subtract the projected constant a, which lives in the order-0 slots
        shifted = y.copy()
        shifted[:: config.r] -= a
        y = J @ shifted
    return y


@lru_cache(maxsize=None)
def lift_power(config: BasisConfig, n: int) -> np.ndarray:
    """J^n, a read-only (dim, dim) array shared by every caller."""
    return _frozen(np.linalg.matrix_power(build_J(config), n))


def lift_map(n: int, ics: Sequence[float], config: BasisConfig) -> tuple[np.ndarray, np.ndarray]:
    """The n-th lift as the affine map y -> J^n y + b: J^n, the read-only
    (dim, dim) array of lift_power, and b, the lift of the zero vector, a
    (dim,) array.  J^n is also the derivative of the lift at every y."""
    offset = lift(np.zeros(config.dim), n, ics, config)
    return lift_power(config, n), offset
