"""Derivative lift: coefficients of y^(n) from the coefficients of y.

Writing Y0^(i) for the projection of the constant y^(i)(0), the lift is the
recursion Y^(i+1) = J (Y^(i) - Y0^(i)) with J = build_J(config), (P^T)^-1 in
closed form; unrolled it reads J^n Y - sum_{k=1..n} J^k Y0^(n-k), the affine
map J^n Y + lift_offset.  The initial conditions are a plain sequence of
floats a_i = y^(i)(0).  lift applies the recursion to one vector, and
lift_offset to the zero vector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import BasisConfig
from .opmatrices import build_J


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


def lift_offset(n: int, ics: Sequence[float], config: BasisConfig) -> np.ndarray:
    """The lift of the zero vector, a (dim,) array: the n-th lift of y is
    J^n y + lift_offset(n, ics, config).  AssembledSystem's offsets come from
    here, not from solver's lift, which perfbench/spans.py times as the
    residual's lift layer."""
    return lift(np.zeros(config.dim), n, ics, config)
