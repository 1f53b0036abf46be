#!/usr/bin/env python3
"""How often does Newton from Y = F find the intended root?  A seeded corpus.

Draws 600 problems with a known exact solution from numpy's default_rng(7),
the kind alternating between Fredholm and Volterra:

- the solution is exp(b t), sin(b t) + 1 or t^2 + b t, with b uniform in
  [-1.5, 1.5], and the ics are its values y(0) .. y^(max(m, n)-1)(0);
- the kernel is one of KERNELS, passed to assemble as an exprlang tree;
- m and n are each drawn from {0, 1, 2}, the scalar is +-10^u with u
  uniform in [-1.5, 0.7], r is drawn from 3 .. 8 and q from {1, 2, 4, 8};
- the forcing, y plus the scalar times the integral of k(t, s) y^(m)(s)
  y^(n)(s) over [0, 1] or [0, t], is a callable that takes the integral by
  a 60-point Gauss rule.

Each solve falls in one of OUTCOMES.  The intended root is the root that
Newton reaches from the projected exact solution.  A converged solve found
it when its Y is within 1e-6 of that root, relative to max(1, max|root|);
a solve is "another root" when it converged anywhere else, or when Newton
from the exact solution found no root.  Prints the outcome counts by kind.

Usage: python3 scripts/manufactured_corpus.py
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from legpulse import BasisConfig, assemble, evaluate, parse_expression, project_function, solve
from legpulse.solver import MAX_ITER, TOL, _newton

KERNELS = ("exp(t - s)", "1", "cos(3*t*s)", "1/(1 + (t - s)^2)", "t + s")
KINDS = ("fredholm", "volterra")
OUTCOMES = (
    "intended root",
    "another root",
    "not converged, root known",
    "not converged, no root found",
)
# a solve's Y within this of the intended root, relative to max(1, max|root|)
SAME_ROOT = 1e-6
NODES, WEIGHTS = np.polynomial.legendre.leggauss(60)


def _solution(family: int, b: float) -> list:
    """The exact solution and its first two derivatives, as numpy callables."""
    if family == 0:
        return [lambda t, k=k: b**k * np.exp(b * t) for k in range(3)]
    if family == 1:
        return [
            lambda t: np.sin(b * t) + 1.0,
            lambda t: b * np.cos(b * t),
            lambda t: -(b**2) * np.sin(b * t),
        ]
    return [lambda t: t**2 + b * t, lambda t: 2.0 * t + b, lambda t: np.full_like(t, 2.0)]


def _forcing(kind: str, scalar: float, tree, y: list, m: int, n: int):
    """t -> y(t) + scalar * the Gauss rule's integral of k(t, s) y^(m)(s) y^(n)(s)."""

    def f(t):
        t = np.asarray(t, dtype=float)[..., None]
        half = (t if kind == "volterra" else np.ones_like(t)) / 2.0
        s = half * (NODES + 1.0)
        integral = (evaluate(tree, t, s) * y[m](s) * y[n](s)) @ WEIGHTS * half[..., 0]
        return y[0](t[..., 0]) + scalar * integral

    return f


def draw() -> list[tuple[dict, object]]:
    """The 600 problems: assemble's keyword arguments, and the exact solution."""
    rng = np.random.default_rng(7)
    problems = []
    for index in range(600):
        kind = KINDS[index % 2]
        y = _solution(int(rng.integers(3)), float(rng.uniform(-1.5, 1.5)))
        tree = parse_expression(KERNELS[int(rng.integers(len(KERNELS)))])
        m, n = (int(order) for order in rng.integers(3, size=2))
        scalar = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.5, 0.7))
        config = BasisConfig(q=int(rng.choice([1, 2, 4, 8])), r=int(rng.integers(3, 9)))
        arguments = {
            "config": config,
            "kind": kind,
            "scalar": scalar,
            "kernel": tree,
            "forcing": _forcing(kind, scalar, tree, y, m, n),
            "m": m,
            "n": n,
            "ics": tuple(float(y[k](0.0)) for k in range(max(m, n))),
        }
        problems.append((arguments, y[0]))
    return problems


def classify(arguments: dict, exact) -> str:
    """The outcome of solve on one drawn problem, one of OUTCOMES."""
    system = assemble(**arguments)
    intended = _newton(system, project_function(system.config, exact), TOL, MAX_ITER)
    report = solve(system)
    if report.converged:
        gap = np.abs(report.Y - intended.Y).max()
        near = gap <= SAME_ROOT * max(1.0, np.abs(intended.Y).max())
        return OUTCOMES[0] if intended.converged and near else OUTCOMES[1]
    return OUTCOMES[2] if intended.converged else OUTCOMES[3]


def tally(problems: list[tuple[dict, object]]) -> Counter:
    """Counts of (kind, outcome) over the drawn problems."""
    return Counter((arguments["kind"], classify(arguments, exact)) for arguments, exact in problems)


def main() -> int:
    counts = tally(draw())
    print(f"{'outcome':<30} {'fredholm':>8} {'volterra':>8}")
    for outcome in OUTCOMES:
        print(f"{outcome:<30} {counts[KINDS[0], outcome]:>8} {counts[KINDS[1], outcome]:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
