"""The benchmark's workloads: seeded problem generators, the timed op and its gate.

Each synthetic problem is manufactured so that y(t) = exp(b t) solves it
exactly, which lets the gate compare the solver's CSV output with a value
the benchmark computes itself.  Every workload is chosen so that one
ROADMAP optimisation loads it heavily and another lightly; README.md in
this directory maps each per-layer metric to the end-to-end metric it
should move.  legpulse is imported inside the ops, so that the launcher can
read this module without it and the worker can time that import itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

_FREDHOLM_TEXT = """\
kind = fredholm
lambda = {scalar!r}
kernel = exp(t - s)
f = exp({b!r}*t) + {c!r}*exp(t)
m = 0
n = 1
ics = 1
r = 3
q = 12
exact = exp({b!r}*t)
"""

_VOLTERRA_TEXT = """\
kind = volterra
beta = {scalar!r}
kernel = exp(t - s)
f = exp({b!r}*t) + {c!r}*(exp({two_b!r}*t) - exp(t))
m = 1
n = 2
ics = 1, {b!r}
r = 12
q = 4
exact = exp({b!r}*t)
M = {M!r}
"""


@dataclass(frozen=True)
class Problem:
    """Problem-file text whose exact solution is exp(b t)."""

    text: str
    b: float


def fredholm_problem(rng: random.Random) -> Problem:
    """y + lambda * int_0^1 exp(t-s) y(s) y'(s) ds = f with y = exp(b t)."""
    scalar = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.6, 1.4)
    # int_0^1 exp(t-s) * b exp(2bs) ds = b (e^(2b-1) - 1) / (2b-1) * exp(t)
    c = scalar * b * math.expm1(2.0 * b - 1.0) / (2.0 * b - 1.0)
    return Problem(_FREDHOLM_TEXT.format(scalar=scalar, b=b, c=c), b)


def volterra_problem(rng: random.Random) -> Problem:
    """y + beta * int_0^t exp(t-s) y'(s) y''(s) ds = f with y = exp(b t)."""
    scalar = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.6, 1.4)
    # int_0^t exp(t-s) * b^3 exp(2bs) ds = b^3 / (2b-1) * (exp(2bt) - exp(t))
    c = scalar * b**3 / (2.0 * b - 1.0)
    # the r-th derivative b^r exp(b t) peaks at t = 1
    M = b**12 * math.exp(b)
    return Problem(
        _VOLTERRA_TEXT.format(scalar=scalar, b=b, c=c, two_b=2.0 * b, M=M), b
    )


def solve_and_check(problem: Problem, limit: float) -> Tuple[bool, float]:
    """One synthetic op: parse, run, emit CSV, then check the CSV.

    The op passes when Newton converged and every CSV value lies within
    ``limit`` of exp(b t), computed here rather than by the solver.
    """
    from legpulse import problems

    spec = problems.parse_problem(problem.text, origin="perfbench")
    output = problems.run(spec)
    lines = problems.emit_csv(output.rows).splitlines()
    worst = 0.0
    for line in lines[1:]:
        t, y_approx = (float(cell) for cell in line.split(",")[:2])
        worst = max(worst, abs(y_approx - math.exp(problem.b * t)))
    ok = output.report.converged and len(lines) == len(spec.grid) + 1 and worst <= limit
    return ok, worst


def paper_round(_: None) -> Tuple[bool, float]:
    """One op: every bundled reference case with all its published-value checks."""
    from legpulse import reference

    checks = reference.run_all()
    return all(check.ok for check in checks), float(sum(not c.ok for c in checks))


@dataclass(frozen=True)
class Workload:
    name: str
    # draws one problem; None for workloads with fixed inputs
    generate: Optional[Callable[[random.Random], Problem]]
    # max |y_approx - y_exact| an op may show and still pass
    limit: Optional[float]

    def inputs(self, seed: int) -> Iterator[Optional[Problem]]:
        """Endless stream of problems drawn from ``seed``, or of None on paper-round."""
        rng = random.Random(seed)
        while True:
            yield None if self.generate is None else self.generate(rng)

    def op(self, item: Optional[Problem]) -> Tuple[bool, float]:
        """Run one op; returns (passed, worst error or failed-check count)."""
        if self.generate is None:
            return paper_round(item)
        return solve_and_check(item, self.limit)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fredholm-wide", fredholm_problem, 1e-4),
        Workload("volterra-deep", volterra_problem, 1e-10),
        Workload("paper-round", None, None),
    )
}
