"""Published reference cases and checks used by ``reproduce-paper``.

Each case bundles a problem file, the coefficient vector and absolute
errors published for it, and the tolerances at which this implementation
is expected to reproduce them.  The first case carries a deliberately
loose tolerance on its coefficient vector: the published pair (e-1, 9-3e)
does not satisfy the published algebraic system, whose actual root lies
about 1.2e-2 away and reproduces the published error table to 5e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .problems import RunOutput, parse_problem, run

_FREDHOLM_TEXT = """\
# Exponential kernel over the whole interval; exact solution exp(t).
kind = fredholm
lambda = 1
kernel = exp(t - s)
f = e^(t + 1)
m = 0
n = 1
ics = 1
r = {r}
q = {q}
exact = exp(t)
M = {M}
"""

_VOLTERRA_TEXT = """\
# Oscillatory kernel over [0, t]; exact solution t^2.
kind = volterra
beta = 1
kernel = sin(t - s)
f = 2*t^3 + t^2 - 12*t + 12*sin(t)
m = 0
n = 1
ics = 0
r = 3
q = 4
exact = t^2
M = 2
"""


@dataclass(frozen=True)
class ReferenceCase:
    """A problem with its published outputs and comparison tolerances."""

    name: str
    description: str
    problem_text: str
    published_solution: Tuple[float, ...]
    solution_tol: float
    published_errors: Tuple[float, ...]
    table_tol: float
    published_bound: float


CASES: Tuple[ReferenceCase, ...] = (
    ReferenceCase(
        name="fredholm-exp-coarse",
        description="exponential Fredholm problem, r=2, q=1",
        problem_text=_FREDHOLM_TEXT.format(r=2, q=1, M=math.e),
        published_solution=(math.e - 1.0, 9.0 - 3.0 * math.e),
        # the published pair is not the root of the published system;
        # the computed root sits about 1.2e-2 away from it
        solution_tol=1.5e-2,
        published_errors=(
            0.120825,
            0.05579,
            0.00182,
            0.03992,
            0.06816,
            0.08146,
            0.07827,
            0.05683,
            0.01525,
            0.04861,
        ),
        table_tol=1.5e-2,
        published_bound=0.169893,
    ),
    ReferenceCase(
        name="fredholm-exp-fine",
        description="exponential Fredholm problem, r=3, q=4",
        problem_text=_FREDHOLM_TEXT.format(r=3, q=4, M=math.e),
        published_solution=(
            1.1361,
            0.141865,
            0.00590841,
            1.45878,
            0.182158,
            0.00758655,
            1.87312,
            0.233896,
            0.00974132,
            2.40513,
            0.300328,
            0.0125081,
        ),
        solution_tol=5e-4,
        published_errors=(
            0.000145961,
            0.0000409679,
            0.0000553281,
            0.0000656897,
            0.0000536172,
            0.000240649,
            0.0000675446,
            0.0000912206,
            0.000108304,
            0.0000883998,
        ),
        table_tol=5e-5,
        published_bound=0.01416,
    ),
    ReferenceCase(
        name="volterra-poly",
        description="oscillatory Volterra problem, r=3, q=4",
        problem_text=_VOLTERRA_TEXT,
        published_solution=(
            0.0208333,
            0.0312487,
            0.0104375,
            0.145833,
            0.0937492,
            0.0104781,
            0.395833,
            0.15625,
            0.0105145,
            0.770834,
            0.218753,
            0.010543,
        ),
        solution_tol=5e-4,
        published_errors=(
            0.0000221689,
            8.9e-6,
            4.99e-8,
            3e-6,
            0.0000271471,
            0.0000975226,
            0.0000429716,
            4.32e-6,
            3.76e-6,
            0.0000547743,
        ),
        table_tol=5e-5,
        published_bound=0.0104167,
    ),
)


@dataclass(frozen=True)
class CheckResult:
    """One named comparison against a published value."""

    case: str
    check: str
    ok: bool
    detail: str


def _deviation_check(
    case: str, check: str, observed, expected, tol: float
) -> CheckResult:
    deviation = max(abs(o - e) for o, e in zip(observed, expected))
    return CheckResult(
        case=case,
        check=check,
        ok=deviation <= tol,
        detail=f"max deviation {deviation:.3e} (tolerance {tol:.1e})",
    )


def run_case(case: ReferenceCase) -> Tuple[RunOutput, Tuple[CheckResult, ...]]:
    """Solve one reference case and compare it with its published data."""
    spec = parse_problem(case.problem_text, origin=case.name)
    output = run(spec)
    report = output.report

    checks = [
        CheckResult(
            case=case.name,
            check="newton converged",
            ok=report.converged,
            detail=(
                f"{report.iterations} iteration(s), "
                f"residual {report.residual_norm:.3e}"
            ),
        ),
        _deviation_check(
            case.name,
            "coefficients match published vector",
            report.Y,
            case.published_solution,
            case.solution_tol,
        ),
        _deviation_check(
            case.name,
            "grid errors match published table",
            [row.abs_error for row in output.rows],
            case.published_errors,
            case.table_tol,
        ),
    ]
    worst = output.max_abs_error
    checks.append(
        CheckResult(
            case=case.name,
            check="grid errors within published bound",
            ok=worst is not None and worst <= case.published_bound,
            detail=f"max error {worst:.3e} (bound {case.published_bound:.6g})",
        )
    )
    return output, tuple(checks)


def run_all() -> Tuple[CheckResult, ...]:
    """Run every reference case and collect every check."""
    results = []
    for case in CASES:
        _, checks = run_case(case)
        results.extend(checks)
    return tuple(results)
