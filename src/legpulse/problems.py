"""Problem files: parsing, validation, solving and result serialization.

A problem file is UTF-8 text with one ``key = value`` pair per line and
``#`` comments.  Keys:

    kind          "fredholm" or "volterra"
    lambda|beta   scalar multiplying the integral term (lambda for
                  Fredholm problems, beta for Volterra problems)
    kernel        expression in t and s
    f             forcing expression in t
    m, n          derivative orders inside the integrand
    ics           comma-separated y(0) .. y^(l)(0) with l = max(m, n) - 1
    r, q          basis shape: polynomial count and block count
    exact         optional exact solution, expression in t
    grid          optional comma-separated points in [0, 1)
    M             optional bound on the r-th derivative of the solution,
                  used for the reported error bound
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .basis import BasisConfig, reconstruct
from .exprlang import (
    Expr,
    ExprEvalError,
    ExprSyntaxError,
    evaluate,
    parse_expression,
    variables,
)
from .solver import assemble, derivative_max, error_bound, solve, SolveReport

_KNOWN_KEYS = (
    "kind",
    "lambda",
    "beta",
    "kernel",
    "f",
    "m",
    "n",
    "ics",
    "r",
    "q",
    "exact",
    "grid",
    "M",
)

DEFAULT_GRID = tuple(i / 10 for i in range(10))


class ProblemFileError(Exception):
    """A problem file that cannot be parsed or fails validation."""

    def __init__(self, message: str, origin: str, line: Optional[int] = None):
        super().__init__(message)
        self.message = message
        self.origin = origin
        self.line = line

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.origin}: {self.message}"
        return f"{self.origin}:{self.line}: {self.message}"


class RunFailure(RuntimeError):
    """A problem that could not be assembled or evaluated."""


@dataclass(frozen=True)
class ProblemSpec:
    """A validated problem, ready to run."""

    kind: str
    scalar: float
    kernel: Expr
    forcing: Expr
    m: int
    n: int
    initial_conditions: Tuple[float, ...]
    r: int
    q: int
    exact: Optional[Expr] = None
    grid: Tuple[float, ...] = DEFAULT_GRID
    deriv_bound: Optional[float] = None
    origin: str = "<string>"

    def __post_init__(self):
        if self.kind not in ("fredholm", "volterra"):
            raise ValueError(f"kind must be 'fredholm' or 'volterra', got {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise ValueError(f"derivative orders must be nonnegative, got m={self.m}, n={self.n}")
        if self.r < 1 or self.q < 1:
            raise ValueError(f"r and q must be positive, got r={self.r}, q={self.q}")
        if len(self.initial_conditions) != max(self.m, self.n):
            raise ValueError(
                f"derivative orders m={self.m}, n={self.n} require "
                f"{_ics_requirement(self.m, self.n)}, "
                f"got {len(self.initial_conditions)} value(s)"
            )
        for point in self.grid:
            if not 0.0 <= point < 1.0:
                raise ValueError(f"grid points must lie in [0, 1), got {point}")


def _ics_requirement(m: int, n: int) -> str:
    count = max(m, n)
    if count == 0:
        return "no initial conditions"
    return f"exactly the {count} value(s) y(0) .. y^({count - 1})(0)"


def _scan(text: str, origin: str) -> Dict[str, Tuple[str, int]]:
    entries: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProblemFileError("expected 'key = value'", origin, lineno)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ProblemFileError(f"unknown key {key!r}", origin, lineno)
        if key in entries:
            raise ProblemFileError(f"duplicate key {key!r}", origin, lineno)
        if not value:
            raise ProblemFileError(f"empty value for key {key!r}", origin, lineno)
        entries[key] = (value, lineno)
    return entries


def _require(entries, key: str, origin: str) -> Tuple[str, int]:
    if key not in entries:
        raise ProblemFileError(f"missing required key {key!r}", origin)
    return entries[key]


def _int_value(entries, key: str, origin: str, minimum: int) -> int:
    value, lineno = _require(entries, key, origin)
    try:
        parsed = int(value)
    except ValueError:
        raise ProblemFileError(f"{key} must be an integer, got {value!r}", origin, lineno) from None
    if parsed < minimum:
        raise ProblemFileError(f"{key} must be at least {minimum}, got {parsed}", origin, lineno)
    return parsed


def _float_value(value: str, key: str, origin: str, lineno: int) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ProblemFileError(f"{key} must be a real number, got {value!r}", origin, lineno) from None
    if not math.isfinite(parsed):
        raise ProblemFileError(f"{key} must be finite, got {value!r}", origin, lineno)
    return parsed


def _float_list(value: str, key: str, origin: str, lineno: int) -> Tuple[float, ...]:
    return tuple(
        _float_value(item.strip(), key, origin, lineno) for item in value.split(",")
    )


def _expr_value(entries, key: str, origin: str, allowed: frozenset) -> Expr:
    value, lineno = _require(entries, key, origin)
    try:
        tree = parse_expression(value)
    except ExprSyntaxError as exc:
        raise ProblemFileError(f"in {key}: {exc}", origin, lineno) from exc
    stray = variables(tree) - allowed
    if stray:
        names = ", ".join(sorted(stray))
        raise ProblemFileError(
            f"{key} may only use variable(s) {', '.join(sorted(allowed))}, "
            f"but uses {names}",
            origin,
            lineno,
        )
    return tree


def parse_problem(text: str, origin: str = "<string>") -> ProblemSpec:
    """Parse and validate problem-file text."""
    entries = _scan(text, origin)

    kind, kind_line = _require(entries, "kind", origin)
    if kind not in ("fredholm", "volterra"):
        raise ProblemFileError(
            f"kind must be 'fredholm' or 'volterra', got {kind!r}", origin, kind_line
        )
    scalar_key = "lambda" if kind == "fredholm" else "beta"
    wrong_key = "beta" if kind == "fredholm" else "lambda"
    if wrong_key in entries:
        raise ProblemFileError(
            f"key {wrong_key!r} does not apply to kind={kind}; use {scalar_key!r}",
            origin,
            entries[wrong_key][1],
        )
    scalar_text, scalar_line = _require(entries, scalar_key, origin)
    scalar = _float_value(scalar_text, scalar_key, origin, scalar_line)

    kernel = _expr_value(entries, "kernel", origin, frozenset({"t", "s"}))
    forcing = _expr_value(entries, "f", origin, frozenset({"t"}))
    m = _int_value(entries, "m", origin, minimum=0)
    n = _int_value(entries, "n", origin, minimum=0)
    r = _int_value(entries, "r", origin, minimum=1)
    q = _int_value(entries, "q", origin, minimum=1)

    expected_ics = max(m, n)
    if "ics" in entries:
        ics_text, ics_line = entries["ics"]
        ics = _float_list(ics_text, "ics", origin, ics_line)
        if len(ics) != expected_ics:
            raise ProblemFileError(
                f"ics lists {len(ics)} value(s) but derivative orders "
                f"m={m}, n={n} require {_ics_requirement(m, n)}",
                origin,
                ics_line,
            )
    else:
        ics = ()
        if expected_ics:
            raise ProblemFileError(
                f"missing key 'ics': derivative orders m={m}, n={n} require "
                f"{_ics_requirement(m, n)}",
                origin,
            )

    exact = None
    if "exact" in entries:
        exact = _expr_value(entries, "exact", origin, frozenset({"t"}))

    grid = DEFAULT_GRID
    if "grid" in entries:
        grid_text, grid_line = entries["grid"]
        grid = _float_list(grid_text, "grid", origin, grid_line)
        for point in grid:
            if not 0.0 <= point < 1.0:
                raise ProblemFileError(
                    f"grid points must lie in [0, 1), got {point}", origin, grid_line
                )

    deriv_bound = None
    if "M" in entries:
        bound_text, bound_line = entries["M"]
        deriv_bound = _float_value(bound_text, "M", origin, bound_line)
        if deriv_bound < 0.0:
            raise ProblemFileError(
                f"M must be nonnegative, got {deriv_bound}", origin, bound_line
            )

    return ProblemSpec(
        kind=kind,
        scalar=scalar,
        kernel=kernel,
        forcing=forcing,
        m=m,
        n=n,
        initial_conditions=ics,
        r=r,
        q=q,
        exact=exact,
        grid=grid,
        deriv_bound=deriv_bound,
        origin=origin,
    )


def load_problem(path) -> ProblemSpec:
    """Read and parse a problem file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_problem(text, origin=str(path))


@dataclass(frozen=True)
class GridRow:
    """One evaluation point: approximate value and, if known, the error."""

    t: float
    y_approx: float
    y_exact: Optional[float] = None
    abs_error: Optional[float] = None


@dataclass
class RunOutput:
    """Everything a solve produced: report, grid table and error bound."""

    spec: ProblemSpec
    config: BasisConfig
    report: SolveReport
    rows: Tuple[GridRow, ...]
    bound: Optional[float] = None

    @property
    def max_abs_error(self) -> Optional[float]:
        errors = [row.abs_error for row in self.rows if row.abs_error is not None]
        return max(errors) if errors else None


def run(spec: ProblemSpec, tol: float = 1e-12, max_iter: int = 100) -> RunOutput:
    """Assemble, solve and tabulate one problem."""
    config = BasisConfig(q=spec.q, r=spec.r, quad_points=max(24, spec.r))
    try:
        system = assemble(
            config,
            spec.kind,
            spec.scalar,
            lambda t, s: evaluate(spec.kernel, t, s),
            lambda t: evaluate(spec.forcing, t),
            spec.m,
            spec.n,
            spec.initial_conditions,
        )
    except (ExprEvalError, ValueError, ArithmeticError) as exc:
        raise RunFailure(f"could not assemble {spec.origin}: {exc}") from exc

    try:
        report = solve(system, tol=tol, max_iter=max_iter)
    except FloatingPointError as exc:
        raise RunFailure(f"could not solve {spec.origin}: {exc}") from exc

    try:
        y_approx = reconstruct(config, report.Y, spec.grid)
        if spec.exact is None:
            rows = [GridRow(t, float(y)) for t, y in zip(spec.grid, y_approx)]
        else:
            y_exact = evaluate(spec.exact, spec.grid)
            rows = [
                GridRow(t, float(y), float(ye), float(abs(y - ye)))
                for t, y, ye in zip(spec.grid, y_approx, y_exact)
            ]
    except ExprEvalError as exc:
        raise RunFailure(f"could not evaluate {spec.origin} on its grid: {exc}") from exc

    bound = None
    try:
        if spec.deriv_bound is not None:
            bound = error_bound(spec.r - 1, spec.deriv_bound)
        elif spec.exact is not None:
            estimate = derivative_max(lambda x: evaluate(spec.exact, x), spec.r)
            bound = error_bound(spec.r - 1, estimate)
    except (ExprEvalError, ValueError, ArithmeticError) as exc:
        raise RunFailure(f"could not bound the error of {spec.origin}: {exc}") from exc

    return RunOutput(spec=spec, config=config, report=report, rows=tuple(rows), bound=bound)


def _csv_cell(value: Optional[float]) -> str:
    return "" if value is None else format(value, ".17g")


def emit_csv(rows: Sequence[GridRow]) -> str:
    """Render grid rows as CSV text with 17 significant digits and LF endings."""
    lines = ["t,y_approx,y_exact,abs_error"]
    for row in rows:
        lines.append(
            f"{_csv_cell(row.t)},{_csv_cell(row.y_approx)},"
            f"{_csv_cell(row.y_exact)},{_csv_cell(row.abs_error)}"
        )
    return "\n".join(lines) + "\n"


def write_csv(path, rows: Sequence[GridRow]) -> None:
    """Write emit_csv output to a file, forcing LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(emit_csv(rows))


def format_report(output: RunOutput) -> str:
    """Render a human-readable run summary."""
    spec = output.spec
    report = output.report
    scalar_key = "lambda" if spec.kind == "fredholm" else "beta"
    lines = [
        f"problem: {spec.origin}",
        f"kind: {spec.kind} ({scalar_key} = {spec.scalar:g}, m = {spec.m}, n = {spec.n})",
        f"basis: r = {spec.r}, q = {spec.q} (dimension {output.config.dim})",
        f"converged: {'yes' if report.converged else 'no'}",
        f"iterations: {report.iterations}",
        f"residual max-norm: {report.residual_norm:.6e}",
    ]
    if output.bound is not None:
        lines.append(f"error bound: {output.bound:.6e}")
    coeffs = ", ".join(format(c, ".12g") for c in report.Y)
    lines.append(f"coefficients: [{coeffs}]")
    lines.append("")
    lines.append(f"{'t':>6}  {'y_approx':>24}  {'y_exact':>24}  {'abs_error':>12}")
    for row in output.rows:
        exact = f"{row.y_exact:.17g}" if row.y_exact is not None else "-"
        err = f"{row.abs_error:.6e}" if row.abs_error is not None else "-"
        lines.append(f"{row.t:>6.3f}  {row.y_approx:>24.17g}  {exact:>24}  {err:>12}")
    worst = output.max_abs_error
    if worst is not None:
        lines.append("")
        lines.append(f"max abs error on grid: {worst:.6e}")
    return "\n".join(lines) + "\n"


def write_report(path, output: RunOutput) -> None:
    """Write format_report output to a file."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_report(output))
