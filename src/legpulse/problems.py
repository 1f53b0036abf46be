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
from .solver import (
    KINDS,
    MAX_ITER,
    TOL,
    FieldError,
    SolveReport,
    assemble,
    check_problem,
    check_stopping,
    derivative_max,
    error_bound,
    scalar_key,
    solve,
)

_KNOWN_KEYS = (
    "kind",
    *KINDS.values(),
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
    """A validated problem, ready to run.

    Every field is checked here, and a bad one raises a FieldError that
    names its problem-file key, so a spec built by dataclasses.replace is
    held to the same rules as one parsed from a file.  The kind, scalar,
    orders and ics go through solver.check_problem, as they do in assemble.
    """

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
        check_problem(self.kind, self.scalar, self.m, self.n, self.initial_conditions)
        for key in ("r", "q"):
            value = getattr(self, key)
            if value < 1:
                raise FieldError(key, f"{key} must be at least 1, got {value}")
        for point in self.grid:
            if not 0.0 <= point < 1.0:
                raise FieldError("grid", f"grid points must lie in [0, 1), got {point}")
        bound = self.deriv_bound
        if bound is not None and not (math.isfinite(bound) and bound >= 0.0):
            raise FieldError("M", f"M must be finite and nonnegative, got {bound}")


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


def _number(text: str, key: str, cast: type = float):
    try:
        return cast(text)
    except ValueError:
        what = "an integer" if cast is int else "a real number"
        raise FieldError(key, f"{key} must be {what}, got {text!r}") from None


def _float_list(text: str, key: str) -> Tuple[float, ...]:
    return tuple(_number(item.strip(), key) for item in text.split(","))


def _expr_value(text: str, key: str, allowed: set) -> Expr:
    try:
        tree = parse_expression(text)
    except ExprSyntaxError as exc:
        raise FieldError(key, f"in {key}: {exc}") from exc
    stray = variables(tree) - allowed
    if stray:
        raise FieldError(
            key,
            f"{key} may only use variable(s) {', '.join(sorted(allowed))}, "
            f"but uses {', '.join(sorted(stray))}",
        )
    return tree


def parse_problem(text: str, origin: str = "<string>") -> ProblemSpec:
    """Parse problem-file text into a ProblemSpec, which validates it.

    Errors carry the line of the key they concern, or say which key is
    missing.
    """
    entries = _scan(text, origin)

    def value(key, convert, *args):
        if key not in entries:
            raise ProblemFileError(f"missing required key {key!r}", origin)
        return convert(entries[key][0], key, *args)

    try:
        kind = value("kind", lambda text, key: text)
        scalar_name = scalar_key(kind)
        for other in KINDS.values():
            if other != scalar_name and other in entries:
                raise FieldError(
                    other, f"key {other!r} does not apply to kind={kind}; use {scalar_name!r}"
                )
        return ProblemSpec(
            kind=kind,
            scalar=value(scalar_name, _number),
            kernel=value("kernel", _expr_value, {"t", "s"}),
            forcing=value("f", _expr_value, {"t"}),
            m=value("m", _number, int),
            n=value("n", _number, int),
            r=value("r", _number, int),
            q=value("q", _number, int),
            initial_conditions=value("ics", _float_list) if "ics" in entries else (),
            exact=value("exact", _expr_value, {"t"}) if "exact" in entries else None,
            grid=value("grid", _float_list) if "grid" in entries else DEFAULT_GRID,
            deriv_bound=value("M", _number) if "M" in entries else None,
            origin=origin,
        )
    except FieldError as exc:
        if exc.key not in entries:
            raise ProblemFileError(f"missing key {exc.key!r}: {exc}", origin) from None
        raise ProblemFileError(str(exc), origin, entries[exc.key][1]) from None


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


def run(spec: ProblemSpec, tol: float = TOL, max_iter: int = MAX_ITER) -> RunOutput:
    """Check tol and max_iter, then assemble, solve and tabulate one problem.

    assemble gets the kernel's expression tree, so its split, C and
    Volterra's diagonal blocks, E and W, is built once per shape, kind and
    kernel and shared by the runs after it (see solver.assemble); a kernel
    that is a function of t - s alone is sampled on t-blocks 0 and q - 1 only.
    """
    check_stopping(tol, max_iter)
    config = BasisConfig(q=spec.q, r=spec.r)
    try:
        system = assemble(
            config,
            spec.kind,
            spec.scalar,
            spec.kernel,
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
    lines = [
        f"problem: {spec.origin}",
        f"kind: {spec.kind} ({KINDS[spec.kind]} = {spec.scalar:g}, m = {spec.m}, n = {spec.n})",
        f"basis: r = {spec.r}, q = {spec.q} (dimension {output.config.dim})",
        f"converged: {'yes' if report.converged else 'no'}",
        f"stopped by: {report.reason}",
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
