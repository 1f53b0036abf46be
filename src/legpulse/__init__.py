"""Hybrid Legendre/block-pulse solver for nonlinear integro-differential equations.

Approximates solutions of

    y(t) + c * I[k(t,s) y^(m)(s) y^(n)(s)](t) = f(t),   t in [0, 1),

where I integrates over [0, 1] (Fredholm) or [0, t] (Volterra), by
projecting everything onto an orthogonal basis of Legendre polynomials
rescaled onto q equal blocks and solving the resulting nonlinear
algebraic system with a damped Newton iteration.
"""

from .basis import (
    BasisConfig,
    block_of,
    eval_basis,
    project_function,
    project_kernel,
    reconstruct,
)
from .exprlang import (
    ExprEvalError,
    ExprSyntaxError,
    UnknownIdentifier,
    evaluate,
    parse_expression,
    to_string,
    variables,
)
from .lift import lift, project_initial
from .opmatrices import (
    build_J,
    build_L,
    build_P,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
)
from .problems import (
    GridRow,
    ProblemFileError,
    ProblemSpec,
    RunFailure,
    RunOutput,
    emit_csv,
    format_report,
    load_problem,
    parse_problem,
    run,
    write_csv,
    write_report,
)
from .reference import CASES, CheckResult, ReferenceCase, run_all, run_case
from .solver import (
    AssembledSystem,
    SolveReport,
    assemble,
    derivative_max,
    error_bound,
    residual,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "AssembledSystem",
    "BasisConfig",
    "CASES",
    "CheckResult",
    "ExprEvalError",
    "ExprSyntaxError",
    "GridRow",
    "ProblemFileError",
    "ProblemSpec",
    "ReferenceCase",
    "RunFailure",
    "RunOutput",
    "SolveReport",
    "UnknownIdentifier",
    "assemble",
    "block_of",
    "build_J",
    "build_L",
    "build_P",
    "build_triple_tensor",
    "coeff_matrix",
    "derivative_max",
    "emit_csv",
    "error_bound",
    "eval_basis",
    "evaluate",
    "format_report",
    "hat_vector",
    "lift",
    "load_problem",
    "parse_expression",
    "parse_problem",
    "project_function",
    "project_initial",
    "project_kernel",
    "reconstruct",
    "residual",
    "run",
    "run_all",
    "run_case",
    "solve",
    "to_string",
    "variables",
    "write_csv",
    "write_report",
]
