"""Command line interface.

Two subcommands:

    solve FILE [--r N] [--q N] [--tol X] [--max-iter N] [--grid-size N]
               [--out PATH] [--report PATH]
        Solve one problem file.  The solution table goes to --out as CSV
        (stdout when omitted); --report adds a human-readable summary.
        Exit status: 0 on success, 1 when the solver does not converge
        or the run fails, 2 on bad input.

    reproduce-paper
        Solve the bundled reference cases and compare coefficients,
        error tables and bounds against their published values.  Exit
        status 0 only if every check passes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .problems import (
    ProblemFileError,
    RunFailure,
    emit_csv,
    load_problem,
    run,
    write_csv,
    write_report,
)
from .reference import run_all
from .solver import MAX_ITER, TOL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legpulse",
        description=(
            "Solve nonlinear Fredholm and Volterra integro-differential "
            "equations with a hybrid Legendre/block-pulse basis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_cmd = sub.add_parser(
        "solve", help="solve a problem file and write a CSV solution table"
    )
    solve_cmd.add_argument("file", help="path to a problem file")
    solve_cmd.add_argument("--r", type=int, default=None, help="override the polynomial count r")
    solve_cmd.add_argument("--q", type=int, default=None, help="override the block count q")
    solve_cmd.add_argument(
        "--tol", type=float, default=TOL, help="residual tolerance, max-norm (default %(default)s)"
    )
    solve_cmd.add_argument(
        "--max-iter", type=int, default=MAX_ITER, help="Newton iteration cap (default %(default)s)"
    )
    solve_cmd.add_argument(
        "--grid-size",
        type=int,
        default=None,
        help="evaluate on N evenly spaced points i/N, i = 0..N-1",
    )
    solve_cmd.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    solve_cmd.add_argument("--report", default=None, help="also write a text report here")

    sub.add_parser(
        "reproduce-paper",
        help="check the bundled reference cases against their published values",
    )
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        spec = load_problem(args.file)
    except ProblemFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        overrides = {}
        if args.r is not None:
            overrides["r"] = args.r
        if args.q is not None:
            overrides["q"] = args.q
        if args.grid_size is not None:
            if args.grid_size < 1:
                raise ValueError(f"--grid-size must be positive, got {args.grid_size}")
            overrides["grid"] = tuple(i / args.grid_size for i in range(args.grid_size))
        if overrides:
            spec = replace(spec, **overrides)
        # run's check of tol and max_iter, made first, is the only ValueError it lets out
        output = run(spec, tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1

    try:
        if args.out is None:
            sys.stdout.write(emit_csv(output.rows))
        else:
            write_csv(args.out, output.rows)
        if args.report is not None:
            write_report(args.report, output)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1

    if not output.report.converged:
        print(
            f"did not converge: Newton stopped ({output.report.reason}) after "
            f"{output.report.iterations} of at most "
            f"{args.max_iter} iteration(s), residual max-norm "
            f"{output.report.residual_norm:.3e} > {args.tol:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_reproduce_paper() -> int:
    checks = run_all()
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        print(f"[{status}] {check.case}: {check.check} ({check.detail})")
    all_ok = all(check.ok for check in checks)
    print("all reference checks passed" if all_ok else "some reference checks FAILED")
    return 0 if all_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_reproduce_paper()


if __name__ == "__main__":
    sys.exit(main())
