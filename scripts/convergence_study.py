#!/usr/bin/env python3
"""Sweep basis shapes (r, q) on a problem file and print max grid errors.

The problem needs an `exact` key.  Errors are measured on a fixed dense
grid so runs at different shapes are comparable.

Usage: python3 scripts/convergence_study.py PROBLEM_FILE [--r-max N] [--q-list 1,2,4,8]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from legpulse.problems import load_problem, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="problem file with an exact solution")
    parser.add_argument("--r-max", type=int, default=5, help="largest polynomial count")
    parser.add_argument(
        "--q-list", default="1,2,4,8", help="comma-separated block counts"
    )
    parser.add_argument("--grid-size", type=int, default=200, help="evaluation points")
    args = parser.parse_args()

    base = load_problem(args.file)
    if base.exact is None:
        parser.error(f"{args.file} has no exact solution to measure errors against")
    q_values = [int(v) for v in args.q_list.split(",")]
    grid = tuple(i / args.grid_size for i in range(args.grid_size))

    print(f"{'r':>3} {'q':>3} {'dim':>5} {'iters':>5} {'max abs error':>14}")
    for r in range(2, args.r_max + 1):
        for q in q_values:
            # the file's M is kept: the error bound it gives is not printed, and
            # without M run would estimate the bound with derivative_max at every
            # shape, which raises from r = 50 up
            spec = replace(base, r=r, q=q, grid=grid)
            output = run(spec)
            flag = "" if output.report.converged else "  (not converged)"
            print(
                f"{r:>3} {q:>3} {r * q:>5} {output.report.iterations:>5} "
                f"{output.max_abs_error:>14.3e}{flag}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
