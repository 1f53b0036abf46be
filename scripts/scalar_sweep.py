#!/usr/bin/env python3
"""Solve a problem file at several values of its scalar, in one process.

Every run keeps the file's kernel, kind and shape, so the kernel is projected
and split once and the runs after the first share it (see solver.assemble).
Writes one CSV per scalar, NAME_SCALAR.csv, with the bytes `legpulse solve`
writes for the file with that scalar, and prints Newton's iterations and why
it stopped.  Exits 1 when a run did not converge.

Usage: python3 scripts/scalar_sweep.py PROBLEM_FILE OUT_DIR --scalars 0.5,1,2 [--r N] [--q N]
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

from legpulse.problems import load_problem, run, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="problem file")
    parser.add_argument("out_dir", help="directory the CSVs are written to")
    parser.add_argument("--scalars", required=True, help="comma-separated lambda or beta values")
    parser.add_argument("--r", type=int, default=None, help="override the polynomial count r")
    parser.add_argument("--q", type=int, default=None, help="override the block count q")
    args = parser.parse_args()

    base = load_problem(args.file)
    base = replace(
        base, r=base.r if args.r is None else args.r, q=base.q if args.q is None else args.q
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    converged = True
    print(f"{'scalar':>10} {'iters':>5}  stopped")
    for text in args.scalars.split(","):
        output = run(replace(base, scalar=float(text)))
        write_csv(out_dir / f"{Path(args.file).stem}_{text}.csv", output.rows)
        print(f"{text:>10} {output.report.iterations:>5}  {output.report.reason}")
        converged = converged and output.report.converged
    return 0 if converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
