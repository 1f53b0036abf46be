#!/usr/bin/env python3
"""Layered solve benchmark for legpulse.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fredholm-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload run is a closed loop with one client: one fresh worker
process solves one problem after another, BLAS pinned to one thread.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a
separate traced run prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every op passed its gate,
1 when some op failed or a worker broke, and 2 when there is no legpulse
source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# a run, set-up included, must end within this many seconds
DEADLINE_S = 170.0
# time the worker keeps after its loop for provenance and exit
WORKER_MARGIN_S = 15.0
# fresh interpreters that only import and warm up, for a median setup_s
SETUP_PROBES = 4
# time kept for each probe that runs after the timed worker
PROBE_S = 5.0

# every end-to-end value printed; the JSON result carries those that
# BENCHMARK.json lists under end_to_end
UNITS = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "solves_per_s": "1/s",
    "fail_frac": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _worker(args, mode: str, budget: float, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(budget),
        mode,
    ]
    proc = subprocess.run(
        cmd,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_one(args, spec: dict) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    load_start = os.getloadavg()
    # half the set-up probes run before the timed worker and half after it,
    # so that one slow phase of the machine does not decide setup_s
    before = 0 if args.trace else SETUP_PROBES // 2
    after = 0 if args.trace else SETUP_PROBES - before
    samples = [_worker(args, "setup", 0.0, deadline) for _ in range(before)]
    budget = deadline - time.monotonic() - WORKER_MARGIN_S - after * PROBE_S
    result = _worker(args, "trace" if args.trace else "time", budget, deadline)
    samples.append(result)
    samples += [_worker(args, "setup", 0.0, deadline) for _ in range(after)]

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in samples),
            "solve_s.p50": result["p50"],
            "solve_s.p90": result["p90"],
            "solves_per_s": result["solves_per_s"],
            "fail_frac": failed / attempted,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = UNITS
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    correct = failed == 0 and all(p["warmup_ok"] for p in samples)

    workload = WORKLOADS[args.workload]
    provenance = dict(
        result["provenance"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        accuracy_limit=workload.limit,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        ops_measured=result["ops"],
        worst_error=result["worst"],
    )
    print("# provenance " + json.dumps(provenance))
    for name, value in values.items():
        print(f"{args.workload:<14} {name:<36} {value:<14.6g} {units[name]}")
    if args.trace:
        ranked = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
        print("# self time per traced op: " + ", ".join(f"{k} {v:.4g} s" for k, v in ranked))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "legpulse", "__init__.py")):
        print(f"no legpulse source tree at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        args.workload = name
        try:
            status = max(status, _run_one(args, spec))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: worker failed: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
