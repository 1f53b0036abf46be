"""One workload run in a fresh interpreter; prints its result as one JSON line.

run.py starts this script with BLAS pinned to one thread and ``src`` on
PYTHONPATH, both set in the environment before numpy is first imported.
Usage:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS BUDGET MODE

MODE is ``setup`` (import and warm up only), ``time`` (the untraced closed
loop) or ``trace`` (alternating untraced and traced ops).
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

# a run keeps going past --seconds until it has this many ops, so that
# at least ten samples lie beyond the 90th percentile
MIN_OPS = 100


def _provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _timed_op(workload, item):
    """Run one op; returns (seconds, passed, worst error or failed checks)."""
    start = time.perf_counter()
    try:
        ok, detail = workload.op(item)
    except Exception:
        # an op that raises is a failed op, not a failed run
        traceback.print_exc(file=sys.stderr)
        ok, detail = False, float("nan")
    return time.perf_counter() - start, ok, detail


def main(argv) -> int:
    name, seed, seconds, budget, mode = argv
    seed, seconds, budget = int(seed), float(seconds), float(budget)

    start = time.perf_counter()
    import legpulse  # noqa: F401  (the import is what setup_s times)

    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    warmup_s, warm_ok, _ = _timed_op(workload, next(inputs))
    result = {"setup_s": import_s + warmup_s, "warmup_ok": warm_ok}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
    times = {False: [], True: []}
    attempted = failed = 0
    worst = 0.0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= budget or (elapsed >= seconds and attempted >= MIN_OPS):
            break
        # in a traced run every second op is traced, so that both halves
        # draw from the same stream and meet the same machine conditions
        traced = tracer is not None and attempted % 2 == 1
        item = next(inputs)
        if traced:
            tracer.install()
        try:
            took, ok, detail = _timed_op(workload, item)
        finally:
            if traced:
                tracer.remove()
        times[traced].append(took)
        attempted += 1
        failed += not ok
        worst = max(worst, detail)
    loop_s = time.perf_counter() - loop_start

    result.update(
        attempted=attempted,
        failed=failed,
        worst=worst,
        provenance=_provenance(),
    )
    if tracer is None:
        plain = times[False]
        result.update(
            ops=len(plain),
            p50=statistics.median(plain),
            p90=statistics.quantiles(plain, n=10)[-1],
            solves_per_s=(attempted - failed) / loop_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        from spans import layer_metrics

        ops = len(times[True])
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        result.update(
            ops=ops,
            layers=layer_metrics(tracer, ops, failed, overhead),
            self_s={k: own / ops for k, (_, _, own) in tracer.totals().items()},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
