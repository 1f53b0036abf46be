"""Checks that the seeded generators manufacture what they claim.

Each generated forcing f must equal y + c * I[k y^(m) y^(n)] for
y = exp(b t), with the integral done here by numpy Gauss quadrature rather
than by the closed form the generator used.  Without this, a generator bug
would read as a solver failure.  Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from legpulse import evaluate, parse_problem  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NODES, WEIGHTS = np.polynomial.legendre.leggauss(40)
SAMPLES = (0.0, 0.13, 0.37, 0.5, 0.71, 0.99)


def _integral(spec, b: float, t: float) -> float:
    """I[k y^(m) y^(n)](t) for y = exp(b t) by 40-point Gauss-Legendre."""
    upper = 1.0 if spec.kind == "fredholm" else t
    s = 0.5 * upper * (NODES + 1.0)
    k = np.array([evaluate(spec.kernel, t, si) for si in s])
    integrand = k * b**spec.m * b**spec.n * np.exp(2.0 * b * s)
    return 0.5 * upper * float(WEIGHTS @ integrand)


@pytest.mark.parametrize("name", ["fredholm-wide", "volterra-deep"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_forcing_matches_quadrature(name, seed):
    workload = WORKLOADS[name]
    for problem in itertools.islice(workload.inputs(seed), 20):
        spec = parse_problem(problem.text)
        b = problem.b
        assert spec.initial_conditions == pytest.approx([b**i for i in range(max(spec.m, spec.n))])
        for t in SAMPLES:
            expected = math.exp(b * t) + spec.scalar * _integral(spec, b, t)
            assert evaluate(spec.forcing, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert evaluate(spec.exact, t) == pytest.approx(math.exp(b * t), rel=1e-15)
        if spec.deriv_bound is not None:
            # M bounds the r-th derivative of exp(b t) on [0, 1]
            assert spec.deriv_bound == pytest.approx(b**spec.r * math.exp(b), rel=1e-15)


def _first(name, seed, count=200):
    return list(itertools.islice(WORKLOADS[name].inputs(seed), count))


def test_same_seed_same_inputs():
    for name in ("fredholm-wide", "volterra-deep"):
        first = _first(name, 3)
        assert first == _first(name, 3)
        assert first != _first(name, 4)
        assert len({p.text for p in first}) == len(first)


def test_tracer_records_every_layer_and_restores_modules():
    from legpulse import problems, solver
    from spans import Tracer, layer_metrics

    originals = (problems.run, problems.evaluate, solver.residual, solver.np)
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("fredholm-wide", "volterra-deep"):
            workload = WORKLOADS[name]
            assert workload.op(next(workload.inputs(0)))[0]
    finally:
        tracer.remove()
    assert (problems.run, problems.evaluate, solver.residual, solver.np) == originals

    layers = layer_metrics(tracer, 2, 0, 0.0)
    assert list(layers) == [m["name"] for m in _benchmark_spec()["per_layer"]]
    assert layers["solver.newton.starts"] == 1.0
    assert layers["reference.checks_failed"] == 0.0
    # one op of each kind: every layer below ran at least once
    for name, value in layers.items():
        if name not in ("solver.newton.starts", "reference.checks_failed", "trace.overhead_frac"):
            assert value > 0.0, name
    spans = tracer.totals()
    calls, inclusive, own = spans["solver.residual"]
    children = sum(
        spans[child][1] for child in ("lift.lift", "opmatrices.coeff_matrix", "opmatrices.hat_vector")
    )
    assert own == pytest.approx(inclusive - children)


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_what_run_reports():
    import run

    spec = _benchmark_spec()
    for metric in spec["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
