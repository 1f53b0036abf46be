"""Acceptance suite: every published criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 1a is a strict expected failure: the published coefficient pair
(e-1, 9-3e) is not a root of the published algebraic system, so no correct
implementation can match it to 1e-6.  The solver instead finds the actual
root, which reproduces the published error table to ~5e-6; that and the
remaining criterion-1 clauses are asserted as written.
"""

import math

import numpy as np
import pytest

from legpulse.basis import (
    BasisConfig,
    eval_basis,
    project_function,
    reconstruct,
)
from legpulse.cli import main
from legpulse.lift import lift, project_initial
from legpulse.opmatrices import (
    build_J,
    build_L,
    build_P,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
)
from legpulse.reference import CASES, run_case
from legpulse.solver import assemble, solve

E = math.e


def announce(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def coarse_run():
    return run_case(CASES[0])


@pytest.fixture(scope="module")
def fine_run():
    return run_case(CASES[1])


@pytest.fixture(scope="module")
def volterra_run():
    return run_case(CASES[2])


@pytest.mark.xfail(
    strict=True,
    reason="the published coefficient pair (e-1, 9-3e) does not satisfy the "
    "published r=2, q=1 algebraic system (its residual is 0.052); the actual "
    "root is (1.730183, 0.851008) and reproduces the published error table",
)
def test_criterion_1a_solution_matches_published_pair(coarse_run):
    output, _ = coarse_run
    published = np.array([E - 1.0, 9.0 - 3.0 * E])
    deviation = float(np.max(np.abs(output.report.Y - published)))
    announce(
        "1a",
        deviation <= 1e-6,
        f"solver Y vs published pair (e-1, 9-3e): max deviation {deviation:.3e} "
        f"(tolerance 1e-06) -- known inconsistency in the published pair",
    )
    assert deviation <= 1e-6


def test_criterion_1b_published_pair_reconstructs_published_line():
    cfg = BasisConfig(q=1, r=2)
    Y = np.array([E - 1.0, 9.0 - 3.0 * E])
    ts = np.linspace(0.0, 1.0, 1000, endpoint=False)
    deviation = max(
        abs(reconstruct(cfg, Y, t) - ((4.0 * E - 10.0) + (18.0 - 6.0 * E) * t))
        for t in ts
    )
    ok = announce(
        "1b",
        deviation <= 1e-9,
        f"reconstruction of (e-1, 9-3e) vs the line 4e-10 + (18-6e)t: "
        f"max deviation {deviation:.3e} (tolerance 1e-09)",
    )
    assert ok


def test_criterion_1c_grid_errors_within_published_bound(coarse_run):
    output, _ = coarse_run
    worst = output.max_abs_error
    ok = announce(
        "1c",
        worst <= 0.169893,
        f"r=2, q=1 max grid error {worst:.6f} within published bound 0.169893",
    )
    assert ok


def test_criterion_1d_table_matched_within_documented_slack(coarse_run):
    output, _ = coarse_run
    errors = [row.abs_error for row in output.rows]
    deviation = max(
        abs(e - p) for e, p in zip(errors, CASES[0].published_errors)
    )
    ok = announce(
        "1d",
        deviation <= 1.5e-2,
        f"r=2, q=1 grid errors vs published table: max deviation "
        f"{deviation:.3e} (tolerance 1.5e-02; actual agreement is ~5e-06)",
    )
    assert ok


def test_criterion_2_fine_fredholm_reproduction(fine_run):
    output, _ = fine_run
    case = CASES[1]
    dev_y = float(
        np.max(np.abs(output.report.Y - np.array(case.published_solution)))
    )
    errors = [row.abs_error for row in output.rows]
    dev_table = max(abs(e - p) for e, p in zip(errors, case.published_errors))
    worst = max(errors)
    dev_t0 = abs(errors[0] - 0.000145961)
    ok = announce(
        "2",
        dev_y <= 5e-4 and dev_table <= 5e-5 and worst <= 0.01416 and dev_t0 <= 5e-5,
        f"r=3, q=4: Y deviation {dev_y:.3e} (<=5e-04), table deviation "
        f"{dev_table:.3e} (<=5e-05), max error {worst:.3e} (<=0.01416), "
        f"t=0 error deviation {dev_t0:.3e} (<=5e-05)",
    )
    assert ok


def test_criterion_3_volterra_reproduction(volterra_run):
    output, _ = volterra_run
    case = CASES[2]
    dev_y = float(
        np.max(np.abs(output.report.Y - np.array(case.published_solution)))
    )
    errors = [row.abs_error for row in output.rows]
    dev_table = max(abs(e - p) for e, p in zip(errors, case.published_errors))
    worst = max(errors)
    ok = announce(
        "3",
        dev_y <= 5e-4 and dev_table <= 5e-5 and worst <= 0.0104167,
        f"volterra r=3, q=4: Y deviation {dev_y:.3e} (<=5e-04), table deviation "
        f"{dev_table:.3e} (<=5e-05), max error {worst:.3e} (<=0.0104167)",
    )
    assert ok


def _legendre_scalar(m: int, x: float) -> float:
    if m == 0:
        return 1.0
    prev, cur = 1.0, x
    for j in range(1, m):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur


def _sampling(cfg):
    """Per-block numpy Gauss samples of the whole basis on [0, 1).

    Returns node positions ts, unit-interval weights ws, the (dim, N) basis
    sample matrix B, and the normalizations 1/<b_i, b_i>.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    ts, ws = [], []
    for k in range(cfg.q):
        a, b = k / cfg.q, (k + 1) / cfg.q
        ts.extend((nodes + 1.0) / 2.0 * (b - a) + a)
        ws.extend(weights * (b - a) / 2.0)
    ts, ws = np.array(ts), np.array(ws)
    B = np.array([eval_basis(cfg, t) for t in ts]).T
    norms = np.tile((2.0 * np.arange(cfg.r) + 1.0) * cfg.q, cfg.q)
    return ts, ws, B, norms


def _project_samples(values, ws, B, norms):
    return norms * (B @ (ws * values))


def _cumulative_basis_samples(cfg, i, ts):
    """Running integral of basis function i at every node, via numpy Gauss."""
    k, m = divmod(i, cfg.r)
    lo, hi = k / cfg.q, (k + 1) / cfg.q
    gx, gw = np.polynomial.legendre.leggauss(16)
    out = np.empty_like(ts)
    for idx, t in enumerate(ts):
        if t <= lo:
            out[idx] = 0.0
            continue
        upper = min(t, hi)
        mapped = (gx + 1.0) / 2.0 * (upper - lo) + lo
        vals = [
            _legendre_scalar(m, 2.0 * cfg.q * x - 2.0 * k - 1.0) for x in mapped
        ]
        out[idx] = float(np.dot(gw, vals)) * (upper - lo) / 2.0
    return out


def _diagonal_blocks(S, r):
    """The (q, r, r) diagonal blocks of a dense matrix S."""
    return np.stack([S[k : k + r, k : k + r] for k in range(0, S.shape[0], r)])


def test_criterion_4_operational_matrix_oracle_suite():
    worst = {"P": 0.0, "L": 0.0, "J": 0.0, "C": 0.0, "S": 0.0}
    rng = np.random.default_rng(4)
    for r in range(1, 6):
        for q in range(1, 6):
            cfg = BasisConfig(q=q, r=r)
            ts, ws, B, norms = _sampling(cfg)
            tensor = build_triple_tensor(cfg)

            P = build_P(cfg)
            for i in range(cfg.dim):
                oracle = _project_samples(
                    _cumulative_basis_samples(cfg, i, ts), ws, B, norms
                )
                worst["P"] = max(worst["P"], float(np.max(np.abs(P[i] - oracle))))

            gram = (B * ws) @ B.T
            worst["L"] = max(
                worst["L"], float(np.max(np.abs(build_L(cfg) - gram)))
            )

            JPt = build_J(cfg) @ P.T
            worst["J"] = max(
                worst["J"], float(np.max(np.abs(JPt - np.eye(cfg.dim))))
            )

            for _ in range(20):
                C = rng.uniform(-1.0, 1.0, cfg.dim)
                u = C @ B
                oracle_M = (B * (ws * u)) @ (B.T * norms[None, :])
                M = np.zeros((cfg.dim, cfg.dim))
                for k, block in enumerate(coeff_matrix(C, tensor)):
                    M[k * r : (k + 1) * r, k * r : (k + 1) * r] = block
                worst["C"] = max(worst["C"], float(np.max(np.abs(M - oracle_M))))

                S = rng.uniform(-1.0, 1.0, (cfg.dim, cfg.dim))
                v = np.einsum("in,ij,jn->n", B, S, B)
                oracle_hat = _project_samples(v, ws, B, norms)
                hat = hat_vector(_diagonal_blocks(S, r), tensor)
                worst["S"] = max(worst["S"], float(np.max(np.abs(hat - oracle_hat))))

    # the r=3, q=4 hat vector reproduces the published closed-form pattern
    cfg = BasisConfig(q=4, r=3)
    tensor = build_triple_tensor(cfg)
    S = rng.uniform(-1.0, 1.0, (12, 12))
    hat = hat_vector(_diagonal_blocks(S, 3), tensor)
    pattern_dev = 0.0
    for k in range(4):
        s = S[k * 3 : (k + 1) * 3, k * 3 : (k + 1) * 3]
        expected = np.array(
            [
                s[0, 0] + s[1, 1] / 3.0 + s[2, 2] / 5.0,
                s[0, 1] + s[1, 0] + 0.4 * (s[1, 2] + s[2, 1]),
                s[0, 2] + s[2, 0] + (2.0 / 3.0) * s[1, 1] + (2.0 / 7.0) * s[2, 2],
            ]
        )
        pattern_dev = max(
            pattern_dev, float(np.max(np.abs(hat[k * 3 : (k + 1) * 3] - expected)))
        )

    ok = announce(
        "4",
        worst["P"] <= 1e-12
        and worst["L"] <= 1e-12
        and worst["J"] <= 1e-10
        and worst["C"] <= 1e-12
        and worst["S"] <= 1e-12
        and pattern_dev <= 1e-14,
        f"r,q <= 5 oracles: P {worst['P']:.1e} (<=1e-12), L {worst['L']:.1e} "
        f"(<=1e-12), J*P^T-I {worst['J']:.1e} (<=1e-10), C~ {worst['C']:.1e} "
        f"(<=1e-12), S^ {worst['S']:.1e} (<=1e-12), r=3 q=4 pattern "
        f"{pattern_dev:.1e} (exact)",
    )
    assert ok


def test_criterion_5_derivative_lift_identities():
    rng = np.random.default_rng(5)
    worst_closed = 0.0
    for r in range(1, 5):
        for q in range(1, 5):
            cfg = BasisConfig(q=q, r=r)
            J = build_J(cfg)
            for n in range(5):
                Y = rng.uniform(-1.0, 1.0, cfg.dim)
                ics = tuple(rng.uniform(-1.0, 1.0, n))
                got = lift(Y, n, ics, cfg)
                expected = np.linalg.matrix_power(J, n) @ Y
                for k in range(1, n + 1):
                    y0 = project_initial(ics[n - k], cfg)
                    expected -= np.linalg.matrix_power(J, k) @ y0
                scale = max(1.0, float(np.max(np.abs(expected))))
                worst_closed = max(
                    worst_closed, float(np.max(np.abs(got - expected))) / scale
                )

    worst_poly = 0.0
    for r in range(2, 7):
        cfg = BasisConfig(q=1, r=r)
        Y = project_function(cfg, lambda t: sum(t**j for j in range(r)))
        got = lift(Y, 1, (1.0,), cfg)
        expected = project_function(
            cfg, lambda t: sum(j * t ** (j - 1) for j in range(1, r))
        )
        worst_poly = max(worst_poly, float(np.max(np.abs(got - expected))))

    cfg = BasisConfig(q=3, r=3)
    Y = np.arange(9.0)
    identity_ok = np.array_equal(lift(Y, 0, (), cfg), Y)

    ok = announce(
        "5",
        worst_closed <= 1e-10 and worst_poly <= 1e-9 and identity_ok,
        f"lift: iterated vs closed form {worst_closed:.1e} (<=1e-10, n<=4), "
        f"polynomial consistency {worst_poly:.1e} (<=1e-09), "
        f"n=0 identity {'exact' if identity_ok else 'BROKEN'}",
    )
    assert ok


def test_criterion_6_grid_error_drops_hundredfold(coarse_run, fine_run):
    coarse, _ = coarse_run
    fine, _ = fine_run
    ratio = coarse.max_abs_error / fine.max_abs_error
    ok = announce(
        "6",
        ratio >= 100.0,
        f"max grid error ratio (r=2,q=1)/(r=3,q=4) = {ratio:.1f} (>=100)",
    )
    assert ok


def test_criterion_7_robustness(tmp_path, capsys):
    # zero integral scalar: the forcing coefficients solve the system outright
    cfg = BasisConfig(q=2, r=3)
    fred = solve(
        assemble(cfg, "fredholm", 0.0, lambda t, s: t * s, np.sin, 0, 0)
    )
    volt = solve(
        assemble(cfg, "volterra", 0.0, lambda t, s: t * s, np.cos, 0, 0)
    )
    zero_ok = (
        fred.converged
        and fred.iterations == 0
        and np.array_equal(
            fred.Y, project_function(cfg, np.sin)
        )
        and volt.converged
        and volt.iterations == 0
        and np.array_equal(
            volt.Y, project_function(cfg, np.cos)
        )
    )

    # malformed files: positioned diagnostics and nonzero exit codes
    bad_kernel = tmp_path / "bad_kernel.prob"
    bad_kernel.write_text(
        "kind = fredholm\nlambda = 1\nkernel = 2**t\nf = t\nm = 0\nn = 0\nr = 2\nq = 1\n"
    )
    code_kernel = main(["solve", str(bad_kernel)])
    err_kernel = capsys.readouterr().err

    bad_key = tmp_path / "bad_key.prob"
    bad_key.write_text("kind = volterra\nbeta = 1\nwavelets = 3\n")
    code_key = main(["solve", str(bad_key)])
    err_key = capsys.readouterr().err

    diagnostics_ok = (
        code_kernel == 2
        and f"{bad_kernel}:3:" in err_kernel
        and "position 2" in err_kernel
        and code_key == 2
        and f"{bad_key}:3:" in err_key
    )

    ok = announce(
        "7",
        zero_ok and diagnostics_ok,
        f"zero-scalar problems solved at the initial guess Y=F with 0 Newton "
        f"corrections: {zero_ok}; malformed files exit 2 with positioned "
        f"diagnostics: {diagnostics_ok}",
    )
    assert ok
