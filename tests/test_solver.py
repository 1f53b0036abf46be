"""Residuals, Newton solver, error bound and derivative estimation."""

import copy
import dataclasses
import importlib
import math
import pkgutil
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legpulse
from legpulse import solver
from legpulse.basis import (
    _SHAPES,
    BasisConfig,
    _grid_basis,
    _projection_data,
    project_function,
    project_kernel,
    reconstruct,
)
from legpulse.exprlang import ExprEvalError, evaluate, is_difference_kernel, parse_expression
from legpulse.opmatrices import (
    build_J,
    build_L,
    build_P,
    build_product_tensor,
    build_triple_tensor,
)
from legpulse.solver import (
    AssembledSystem,
    _hessian,
    _jacobian,
    _step_length,
    assemble,
    derivative_max,
    error_bound,
    residual,
    solve,
)

E = math.e


def fredholm_exp_system(r=2, q=1):
    cfg = BasisConfig(q=q, r=r)
    return assemble(
        cfg,
        "fredholm",
        1.0,
        lambda t, s: np.exp(t - s),
        lambda t: np.exp(t + 1.0),
        0,
        1,
        (1.0,),
    )


def volterra_sin_system():
    cfg = BasisConfig(q=4, r=3)
    return assemble(
        cfg,
        "volterra",
        1.0,
        lambda t, s: np.sin(t - s),
        lambda t: 2 * t**3 + t**2 - 12 * t + 12 * np.sin(t),
        0,
        1,
        (0.0,),
    )


def test_assemble_validates_kind_and_orders():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="kind"):
        assemble(cfg, "hammerstein", 1.0, lambda t, s: 1.0, lambda t: 1.0, 0, 0)
    with pytest.raises(ValueError, match="initial condition"):
        assemble(cfg, "fredholm", 1.0, lambda t, s: 1.0, lambda t: 1.0, 0, 1, ())


def test_assemble_checks_the_problem_before_sampling_anything():
    def never_sampled(*args):
        pytest.fail("assemble sampled the problem data before checking the problem")

    cfg = BasisConfig(q=64, r=8)
    with pytest.raises(ValueError, match="kind must be"):
        assemble(cfg, "hammerstein", 1.0, never_sampled, never_sampled, 0, 0)


def test_zero_scalar_fredholm_returns_forcing_unchanged():
    cfg = BasisConfig(q=2, r=3)
    system = assemble(
        cfg, "fredholm", 0.0, lambda t, s: np.cos(t * s), np.sin, 0, 0
    )
    report = solve(system)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.Y, system.forcing)
    assert report.residual_norm == 0.0


def test_zero_scalar_volterra_returns_forcing_unchanged():
    cfg = BasisConfig(q=3, r=2)
    system = assemble(
        cfg, "volterra", 0.0, lambda t, s: t + s, np.cos, 0, 0
    )
    report = solve(system)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.Y, system.forcing)


def test_fredholm_residual_at_exact_solution_projection():
    # the projection of exp(t) is (e-1, 9-3e); it does NOT satisfy the
    # projected system: the residual max-norm is 0.0522159...
    system = fredholm_exp_system()
    res = residual(system, np.array([E - 1.0, 9.0 - 3.0 * E]))
    assert np.max(np.abs(res)) == pytest.approx(0.0522159491, abs=1e-6)


def test_fredholm_newton_root_is_reproducible():
    # frozen root of the projected r=2, q=1 system
    report = solve(fredholm_exp_system())
    assert report.converged
    assert report.residual_norm <= 1e-12
    np.testing.assert_allclose(
        report.Y, [1.73018296084, 0.851008208466], atol=1e-6
    )


def test_volterra_residual_small_at_published_vector():
    published = np.array(
        [
            0.0208333, 0.0312487, 0.0104375,
            0.145833, 0.0937492, 0.0104781,
            0.395833, 0.15625, 0.0105145,
            0.770834, 0.218753, 0.010543,
        ]
    )
    res = residual(volterra_sin_system(), published)
    assert np.max(np.abs(res)) <= 1e-5


def test_volterra_newton_converges_quickly():
    report = solve(volterra_sin_system())
    assert report.converged
    assert report.iterations <= 10
    assert report.residual_norm <= 1e-12


def test_newton_says_why_it_stopped(monkeypatch):
    system = volterra_sin_system()
    assert solve(system).reason == "converged"
    assert solve(system, max_iter=1).reason == "iteration limit"
    dim = system.config.dim
    # a step uphill fails every halving; a zero Jacobian cannot be solved
    monkeypatch.setattr(solver, "_jacobian", lambda system, y: -np.eye(dim))
    report = solve(system)
    assert (report.reason, report.iterations, report.converged) == ("line search exhausted", 0, False)
    monkeypatch.setattr(solver, "_jacobian", lambda system, y: np.zeros((dim, dim)))
    report = solve(system)
    assert (report.reason, report.iterations, report.converged) == ("singular Jacobian", 0, False)


def test_jacobian_close_to_central():
    system = fredholm_exp_system()
    y = np.array([1.2, 0.7])
    jac = _jacobian(system, y)
    h = 1e-6
    central = np.empty((2, 2))
    for i in range(2):
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        central[:, i] = (residual(system, up) - residual(system, down)) / (2 * h)
    np.testing.assert_allclose(jac, central, rtol=1e-5, atol=1e-7)


def test_solve_validates_inputs():
    system = fredholm_exp_system()
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve(system, tol=tol)
    with pytest.raises(ValueError):
        solve(system, max_iter=0)


def test_config_mismatch_between_pieces_rejected():
    good = fredholm_exp_system()
    other = fredholm_exp_system(r=3, q=1)
    with pytest.raises(ValueError, match="kernel was built for"):
        dataclasses.replace(good, kernel=other.kernel)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(good, tensor=other.tensor)


def test_kernel_split_follows_kernel_and_kind():
    volterra = volterra_sin_system()
    r, q = volterra.config.r, volterra.config.q
    blocks = volterra.kernel.reshape(q, r, q, r)
    for k in range(q):
        np.testing.assert_array_equal(volterra.diagonal[k], blocks[k, :, k])
        for l in range(q):
            expected = blocks[k, :, l] if l < k else 0.0
            np.testing.assert_array_equal(volterra.C.reshape(q, r, q, r)[k, :, l], expected)
    fredholm = dataclasses.replace(volterra, kind="fredholm")
    assert fredholm.C is fredholm.kernel
    assert fredholm.diagonal is None
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(volterra, C=volterra.kernel)


def test_fredholm_residual_matches_direct_quadrature():
    # constant kernel, m = n = 0: the projected integral term is exact for
    # any coefficient vector, so the residual must match a dense-quadrature
    # evaluation of Y + proj(integral k u^2) - F
    cfg = BasisConfig(q=3, r=3)
    lam = 0.7
    system = assemble(
        cfg, "fredholm", lam, lambda t, s: 1.0, np.exp, 0, 0
    )
    rng = np.random.default_rng(41)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    for _ in range(3):
        y = rng.uniform(-1.0, 1.0, cfg.dim)

        def usq_integral():
            total = 0.0
            for k in range(cfg.q):
                a, b = k / cfg.q, (k + 1) / cfg.q
                ts = (nodes + 1.0) / 2.0 * (b - a) + a
                vals = np.array([reconstruct(cfg, y, t) ** 2 for t in ts])
                total += float(np.dot(weights, vals)) * (b - a) / 2.0
            return total

        integral = usq_integral()
        expected = (
            y
            + lam * project_function(cfg, lambda t: integral)
            - system.forcing
        )
        np.testing.assert_allclose(
            residual(system, y), expected, atol=1e-8
        )


def test_volterra_residual_matches_direct_quadrature_for_block_constants():
    # constant kernel, m = n = 0, blockwise-constant u: the running integral
    # of u^2 is piecewise linear, inside the space, so the projected residual
    # is exact
    cfg = BasisConfig(q=4, r=3)
    beta = 0.9
    system = assemble(cfg, "volterra", beta, lambda t, s: 1.0, np.sin, 0, 0)
    rng = np.random.default_rng(43)
    y = np.zeros(cfg.dim)
    y[:: cfg.r] = rng.uniform(-1.0, 1.0, cfg.q)

    def running_integral(t):
        # u is constant on each block, so integrate u^2 blockwise
        total = 0.0
        block_width = 1.0 / cfg.q
        for k in range(cfg.q):
            a = k * block_width
            if t <= a:
                break
            c = y[k * cfg.r]
            total += c * c * (min(t, a + block_width) - a)
        return total

    expected = (
        y
        + beta * project_function(cfg, np.vectorize(running_integral))
        - system.forcing
    )
    np.testing.assert_allclose(residual(system, y), expected, atol=1e-10)


def test_error_bound_values():
    assert error_bound(1, E) == pytest.approx(E / 16.0, abs=1e-15)
    assert error_bound(2, E) == pytest.approx(E / 192.0, abs=1e-15)
    assert error_bound(2, 2.0) == pytest.approx(0.0104166667, abs=1e-9)
    assert error_bound(0, 0.0) == 0.0
    # 2^281 * 141! is beyond the float range, and 2^399 * 200! makes it underflow
    assert error_bound(140, 1e300) == pytest.approx(1.3559451345174593e-28, rel=1e-15)
    assert error_bound(199, 1.0) == 0.0


def test_error_bound_decreases_with_degree():
    for mu in range(6):
        assert error_bound(mu + 1, 3.0) < error_bound(mu, 3.0)


def test_error_bound_validation():
    with pytest.raises(ValueError):
        error_bound(-1, 1.0)
    with pytest.raises(ValueError):
        error_bound(2, -1.0)
    with pytest.raises(ValueError):
        error_bound(2, float("inf"))


def test_derivative_max_exponential():
    # third derivative of exp on the clipped grid [0.03, 0.97]
    assert derivative_max(np.exp, 3) == pytest.approx(math.exp(0.97), abs=2e-3)


def test_derivative_max_vanishing_higher_derivative():
    assert derivative_max(lambda t: t * t, 3) <= 1e-6


def test_derivative_max_first_order_and_plain_max():
    assert derivative_max(np.sin, 1) == pytest.approx(math.cos(0.01), abs=1e-6)
    assert derivative_max(np.sin, 0) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_derivative_max_validation():
    with pytest.raises(ValueError):
        derivative_max(math.exp, -1)
    with pytest.raises(ValueError):
        derivative_max(math.exp, 50)


def _derivative_max_per_offset(f, order):
    """derivative_max as one f call per stencil offset and step, the reference
    for the single call on every stencil point."""
    if order == 0:
        return float(np.max(np.abs(f(np.linspace(0.0, 1.0, 1001)))))
    offsets = np.arange(order + 1)
    weights = np.array([(-1.0) ** i * math.comb(order, i) for i in offsets])

    def stencil(grid, h):
        terms = (w * f(grid + (order / 2.0 - i) * h) for i, w in zip(offsets, weights))
        return sum(terms) / h**order

    reach = (order / 2.0) * 0.02
    grid = np.linspace(0.0 + reach, 1.0 - reach, 1001)
    coarse = stencil(grid, 0.02)
    fine = stencil(grid, 0.01)
    refined = (4.0 * fine - coarse) / 3.0
    return float(np.max(np.abs(refined)))


@pytest.mark.parametrize("order", range(8))
def test_derivative_max_equals_the_per_offset_loop(order):
    for f in (np.exp, np.sin, lambda t: t * t):
        assert derivative_max(f, order) == _derivative_max_per_offset(f, order)
    # an expression that fails names the same subexpression and first bad
    # value as the first failing call of the loop; the numpy reason after
    # the last ": " may differ, since the single call also sees later points
    exact = parse_expression("log(t - 0.5)")
    messages = []
    for estimate in (derivative_max, _derivative_max_per_offset):
        with pytest.raises(ExprEvalError) as caught:
            estimate(lambda x: evaluate(exact, x), order)
        messages.append(str(caught.value).rsplit(": ", 1)[0])
    assert messages[0] == messages[1]
    assert messages[0].startswith("cannot evaluate log(t-0.5) for argument ")


def _random_system(kind, m, n, r, q, seed):
    """A system with a smooth random kernel and forcing, for oracle checks."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    return assemble(
        BasisConfig(q=q, r=r),
        kind,
        rng.uniform(-2.0, 2.0),
        lambda t, s: np.exp(a * t - b * s) + c * t * s,
        lambda t: np.cos(a * t) + b,
        m,
        n,
        tuple(rng.uniform(-1.0, 1.0, max(m, n))),
    )


def _dense_residual(system, y):
    """The residual from dense matrices, block-diagonal matrices built in full:
    Y + c K C~_m L Y_n - F (Fredholm), Y + c hat(K C~_m C~_n P) - F (Volterra).
    These are the paper's forms, so this also checks that residual's one
    carried-plus-partial core equals them."""
    cfg, t = system.config, system.tensor
    r, q = cfg.r, cfg.q
    P, L = build_P(cfg), build_L(cfg)

    def lifted(order):
        out = y
        for a in system.ics[:order]:
            y0 = np.zeros(cfg.dim)
            y0[::r] = a
            out = build_J(cfg) @ (out - y0)
        return out

    def coeff(c):
        M = np.zeros((cfg.dim, cfg.dim))
        for k in range(q):
            block = slice(k * r, (k + 1) * r)
            M[block, block] = np.einsum("j,ijm->im", c[block], t)
        return M

    ym, yn = lifted(system.m), lifted(system.n)
    if system.kind == "fredholm":
        integral = system.kernel @ coeff(ym) @ L @ yn
    else:
        inner = system.kernel @ coeff(ym) @ coeff(yn) @ P
        integral = np.empty(cfg.dim)
        for k in range(q):
            block = slice(k * r, (k + 1) * r)
            integral[block] = np.einsum("ij,ijm->m", inner[block, block], t)
    return y + system.scalar * integral - system.forcing


SHAPES = [(1, 1), (3, 4), (5, 2)]
# the benchmark's volterra-deep and fredholm-wide shapes, where a transposed
# index in the Jacobian's bilinear tensors cannot hide
BENCH_SHAPES = [(12, 4), (3, 12)]
ORDERS = [(m, n) for m in range(3) for n in range(3)]


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
@pytest.mark.parametrize("r,q", SHAPES + [(1, 3), (4, 1)])
def test_residual_matches_dense_oracle(kind, r, q):
    rng = np.random.default_rng(r * 10 + q)
    for seed, (m, n) in enumerate(ORDERS):
        system = _random_system(kind, m, n, r, q, seed)
        y = rng.uniform(-1.0, 1.0, system.config.dim)
        expected = _dense_residual(system, y)
        scale = max(1.0, float(np.max(np.abs(expected))))
        np.testing.assert_allclose(residual(system, y), expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
@pytest.mark.parametrize("r,q", SHAPES + BENCH_SHAPES)
def test_jacobian_matches_polarization_columns(kind, r, q):
    # R is quadratic, so column i of its Jacobian is exactly
    # (R(y + e_i) - R(y - e_i)) / 2, one residual pair per column
    rng = np.random.default_rng(6)
    for m, n in ORDERS:
        system = _random_system(kind, m, n, r, q, m * 3 + n + 5)
        y = rng.uniform(-1.0, 1.0, system.config.dim)
        columns = np.column_stack(
            [(residual(system, y + e) - residual(system, y - e)) / 2.0 for e in np.eye(y.size)]
        )
        scale = max(1.0, float(np.max(np.abs(columns))))
        np.testing.assert_allclose(_jacobian(system, y), columns, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
@pytest.mark.parametrize("m,n", ORDERS)
@pytest.mark.parametrize("r,q", SHAPES)
def test_jacobian_matches_central_difference_oracle(kind, m, n, r, q):
    system = _random_system(kind, m, n, r, q, 7)
    dim = system.config.dim
    y = np.random.default_rng(8).uniform(-1.0, 1.0, dim)
    h = 1e-6
    central = np.column_stack(
        [(residual(system, y + h * e) - residual(system, y - h * e)) / (2 * h) for e in np.eye(dim)]
    )
    jac = _jacobian(system, y)
    scale = max(1.0, float(np.max(np.abs(jac))))
    np.testing.assert_allclose(jac, central, rtol=1e-5, atol=1e-7 * scale)


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
@pytest.mark.parametrize("r,q", SHAPES + BENCH_SHAPES)
def test_jacobian_is_exact_by_polarization(kind, r, q):
    # R is quadratic, so J(y) d = (R(y + d) - R(y - d)) / 2 for every d
    rng = np.random.default_rng(9)
    for m, n in ORDERS:
        system = _random_system(kind, m, n, r, q, m * 3 + n)
        y = rng.uniform(-1.0, 1.0, system.config.dim)
        d = rng.uniform(-1.0, 1.0, system.config.dim)
        polar = (residual(system, y + d) - residual(system, y - d)) / 2.0
        scale = max(1.0, float(np.max(np.abs(polar))))
        np.testing.assert_allclose(_jacobian(system, y) @ d, polar, rtol=1e-12, atol=1e-12 * scale)


def _clear_shape_caches():
    for cache in (solver._lift_rows, solver._carried_hessian):
        cache.cache_clear()


@pytest.mark.parametrize("r,q", SHAPES + BENCH_SHAPES)
def test_carried_hessian_is_read_off_the_triple_tensor(r, q):
    # Z[j, l, c, 0] = t[c, j, l] / (2l + 1), so Z0 needs no product tensor
    cfg = BasisConfig(q=q, r=r)
    expected = _hessian(build_product_tensor(cfg)[..., 0])
    np.testing.assert_allclose(
        solver._carried_hessian(cfg), expected, rtol=0, atol=4 * np.finfo(float).eps
    )


@pytest.mark.parametrize(
    "build, builds",
    [(fredholm_exp_system, 0), (volterra_sin_system, 1)],
    ids=["fredholm", "volterra"],
)
def test_only_volterra_builds_the_product_tensor(build, builds, monkeypatch):
    # Fredholm reads no r^4 product tensor, nor Volterra's E, diagonal or W
    calls = []

    def spy(config):
        calls.append(config)
        return build_product_tensor(config)

    monkeypatch.setattr(solver, "build_product_tensor", spy)
    system = build()
    assert solve(system).converged
    assert len(calls) == builds
    if system.kind == "fredholm":
        assert system.E is None and system.diagonal is None and system.W is None
    else:
        r = system.config.r
        np.testing.assert_array_equal(system.E, build_P(system.config)[:r, :r])


@pytest.mark.parametrize(
    "kernel",
    [lambda t, s: np.sin(t - s), parse_expression("sin(t - s)")],
    ids=["callable", "tree"],
)
def test_no_product_tensor_outlives_a_volterra_split(kernel, monkeypatch):
    # W reads the (r, r, r, r) tensor once per kernel and shape, so none is kept
    built = []

    def spy(config):
        Z = build_product_tensor(config)
        built.append(weakref.ref(Z))
        return Z

    monkeypatch.setattr(solver, "build_product_tensor", spy)
    solver._expression_kernel.cache_clear()
    cfg = BasisConfig(q=2, r=7)
    system = assemble(cfg, "volterra", 1.0, kernel, np.exp, 0, 1, (0.0,))
    assert solve(system).converged
    assert len(built) == 1 and built[0]() is None


@pytest.mark.parametrize("r, q", [(3, 12), (12, 4), (8, 64)])
def test_lift_rows_are_integer_multiples_of_powers_of_2q(r, q):
    # J / (2q) is an integer matrix, so the rows of J^k / (2q)^k are too
    cfg = BasisConfig(q=q, r=r)
    A = solver._lift_rows(cfg, 1, 2)
    for k, half in ((1, A[:, :r]), (2, A[:, r:])):
        scaled = half / (2 * q) ** k
        np.testing.assert_array_equal(scaled, np.round(scaled))


def test_shape_caches_share_no_problem_data():
    cfg, m, n = BasisConfig(q=4, r=3), 1, 2
    problems = [
        (0.8, lambda t, s: np.exp(t - s), (1.0, 0.5)),
        (-1.7, lambda t, s: np.cos(5 * t * s), (-0.3, 2.0)),
    ]

    def build(scalar, kernel, ics):
        return assemble(cfg, "volterra", scalar, kernel, lambda t: np.exp(t), m, n, ics)

    _clear_shape_caches()
    systems = [build(*problem) for problem in problems]
    first, second = systems
    assert first.A is second.A and first.Z0 is second.Z0
    # A holds J^m in each block's first r rows and J^n in its last r
    for half, order in enumerate((m, n)):
        rows = first.A[:, half * cfg.r : (half + 1) * cfg.r].reshape(cfg.dim, cfg.dim)
        np.testing.assert_array_equal(rows, np.linalg.matrix_power(build_J(cfg), order))
    for shared in (first.A, first.Z0):
        with pytest.raises(ValueError, match="read-only"):
            shared.flat[0] = 1.0
    # each system rebuilt on empty caches, the other one's first
    for system, problem in zip(systems[::-1], problems[::-1]):
        _clear_shape_caches()
        rebuilt = build(*problem)
        for name in ("a", "C", "W"):
            np.testing.assert_array_equal(getattr(system, name), getattr(rebuilt, name))
        np.testing.assert_array_equal(solve(system).Y, solve(rebuilt).Y)


# expression kernels, difference and not, with the numpy callables they equal
KERNELS = {
    "exp(t - s)": lambda t, s: np.exp(t - s),
    "1": lambda t, s: 1.0,
    "cos(5*t*s)": lambda t, s: np.cos(5 * t * s),
}
SPLIT = ("kernel", "C", "diagonal", "E", "W")


def _tree_system(cfg, kind, tree, scalar=0.7):
    return assemble(cfg, kind, scalar, tree, np.exp, 1, 0, (1.0,))


@pytest.mark.parametrize("text", list(KERNELS))
@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
@pytest.mark.parametrize("r,q", SHAPES + BENCH_SHAPES)
def test_expression_kernel_gives_the_callables_system_bit_for_bit(r, q, kind, text):
    cfg, tree = BasisConfig(q=q, r=r), parse_expression(text)
    projected = project_kernel(cfg, tree)
    if not (is_difference_kernel(tree) and q > 2):
        # on the full path the tree and its numpy callable sample alike
        assert projected.tobytes() == project_kernel(cfg, KERNELS[text]).tobytes()
    kernels = []
    for m, n in ORDERS:
        ics = tuple(0.5 + 0.25 * i for i in range(max(m, n)))
        by_tree = assemble(cfg, kind, 0.3, tree, np.exp, m, n, ics)
        kernels.append(by_tree.kernel)
        by_callable = AssembledSystem(
            cfg, kind, 0.3, projected.copy(), project_function(cfg, np.exp), m, n, ics
        )
        for name in SPLIT:
            ours, theirs = getattr(by_tree, name), getattr(by_callable, name)
            if ours is None:
                assert theirs is None and kind == "fredholm"
            else:
                assert ours.tobytes() == theirs.tobytes(), name
        assert solve(by_tree).Y.tobytes() == solve(by_callable).Y.tobytes()
    # every order pair shares one entry
    assert all(kernel is kernels[0] for kernel in kernels)


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
def test_expression_kernel_is_projected_once_per_key_and_shared_read_only(kind):
    cfg = BasisConfig(q=4, r=3)
    first = _tree_system(cfg, kind, parse_expression("exp(t - s)"))
    # an equal tree parsed anew, another scalar: the same key
    second = _tree_system(cfg, kind, parse_expression("exp(t - s)"), scalar=-1.2)
    for name in SPLIT:
        shared = getattr(first, name)
        assert getattr(second, name) is shared
        if shared is not None:
            with pytest.raises(ValueError, match="read-only"):
                shared.flat[0] = 1.0
    assert first.forcing is not second.forcing and first.a is not second.a


def test_expression_kernel_keys_are_kind_shape_and_tree():
    cfg, tree = BasisConfig(q=4, r=3), parse_expression("exp(t - s)")
    base = _tree_system(cfg, "volterra", tree)
    others = [
        _tree_system(cfg, "fredholm", tree),
        _tree_system(BasisConfig(q=3, r=3), "volterra", tree),
        _tree_system(cfg, "volterra", parse_expression("cos(5*t*s)")),
    ]
    for other in others:
        assert other.kernel is not base.kernel and other.C is not base.C
    # replace splits the kernel anew for the new kind, into arrays of its own
    before = solver._expression_kernel.cache_info()
    volterra = dataclasses.replace(others[0], kind="volterra")
    assert volterra.kernel is others[0].kernel and volterra.W.flags.writeable
    for name in SPLIT:
        assert getattr(volterra, name).tobytes() == getattr(base, name).tobytes(), name
    fredholm = dataclasses.replace(base, kind="fredholm")
    assert fredholm.C is base.kernel and fredholm.W is None
    assert solver._expression_kernel.cache_info() == before


def test_callable_kernels_are_projected_on_every_call():
    cfg, coefficient = BasisConfig(q=4, r=3), [1.0]

    def kernel(t, s):
        return coefficient[0] * np.exp(t - s)

    before = solver._expression_kernel.cache_info()
    first = assemble(cfg, "volterra", 0.7, kernel, np.exp, 1, 0, (1.0,))
    coefficient[0] = 2.0
    second = assemble(cfg, "volterra", 0.7, kernel, np.exp, 1, 0, (1.0,))
    np.testing.assert_array_equal(second.kernel, 2.0 * first.kernel)
    np.testing.assert_array_equal(second.W, 2.0 * first.W)
    assert first.kernel.flags.writeable and first.W.flags.writeable
    assert solver._expression_kernel.cache_info() == before


SHAPE_CACHES = (
    _projection_data, _grid_basis, build_J, build_triple_tensor, solver._lift_rows,
    solver._carried_hessian, solver._stencil, solver._expression_kernel,
)


def test_shape_caches_are_every_cache_in_the_package():
    found = set()
    for info in pkgutil.iter_modules(legpulse.__path__):
        module = importlib.import_module(f"legpulse.{info.name}")
        found.update(value for value in vars(module).values() if hasattr(value, "cache_info"))
    assert found == set(SHAPE_CACHES)


def test_shape_caches_keep_the_last_few_shapes():
    # a sweep over r must not keep every shape's Z0 and W
    assert all(cache.cache_parameters()["maxsize"] == _SHAPES for cache in SHAPE_CACHES)
    kernel = parse_expression("sin(t - s)")
    for r in range(2, 2 + 2 * _SHAPES):
        assemble(BasisConfig(q=2, r=r), "volterra", 1.0, kernel, np.exp, 0, 1, (0.0,))
        derivative_max(np.exp, r)
    assert solver._carried_hessian.cache_info().currsize == _SHAPES
    assert solver._expression_kernel.cache_info().currsize == _SHAPES
    assert all(cache.cache_info().currsize <= _SHAPES for cache in SHAPE_CACHES)


@pytest.mark.parametrize("kind", ["fredholm", "volterra"])
def test_every_cache_returns_read_only_arrays(kind):
    cfg, tree, grid = BasisConfig(q=3, r=4), parse_expression("exp(t - s)"), (0.0, 0.25, 0.5)
    keys = {
        solver._lift_rows: (cfg, 1, 2),
        solver._stencil: (3,),
        solver._expression_kernel: (cfg, kind, tree),
        _grid_basis: (cfg, grid),
    }
    results = {cache: cache(*keys.get(cache, (cfg,))) for cache in SHAPE_CACHES}
    for cache, result in results.items():
        for part in result if isinstance(result, tuple) else (result,):
            assert part is None or not part.flags.writeable, cache.__name__


def _q_block_W(system):
    """The Volterra Hessian W with one block per diagonal block of the kernel."""
    q, r = system.config.q, system.config.r
    G = system.diagonal.swapaxes(1, 2) @ (system.E @ system.tensor).reshape(r, r * r)
    W = build_product_tensor(system.config).reshape(r * r, r * r) @ G.reshape(q, r * r, r)
    return _hessian(W.reshape(q, r, r, r))


@pytest.mark.parametrize("r,q", [(3, 4), (12, 4), (4, 32)])
def test_difference_kernel_builds_one_W_block(r, q):
    cfg = BasisConfig(q=q, r=r)
    system = assemble(
        cfg, "volterra", 1.3, parse_expression("exp(t - s)"), np.exp, 1, 2, (1.0, 1.0)
    )
    assert system.W.shape[0] == 1
    full = copy.copy(system)
    full.W = _q_block_W(system)
    assert full.W.shape[0] == q
    np.testing.assert_array_equal(full.W, np.broadcast_to(system.W, full.W.shape))
    y = np.random.default_rng(r + q).uniform(-1.0, 1.0, cfg.dim)
    np.testing.assert_array_equal(_jacobian(system, y), _jacobian(full, y))

    other = assemble(cfg, "volterra", 1.3, lambda t, s: np.cos(5 * t * s), np.exp, 1, 2, (1.0, 1.0))
    assert other.W.shape[0] == q
    np.testing.assert_array_equal(other.W, _q_block_W(other))


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["fredholm", "volterra"]),
    m=st.integers(0, 2),
    n=st.integers(0, 2),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_residual_along_a_newton_step_is_the_line_search_model(kind, m, n, sign, seed):
    # R is quadratic and J s = -R(y), so R(y + a s) = (1 - a) R(y) + a^2 R(y + s)
    # for every a; the exact line search picks its step length from this
    system = _random_system(kind, m, n, 3, 4, seed)
    system = dataclasses.replace(system, scalar=sign * abs(system.scalar))
    y = np.random.default_rng(seed).uniform(-1.0, 1.0, system.config.dim)
    jac = _jacobian(system, y)
    res = residual(system, y)
    step = np.linalg.solve(jac, -res)
    full = residual(system, y + step)
    # the solve's rounding leaves J s + R(y) of order dim * eps * |J| |s|
    rounding = y.size * np.finfo(float).eps * np.abs(jac).max() * np.abs(step).max()
    for a in (0.25, 0.5, 1.5, 2.0):
        got = residual(system, y + a * step)
        model = (1.0 - a) * res + a * a * full
        scale = max(np.abs(res).max(), np.abs(full).max(), np.abs(got).max())
        np.testing.assert_allclose(got, model, rtol=0, atol=1e-12 * scale + a * rounding)


def _length(a, b):
    """_step_length for the residuals a = R(y) and b = R(y + s)."""
    return _step_length(a, float(np.abs(a).max()), b, float(np.abs(b).max()))


# one finite entry of either sign, with magnitude from 1e-300 to 1e300
ENTRIES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, 300.0),
)


@st.composite
def residual_pairs(draw):
    dim = draw(st.integers(1, 64))
    entries = st.lists(ENTRIES, min_size=dim, max_size=dim)
    return np.array(draw(entries)), np.array(draw(entries))


@settings(deadline=None, max_examples=300)
@given(pair=residual_pairs())
def test_step_length_is_none_or_in_zero_to_two(pair):
    t = _length(*pair)
    assert t is None or 0.0 < t <= 2.0


def test_step_length_is_the_model_root_for_parallel_residuals():
    # b = beta a makes the model (1 - t + beta t^2) a, so t is its root; near
    # beta = 0, b.b is itself tiny and the gate may rightly refuse
    rng = np.random.default_rng(0)
    betas = np.r_[-np.geomspace(50.0, 1e-3, 400), np.geomspace(1e-3, 0.25, 400)]
    worst = 0.0
    for beta in betas:
        a = rng.uniform(-1.0, 1.0, rng.integers(1, 65)) * 10.0 ** rng.uniform(-100, 100)
        t = _length(a, beta * a)
        assert t is not None and 0.0 < t <= 2.0
        worst = max(worst, abs(1.0 - t + beta * t * t))
    # the largest value seen is 5.6e-16, 2.5 eps
    assert worst <= 8 * np.finfo(float).eps


@pytest.mark.parametrize(
    "a, b",
    [
        (np.zeros(3), np.array([1.0, -2.0, 0.5])),
        (np.array([1e-200, -3e-200]), np.array([1.0, 2.0])),
        (np.array([1.0, 2.0]), np.array([np.inf, 1.0])),
        (np.array([1.0, 2.0]), np.array([np.nan, 1.0])),
    ],
    ids=["zero-a", "a-dot-a-underflows", "infinite-b", "nan-b"],
)
def test_step_length_gives_none_without_a_model(a, b):
    assert _length(a, b) is None


def _model_minimizer(a, b):
    """The t in (0, 2] minimizing |(1 - t) a + t^2 b|_2: 2, or a real root
    in (0, 2] of the model's derivative, the cubic
    2 b.b t^3 - 3 a.b t^2 + (a.a + 2 a.b) t - a.a."""
    scale = max(np.abs(a).max(), np.abs(b).max())
    a, b = a / scale, b / scale
    aa, ab, bb = a @ a, a @ b, b @ b
    roots = np.roots([2.0 * bb, -3.0 * ab, aa + 2.0 * ab, -aa])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real
    candidates = [t for t in real if 0.0 < t <= 2.0] + [2.0]
    return min(candidates, key=lambda t: (1 - t) ** 2 * aa + 2 * (1 - t) * t * t * ab + t**4 * bb)


def test_step_length_is_the_two_norm_minimizer_for_a_rank_1_kernel():
    # the first Newton step of the benchmark's fredholm-wide problems at seed 3:
    # exp(t - s) has rank 1, so b is parallel to a and the model's root
    # projected on a is the 2-norm minimizer
    rng = random.Random(3)
    cfg = BasisConfig(q=12, r=3)
    for _ in range(50):
        scalar, b = rng.uniform(0.5, 2.0), rng.uniform(0.6, 1.4)
        c = scalar * b * math.expm1(2.0 * b - 1.0) / (2.0 * b - 1.0)
        system = assemble(
            cfg, "fredholm", scalar, parse_expression("exp(t - s)"),
            lambda t: np.exp(b * t) + c * np.exp(t), 0, 1, (1.0,),
        )
        y = system.forcing
        res = residual(system, y)
        full = residual(system, y + np.linalg.solve(_jacobian(system, y), -res))
        t = _length(res, full)
        assert t is not None
        assert t == pytest.approx(_model_minimizer(res, full), rel=1e-12)
