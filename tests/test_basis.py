"""Hybrid basis evaluation and projections against published and closed-form data."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss, legvander

from legpulse import basis
from legpulse.basis import (
    _KERNEL_SAMPLES,
    BasisConfig,
    _gauss_legendre,
    _legendre_values,
    _projection_data,
    block_of,
    eval_basis,
    project_function,
    project_kernel,
    reconstruct,
)

E = math.e

# 12-vector published for the projection of 2t^3 + t^2 - 12t + 12 sin(t)
# at r=3, q=4 (values displayed to 6 significant figures)
PUBLISHED_VOLTERRA_F = (
    0.0208496, 0.0312848, 0.0104457,
    0.146854, 0.0951443, 0.0109877,
    0.406543, 0.166108, 0.0129514,
    0.824576, 0.255306, 0.0171862,
)


def test_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(q=0, r=2)
    with pytest.raises(ValueError):
        BasisConfig(q=1, r=0)
    assert BasisConfig(q=4, r=3).dim == 12


def test_block_of_assigns_half_open_blocks():
    cfg = BasisConfig(q=4, r=2)
    assert block_of(cfg, 0.0) == 1
    assert block_of(cfg, 0.2499) == 1
    assert block_of(cfg, 0.25) == 2
    assert block_of(cfg, 0.75) == 4
    assert block_of(cfg, 0.999) == 4
    with pytest.raises(ValueError):
        block_of(cfg, 1.0)
    with pytest.raises(ValueError):
        block_of(cfg, -0.1)


def test_eval_basis_single_block():
    cfg = BasisConfig(q=1, r=2)
    np.testing.assert_allclose(eval_basis(cfg, 0.3), [1.0, -0.4], atol=1e-14)
    np.testing.assert_allclose(eval_basis(cfg, 0.0), [1.0, -1.0], atol=1e-14)


def test_eval_basis_block_support():
    # t = 0.3 falls in block 2 of 4; local coordinate x = 8*0.3 - 3 = -0.6
    cfg = BasisConfig(q=4, r=3)
    values = eval_basis(cfg, 0.3)
    expected = np.zeros(12)
    expected[3] = 1.0
    expected[4] = -0.6
    expected[5] = (3 * 0.36 - 1.0) / 2.0
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_project_constant():
    cfg = BasisConfig(q=3, r=4)
    proj = project_function(cfg, lambda t: 2.5)
    expected = np.zeros(12)
    expected[::4] = 2.5
    np.testing.assert_allclose(proj, expected, atol=1e-13)


def test_project_identity_function():
    # t = (1 + (2t - 1)) / 2, so the single-block coefficients are (1/2, 1/2)
    cfg = BasisConfig(q=1, r=4)
    proj = project_function(cfg, lambda t: t)
    np.testing.assert_allclose(proj, [0.5, 0.5, 0.0, 0.0], atol=1e-13)


def test_project_exponential_single_block():
    # integral of exp against 1 and 2t-1 on [0, 1]: e - 1 and 3(3 - e)
    cfg = BasisConfig(q=1, r=2)
    proj = project_function(cfg, np.exp)
    np.testing.assert_allclose(
        proj, [E - 1.0, 9.0 - 3.0 * E], atol=1e-13
    )


def test_project_matches_published_volterra_forcing():
    cfg = BasisConfig(q=4, r=3)
    proj = project_function(
        cfg, lambda t: 2 * t**3 + t**2 - 12 * t + 12 * np.sin(t)
    )
    np.testing.assert_allclose(proj, PUBLISHED_VOLTERRA_F, atol=1e-6)


def test_project_function_reports_bad_integrand():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="node"):
        project_function(cfg, lambda t: float("nan"))


def test_kernel_projection_closed_form():
    # exp(t - s) at r=2, q=1 has a separable closed form
    cfg = BasisConfig(q=1, r=2)
    K = project_kernel(cfg, lambda t, s: np.exp(t - s))
    expected = np.array(
        [
            [E + 1.0 / E - 2.0, 3.0 * (E + 3.0 / E - 4.0)],
            [3.0 * (-E + 4.0 - 3.0 / E), 9.0 * (6.0 - E - 9.0 / E)],
        ]
    )
    np.testing.assert_allclose(K, expected, atol=1e-12)


def test_kernel_projection_matches_published_entry():
    cfg = BasisConfig(q=4, r=3)
    G = project_kernel(cfg, lambda t, s: np.sin(t - s))
    assert G[0, 1] == pytest.approx(-0.1245, abs=5e-5)
    assert G[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_kernel_projection_is_separable_product():
    # g(t,s) = u(t) v(s) projects to the outer product of the 1-D projections
    cfg = BasisConfig(q=2, r=3)
    u, v = np.cos, np.exp
    K = project_kernel(cfg, lambda t, s: u(t) * v(s))
    U = project_function(cfg, u)
    V = project_function(cfg, v)
    np.testing.assert_allclose(K, np.outer(U, V), atol=1e-12)


def test_projections_match_blockwise_reference():
    # reference: one block (pair) at a time, the way the projections were
    # computed before they were vectorized, on the Gauss rule the projections use
    cfg = BasisConfig(q=12, r=3)
    q, r = cfg.q, cfg.r
    x, w = _gauss_legendre(cfg.quad_points)
    wleg = legvander(x, r - 1).T * w
    scale = np.arange(r) + 0.5
    nodes = [(x + 2 * k + 1) / (2 * q) for k in range(q)]
    for g in (lambda t, s: np.exp(t - s), lambda t, s: np.sin(t - s)):
        K = project_kernel(cfg, g)
        for k, ts in enumerate(nodes):
            for kp, ss in enumerate(nodes):
                block = np.outer(scale, scale) * (wleg @ g(ts[:, None], ss) @ wleg.T)
                np.testing.assert_allclose(
                    K[k * r : (k + 1) * r, kp * r : (kp + 1) * r], block, rtol=0, atol=1e-14
                )
    F = project_function(cfg, lambda t: np.exp(t + 1.0))
    for k, ts in enumerate(nodes):
        expected = scale * (wleg @ np.exp(ts + 1.0))
        np.testing.assert_allclose(F[k * r : (k + 1) * r], expected, rtol=0, atol=1e-14)


def _one_shot_kernel(cfg, g):
    # the whole (q*Q)^2 grid in one kernel call and one contraction, the way
    # project_kernel computed it before it was split into chunks of t-blocks
    ts, w, leg, scale = _projection_data(cfg)
    gv = np.broadcast_to(np.asarray(g(ts[:, :, None, None], ts), dtype=float), ts.shape * 2)
    wleg = scale[:, None] * leg * w
    half = (wleg @ gv.reshape(ts.shape + (ts.size,))).reshape((cfg.dim,) + ts.shape)
    return (half @ wleg.T).reshape(cfg.dim, cfg.dim)


# one chunk, several equal chunks, a ragged last chunk, one block over the
# budget per chunk, and a Gauss size above 24
CHUNK_SHAPES = [(2, 1), (3, 4), (12, 4), (3, 12), (3, 13), (8, 64), (30, 2)]


@pytest.mark.parametrize("r, q", CHUNK_SHAPES)
def test_kernel_projection_in_chunks_equals_one_shot(r, q):
    cfg = BasisConfig(q=q, r=r)
    for g in (lambda t, s: np.exp(t - s), lambda t, s: np.sin(t - s)):
        np.testing.assert_array_equal(project_kernel(cfg, g), _one_shot_kernel(cfg, g))


def _recording_projection(cfg, difference_kernel):
    # project exp(t - s), checking every call against the one call contract;
    # returns the t-blocks g saw, in order, one array per call
    ts = _projection_data(cfg)[0]
    Q = cfg.quad_points
    calls = []

    def recording(t, s):
        calls.append(t[:, :, 0, 0])
        assert t.shape[1:] == (Q, 1, 1)
        np.testing.assert_array_equal(s, ts)
        assert t.shape[0] * s.size * Q <= _KERNEL_SAMPLES or t.shape[0] == 1
        return np.exp(t - s)

    project_kernel(cfg, recording, difference_kernel=difference_kernel)
    return calls


@pytest.mark.parametrize("r, q", CHUNK_SHAPES)
def test_kernel_is_called_on_whole_t_blocks_within_the_budget(r, q):
    cfg = BasisConfig(q=q, r=r)
    ts = _projection_data(cfg)[0]
    calls = _recording_projection(cfg, difference_kernel=False)
    np.testing.assert_array_equal(np.concatenate(calls), ts)
    per_call = max(1, _KERNEL_SAMPLES // (ts.size * cfg.quad_points))
    assert len(calls) == -(-q // per_call)


@pytest.mark.parametrize("r, q", CHUNK_SHAPES)
def test_difference_kernel_is_called_on_block_row_0_then_column_0(r, q):
    # K(k, l) depends on k - l only, so its block row 0 (offsets 0 .. -(q - 1))
    # and block column 0 (offsets 0 .. q - 1) fix it; g is called on t-blocks
    # 0 and q - 1, which hold exactly those offsets, through the full path's loop
    cfg = BasisConfig(q=q, r=r)
    ts = _projection_data(cfg)[0]
    calls = _recording_projection(cfg, difference_kernel=True)
    sampled = [0, q - 1] if q > 2 else list(range(q))
    np.testing.assert_array_equal(np.concatenate(calls), ts[sampled])
    offsets = {k - l for k in sampled for l in range(q)}
    assert offsets == set(range(-(q - 1), q))
    per_call = max(1, _KERNEL_SAMPLES // (ts.size * cfg.quad_points))
    assert len(calls) == -(-len(sampled) // per_call)


def test_kernel_projection_names_first_bad_node_of_a_later_chunk():
    cfg = BasisConfig(q=12, r=3)
    ts = _projection_data(cfg)[0]
    g = lambda t, s: np.where(t > 0.9, np.inf, np.exp(t - s))  # noqa: E731
    grid = np.broadcast_to(g(ts[:, :, None, None], ts), ts.shape * 2)
    k, a, l, b = np.argwhere(~np.isfinite(grid))[0]
    assert k >= _KERNEL_SAMPLES // (ts.size * cfg.quad_points)  # past the first chunk
    message = f"kernel returned inf at node (t={float(ts[k, a])!r}, s={float(ts[l, b])!r})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        project_kernel(cfg, g)


DIFFERENCE_KERNELS = {
    "exp(t-s)": lambda t, s: np.exp(t - s),
    "sin(s-t)": lambda t, s: np.sin(s - t),
    "1/(1+(t-s)^2)": lambda t, s: 1.0 / (1.0 + (t - s) ** 2),
    "exp(-abs(t-s))": lambda t, s: np.exp(-np.abs(t - s)),
    "1": lambda t, s: 1.0,
}


@pytest.mark.parametrize("r, q", CHUNK_SHAPES)
def test_difference_kernel_projection_equals_the_full_one(r, q):
    # the full projection is the oracle; the two differ only in how t - s
    # rounds at nodes of equal block offset, and not at all while q <= 2,
    # where block rows 0 and q - 1 are all the rows
    cfg = BasisConfig(q=q, r=r)
    for name, g in DIFFERENCE_KERNELS.items():
        full = project_kernel(cfg, g)
        toeplitz = project_kernel(cfg, g, difference_kernel=True)
        tol = 4 * np.finfo(float).eps * np.abs(full).max()
        np.testing.assert_allclose(toeplitz, full, rtol=0, atol=tol, err_msg=name)
        if q <= 2:
            np.testing.assert_array_equal(toeplitz, full, err_msg=name)


def test_difference_kernel_names_its_first_bad_sampled_node():
    cfg = BasisConfig(q=40, r=3)
    ts = _projection_data(cfg)[0]
    g = lambda t, s: np.where(t - s > 0.9, np.inf, np.exp(t - s))  # noqa: E731
    rows = ts[[0, cfg.q - 1]]
    grid = g(rows[:, :, None, None], ts)
    k, a, l, b = np.argwhere(~np.isfinite(grid))[0]
    # t-block q - 1, sampled in the second call: one t-block is over the budget
    assert k == 1 and ts.size * cfg.quad_points > _KERNEL_SAMPLES
    message = f"kernel returned inf at node (t={float(rows[k, a])!r}, s={float(ts[l, b])!r})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        project_kernel(cfg, g, difference_kernel=True)


def test_kernel_projection_reports_bad_kernel():
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="node"):
        project_kernel(cfg, lambda t, s: float("inf"))


def test_callables_cannot_write_to_the_cached_nodes():
    # the nodes are kept per shape, so a callable that wrote to them would
    # change every later projection of that shape
    cfg = BasisConfig(q=3, r=4)

    def kernel(t, s):
        return np.exp(t - s)

    def doubling(t):
        t *= 2.0
        return np.exp(t)

    def shifting(t, s):
        s += 1.0
        return np.exp(t - s)

    before = project_function(cfg, np.exp), project_kernel(cfg, kernel)
    with pytest.raises(ValueError, match="read-only"):
        project_function(cfg, doubling)
    with pytest.raises(ValueError, match="read-only"):
        project_kernel(cfg, shifting)
    after = project_function(cfg, np.exp), project_kernel(cfg, kernel)
    for old, new in zip(before, after):
        np.testing.assert_array_equal(new, old)


def test_reconstruct_affine_closed_form():
    cfg = BasisConfig(q=1, r=2)
    Y = np.array([E - 1.0, 9.0 - 3.0 * E])
    for t in np.linspace(0.0, 0.999, 100):
        expected = (4.0 * E - 10.0) + (18.0 - 6.0 * E) * t
        assert reconstruct(cfg, Y, t) == pytest.approx(expected, abs=1e-12)


def test_reconstruct_on_a_tuple_grid_equals_arrays_and_single_points():
    cfg = BasisConfig(q=12, r=3)
    grid = tuple(i / 7 for i in range(7)) + (0.999,)
    rng = np.random.default_rng(5)
    for y in (rng.standard_normal(cfg.dim), rng.standard_normal(cfg.dim)):
        values = reconstruct(cfg, y, grid)
        assert isinstance(values, np.ndarray) and values.shape == (len(grid),)
        np.testing.assert_array_equal(values, reconstruct(cfg, y, np.array(grid)))
        np.testing.assert_array_equal(values, [reconstruct(cfg, y, t) for t in grid])
    # a tuple of arrays cannot key the grid cache, and still works
    pairs = (np.array(grid[:4]), np.array(grid[4:]))
    np.testing.assert_array_equal(reconstruct(cfg, y, pairs), np.reshape(values, (2, 4)))


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(min_value=1, max_value=6),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_projection_recovers_basis_expansions(q, r, seed):
    # project(reconstruct(Y)) == Y: the projection is the identity on the space
    cfg = BasisConfig(q=q, r=r)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-2.0, 2.0, cfg.dim)
    proj = project_function(cfg, lambda t: reconstruct(cfg, Y, t))
    np.testing.assert_allclose(proj, Y, atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(min_value=1, max_value=5),
    r=st.integers(min_value=1, max_value=5),
)
def test_basis_orthogonality(q, r):
    # <b_i, b_j> = delta_ij / ((2 m_i + 1) q), via an independent per-block rule
    cfg = BasisConfig(q=q, r=r)
    ts, weights = blockwise_rule(q)
    samples = np.array([eval_basis(cfg, t) for t in ts])
    gram = samples.T @ (weights[:, None] * samples)
    expected = np.diag(np.tile(1.0 / ((2.0 * np.arange(r) + 1.0) * q), q))
    np.testing.assert_allclose(gram, expected, atol=1e-12)


def blockwise_rule(q, points=50):
    """Dense numpy Gauss rule mapped into each of the q blocks of [0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    ts, ws = [], []
    for k in range(q):
        a, b = k / q, (k + 1) / q
        ts.append((nodes + 1.0) / 2.0 * (b - a) + a)
        ws.append(weights * (b - a) / 2.0)
    return np.concatenate(ts), np.concatenate(ws)


@pytest.mark.parametrize("r", [3, 5, 30])
def test_projection_exact_up_to_degree_2q_minus_r(r):
    # the integrand f * p_m has degree deg f + r - 1, so the quad_points-point
    # rule is exact for deg f <= 2 * quad_points - r and no further.  f is the
    # Legendre polynomial of that degree on each block, whose exact projection
    # onto orders below r is zero; the top degrees of a monomial are too small
    # at 24 points to show the inexact side
    cfg = BasisConfig(q=2, r=r)
    points = cfg.quad_points
    assert points == max(24, r)

    def local_legendre(t, degree):
        k = np.minimum(np.floor(t * cfg.q), cfg.q - 1)
        return np.polynomial.legendre.Legendre.basis(degree)(2 * cfg.q * t - 2 * k - 1)

    errors = [
        np.max(np.abs(project_function(cfg, lambda t: local_legendre(t, degree))))
        for degree in (2 * points - r, 2 * points - r + 1)
    ]
    assert errors[0] <= 1e-13
    assert errors[1] >= 1e-7


EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, 81))
def test_gauss_legendre_rule(n):
    # n = 80 is past every Gauss size the suite and CI reach: r = 50 makes the
    # projections' rule 50 points and the triple tensor's 74
    x, w = _gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.all(w > 0)
    assert np.array_equal(w, w[::-1])
    # sum w p_k(x) = 2 delta_k0 for k <= 2n - 1: measured at most 4 eps over
    # n <= 80, against 86 eps with numpy's leggauss
    moments = w @ _legendre_values(x, 2 * n - 1)
    moments[0] -= 2.0
    assert np.max(np.abs(moments)) <= 16 * EPS
    assert np.max(np.abs(x - leggauss(n)[0])) <= EPS


def test_legendre_values_equal_legvander_bit_for_bit():
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 500)
    for deg in range(41):
        assert np.array_equal(_legendre_values(x, deg), legvander(x, deg)), deg


def test_gauss_legendre_raises_when_newton_does_not_converge(monkeypatch):
    # values with noise far above rounding: no Newton step ever gets below 1e-14
    rng = np.random.default_rng(0)
    exact = basis._legendre_values

    def noisy(x, deg):
        return exact(x, deg) + rng.normal(0.0, 1e-6, x.shape + (deg + 1,))

    monkeypatch.setattr(basis, "_legendre_values", noisy)
    with pytest.raises(ArithmeticError, match="24-point Gauss-Legendre nodes did not converge"):
        _gauss_legendre(24)


NO_POLYNOMIAL_SCRIPT = """\
import sys
from pathlib import Path

import numpy as np

def no_eigensolver(*args, **kwargs):
    raise AssertionError("an eigensolver was called")

for name in ("eig", "eigh", "eigvals", "eigvalsh"):
    setattr(np.linalg, name, no_eigensolver)

from legpulse import problems, reference

for path in sorted(Path("problems").glob("*.prob")):
    assert problems.run(problems.load_problem(path)).report.converged, path
assert all(check.ok for check in reference.run_all())
print(sorted(name for name in sys.modules if name.startswith("numpy.polynomial")))
"""


def test_solving_imports_no_numpy_polynomial_and_calls_no_eigensolver():
    # numpy.polynomial's import and the first eigvalsh call cost each process
    # about 1.3 MB of peak resident memory
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_POLYNOMIAL_SCRIPT],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_coeff_vector_validation():
    cfg = BasisConfig(q=2, r=2)
    with pytest.raises(ValueError, match="length 4"):
        reconstruct(cfg, np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="length 4"):
        reconstruct(cfg, np.zeros((4, 1)), 0.5)


# the overflow is reported by the ValueError alone, with no numpy warning
@pytest.mark.filterwarnings("error")
def test_projections_reject_overflow_of_finite_samples():
    # every sample is finite, but the weighted sums exceed the float range
    cfg = BasisConfig(q=1, r=2)
    with pytest.raises(ValueError, match="coefficient vector contains non-finite"):
        project_function(cfg, lambda t: np.full_like(t, 1.5e308))
    # the order-1 rows sum (3/2)|p_1| against a kernel of sign p_1(t)
    with pytest.raises(ValueError, match="operator matrix contains non-finite"):
        project_kernel(cfg, lambda t, s: 1.5e308 * np.sign(t - 0.5) + 0.0 * s)
    # and on the difference path, in the diagonal blocks of sign(t - s)
    with pytest.raises(ValueError, match="operator matrix contains non-finite"):
        project_kernel(BasisConfig(q=3, r=2), lambda t, s: 1.5e308 * np.sign(t - s), difference_kernel=True)
