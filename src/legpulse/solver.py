"""Residual assembly and a damped Newton iteration for the projected equations.

A problem y(t) + scalar * I[y](t) = f(t), with I the Fredholm or Volterra
integral of k(t,s) * y^(m)(s) * y^(n)(s), turns into a nonlinear algebraic
system for the hybrid coefficient vector Y once every ingredient is
projected onto the basis.  This module checks the problem's data,
assembles that system, evaluates its residual, and solves it.

Both kinds share one integral core.  With D = C~_u C~_v the block-diagonal
product of the coefficient matrices of the lifts u and v, the integral is
the carried term C (D e0) / q, plus, for Volterra only, the partial term
hat(K_kk D_k E) of each block with itself.  C is the whole kernel matrix K
for Fredholm, and K with every block on or above the diagonal zeroed for
Volterra.  Newton's Jacobian uses both terms' Hessians in a block's lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .basis import BasisConfig, _shape_cache, project_function, project_kernel
from .exprlang import Expr
from .lift import lift, lift_offset
from .opmatrices import (
    _integration_block,
    build_J,
    build_product_tensor,
    build_triple_tensor,
    coeff_matrix,
    hat_vector,
)

# each kind with the name of its scalar: lambda multiplies the Fredholm
# integral and beta the Volterra one, in the paper and in problem files
KINDS = {"fredholm": "lambda", "volterra": "beta"}

# solve's default stopping rule, which problems.run and the CLI share
TOL = 1e-12
MAX_ITER = 100
# budget for halving a Newton step that fails to reduce the residual
_MAX_HALVINGS = 20
# the line search's step is tried only when its model promises a
# squared 2-norm below this share of the full step's
_SEARCH_GAIN = 1.0 / 16.0
# Newton stops, converged, once max|step| <= _STEP_ULPS * eps * max|y|: the
# residual has reached its rounding floor and cannot be driven lower
_STEP_ULPS = 64
# derivative_max's interval, finite-difference step and sample count
_LO, _HI = 0.0, 1.0
_STEP = 1e-2
_SAMPLES = 1001


class FieldError(ValueError):
    """A bad problem value, with the problem-file key it belongs to."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def scalar_key(kind: str) -> str:
    """The problem-file key of kind's scalar, lambda or beta."""
    try:
        return KINDS[kind]
    except KeyError:
        raise FieldError("kind", f"kind must be 'fredholm' or 'volterra', got {kind!r}") from None


def check_problem(kind: str, scalar: float, m: int, n: int, ics: Sequence[float]) -> None:
    """Check what every problem needs, from a file or from a call: a known
    kind, a finite scalar, orders m, n >= 0 and exactly max(m, n) finite
    initial conditions.  A bad value raises a FieldError under its key."""
    key = scalar_key(kind)
    if not math.isfinite(scalar):
        raise FieldError(key, f"{key} must be finite, got {scalar}")
    for name, order in (("m", m), ("n", n)):
        if order < 0:
            raise FieldError(name, f"{name} must be at least 0, got {order}")
    count = max(m, n)
    if len(ics) != count:
        need = (
            f"exactly the {count} initial condition(s) y(0) .. y^({count - 1})(0)"
            if count
            else "no initial conditions"
        )
        raise FieldError(
            "ics", f"ics lists {len(ics)} value(s) but derivative orders m={m}, n={n} require {need}"
        )
    for value in ics:
        if not math.isfinite(value):
            raise FieldError("ics", f"ics must be finite, got {value}")


@dataclass
class AssembledSystem:
    """Projected data of one integro-differential problem.

    kind is "fredholm" (integral over the whole interval) or "volterra"
    (integral from 0 to t); scalar multiplies the integral term; m and n
    are the derivative orders inside the integrand, and ics holds the
    max(m, n) initial conditions y(0) .. y^(max(m, n)-1)(0), all checked by
    check_problem.  kernel is a (dim, dim) array or an exprlang tree in t
    and s, which project_kernel projects, and forcing a (dim,) array, all for
    config.

    Everything else is built here from those fields: the (r, r, r) triple
    tensor t; the split of the kernel that the integral core reads, C, the
    (dim, dim) carried kernel (kernel itself for Fredholm), diagonal, the
    (q, r, r) diagonal blocks of the kernel, and E, the (r, r) diagonal block
    of the integration matrix, both None for Fredholm; and the m-th and n-th
    lifts as one affine map y -> A y + a, grouped by block: A[k, :r] and
    A[k, r:] are the rows of J^m and J^n for block k, shape (q, 2r, dim), and
    a, shape (q, 2r), holds lift_offset's lifts of the zero vector in the same
    layout.  Z0 and W (None for Fredholm) are the Hessians in w_k = (u_k, v_k),
    as _hessian describes, of D_k e0 = sum_{j,l} u_kj v_kl t[:, j, l] / (2l + 1)
    and of hat(K_kk D_k E) = sum_{j,l} u_kj v_kl W_k[j, l], with W_k[j, l] =
    hat(K_kk Z[j, l] E), Z the product tensor, which only W builds.  W has shape
    (q, 2r, 2r^2), one W_k per block, or (1, 2r, 2r^2) when the diagonal blocks
    K_kk are bitwise equal, as for a difference kernel's block-Toeplitz
    projection; _jacobian then broadcasts its one block.

    The tensor, A and Z0 depend on the config (and A on m and n) alone, and
    a tree's projection, which becomes kernel, and its split (C, diagonal, E,
    W) on the config, kind and tree alone.  Each is built once per key and
    kept by basis._shape_cache, for the last basis._SHAPES keys and
    read-only, so every system with that key shares it.  a is the system's
    own, and so is the split of a kernel array, as dataclasses.replace
    passes it too.
    """

    config: BasisConfig
    kind: str
    scalar: float
    kernel: np.ndarray | Expr
    forcing: np.ndarray
    m: int
    n: int
    ics: tuple[float, ...]
    tensor: np.ndarray = field(init=False, repr=False)
    C: np.ndarray = field(init=False, repr=False)
    diagonal: np.ndarray | None = field(init=False, repr=False)
    E: np.ndarray | None = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    Z0: np.ndarray = field(init=False, repr=False)
    W: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        check_problem(self.kind, self.scalar, self.m, self.n, self.ics)
        dim, r, q = self.config.dim, self.config.r, self.config.q
        projected = isinstance(self.kernel, np.ndarray)
        built_for = {
            "kernel": (self.kernel.shape if projected else (dim, dim), (dim, dim)),
            "forcing": (self.forcing.shape, (dim,)),
        }
        for label, (got, want) in built_for.items():
            if got != want:
                raise ValueError(f"{label} was built for {got}, but {self.config} needs {want}")
        self.tensor = build_triple_tensor(self.config)
        self.A = _lift_rows(self.config, self.m, self.n)
        offsets = [lift_offset(k, self.ics, self.config) for k in (self.m, self.n)]
        self.a = np.concatenate([b.reshape(q, r) for b in offsets], axis=1)
        self.Z0 = _carried_hessian(self.config)
        if projected:
            split = _split_kernel(self.config, self.kind, self.kernel)
        else:
            self.kernel, *split = _expression_kernel(self.config, self.kind, self.kernel)
        self.C, self.diagonal, self.E, self.W = split


def _split_kernel(config: BasisConfig, kind: str, kernel: np.ndarray) -> tuple:
    """AssembledSystem's (C, diagonal, E, W) for kind from the (dim, dim) kernel."""
    if kind == "fredholm":
        return kernel, None, None, None
    dim, r, q = config.dim, config.r, config.q
    E = _integration_block(r, q)
    blocks = kernel.reshape(q, r, q, r)
    C = (blocks * np.tri(q, k=-1)[:, None, :, None]).reshape(dim, dim)
    diagonal = blocks[np.arange(q), :, np.arange(q)]
    # equal bytes, not just equal values, so that one block gives the
    # Jacobian of q blocks bit for bit
    bits = diagonal.view(np.uint8)
    distinct = diagonal[:1] if (bits == bits[0]).all() else diagonal
    # W_k[j, l] = sum_{c,d} Z[j, l, c, d] G_k[c, d], G_k[c, d] = hat(K_kk[:, c] E[d]^T)
    G = distinct.swapaxes(1, 2) @ (E @ build_triple_tensor(config)).reshape(r, r * r)
    W = build_product_tensor(config).reshape(r * r, r * r) @ G.reshape(-1, r * r, r)
    return C, diagonal, E, _hessian(W.reshape(-1, r, r, r))


@_shape_cache
def _expression_kernel(config: BasisConfig, kind: str, tree: Expr) -> tuple:
    """project_kernel's projection of an expression tree, then its
    _split_kernel for kind."""
    kernel = project_kernel(config, tree)
    return (kernel, *_split_kernel(config, kind, kernel))


@_shape_cache
def _lift_rows(config: BasisConfig, m: int, n: int) -> np.ndarray:
    """AssembledSystem.A for config, m and n: the one cache of J^m, J^n."""
    q, r, dim = config.q, config.r, config.dim
    J = build_J(config)
    rows = [np.linalg.matrix_power(J, k).reshape(q, r, dim) for k in (m, n)]
    return np.concatenate(rows, axis=1)


@_shape_cache
def _carried_hessian(config: BasisConfig) -> np.ndarray:
    """AssembledSystem.Z0 for config, from Z[j, l, c, 0] = t[c, j, l] / (2l + 1)."""
    t = build_triple_tensor(config)
    return _hessian(t.transpose(1, 2, 0) / (2.0 * np.arange(config.r) + 1.0)[:, None])


def _hessian(Q: np.ndarray) -> np.ndarray:
    """Hessian in w = (u, v) of B(u, v)_m = sum_{j,l} u_j v_l Q[..., j, l, m],
    shape (..., 2r, s * 2r) for Q of shape (..., r, r, s): w @ H, reshaped to
    (..., s, 2r), is B's Jacobian [Q v | u Q] at w.  Its zero half buys one
    matmul per Jacobian in place of two differently strided ones."""
    r, s = Q.shape[-2], Q.shape[-1]
    H = np.zeros(Q.shape[:-3] + (2, r, s, 2, r))
    H[..., 1, :, :, 0, :] = np.moveaxis(Q, -3, -1)
    H[..., 0, :, :, 1, :] = Q.swapaxes(-1, -2)
    return H.reshape(Q.shape[:-3] + (2 * r, s * 2 * r))


@dataclass
class SolveReport:
    """Outcome of a Newton run: the (dim,) solution coefficients plus
    diagnostics.  reason says why Newton stopped, and converged is whether
    it is "converged" rather than "iteration limit", "line search exhausted"
    or "singular Jacobian"."""

    Y: np.ndarray
    iterations: int
    residual_norm: float
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def assemble(
    config: BasisConfig,
    kind: str,
    scalar: float,
    kernel: Expr | Callable[[np.ndarray, np.ndarray], np.ndarray],
    forcing: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    ics: Sequence[float] = (),
) -> AssembledSystem:
    """Check the problem, then project its data and build its operators.

    kernel is an exprlang tree in t and s or a numpy-vectorized callable, and
    forcing a numpy-vectorized callable, projected as project_kernel and
    project_function describe: a tree of t - s alone is sampled on two
    t-blocks, and a callable on all.  A tree's projection and split (C,
    diagonal, E, W) are kept by basis._shape_cache, read-only, as
    AssembledSystem describes, so a sweep over the scalar, forcing or ics
    projects its kernel once.  A callable, which may close over state that
    changes, is projected on every call, into arrays of the system's own.
    """
    scalar, m, n, ics = float(scalar), int(m), int(n), tuple(float(a) for a in ics)
    check_problem(kind, scalar, m, n, ics)
    if callable(kernel):
        kernel = project_kernel(config, kernel)
    return AssembledSystem(
        config=config,
        kind=kind,
        scalar=scalar,
        kernel=kernel,
        forcing=project_function(config, forcing),
        m=m,
        n=n,
        ics=ics,
    )


def residual(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """R(Y) = Y + scalar * I(u, v) - F, with u and v the m-th and n-th lifts of Y.

    y is one (dim,) coefficient vector, and so is R; lift rejects any other
    shape.  The integral term is C (D e0) / q, plus hat(K_kk D_k E) for
    Volterra, where D = C~_u C~_v is evaluated on its diagonal blocks, never
    as a dense block-diagonal matrix.  The carried term is the paper's
    K C~_u L v for Fredholm, since C~_v e0 = q L v, and for Volterra it is
    the part of hat(K D P) that P's 1/q entries above its diagonal blocks
    carry from every earlier block: hat(w e0^T) = w, since multiplying by
    the constant mode is the identity.  Overflow gives a non-finite R, with
    no numpy warning.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = lift(y, system.m, system.ics, system.config)
        v = lift(y, system.n, system.ics, system.config)
        d = coeff_matrix(u, system.tensor) @ coeff_matrix(v, system.tensor)
        integral = system.C @ d[..., 0].ravel() / system.config.q
        if system.diagonal is not None:
            integral += hat_vector(system.diagonal @ d @ system.E, system.tensor)
        return y + system.scalar * integral - system.forcing


def _inf_norm(vec: np.ndarray) -> float:
    return float(np.abs(vec).max())


def _jacobian(system: AssembledSystem, y: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the residual at y, the tangent of its bilinear core.

    R = Y + c I(u, v) - F, with u = J^m Y + a_m and v = J^n Y + a_n the
    affine lifts, read from the system's map A y + a: w_k = (u_k, v_k) depends
    on y through the 2r rows A[k].  I is bilinear in each w_k, so with the
    Hessians Z0 and W, dR = I + c (C blockdiag([Z0 v_k | u_k Z0] A[k]) / q
    + blockdiag([W_k v_k | u_k W_k] A[k])), the second term for Volterra only;
    a W of one block serves every k.
    """
    q, r, dim = system.config.q, system.config.r, system.config.dim
    A = system.A
    with np.errstate(over="ignore", invalid="ignore"):
        w = A @ y + system.a
        carried = (w @ system.Z0).reshape(q, r, 2 * r) @ A
        tangent = system.C @ (carried.reshape(dim, dim) / q)
        if system.W is not None:
            partial = (w[:, None] @ system.W).reshape(q, r, 2 * r) @ A
            tangent += partial.reshape(dim, dim)
        tangent *= system.scalar
        tangent.flat[:: dim + 1] += 1.0
        return tangent


def _step_length(
    res: np.ndarray, norm: float, full_res: np.ndarray, full_norm: float
) -> float | None:
    """The line search along a Newton step s: a length t, or None.

    R is quadratic and J s = -R(y), so R(y + t s) = (1 - t) a + t^2 b for
    a = R(y) and b = R(y + s), whose max-norms are norm and full_norm.  With
    beta = a.b / a.a, the model's component along a, 1 - t + beta t^2, has its
    smaller root t = 2 / (1 + sqrt(1 - 4 beta)) when beta <= 1/4 and is
    smallest at t = 1 / (2 beta) otherwise, so t lies in (0, 2].  That t is
    the model's exact root when b is parallel to a, as for a rank-1 kernel.
    It is returned only when the model's squared 2-norm there is below
    _SEARCH_GAIN times the full step's b.b.  a and b are scaled by their
    largest entry, so their dot products cannot overflow; a non-finite b, or
    an a.a of 0, gives None.
    """
    if not math.isfinite(full_norm):
        return None
    scale = max(norm, full_norm)
    a, b = res / scale, full_res / scale
    aa, ab, bb = float(a @ a), float(a @ b), float(b @ b)
    if aa == 0.0:
        return None
    beta = ab / aa
    t = 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * beta)) if beta <= 0.25 else 0.5 / beta
    model = (1.0 - t) ** 2 * aa + 2.0 * (1.0 - t) * t * t * ab + t**4 * bb
    return t if model < _SEARCH_GAIN * bb else None


def _newton(
    system: AssembledSystem, start: np.ndarray, tol: float, max_iter: int
) -> SolveReport:
    """Damped Newton from start, stepping to the residual model's projected root.

    Converged means the residual max-norm fell to tol, or the Newton step
    fell to rounding level, max|step| <= _STEP_ULPS * eps * max|y|.  The
    second test stops the iteration at the residual's rounding floor, which
    can lie above a tight tol.  Each iteration evaluates the full step's
    residual and, when _step_length offers a length, the residual there
    too.  The candidate of the two with the lower max-norm is tried first,
    then halved, at most _MAX_HALVINGS times, until the residual decreases.
    The run stops unconverged when that fails, when the Jacobian is
    singular or after max_iter steps, and the report's reason says which.
    Raises FloatingPointError when the residual at start is not finite.
    """
    y = np.array(start, dtype=float)
    res = residual(system, y)
    norm = _inf_norm(res)
    if not np.isfinite(norm):
        raise FloatingPointError(f"the starting residual is not finite (max-norm {norm})")
    converged = norm <= tol
    reason = "iteration limit"
    step_floor = _STEP_ULPS * np.finfo(float).eps
    iterations = 0
    while not converged and iterations < max_iter:
        try:
            step = np.linalg.solve(_jacobian(system, y), -res)
        except np.linalg.LinAlgError:
            reason = "singular Jacobian"
            break
        if _inf_norm(step) <= step_floor * _inf_norm(y):
            converged = True
            break
        scale, cand_res = 1.0, residual(system, y + step)
        cand_norm = _inf_norm(cand_res)
        length = _step_length(res, norm, cand_res, cand_norm)
        if length is not None:
            trial_res = residual(system, y + length * step)
            trial_norm = _inf_norm(trial_res)
            if trial_norm < cand_norm:
                scale, cand_res, cand_norm = length, trial_res, trial_norm
        # damping: halve that candidate until the residual actually decreases
        accepted = False
        for halvings in range(_MAX_HALVINGS + 1):
            if halvings:
                scale *= 0.5
                cand_res = residual(system, y + scale * step)
                cand_norm = _inf_norm(cand_res)
            if np.isfinite(cand_norm) and cand_norm < norm:
                y, res, norm = y + scale * step, cand_res, cand_norm
                accepted = True
                break
        if not accepted:
            reason = "line search exhausted"
            break
        iterations += 1
        converged = norm <= tol
    return SolveReport(
        Y=y,
        iterations=iterations,
        residual_norm=norm,
        reason="converged" if converged else reason,
    )


def check_stopping(tol: float, max_iter: int) -> None:
    """Check solve's stopping rule: a finite tol > 0 and max_iter >= 1."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def solve(system: AssembledSystem, tol: float = TOL, max_iter: int = MAX_ITER) -> SolveReport:
    """Damped Newton on the residual, starting from Y = F, with a line
    search along each step to the projected root of its quadratic model.

    The forcing coefficients are the exact solution when the integral term
    vanishes and a good predictor otherwise; for a rank-1 kernel the root
    lies on the first Newton line, where the projected root is the model's
    exact one, so one step usually lands on it.  The report is converged
    when the residual max-norm is at most tol, or when the Newton step fell
    to rounding level in Y, as _newton describes.  Raises FloatingPointError
    when the residual at Y = F overflows or is otherwise not finite.
    """
    check_stopping(tol, max_iter)
    return _newton(system, system.forcing, tol, max_iter)


def error_bound(mu: int, M: float) -> float:
    """Worst-case L2 error M / (2^(2*mu+1) * (mu+1)!) of a degree-mu approximant.

    M bounds the (mu+1)-th derivative of the function being approximated
    on the unit interval.  The quotient of integers is rounded once: 0.0
    once it underflows, never an OverflowError.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if not np.isfinite(M) or M < 0.0:
        raise ValueError(f"M must be finite and nonnegative, got {M}")
    num, den = float(M).as_integer_ratio()
    return num / (den * 2 ** (2 * mu + 1) * math.factorial(mu + 1))


@_shape_cache
def _stencil(order: int) -> tuple:
    """derivative_max's stencil at order >= 1: every point it samples, shape
    (2, order + 1, _SAMPLES), where row (0, i) is the grid shifted by
    (order / 2 - i) 2h and row (1, i) the same with step h, in the order the
    stencil sums take them; the weights (-1)^i C(order, i), shape
    (order + 1, 1); and the step powers (2h)^order and h^order, shape (2, 1)."""
    coarse_h = 2.0 * _STEP
    reach = (order / 2.0) * coarse_h
    a, b = _LO + reach, _HI - reach
    if b <= a:
        raise ValueError(
            f"step {_STEP} is too large for order {order} on [{_LO}, {_HI}]"
        )
    steps = np.array([coarse_h, _STEP])[:, None, None]
    shifts = (order / 2.0 - np.arange(order + 1))[:, None] * steps
    weights = np.array([(-1.0) ** i * math.comb(order, i) for i in range(order + 1)])
    powers = np.array([coarse_h**order, _STEP**order])
    return np.linspace(a, b, _SAMPLES) + shifts, weights[:, None], powers[:, None]


def derivative_max(f: Callable[[np.ndarray], np.ndarray], order: int) -> float:
    """Estimate max |f^(order)| on [0, 1] by central differences.

    Uses one Richardson extrapolation from steps 2h and h, with h = 0.01.
    The 1001-point sample grid is clipped so every stencil point stays inside
    [0, 1], which it cannot from order 50 up.  f must be numpy-vectorized:
    from order 1 up it is called once, on the (2, order + 1, 1001) array of
    every stencil point, built once per order, so an error it raises names
    the first bad point in stencil order, coarse step first.  From order 8 up
    the estimate is rounding noise: for exp on [0, 1] it gives 958 at order 8
    and 1.1e12 at order 12, where the true value is e.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order == 0:
        return float(np.max(np.abs(f(np.linspace(_LO, _HI, _SAMPLES)))))
    points, weights, powers = _stencil(order)
    values = np.broadcast_to(np.asarray(f(points), dtype=float), points.shape)
    # both steps' stencil sums in one pass, adding the offsets' rows left to right
    coarse, fine = sum(np.moveaxis(weights * values, 1, 0)) / powers
    refined = (4.0 * fine - coarse) / 3.0
    return float(np.max(np.abs(refined)))
