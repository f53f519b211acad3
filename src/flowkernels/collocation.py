"""Penalized kernel collocation for principal-eigenfunction recovery.

The eigenfunction is sought as phi(x) = sum_j alpha_j K(x, x_j).  The
coefficients minimize the mean-square PDE residual of f . grad(phi) =
lam * phi over the collocation points, plus a ridge term, a gradient
anchor at the equilibrium (pinning grad(phi) to the left eigenvector so
the zero function is excluded), and optional boundary penalties.  The
objective is a strictly convex quadratic, so the solve is one symmetric
positive-definite factorization.

Kernel matrices are filled a block of rows at a time by the kernels'
``directional_pairwise``, and the normal matrix is accumulated in place, so
a solve holds about four (N, N) arrays at its peak: K, B, the normal matrix
and the copy that the Cholesky factorization makes of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .dynamics import SystemDef, eval_field, linearize
from .errors import ConfigurationError, NumericalError
from .kernels import Kernel

__all__ = [
    "PenaltyConfig",
    "CollocationProblem",
    "AssembledSystem",
    "Solution",
    "assemble",
    "solve",
    "evaluate",
    "gradient_at",
    "residual_field",
    "rescale_rmse",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Weights for the quadratic penalty terms.

    mu_grad must be positive: without the gradient anchor the zero
    function minimizes everything.  Boundary terms are off unless their
    weight is positive and the corresponding point set is supplied.
    """

    eta: float = 1e-8
    mu_grad: float = 1e4
    mu_trace: float = 0.0
    mu_layer: float = 0.0
    trace_points: Optional[np.ndarray] = None
    layer_points: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("eta", "mu_grad", "mu_trace", "mu_layer"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
        if not self.mu_grad > 0:
            raise ConfigurationError("mu_grad must be > 0 (excludes the zero solution)")
        for name in ("trace_points", "layer_points"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.atleast_2d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class CollocationProblem:
    system: SystemDef
    lam: float
    kernel: Kernel
    points: np.ndarray
    anchor_target: np.ndarray
    anchor_point: Optional[np.ndarray] = None
    penalties: PenaltyConfig = PenaltyConfig()

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != self.system.dim:
            raise ConfigurationError("points must be an (N, dim) array with N >= 1")
        object.__setattr__(self, "points", pts)
        w = np.asarray(self.anchor_target, dtype=float).ravel()
        if w.shape != (self.system.dim,) or not np.any(w):
            raise ConfigurationError("anchor target must be a nonzero dim-vector")
        object.__setattr__(self, "anchor_target", w)
        if self.anchor_point is None:
            if self.system.equilibrium is None:
                raise ConfigurationError("no equilibrium available; pass anchor_point")
            object.__setattr__(self, "anchor_point", np.asarray(self.system.equilibrium, dtype=float))
        else:
            xa = np.asarray(self.anchor_point, dtype=float).ravel()
            if xa.shape != (self.system.dim,):
                raise ConfigurationError("anchor point has wrong dimension")
            object.__setattr__(self, "anchor_point", xa)

    @classmethod
    def for_eigenvalue(cls, system, lam, kernel, points, penalties=PenaltyConfig()):
        """Anchor target taken from the linearization's left eigenvector."""
        lin = linearize(system)
        lam_exact, w = lin.eigenpair(lam)
        return cls(system=system, lam=lam_exact, kernel=kernel, points=points,
                   anchor_target=w, penalties=penalties)


@dataclass(frozen=True)
class AssembledSystem:
    """Matrices of the quadratic objective, rows = penalty equations."""

    B: np.ndarray       # (N, N) PDE residual: B_ij = f(x_i).grad_x K(x_i,x_j) - lam K(x_i,x_j)
    G0: np.ndarray      # (dim, N) kernel gradients at the anchor
    T: np.ndarray       # (n_trace, N) kernel values at trace points
    Y: np.ndarray       # (n_layer, N) kernel values at layer points / sqrt(n_layer)
    K: np.ndarray       # (N, N) Gram matrix on the collocation points


def _locate_domain_violation(kernel, points):
    for i, x in enumerate(np.atleast_2d(points)):
        try:
            kernel.eval(x, x)
        except ConfigurationError as exc:
            raise ConfigurationError(f"kernel invalid at point index {i}, x={x}: {exc}") from exc


def kernel_blocks(kernel: Kernel, F: np.ndarray, lam: float, X: np.ndarray,
                  anchor_point: np.ndarray):
    """The residual matrix B, the anchor gradients G0 (dim, N) and the Gram
    matrix K of one kernel on the points X, with F = f(X)."""
    K, B = kernel.directional_pairwise(X, F, X)
    B -= lam * K
    return B, kernel.grad_x_pairwise(anchor_point[None, :], X)[0].T, K


def assemble(problem: CollocationProblem) -> AssembledSystem:
    X = problem.points
    n = X.shape[0]
    kern = problem.kernel
    F = eval_field(problem.system, X)
    try:
        B, G0, K = kernel_blocks(kern, F, problem.lam, X, problem.anchor_point)
    except ConfigurationError:
        _locate_domain_violation(kern, X)
        raise

    pen = problem.penalties
    T = np.empty((0, n))
    if pen.mu_trace > 0 and pen.trace_points is not None and len(pen.trace_points):
        T = kern.pairwise(pen.trace_points, X)
    Y = np.empty((0, n))
    if pen.mu_layer > 0 and pen.layer_points is not None and len(pen.layer_points):
        Y = kern.pairwise(pen.layer_points, X) / np.sqrt(len(pen.layer_points))
    return AssembledSystem(B=B, G0=G0, T=T, Y=Y, K=K)


@dataclass(frozen=True)
class Solution:
    alpha: np.ndarray
    phi: np.ndarray                 # phi on the collocation points, K alpha
    problem: CollocationProblem
    residual_norm: float            # ||B alpha||_2 / sqrt(N)
    anchor_error: float
    derivative_at_anchor: np.ndarray
    rescale_factor: Optional[float] = None
    rmse_raw: Optional[float] = None
    rmse_rescaled: Optional[float] = None

    def __post_init__(self):
        vals = [self.residual_norm, self.anchor_error, *np.ravel(self.derivative_at_anchor)]
        vals += [v for v in (self.rescale_factor, self.rmse_raw, self.rmse_rescaled) if v is not None]
        if not np.all(np.isfinite(vals)):
            raise NumericalError("solution diagnostics contain non-finite values")


def _solve_spd(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One Cholesky solve of A, which is left untouched.  A matrix that is not
    numerically positive definite is an error, not something to perturb."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), rhs)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"normal equations not positive definite ({exc}; condition estimate "
            f"{np.linalg.cond(A):.3e}); a larger eta keeps them definite"
        ) from exc


def _normal_equations(B: np.ndarray, eta: float, terms) -> np.ndarray:
    """B.T B / n + eta I + sum of mu M.T M over the (mu, M) pairs in terms,
    accumulated in place in that order; pairs with an empty M are skipped."""
    A = B.T @ B
    A /= B.shape[0]
    A.flat[:: A.shape[0] + 1] += eta
    for mu, M in terms:
        if M.size:
            A += (mu * M.T) @ M
    return A


def normal_matrix(problem: CollocationProblem, asm: AssembledSystem) -> np.ndarray:
    """The normal-equation matrix of the quadratic objective."""
    pen = problem.penalties
    return _normal_equations(asm.B, pen.eta, [(pen.mu_grad, asm.G0), (pen.mu_trace, asm.T),
                                             (pen.mu_layer, asm.Y)])


def _reference_fit(phi: np.ndarray, points: np.ndarray, reference):
    """(c*, rescaled RMSE, raw RMSE) of phi against the reference eigenfunction
    on the points, or three Nones without a reference; reference is a
    callable or the values themselves."""
    if reference is None:
        return None, None, None
    ref = reference(points) if callable(reference) else np.asarray(reference, dtype=float)
    c_star, rmse_rescaled = rescale_rmse(phi, ref)
    return c_star, rmse_rescaled, float(np.sqrt(np.mean((phi - ref) ** 2)))


def solve(problem: CollocationProblem, reference: Optional[Callable] = None) -> Solution:
    """Minimize the penalized residual objective.

    reference: optional callable giving exact eigenfunction values on the
    collocation points; fills the RMSE diagnostics.
    """
    asm = assemble(problem)
    if not all(np.all(np.isfinite(m)) for m in (asm.B, asm.G0, asm.T, asm.Y)):
        raise NumericalError("assembled matrices contain non-finite entries")
    n = asm.B.shape[0]
    w = problem.anchor_target
    alpha = _solve_spd(normal_matrix(problem, asm), problem.penalties.mu_grad * asm.G0.T @ w)
    phi = asm.K @ alpha
    deriv = asm.G0 @ alpha
    c_star, rmse_rescaled, rmse_raw = _reference_fit(phi, problem.points, reference)
    return Solution(
        alpha=alpha,
        phi=phi,
        problem=problem,
        residual_norm=float(np.linalg.norm(asm.B @ alpha) / np.sqrt(n)),
        anchor_error=float(np.linalg.norm(deriv - w)),
        derivative_at_anchor=deriv,
        rescale_factor=c_star,
        rmse_raw=rmse_raw,
        rmse_rescaled=rmse_rescaled,
    )


def evaluate(solution: Solution, probes) -> np.ndarray:
    """phi on probe points from the coefficient expansion."""
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    prob = solution.problem
    return prob.kernel.pairwise(P, prob.points) @ solution.alpha


def gradient_at(solution: Solution, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    prob = solution.problem
    G = prob.kernel.grad_x_pairwise(x[None, :], prob.points)[0]  # (N, dim)
    return G.T @ solution.alpha


def residual_field(solution: Solution, probes) -> np.ndarray:
    """Pointwise PDE residual f . grad(phi) - lam * phi on probes."""
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    prob = solution.problem
    K, D = prob.kernel.directional_pairwise(P, eval_field(prob.system, P), prob.points)
    return D @ solution.alpha - prob.lam * (K @ solution.alpha)


def rescale_rmse(learned, reference):
    """Best-scalar-match RMSE: c* = <learned, ref> / <learned, learned>.

    Inner products are plain means over the grid values.  A learned vector
    that is zero or discretely orthogonal to the reference signals collapse
    to the trivial minimizer and is rejected.
    """
    l = np.asarray(learned, dtype=float).ravel()
    r = np.asarray(reference, dtype=float).ravel()
    if l.shape != r.shape:
        raise ConfigurationError("learned and reference must have equal length")
    denom = float(np.mean(l * l))
    if denom == 0.0:
        raise NumericalError("degenerate solution: learned values identically zero")
    c_star = float(np.mean(l * r)) / denom
    if c_star == 0.0:
        raise NumericalError("degenerate solution: learned values orthogonal to reference")
    rmse = float(np.sqrt(np.mean((c_star * l - r) ** 2)))
    return c_star, rmse
