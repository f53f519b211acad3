"""Multiple-kernel learning for the collocation objective.

The mixture weights beta live on the probability simplex and are learned
jointly with the expansion coefficients alpha: for each beta the alpha
subproblem is the same strictly convex quadratic as in the collocation
module and is solved exactly, so the outer optimizer sees a smooth
reduced objective of beta alone.  beta is parameterized through a
softmax, which keeps every iterate strictly inside the simplex.  On the
simplex the L1 norm is constantly 1, so sparsity comes from hard
thresholding, as the pruning step documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .collocation import (
    CollocationProblem, PenaltyConfig, Solution, _kernel_gradients, _matvec,
    _normal_equations, _reference_fit, _solve_spd, residual_rows, solve,
)
from .dynamics import SystemDef, eval_field
from .errors import ConfigurationError, NumericalError, count
from .kernels import (
    CauchyKernel,
    ExponentialKernel,
    GaussianKernel,
    InverseQuadraticKernel,
    Kernel,
    KernelMixture,
    PolynomialKernel,
    SigmoidKernel,
    TriangularKernel,
    _bank_rows,
    _fill_rows,
)

__all__ = [
    "MKLConfig",
    "MKLResult",
    "default_kernel_bank",
    "kernel_label",
    "mkl_solve",
    "sparsify",
    "pruned_mixture",
    "refit_pruned",
]


def default_kernel_bank() -> list:
    """The standing 11-kernel bank: 6 stationary/dot-product families plus
    polynomial degrees 2 through 6.  ``cauchy(gamma=1)`` and
    ``inverse_quadratic(gamma=1)`` are the same kernel, so only the sum of
    their two weights is identifiable."""
    bank = [
        GaussianKernel(gamma=1.0),
        ExponentialKernel(gamma=1.0),
        CauchyKernel(gamma=1.0),
        TriangularKernel(sigma=2.0),
        SigmoidKernel(gamma=0.5, coef0=0.0),
        InverseQuadraticKernel(gamma=1.0),
    ]
    bank += [PolynomialKernel(degree=d, coef0=1.0) for d in range(2, 7)]
    return bank


def kernel_label(k: Kernel) -> str:
    if k.family == "polynomial":
        return f"polynomial_deg{int(k.params['degree'])}"
    return k.family


@dataclass(frozen=True)
class MKLConfig:
    base_kernels: Sequence[Kernel] = field(default_factory=default_kernel_bank)
    eta: float = PenaltyConfig.eta
    mu_grad: float = PenaltyConfig.mu_grad
    tau: float = 0.1
    max_iter: int = 200
    gtol: float = 1e-6

    def __post_init__(self):
        PenaltyConfig(eta=self.eta, mu_grad=self.mu_grad)  # the collocation penalty rule
        object.__setattr__(self, "base_kernels", tuple(self.base_kernels))
        if len(self.base_kernels) < 2:
            raise ConfigurationError("need at least 2 base kernels")
        if not (0.0 <= self.tau < 1.0):
            raise ConfigurationError(f"threshold tau must be in [0, 1), got {self.tau}")
        object.__setattr__(self, "max_iter", count("max_iter", self.max_iter, 0))
        if not (0.0 <= self.gtol < np.inf):
            raise ConfigurationError(f"gtol must be finite and >= 0, got {self.gtol}")


@dataclass(frozen=True)
class MKLResult:
    beta: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray         # phi on the collocation points, (sum_l beta_l K_l) alpha
    kernel_labels: tuple
    loss_trace: np.ndarray
    converged: bool
    config: MKLConfig
    rescale_factor: Optional[float] = None
    rmse_rescaled: Optional[float] = None
    pruned_beta: Optional[np.ndarray] = None
    n_evaluations: Optional[int] = None   # objective evaluations, one inner solve each
    stop_reason: Optional[str] = None     # "gtol", "max_iter" or "line_search"

    def __post_init__(self):
        # negated, so that NaN weights fail the test too
        s = float(np.sum(self.beta))
        if not (abs(s - 1.0) <= 1e-9 and np.min(self.beta) >= -1e-12):
            raise NumericalError(f"mixture weights left the simplex (sum {s})")


def _per_kernel_blocks(system, lam, points, anchor_point, kernels):
    """Stacked residual matrices and anchor gradients, one slab per base
    kernel: each kernel's collocation ``residual_rows`` and
    ``_kernel_gradients``.  The residual slabs go a block of rows at a time,
    the kernels sharing each block's geometry, and each kernel's B goes into
    its slab before the next kernel's rows are made.  The mixture versions
    are beta-linear combinations of these; no Gram matrix is kept."""
    F = eval_field(system, points)
    rows = _bank_rows([residual_rows(k, F, lam, points, points) for k in kernels])
    Bs = np.empty((len(kernels), len(points), len(points)))
    _fill_rows(lambda s: (B for B, _ in rows(s)), *Bs)
    G0s = np.stack([_kernel_gradients(k, anchor_point, points) for k in kernels])
    return Bs, G0s


_ARMIJO_C1 = 1e-4
# a step of 2**-30 in the max-norm of theta moves beta by about 1e-9 relative
_MAX_HALVINGS = 30


def _bfgs(fun, x0, gtol, max_iter):
    """Minimize ``fun(x) -> (f, g, aux)`` by BFGS on the inverse Hessian
    with Armijo backtracking (Nocedal & Wright, Numerical Optimization,
    algorithms 3.1 and 6.1).  Returns the last accepted x and its aux, the
    losses of the accepted iterates, the number of calls to fun and why it
    stopped: "gtol" (max|g| <= gtol, tested before every step, the first
    included), "max_iter" (max_iter steps taken) or "line_search" (no
    acceptable trial within _MAX_HALVINGS halvings).

    The first trial moves x by exactly 1 in the max norm along -g, so a
    tiny gradient does not mean a tiny step; later trials take the
    quasi-Newton step capped at max norm 1.  A non-finite trial loss fails
    like an insufficient decrease.  An update with s.y <= 0 would make H
    indefinite and is skipped.
    """
    x = np.asarray(x0, dtype=float)
    f, g, aux = fun(x)
    if not np.isfinite(f):
        raise NumericalError("mixture optimization started at a non-finite loss")
    trace, nfev = [f], 1
    H = np.eye(x.size)
    for it in range(max_iter + 1):
        if np.max(np.abs(g)) <= gtol:
            return x, aux, trace, nfev, "gtol"
        if it == max_iter:
            return x, aux, trace, nfev, "max_iter"
        if it == 0:
            p = -g / np.max(np.abs(g))
        else:
            p = -(H @ g)
            p /= max(1.0, np.max(np.abs(p)))
        slope, t = g @ p, 1.0
        for _ in range(_MAX_HALVINGS + 1):
            x_new = x + t * p
            f_new, g_new, aux_new = fun(x_new)
            nfev += 1
            if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * t * slope:
                break
            t /= 2.0
        else:
            return x, aux, trace, nfev, "line_search"
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            V = np.eye(x.size) - np.outer(s, y) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
        x, f, g, aux = x_new, f_new, g_new, aux_new
        trace.append(f)


def mkl_solve(system: SystemDef, lam: float, points, cfg: MKLConfig,
              reference: Optional[Callable] = None) -> MKLResult:
    """Learn simplex weights and coefficients for the residual objective.

    The weights are a softmax of log-weights theta, minimized by ``_bfgs``
    from theta = 0 (uniform weights); ``converged`` means the gradient
    test max|g| <= cfg.gtol stopped it.  Deterministic: the inner solves
    are exact and nothing is random, so it takes no seed.
    """
    kernels = cfg.base_kernels
    L = len(kernels)
    # the problem at theta = 0 gives the checked points, the eigenpair and x*
    uniform = KernelMixture(kernels, np.full(L, 1 / L))
    prob = CollocationProblem.for_eigenvalue(system, lam, uniform, points,
                                             PenaltyConfig(eta=cfg.eta, mu_grad=cfg.mu_grad))
    X, w = prob.points, prob.anchor_target
    n, d = X.shape
    Bs, G0s = _per_kernel_blocks(system, prob.lam, X, prob.anchor_point, kernels)

    def objective(theta):
        v = np.exp(theta)
        beta = v / v.sum()
        # the mixture slabs on scipy's BLAS, whose POTRF factors them next
        B = _matvec(Bs.reshape(L, -1).T, beta).reshape(n, n)
        G0 = _matvec(G0s.reshape(L, -1).T, beta).reshape(G0s.shape[1:])
        alpha = _solve_spd(lambda: _normal_equations([B], cfg.eta, cfg.mu_grad, G0),
                           cfg.mu_grad * G0.T @ w)
        r = _matvec(B, alpha)
        a_gap = G0 @ alpha - w
        f = (r @ r) / n + cfg.eta * (alpha @ alpha) + cfg.mu_grad * (a_gap @ a_gap)
        # envelope gradient: alpha is optimal, so only the explicit beta
        # dependence contributes; the slabs times alpha on scipy's BLAS
        g = (2.0 / n) * (_matvec(Bs.reshape(L * n, n), alpha).reshape(L, n) @ r)
        g += 2.0 * cfg.mu_grad * (_matvec(G0s.reshape(L * d, n), alpha).reshape(L, d) @ a_gap)
        return f, beta * (g - beta @ g), (beta, alpha)

    _, (beta, alpha), trace, nfev, reason = _bfgs(objective, np.zeros(L), cfg.gtol,
                                                  cfg.max_iter)

    del Bs      # frees the slabs before the learned mixture's Gram matrix is filled for phi
    phi = _matvec(KernelMixture(kernels, beta).pairwise(X), alpha)
    c_star, rmse, _ = _reference_fit(phi, X, reference)
    return MKLResult(
        beta=beta, alpha=alpha, phi=phi,
        kernel_labels=tuple(kernel_label(k) for k in kernels),
        loss_trace=np.asarray(trace), converged=reason == "gtol",
        config=cfg, rescale_factor=c_star, rmse_rescaled=rmse,
        n_evaluations=nfev, stop_reason=reason,
    )


def sparsify(result: MKLResult) -> MKLResult:
    """Zero out weights below the config's threshold tau and renormalize
    survivors.

    If everything is pruned the pruned model is identically zero; that is
    reported through an empty pruned_beta, not raised.
    """
    beta = np.where(result.beta < result.config.tau, 0.0, result.beta)
    total = beta.sum()
    if total == 0.0:
        return replace(result, pruned_beta=np.empty(0))
    return replace(result, pruned_beta=beta / total)


def pruned_mixture(result: MKLResult) -> KernelMixture:
    """Mixture of the surviving kernels after sparsify."""
    if result.pruned_beta is None:
        raise ConfigurationError("run sparsify before building the pruned mixture")
    if result.pruned_beta.size == 0:
        raise NumericalError("degenerate pruned model: every weight was thresholded away")
    keep = result.pruned_beta > 0
    comps = [k for k, m in zip(result.config.base_kernels, keep) if m]
    return KernelMixture(comps, result.pruned_beta[keep])


def refit_pruned(system: SystemDef, lam: float, points, mixture: KernelMixture,
                 reference: Optional[Callable] = None, eta: float = PenaltyConfig.eta,
                 mu_grad: float = PenaltyConfig.mu_grad) -> Solution:
    """Plain collocation solve with a pruned mixture kernel."""
    prob = CollocationProblem.for_eigenvalue(
        system, lam, mixture, points,
        penalties=PenaltyConfig(eta=eta, mu_grad=mu_grad),
    )
    return solve(prob, reference=reference)
