"""Multiple-kernel learning for the collocation objective.

The mixture weights beta live on the probability simplex and are learned
jointly with the expansion coefficients alpha: for each beta the alpha
subproblem is the same strictly convex quadratic as in the collocation
module and is solved exactly, so the outer optimizer sees a smooth
reduced objective of beta alone.  beta is parameterized through a
softmax, which keeps every iterate strictly inside the simplex; an
optional L1 term acts on the pre-normalization magnitudes (on the
simplex itself the L1 norm is constantly 1, so sparsity is ultimately
enforced by hard thresholding, as the pruning step documents).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.optimize

from .collocation import (
    CollocationProblem, PenaltyConfig, Solution, _normal_equations, _reference_fit, _solve_spd,
    kernel_blocks, solve,
)
from .dynamics import SystemDef, eval_field, linearize
from .errors import ConfigurationError, NumericalError
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
    polynomial degrees 2 through 6."""
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
    eta: float = 1e-8
    mu_grad: float = 1e4
    lam_l1: float = 0.0
    tau: float = 0.1
    max_iter: int = 200
    gtol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "base_kernels", tuple(self.base_kernels))
        if len(self.base_kernels) < 2:
            raise ConfigurationError("need at least 2 base kernels")
        if not (0.0 <= self.tau < 1.0):
            raise ConfigurationError(f"threshold tau must be in [0, 1), got {self.tau}")
        if self.lam_l1 < 0:
            raise ConfigurationError("lam_l1 must be >= 0")


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

    def __post_init__(self):
        s = float(np.sum(self.beta))
        if abs(s - 1.0) > 1e-9 or np.min(self.beta) < -1e-12:
            raise NumericalError(f"mixture weights left the simplex (sum {s})")


def _per_kernel_blocks(system, lam, points, anchor_point, kernels):
    """Stacked residual matrices, anchor gradients and Gram matrices,
    one slab per base kernel, from collocation's ``kernel_blocks``.  The
    mixture versions are beta-linear combinations of these."""
    F = eval_field(system, points)
    (n, d), L = points.shape, len(kernels)
    Bs, G0s, Ks = np.empty((L, n, n)), np.empty((L, d, n)), np.empty((L, n, n))
    for l, k in enumerate(kernels):
        Bs[l], G0s[l], Ks[l] = kernel_blocks(k, F, lam, points, anchor_point)
    return Bs, G0s, Ks


def mkl_solve(system: SystemDef, lam: float, points, cfg: MKLConfig,
              reference: Optional[Callable] = None) -> MKLResult:
    """Learn simplex weights and coefficients for the residual objective.

    Deterministic: the optimizer is quasi-Newton with exact inner solves
    and no stochastic component, so it takes no seed.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    lin = linearize(system)
    lam, w = lin.eigenpair(lam)
    anchor = np.asarray(system.equilibrium, dtype=float)
    kernels = cfg.base_kernels
    L, n = len(kernels), X.shape[0]
    Bs, G0s, Ks = _per_kernel_blocks(system, lam, X, anchor, kernels)

    def objective(theta):
        v = np.exp(theta)
        beta = v / v.sum()
        B = np.tensordot(beta, Bs, axes=1)
        G0 = np.tensordot(beta, G0s, axes=1)
        alpha = _solve_spd(_normal_equations(B, cfg.eta, [(cfg.mu_grad, G0)]),
                           cfg.mu_grad * G0.T @ w)
        r = B @ alpha
        a_gap = G0 @ alpha - w
        f = (r @ r) / n + cfg.eta * (alpha @ alpha) + cfg.mu_grad * (a_gap @ a_gap)
        f += cfg.lam_l1 * v.sum()
        # envelope gradient: alpha is optimal, so only the explicit beta
        # dependence contributes
        g = (2.0 / n) * np.einsum("lij,j,i->l", Bs, alpha, r)
        g += 2.0 * cfg.mu_grad * np.einsum("ldj,j,d->l", G0s, alpha, a_gap)
        grad_theta = beta * (g - beta @ g) + cfg.lam_l1 * v
        return f, grad_theta, alpha

    # the initial trace entry, the optimizer's first call, the callback at
    # each accepted iterate and the final alpha usually ask for the same
    # theta; keep the last evaluation so each distinct theta is solved once
    last = {"theta": None}

    def evaluate(theta):
        if last["theta"] is None or not np.array_equal(theta, last["theta"]):
            last.update(theta=theta.copy(), value=objective(theta))
        return last["value"]

    trace = []

    def record(theta):
        trace.append(evaluate(theta)[0])

    theta0 = np.zeros(L)
    trace.append(evaluate(theta0)[0])
    res = scipy.optimize.minimize(
        lambda theta: evaluate(theta)[:2], theta0, jac=True, method="BFGS",
        options={"gtol": cfg.gtol, "maxiter": cfg.max_iter},
        callback=record,
    )
    if not np.isfinite(res.fun):
        raise NumericalError("mixture optimization diverged to a non-finite loss")
    v = np.exp(res.x)
    beta = v / v.sum()
    alpha = evaluate(res.x)[2]

    # summed in bank order, as KernelMixture.pairwise does, so phi is bitwise
    # the learned mixture's Gram matrix times alpha; 64 rows at a time keep
    # the running sum in cache (3x faster than whole slabs at N=961, 2 cores)
    K = np.empty((n, n))
    for s in range(0, n, 64):
        rows = K[s:s + 64]
        np.multiply(Ks[0, s:s + 64], beta[0], out=rows)
        for b, Kl in zip(beta[1:], Ks[1:]):
            rows += b * Kl[s:s + 64]
    phi = K @ alpha
    c_star, rmse, _ = _reference_fit(phi, X, reference)
    return MKLResult(
        beta=beta, alpha=alpha, phi=phi,
        kernel_labels=tuple(kernel_label(k) for k in kernels),
        loss_trace=np.asarray(trace), converged=bool(res.success),
        config=cfg, rescale_factor=c_star, rmse_rescaled=rmse,
    )


def sparsify(result: MKLResult, tau: Optional[float] = None) -> MKLResult:
    """Zero out weights below the threshold and renormalize survivors.

    If everything is pruned the pruned model is identically zero; that is
    reported through an empty pruned_beta, not raised.
    """
    tau = result.config.tau if tau is None else tau
    beta = np.where(result.beta < tau, 0.0, result.beta)
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
                 reference: Optional[Callable] = None,
                 eta: float = 1e-8, mu_grad: float = 1e4) -> Solution:
    """Plain collocation solve with a pruned mixture kernel."""
    if not len(mixture.components):
        raise NumericalError("degenerate pruned model: empty mixture")
    prob = CollocationProblem.for_eigenvalue(
        system, lam, mixture, points,
        penalties=PenaltyConfig(eta=eta, mu_grad=mu_grad),
    )
    return solve(prob, reference=reference)
