"""Characteristic (path-integral) coordinates and their rank-one kernel.

The coordinate built here is

    xi_T(x) = w^T (x - x*) + d * int_0^T exp(-|lam| tau) w^T fnl(s_{d tau}(x)) dtau,

where w is a left eigenvector of the equilibrium Jacobian E paired with rate
lam, d = sign(lam) picks the integration direction (forward for unstable
rates, backward for stable ones, so the exponential weight always decays),
and fnl(y) = f(y) - E (y - x*) is the field minus its linearization.

The integral is accumulated step by step with Simpson weights on the four
stages of the RK4 flow itself: each step adds
dt/6 (g_1 + 2 g_2 + 2 g_3 + g_4) with g_i = exp(-|lam| tau_i) w^T fnl(y_i),
where y_i are the stage states, tau_i = t_k, t_k + dt/2, t_k + dt/2,
t_k + dt, and f(y_i) are the stage slopes the integrator already evaluated.
The rule is fourth order, costs no extra field evaluations, reads only the
current step's stages, and is exactly zero on linear systems.

Because w^T fnl(s_t(x)) is an exact time derivative of exp(-lam t) w^T s_t(x),
xi_T equals the rescaled projection e^{-lam d T} w^T s_{dT}(x), and its
transport defect f . grad xi_T - lam xi_T is exactly the truncation term
e^{-lam d T} w^T fnl(s_{dT}(x)); the residual helpers below measure it at
finite horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LinearizationInfo,
    SystemDef,
    eval_field,
    flow,
    nonlinear_part,
)
from .errors import ConfigurationError
from .kernels import RankOneKernel

__all__ = [
    "PathIntegralConfig",
    "XiEvaluator",
    "mode_kernel_select",
    "xi_truncated",
    "xi_values",
    "koopman_residual_T",
    "residual_values",
    "theoretical_residual",
    "rank_one_kernel",
    "combined_kernels",
]


@dataclass(frozen=True)
class PathIntegralConfig:
    """Horizon, step count, and the eigenpair the coordinate is built for."""

    T: float
    M: int
    lam: float
    w: np.ndarray

    def __post_init__(self):
        if not (self.T > 0):
            raise ConfigurationError(f"horizon T must be positive, got {self.T}")
        if self.M < 1:
            raise ConfigurationError(f"steps M must be >= 1, got {self.M}")
        if self.lam == 0:
            raise ConfigurationError("rate lam must be nonzero")
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    @property
    def direction(self) -> int:
        """Forward (+1) for positive rates, backward (-1) for negative."""
        return 1 if self.lam > 0 else -1

    @property
    def dt(self) -> float:
        return self.T / self.M


def mode_kernel_select(lin: LinearizationInfo, lam: float, T: float = 10.0,
                       M: int = 2000) -> PathIntegralConfig:
    """Pick the eigenpair matching ``lam`` and derive the integration direction."""
    lam_exact, w = lin.eigenpair(lam, tol=1e-9)
    return PathIntegralConfig(T=T, M=M, lam=lam_exact, w=w)


@dataclass(frozen=True)
class XiEvaluator:
    """Bound system + linearization + path-integral plan, ready to evaluate."""

    system: SystemDef
    lin: LinearizationInfo
    config: PathIntegralConfig

    def __post_init__(self):
        if self.system.equilibrium is None:
            raise ConfigurationError(
                f"system {self.system.name!r} has no equilibrium; "
                "characteristic coordinates need one"
            )

    def __call__(self, x):
        return xi_values(self, x)


def make_evaluator(sys: SystemDef, lin: LinearizationInfo, lam: float,
                   T: float, M: int) -> XiEvaluator:
    return XiEvaluator(sys, lin, mode_kernel_select(lin, lam, T=T, M=M))


def xi_values(ev: XiEvaluator, X) -> np.ndarray:
    """Evaluate the coordinate on a batch of states, shape (..., dim) -> (...)."""
    cfg = ev.config
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    pts = X[None, :] if squeeze else X.reshape(-1, X.shape[-1])
    eq = ev.system.equilibrium
    wE = cfg.w @ ev.lin.jacobian
    decay = abs(cfg.lam)  # lam * d: the weight decays in either direction
    q = np.zeros(pts.shape[0])

    def accumulate(k, ys, ks):
        g = [kk @ cfg.w - (y - eq) @ wE for y, kk in zip(ys, ks)]
        t = k * cfg.dt
        e0, eh, e1 = np.exp(-decay * np.array([t, t + 0.5 * cfg.dt, t + cfg.dt]))
        q[:] += (cfg.dt / 6.0) * (e0 * g[0] + 2.0 * eh * (g[1] + g[2]) + e1 * g[3])

    flow(ev.system, pts, IntegratorConfig(cfg.dt, cfg.M), direction=cfg.direction,
         on_step=accumulate)
    vals = (pts - eq) @ cfg.w + cfg.direction * q
    out = vals.reshape(X.shape[:-1])
    return float(out) if squeeze else out


def xi_truncated(ev: XiEvaluator, x) -> float:
    """Single-state convenience wrapper around :func:`xi_values`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("xi_truncated expects a single state vector")
    return float(xi_values(ev, x))


def _xi_grad_fd(ev: XiEvaluator, x, h: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    probes = np.repeat(x[None, :], 2 * x.size, axis=0)
    for j in range(x.size):
        probes[2 * j, j] += h
        probes[2 * j + 1, j] -= h
    vals = xi_values(ev, probes)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def koopman_residual_T(ev: XiEvaluator, x, fd_step: float = 1e-5) -> float:
    """Pointwise transport defect f(x) . grad xi(x) - lam xi(x).

    The gradient comes from central differences of the coordinate itself,
    so this measures what an RKHS solver would see: how far the truncated
    coordinate is from satisfying the rate equation at x.
    """
    x = np.asarray(x, dtype=float)
    g = _xi_grad_fd(ev, x, fd_step)
    fx = eval_field(ev.system, x)
    return float(fx @ g - ev.config.lam * xi_values(ev, x))


def residual_values(ev: XiEvaluator, X, fd_step: float = 1e-5) -> np.ndarray:
    """Batched :func:`koopman_residual_T`: one stacked flow for all probes."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    probes = np.repeat(X[:, None, :], 2 * d, axis=1)
    for j in range(d):
        probes[:, 2 * j, j] += fd_step
        probes[:, 2 * j + 1, j] -= fd_step
    vals = xi_values(ev, probes.reshape(-1, d)).reshape(n, 2 * d)
    grads = (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * fd_step)
    F = eval_field(ev.system, X)
    return np.sum(F * grads, axis=1) - ev.config.lam * xi_values(ev, X)


def theoretical_residual(ev: XiEvaluator, x) -> float:
    """Closed-form value of the transport defect at finite horizon.

    Differentiating the identity xi_T = e^{-lam d T} w^T s_{dT}(x) along the
    field gives exactly e^{-lam d T} w^T fnl(s_{dT}(x)); the finite-difference
    residual in :func:`koopman_residual_T` converges to this as the step and
    quadrature errors vanish.
    """
    cfg = ev.config
    d = cfg.direction
    x = np.asarray(x, dtype=float)
    traj = flow(ev.system, x, IntegratorConfig(cfg.dt, cfg.M), direction=d)
    fnl = nonlinear_part(ev.system, ev.lin, traj.final)
    return float(np.exp(-cfg.lam * d * cfg.T) * (fnl @ cfg.w))


def rank_one_kernel(ev: XiEvaluator, fd_step: float = 1e-5) -> RankOneKernel:
    """Kernel K(x,y) = xi(x) xi(y), gradients by central differences."""
    return RankOneKernel(lambda X: xi_values(ev, X), fd_step=fd_step)


def combined_kernels(ev_pos: XiEvaluator, ev_neg: XiEvaluator, experimental: bool = False):
    """Combinations of the two mode kernels (sum / product of coordinates).

    These are exploratory constructions and are excluded from the verified
    surface of the library; pass ``experimental=True`` to acknowledge that.
    """
    if not experimental:
        raise ConfigurationError(
            "combined kernels are experimental; pass experimental=True to use them"
        )
    if ev_pos.config.lam <= 0 or ev_neg.config.lam >= 0:
        raise ConfigurationError("expected one positive-rate and one negative-rate evaluator")

    def k_sum(x, y):
        return xi_values(ev_pos, x) * xi_values(ev_pos, y) + xi_values(
            ev_neg, x
        ) * xi_values(ev_neg, y)

    def k_cross(x, y):
        return xi_values(ev_pos, x) * xi_values(ev_neg, y)

    return {"sum": k_sum, "cross": k_cross}
