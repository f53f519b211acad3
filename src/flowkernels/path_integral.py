"""Characteristic (path-integral) coordinates and their rank-one kernel.

The coordinate built here is

    xi_T(x) = w^T (x - x*) + d * int_0^T exp(-|lam| tau) w^T fnl(s_{d tau}(x)) dtau,

where w is a left eigenvector of the equilibrium Jacobian E paired with rate
lam, d = sign(lam) picks the integration direction (forward for unstable
rates, backward for stable ones, so the exponential weight always decays),
and fnl(y) = f(y) - E (y - x*) is the field minus its linearization.

The integrand times d is the exact derivative of
exp(-|lam| tau) w^T (s_{d tau}(x) - x*), so the integral telescopes to the
rescaled endpoint projection xi_T(x) = e^{-|lam| T} w^T (s_{dT}(x) - x*),
computed here from one RK4 flow of x to its endpoint.  The factor
e^{-|lam| T} is taken as 1 / ``plan.linear_growth(|lam|)``, the factor by
which the flow's own steps multiply w^T (x - x*) on a linear field, so
linear systems give xi_T = w^T (x - x*) to rounding, and the two factors
differ only at the flow's own order.

Its transport defect f . grad xi_T - lam xi_T is exactly the truncation
term e^{-|lam| T} w^T fnl(s_{dT}(x)); the residual helpers below measure it
at finite horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LinearizationInfo,
    SystemDef,
    _value_and_grad,
    eval_field,
    flow,
    nonlinear_part,
)
from .errors import ConfigurationError

__all__ = [
    "XiEvaluator",
    "xi_values",
    "residual_values",
    "theoretical_residual",
]


@dataclass(frozen=True, eq=False)
class XiEvaluator:
    """The coordinate for one rate of one system, ready to evaluate.

    ``lam`` is matched strictly against the spectrum of ``lin`` and replaced
    by the exact eigenvalue; ``w`` is its left eigenvector and ``plan`` the
    RK4 plan of M steps over the horizon T.  Calling the evaluator
    evaluates the coordinate, on real or complex states, so
    ``RankOneKernel(ev)`` is the rank-one kernel xi(x) xi(y) with
    complex-step gradients.  Evaluators compare and hash by identity.
    """

    system: SystemDef
    lin: LinearizationInfo
    lam: float
    T: float
    M: int
    w: np.ndarray = field(init=False)
    plan: IntegratorConfig = field(init=False)

    def __post_init__(self):
        if self.system.equilibrium is None:
            raise ConfigurationError(
                f"system {self.system.name!r} has no equilibrium; "
                "characteristic coordinates need one"
            )
        lam, w = self.lin.eigenpair(self.lam, tol=1e-9)
        if lam == 0:
            raise ConfigurationError("rate lam must be nonzero")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "plan", IntegratorConfig.from_horizon(self.T, self.M))

    @property
    def direction(self) -> int:
        """Forward (+1) for positive rates, backward (-1) for negative."""
        return 1 if self.lam > 0 else -1

    def __call__(self, x):
        return xi_values(self, x)


def xi_values(ev: XiEvaluator, X) -> np.ndarray:
    """Evaluate the coordinate on a batch of states, shape (..., dim) -> (...);
    a single state (dim,) gives a float.  Complex states stay complex."""
    X = np.asarray(X)
    end = flow(ev.system, X, ev.plan, direction=ev.direction)
    # an elementwise sum rounds a lone state as a batch row; @ would not
    out = ((end - ev.system.equilibrium) * ev.w).sum(axis=-1) / ev.plan.linear_growth(abs(ev.lam))
    return float(out) if X.ndim == 1 else out


def residual_values(ev: XiEvaluator, X):
    """The coordinate and its transport defect f(x) . grad xi(x) - lam xi(x)
    on a batch of states (n, dim), both shaped (n,), from one flow of the
    dim n complex-step probes x + ih e_j.

    The gradient is the complex-step derivative of the coordinate itself,
    exact to rounding, so the defect is what an RKHS solver would see: how
    far the truncated coordinate is from satisfying the rate equation at x.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    xi, grads = _value_and_grad(ev, X)
    F = eval_field(ev.system, X)
    return xi, np.sum(F * grads, axis=1) - ev.lam * xi


def theoretical_residual(ev: XiEvaluator, X) -> np.ndarray:
    """Closed-form value of the transport defect at finite horizon, on a
    batch of states (..., dim) -> (...); a single state gives a float.

    Differentiating the identity xi_T = e^{-lam d T} w^T s_{dT}(x) along the
    field gives exactly e^{-lam d T} w^T fnl(s_{dT}(x)); the residual of
    :func:`residual_values` converges to this as the flow's error vanishes.
    """
    X = np.asarray(X, dtype=float)
    end = flow(ev.system, X, ev.plan, direction=ev.direction)
    fnl = nonlinear_part(ev.system, ev.lin, end)
    out = np.exp(-ev.lam * ev.direction * ev.T) * (fnl * ev.w).sum(axis=-1)
    return float(out) if X.ndim == 1 else out
