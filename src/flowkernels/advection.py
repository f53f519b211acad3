"""Green's-function and resolvent kernels for constant-speed transport.

For the operator c d/dx + lam on an interval, both the causal Green's
function and the Laplace-transform (resolvent) kernel have closed forms
along the straight characteristics x + c t.  Symmetrizing either one
against a weight yields a positive kernel, and for unit speed and weight
both symmetrizations collapse (up to one positive scalar) onto the
exponential kernel e^{-lam |x-y|} / (2 lam).  This module computes all
three and reports how far apart they land numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = [
    "AdvectionProblem",
    "QuadratureRule",
    "green_advection",
    "resolvent_kernel_advection",
    "symmetrized_kernel",
    "symmetrized_resolvent",
    "analytic_exponential_kernel",
    "UnificationReport",
    "unification_check",
]


@dataclass(frozen=True)
class AdvectionProblem:
    """Transport at speed c with decay rate lam on the interval [a, b]."""

    c: float = 1.0
    lam: float = 1.0
    a: float = -30.0
    b: float = 30.0
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None  # default w == 1

    def __post_init__(self):
        if self.c == 0:
            raise ConfigurationError("advection speed c must be nonzero")
        if not (self.lam > 0):
            raise ConfigurationError(f"decay rate lam must be positive, got {self.lam}")
        if not (self.a < self.b):
            raise ConfigurationError(f"domain needs a < b, got [{self.a}, {self.b}]")

    def w(self, xi):
        if self.weight is None:
            return np.ones_like(np.asarray(xi, dtype=float))
        return np.asarray(self.weight(xi), dtype=float)


@dataclass(frozen=True)
class QuadratureRule:
    """Integration plan: composite trapezoid or Gauss-Legendre panels.

    ``n`` fixes the resolution on the full interval; sub-interval
    integrations reuse the same node density so the support clipping in
    the symmetrized kernels costs no accuracy.
    """

    a: float
    b: float
    n: int = 4001
    scheme: str = "trapezoid"

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("quadrature rule needs at least 2 nodes")
        if self.scheme not in ("trapezoid", "gauss_legendre"):
            raise ConfigurationError(f"unknown quadrature scheme {self.scheme!r}")
        if not (self.a < self.b):
            raise ConfigurationError("quadrature interval needs a < b")

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes_weights(self, lo: float, hi: float):
        """Nodes and weights for [lo, hi] at this rule's density."""
        if hi <= lo:
            return np.empty(0), np.empty(0)
        m = max(2, int(np.ceil((hi - lo) / self.spacing)) + 1)
        if self.scheme == "trapezoid":
            nodes = np.linspace(lo, hi, m)
            wts = np.full(m, nodes[1] - nodes[0])
            wts[0] *= 0.5
            wts[-1] *= 0.5
            return nodes, wts
        # four-point Gauss-Legendre panels
        gx, gw = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(lo, hi, m)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        wts = (half[:, None] * gw[None, :]).ravel()
        return nodes, wts


def green_advection(p: AdvectionProblem, x, xi):
    """Causal Green's function H(x - xi) exp(-(lam/c)(x - xi)), H(0) = 1."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    d = x - xi
    return np.where(d >= 0, np.exp(-(p.lam / p.c) * d), 0.0)


def resolvent_kernel_advection(p: AdvectionProblem, x, y, alpha: float):
    """Resolvent kernel along straight characteristics.

    The defining time integral collapses onto the single travel time
    t = (y - x)/c, leaving (1/|c|) e^{-alpha (y-x)/c} on the causal side
    (t >= 0) and zero behind.
    """
    if not (alpha > 0):
        raise ConfigurationError(f"resolvent rate alpha must be positive, got {alpha}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = (y - x) / p.c
    return np.where(t >= 0, np.exp(-alpha * t) / abs(p.c), 0.0)


def analytic_exponential_kernel(p: AdvectionProblem, x, y):
    """Closed form e^{-lam |x-y|} / (2 lam) the symmetrizations converge to
    (unit speed, unit weight, domain long enough)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-p.lam * np.abs(x - y)) / (2.0 * p.lam)


def symmetrized_kernel(p: AdvectionProblem, x: float, y: float, q: QuadratureRule) -> float:
    """K(x,y) = integral of G(x, xi) G(y, xi) w(xi) over the domain.

    The integrand lives on xi <= min(x, y); integrating exactly over that
    support (instead of sweeping dead nodes across the causality kink)
    keeps the trapezoid error at its smooth-integrand order.
    """
    hi = min(x, y)
    nodes, wts = q.nodes_weights(max(p.a, q.a), min(hi, p.b, q.b))
    if nodes.size == 0:
        return 0.0
    vals = green_advection(p, x, nodes) * green_advection(p, y, nodes) * p.w(nodes)
    return float(vals @ wts)


def symmetrized_resolvent(
    p: AdvectionProblem, x: float, y: float, q: QuadratureRule, alpha: float | None = None
) -> float:
    """Same symmetrization applied to the resolvent kernel (support xi >= max)."""
    alpha = p.lam if alpha is None else alpha
    lo = max(x, y)
    nodes, wts = q.nodes_weights(max(lo, p.a, q.a), min(p.b, q.b))
    if nodes.size == 0:
        return 0.0
    vals = (
        resolvent_kernel_advection(p, x, nodes, alpha)
        * resolvent_kernel_advection(p, y, nodes, alpha)
        * p.w(nodes)
    )
    return float(vals @ wts)


@dataclass(frozen=True)
class UnificationReport:
    """Pointwise values of the three kernels plus their disagreement."""

    x: np.ndarray
    y: np.ndarray
    K_green: np.ndarray
    K_analytic: np.ndarray
    K_resolvent_sym: np.ndarray
    rel_dev: np.ndarray
    scalar: float
    max_rel_dev: float = field(init=False)
    diag_dev: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_rel_dev", float(np.max(self.rel_dev)) if self.rel_dev.size else 0.0)
        object.__setattr__(self, "diag_dev", self._diag_dev())

    def _diag_dev(self) -> float:
        on_diag = self.x == self.y
        if not np.any(on_diag):
            return 0.0
        lamk = self.K_analytic[on_diag]  # analytic diagonal equals 1/(2 lam)
        return float(np.max(np.abs(self.K_green[on_diag] - lamk) / lamk))


def unification_check(p: AdvectionProblem, grid, q: QuadratureRule) -> UnificationReport:
    """Evaluate all three kernel constructions on grid x grid and compare.

    The resolvent symmetrization matches the other two only up to a positive
    scalar (1/c^2 analytically), so a least-squares scalar is fitted and
    reported rather than assumed.
    """
    g = np.asarray(grid, dtype=float).ravel()
    X, Y = np.meshgrid(g, g, indexing="ij")
    xs, ys = X.ravel(), Y.ravel()

    Kg = np.array([symmetrized_kernel(p, xi, yi, q) for xi, yi in zip(xs, ys)])
    Kr = np.array([symmetrized_resolvent(p, xi, yi, q) for xi, yi in zip(xs, ys)])
    Ka = analytic_exponential_kernel(p, xs, ys)

    denom = float(Kr @ Kr)
    scalar = float(Kr @ Ka) / denom if denom > 0 else 1.0
    if not np.isfinite(scalar) or scalar <= 0 or not np.all(np.isfinite(Kg)):
        raise NumericalError("unification comparison produced non-finite values")

    floor = np.maximum(np.abs(Ka), 1e-300)
    dev_g = np.abs(Kg - Ka) / floor
    dev_r = np.abs(scalar * Kr - Ka) / floor
    rel = np.maximum(dev_g, dev_r)
    if not np.all(np.isfinite(rel)):
        raise NumericalError("unification comparison produced non-finite deviations")
    return UnificationReport(
        x=xs, y=ys, K_green=Kg, K_analytic=Ka, K_resolvent_sym=Kr,
        rel_dev=rel, scalar=scalar,
    )
