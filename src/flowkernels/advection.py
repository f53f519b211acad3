"""Green's-function and resolvent kernels for constant-speed transport.

For the operator c d/dx + lam on an interval, both the causal Green's
function and the Laplace-transform (resolvent) kernel have closed forms
along the straight characteristics x + c t, c > 0.  Symmetrizing either
one (integrating the product of two copies over the domain) yields a
positive kernel.  On a long enough domain the Green's-function one is the
exponential kernel (c / (2 lam)) e^{-lam |x-y| / c}, and the resolvent one
is the same kernel divided by c^2.  This module computes all three and
reports how far apart they land numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, count, positive

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

    def __post_init__(self):
        object.__setattr__(self, "c", positive("advection speed c", self.c))
        object.__setattr__(self, "lam", positive("decay rate lam", self.lam))
        if not (self.a < self.b):
            raise ConfigurationError(f"domain needs a < b, got [{self.a}, {self.b}]")


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
        object.__setattr__(self, "n", count("quadrature rule n", self.n, 2))
        if self.scheme not in ("trapezoid", "gauss_legendre"):
            raise ConfigurationError(f"unknown quadrature scheme {self.scheme!r}")
        if not -np.inf < self.a < self.b < np.inf:
            raise ConfigurationError("quadrature interval needs finite a < b")

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes_weights(self, lo: float, hi: float):
        """Nodes and weights for [lo, hi] clipped to [a, b], at this rule's density."""
        lo, hi = max(lo, self.a), min(hi, self.b)
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


def resolvent_kernel_advection(p: AdvectionProblem, x, y):
    """Resolvent kernel at rate lam along straight characteristics.

    The defining time integral collapses onto the single travel time
    t = (y - x)/c, leaving (1/c) e^{-lam (y-x)/c} on the causal side
    (t >= 0) and zero behind.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = (y - x) / p.c
    return np.where(t >= 0, np.exp(-p.lam * t) / p.c, 0.0)


def analytic_exponential_kernel(p: AdvectionProblem, x, y):
    """Closed form (c / (2 lam)) e^{-lam |x-y| / c} the Green's-function
    symmetrization converges to (domain long enough)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return p.c * np.exp(-p.lam * np.abs(x - y) / p.c) / (2.0 * p.lam)


def _symmetrized_rows(p, q, k, x, ys, lo, hi) -> np.ndarray:
    """Integral of k(x, xi) k(y, xi) over the shared support [lo, hi] for
    every y in ys.  Integrating exactly over the support (clipped to domain
    and rule) keeps the trapezoid error at its smooth-integrand order.  All
    pairs share one node set and each is its own 1-D dot, so a pair gets
    the same bits as when integrated alone."""
    ys = np.asarray(ys, dtype=float)
    if not (np.isfinite(x) and np.all(np.isfinite(ys))):
        raise ConfigurationError(f"kernel arguments must be finite, got x={x}, y={ys}")
    nodes, wts = q.nodes_weights(max(lo, p.a), min(hi, p.b))
    rows = k(p, x, nodes) * k(p, ys[:, None], nodes)
    return np.array([row @ wts for row in rows])


def symmetrized_kernel(p: AdvectionProblem, x: float, y: float, q: QuadratureRule) -> float:
    """K(x,y) = integral of G(x, xi) G(y, xi) over xi <= min(x, y)."""
    return float(_symmetrized_rows(p, q, green_advection, x, [y], -np.inf, min(x, y))[0])


def symmetrized_resolvent(p: AdvectionProblem, x: float, y: float, q: QuadratureRule) -> float:
    """The same symmetrization of the resolvent kernel, over xi >= max(x, y)."""
    return float(_symmetrized_rows(p, q, resolvent_kernel_advection, x, [y], max(x, y), np.inf)[0])


@dataclass(frozen=True)
class UnificationReport:
    """Pointwise values of the three kernels plus their disagreement.
    ``scalar`` (c^2 analytically) is the least-squares factor taking the
    resolvent symmetrization onto the closed form."""

    x: np.ndarray
    y: np.ndarray
    K_green: np.ndarray
    K_analytic: np.ndarray
    K_resolvent_sym: np.ndarray
    rel_dev: np.ndarray
    scalar: float
    max_rel_dev: float
    diag_dev: float   # Green vs closed form on x == y, where it is c/(2 lam)


def unification_check(p: AdvectionProblem, grid, q: QuadratureRule) -> UnificationReport:
    """Evaluate all three kernel constructions on grid x grid and compare.

    The resolvent symmetrization matches the other two only up to a positive
    scalar (c^2 analytically), so a least-squares scalar is fitted and
    reported rather than assumed.  A grid point x bounds the support of its
    Green pairs with y >= x and of its resolvent pairs with y <= x, so one
    node set per point and kernel fills both triangles.
    """
    g = np.asarray(grid, dtype=float).ravel()
    Kg, Kr = np.empty((g.size, g.size)), np.empty((g.size, g.size))
    for i, x in enumerate(g):
        up, down = g >= x, g <= x
        Kg[i, up] = Kg[up, i] = _symmetrized_rows(p, q, green_advection, x, g[up], -np.inf, x)
        Kr[i, down] = Kr[down, i] = _symmetrized_rows(
            p, q, resolvent_kernel_advection, x, g[down], x, np.inf)
    X, Y = np.meshgrid(g, g, indexing="ij")
    xs, ys, Kg, Kr = X.ravel(), Y.ravel(), Kg.ravel(), Kr.ravel()
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
    diag = xs == ys
    return UnificationReport(
        x=xs, y=ys, K_green=Kg, K_analytic=Ka, K_resolvent_sym=Kr,
        rel_dev=rel, scalar=scalar, max_rel_dev=float(np.max(rel, initial=0.0)),
        diag_dev=float(np.max(np.abs(Kg[diag] - Ka[diag]) / Ka[diag], initial=0.0)),
    )
