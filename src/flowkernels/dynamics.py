"""Vector fields, linearization data, and fixed-step flow maps.

Every construction downstream (collocation matrices, path-integral
coordinates, trajectory checks) consumes what is defined here: a
``SystemDef`` wrapping the right-hand side f, a ``LinearizationInfo``
holding the equilibrium Jacobian with its real simple spectrum and left
eigenvectors, and an RK4 flow map that returns the final states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    FlowEscapeError,
    NumericalError,
    UnknownEigenvalueError,
    UnsupportedSpectrumError,
    count,
    positive,
)

__all__ = [
    "SystemDef",
    "LinearizationInfo",
    "IntegratorConfig",
    "make_system",
    "builtin_system_names",
    "eval_field",
    "linearize",
    "nonlinear_part",
    "flow",
    "characteristic_identity_residual",
]

DEFAULT_ESCAPE_RADIUS = 1e6


@dataclass(frozen=True)
class SystemDef:
    """An autonomous ODE  x' = f(x), with its analytic Jacobian.

    ``f`` must be vectorized: it accepts arrays shaped (..., dim) and
    returns velocities of the same shape.  ``jacobian`` maps a single state
    (dim,) to the (dim, dim) matrix of partials; ``linearize`` needs it
    whenever the system has an equilibrium.
    """

    name: str
    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    equilibrium: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.equilibrium is not None:
            eq = np.asarray(self.equilibrium, dtype=float)
            if eq.shape != (self.dim,):
                raise ConfigurationError(
                    f"equilibrium must have shape ({self.dim},), got {eq.shape}"
                )
            object.__setattr__(self, "equilibrium", eq)


@dataclass(frozen=True)
class LinearizationInfo:
    """Equilibrium Jacobian E with sorted real spectrum and left eigenvectors.

    ``left_eigenvectors[i]`` satisfies  w_i^T E = eigenvalues[i] * w_i^T  and
    is scaled so its largest-magnitude component equals +1.
    """

    jacobian: np.ndarray
    eigenvalues: np.ndarray       # descending
    left_eigenvectors: np.ndarray  # row i pairs with eigenvalues[i]

    def eigenpair(self, lam: float, tol: float = 1e-9):
        """Return (eigenvalue, left eigenvector) matching ``lam`` within tol."""
        idx = np.argmin(np.abs(self.eigenvalues - lam))
        if not abs(self.eigenvalues[idx] - lam) <= tol:
            raise UnknownEigenvalueError(
                f"{lam} is not an eigenvalue of the linearization "
                f"(spectrum: {self.eigenvalues})"
            )
        return float(self.eigenvalues[idx]), self.left_eigenvectors[idx].copy()


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 plan: M substeps of size dt covering horizon T = M*dt."""

    dt: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "dt", positive("dt", self.dt))
        object.__setattr__(self, "M", count("M", self.M, 1))

    @property
    def T(self) -> float:
        return self.dt * self.M

    @classmethod
    def from_horizon(cls, T: float, M: int) -> "IntegratorConfig":
        return cls(dt=positive("horizon T", T) / count("M", M, 1), M=M)

    def linear_growth(self, rate: float) -> float:
        """R(rate dt)^M, the factor M ``_rk4_step`` calls multiply a solution of
        x' = rate x by: R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
        z = rate * self.dt
        return (1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0) ** self.M


# ----------------------------------------------------------------------------
# built-in systems
# ----------------------------------------------------------------------------

def _cubic1d() -> SystemDef:
    """Scalar x' = x - x^3: unstable origin, attracting states at +-1."""

    def f(x):
        return x - x ** 3

    def jac(x):
        return np.array([[1.0 - 3.0 * float(x[0]) ** 2]])

    return SystemDef("cubic1d", 1, f, jac, equilibrium=np.zeros(1))


def _poly2d() -> SystemDef:
    """Planar polynomial saddle with closed-form spectral coordinates.

    In the coordinates u = x1 - x2^2, v = x2 - u^2 the flow is diagonal,
    u' = -u and v' = 3v, which is what makes this system such a useful
    reference: u and v are exact invariant-pairing observables for the
    rates -1 and 3.
    """

    def f(x):
        x1, x2 = x[..., 0], x[..., 1]
        u = x1 - x2 ** 2
        f2 = 3.0 * x2 - 5.0 * u ** 2
        f1 = -x1 + x2 ** 2 + 2.0 * x2 * f2
        return np.stack([f1, f2], axis=-1)

    def jac(x):
        x1, x2 = float(x[0]), float(x[1])
        u = x1 - x2 ** 2
        df2 = np.array([-10.0 * u, 3.0 + 20.0 * u * x2])
        f2 = 3.0 * x2 - 5.0 * u ** 2
        df1 = np.array(
            [-1.0 + 2.0 * x2 * df2[0], 2.0 * x2 + 2.0 * f2 + 2.0 * x2 * df2[1]]
        )
        return np.array([df1, df2])

    return SystemDef("poly2d", 2, f, jac, equilibrium=np.zeros(2))


# Closed-form eigenfunctions of the built-ins that have one, keyed by
# (system name, rate); vectorized callables on (..., dim) arrays.
_CLOSED_FORMS = {
    ("cubic1d", 1.0): lambda x: x[..., 0] / np.sqrt(1.0 - x[..., 0] * x[..., 0]),
    ("poly2d", -1.0): lambda x: x[..., 0] - x[..., 1] ** 2,
    ("poly2d", 3.0): lambda x: x[..., 1] - (x[..., 0] - x[..., 1] ** 2) ** 2,
}


def poly2d_reference_eigenfunctions():
    """poly2d's closed forms keyed by rate, {-1.0: u, 3.0: v}, with
    u = x1 - x2^2 and v = x2 - u^2; the tests' exact oracle."""
    return {rate: fn for (name, rate), fn in _CLOSED_FORMS.items() if name == "poly2d"}


def _duffing(delta: float = 0.5, beta: float = -1.0, alpha: float = 1.0) -> SystemDef:
    """Duffing oscillator x'' + delta x' + beta x + alpha x^3 = 0.

    Default parameters give the twin-well configuration: saddle at the
    origin, attracting foci at (+-1, 0).
    """

    def f(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([x2, -delta * x2 - beta * x1 - alpha * x1 * x1 * x1], axis=-1)

    def jac(x):
        x1 = float(x[0])
        return np.array([[0.0, 1.0], [-beta - 3.0 * alpha * x1 ** 2, -delta]])

    return SystemDef(
        "duffing", 2, f, jac, equilibrium=np.zeros(2),
        params={"delta": delta, "beta": beta, "alpha": alpha},
    )


def _linear_test(a: float = -1.0, b: float = -2.0) -> SystemDef:
    """Diagonal linear system x' = diag(a, b) x; nonlinear part is zero."""

    def f(x):
        return np.stack([a * x[..., 0], b * x[..., 1]], axis=-1)

    def jac(x):
        return np.diag([a, b]).astype(float)

    return SystemDef(
        "linear_test", 2, f, jac, equilibrium=np.zeros(2), params={"a": a, "b": b}
    )


_BUILDERS: dict[str, Callable[..., SystemDef]] = {
    "cubic1d": _cubic1d,
    "poly2d": _poly2d,
    "duffing": _duffing,
    "linear_test": _linear_test,
}

_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def builtin_system_names() -> list[str]:
    return sorted(_BUILDERS)


def make_system(name: str) -> SystemDef:
    """Build a system from a registry name like ``"duffing"`` or
    ``"linear_test(1, -2)"``, whose parenthesized args go to the builder."""
    m = _NAME_RE.match(name)
    if not m:
        raise ConfigurationError(f"cannot parse system name {name!r}")
    base, argstr = m.group(1), m.group(2)
    if base not in _BUILDERS:
        raise ConfigurationError(
            f"unknown system {base!r}; available: {', '.join(builtin_system_names())}"
        )
    args = []
    if argstr:
        try:
            args = [float(tok) for tok in argstr.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"bad system arguments in {name!r}: {exc}") from exc
    try:
        return _BUILDERS[base](*args)
    except TypeError as exc:
        raise ConfigurationError(f"bad arguments for system {base!r}: {exc}") from exc


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def eval_field(sys: SystemDef, x: np.ndarray) -> np.ndarray:
    """Evaluate f(x); x may be a single state (dim,) or a batch (..., dim)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != sys.dim:
        raise DimensionMismatchError(
            f"state has dimension {x.shape[-1]}, system {sys.name!r} needs {sys.dim}"
        )
    return sys.f(x)


def linearize(sys: SystemDef) -> LinearizationInfo:
    """Jacobian at the equilibrium plus its real simple left eigensystem."""
    if sys.equilibrium is None:
        raise ConfigurationError(f"system {sys.name!r} has no equilibrium to linearize at")
    if sys.jacobian is None:
        raise ConfigurationError(f"system {sys.name!r} has no Jacobian to linearize with")
    E = np.asarray(sys.jacobian(sys.equilibrium), dtype=float)

    lams, wmat = np.linalg.eig(E.T)  # right eigenvectors of E^T = left of E
    if np.max(np.abs(lams.imag)) > 1e-10 * max(np.max(np.abs(lams)), 1.0):
        raise UnsupportedSpectrumError(
            f"complex eigenvalues {lams} are not supported; only simple real spectra"
        )
    lams = lams.real
    order = np.argsort(-lams)
    lams, wmat = lams[order], wmat.real[:, order]
    if sys.dim > 1 and np.min(np.abs(np.diff(np.sort(lams)))) < 1e-10 * max(
        np.max(np.abs(lams)), 1.0
    ):
        raise UnsupportedSpectrumError(
            f"repeated eigenvalues {lams} are not supported; only simple real spectra"
        )

    W = np.empty((sys.dim, sys.dim))
    for i in range(sys.dim):
        w = wmat[:, i]
        w = w / w[np.argmax(np.abs(w))]  # largest-magnitude component -> +1
        W[i] = w

    resid = np.max(np.abs(W @ E - lams[:, None] * W))
    scale = max(np.max(np.abs(E)), 1.0)
    if resid > 1e-10 * scale:
        raise NumericalError(
            f"left-eigenvector residual {resid:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return LinearizationInfo(jacobian=E, eigenvalues=lams, left_eigenvectors=W)


def nonlinear_part(sys: SystemDef, lin: LinearizationInfo, x: np.ndarray) -> np.ndarray:
    """f(x) minus its linearization E (x - x*); vanishes to second order at
    the equilibrium x*."""
    x = np.asarray(x, dtype=float)
    return eval_field(sys, x) - (x - sys.equilibrium) @ lin.jacobian.T


def _rk4_step(f, x, dt):
    """One RK4 step from x; returns the new state."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(
    sys: SystemDef,
    x0: np.ndarray,
    cfg: IntegratorConfig,
    direction: str | int = "forward",
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    on_step: Optional[Callable[[int, np.ndarray], None]] = None,
) -> np.ndarray:
    """Integrate x' = f(x) with fixed-step RK4 from one state or a batch
    and return the final state(s), shaped like ``x0``.

    ``direction`` is "forward"/+1 or "backward"/-1; backward integration
    simply runs the same scheme with negative steps.  If any state's sup-norm
    exceeds ``escape_radius`` the integration aborts with a
    ``FlowEscapeError`` carrying the first escape time.

    ``on_step(k, x)``, when given, is called after step k (0-based) with
    the state ``x`` it reached, at time (k + 1) dt.  No other states are
    kept.
    """
    d = {"forward": 1, "backward": -1, 1: 1, -1: -1}.get(direction)
    if d is None:
        raise ConfigurationError(f"direction must be forward/backward, got {direction!r}")
    x = np.asarray(x0, dtype=float)
    if x.shape[-1] != sys.dim:
        raise DimensionMismatchError(
            f"initial state dimension {x.shape[-1]} != system dimension {sys.dim}"
        )
    dt = d * cfg.dt
    for k in range(cfg.M):
        x = _rk4_step(sys.f, x, dt)
        if not np.max(np.abs(x), initial=0.0) <= escape_radius:
            raise FlowEscapeError(escape_time=(k + 1) * cfg.dt, radius=escape_radius)
        if on_step is not None:
            on_step(k, x)
    return x


def characteristic_identity_residual(
    sys: SystemDef,
    phi: Callable[[np.ndarray], float],
    lam: float,
    x0: np.ndarray,
    t: float,
    cfg: IntegratorConfig,
) -> float:
    """Transport defect |phi(s_t(x0)) - e^{lam t} phi(x0)| / max(1, |phi(x0)|).

    Zero (up to integrator error) exactly when phi pairs with rate lam
    along the flow; used as a cheap certificate for candidate observables.
    """
    if not np.isfinite(t):
        raise ConfigurationError(f"time t must be finite, got {t}")
    if t == 0:
        return 0.0
    M = max(1, int(round(abs(t) / cfg.dt)))
    sub = IntegratorConfig(dt=abs(t) / M, M=M)
    end = flow(sys, x0, sub, direction=1 if t > 0 else -1)
    p0 = float(np.asarray(phi(np.asarray(x0, dtype=float))))
    pt = float(np.asarray(phi(end)))
    return abs(pt - np.exp(lam * t) * p0) / max(1.0, abs(p0))
