"""Discrete kernel eigendecompositions on weighted grids.

Three related facilities: a Nystrom-style Mercer decomposition of any
kernel (or precomputed Gram matrix) under a weighted discrete inner
product; a finite-rank check that a kernel assembled from orthonormal
eigenfunctions has unit eigenvalues; and a trajectory-integral check
that flowing an eigenfunction backward and integrating e^{-lam t}
against it reproduces the function divided by twice its rate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import IntegratorConfig, SystemDef, flow
from .errors import ConfigurationError, FlowEscapeError, NumericalError, count
from .kernels import Kernel

__all__ = [
    "MercerDecomposition",
    "mercer_decompose",
    "ModeCheckReport",
    "koopman_mode_check",
    "TrajectoryCheckReport",
    "trajectory_eigenrelation_check",
]


@dataclass(frozen=True)
class MercerDecomposition:
    """Eigenpairs of the weighted kernel operator on a grid.

    Modes are stored as columns, orthonormal under the weighted discrete
    inner product <u, v> = sum_i w_i u_i v_i.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    weights: np.ndarray
    indefinite: bool = False

    def reconstruction(self) -> np.ndarray:
        """Sum of mu_n psi_n psi_n^T over all kept modes."""
        return (self.modes * self.eigenvalues) @ self.modes.T


def _grid_weights(weights, n: int) -> np.ndarray:
    """Uniform 1/n weights, or the given ones: positive, finite, n of them."""
    if weights is None and n == 0:
        raise ConfigurationError("need weights or a nonempty grid")
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float).ravel()
    if w.shape != (n,) or not np.all((0 < w) & (w < np.inf)):
        raise ConfigurationError("weights must be positive, finite and match the grid size")
    return w


def mercer_decompose(kernel, grid=None, weights=None) -> MercerDecomposition:
    """Weighted discrete Mercer decomposition.

    kernel may be a Kernel, evaluated pairwise on grid (an (N, d) array,
    or N one-dimensional points), or a precomputed symmetric Gram matrix,
    which needs no grid.  Weights default to uniform 1/N.  Small
    negative eigenvalues (within 1e-8 of the top one, relatively) are
    clipped to zero; anything more negative marks the decomposition
    indefinite and raises a warning, since genuinely indefinite kernels
    are legitimate inputs here.  A non-finite entry is a NumericalError.
    """
    if isinstance(kernel, Kernel):
        if grid is None:
            raise ConfigurationError("grid required when a kernel object is passed")
        K = kernel.pairwise(grid)
    else:
        K = np.array(kernel, dtype=float)   # a copy: K is weighted in place below
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ConfigurationError("precomputed Gram matrix must be square")
    if not np.all(np.isfinite(K)):
        raise NumericalError("Gram matrix contains non-finite entries")
    n = K.shape[0]
    w = _grid_weights(weights, n)

    sw = np.sqrt(w)
    K *= sw[:, None]
    K *= sw
    K += K.T
    K *= 0.5
    mu, V = np.linalg.eigh(K)
    del K
    mu = mu[::-1].copy()

    top = mu[0] if n else 0.0
    indefinite = False
    if top > 0:
        bad = mu < -1e-4 * top
        if np.any(bad):
            indefinite = True
            warnings.warn(
                f"kernel is indefinite on this grid (most negative eigenvalue "
                f"{mu.min():.3e} vs top {top:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
        mu = np.where((mu < 0) & (mu >= -1e-8 * top), 0.0, mu)
    modes = V[:, ::-1] / sw[:, None]
    return MercerDecomposition(eigenvalues=mu, modes=modes, weights=w, indefinite=indefinite)


@dataclass(frozen=True)
class ModeCheckReport:
    m: int
    eigenvalues: np.ndarray
    spectrum_deviation: float   # max over |mu_i - 1| (i < m) and |mu_i| (i >= m)
    subspace_angle: float       # radians between Mercer modes and input span


def koopman_mode_check(eigenfunction_values, weights=None) -> ModeCheckReport:
    """Finite-rank spectrum test.

    Orthonormalizes the values under the weighted inner product (one QR in
    the sqrt(w) coordinates), forms the rank-m kernel sum of their outer
    products, and verifies its discrete Mercer spectrum is m ones then zeros.
    """
    vals = np.atleast_2d(np.asarray(eigenfunction_values, dtype=float))
    if vals.size == 0:
        vals = vals.reshape(0, 0 if weights is None else len(weights))
    m, n = vals.shape
    w = _grid_weights(weights, n)
    if m > n:
        raise ConfigurationError("more eigenfunctions than grid points")
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("eigenfunction values must be finite")

    sw = np.sqrt(w)[:, None]
    Q, R = np.linalg.qr(vals.T * sw)
    # |R_ii| is the w-norm of row i orthogonal to rows 0..i-1; flat when ~0
    flat = np.abs(np.diag(R)) <= 1e-10 * np.maximum(1.0, np.linalg.norm(R, axis=0))
    if np.any(flat):
        raise ConfigurationError("eigenfunction values are rank deficient on the grid "
                                 f"(row {np.argmax(flat)})")
    dec = mercer_decompose((Q / sw) @ (Q / sw).T, weights=w)
    mu = dec.eigenvalues
    dev = max(float(np.max(np.abs(mu[:m] - 1.0), initial=0.0)),
              float(np.max(np.abs(mu[m:]), initial=0.0)))

    # largest principal angle between the Mercer top-m modes and the input
    # span, via the projection residual (arcsin form stays accurate near 0,
    # where arccos of an overlap singular value loses half the digits)
    psi = sw * dec.modes[:, :m]
    resid = psi - Q @ (Q.T @ psi)
    s2 = np.linalg.eigvalsh(resid.T @ resid).max(initial=0.0)
    angle = float(np.arcsin(np.sqrt(min(s2, 1.0))))
    return ModeCheckReport(m=m, eigenvalues=mu, spectrum_deviation=dev, subspace_angle=angle)


@dataclass(frozen=True)
class TrajectoryCheckReport:
    max_deviation: float
    deviations: np.ndarray     # per included probe
    included: np.ndarray       # mask over probes
    lam: float
    T: float
    M: int


def trajectory_eigenrelation_check(
    system: SystemDef,
    phi: Callable,
    lam: float,
    probes,
    T: float,
    M: int,
    max_tail: float = 1e-8,
) -> TrajectoryCheckReport:
    """Checks 2*lam * integral_0^T e^{-lam t} phi(s_{-t}(x)) dt == phi(x).

    Valid for growing modes (lam > 0): the backward flow contracts the
    mode, so the integrand decays like e^{-2 lam t} and truncating at T
    leaves a tail of e^{-2 lam T}, required to sit below max_tail.
    Probes where |phi| < 1e-8 are excluded from the ratio.
    """
    if not lam > 0:
        raise ConfigurationError(f"relation requires a positive rate, got {lam}")
    M = count("M", M, 1)
    if not T > 0:
        raise ConfigurationError(f"need T > 0, got {T}")
    tail = np.exp(-2.0 * lam * T)
    if tail > max_tail:
        raise ConfigurationError(
            f"horizon too short: truncation tail {tail:.3e} exceeds {max_tail:.1e}"
        )
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    dt = T / M
    # half-step flow: the state reached after each even step k sits at the
    # midpoint time (k + 1) dt / 2
    cfg = IntegratorConfig(dt=0.5 * dt, M=2 * M)
    mids = []
    try:
        flow(system, P, cfg, direction="backward",
             on_step=lambda k, x: None if k % 2 else mids.append(x))
    except FlowEscapeError as exc:
        raise NumericalError(
            f"inconclusive: backward flow escaped at t={exc.escape_time:.3g}"
        ) from exc
    mids = np.stack(mids)                         # (M, P, dim)
    tmid = (np.arange(M) + 0.5) * dt
    vals = phi(mids.reshape(-1, P.shape[1])).reshape(M, -1)
    integral = dt * np.einsum("t,tp->p", np.exp(-lam * tmid), vals)

    phi0 = np.asarray(phi(P), dtype=float)
    included = np.abs(phi0) >= 1e-8
    if not np.any(included):
        raise NumericalError("inconclusive: every probe has |phi| below 1e-8")
    dev = np.abs(integral[included] * 2.0 * lam / phi0[included] - 1.0)
    return TrajectoryCheckReport(
        max_deviation=float(dev.max()), deviations=dev, included=included,
        lam=float(lam), T=float(T), M=M,
    )
