"""Penalized kernel collocation for principal-eigenfunction recovery.

The eigenfunction is sought as phi(x) = sum_j alpha_j K(x, x_j).  The
coefficients minimize the mean-square PDE residual of f . grad(phi) =
lam * phi over the collocation points, plus a ridge term and a gradient
anchor at the equilibrium (pinning grad(phi) to the left eigenvector so
the zero function is excluded).  The objective is a strictly convex
quadratic, so the solve is one symmetric positive-definite factorization.
There is no boundary penalty: the eigenfunction blows up at the other
attractors, on or near the grid's edge, so pulling phi toward 0 there works
against the residual and the anchor (measured in README, "Command line").

``solve`` first runs a P-greedy pivoted Cholesky of the Gram matrix.  If the
largest remaining diagonal falls to N eps max diag within N // 16 steps, phi
is expanded on those r centers C in the Newton basis K(x, C) Lc^-T, with
K(C, C) = Lc Lc.T, and still collocated on all N points; the ridge
eta |beta|^2 is then eta times the squared RKHS norm of phi.  Otherwise phi
is expanded on all N points with the ridge eta |alpha|^2.  The cap bounds
the cost of giving up (0.05 s at N = 3721 on 2 cores, 0.15 s at N // 8), and
both bases use the normal equations: QR on the Newton basis cost 10 times
as much for the same error (README, "Known numerical limitations").

Both bases take one path.  ``residual_rows`` fills B = D - lam K and the
Gram matrix K together, one row panel of at most ``_PANEL_ENTRIES`` B and K
entries at a time, into two reused buffers.  Each panel, and the anchor
rows G0, is mapped by the basis: the identity on all points, and
P -> P Lc^-T on the centers.  scipy's BLAS adds the mapped panel's B.T B
to the normal matrix, in the Fortran order that LAPACK factors in place,
before the next panel is filled.  So a solve holds one
basis-sized square array, the normal matrix, which becomes its own Cholesky
factor, and one panel of B and K.  On the full basis that is 2.06 N^2
doubles under tracemalloc at N = 1681 (exponential kernel, two panels) and
1.30 N^2 or 137 MiB at N = 3721 (seven), where B held whole took 2.01 N^2
and B, K and the normal matrix 3.01 N^2; centers take one panel.  After the
factor the buffers still hold the last panel, whose rows give r = B coef
and phi = K coef; the earlier panels are filled again, a panel at a time.

One BLAS thread pool on the solve path: numpy and scipy each load their own
OpenBLAS, each with its own threads, and a large product on numpy's pool just
before scipy's Cholesky stalls the factor.  So every large matrix-vector
product here and in MKL goes through ``_matvec`` to scipy's BLAS, and
``_normal_equations`` keeps its anchor product below the size at which
OpenBLAS starts threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .dynamics import SystemDef, eval_field, linearize
from .errors import ConfigurationError, NumericalError
from .kernels import Kernel, _fill_rows

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
    """Weights of the ridge (eta) and of the gradient anchor (mu_grad).

    mu_grad must be positive: without the gradient anchor the zero
    function minimizes everything.
    """

    eta: float = 1e-8
    mu_grad: float = 1e4

    def __post_init__(self):
        for name in ("eta", "mu_grad"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
        if not self.mu_grad > 0:
            raise ConfigurationError("mu_grad must be > 0 (excludes the zero solution)")


@dataclass(frozen=True)
class CollocationProblem:
    system: SystemDef
    lam: float
    kernel: Kernel
    points: np.ndarray
    anchor_target: np.ndarray
    anchor_point: np.ndarray = field(init=False)    # the system's equilibrium
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
        if self.system.equilibrium is None:
            raise ConfigurationError("no equilibrium to anchor the gradient at")
        object.__setattr__(self, "anchor_point", np.asarray(self.system.equilibrium, dtype=float))

    @classmethod
    def for_eigenvalue(cls, system, lam, kernel, points, penalties=PenaltyConfig()):
        """Anchor target taken from the linearization's left eigenvector."""
        lin = linearize(system)
        lam_exact, w = lin.eigenpair(lam)
        return cls(system=system, lam=lam_exact, kernel=kernel, points=points,
                   anchor_target=w, penalties=penalties)


@dataclass(frozen=True)
class AssembledSystem:
    """Matrices of the quadratic objective: the residual rows and the anchor rows."""

    B: np.ndarray       # (N, M) PDE residual: B_ij = f(x_i).grad_x K(x_i,c_j) - lam K(x_i,c_j)
    G0: np.ndarray      # (dim, M) kernel gradients at the anchor


def _kernel_gradients(kernel: Kernel, x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """grad_x k(x, C[j]) at one point x as a (dim, M) array: the directional
    derivative along each axis, with x taken once per axis."""
    d = x.shape[0]
    return kernel.directional_pairwise(np.repeat(x[None, :], d, 0), np.eye(d), C)[1]


def residual_rows(kernel: Kernel, F: np.ndarray, lam: float, X: np.ndarray, C: np.ndarray):
    """A function of a row slice s, and of a memo shared with other kernels,
    giving (B[s], K[s]) of one kernel on the points X, with F = f(X), for the
    basis points C.  The one place B = D - lam K is formed: inside the block,
    so a fill that keeps only B holds no (N, M) Gram matrix."""
    block = kernel._block(X, C, F)

    def rows(s, memo=None):
        K, B = block(s, memo)
        B -= lam * K
        return B, K

    return rows


def assemble(problem: CollocationProblem, centers=None) -> AssembledSystem:
    """The objective's matrices for phi expanded on all points or on centers."""
    X = problem.points
    C = X if centers is None else X[centers]
    rows = residual_rows(problem.kernel, eval_field(problem.system, X), problem.lam, X, C)
    return AssembledSystem(_fill_rows(rows, np.empty((len(X), len(C))))[0],
                           _kernel_gradients(problem.kernel, problem.anchor_point, C))


@dataclass(frozen=True)
class Solution:
    alpha: np.ndarray               # coefficients on all N points, zero off the centers
    phi: np.ndarray                 # phi on the collocation points, K alpha
    problem: CollocationProblem
    residual_norm: float            # ||B alpha||_2 / sqrt(N)
    anchor_error: float
    derivative_at_anchor: np.ndarray
    rescale_factor: Optional[float] = None
    rmse_raw: Optional[float] = None
    rmse_rescaled: Optional[float] = None
    centers: Optional[np.ndarray] = None    # greedy center indices in pivot order; None: all points

    def __post_init__(self):
        vals = [self.residual_norm, self.anchor_error, *np.ravel(self.derivative_at_anchor)]
        vals += [v for v in (self.rescale_factor, self.rmse_raw, self.rmse_rescaled) if v is not None]
        if not np.all(np.isfinite(vals)):
            raise NumericalError("solution diagnostics contain non-finite values")

    @property
    def n_centers(self) -> int:
        """Basis size: r greedy centers, or N."""
        return len(self.alpha if self.centers is None else self.centers)


def _solve_spd(normal: Callable[[], np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """One in-place Cholesky solve of the lower triangle that normal() builds.
    A matrix that is not numerically positive definite is an error, not
    something to perturb; normal() rebuilds the consumed matrix to report it."""
    try:
        c = scipy.linalg.cho_factor(normal(), lower=True, overwrite_a=True, check_finite=False)
        return scipy.linalg.cho_solve(c, rhs, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        # the 2-norm condition number of a symmetric matrix, without an SVD,
        # and the numerical rank at numpy's matrix_rank cutoff n eps max|lam|
        mags = np.abs(np.linalg.eigvalsh(normal()))
        with np.errstate(divide="ignore"):
            cond = mags.max() / mags.min()
        n = mags.size
        rank = int(np.count_nonzero(mags > n * np.finfo(float).eps * mags.max()))
        raise NumericalError(
            f"normal equations not positive definite ({exc}; rank {rank} of {n}, "
            f"condition estimate {cond:.3e}); a larger eta keeps them definite"
        ) from exc


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x by scipy's BLAS, which builds and factors the normal matrix; a
    C-ordered A goes in as its Fortran-ordered transpose with trans=1, so
    f2py copies nothing, and the bits are those of numpy's A @ x.  With
    these products on numpy's pool, the MKL objective's Cholesky factors
    stalled (2 cores, 2 threads, one mkl_bank pass): one 441 x 441 factor
    per pass took 57-93 ms against 1.4-6 ms for the rest, and 961 x 961
    factors 12-151 ms; on one pool 1.5-6 ms and 8-10 ms."""
    if A.flags.f_contiguous:
        return scipy.linalg.blas.dgemv(1.0, A, x)
    return scipy.linalg.blas.dgemv(1.0, A.T, x, trans=1)


def _normal_equations(panels, eta: float, mu_grad: float, G0: np.ndarray) -> np.ndarray:
    """B.T B / n + eta I + mu_grad G0.T G0, accumulated in place in that
    order in the lower triangle of a Fortran-ordered array, which LAPACK
    factors as is.
    B comes as its row panels in order: SYRK forms the first panel's B.T B
    and adds each later one with beta = 1, so a single panel is B.T B."""
    syrk = scipy.linalg.blas.dsyrk
    A, n = None, 0
    for P in panels:
        if A is None:
            A = syrk(1.0, P.T, trans=0, lower=1)
        else:
            A = syrk(1.0, P.T, beta=1.0, c=A, trans=0, lower=1, overwrite_c=1)
        n += P.shape[0]
    A /= n
    A.flat[:: A.shape[0] + 1] += eta
    # 32 columns: no (N, N) temporary, and, by the one-pool rule, products too
    # small to wake numpy's BLAS threads before scipy's POTRF (256: +0.25 s
    # per N=3721 solve, 2 cores)
    P = mu_grad * G0.T
    for j in range(0, A.shape[1], 32):
        A[:, j:j + 32] += P @ G0[:, j:j + 32]
    return A


def normal_matrix(problem: CollocationProblem, asm: AssembledSystem) -> np.ndarray:
    """The normal-equation matrix of the quadratic objective."""
    pen = problem.penalties
    return _normal_equations([asm.B], pen.eta, pen.mu_grad, asm.G0)


# B and K entries per row panel, give or take a row: one panel while
# N <= 1448, two at N = 1681, seven at N = 3721, and one on r centers
# while N r <= 2^21.  At N = 3721 (exponential kernel, 2 cores, warm)
# 2^22 peaks at 1.30 N^2 doubles under tracemalloc for 1.23-1.32 s per solve,
# against 1.51 N^2 and 1.19-1.25 s for two B-only panels that refilled only
# the last panel's K, since the D rows of six panels are filled again for
# B coef; 2^21 (14 panels) gave 1.16 N^2 for 1.31-1.36 s.  2^23 would keep
# N = 1681 in one panel, at 3 N^2
_PANEL_ENTRIES = 1 << 22


def _panels(n: int, m: int):
    """At most count = ceil(2 n m / _PANEL_ENTRIES) equal row slices of an
    (n, m) pair B and K, of ceil(n / count) rows each (the last may be
    shorter), so a slice of both can exceed _PANEL_ENTRIES by less than one
    row of 2 m entries."""
    count = max(1, -(-2 * n * m // _PANEL_ENTRIES))
    size = max(1, -(-n // count))
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _panel_fill(rows, p: slice, *out):
    """Rows p of the matrices that the row function rows fills, written into
    the leading rows of out, with the row blocks of a fill from row p.start."""
    k = p.stop - p.start
    return _fill_rows(lambda s: rows(slice(p.start + s.start, min(p.start + s.stop, p.stop))),
                      *(M[:k] for M in out))


def _require_finite(*mats):
    # min and max propagate NaN, so no temporary the size of a matrix is made
    if not all(np.isfinite(M.min()) and np.isfinite(M.max()) for M in mats if M.size):
        raise NumericalError("assembled matrices contain non-finite entries")


def _reference_fit(phi: np.ndarray, points: np.ndarray, reference):
    """(c*, rescaled RMSE, raw RMSE) of phi against the reference eigenfunction
    on the points, or three Nones without a reference; reference is a
    callable or the values themselves."""
    if reference is None:
        return None, None, None
    ref = reference(points) if callable(reference) else np.asarray(reference, dtype=float)
    c_star, rmse_rescaled = rescale_rmse(phi, ref)
    return c_star, rmse_rescaled, float(np.sqrt(np.mean((phi - ref) ** 2)))


def _greedy_centers(kernel: Kernel, X: np.ndarray):
    """P-greedy pivoted Cholesky K ~ V.T V on X, V[k] the k-th Newton basis
    function: (V, pivots) once the largest remaining diagonal is at most
    n eps max diag, or None after n // 16 steps or at a negative pivot."""
    n = X.shape[0]
    diag, column = kernel.gram_columns(X)
    diag = np.array(diag, dtype=float)
    tol = n * np.finfo(float).eps * np.abs(diag).max()
    cap = n // 16
    V, pivots = np.empty((cap, n)), []
    for k in range(cap + 1):
        p = int(np.argmax(np.abs(diag)))
        if abs(diag[p]) <= tol:
            return (V[:k], pivots) if k else None
        if k == cap or diag[p] < 0:
            return None
        pivots.append(p)
        V[k] = (column(p) - V[:k, p] @ V[:k]) / np.sqrt(diag[p])
        diag -= V[k] * V[k]


def solve(problem: CollocationProblem, reference: Optional[Callable] = None) -> Solution:
    """Minimize the penalized residual objective.

    reference: optional callable giving exact eigenfunction values on the
    collocation points; fills the RMSE diagnostics.
    """
    X, pen, w = problem.points, problem.penalties, problem.anchor_target
    n = len(X)
    greedy = _greedy_centers(problem.kernel, X)
    if greedy is None:
        centers, C = None, X

        def basis(M):
            return M
    else:
        # Newton basis K(x, C) Lc^-T, with K(C, C) = Lc Lc.T: B's panels and
        # G0 are mapped by the same triangular factor
        centers = np.array(greedy[1])
        C, Lc = X[centers], greedy[0][:, centers].T

        def basis(M):
            return scipy.linalg.solve_triangular(Lc, M.T, lower=True).T

    G0 = _kernel_gradients(problem.kernel, problem.anchor_point, C)
    _require_finite(G0)
    G0b = basis(G0)
    rows = residual_rows(problem.kernel, eval_field(problem.system, X), problem.lam, X, C)
    panels = _panels(n, len(C))
    Bbuf, Kbuf = np.empty((panels[0].stop, len(C))), np.empty((panels[0].stop, len(C)))

    def mapped_panels():
        for p in panels:
            B = _panel_fill(rows, p, Bbuf, Kbuf)[0]
            _require_finite(B)
            yield basis(B)

    beta = _solve_spd(lambda: _normal_equations(mapped_panels(), pen.eta, pen.mu_grad, G0b),
                      pen.mu_grad * G0b.T @ w)
    if centers is None:
        coef = alpha = beta
    else:
        coef = scipy.linalg.solve_triangular(Lc, beta, lower=True, trans="T")
        alpha = np.zeros(n)
        alpha[centers] = coef
    # r = B coef and phi = K coef: the buffers still hold the last panel,
    # and the earlier panels are filled again
    r, phi, last = np.empty(n), np.empty(n), panels[-1]
    k = last.stop - last.start
    r[last], phi[last] = _matvec(Bbuf[:k], coef), _matvec(Kbuf[:k], coef)
    for p in panels[:-1]:
        B, K = _panel_fill(rows, p, Bbuf, Kbuf)
        r[p], phi[p] = _matvec(B, coef), _matvec(K, coef)
    deriv = G0 @ coef
    c_star, rmse_rescaled, rmse_raw = _reference_fit(phi, X, reference)
    return Solution(
        alpha=alpha,
        phi=phi,
        problem=problem,
        residual_norm=float(np.linalg.norm(r) / np.sqrt(n)),
        anchor_error=float(np.linalg.norm(deriv - w)),
        derivative_at_anchor=deriv,
        rescale_factor=c_star,
        rmse_raw=rmse_raw,
        rmse_rescaled=rmse_rescaled,
        centers=centers,
    )


def _expansion(solution: Solution):
    """The basis points of phi and their coefficients: the centers, or all points."""
    X, alpha, centers = solution.problem.points, solution.alpha, solution.centers
    return (X, alpha) if centers is None else (X[centers], alpha[centers])


def evaluate(solution: Solution, probes) -> np.ndarray:
    """phi on probe points from the coefficient expansion."""
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    C, coef = _expansion(solution)
    return solution.problem.kernel.pairwise(P, C) @ coef


def gradient_at(solution: Solution, x) -> np.ndarray:
    C, coef = _expansion(solution)
    x = np.asarray(x, dtype=float).ravel()
    return _kernel_gradients(solution.problem.kernel, x, C) @ coef


def residual_field(solution: Solution, probes) -> np.ndarray:
    """Pointwise PDE residual f . grad(phi) - lam * phi on probes, as B @ coef."""
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    prob = solution.problem
    C, coef = _expansion(solution)
    rows = residual_rows(prob.kernel, eval_field(prob.system, P), prob.lam, P, C)
    return _fill_rows(rows, np.empty((len(P), len(C))))[0] @ coef


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
