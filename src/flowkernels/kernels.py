"""Base kernels with analytic first derivatives, and mixtures.

Each closed-form family defines its formula once, as a profile of
r^2 = ||x-y||^2 (radial) or of s = <x,y> (dot product).  Values, pairwise
matrices and the directional matrix D_ij = F_i . grad_x k(X_i, Y_j) all
come from it.  One row-block loop fills every kernel matrix, values and
directional alike, mixtures and multiple-kernel learning included: the
(N, M) results are allocated once and written a block of rows at a time,
so no fill builds an (N, M, d) array or any other (N, M) temporary.
A bank of kernels (a mixture's components, or MKL's base kernels) is
filled by one row function that shares work between its kernels: in each
row block every geometry (r^2 and x - y, or <x,y>) is computed once, and
each power (<x,y> + coef0)^k of the polynomial family once.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .dynamics import _CLOSED_FORMS, _value_and_grad
from .errors import ConfigurationError, count, positive

__all__ = [
    "Kernel",
    "RadialKernel",
    "DotProductKernel",
    "GaussianKernel",
    "ExponentialKernel",
    "CauchyKernel",
    "InverseQuadraticKernel",
    "TriangularKernel",
    "SigmoidKernel",
    "PolynomialKernel",
    "RankOneKernel",
    "KernelMixture",
    "make_kernel",
    "kernel_family_names",
]


def _as2d(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _pair(X, Y):
    X = _as2d(X)
    Y = X if Y is None else _as2d(Y)
    if X.shape[1] != Y.shape[1]:
        raise ConfigurationError(
            f"point sets have dimensions {X.shape[1]} and {Y.shape[1]}"
        )
    return X, Y


# Entries per row block of a pairwise matrix: block temporaries stay small
# enough to live in cache instead of streaming whole (N, M) arrays.
_BLOCK_ENTRIES = 1 << 14

def _fill_rows(block, *out):
    """The (n, m) matrices ``out``, with the k-th of them holding the k-th
    part of the row slices s that ``block(s)`` returns or yields (parts
    beyond len(out) are dropped), written a block of about _BLOCK_ENTRIES
    entries at a time."""
    n, m = out[0].shape
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    for start in range(0, n, rows):
        s = slice(start, start + rows)
        # `held` keeps the previous block's parts alive until this block's
        # are written, on purpose: with nothing held glibc trims the heap
        # top, which each block faults in again.  A generator (MKL's bank)
        # stays suspended at its last part, so all of its block stays
        # alive, its memo included.  Warm, best of 5 on 2 cores, 5 fresh
        # processes: MKL's 11-kernel bank at N=961 0.15-0.16 s and 1.3k
        # minor faults, 0.18-0.24 s and 18.6-19.9k without `held`; the
        # exponential kernel at N=3721, directional_pairwise 0.25-0.27 s and
        # 1.2-1.7k, full-basis assemble 0.24-0.25 s and 0.6-0.7k, against
        # 0.38-0.41 s and 49-50k for either with nothing held
        parts = block(s)
        for matrix, part in zip(out, parts):
            matrix[s] = part
        held = parts
    return out


def _memo(memo, key, make):
    """memo[key], made by make() on first use."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _bank_rows(kernels, X, Y, F=None):
    """A function of a row slice s yielding each kernel's parts, (K[s],) or
    (K[s], D[s]) given directions F, one kernel at a time in bank order.

    The kernels' blocks share one memo per slice, so each geometry and each
    polynomial power is computed once per slice whatever the number of
    kernels using it, with the bits of each kernel's own fill.  A K part
    may be a memo array that serves a later kernel too, so it is read-only;
    D parts are new arrays.
    """
    blocks = [k._block(X, Y, F) for k in kernels]

    def rows(s, memo=None):
        memo = {} if memo is None else memo
        for block in blocks:
            yield block(s, memo)

    return rows


def _bank_sum(weights, parts):
    """sum_l weights[l] * parts[l], accumulated in bank order from 0; every
    mixture matrix is summed this way, so they agree bit for bit."""
    acc = 0
    for b, part in zip(weights, parts):
        acc = acc + b * part
    return acc


def _contract(F, slab, dim):
    """sum_j F[:, j] * slab(j), accumulated in dimension order."""
    D = F[:, 0, None] * slab(0)
    for j in range(1, dim):
        D += F[:, j, None] * slab(j)
    return D


class Kernel:
    """Interface: symmetric k(x, y) with gradient in the first argument.
    Subclasses give ``eval`` and ``_block(X, Y, F=None)``, a function of a
    row slice s returning (K[s],), or (K[s], D[s]) given directions F; its
    optional second argument is the slice's memo shared between kernels."""

    family: str = "abstract"

    def __init__(self, **params):
        self.params = params

    def eval(self, x, y):
        raise NotImplementedError

    # pairwise helpers -------------------------------------------------------

    def pairwise(self, X, Y=None):
        """Matrix k(X[i], Y[j]); Y defaults to X."""
        X, Y = _pair(X, Y)
        return _fill_rows(self._block(X, Y), np.empty((len(X), len(Y))))[0]

    def gram_columns(self, X):
        """The diagonal k(X[i], X[i]) and a function of i giving k(X, X[i])."""
        X = _as2d(X)
        return self.eval(X, X), lambda i: self.pairwise(X, X[i:i + 1])[:, 0]

    def directional_pairwise(self, X, F, Y=None):
        """K_ij = k(X[i], Y[j]) and D_ij = F[i] . grad_x k(X[i], Y[j]).

        F holds one direction per row of X, shape (n, d); both results
        are (n, m), written one block of rows at a time.
        """
        X, Y = _pair(X, Y)
        shape = (len(X), len(Y))
        return _fill_rows(self._block(X, Y, F), np.empty(shape), np.empty(shape))

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


class _ProfileKernel(Kernel):
    """Closed-form family: ``_parts(x, y, memo)`` returns the values and a
    function of j giving the j-th gradient component, on broadcast
    (..., d) arrays; everything else is derived from it.  It applies the
    profile to its class's ``_geometry(x, y)``, taken from the memo that
    kernels on the same x and y share.  The profile's derivative factor is
    a function, called once at the first component asked for, so a
    values-only fill never computes it."""

    def eval(self, x, y):
        return self._parts(np.asarray(x, dtype=float), np.asarray(y, dtype=float), {})[0]

    def _block(self, X, Y, F=None):
        def block(s, memo=None):
            K, slab = self._parts(X[s, None, :], Y[None, :, :], {} if memo is None else memo)
            return (K,) if F is None else (K, _contract(F[s], slab, X.shape[1]))

        return block


class RadialKernel(_ProfileKernel):
    """k(x, y) as a function of r^2 = ||x - y||^2.

    ``profile(r2)`` returns (value, scale, coef) with gradient component
    grad_j = (scale * d_j) * coef(), d_j = x_j - y_j.
    """

    @staticmethod
    def _geometry(x, y):
        d = [x[..., j] - y[..., j] for j in range(x.shape[-1])]
        r2 = d[0] * d[0]
        for dj in d[1:]:
            r2 = r2 + dj * dj
        return d, r2

    def _parts(self, x, y, memo):
        d, r2 = _memo(memo, RadialKernel, lambda: self._geometry(x, y))
        value, scale, coef = self.profile(r2)
        coef = functools.cache(coef)
        return value, lambda j: (scale * d[j]) * coef()


class DotProductKernel(_ProfileKernel):
    """k(x, y) as a function of s = <x, y>.

    ``profile(s, memo)`` returns (value, c) with gradient component
    grad_j = c() * y_j; ``memo`` holds arrays derived from s that kernels
    on the same x and y share.
    """

    @staticmethod
    def _geometry(x, y):
        s = x[..., 0] * y[..., 0]
        for j in range(1, x.shape[-1]):
            s = s + x[..., j] * y[..., j]
        return s

    def _parts(self, x, y, memo):
        s = _memo(memo, DotProductKernel, lambda: self._geometry(x, y))
        value, c = self.profile(s, memo)
        c = functools.cache(c)
        return value, lambda j: c() * y[..., j]


class GaussianKernel(RadialKernel):
    """k(x,y) = exp(-gamma ||x-y||^2); accepts gamma directly or a
    length-scale ell with gamma = 1/(2 ell^2)."""

    family = "gaussian"

    def __init__(self, gamma: float | None = None, ell: float | None = None):
        if (gamma is None) == (ell is None):
            raise ConfigurationError("gaussian kernel needs exactly one of gamma, ell")
        if ell is not None:
            ell = positive("ell", ell)
            gamma = 1.0 / (2.0 * ell * ell)
        super().__init__(gamma=positive("gamma", gamma), ell=ell)
        self.gamma = float(gamma)

    def profile(self, r2):
        k = np.exp(-self.gamma * r2)
        return k, -2.0 * self.gamma, lambda: k


class ExponentialKernel(RadialKernel):
    """k(x,y) = exp(-gamma ||x-y||).  Also registered as "laplacian";
    the two names share this one formula.  The gradient is 0 on the
    diagonal, where the kernel has its kink."""

    family = "exponential"

    def __init__(self, gamma: float = 1.0):
        super().__init__(gamma=positive("gamma", gamma))
        self.gamma = float(gamma)

    def profile(self, r2):
        r = np.sqrt(r2)
        k = np.exp(-self.gamma * r)
        return k, 1.0, lambda: np.where(r > 0, -self.gamma * k / np.where(r > 0, r, 1.0), 0.0)


class CauchyKernel(RadialKernel):
    """k(x,y) = 1 / (1 + ||x-y||^2 / gamma^2)  (Cauchy-distribution scale)."""

    family = "cauchy"

    def __init__(self, gamma: float = 1.0):
        super().__init__(gamma=positive("gamma", gamma))
        self.gamma = float(gamma)

    def profile(self, r2):
        k = 1.0 / (1.0 + r2 / self.gamma ** 2)
        return k, -2.0 / self.gamma ** 2, lambda: k * k


class InverseQuadraticKernel(RadialKernel):
    """k(x,y) = 1 / (1 + gamma ||x-y||^2); coincides with cauchy at gamma=1."""

    family = "inverse_quadratic"

    def __init__(self, gamma: float = 1.0):
        super().__init__(gamma=positive("gamma", gamma))
        self.gamma = float(gamma)

    def profile(self, r2):
        k = 1.0 / (1.0 + self.gamma * r2)
        return k, -2.0 * self.gamma, lambda: k * k


class TriangularKernel(RadialKernel):
    """Compactly supported cone k(x,y) = max(0, 1 - ||x-y|| / sigma).

    Positive semidefinite on the line but not in general dimension.  At the
    support edge ||x-y|| = sigma the gradient is the one-sided limit from
    inside the support; on the diagonal it is 0.
    """

    family = "triangular"

    def __init__(self, sigma: float = 1.0):
        super().__init__(sigma=positive("sigma", sigma))
        self.sigma = float(sigma)

    def profile(self, r2):
        r = np.sqrt(r2)

        def slope():
            inside = (r <= self.sigma) & (r > 0)
            return np.where(inside, -1.0 / (self.sigma * np.where(r > 0, r, 1.0)), 0.0)

        return np.maximum(0.0, 1.0 - r / self.sigma), 1.0, slope


class SigmoidKernel(DotProductKernel):
    """k(x,y) = tanh(gamma <x,y> + coef0); indefinite, admitted anyway."""

    family = "sigmoid"

    def __init__(self, gamma: float = 1.0, coef0: float = 0.0):
        if not np.isfinite(coef0):
            raise ConfigurationError(f"coef0 must be finite, got {coef0}")
        super().__init__(gamma=positive("gamma", gamma), coef0=float(coef0))
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def profile(self, s, memo):
        k = np.tanh(self.gamma * s + self.coef0)
        return k, lambda: self.gamma * (1.0 - k * k)


class PolynomialKernel(DotProductKernel):
    """k(x,y) = (<x,y> + coef0)^degree."""

    family = "polynomial"

    def __init__(self, degree: int = 2, coef0: float = 1.0):
        degree = count("degree", degree, 1)
        if not 0 <= coef0 < np.inf:
            raise ConfigurationError(f"coef0 must be nonnegative and finite, got {coef0}")
        if degree > 6:
            warnings.warn(
                f"polynomial degree {degree} is outside the tested range 2..6",
                stacklevel=2,
            )
        super().__init__(degree=degree, coef0=float(coef0))
        self.degree = degree
        self.coef0 = float(coef0)

    def profile(self, s, memo):
        # b and each b ** k once per (coef0, k) in the memo: degree d's
        # derivative factor is degree d - 1's value.  Powers stay numpy's
        # b ** k: repeated products round differently in degrees 3 to 6.
        b = _memo(memo, self.coef0, lambda: s + self.coef0)

        def power(k):
            return _memo(memo, (self.coef0, k), lambda: b ** k)

        return power(self.degree), lambda: self.degree * power(self.degree - 1)


class RankOneKernel(Kernel):
    """k(x,y) = xi(x) xi(y) for a scalar function xi of the state.

    The gradient is the complex-step derivative: one call of xi on the
    d N complex states x + ih e_j.  So xi must be vectorized over (n, d)
    arrays, keep complex states complex and be complex-analytic; a xi that
    returns real values for complex states is a ``ConfigurationError``.
    """

    family = "rank_one"

    def __init__(self, xi):
        super().__init__()
        self.xi = xi

    def eval(self, x, y):
        return np.asarray(self.xi(np.asarray(x, dtype=float))) * np.asarray(
            self.xi(np.asarray(y, dtype=float))
        )

    def gram_columns(self, X):
        v = np.asarray(self.xi(_as2d(X)))   # xi once for the diagonal and every column
        return v * v, lambda i: v * v[i]

    def _block(self, X, Y, F=None):
        # xi, and its gradient only given directions, once for all blocks;
        # the values come from a real call, so they keep the bits of a
        # values-only fill; xi(X) serves Y when Y is X
        xi_x = np.asarray(self.xi(X))
        if F is not None:
            g = _value_and_grad(self.xi, X)[1]
        xi_y = xi_x if Y is X else np.asarray(self.xi(Y))

        def block(s, memo=None):
            K = np.outer(xi_x[s], xi_y)
            if F is None:
                return (K,)
            return K, _contract(F[s], lambda j: xi_y * g[s, j, None], X.shape[1])

        return block


class KernelMixture(Kernel):
    """Convex combination sum_l beta_l k_l with beta on the simplex."""

    family = "mixture"

    def __init__(self, components, weights):
        beta = np.asarray(weights, dtype=float)
        if len(components) != beta.size:
            raise ConfigurationError("weights and components must match in length")
        if not np.all(beta >= 0):
            raise ConfigurationError("mixture weights must be nonnegative")
        if not abs(beta.sum() - 1.0) <= 1e-12:
            raise ConfigurationError(
                f"mixture weights must sum to 1 within 1e-12, got {beta.sum()!r}"
            )
        super().__init__(weights=tuple(beta))
        self.components = list(components)
        self.weights = beta

    def eval(self, x, y):
        return _bank_sum(self.weights, (c.eval(x, y) for c in self.components))

    def _block(self, X, Y, F=None):
        rows = _bank_rows(self.components, X, Y, F)

        def block(s, memo=None):
            # the components' K rows, and their D rows, each summed as _bank_sum does
            acc = (0, 0)
            for b, parts in zip(self.weights, rows(s, memo)):
                acc = tuple(a + b * part for a, part in zip(acc, parts))
            return acc

        return block


def _singular_1d() -> RankOneKernel:
    """Rank-one kernel p(x) p(y) on (-1, 1), with p(x) = x / sqrt(1 - x^2)
    the closed-form eigenfunction of cubic1d at rate 1.

    The factor blows up at the interval ends, which is exactly the point:
    it spans functions with the boundary growth that bounded smooth kernels
    cannot reach.
    """

    def p(x):
        if x.shape[-1:] != (1,):
            raise ConfigurationError(
                f"singular_1d kernel takes 1-D points, got shape {x.shape}"
            )
        bad = np.flatnonzero(~(np.abs(x[..., 0]) < 1.0))
        if bad.size:
            raise ConfigurationError(f"singular_1d kernel is defined on |x| < 1 only: "
                                     f"point index {bad[0]}, x={x.reshape(-1, 1)[bad[0]]}")
        return _CLOSED_FORMS["cubic1d", 1.0](x)

    kernel = RankOneKernel(p)
    kernel.family = "singular_1d"
    return kernel


_FAMILIES = {
    "gaussian": GaussianKernel,
    "rbf": GaussianKernel,
    "exponential": ExponentialKernel,
    "laplacian": ExponentialKernel,
    "cauchy": CauchyKernel,
    "inverse_quadratic": InverseQuadraticKernel,
    "triangular": TriangularKernel,
    "sigmoid": SigmoidKernel,
    "polynomial": PolynomialKernel,
    "singular_1d": _singular_1d,
}


def kernel_family_names() -> list[str]:
    return sorted(set(_FAMILIES) - {"rbf", "laplacian"})


def make_kernel(family: str, **hyper) -> Kernel:
    """Construct a kernel by family tag, e.g. make_kernel("gaussian", gamma=1)."""
    fam = family.strip().lower()
    if fam not in _FAMILIES:
        raise ConfigurationError(
            f"unknown kernel family {family!r}; available: {', '.join(kernel_family_names())}"
        )
    try:
        return _FAMILIES[fam](**hyper)
    except TypeError as exc:
        raise ConfigurationError(f"bad arguments for kernel {fam!r}: {exc}") from exc
