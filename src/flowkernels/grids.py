"""Uniform tensor grids and boundary point selection for collocation."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, count

__all__ = ["tensor_grid", "boundary_sets"]


def tensor_grid(bounds, counts) -> np.ndarray:
    """Uniform grid on a box, returned as an (N, dim) point array.

    bounds: sequence of (lo, hi) per axis; counts: points per axis (>= 2).
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    counts = [count("grid count", n, 2) for n in np.ravel(np.asarray(counts, dtype=object))]
    if len(counts) == 1:
        counts *= bounds.shape[0]
    if bounds.shape[0] != len(counts) or bounds.shape[1] != 2:
        raise ConfigurationError("bounds must be (dim, 2) and counts per-axis")
    if not (np.all(np.isfinite(bounds)) and np.all(bounds[:, 0] < bounds[:, 1])):
        raise ConfigurationError(f"each axis needs finite lo < hi, got {bounds.tolist()}")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def boundary_sets(points):
    """Split off the outermost points and the near-boundary band of a grid.

    Returns (trace, layer): trace holds points with some coordinate at its
    axis extreme; layer holds points whose scaled sup-norm distance from the
    grid center exceeds 0.9 of the half-width.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    tol = 1e-12 * np.maximum(span, 1.0)
    on_edge = (np.abs(pts - lo) <= tol) | (np.abs(pts - hi) <= tol)
    trace = pts[np.any(on_edge, axis=1)]

    center = 0.5 * (lo + hi)
    half = np.where(span > 0, 0.5 * span, 1.0)
    scaled = np.abs(pts - center) / half
    layer = pts[np.max(scaled, axis=1) > 0.9]
    return trace, layer
