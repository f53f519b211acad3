"""Uniform tensor grids: the point clouds that collocation and the CLI run on."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, count

__all__ = ["tensor_grid"]


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

