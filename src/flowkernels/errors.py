"""Exception hierarchy shared across the library.

The CLI maps these onto process exit codes, so new error types should
subclass one of the three mid-level categories below rather than the root.
"""

import math
import numbers


class FlowKernelsError(Exception):
    """Root of everything raised deliberately by this package."""


class ConfigurationError(FlowKernelsError):
    """Bad user input: unknown system, invalid hyperparameter, malformed file."""


class NumericalError(FlowKernelsError):
    """A computation produced garbage: factorization failure, non-finite output."""


class FlowEscapeError(NumericalError):
    """A trajectory left the escape radius before the requested horizon.

    Parameters
    ----------
    escape_time : float
        First time (absolute value, in the integration direction) at which
        the state norm exceeded the radius.
    """

    def __init__(self, escape_time: float, radius: float):
        self.escape_time = float(escape_time)
        self.radius = float(radius)
        super().__init__(
            f"trajectory escaped |x| > {radius:g} at t = {escape_time:.6g}; "
            "shrink the horizon or move the initial condition"
        )


class DimensionMismatchError(ConfigurationError):
    """State vector length does not match the system dimension."""


class UnsupportedSpectrumError(ConfigurationError):
    """Linearization has complex or repeated eigenvalues; only simple real
    spectra are supported."""


class UnknownEigenvalueError(ConfigurationError):
    """Requested eigenvalue is not in the linearization spectrum."""


def positive(name: str, value) -> float:
    """value as a float if a real number (a bool is not) with 0 < value < inf,
    else a ConfigurationError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def count(name: str, value, minimum: int) -> int:
    """value as an int if integral (a bool is not) and >= minimum, else a ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < minimum):
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
