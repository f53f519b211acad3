"""The shared count and positive-number rules of flowkernels.errors, at
the settings that use them."""

import numpy as np
import pytest

from flowkernels.advection import QuadratureRule
from flowkernels.dynamics import IntegratorConfig, make_system, poly2d_reference_eigenfunctions
from flowkernels.errors import ConfigurationError, count, positive
from flowkernels.grids import tensor_grid
from flowkernels.kernels import GaussianKernel, PolynomialKernel
from flowkernels.mkl import MKLConfig
from flowkernels.spectral import trajectory_eigenrelation_check


def _eigenrelation(M):
    return trajectory_eigenrelation_check(
        make_system("poly2d"), poly2d_reference_eigenfunctions()[3.0], 3.0,
        np.array([[0.2, 0.1]]), T=1.0, M=M, max_tail=1.0,
    )


# a call with a count that is not an integral number at or above its
# minimum, and the argument name its error must carry
_COUNT_CASES = {
    "integrator_M_fraction": (lambda: IntegratorConfig(dt=0.1, M=2.5), "M"),
    "integrator_M_bool": (lambda: IntegratorConfig(dt=0.1, M=True), "M"),
    "horizon_M_fraction": (lambda: IntegratorConfig.from_horizon(1.0, 2.5), "M"),
    "eigenrelation_M_fraction": (lambda: _eigenrelation(2.5), "M"),
    "grid_count_fraction": (lambda: tensor_grid([(0, 1)], [2.5]), "grid count"),
    "grid_count_nan": (lambda: tensor_grid([(0, 1)], [float("nan")]), "grid count"),
    "rule_n_fraction": (lambda: QuadratureRule(-30, 30, n=2.5), "quadrature rule n"),
    "rule_n_text": (lambda: QuadratureRule(-30, 30, n="4001"), "quadrature rule n"),
    "polynomial_degree_bool": (lambda: PolynomialKernel(degree=True), "degree"),
}


@pytest.mark.parametrize("case", list(_COUNT_CASES))
def test_count_rejected(case):
    call, name = _COUNT_CASES[case]
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer >= "):
        call()


def test_integral_counts_stored_as_int():
    assert count("n", np.float64(3.0), 2) == 3 and type(count("n", np.int64(3), 2)) is int
    assert type(IntegratorConfig(dt=0.1, M=np.int64(4)).M) is int
    assert QuadratureRule(-1, 1, n=5.0).n == 5
    assert MKLConfig(max_iter=2.0).max_iter == 2


# a call with a positive number that is not a real number, and the argument
# name its error must carry
_POSITIVE_CASES = {
    "integrator_dt_text": (lambda: IntegratorConfig(dt="0.1", M=3), "dt"),
    "gaussian_gamma_text": (lambda: GaussianKernel(gamma="1"), "gamma"),
    "gaussian_gamma_bool": (lambda: GaussianKernel(gamma=True), "gamma"),
    "gaussian_ell_list": (lambda: GaussianKernel(ell=[1.0]), "ell"),
}


@pytest.mark.parametrize("case", list(_POSITIVE_CASES))
def test_positive_rejects_non_reals(case):
    call, name = _POSITIVE_CASES[case]
    with pytest.raises(ConfigurationError, match=f"^{name} must be positive and finite, got "):
        call()


def test_positive_numbers_stored_as_float():
    assert type(positive("x", np.float32(0.5))) is float and positive("x", 2) == 2.0
    assert type(IntegratorConfig(dt=np.float64(0.1), M=3).dt) is float
