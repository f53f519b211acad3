"""Weighted Mercer decomposition, finite-rank spectra, trajectory integrals."""

import tracemalloc
import warnings

import numpy as np
import pytest

from flowkernels.dynamics import make_system, poly2d_reference_eigenfunctions
from flowkernels.errors import ConfigurationError, NumericalError
from flowkernels.grids import tensor_grid
from flowkernels.kernels import RankOneKernel, SigmoidKernel, make_kernel
from flowkernels.spectral import (
    koopman_mode_check,
    mercer_decompose,
    trajectory_eigenrelation_check,
)

GRID2 = tensor_grid([(-1, 1), (-1, 1)], 21)
REFS = poly2d_reference_eigenfunctions()


class TestMercerDecompose:
    def test_rank_one_kernel_single_eigenvalue(self):
        kern = RankOneKernel(lambda X: X[:, 0] + 0.5)
        dec = mercer_decompose(kern, tensor_grid([(-1, 1), (-1, 1)], 9))
        mu = dec.eigenvalues
        assert np.sum(mu > 1e-10 * mu[0]) == 1

    def test_diagonal_gram_gives_coordinate_modes(self):
        gram = np.eye(6)
        dec = mercer_decompose(gram)
        assert np.array_equal(gram, np.eye(6))     # weighted on a copy, not in place
        # each mode is supported on exactly one grid point
        for j in range(6):
            col = dec.modes[:, j]
            assert np.sum(np.abs(col) > 1e-12) == 1

    def test_reconstruction_and_orthonormality(self):
        g = np.linspace(-2, 2, 40)[:, None]
        kern = make_kernel("gaussian", gamma=1.0)
        dec = mercer_decompose(kern, g)
        K = kern.pairwise(g, g)
        assert np.abs(dec.reconstruction() - K).max() <= 1e-8 * np.abs(K).max()
        gram = dec.modes.T @ (dec.weights[:, None] * dec.modes)
        assert np.abs(gram - np.eye(len(g))).max() <= 1e-8

    def test_one_dimensional_grid_is_n_points(self):
        g = np.linspace(-1, 1, 50)
        kern = make_kernel("gaussian", gamma=1.0)
        mu = mercer_decompose(kern, grid=g).eigenvalues
        assert mu.size == 50
        np.testing.assert_array_equal(mu, mercer_decompose(kern, grid=g[:, None]).eigenvalues)

    def test_eigenvalues_descending_and_clipped(self):
        g = np.linspace(-1, 1, 25)[:, None]
        dec = mercer_decompose(make_kernel("gaussian", gamma=2.0), g)
        mu = dec.eigenvalues
        assert np.all(np.diff(mu) <= 1e-15)
        assert np.all(mu >= -1e-8 * mu[0])

    def test_tiny_negative_eigenvalue_clipped_to_zero(self):
        # assemble a Gram with one eigenvalue at -1e-12: inside the clip band
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
        K = q @ np.diag([1.0, 0.5, 0.1, 0.0, -1e-12]) @ q.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = mercer_decompose(0.5 * (K + K.T))
        assert dec.eigenvalues.min() == 0.0
        assert not dec.indefinite

    def test_sigmoid_kernel_flagged_indefinite(self):
        pts = np.random.default_rng(2).normal(size=(30, 2))
        with pytest.warns(RuntimeWarning, match="indefinite"):
            dec = mercer_decompose(SigmoidKernel(gamma=0.5, coef0=0.0), pts)
        assert dec.indefinite
        assert dec.eigenvalues.min() < -1e-4 * dec.eigenvalues.max()

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            mercer_decompose(make_kernel("gaussian", gamma=1.0))  # no grid
        with pytest.raises(ConfigurationError):
            mercer_decompose(np.eye(4), weights=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            mercer_decompose(np.eye(3), weights=[np.nan, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            mercer_decompose(np.ones((3, 4)))
        with pytest.raises(ConfigurationError, match="nonempty grid"):
            mercer_decompose(np.zeros((0, 0)))   # no points to weigh uniformly

    def test_non_finite_gram_is_numerical(self):
        with pytest.raises(NumericalError, match="non-finite"):
            mercer_decompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_peaks_at_about_two_matrices(self):
        # the Gram matrix is freed once eigh returns, and the modes are scaled
        # straight from the reversed eigenvectors, without a reordered copy
        grid = tensor_grid([(-1, 1), (-1, 1)], 41)
        n = len(grid)
        tracemalloc.start()
        try:
            mercer_decompose(make_kernel("gaussian", gamma=1.0), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestKoopmanModeCheck:
    def test_two_eigenfunctions_unit_pair(self):
        vals = np.stack([REFS[-1.0](GRID2), REFS[3.0](GRID2)])
        rep = koopman_mode_check(vals)
        assert rep.m == 2
        assert rep.spectrum_deviation <= 1e-8
        assert rep.subspace_angle <= 1e-6

    def test_single_eigenfunction(self):
        rep = koopman_mode_check(REFS[-1.0](GRID2)[None, :])
        assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert rep.subspace_angle <= 1e-8

    def test_empty_input_zero_kernel(self):
        n = len(GRID2)
        rep = koopman_mode_check(np.empty((0, n)), weights=np.full(n, 1.0 / n))
        assert rep.m == 0
        assert rep.spectrum_deviation == 0.0
        assert np.all(rep.eigenvalues == 0.0)

    def test_rank_deficient_rows_rejected(self):
        # the error names the first dependent row, last or not
        u, v = REFS[-1.0](GRID2), REFS[3.0](GRID2)
        for rows in ([u, 2.0 * u], [u, 2.0 * u, v]):
            with pytest.raises(ConfigurationError, match=r"rank deficient.*\(row 1\)"):
                koopman_mode_check(np.stack(rows))

    def test_trapezoid_weights_three_functions(self):
        # non-uniform weights: the 2-D trapezoid rule on the 21 x 21 grid
        t = np.full(21, 0.1)
        t[[0, -1]] = 0.05
        u, v = REFS[-1.0](GRID2), REFS[3.0](GRID2)
        rep = koopman_mode_check(np.stack([u, v, u * v]), weights=np.outer(t, t).ravel())
        assert rep.m == 3
        assert rep.spectrum_deviation <= 1e-12
        assert rep.subspace_angle <= 1e-12

    @pytest.mark.parametrize("vals, weights", [([[1.0, 2.0, 3.0, 4.0]], np.full(5, 0.2)),
                                               ([[1.0, 2.0, 3.0, 4.0]], np.full(4, -0.25)),
                                               ([[1.0, np.nan, 3.0, 4.0]], None)],
                             ids=["wrong_length", "negative", "nan_values"])
    def test_bad_input_is_a_configuration_error(self, vals, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                koopman_mode_check(vals, weights=weights)

    def test_angle_detects_rotated_span(self):
        # compare span{a} against a kernel built from a vector at 30 degrees
        n = len(GRID2)
        w = np.full(n, 1.0 / n)
        a = REFS[-1.0](GRID2)
        a = a / np.sqrt(np.sum(w * a * a))
        q = np.ones(n) - np.sum(w * a * np.ones(n)) * a
        q = q / np.sqrt(np.sum(w * q * q))
        mixed = np.cos(np.pi / 6) * a + np.sin(np.pi / 6) * q
        dec = mercer_decompose(np.outer(mixed, mixed), weights=w)
        psi = dec.modes[:, :1]
        phi = a[None, :]
        resid = psi - phi.T @ (phi @ (w[:, None] * psi))
        s2 = np.linalg.eigvalsh(resid.T @ (w[:, None] * resid)).max()
        assert np.degrees(np.arcsin(np.sqrt(s2))) == pytest.approx(30.0, abs=1e-9)


class TestTrajectoryEigenrelation:
    SYS = make_system("poly2d")
    PROBES = tensor_grid([(-0.4, 0.4), (-0.4, 0.4)], 5)

    def test_fast_mode_identity(self):
        rep = trajectory_eigenrelation_check(
            self.SYS, REFS[3.0], 3.0, self.PROBES, T=3.2, M=4000
        )
        assert rep.max_deviation <= 1e-2
        # the origin probe is excluded by the |phi| floor
        assert int((~rep.included).sum()) == 1

    def test_scaled_eigenfunction_same_deviation(self):
        base = trajectory_eigenrelation_check(
            self.SYS, REFS[3.0], 3.0, self.PROBES, T=3.2, M=2000
        )
        scaled = trajectory_eigenrelation_check(
            self.SYS, lambda X: 7.0 * REFS[3.0](X), 3.0, self.PROBES, T=3.2, M=2000
        )
        assert abs(base.max_deviation - scaled.max_deviation) <= 1e-12

    def test_truncation_tail_dominates_short_horizons(self):
        # with the quadrature fine enough, the deviation is the geometric
        # tail e^{-2 lam T}; its log-slope over T recovers -2 lam
        devs, Ts = [], [0.8, 1.2, 1.6]
        for T in Ts:
            rep = trajectory_eigenrelation_check(
                self.SYS, REFS[3.0], 3.0, self.PROBES, T=T, M=2000, max_tail=1.0
            )
            devs.append(rep.max_deviation)
            assert rep.max_deviation == pytest.approx(np.exp(-6.0 * T), rel=0.05)
        slope = np.polyfit(Ts, np.log(devs), 1)[0]
        assert slope == pytest.approx(-6.0, rel=0.2)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            trajectory_eigenrelation_check(self.SYS, REFS[3.0], -1.0, self.PROBES, T=3.2, M=100)
        with pytest.raises(ConfigurationError, match="tail"):
            trajectory_eigenrelation_check(self.SYS, REFS[3.0], 3.0, self.PROBES, T=1.0, M=100)

    def test_escaping_flow_inconclusive(self):
        # backward flow from this far out blows up well before T
        far = np.array([[0.0, 3.0]])
        with pytest.raises(NumericalError, match="inconclusive"):
            trajectory_eigenrelation_check(self.SYS, REFS[3.0], 3.0, far, T=6.0, M=4000)

    def test_all_probes_excluded_inconclusive(self):
        # phi vanishes identically on the v = 0 parabola x2 = (x1 - x2^2)^2
        with pytest.raises(NumericalError, match="inconclusive"):
            trajectory_eigenrelation_check(
                self.SYS, REFS[3.0], 3.0, np.array([[0.0, 0.0]]), T=3.2, M=100
            )
