"""Mixture-weight learning, thresholding, and pruned refits."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize

from flowkernels import mkl
from flowkernels.collocation import CollocationProblem, solve
from flowkernels.dynamics import make_system, poly2d_reference_eigenfunctions
from flowkernels.errors import ConfigurationError, NumericalError
from flowkernels.grids import tensor_grid
from flowkernels.kernels import GaussianKernel, KernelMixture, PolynomialKernel
from flowkernels.mkl import (
    MKLConfig,
    MKLResult,
    default_kernel_bank,
    kernel_label,
    mkl_solve,
    pruned_mixture,
    refit_pruned,
    sparsify,
)

SYS = make_system("poly2d")
GRID = tensor_grid([(-1, 1), (-1, 1)], 21)
REFS = poly2d_reference_eigenfunctions()


def small_cfg(**kw):
    kw.setdefault(
        "base_kernels",
        [GaussianKernel(gamma=1.0), PolynomialKernel(degree=2, coef0=1.0),
         PolynomialKernel(degree=3, coef0=1.0)],
    )
    return MKLConfig(**kw)


class TestConfig:
    def test_bank_has_eleven_members_with_unique_labels(self):
        bank = default_kernel_bank()
        labels = [kernel_label(k) for k in bank]
        assert len(bank) == 11
        assert len(set(labels)) == 11
        assert "polynomial_deg2" in labels and "polynomial_deg6" in labels

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MKLConfig(base_kernels=[GaussianKernel(gamma=1.0)])
        with pytest.raises(ConfigurationError):
            MKLConfig(tau=1.0)
        with pytest.raises(ConfigurationError):
            MKLConfig(lam_l1=-0.5)

    def test_result_rejects_weights_off_simplex(self):
        with pytest.raises(NumericalError):
            MKLResult(
                beta=np.array([0.7, 0.7]), alpha=np.zeros(3), phi=np.zeros(3),
                kernel_labels=("a", "b"), loss_trace=np.zeros(1),
                converged=True, config=small_cfg(),
            )


class TestSolve:
    def test_identical_pair_splits_evenly_and_matches_plain_solve(self):
        cfg = MKLConfig(base_kernels=[GaussianKernel(gamma=1.0), GaussianKernel(gamma=1.0)])
        res = mkl_solve(SYS, -1.0, GRID, cfg)
        np.testing.assert_allclose(res.beta, [0.5, 0.5], atol=1e-12)
        plain = solve(
            CollocationProblem.for_eigenvalue(SYS, -1.0, GaussianKernel(gamma=1.0), GRID)
        )
        np.testing.assert_allclose(res.alpha, plain.alpha, atol=1e-10)

    def test_full_bank_slow_mode(self):
        res = mkl_solve(SYS, -1.0, GRID, MKLConfig(), reference=REFS[-1.0])
        assert np.all(res.beta >= 0.08) and np.all(res.beta <= 0.10)
        assert res.rmse_rescaled <= 0.25

    def test_full_bank_fast_mode(self):
        res = mkl_solve(SYS, 3.0, GRID, MKLConfig(), reference=REFS[3.0])
        assert res.rmse_rescaled <= 0.15

    def test_simplex_feasibility(self):
        res = mkl_solve(SYS, 3.0, GRID, MKLConfig())
        assert abs(res.beta.sum() - 1.0) <= 1e-9
        assert np.all(res.beta > 0)

    def test_loss_trace_monotone(self):
        res = mkl_solve(SYS, 3.0, GRID, MKLConfig())
        assert np.all(np.diff(res.loss_trace) <= 1e-12)

    def test_deterministic_rerun_bitwise(self):
        a = mkl_solve(SYS, 3.0, GRID, MKLConfig())
        b = mkl_solve(SYS, 3.0, GRID, MKLConfig())
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.alpha, b.alpha)

    def test_envelope_gradient_matches_finite_differences(self):
        # the reported gradient of the reduced objective must agree with
        # central differences; the inner solve is exact so the envelope is too
        from flowkernels.dynamics import linearize

        grid = tensor_grid([(-1, 1), (-1, 1)], 9)
        cfg = small_cfg(lam_l1=0.3)
        lam, w = linearize(SYS).eigenpair(-1.0)
        theta = np.array([0.2, -0.1, 0.05])
        _, g = _objective_pair(SYS, lam, w, grid, cfg, theta)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fp = _objective_pair(SYS, lam, w, grid, cfg, theta + e)[0]
            fm = _objective_pair(SYS, lam, w, grid, cfg, theta - e)[0]
            assert (fp - fm) / (2 * h) == pytest.approx(g[i], rel=1e-5, abs=1e-10)

    @pytest.mark.parametrize("lam", [-1.0, 3.0])
    def test_one_inner_solve_per_objective_evaluation(self, lam, monkeypatch):
        solves, results = [], []
        solve_spd, minimize = mkl._solve_spd, scipy.optimize.minimize

        def counting_solve_spd(A, rhs):
            solves.append(1)
            return solve_spd(A, rhs)

        def recording_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mkl, "_solve_spd", counting_solve_spd)
        monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
        mkl_solve(SYS, lam, GRID, MKLConfig())
        assert len(solves) == results[0].nfev

    def test_phi_is_the_learned_mixture_on_the_points(self):
        cfg = MKLConfig()
        res = mkl_solve(SYS, 3.0, GRID, cfg)
        mixture = KernelMixture(list(cfg.base_kernels), res.beta)
        assert np.array_equal(res.phi, mixture.pairwise(GRID) @ res.alpha)

    def test_l1_never_grows_total_weight(self):
        totals = []
        for lam_l1 in (0.0, 0.1, 1.0, 10.0):
            res = mkl_solve(SYS, 3.0, GRID, MKLConfig(lam_l1=lam_l1, max_iter=60))
            totals.append(float(np.abs(res.beta).sum()))
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


def _objective_pair(system, lam, w, X, cfg, theta):
    """Standalone replica of the solver's reduced objective for grad checks."""
    from flowkernels.collocation import _solve_spd
    from flowkernels.mkl import _per_kernel_blocks

    Bs, G0s, _ = _per_kernel_blocks(system, lam, X, np.zeros(2), cfg.base_kernels)
    n = X.shape[0]
    v = np.exp(theta)
    beta = v / v.sum()
    B = np.tensordot(beta, Bs, axes=1)
    G0 = np.tensordot(beta, G0s, axes=1)
    A = B.T @ B / n + cfg.eta * np.eye(n) + cfg.mu_grad * G0.T @ G0
    alpha = _solve_spd(A, cfg.mu_grad * G0.T @ w)
    r = B @ alpha
    gap = G0 @ alpha - w
    f = (r @ r) / n + cfg.eta * (alpha @ alpha) + cfg.mu_grad * (gap @ gap) + cfg.lam_l1 * v.sum()
    g = (2.0 / n) * np.einsum("lij,j,i->l", Bs, alpha, r)
    g += 2.0 * cfg.mu_grad * np.einsum("ldj,j,d->l", G0s, alpha, gap)
    return f, beta * (g - beta @ g) + cfg.lam_l1 * v


class TestSparsify:
    def _uniform_result(self):
        return mkl_solve(SYS, -1.0, GRID, MKLConfig())

    def test_uniform_bank_prunes_to_empty(self):
        sp = sparsify(self._uniform_result())
        assert sp.pruned_beta.size == 0

    def test_empty_pruned_mixture_is_degenerate(self):
        sp = sparsify(self._uniform_result())
        with pytest.raises(NumericalError):
            pruned_mixture(sp)

    def test_sparse_weights_survive_unchanged(self):
        res = self._uniform_result()
        res = dataclasses.replace(res, beta=np.array([0.331, 0.378, 0.291] + [0.0] * 8))
        sp = sparsify(res)
        np.testing.assert_allclose(sp.pruned_beta[:3], [0.331, 0.378, 0.291], atol=1e-15)
        assert np.all(sp.pruned_beta[3:] == 0.0)

    def test_vertex_unchanged(self):
        res = self._uniform_result()
        res = dataclasses.replace(res, beta=np.array([1.0] + [0.0] * 10))
        np.testing.assert_array_equal(sparsify(res).pruned_beta, res.beta)

    def test_survivors_renormalized(self):
        res = self._uniform_result()
        res = dataclasses.replace(res, beta=np.array([0.5, 0.4, 0.05, 0.05] + [0.0] * 7))
        sp = sparsify(res)
        assert sp.pruned_beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert sp.pruned_beta[2] == 0.0 and sp.pruned_beta[3] == 0.0


class TestRefit:
    def test_hand_set_polynomial_trio(self):
        mix = KernelMixture(
            [PolynomialKernel(degree=d, coef0=1.0) for d in (2, 3, 4)],
            [0.331, 0.378, 0.291],
        )
        sol = refit_pruned(SYS, -1.0, GRID, mix, reference=REFS[-1.0])
        assert sol.rmse_rescaled <= 0.2

    def test_exact_span_single_kernel(self):
        mix = KernelMixture([PolynomialKernel(degree=2, coef0=0.5)], [1.0])
        sol = refit_pruned(SYS, -1.0, GRID, mix, reference=REFS[-1.0])
        assert sol.rmse_rescaled <= 1e-4

    def test_degraded_trio_reports_finite_rmse(self):
        # heavier sparsification regimes keep higher-degree survivors; the
        # refit still runs and reports, nothing is asserted about quality
        mix = KernelMixture(
            [PolynomialKernel(degree=d, coef0=1.0) for d in (3, 4, 6)],
            [1 / 3, 1 / 3, 1 / 3],
        )
        sol = refit_pruned(SYS, -1.0, GRID, mix, reference=REFS[-1.0])
        assert np.isfinite(sol.rmse_rescaled)
