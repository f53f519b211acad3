"""Mixture-weight learning, thresholding, and pruned refits."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from flowkernels import mkl
from flowkernels.collocation import CollocationProblem, assemble, solve
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

    @pytest.mark.parametrize("key, value", [("max_iter", -3), ("max_iter", 2.5),
                                            ("max_iter", True), ("gtol", float("nan")),
                                            ("gtol", float("inf")), ("gtol", -1e-6)])
    def test_optimizer_settings_validated(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            MKLConfig(**{key: value})

    def test_result_rejects_weights_off_simplex(self):
        with pytest.raises(NumericalError):
            MKLResult(
                beta=np.array([0.7, 0.7]), alpha=np.zeros(3), phi=np.zeros(3),
                kernel_labels=("a", "b"), loss_trace=np.zeros(1),
                converged=True, config=small_cfg(),
            )

    @pytest.mark.parametrize("beta", [[np.nan, np.nan], [0.5, np.nan, 0.5]])
    def test_result_rejects_non_finite_weights(self, beta):
        with pytest.raises(NumericalError, match="simplex"):
            MKLResult(
                beta=np.array(beta), alpha=np.zeros(3), phi=np.zeros(3),
                kernel_labels=("a",) * len(beta), loss_trace=np.zeros(1),
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
        # central differences; the envelope formula needs an exact inner
        # solve, so the ridge keeps the normal matrix well conditioned (cond
        # 1.2e10; at the default eta = 1e-8 it is 1.2e14, and both the float64
        # gradient and the differences of the float64 objective are off by
        # 1e-3 relative or more)
        from flowkernels.dynamics import linearize

        grid = tensor_grid([(-1, 1), (-1, 1)], 9)
        cfg = small_cfg(eta=1e-4)
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
        solves = []
        solve_spd = mkl._solve_spd

        def counting_solve_spd(A, rhs):
            solves.append(1)
            return solve_spd(A, rhs)

        monkeypatch.setattr(mkl, "_solve_spd", counting_solve_spd)
        res = mkl_solve(SYS, lam, GRID, MKLConfig())
        assert len(solves) == res.n_evaluations

    def test_phi_is_the_learned_mixture_on_the_points(self):
        cfg = MKLConfig()
        res = mkl_solve(SYS, 3.0, GRID, cfg)
        mixture = KernelMixture(list(cfg.base_kernels), res.beta)
        assert np.array_equal(res.phi, mixture.pairwise(GRID) @ res.alpha)


class TestOptimizer:
    @staticmethod
    def run_at_two_threads(code):
        """stdout of code run in a process pinned at the artifacts' 2 BLAS
        threads: the loss and error bits depend on the thread count."""
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   MKL_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_slow_mode_stops_before_any_step(self):
        # the gradient test holds at theta = 0, so the weights stay exactly
        # uniform
        code = ("import flowkernels as fk\n"
                "r = fk.mkl_solve(fk.make_system('poly2d'), -1.0,\n"
                "                 fk.tensor_grid([(-1, 1), (-1, 1)], 21), fk.MKLConfig())\n"
                "print(r.loss_trace.tolist(), r.n_evaluations, r.stop_reason, r.converged,\n"
                "      bool((r.beta == 1 / 11).all()))\n")
        assert self.run_at_two_threads(code) == [
            "[4.459625136233008e-08]", "1", "gtol", "True", "True"]

    def test_n961_losses_and_errors_keep_their_bits(self):
        # the N = 961 runs of both rates, pinned bit for bit: a last-bit
        # change in the mixture's normal matrix (a packed layout, another
        # factor) moved these by 0.2-1.2%, far past the 1e-3 that the
        # benchmark's accuracy checks allow
        code = ("import flowkernels as fk\n"
                "from flowkernels.dynamics import poly2d_reference_eigenfunctions\n"
                "X = fk.tensor_grid([(-1, 1), (-1, 1)], 31)\n"
                "for lam, ref in sorted(poly2d_reference_eigenfunctions().items()):\n"
                "    r = fk.mkl_solve(fk.make_system('poly2d'), lam, X, fk.MKLConfig(),\n"
                "                     reference=ref)\n"
                "    print(lam, r.loss_trace.tolist(), repr(r.rmse_rescaled))\n")
        assert self.run_at_two_threads(code) == [
            "-1.0", "[4.213859894185552e-08]", "0.013323372999240494",
            "3.0", "[1.0105691734040272e-07]", "0.0065003891014796785"]

    def test_fast_mode_steps_and_converges(self):
        res = mkl_solve(SYS, 3.0, GRID, MKLConfig())
        assert res.loss_trace.size >= 2
        assert np.all(np.diff(res.loss_trace) < 0)
        assert res.converged and res.stop_reason == "gtol"
        assert res.n_evaluations >= res.loss_trace.size

    def test_iteration_cap_reports_not_converged(self):
        res = mkl_solve(SYS, 3.0, GRID, MKLConfig(max_iter=0))
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.n_evaluations == 1 and res.loss_trace.size == 1
        np.testing.assert_array_equal(res.beta, np.full(11, 1 / 11))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_trial_is_backtracked(self, bad):
        # a bowl with its minimum at a, non-finite beyond radius 0.5: the
        # first trial (max-norm 1 from 0) and its first halving land outside
        a = np.array([0.3, 0.1])
        calls = []

        def fun(x):
            calls.append(x)
            if np.linalg.norm(x) > 0.5:
                return bad, np.full(2, np.nan), None
            return np.sum((x - a) ** 2), 2.0 * (x - a), x

        x, aux, trace, nfev, reason = mkl._bfgs(fun, np.zeros(2), 1e-10, 50)
        assert np.max(np.abs(calls[1])) == 1.0
        assert np.linalg.norm(calls[1]) > 0.5 and np.linalg.norm(calls[2]) > 0.5
        assert reason == "gtol" and nfev == len(calls)
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) < 0)
        assert aux is x
        np.testing.assert_allclose(x, a, atol=1e-10)

    def test_line_search_failure_keeps_the_last_iterate(self):
        # a loss that is finite only at the start: every trial fails
        def fun(x):
            if np.any(x):
                return np.inf, np.zeros(2), None
            return 1.0, np.array([1.0, -2.0]), "start"

        x, aux, trace, nfev, reason = mkl._bfgs(fun, np.zeros(2), 0.0, 5)
        assert reason == "line_search" and aux == "start" and trace == [1.0]
        assert nfev == 2 + mkl._MAX_HALVINGS
        np.testing.assert_array_equal(x, np.zeros(2))


def test_per_kernel_slabs_are_each_kernels_own_blocks():
    # the slabs are filled in place by the collocation assembly's row block
    X = tensor_grid([(-1, 1), (-1, 1)], 9)
    kernels = default_kernel_bank()
    lam = CollocationProblem.for_eigenvalue(SYS, 3.0, kernels[0], X).lam
    Bs, G0s = mkl._per_kernel_blocks(SYS, lam, X, np.zeros(2), kernels)
    for l, k in enumerate(kernels):
        asm = assemble(CollocationProblem.for_eigenvalue(SYS, 3.0, k, X))
        assert np.array_equal(Bs[l], asm.B)
        assert np.array_equal(G0s[l], asm.G0)


def test_solve_holds_the_residual_slabs_and_no_gram_slabs():
    # the L residual slabs, the mixture's B and its normal matrix; the
    # learned mixture's Gram matrix is filled for phi after the slabs go
    cfg = MKLConfig()
    L, n = len(cfg.base_kernels), GRID.shape[0]
    tracemalloc.start()
    try:
        mkl_solve(SYS, 3.0, GRID, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * L * n * n * 8


def _objective_pair(system, lam, w, X, cfg, theta):
    """Standalone replica of the solver's reduced objective for grad checks."""
    from flowkernels.collocation import _solve_spd
    from flowkernels.mkl import _per_kernel_blocks

    Bs, G0s = _per_kernel_blocks(system, lam, X, np.zeros(2), cfg.base_kernels)
    n = X.shape[0]
    v = np.exp(theta)
    beta = v / v.sum()
    B = np.tensordot(beta, Bs, axes=1)
    G0 = np.tensordot(beta, G0s, axes=1)
    A = B.T @ B / n + cfg.eta * np.eye(n) + cfg.mu_grad * G0.T @ G0
    alpha = _solve_spd(lambda: A, cfg.mu_grad * G0.T @ w)
    r = B @ alpha
    gap = G0 @ alpha - w
    f = (r @ r) / n + cfg.eta * (alpha @ alpha) + cfg.mu_grad * (gap @ gap)
    g = (2.0 / n) * np.einsum("lij,j,i->l", Bs, alpha, r)
    g += 2.0 * cfg.mu_grad * np.einsum("ldj,j,d->l", G0s, alpha, gap)
    return f, beta * (g - beta @ g)


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
