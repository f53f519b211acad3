"""Penalized collocation solver: assembly, solve, diagnostics, rescaling."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from flowkernels.collocation import (
    CollocationProblem,
    PenaltyConfig,
    _matvec,
    _solve_spd,
    assemble,
    evaluate,
    gradient_at,
    normal_matrix,
    rescale_rmse,
    residual_field,
    solve,
)
from flowkernels.dynamics import (
    SystemDef,
    linearize,
    make_system,
    poly2d_reference_eigenfunctions,
)
from flowkernels.errors import ConfigurationError, NumericalError
from flowkernels.grids import boundary_sets, tensor_grid
from flowkernels.kernels import RankOneKernel, make_kernel
from flowkernels.path_integral import XiEvaluator, residual_values


def cubic_grid():
    return np.linspace(-0.99, 0.99, 199)[:, None]


def cubic_reference(X):
    x = np.asarray(X)[:, 0]
    return x / np.sqrt(1.0 - x * x)


def first_coordinate_kernel():
    # rank-one kernel whose factor is the exact eigenfunction x1 of the
    # diagonal test system at rate -1
    return RankOneKernel(lambda X: X[:, 0])


class TestProblemValidation:
    def test_zero_anchor_target_rejected(self):
        with pytest.raises(ConfigurationError):
            CollocationProblem(
                system=make_system("poly2d"), lam=-1.0,
                kernel=make_kernel("gaussian", gamma=1.0),
                points=[[0.0, 0.0]], anchor_target=[0.0, 0.0],
            )

    def test_penalty_weights_validated(self):
        with pytest.raises(ConfigurationError):
            PenaltyConfig(eta=-1.0)
        with pytest.raises(ConfigurationError):
            PenaltyConfig(mu_grad=0.0)

    def test_for_eigenvalue_fills_anchor_from_linearization(self):
        sys2 = make_system("poly2d")
        prob = CollocationProblem.for_eigenvalue(
            sys2, 3.0, make_kernel("gaussian", gamma=1.0), [[0.1, 0.2]]
        )
        lam, w = linearize(sys2).eigenpair(3.0)
        assert prob.lam == lam
        np.testing.assert_allclose(prob.anchor_target, w, atol=1e-14)

    def test_system_without_equilibrium_rejected(self):
        with pytest.raises(ConfigurationError, match="equilibrium"):
            CollocationProblem(
                system=SystemDef("transport", 1, np.ones_like, equilibrium=None), lam=1.0,
                kernel=make_kernel("gaussian", gamma=1.0),
                points=[[0.1]], anchor_target=[1.0],
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CollocationProblem(
                system=make_system("poly2d"), lam=-1.0,
                kernel=make_kernel("gaussian", gamma=1.0),
                points=[[0.1]], anchor_target=[1.0, 0.0],
            )


class TestAssemble:
    def test_single_point_gaussian_row(self):
        # radial kernel gradient vanishes at coincidence and K(x,x)=1,
        # so the 1x1 residual matrix is exactly -lam
        prob = CollocationProblem(
            system=make_system("poly2d"), lam=-1.0,
            kernel=make_kernel("gaussian", gamma=1.0),
            points=[[0.3, 0.2]], anchor_target=[1.0, 0.0],
        )
        asm = assemble(prob)
        assert asm.B.shape == (1, 1)
        assert asm.B[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_exact_span_kills_residual_matrix(self):
        # diagonal linear flow, kernel factor = exact eigenfunction: every
        # entry of B cancels identically
        prob = CollocationProblem.for_eigenvalue(
            make_system("linear_test"), -1.0, first_coordinate_kernel(),
            tensor_grid([(-1, 1), (-1, 1)], 7),
        )
        assert np.abs(assemble(prob).B).max() <= 1e-12

    def test_domain_violation_identifies_point(self):
        pts = np.array([[0.5], [1.5]])
        prob = CollocationProblem(
            system=make_system("cubic1d"), lam=1.0, kernel=make_kernel("singular_1d"),
            points=pts, anchor_target=[1.0],
        )
        with pytest.raises(ConfigurationError, match="index 1"):
            assemble(prob)

    def test_boundary_rows_match_penalty_sets(self):
        pts = cubic_grid()
        trace, layer = boundary_sets(pts)
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("gaussian", ell=0.3), pts,
            PenaltyConfig(boundary=True),
        )
        asm = assemble(prob)
        assert asm.T.shape == (len(trace), len(pts))
        assert asm.Y.shape == (len(layer), len(pts))
        # layer rows carry the 1/sqrt(m) mean-square scaling
        raw = prob.kernel.pairwise(layer, pts)
        np.testing.assert_allclose(asm.Y, raw / np.sqrt(len(layer)), atol=1e-15)

    @pytest.mark.parametrize("boundary", [True, False])
    def test_boundary_rows_are_the_problems_boundary_sets(self, boundary):
        pts = tensor_grid([(-1, 1), (-1, 1)], 7)
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0), pts,
            PenaltyConfig(boundary=boundary),
        )
        asm = assemble(prob)
        trace, layer = boundary_sets(pts) if boundary else (pts[:0], pts[:0])
        assert asm.T.shape == (len(trace), len(pts)) and asm.Y.shape == (len(layer), len(pts))
        if boundary:
            assert np.array_equal(asm.T, prob.kernel.pairwise(trace, pts))
            assert np.array_equal(asm.Y, prob.kernel.pairwise(layer, pts) / np.sqrt(len(layer)))

    def test_zero_weight_drops_its_boundary_rows(self):
        pts = cubic_grid()
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("gaussian", ell=0.3), pts,
            PenaltyConfig(mu_trace=0.0, boundary=True),
        )
        asm = assemble(prob)
        assert asm.T.shape == (0, len(pts))
        assert asm.Y.shape == (len(boundary_sets(pts)[1]), len(pts))


class TestSolve:
    def test_cubic1d_singular_kernel_recovers_reference(self):
        pts = cubic_grid()
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("singular_1d"), pts,
            PenaltyConfig(boundary=True),
        )
        sol = solve(prob, reference=cubic_reference)
        assert sol.rmse_rescaled <= 5e-4

    def test_cubic1d_gaussian_misspecification(self):
        pts = cubic_grid()
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("gaussian", ell=0.3),
            pts, PenaltyConfig(boundary=True),
        )
        sol = solve(prob, reference=cubic_reference)
        assert sol.rmse_rescaled >= 0.5

    def test_poly2d_polynomial_kernel_high_accuracy(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0,
            make_kernel("polynomial", degree=2, coef0=0.5),
            tensor_grid([(-1, 1), (-1, 1)], 21),
        )
        ref = poly2d_reference_eigenfunctions()[-1.0]
        sol = solve(prob, reference=ref)
        assert sol.rmse_rescaled <= 1e-4

    def test_representable_kernel_beats_misspecified_on_residual(self):
        # the degree-2 kernel contains the target exactly, so its residual
        # norm sits many orders below the gaussian's
        grid = tensor_grid([(-1, 1), (-1, 1)], 21)
        ref = poly2d_reference_eigenfunctions()[-1.0]
        sys2 = make_system("poly2d")
        rn = {}
        for name, kern in [
            ("poly", make_kernel("polynomial", degree=2, coef0=0.5)),
            ("gauss", make_kernel("gaussian", gamma=1.0)),
        ]:
            sol = solve(CollocationProblem.for_eigenvalue(sys2, -1.0, kern, grid), reference=ref)
            rn[name] = sol.residual_norm
        assert rn["poly"] <= 1e-6
        assert rn["gauss"] >= 1e3 * rn["poly"]

    def test_rescaled_never_worse_than_raw(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 21),
        )
        sol = solve(prob, reference=poly2d_reference_eigenfunctions()[-1.0])
        assert sol.rmse_rescaled <= sol.rmse_raw + 1e-12

    def test_normal_matrix_positive_definite_pre_jitter(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 9),
        )
        A = normal_matrix(prob, assemble(prob))
        assert np.linalg.eigvalsh(A).min() > 0

    def test_normal_matrix_lower_triangle_is_the_plain_sum(self):
        # the in-place build reproduces, bit for bit, the lower triangle of
        # the normal matrix summed term by term in the same order
        pts = cubic_grid()
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("gaussian", ell=0.3), pts,
            PenaltyConfig(boundary=True),
        )
        asm = assemble(prob)
        pen = prob.penalties
        assert asm.T.size and asm.Y.size
        n = len(pts)
        plain = asm.B.T @ asm.B / n + pen.eta * np.eye(n)
        plain += (pen.mu_grad * asm.G0.T) @ asm.G0
        plain += (pen.mu_trace * asm.T.T) @ asm.T
        plain += (pen.mu_layer * asm.Y.T) @ asm.Y
        assert np.array_equal(np.tril(normal_matrix(prob, asm)), np.tril(plain))

    def test_anchor_target_scale_covariance(self):
        grid = tensor_grid([(-1, 1), (-1, 1)], 7)
        base = CollocationProblem.for_eigenvalue(
            make_system("linear_test"), -1.0, first_coordinate_kernel(), grid
        )
        doubled = CollocationProblem(
            system=base.system, lam=base.lam, kernel=base.kernel,
            points=base.points, anchor_target=2.0 * base.anchor_target,
        )
        a1 = solve(base).alpha
        a2 = solve(doubled).alpha
        assert np.abs(a2 - 2 * a1).max() <= 1e-10 * max(1.0, np.abs(a1).max())

    def test_trace_penalty_monotonicity(self):
        pts = cubic_grid()
        trace, _ = boundary_sets(pts)
        sys1 = make_system("cubic1d")
        kern = make_kernel("gaussian", ell=0.3)
        sums = []
        for mu_t in (1.0, 1e2, 1e4):
            pen = PenaltyConfig(mu_trace=mu_t, mu_layer=0.0, boundary=True)
            sol = solve(CollocationProblem.for_eigenvalue(sys1, 1.0, kern, pts, pen))
            sums.append(float(np.sum(evaluate(sol, trace) ** 2)))
        assert sums[1] <= sums[0] + 1e-12
        assert sums[2] <= sums[1] + 1e-12

    def test_anchor_efficacy(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0,
            make_kernel("polynomial", degree=2, coef0=0.5),
            tensor_grid([(-1, 1), (-1, 1)], 21),
        )
        sol = solve(prob)
        assert sol.anchor_error <= 1e-2 * np.linalg.norm(prob.anchor_target)

    def test_deterministic_resolve(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 11),
        )
        assert np.array_equal(solve(prob).alpha, solve(prob).alpha)

    def test_solve_peaks_at_about_two_matrices(self):
        # B of the assembly and the normal matrix, which the Cholesky
        # factorization overwrites in place; the Gram matrix for phi is
        # filled only after both are freed
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("exponential", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 41),
        )
        n = prob.points.shape[0]
        tracemalloc.start()
        try:
            solve(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8

    def test_indefinite_normal_matrix_fails_without_retry(self, monkeypatch):
        # the all-ones block has an exactly zero second pivot, so one
        # factorization attempt fails; the error carries a condition estimate
        rng = np.random.default_rng(8)
        M = rng.standard_normal((5, 5))
        A = scipy.linalg.block_diag(np.ones((3, 3)), M @ M.T + 5.0 * np.eye(5))
        rhs = rng.standard_normal(8)
        A_before = A.copy()
        factored, cho_factor = [], scipy.linalg.cho_factor

        def counting_cho_factor(*args, **kwargs):
            factored.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting_cho_factor)
        with pytest.raises(NumericalError, match="condition estimate"):
            _solve_spd(lambda: A, rhs)
        assert len(factored) == 1
        assert np.array_equal(A, A_before)
        # on a nonsingular indefinite matrix the printed estimate is the
        # 2-norm condition number to the digits printed
        B = A - 0.5 * np.eye(8)
        with pytest.raises(NumericalError) as err:
            _solve_spd(lambda: B, rhs)
        printed = re.search(r"condition estimate (\S+)\)", str(err.value)).group(1)
        assert printed == f"{np.linalg.cond(B):.3e}"

    def test_phi_is_the_expansion_on_the_points(self):
        # evaluate and gradient_at expand on the solution's own basis, so they
        # reproduce phi and the anchor derivative bit for bit, on the full
        # basis and on greedy centers
        for kernel, side, n_centers in [
            (make_kernel("gaussian", gamma=1.0), 11, 121),
            (make_kernel("polynomial", degree=2, coef0=0.5), 21, 6),
            (make_kernel("exponential", gamma=1.0), 21, 441),
        ]:
            prob = CollocationProblem.for_eigenvalue(
                make_system("poly2d"), -1.0, kernel, tensor_grid([(-1, 1), (-1, 1)], side),
            )
            sol = solve(prob)
            assert sol.n_centers == n_centers
            assert np.array_equal(sol.phi, evaluate(sol, prob.points))
            assert np.array_equal(gradient_at(sol, prob.anchor_point), sol.derivative_at_anchor)


class TestMatvec:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_the_matrix_product(self, order):
        rng = np.random.default_rng(3)
        A = np.asarray(rng.standard_normal((300, 200)), order=order)
        x = rng.standard_normal(200)
        ref = A @ x
        assert np.allclose(_matvec(A, x), ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_copies_nothing(self, order):
        rng = np.random.default_rng(4)
        A = np.asarray(rng.standard_normal((600, 400)), order=order)
        x = rng.standard_normal(400)
        tracemalloc.start()
        try:
            _matvec(A, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 4


class TestGreedyCenters:
    def poly2d_problem(self, kernel, side, eta=1e-8):
        return CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, kernel, tensor_grid([(-1, 1), (-1, 1)], side),
            PenaltyConfig(eta=eta),
        )

    def test_quadratic_kernel_is_expanded_on_six_centers(self):
        prob = self.poly2d_problem(make_kernel("polynomial", degree=2, coef0=0.5), 21)
        sol = solve(prob)
        assert sol.n_centers == 6
        assert np.count_nonzero(sol.alpha) == 6
        assert np.array_equal(evaluate(sol, prob.points), sol.phi)
        assert np.array_equal(gradient_at(sol, prob.anchor_point), sol.derivative_at_anchor)

    def test_non_compressing_kernel_keeps_the_full_basis_bit_for_bit(self):
        prob = self.poly2d_problem(make_kernel("exponential", gamma=1.0), 21)
        sol = solve(prob)
        asm = assemble(prob)
        alpha = _solve_spd(lambda: normal_matrix(prob, asm),
                           prob.penalties.mu_grad * asm.G0.T @ prob.anchor_target)
        assert sol.n_centers == 441
        assert np.array_equal(sol.alpha, alpha)

    def test_gaussian_error_follows_the_ridge(self):
        # on centers the ridge is eta times the RKHS norm of phi, so the
        # error falls with eta down to eta = 0 instead of the solve failing
        ref = poly2d_reference_eigenfunctions()[-1.0]
        rmse = []
        for eta in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0):
            sol = solve(self.poly2d_problem(make_kernel("gaussian", gamma=1.0), 61, eta),
                        reference=ref)
            assert sol.n_centers < 3721 // 16
            rmse.append(sol.rmse_rescaled)
        assert all(a > b for a, b in zip(rmse[:-2], rmse[1:-1])), rmse
        assert rmse[-1] < 1e-2

    def test_rank_one_greedy_evaluates_xi_on_the_points_no_more_than_assembly(self):
        sizes = []

        def xi(x):
            sizes.append(len(x))
            return x[..., 0] - x[..., 1] ** 2 + np.sin(x[..., 1])

        prob = self.poly2d_problem(RankOneKernel(xi), 21)
        n = prob.points.shape[0]
        assemble(prob)
        full = sum(m for m in sizes if m >= n)
        sizes.clear()
        assert solve(prob).n_centers == 1
        assert sum(m for m in sizes if m >= n) <= full


class TestEvaluateAndGradient:
    def test_zero_coefficients_zero_function(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 5),
        )
        sol = solve(prob)
        zero = type(sol)(
            alpha=np.zeros_like(sol.alpha), problem=prob, residual_norm=0.0,
            phi=np.zeros_like(sol.phi),
            anchor_error=float(np.linalg.norm(prob.anchor_target)),
            derivative_at_anchor=np.zeros(2),
        )
        assert np.all(evaluate(zero, [[0.3, 0.1], [0.0, 0.0]]) == 0.0)
        assert np.all(residual_field(zero, [[0.3, 0.1]]) == 0.0)

    def test_rank_one_solution_is_scaled_factor(self):
        kern = first_coordinate_kernel()
        grid = tensor_grid([(-1, 1), (-1, 1)], 7)
        prob = CollocationProblem.for_eigenvalue(
            make_system("linear_test"), -1.0, kern, grid
        )
        sol = solve(prob)
        c = float(np.sum(sol.alpha * grid[:, 0]))
        probes = np.array([[0.4, -0.2], [0.1, 0.9], [-0.7, 0.3]])
        np.testing.assert_allclose(evaluate(sol, probes), c * probes[:, 0], rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("poly2d"), -1.0, make_kernel("gaussian", gamma=1.0),
            tensor_grid([(-1, 1), (-1, 1)], 11),
        )
        sol = solve(prob)
        x = np.array([0.31, -0.44])
        g = gradient_at(sol, x)
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (evaluate(sol, [x + e])[0] - evaluate(sol, [x - e])[0]) / (2 * h)
            assert g[d] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestRescaleRmse:
    def test_identity(self):
        c, r = rescale_rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert c == 1.0 and r == 0.0

    def test_scale_invariance(self):
        c, r = rescale_rmse([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert c == pytest.approx(0.5, abs=1e-15)
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_rmse_invariant_under_learned_rescaling(self):
        rng = np.random.default_rng(5)
        l = rng.normal(size=40)
        r = rng.normal(size=40)
        _, base = rescale_rmse(l, r)
        for s in (2.0, -3.5, 1e-6):
            _, r2 = rescale_rmse(s * l, r)
            assert abs(r2 - base) <= 1e-12

    def test_orthogonal_learned_degenerate(self):
        with pytest.raises(NumericalError):
            rescale_rmse([1.0, -1.0], [1.0, 1.0])

    def test_zero_learned_degenerate(self):
        with pytest.raises(NumericalError):
            rescale_rmse([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            rescale_rmse([1.0], [1.0, 2.0])


class TestResidualField:
    def test_exact_span_residuals_vanish(self):
        prob = CollocationProblem.for_eigenvalue(
            make_system("linear_test"), -1.0, first_coordinate_kernel(),
            tensor_grid([(-1, 1), (-1, 1)], 7),
        )
        sol = solve(prob)
        probes = tensor_grid([(-0.8, 0.8), (-0.8, 0.8)], 5)
        assert np.abs(residual_field(sol, probes)).max() <= 1e-8

    def test_rank_one_duffing_residual_consistent_with_flow_evaluator(self):
        # the collocation residual of a rank-one solution must equal the
        # coefficient scale times the factor's own PDE residual
        sys_d = make_system("duffing")
        lin = linearize(sys_d)
        lam = lin.eigenvalues[0]
        ev = XiEvaluator(sys_d, lin, lam, T=8.0, M=1600)
        kern = RankOneKernel(ev)
        grid = tensor_grid([(-2, 2), (-2, 2)], 9)
        prob = CollocationProblem.for_eigenvalue(sys_d, lam, kern, grid)
        sol = solve(prob)
        c = float(np.sum(sol.alpha * ev(grid)))
        probes = np.array([[1.3, -0.4], [0.5, 0.5], [-1.1, 0.2]])
        got = residual_field(sol, probes)
        want = np.array([c * residual_values(ev, [p])[1][0] for p in probes])
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason="for this bistable flow the truncated-horizon factor keeps a "
        "PDE residual of the same order as the function itself at every "
        "horizon; see the acceptance report for the measured ratios",
    )
    def test_rank_one_duffing_mean_residual_small(self):
        sys_d = make_system("duffing")
        lin = linearize(sys_d)
        lam = lin.eigenvalues[0]
        ev = XiEvaluator(sys_d, lin, lam, T=15.0, M=1500)
        grid = tensor_grid([(-2, 2), (-2, 2)], 25)
        prob = CollocationProblem.for_eigenvalue(sys_d, lam, RankOneKernel(ev), grid)
        sol = solve(prob)
        res = residual_field(sol, grid)
        phi = evaluate(sol, grid)
        assert np.mean(np.abs(res)) <= 1e-2 * np.mean(np.abs(phi))
