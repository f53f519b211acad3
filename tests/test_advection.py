"""Transport Green's-function / resolvent kernels and their agreement."""

import numpy as np
import pytest

from flowkernels.advection import (
    AdvectionProblem,
    QuadratureRule,
    analytic_exponential_kernel,
    green_advection,
    resolvent_kernel_advection,
    symmetrized_kernel,
    symmetrized_resolvent,
    unification_check,
)
from flowkernels.errors import ConfigurationError


def unit_problem(a=-30.0, b=30.0):
    return AdvectionProblem(c=1.0, lam=1.0, a=a, b=b)


def default_rule(a=-30.0, b=30.0, n=4001):
    return QuadratureRule(a=a, b=b, n=n)


class TestGreenFunction:
    def test_causal_side_values(self):
        p = unit_problem()
        # on the characteristic boundary the jump is taken as 1
        assert green_advection(p, 0.0, 0.0) == 1.0
        assert green_advection(p, 1.0, 0.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_acausal_side_is_zero(self):
        p = unit_problem()
        assert green_advection(p, 0.0, 1.0) == 0.0
        assert np.all(green_advection(p, -2.0, np.linspace(-1.9, 3.0, 40)) == 0.0)

    def test_speed_rescales_decay(self):
        p = AdvectionProblem(c=2.0, lam=1.0)
        assert green_advection(p, 1.0, 0.0) == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            AdvectionProblem(c=0.0, lam=1.0)
        with pytest.raises(ConfigurationError):
            AdvectionProblem(c=1.0, lam=0.0)
        with pytest.raises(ConfigurationError):
            AdvectionProblem(c=1.0, lam=1.0, a=2.0, b=-2.0)
        with pytest.raises(ConfigurationError, match="speed"):
            AdvectionProblem(c=np.nan, lam=1.0)
        with pytest.raises(ConfigurationError, match="decay rate"):
            AdvectionProblem(c=1.0, lam=np.inf)


class TestResolventKernel:
    def test_unit_travel_time(self):
        p = unit_problem()
        assert resolvent_kernel_advection(p, 0.0, 1.0) == pytest.approx(
            np.exp(-1.0), rel=1e-14
        )

    def test_speed_two_prefactor(self):
        p = AdvectionProblem(c=2.0, lam=1.0)
        got = resolvent_kernel_advection(p, 0.0, 4.0)
        assert got == pytest.approx(0.5 * np.exp(-2.0), rel=1e-14)

    def test_behind_characteristic_zero(self):
        p = unit_problem()
        assert resolvent_kernel_advection(p, 1.0, 0.0) == 0.0


class TestSymmetrizedKernel:
    def test_diagonal_value(self):
        p, q = unit_problem(), default_rule()
        assert symmetrized_kernel(p, 0.0, 0.0, q) == pytest.approx(0.5, abs=1e-4)

    def test_unit_separation_value(self):
        # e^{-1}/2 = 0.18393972...
        p, q = unit_problem(), default_rule()
        assert symmetrized_kernel(p, 0.5, -0.5, q) == pytest.approx(0.18394, abs=1e-4)

    def test_symmetry_exact(self):
        p, q = unit_problem(), default_rule()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=12)
        for i in range(len(pts)):
            for j in range(i):
                a = symmetrized_kernel(p, pts[i], pts[j], q)
                b = symmetrized_kernel(p, pts[j], pts[i], q)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_disjoint_supports_give_zero(self):
        # min(x, y) below the domain's left edge leaves nothing to integrate
        p = unit_problem(a=0.0, b=30.0)
        q = default_rule(a=0.0)
        assert symmetrized_kernel(p, -1.0, 2.0, q) == 0.0

    def test_positive_semidefinite_on_grid(self):
        p, q = unit_problem(), default_rule(n=801)
        xs = np.linspace(-4, 4, 25)
        K = np.array([[symmetrized_kernel(p, a, b, q) for b in xs] for a in xs])
        mu = np.linalg.eigvalsh(K)
        assert mu.min() >= -1e-8 * mu.max()

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            QuadratureRule(a=-30.0, b=30.0, n=1)

    @pytest.mark.parametrize("scheme", ["trapezoid", "gauss_legendre"])
    def test_nodes_clipped_to_the_rule(self, scheme):
        q = QuadratureRule(a=-30.0, b=30.0, n=601, scheme=scheme)
        for (lo, hi), clipped in [((0.0, np.inf), (0.0, 30.0)),
                                  ((-np.inf, -2.5), (-30.0, -2.5)),
                                  ((-np.inf, np.inf), (-30.0, 30.0)),
                                  ((40.0, np.inf), (40.0, 30.0))]:
            for got, want in zip(q.nodes_weights(lo, hi), q.nodes_weights(*clipped)):
                assert np.array_equal(got, want)
        assert q.nodes_weights(40.0, np.inf)[0].size == 0

    @pytest.mark.parametrize("a, b", [(-np.inf, 30.0), (-30.0, np.nan)], ids=["a_inf", "b_nan"])
    def test_non_finite_interval_rejected(self, a, b):
        with pytest.raises(ConfigurationError, match="finite a < b"):
            QuadratureRule(a=a, b=b)


class TestSymmetrizedResolvent:
    def test_diagonal_value(self):
        p, q = unit_problem(), default_rule()
        assert symmetrized_resolvent(p, 0.0, 0.0, q) == pytest.approx(0.5, abs=1e-4)

    def test_half_exp_minus_one(self):
        p, q = unit_problem(), default_rule()
        got = symmetrized_resolvent(p, 0.5, -0.5, q)
        assert got == pytest.approx(0.5 * np.exp(-1.0), abs=1e-4)


class TestExponentialLaw:
    def test_kernel_times_growth_is_constant(self):
        # K(x,y) * 2 lam * e^{lam |x-y|} == 1 within 1e-3 off-diagonal too
        p, q = unit_problem(), default_rule()
        rng = np.random.default_rng(11)
        xs = rng.uniform(-4, 4, size=10)
        ys = rng.uniform(-4, 4, size=10)
        for x, y in zip(xs, ys):
            k = symmetrized_kernel(p, x, y, q)
            assert k * 2.0 * p.lam * np.exp(p.lam * abs(x - y)) == pytest.approx(1.0, abs=1e-3)

    def test_doubling_rate_halves_diagonal(self):
        q = default_rule()
        k1 = symmetrized_kernel(AdvectionProblem(c=1.0, lam=1.0), 0.0, 0.0, q)
        k2 = symmetrized_kernel(AdvectionProblem(c=1.0, lam=2.0), 0.0, 0.0, q)
        assert k1 / k2 == pytest.approx(2.0, abs=1e-3)


class TestUnificationCheck:
    def test_three_constructions_agree(self):
        p, q = unit_problem(), default_rule()
        grid = np.linspace(-5, 5, 20)
        rep = unification_check(p, grid, q)
        assert rep.max_rel_dev <= 1e-3
        assert rep.scalar > 0
        assert rep.scalar == pytest.approx(1.0, abs=1e-3)
        assert rep.diag_dev <= 1e-3

    def test_report_shapes_match_grid(self):
        p, q = unit_problem(), default_rule(n=801)
        rep = unification_check(p, np.linspace(-2, 2, 5), q)
        assert rep.x.shape == (25,)
        for arr in (rep.y, rep.K_green, rep.K_analytic, rep.K_resolvent_sym, rep.rel_dev):
            assert arr.shape == (25,)

    def test_single_point_grid_degenerates_cleanly(self):
        p, q = unit_problem(), default_rule()
        rep = unification_check(p, [0.0], q)
        assert rep.max_rel_dev <= 1e-3
        assert rep.rel_dev.shape == (1,)

    def test_gauss_legendre_scheme_also_agrees(self):
        p = unit_problem()
        q = QuadratureRule(a=-30.0, b=30.0, n=601, scheme="gauss_legendre")
        rep = unification_check(p, np.linspace(-5, 5, 20), q)
        assert rep.max_rel_dev <= 1e-3

    def test_analytic_diagonal(self):
        p = AdvectionProblem(c=1.0, lam=2.5)
        assert analytic_exponential_kernel(p, 1.3, 1.3) == pytest.approx(0.2, rel=1e-14)

    def test_rows_equal_single_pairs(self):
        # unsorted, with a repeated point: each pair is the lone-pair value, bit for bit
        p, q = unit_problem(), default_rule(n=801)
        grid = np.array([1.5, -2.0, 0.25, 1.5, -0.7, 3.0])
        rep = unification_check(p, grid, q)
        for x, y, kg, kr in zip(rep.x, rep.y, rep.K_green, rep.K_resolvent_sym):
            assert kg == symmetrized_kernel(p, x, y, q)
            assert kr == symmetrized_resolvent(p, x, y, q)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_speed_other_than_one_agrees(self, c):
        p, q = AdvectionProblem(c=c, lam=1.0), default_rule()
        rep = unification_check(p, np.linspace(-5, 5, 20), q)
        assert rep.max_rel_dev <= 1e-3
        assert rep.scalar == pytest.approx(c * c, rel=1e-3)
        assert rep.diag_dev <= 1e-3

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_non_positive_speed_rejected(self, c):
        with pytest.raises(ConfigurationError, match="speed"):
            AdvectionProblem(c=c, lam=1.0)

    def test_non_finite_points_rejected(self):
        p, q = unit_problem(), default_rule(n=801)
        with pytest.raises(ConfigurationError, match="finite"):
            unification_check(p, [0.0, np.nan, 1.0], q)
        with pytest.raises(ConfigurationError, match="finite"):
            symmetrized_kernel(p, 0.0, np.nan, q)
        with pytest.raises(ConfigurationError, match="finite"):
            symmetrized_resolvent(p, np.inf, 0.0, q)
