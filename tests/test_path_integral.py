"""Characteristic coordinates: endpoint accuracy, residuals, rank-one kernel."""

import numpy as np
import pytest

from flowkernels import dynamics as dyn, path_integral as pi
from flowkernels.grids import tensor_grid
from flowkernels.kernels import RankOneKernel
from flowkernels.errors import (
    ConfigurationError,
    FlowEscapeError,
    UnknownEigenvalueError,
)


@pytest.fixture(scope="module")
def poly():
    s = dyn.make_system("poly2d")
    return s, dyn.linearize(s)


@pytest.fixture(scope="module")
def duffing():
    s = dyn.make_system("duffing")
    return s, dyn.linearize(s)


@pytest.fixture(scope="module")
def linear():
    s = dyn.make_system("linear_test(1.0, -2.0)")
    return s, dyn.linearize(s)


# ----------------------------------------------------------------------------
# basic values
# ----------------------------------------------------------------------------

def test_equilibrium_maps_to_zero(poly, duffing):
    for s, lin in (poly, duffing):
        for lam in lin.eigenvalues:
            ev = pi.XiEvaluator(s, lin, lam, T=3.0, M=600)
            assert pi.xi_values(ev, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_linear_system_is_exact(linear):
    s, lin = linear
    x = np.array([0.3, 0.8])
    ev1 = pi.XiEvaluator(s, lin, 1.0, T=3.0, M=300)
    assert pi.xi_values(ev1, x) == pytest.approx(0.3, abs=1e-13)
    ev2 = pi.XiEvaluator(s, lin, -2.0, T=3.0, M=300)
    assert pi.xi_values(ev2, x) == pytest.approx(0.8, abs=1e-13)


def test_poly2d_fast_mode_matches_closed_form(poly):
    s, lin = poly
    ev = pi.XiEvaluator(s, lin, 3.0, T=2.0, M=2000)
    x = np.array([0.4, 0.3])
    v = dyn.poly2d_reference_eigenfunctions()[3.0]
    assert pi.xi_values(ev, x) == pytest.approx(v(x), abs=1e-4)


def test_xi_converges_at_fourth_order_to_closed_form(poly):
    # on poly2d's fast mode xi_T = v + u^2 e^{-5T} exactly, so what is left is
    # the flow's error: quartering the step cuts a fourth-order error ~256x
    s, lin = poly
    x = np.array([0.4, 0.3])
    u = x[0] - x[1] ** 2
    exact = dyn.poly2d_reference_eigenfunctions()[3.0](x) + u * u * np.exp(-5.0 * 2.0)
    errs = [abs(pi.xi_values(pi.XiEvaluator(s, lin, 3.0, T=2.0, M=M), x) - exact)
            for M in (500, 2000, 8000)]
    assert errs[0] / errs[1] >= 128.0 and errs[1] / errs[2] >= 128.0


def test_empty_batch_gives_empty_arrays(poly):
    s, lin = poly
    ev = pi.XiEvaluator(s, lin, 3.0, T=1.0, M=10)
    X = np.empty((0, 2))
    assert dyn.flow(s, X, ev.plan).shape == (0, 2)
    assert pi.xi_values(ev, X).shape == (0,)
    xi, res = pi.residual_values(ev, X)
    assert xi.shape == res.shape == (0,)


def test_batch_matches_pointwise(duffing):
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=3.0, M=600)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.5, 1.5, (8, 2))
    batch = pi.xi_values(ev, X)
    for i in range(8):
        assert batch[i] == pytest.approx(pi.xi_values(ev, X[i]), abs=1e-14)


def test_escaping_trajectory_raises(poly):
    s, lin = poly
    ev = pi.XiEvaluator(s, lin, -1.0, T=10.0, M=2000)
    with pytest.raises(FlowEscapeError) as err:
        pi.xi_values(ev, np.array([0.4, 0.3]))
    assert err.value.escape_time < 10.0


# ----------------------------------------------------------------------------
# mode selection
# ----------------------------------------------------------------------------

def test_mode_selection_directions(duffing):
    s, lin = duffing
    up = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=1.0, M=10)
    assert up.direction == 1
    down = pi.XiEvaluator(s, lin, lin.eigenvalues[1], T=1.0, M=10)
    assert down.direction == -1
    np.testing.assert_allclose(up.w @ lin.jacobian, up.lam * up.w, atol=1e-12)


def test_mode_selection_rejects_unknown_rate(duffing):
    s, lin = duffing
    with pytest.raises(UnknownEigenvalueError):
        pi.XiEvaluator(s, lin, 0.5, T=1.0, M=10)
    with pytest.raises(UnknownEigenvalueError):
        # matching is deliberately strict: five digits are not enough
        pi.XiEvaluator(s, lin, 0.78078, T=1.0, M=10)
    with pytest.raises(UnknownEigenvalueError):
        pi.XiEvaluator(s, lin, np.nan, T=1.0, M=10)
    zero = dyn.make_system("linear_test(0.0, -2.0)")
    with pytest.raises(ConfigurationError, match="nonzero"):
        pi.XiEvaluator(zero, dyn.linearize(zero), 0.0, T=1.0, M=10)


def test_evaluators_compare_by_identity(duffing):
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=1.0, M=10)
    twin = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=1.0, M=10)
    assert ev == ev
    assert ev != twin
    assert {ev: 1}[ev] == 1


@pytest.mark.parametrize("T, M", [(0.0, 10), (-1.0, 10), (np.inf, 10), (1.0, 0), (1.0, -3)])
def test_horizon_and_steps_validated(duffing, T, M):
    s, lin = duffing
    with pytest.raises(ConfigurationError):
        pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=T, M=M)


# ----------------------------------------------------------------------------
# transport residual
# ----------------------------------------------------------------------------

def test_residual_zero_for_linear_system(linear):
    s, lin = linear
    ev = pi.XiEvaluator(s, lin, -2.0, T=3.0, M=600)
    r = pi.residual_values(ev, [np.array([0.4, -0.7])])[1][0]
    assert abs(r) <= 1e-8


def test_residual_values_matches_pointwise(duffing):
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=4.0, M=800)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.2, 1.2, size=(7, 2))
    batch = pi.residual_values(ev, X)[1]
    single = np.array([pi.residual_values(ev, [x])[1][0] for x in X])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-10)


def test_residual_values_equals_separate_evaluations(duffing):
    # the one flow of all complex-step probes gives what separate xi_values
    # calls give one direction at a time, Im xi(X + ih e_j) / h, to the
    # rounding of the complex projection; its xi is the real part of that
    # flow, which matches xi(X) to rounding too
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=4.0, M=800)
    X = np.random.default_rng(12).uniform(-1.2, 1.2, size=(37, 2))
    h = 1e-200
    xi, res = pi.residual_values(ev, X)
    np.testing.assert_allclose(xi, pi.xi_values(ev, X), rtol=1e-14, atol=0)
    grads = np.stack([pi.xi_values(ev, X + 1j * h * e).imag / h for e in np.eye(2)], axis=1)
    want = np.sum(dyn.eval_field(s, X) * grads, axis=1) - ev.lam * xi
    np.testing.assert_allclose(res, want, rtol=1e-13, atol=0)


def test_residual_matches_theory(duffing):
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=8.0, M=3200)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-1.2, 1.2, 2)
        r = pi.residual_values(ev, [x])[1][0]
        th = pi.theoretical_residual(ev, x)
        assert isinstance(th, float)
        assert r == pytest.approx(th, rel=2e-3, abs=1e-9)

    # on the duffing_char grid the complex-step residual column is the
    # closed-form truncation term to 1e-7 mean relative error (central
    # differences at step 1e-5 reached 4.1e-6)
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=15.0, M=1500)
    X = tensor_grid([(-2.0, 2.0), (-2.0, 2.0)], 25)
    res, th = pi.residual_values(ev, X)[1], pi.theoretical_residual(ev, X)
    assert th.shape == (625,)
    assert np.mean(np.abs(res - th)) / np.mean(np.abs(th)) <= 1e-7


def test_residual_suppressed_at_long_horizon(duffing):
    s, lin = duffing
    lam = lin.eigenvalues[0]
    T = 40.0  # lam * T > 30
    ev = pi.XiEvaluator(s, lin, lam, T=T, M=8000)
    x = np.array([0.9, 0.2])
    r = pi.residual_values(ev, [x])[1][0]
    assert abs(r) <= 1e-6 * (1.0 + abs(pi.xi_values(ev, x)))


def test_residual_decays_at_dominant_rate(duffing):
    # |residual| ~ e^{-lam T} |w^T fnl(attractor)|: log-linear fit over a
    # horizon ladder recovers -lam
    s, lin = duffing
    lam = lin.eigenvalues[0]
    x = np.array([1.3, -0.4])
    Ts = np.array([2.0, 4.0, 6.0, 8.0])
    vals = []
    for T in Ts:
        ev = pi.XiEvaluator(s, lin, lam, T=T, M=int(T * 500))
        vals.append(abs(pi.theoretical_residual(ev, x)))
    slope = np.polyfit(Ts, np.log(vals), 1)[0]
    assert slope == pytest.approx(-lam, rel=0.2)


def test_horizon_convergence_slope(duffing):
    # pooled defect |xi_{2T} - xi_T| over a probe cloud decays at least
    # as fast as 0.8 * |lam| (individual probes oscillate with the focus
    # phase, pooling averages that out)
    s, lin = duffing
    lam = lin.eigenvalues[0]
    rng = np.random.default_rng(7)
    probes = rng.uniform(-1.5, 1.5, (12, 2))
    Ts = [3.0, 5.0, 7.0, 9.0]
    defect = []
    for T in Ts:
        ev1 = pi.XiEvaluator(s, lin, lam, T=T, M=int(T * 400))
        ev2 = pi.XiEvaluator(s, lin, lam, T=2 * T, M=int(2 * T * 400))
        defect.append(np.mean(np.abs(pi.xi_values(ev2, probes) - pi.xi_values(ev1, probes))))
    slope = np.polyfit(Ts, np.log(defect), 1)[0]
    assert slope <= -0.8 * lam


def test_horizon_convergence_poly2d_fast_mode(poly):
    # short horizons keep the truncation term above the quadrature floor
    s, lin = poly
    x = np.array([0.4, 0.3])
    Ts = [0.3, 0.6, 0.9, 1.2]
    defect = []
    for T in Ts:
        ev1 = pi.XiEvaluator(s, lin, 3.0, T=T, M=int(T * 4000))
        ev2 = pi.XiEvaluator(s, lin, 3.0, T=2 * T, M=int(2 * T * 4000))
        defect.append(abs(pi.xi_values(ev2, x) - pi.xi_values(ev1, x)))
    slope = np.polyfit(Ts, np.log(defect), 1)[0]
    assert slope <= -0.8 * 3.0


def test_linear_consistency_gradient_at_equilibrium(poly, duffing):
    # the complex-step gradient of xi at the equilibrium is the left
    # eigenvector w to rounding: the RK4 map's Jacobian there multiplies w
    # by the same R(|lam| dt)^M that xi divides by
    for (s, lin), lam, T in [(poly, 3.0, 4.0), (duffing, None, 8.0)]:
        if lam is None:
            lam = lin.eigenvalues[0]
        ev = pi.XiEvaluator(s, lin, lam, T=T, M=int(400 * T))
        _, w = lin.eigenpair(lam)
        g = dyn._value_and_grad(ev, np.zeros((1, 2)))[1][0]
        assert np.max(np.abs(g - w)) <= 1e-10


def test_transport_identity_along_flow(duffing):
    # xi(s_t(x)) tracks e^{lam t} xi(x) for modest t
    s, lin = duffing
    lam = lin.eigenvalues[0]
    ev = pi.XiEvaluator(s, lin, lam, T=10.0, M=4000)
    cfg = dyn.IntegratorConfig(1e-3, 1)
    rng = np.random.default_rng(9)
    for _ in range(4):
        x0 = rng.uniform(-1.0, 1.0, 2)
        for t in (0.3, 1.0):
            r = dyn.characteristic_identity_residual(
                s, lambda z: pi.xi_values(ev, z), lam, x0, t, cfg
            )
            xi0 = abs(pi.xi_values(ev, x0))
            assert r <= 1e-2 * (1.0 + xi0)


# ----------------------------------------------------------------------------
# rank-one kernel
# ----------------------------------------------------------------------------

def test_rank_one_kernel_properties(duffing):
    s, lin = duffing
    ev = pi.XiEvaluator(s, lin, lin.eigenvalues[0], T=4.0, M=800)
    k = RankOneKernel(ev)
    rng = np.random.default_rng(10)
    X = rng.uniform(-1.5, 1.5, (100, 2))
    diag = k.eval(X, X)
    assert np.all(diag >= 0)
    G = k.pairwise(X[:20])
    sv = np.linalg.svd(G, compute_uv=False)
    assert sv[1] <= 1e-10 * sv[0]
    np.testing.assert_allclose(k.eval(X[:5], np.zeros(2)), 0.0, atol=1e-12)
