"""Vector fields, linearization, and the RK4 flow map."""

import tracemalloc

import numpy as np
import pytest

from flowkernels import dynamics as dyn
from flowkernels.errors import (
    ConfigurationError,
    DimensionMismatchError,
    FlowEscapeError,
    UnsupportedSpectrumError,
)


@pytest.fixture(scope="module")
def cubic():
    return dyn.make_system("cubic1d")


@pytest.fixture(scope="module")
def poly():
    return dyn.make_system("poly2d")


@pytest.fixture(scope="module")
def duffing():
    return dyn.make_system("duffing")


# ----------------------------------------------------------------------------
# field evaluation
# ----------------------------------------------------------------------------

def test_cubic_field_value(cubic):
    # f(x) = x - x^3 at 0.5: 0.5 - 0.125
    assert dyn.eval_field(cubic, np.array([0.5]))[0] == pytest.approx(0.375, abs=1e-15)


def test_duffing_equilibria(duffing):
    np.testing.assert_allclose(dyn.eval_field(duffing, np.zeros(2)), 0.0, atol=1e-15)
    np.testing.assert_allclose(
        dyn.eval_field(duffing, np.array([1.0, 0.0])), 0.0, atol=1e-15
    )


def test_poly2d_field_from_closed_form_rates(poly):
    # u = x1 - x2^2 and v = x2 - u^2 must satisfy u' = -u, v' = 3v along f.
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(50, 2))
    F = dyn.eval_field(poly, X)
    u = X[:, 0] - X[:, 1] ** 2
    du = np.stack([np.ones(50), -2 * X[:, 1]], axis=1)
    np.testing.assert_allclose(np.sum(du * F, axis=1), -u, atol=1e-12)
    v = X[:, 1] - u ** 2
    dv = np.stack([-2 * u, 1 + 4 * u * X[:, 1]], axis=1)
    np.testing.assert_allclose(np.sum(dv * F, axis=1), 3 * v, atol=1e-12)


def test_dimension_mismatch_rejected(poly):
    with pytest.raises(DimensionMismatchError):
        dyn.eval_field(poly, np.array([1.0, 2.0, 3.0]))


def test_system_name_parsing():
    # the parsed arguments reach the field: E = [[0, 1], [-beta, -delta]]
    s = dyn.make_system("duffing(0.3, -1, 2.5)")
    np.testing.assert_array_equal(dyn.linearize(s).jacobian, [[0.0, 1.0], [1.0, -0.3]])
    s2 = dyn.make_system("linear_test(1, -2)")
    np.testing.assert_array_equal(dyn.linearize(s2).jacobian, [[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(ConfigurationError):
        dyn.make_system("no_such_system")
    with pytest.raises(ConfigurationError):
        dyn.make_system("duffing(fast)")
    for name, i in [("linear_test(nan, -2)", 1), ("duffing(0.5, -1, -inf)", 3)]:
        with pytest.raises(ConfigurationError, match=f"argument {i} of system .* is not finite"):
            dyn.make_system(name)


# ----------------------------------------------------------------------------
# linearization
# ----------------------------------------------------------------------------

def test_poly2d_spectrum(poly):
    lin = dyn.linearize(poly)
    np.testing.assert_allclose(lin.eigenvalues, [3.0, -1.0], atol=1e-12)


def test_duffing_linearization(duffing):
    lin = dyn.linearize(duffing)
    np.testing.assert_allclose(lin.jacobian, [[0.0, 1.0], [1.0, -0.5]], atol=1e-12)
    # roots of s^2 + 0.5 s - 1 = 0
    lam_plus = (-0.5 + np.sqrt(4.25)) / 2
    np.testing.assert_allclose(
        lin.eigenvalues, [lam_plus, -0.5 - lam_plus], atol=1e-12
    )
    assert lin.eigenvalues[0] == pytest.approx(0.7807764064044151, abs=1e-14)


def test_left_eigenvector_residual_and_scaling(duffing, poly):
    for sys in (duffing, poly):
        lin = dyn.linearize(sys)
        E, scale = lin.jacobian, max(np.max(np.abs(lin.jacobian)), 1.0)
        for lam, w in zip(lin.eigenvalues, lin.left_eigenvectors):
            assert np.max(np.abs(w @ E - lam * w)) <= 1e-10 * scale
            assert w[np.argmax(np.abs(w))] == pytest.approx(1.0, abs=1e-14)


def test_diagonal_linear_spectrum():
    lin = dyn.linearize(dyn.make_system("linear_test(1.5, -0.25)"))
    np.testing.assert_allclose(lin.eigenvalues, [1.5, -0.25], atol=1e-14)
    np.testing.assert_allclose(np.abs(lin.left_eigenvectors), np.eye(2), atol=1e-14)


def test_complex_spectrum_rejected():
    rot = dyn.SystemDef(
        "rotation", 2,
        lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        equilibrium=np.zeros(2),
    )
    with pytest.raises(UnsupportedSpectrumError):
        dyn.linearize(rot)


def test_repeated_spectrum_rejected():
    with pytest.raises(UnsupportedSpectrumError):
        dyn.linearize(dyn.make_system("linear_test(2, 2)"))


def test_advection_has_no_linearization():
    with pytest.raises(ConfigurationError):
        dyn.linearize(dyn.SystemDef("transport", 1, np.ones_like, equilibrium=None))


# exact Jacobians of the built-ins at their equilibrium x* = 0, default parameters
_EXACT_E = {
    "cubic1d": [[1.0]],
    "poly2d": [[-1.0, 0.0], [0.0, 3.0]],
    "duffing": [[0.0, 1.0], [1.0, -0.5]],
    "linear_test": [[-1.0, 0.0], [0.0, -2.0]],
}


@pytest.mark.parametrize("name", dyn.builtin_system_names())
def test_builtin_jacobian_is_exact(name):
    np.testing.assert_array_equal(dyn.linearize(dyn.make_system(name)).jacobian,
                                  _EXACT_E[name])


def _poly2d_jacobian(X):
    x1, x2 = X[:, 0], X[:, 1]
    u = x1 - x2 ** 2
    f2 = 3.0 * x2 - 5.0 * u ** 2
    df2 = np.stack([-10.0 * u, 3.0 + 20.0 * u * x2], axis=-1)
    df1 = np.stack([-1.0 + 2.0 * x2 * df2[:, 0],
                    2.0 * x2 + 2.0 * f2 + 2.0 * x2 * df2[:, 1]], axis=-1)
    return np.stack([df1, df2], axis=1)


def _duffing_jacobian(X, delta=0.5, beta=-1.0, alpha=1.0):
    J = np.zeros((len(X), 2, 2))
    J[:, 0, 1] = 1.0
    J[:, 1, 0] = -beta - 3.0 * alpha * X[:, 0] ** 2
    J[:, 1, 1] = -delta
    return J


@pytest.mark.parametrize("name, jacobian", [
    ("poly2d", _poly2d_jacobian),
    ("duffing", _duffing_jacobian),
    ("duffing(0.3, -1, 2.5)", lambda X: _duffing_jacobian(X, 0.3, -1.0, 2.5)),
])
def test_complex_step_jacobian_matches_closed_form(name, jacobian):
    sys = dyn.make_system(name)
    X = np.random.default_rng(7).uniform(-1.5, 1.5, (50, 2))
    F, J = dyn._value_and_grad(sys.f, X)
    assert J.shape == (50, 2, 2)
    np.testing.assert_array_equal(F, sys.f(X))
    # relative to the Jacobian's scale: an entry like 1 - 7.5 x1^2 cancels
    exact = jacobian(X)
    np.testing.assert_allclose(J, exact, rtol=0, atol=1e-14 * np.max(np.abs(exact)))


def test_offset_equilibrium_rejected(poly):
    off = dyn.SystemDef("poly2d_offset", 2, poly.f, equilibrium=np.array([0.1, 0.0]))
    with pytest.raises(ConfigurationError, match="'poly2d_offset' is not a zero of f"):
        dyn.linearize(off)


def test_non_finite_jacobian_rejected():
    blowup = dyn.SystemDef("blowup", 1, lambda x: np.inf * x, equilibrium=np.zeros(1))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ConfigurationError, match="'blowup' has a non-finite Jacobian"):
        dyn.linearize(blowup)


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_field_cast_to_float_rejected():
    # a float cast drops the complex-step probe, which would read as E = 0
    def f(x):
        return -np.asarray(x, dtype=float)

    cast = dyn.SystemDef("cast", 1, f, equilibrium=np.zeros(1))
    with pytest.raises(ConfigurationError, match="f returned real values"):
        dyn.linearize(cast)


def test_non_analytic_field_rejected():
    # the field stays complex, but abs takes the modulus of x1 - 0.5 + ih, so
    # the complex step reads E21 = 0 where a central difference reads -1
    def f(x):
        return np.stack([-x[..., 0], 3 * x[..., 1] + np.abs(x[..., 0] - 0.5)], axis=-1)

    kink = dyn.SystemDef("kink", 2, f, equilibrium=np.array([0.0, -1 / 6]))
    with pytest.raises(ConfigurationError,
                       match="'kink' is not complex-analytic .* is 1.000e\\+00 from a central"):
        dyn.linearize(kink)


def test_eigenpair_lookup(duffing):
    lin = dyn.linearize(duffing)
    lam, w = lin.eigenpair(0.78077641, tol=1e-6)
    assert lam == pytest.approx(0.7807764064044151)
    from flowkernels.errors import UnknownEigenvalueError

    with pytest.raises(UnknownEigenvalueError):
        lin.eigenpair(0.5)
    with pytest.raises(UnknownEigenvalueError):
        lin.eigenpair(np.nan)


# ----------------------------------------------------------------------------
# nonlinear part
# ----------------------------------------------------------------------------

def test_nonlinear_part_values(cubic, duffing):
    lin = dyn.linearize(cubic)
    # (0.5 - 0.125) - 1 * 0.5
    assert dyn.nonlinear_part(cubic, lin, np.array([0.5]))[0] == pytest.approx(
        -0.125, abs=1e-15
    )
    lind = dyn.linearize(duffing)
    np.testing.assert_allclose(
        dyn.nonlinear_part(duffing, lind, np.array([0.0, 1.0])), 0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        dyn.nonlinear_part(duffing, lind, np.zeros(2)), 0.0, atol=1e-15
    )


def test_nonlinear_part_of_linear_system_vanishes():
    sys = dyn.make_system("linear_test(0.7, -1.3)")
    lin = dyn.linearize(sys)
    rng = np.random.default_rng(1)
    X = rng.uniform(-5, 5, size=(40, 2))
    np.testing.assert_allclose(dyn.nonlinear_part(sys, lin, X), 0.0, atol=1e-12)
    # f(x) = A (x - c): the linearization is taken about the shifted equilibrium
    A, c = np.array([[0.7, 0.2], [0.0, -1.3]]), np.array([1.5, -2.0])
    shifted = dyn.SystemDef("shifted_linear", 2, lambda x: (x - c) @ A.T, equilibrium=c)
    np.testing.assert_allclose(
        dyn.nonlinear_part(shifted, dyn.linearize(shifted), X), 0.0, atol=1e-12
    )


# ----------------------------------------------------------------------------
# flow map
# ----------------------------------------------------------------------------

def _flow_states(system, x0, cfg):
    """Every state of a flow, (M+1, ...), collected through its step hook."""
    states = [np.asarray(x0, dtype=float)]
    dyn.flow(system, x0, cfg, on_step=lambda k, x: states.append(x))
    return np.stack(states)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_integrator_rejects_non_finite_step(dt):
    with pytest.raises(ConfigurationError, match="dt"):
        dyn.IntegratorConfig(dt=dt, M=3)


def test_flow_fixed_point(duffing):
    cfg = dyn.IntegratorConfig.from_horizon(2.0, 200)
    assert np.max(np.abs(_flow_states(duffing, np.zeros(2), cfg))) <= 1e-12


def test_flow_scalar_exponential():
    sys = dyn.SystemDef("decay", 1, lambda x: -x, equilibrium=np.zeros(1))
    cfg = dyn.IntegratorConfig.from_horizon(1.0, 1000)
    end = dyn.flow(sys, np.array([1.0]), cfg)
    assert abs(end[0] - np.exp(-1.0)) <= 1e-8


def test_flow_backward_inverts_forward(poly):
    cfg = dyn.IntegratorConfig.from_horizon(0.5, 500)
    x0 = np.array([0.3, -0.2])
    fwd = dyn.flow(poly, x0, cfg, direction="forward")
    back = dyn.flow(poly, fwd, cfg, direction="backward")
    np.testing.assert_allclose(back, x0, atol=1e-10)


def test_duffing_attractor_capture(duffing):
    cfg = dyn.IntegratorConfig.from_horizon(50.0, 25000)
    end = dyn.flow(duffing, np.array([0.5, 0.0]), cfg)
    assert np.linalg.norm(end - np.array([1.0, 0.0])) <= 1e-3


def test_flow_keeps_no_trajectory(duffing):
    # 2500 states for 1500 steps: storing every state would take
    # (M+1) * n * d * 8 bytes = 60 MB
    X0 = np.random.default_rng(4).uniform(-2.0, 2.0, (2500, 2))
    cfg = dyn.IntegratorConfig.from_horizon(15.0, 1500)
    tracemalloc.start()
    try:
        end = dyn.flow(duffing, X0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20
    assert end.shape == X0.shape


def test_flow_batch_matches_single(poly):
    cfg = dyn.IntegratorConfig.from_horizon(1.0, 100)
    X0 = np.array([[0.1, 0.2], [-0.3, 0.05]])
    batch = _flow_states(poly, X0, cfg)
    for i in range(2):
        single = _flow_states(poly, X0[i], cfg)
        np.testing.assert_allclose(batch[:, i], single, atol=1e-14)


def test_semigroup_property():
    sys = dyn.make_system("linear_test(0.5, -1.0)")
    x0 = np.array([1.0, 1.0])
    dt = 1e-3
    one = dyn.flow(sys, x0, dyn.IntegratorConfig(dt, 1500))
    first = dyn.flow(sys, x0, dyn.IntegratorConfig(dt, 700))
    two = dyn.flow(sys, first, dyn.IntegratorConfig(dt, 800))
    exact = np.array([np.exp(0.5 * 1.5), np.exp(-1.5)])
    single_err = np.linalg.norm(one - exact)
    assert np.linalg.norm(two - exact) <= 5 * max(single_err, 1e-15)
    np.testing.assert_allclose(two, one, atol=1e-11)


def test_rk4_is_fourth_order():
    sys = dyn.SystemDef("decay", 1, lambda x: -x, equilibrium=np.zeros(1))

    def err(dt):
        M = int(round(1.0 / dt))
        return abs(dyn.flow(sys, np.array([1.0]), dyn.IntegratorConfig(dt, M))[0]
                   - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("rate", [-1.5, 2.0])
def test_linear_growth_is_the_flows_factor(rate):
    sys = dyn.SystemDef("scale", 1, lambda x: rate * x, equilibrium=np.zeros(1))
    cfg = dyn.IntegratorConfig(dt=0.01, M=250)
    end = dyn.flow(sys, np.array([1.0]), cfg)[0]
    assert end == pytest.approx(cfg.linear_growth(rate), rel=1e-13)


def test_flow_escape_raises_with_time(poly):
    # backward from this point the slow coordinate grows ~ e^t and its square
    # feeds the fast one; the exact sup-norm crossing of 1e6 is near t = 4.6,
    # though a fixed-step integrator (whose stability limit is long gone by
    # then) only detects the escape somewhat later.  What matters: it raises
    # before reaching the horizon and reports when.
    cfg = dyn.IntegratorConfig.from_horizon(10.0, 2000)
    with pytest.raises(FlowEscapeError) as err:
        dyn.flow(poly, np.array([0.4, 0.3]), cfg, direction="backward")
    assert 4.0 < err.value.escape_time < 10.0
    assert err.value.radius == dyn.DEFAULT_ESCAPE_RADIUS


# ----------------------------------------------------------------------------
# transport identity along trajectories
# ----------------------------------------------------------------------------

def test_characteristic_identity_poly2d(poly):
    u = dyn.poly2d_reference_eigenfunctions()[-1.0]
    cfg = dyn.IntegratorConfig(1e-3, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, size=2)
        r = dyn.characteristic_identity_residual(poly, u, -1.0, x0, 0.5, cfg)
        assert r <= 1e-4


def test_characteristic_identity_trivial_cases(poly):
    u = dyn.poly2d_reference_eigenfunctions()[-1.0]
    cfg = dyn.IntegratorConfig(1e-3, 1)
    assert dyn.characteristic_identity_residual(poly, u, -1.0, np.array([0.2, 0.1]), 0.0, cfg) == 0.0
    const = lambda x: 1.0
    r = dyn.characteristic_identity_residual(poly, const, 0.0, np.array([0.2, 0.1]), 0.7, cfg)
    assert r <= 1e-14


def test_reference_eigenfunction_matches_the_rate():
    refs = dyn.poly2d_reference_eigenfunctions()
    for lam in (-1.0, 3.0):
        assert dyn.reference_eigenfunction("poly2d", lam + 1e-10) is refs[lam]
    assert dyn.reference_eigenfunction("poly2d", 3.0 + 1e-8) is None
    assert dyn.reference_eigenfunction("duffing", -1.0) is None


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_characteristic_identity_rejects_non_finite_time(poly, t):
    u = dyn.poly2d_reference_eigenfunctions()[-1.0]
    with pytest.raises(ConfigurationError, match="time t must be finite"):
        dyn.characteristic_identity_residual(
            poly, u, -1.0, np.array([0.2, 0.1]), t, dyn.IntegratorConfig(1e-3, 1))
