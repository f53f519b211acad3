"""End-to-end acceptance gate.

One test per shipped claim, each printing a single
``[acceptance] n: PASS/FAIL (...)`` line with the measured numbers.
Claims are asserted exactly as stated; where a target is not reachable
the test stays red and the printed line carries the measurement, so the
suite documents the gap instead of hiding it.
"""

import time

import numpy as np
import pytest

from flowkernels.advection import AdvectionProblem, QuadratureRule, unification_check
from flowkernels.cli import main
from flowkernels.collocation import (
    CollocationProblem,
    PenaltyConfig,
    assemble,
    evaluate,
    normal_matrix,
    rescale_rmse,
    solve,
)
from flowkernels.config import ExperimentConfig, preset, preset_names
from flowkernels.dynamics import (
    IntegratorConfig,
    characteristic_identity_residual,
    flow,
    linearize,
    make_system,
    poly2d_reference_eigenfunctions,
)
from flowkernels.errors import FlowEscapeError
from flowkernels.grids import tensor_grid
from flowkernels.kernels import KernelMixture, PolynomialKernel, make_kernel
from flowkernels.mkl import MKLConfig, mkl_solve, refit_pruned, sparsify
from flowkernels.path_integral import (
    XiEvaluator,
    residual_values,
    theoretical_residual,
    xi_values,
)
from flowkernels.spectral import (
    koopman_mode_check,
    mercer_decompose,
    trajectory_eigenrelation_check,
)
from test_kernels import kernel_gradient

POLY2D = make_system("poly2d")
POLY2D_LIN = linearize(POLY2D)
REFS = poly2d_reference_eigenfunctions()
GRID2 = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])


def _emit(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def _metrics(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        k, _, v = line.partition(" = ")
        out[k] = v
    return out


def test_criterion_1_singular_kernel(tmp_path, capsys):
    t0 = time.perf_counter()
    rc_s = main(["solve", "--preset", "cubic1d_singular", "--out", str(tmp_path / "s")])
    elapsed = time.perf_counter() - t0
    rc_r = main(["solve", "--preset", "cubic1d_rbf", "--out", str(tmp_path / "r")])
    assert rc_s == 0 and rc_r == 0
    rmse_s = float(_metrics(tmp_path / "s" / "cubic1d_singular_metrics.txt")["rmse_rescaled"])
    rmse_r = float(_metrics(tmp_path / "r" / "cubic1d_rbf_metrics.txt")["rmse_rescaled"])
    gap = rmse_r / rmse_s

    ok = rmse_s <= 5e-4 and elapsed < 5.0 and rmse_r >= 0.5 and gap >= 1e3
    detail = (f"singular rmse={rmse_s:.3e} in {elapsed:.2f}s, "
              f"rbf rmse={rmse_r:.3e}, gap={gap:.1e}x")
    _emit(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_kernel_choice_study(capsys):
    ref = REFS[-1.0]
    t0 = time.perf_counter()
    sols = {}
    for label, kern in [
        ("poly", make_kernel("polynomial", degree=2, coef0=0.5)),
        ("gauss", make_kernel("gaussian", gamma=1.0)),
    ]:
        prob = CollocationProblem.for_eigenvalue(POLY2D, -1.0, kern, GRID2)
        sols[label] = solve(prob, reference=ref)
    elapsed = time.perf_counter() - t0
    rmse_p = sols["poly"].rmse_rescaled
    rmse_g = sols["gauss"].rmse_rescaled
    ratio = rmse_g / rmse_p

    ok = rmse_p <= 1e-4 and rmse_g <= 1e-2 and ratio >= 10.0 and elapsed < 10.0
    detail = (f"poly rmse={rmse_p:.3e} [<=1e-4], gauss rmse={rmse_g:.3e} [<=1e-2], "
              f"ratio={ratio:.1e} [>=10], {elapsed:.2f}s")
    _emit(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_mkl_full_bank(capsys):
    t0 = time.perf_counter()
    res_slow = mkl_solve(POLY2D, -1.0, GRID2, MKLConfig(), reference=REFS[-1.0])
    res_fast = mkl_solve(POLY2D, 3.0, GRID2, MKLConfig(), reference=REFS[3.0])
    elapsed = time.perf_counter() - t0

    beta_ok = np.all((res_slow.beta >= 0.08) & (res_slow.beta <= 0.10))
    ok = (beta_ok and res_slow.rmse_rescaled <= 0.25
          and res_fast.rmse_rescaled <= 0.15 and elapsed < 60.0)
    detail = (f"beta in [{res_slow.beta.min():.4f}, {res_slow.beta.max():.4f}], "
              f"rmse(lam=-1)={res_slow.rmse_rescaled:.3e} [<=0.25], "
              f"rmse(lam=3)={res_fast.rmse_rescaled:.3e} [<=0.15], {elapsed:.1f}s")
    _emit(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_sparsification(capsys):
    ref = REFS[-1.0]
    pruned = sparsify(mkl_solve(POLY2D, -1.0, GRID2, MKLConfig(tau=0.1), reference=ref))
    empty_ok = pruned.pruned_beta is not None and pruned.pruned_beta.size == 0

    mixture = KernelMixture(
        [PolynomialKernel(degree=d, coef0=1.0) for d in (2, 3, 4)],
        [0.331, 0.378, 0.291],
    )
    refit = refit_pruned(POLY2D, -1.0, GRID2, mixture, reference=ref)

    ok = empty_ok and refit.rmse_rescaled <= 0.2
    detail = (f"uniform beta pruned to empty: {empty_ok}, "
              f"hand-set trio pruned rmse={refit.rmse_rescaled:.3e} [<=0.2]")
    _emit(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_5_kernel_unification(capsys):
    problem = AdvectionProblem(c=1.0, lam=1.0, a=-30.0, b=30.0)
    rule = QuadratureRule(-30.0, 30.0, n=4001)
    grid = np.linspace(-5.0, 5.0, 20)
    t0 = time.perf_counter()
    report = unification_check(problem, grid, rule)
    elapsed = time.perf_counter() - t0

    ok = report.max_rel_dev <= 1e-3 and report.diag_dev <= 1e-3 and elapsed < 1.0
    detail = (f"max_rel_dev={report.max_rel_dev:.2e} [<=1e-3], "
              f"diag dev={report.diag_dev:.2e} [<=1e-3], "
              f"scalar={report.scalar:.6f}, {elapsed:.2f}s")
    _emit(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_trajectory_eigenrelation(capsys):
    probes = tensor_grid([(0.1, 0.7), (0.2, 0.8)], [5, 5])
    report = trajectory_eigenrelation_check(POLY2D, REFS[3.0], 3.0, probes, T=3.2, M=4000)
    n_inc = int(report.included.sum())

    ok = n_inc == 25 and report.max_deviation <= 1e-2
    detail = f"max dev={report.max_deviation:.2e} [<=1e-2] over {n_inc}/25 probes"
    _emit(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_finite_rank_modes(capsys):
    vals = np.stack([REFS[-1.0](GRID2), REFS[3.0](GRID2)])
    report = koopman_mode_check(vals)

    ok = report.spectrum_deviation <= 1e-8 and report.subspace_angle <= 1e-6
    detail = (f"spectrum dev={report.spectrum_deviation:.2e} [<=1e-8], "
              f"subspace angle={report.subspace_angle:.2e} [<=1e-6]")
    _emit(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_8_path_integral_consistency(tmp_path, capsys):
    # In u = x1 - x2^2, v = x2 - u^2 the poly2d flow is u' = -u, v' = 3v, so
    # the rate -1 coordinate has the closed form
    #   xi_T = e^{-T} x1(s_{-T} x) = u + u^4 e^{3T} + 2 v u^2 e^{-2T} + v^2 e^{-7T}
    # and its transport defect is
    #   R(T) = 7 v^2 e^{-7T} + 4 v u^2 e^{-2T} - 3 u^4 e^{3T}.
    u_ref, v_ref = REFS[-1.0], REFS[3.0]

    # clause a: horizon 10 is out of reach on the study grid -- the exact
    # backward flow from (-1, +-1) leaves the escape radius at t~2.76 and
    # xi_10 reaches ~1.7e14 there -- so the flow must report the escape, and
    # at T=1 the coordinate must match its closed form on the whole grid
    try:
        xi_values(XiEvaluator(POLY2D, POLY2D_LIN, -1.0, T=10.0, M=1000), GRID2)
        ok_esc, det_esc = False, "T=10 did not escape"
    except FlowEscapeError as exc:
        ok_esc, det_esc = True, f"T=10 escapes at t={exc.escape_time:.2f}"
    T = 1.0
    u, v = u_ref(GRID2), v_ref(GRID2)
    exact = u + u ** 4 * np.exp(3 * T) + 2 * v * u ** 2 * np.exp(-2 * T) + v ** 2 * np.exp(-7 * T)
    err_a = float(np.max(np.abs(
        xi_values(XiEvaluator(POLY2D, POLY2D_LIN, -1.0, T=T, M=1000), GRID2) - exact)))
    ok_a = ok_esc and err_a <= 1e-3
    det_a = f"{det_esc}; T=1 max err vs closed form={err_a:.2e} [<=1e-3]"

    # clause b: log-slope of the transport defect across horizons at a fixed
    # interior probe, against the slope of R(T); the u^4 e^{3T} term makes
    # the defect grow, and the trajectory reaches x1~7.9e5 at T=8, hence the
    # fine step
    x = np.array([0.05, 0.2])
    horizons = np.array([2.0, 4.0, 6.0, 8.0])
    u, v = u_ref(x), v_ref(x)
    exact_r = (7 * v ** 2 * np.exp(-7 * horizons) + 4 * v * u ** 2 * np.exp(-2 * horizons)
               - 3 * u ** 4 * np.exp(3 * horizons))
    target = float(np.polyfit(horizons, np.log(np.abs(exact_r)), 1)[0])
    logs = []
    det_b = None
    for T in horizons:
        ev_t = XiEvaluator(POLY2D, POLY2D_LIN, -1.0, T=T, M=int(1000 * T))
        try:
            logs.append(np.log(abs(residual_values(ev_t, [x])[1][0])))
        except FlowEscapeError as exc:
            det_b = f"slope unavailable: escape at T={T} (t={exc.escape_time:.2f})"
            break
    if det_b is None:
        slope = float(np.polyfit(horizons, logs, 1)[0])
        ok_b = abs(slope - target) <= 0.2 * abs(target)
        det_b = f"log-residual slope={slope:.2f} [closed form {target:.2f} +- 20%]"
    else:
        ok_b = False

    # clause c: the duffing preset's residual column against the closed-form
    # truncation term e^{-lam T} w^T fnl(s_T x), and its residual/xi ratio
    # against the closed-form ratio (xi_T = e^{-lam T} w^T s_T x), both from
    # one batched flow at the preset's horizon, steps and grid
    rc = main(["path-integral", "--preset", "duffing_char", "--out", str(tmp_path)])
    assert rc == 0
    metrics = _metrics(tmp_path / "duffing_char_metrics.txt")
    ratio = float(metrics["residual_over_xi"])
    table = np.loadtxt(tmp_path / "duffing_char_xi.csv", delimiter=",", skiprows=1)
    X, res = table[:, :2], table[:, 3]
    duffing = make_system("duffing")
    ev = XiEvaluator(duffing, linearize(duffing), float(metrics["lam"]),
                     float(metrics["T"]), int(metrics["M"]))
    term = theoretical_residual(ev, X)
    end = flow(duffing, X, ev.plan, direction=ev.direction)
    exact_xi = np.exp(-ev.lam * ev.direction * ev.T) * ((end - duffing.equilibrium) @ ev.w)
    exact_ratio = float(np.mean(np.abs(term)) / np.mean(np.abs(exact_xi)))
    rel_res = float(np.mean(np.abs(res - term)) / np.mean(np.abs(term)))
    ok_c = rel_res <= 1e-2 and abs(ratio - exact_ratio) <= 1e-2 * exact_ratio
    det_c = (f"duffing residual vs closed-form term: mean rel err={rel_res:.2e} [<=1e-2], "
             f"mean|residual|/mean|xi|={ratio:.4f} [closed form {exact_ratio:.4f} +- 1%]")

    ok = ok_a and ok_b and ok_c
    detail = f"{det_a}; {det_b}; {det_c}"
    _emit(capsys, 8, ok, detail)
    assert ok, detail


def test_criterion_9_property_suites(tmp_path, capsys):
    rng = np.random.default_rng(0)
    checks = {}

    # kernel bank: symmetry, positive semidefiniteness, analytic gradients
    X = rng.uniform(-1.0, 1.0, size=(20, 2))
    kern = make_kernel("gaussian", gamma=1.0)
    K = kern.pairwise(X, X)
    eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
    g_an = kernel_gradient(kern, X[:1], X[1:2])[0, 0]
    h = 1e-6
    g_fd = np.array([
        (kern.eval(X[0] + h * e, X[1]) - kern.eval(X[0] - h * e, X[1])) / (2 * h)
        for e in np.eye(2)
    ])
    checks["kernels"] = (
        np.max(np.abs(K - K.T)) <= 1e-12
        and eigs.min() >= -1e-10 * eigs.max()
        and np.allclose(g_an, g_fd, rtol=1e-6, atol=1e-9)
    )

    # dynamics: flow semigroup and fourth-order step error
    x0 = np.array([0.3, -0.4])
    cfg = IntegratorConfig(dt=0.01, M=100)
    half = IntegratorConfig(dt=0.01, M=50)
    one_go = flow(POLY2D, x0, cfg)
    two_legs = flow(POLY2D, flow(POLY2D, x0, half), half)
    ref = flow(POLY2D, x0, IntegratorConfig(dt=0.4 / 4096, M=4096))
    err_h = np.linalg.norm(flow(POLY2D, x0, IntegratorConfig(dt=0.05, M=8)) - ref)
    err_h2 = np.linalg.norm(flow(POLY2D, x0, IntegratorConfig(dt=0.025, M=16)) - ref)
    checks["dynamics"] = (
        np.linalg.norm(one_go - two_legs) <= 1e-10
        and 12.0 <= err_h / err_h2 <= 20.0
    )

    # characteristic identity along the flow
    dev = characteristic_identity_residual(
        POLY2D, REFS[3.0], 3.0, np.array([0.3, 0.4]), 0.5, IntegratorConfig(1e-3, 500)
    )
    checks["characteristic"] = dev <= 1e-4

    # variational: strict convexity, anchor-scale covariance, rescale invariance
    Xs = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], [9, 9])
    kern2 = make_kernel("polynomial", degree=2, coef0=0.5)
    prob1 = CollocationProblem.for_eigenvalue(POLY2D, -1.0, kern2, Xs)
    prob2 = CollocationProblem(
        system=POLY2D, lam=prob1.lam, kernel=kern2, points=Xs,
        anchor_target=2.0 * prob1.anchor_target, penalties=PenaltyConfig(),
    )
    a1, a2 = solve(prob1).alpha, solve(prob2).alpha
    min_eig = np.linalg.eigvalsh(normal_matrix(prob1, assemble(prob1))).min()
    learned = evaluate(solve(prob1), Xs)
    target = REFS[-1.0](Xs)
    rmse_1 = rescale_rmse(learned, target)[1]
    rmse_s = rescale_rmse(7.3 * learned, target)[1]
    checks["variational"] = (
        min_eig > 0
        and np.allclose(a2, 2.0 * a1, rtol=1e-8, atol=1e-12)
        and abs(rmse_1 - rmse_s) <= 1e-12
    )

    # mkl: simplex feasibility and bitwise determinism
    small = MKLConfig(
        base_kernels=[make_kernel("gaussian", gamma=1.0),
                      make_kernel("cauchy", gamma=1.0),
                      make_kernel("polynomial", degree=2, coef0=1.0)],
    )
    r1 = mkl_solve(POLY2D, -1.0, Xs, small)
    r2 = mkl_solve(POLY2D, -1.0, Xs, small)
    checks["mkl"] = (
        abs(r1.beta.sum() - 1.0) <= 1e-9 and np.all(r1.beta > 0)
        and np.array_equal(r1.beta, r2.beta) and np.array_equal(r1.alpha, r2.alpha)
    )

    # spectral: Mercer reconstruction and weighted orthonormality
    Xm = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], [7, 7])
    dec = mercer_decompose(kern, grid=Xm)
    Km = kern.pairwise(Xm, Xm)
    gram = (dec.modes * dec.weights[:, None]).T @ dec.modes
    checks["spectral"] = (
        np.max(np.abs(dec.reconstruction() - Km)) <= 1e-8 * np.max(np.abs(Km))
        and np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8
    )

    # cli: config round trip and byte-identical reruns
    rt = all(ExperimentConfig.from_string(preset(n).to_string()) == preset(n)
             for n in preset_names())
    for d in ("a", "b"):
        assert main(["unify", "--preset", "unify_advection",
                     "--out", str(tmp_path / d)]) == 0
    fa, fb = tmp_path / "a", tmp_path / "b"
    same = all((fa / f.name).read_bytes() == (fb / f.name).read_bytes()
               for f in fa.iterdir())
    checks["cli"] = rt and same

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    _emit(capsys, 9, ok, detail)
    assert ok, detail
