"""Kernel bank: closed-form values, gradients, Gram properties, mixtures."""

import warnings

import numpy as np
import pytest

from flowkernels import kernels as kn
from flowkernels.collocation import CollocationProblem, assemble, residual_field, solve
from flowkernels.dynamics import eval_field, make_system
from flowkernels.errors import ConfigurationError
from flowkernels.grids import tensor_grid
from flowkernels.mkl import default_kernel_bank

ALL_FAMILIES = [
    kn.GaussianKernel(gamma=1.0),
    kn.ExponentialKernel(gamma=1.0),
    kn.CauchyKernel(gamma=1.0),
    kn.InverseQuadraticKernel(gamma=1.0),
    kn.TriangularKernel(sigma=2.0),
    kn.SigmoidKernel(gamma=0.5, coef0=0.0),
    kn.PolynomialKernel(degree=3, coef0=1.0),
]


# positive semidefinite in every dimension; triangular is so only on the
# line, and sigmoid is indefinite
PSD_FAMILIES = [k for k in ALL_FAMILIES
                if k.family in ("gaussian", "exponential", "cauchy", "inverse_quadratic",
                                "polynomial")]

# families with a kink on the diagonal (and, for triangular, at the support edge)
KINKED_FAMILIES = {"exponential", "triangular"}


def random_pairs(n, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, (n, dim)), rng.uniform(-scale, scale, (n, dim))


def kernel_gradient(k, X, Y):
    """Gradient of k in its first argument at every (X[i], Y[j]), shape
    (n, m, d): directional_pairwise along each unit direction in turn."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, d = X.shape
    return np.stack([k.directional_pairwise(X, np.tile(e, (n, 1)), Y)[1] for e in np.eye(d)],
                    axis=-1)


# ----------------------------------------------------------------------------
# closed-form values
# ----------------------------------------------------------------------------

def test_gaussian_diagonal_is_one():
    k = kn.GaussianKernel(gamma=2.7)
    X, _ = random_pairs(20, 3, 0)
    np.testing.assert_allclose(k.eval(X, X), 1.0, atol=1e-15)


def test_polynomial_value_and_gradient():
    k = kn.PolynomialKernel(degree=2, coef0=0.5)
    x = np.array([1.0, 0.0])
    assert k.eval(x, x) == pytest.approx(2.25, abs=1e-15)
    np.testing.assert_allclose(kernel_gradient(k, [x], [x])[0, 0], [3.0, 0.0], atol=1e-15)


def test_singular_kernel_values_and_domain():
    k = kn.make_kernel("singular_1d")
    assert k.eval(np.array([0.5]), np.array([0.5])) == pytest.approx(1 / 3, abs=1e-15)
    g = kernel_gradient(k, [[0.0]], [[0.5]])[0, 0]
    assert g[0] == pytest.approx(0.5773502691896258, abs=1e-15)
    with pytest.raises(ConfigurationError):
        k.eval(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ConfigurationError, match=r"point index 2, x=\[nan\]"):
        k.pairwise(np.array([[0.5], [-0.5], [np.nan], [1.0]]))
    with pytest.raises(ConfigurationError, match="1-D points"):
        k.pairwise(np.zeros((3, 2)))


def test_gaussian_lengthscale_conversion():
    k = kn.GaussianKernel(ell=0.3)
    assert k.gamma == pytest.approx(1.0 / 0.18)
    assert k.params["ell"] == 0.3
    with pytest.raises(ConfigurationError):
        kn.GaussianKernel(gamma=1.0, ell=0.3)
    with pytest.raises(ConfigurationError):
        kn.GaussianKernel()


@pytest.mark.parametrize("cls, params", [
    (kn.GaussianKernel, {"gamma": np.nan}),
    (kn.GaussianKernel, {"ell": np.inf}),
    (kn.TriangularKernel, {"sigma": np.nan}),
    (kn.PolynomialKernel, {"coef0": np.nan}),
    (kn.PolynomialKernel, {"degree": np.nan}),
    (kn.PolynomialKernel, {"degree": np.inf}),
    (kn.SigmoidKernel, {"coef0": np.nan}),
], ids=["gaussian_gamma", "gaussian_ell", "triangular_sigma", "polynomial_coef0",
        "polynomial_degree_nan", "polynomial_degree_inf", "sigmoid_coef0"])
def test_non_finite_hyperparameters_rejected(cls, params):
    with pytest.raises(ConfigurationError, match=next(iter(params))):
        cls(**params)


def test_cauchy_matches_inverse_quadratic_at_unit_scale():
    c, q = kn.CauchyKernel(gamma=1.0), kn.InverseQuadraticKernel(gamma=1.0)
    X, Y = random_pairs(50, 2, 4)
    np.testing.assert_allclose(c.eval(X, Y), q.eval(X, Y), atol=1e-15)


def test_high_degree_warns():
    with pytest.warns(UserWarning):
        kn.PolynomialKernel(degree=7)


# ----------------------------------------------------------------------------
# symmetry / PSD / gradient agreement
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("k", ALL_FAMILIES, ids=lambda k: k.family)
def test_symmetry(k):
    X, Y = random_pairs(1000, 2, 7)
    assert np.max(np.abs(k.eval(X, Y) - k.eval(Y, X))) <= 1e-12


def test_singular_symmetry():
    k = kn.make_kernel("singular_1d")
    rng = np.random.default_rng(8)
    x, y = rng.uniform(-0.95, 0.95, (2, 500, 1))
    assert np.max(np.abs(k.eval(x, y) - k.eval(y, x))) <= 1e-12


@pytest.mark.parametrize("k", PSD_FAMILIES, ids=lambda k: k.family)
def test_gram_positive_semidefinite(k):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (50, 2))
        G = k.pairwise(X)
        mineig = np.linalg.eigvalsh(G).min()
        assert mineig >= -1e-8 * G.diagonal().max()


def test_triangular_gram_psd_on_line():
    # compact-support cone kernel is a valid covariance in one dimension
    k = kn.TriangularKernel(sigma=0.8)
    X = np.linspace(-1, 1, 40)[:, None]
    G = k.pairwise(X)
    assert np.linalg.eigvalsh(G).min() >= -1e-8 * G.diagonal().max()


def test_singular_gram_is_rank_one():
    k = kn.make_kernel("singular_1d")
    X = np.linspace(-0.9, 0.9, 30)[:, None]
    s = np.linalg.svd(k.pairwise(X), compute_uv=False)
    assert s[1] <= 1e-10 * s[0]


# (kernel, seed, points drawn from [-scale, scale]^dim, step h, draws)
FD_CASES = [(k, 11, 1.0, 2, 1e-5, 30) for k in ALL_FAMILIES] + [
    (kn.make_kernel("singular_1d"), 12, 0.9, 1, 1e-6, 20),
]


@pytest.mark.parametrize("k, seed, scale, dim, h, draws", FD_CASES,
                         ids=[case[0].family for case in FD_CASES])
def test_gradient_matches_finite_differences(k, seed, scale, dim, h, draws):
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(draws):
        x, y = rng.uniform(-scale, scale, (2, dim))
        r = np.linalg.norm(x - y)
        if k.family in KINKED_FAMILIES and (r < 0.1 or abs(r - getattr(k, "sigma", np.inf)) < 0.05):
            continue  # keep away from kinks
        g = kernel_gradient(k, [x], [y])[0, 0]
        gfd = np.array([(k.eval(x + e, y) - k.eval(x - e, y)) / (2 * h) for e in h * np.eye(dim)])
        denom = max(np.linalg.norm(gfd), 1e-8)
        assert np.linalg.norm(g - gfd) / denom <= 1e-5
        checked += 1
    assert checked >= 15


def test_gaussian_gradient_vanishes_on_diagonal():
    k = kn.GaussianKernel(gamma=1.0)
    x = np.array([0.3, -0.4])
    np.testing.assert_allclose(kernel_gradient(k, [x], [x])[0, 0], 0.0, atol=1e-15)


def test_triangular_edge_flag():
    k = kn.TriangularKernel(sigma=1.0)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    np.testing.assert_allclose(kernel_gradient(k, [x], [y])[0, 0], [-1.0, 0.0],
                               atol=1e-12)  # interior slope


# ----------------------------------------------------------------------------
# Gram assembly
# ----------------------------------------------------------------------------

def test_gram_single_point():
    k = kn.PolynomialKernel(degree=2, coef0=0.5)
    G = k.pairwise(np.array([[1.0, 0.0]]))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(2.25)


def test_gram_gaussian_strictly_positive():
    k = kn.GaussianKernel(gamma=1.0)
    X = np.linspace(-1, 1, 10)[:, None]
    assert np.linalg.eigvalsh(k.pairwise(X)).min() > 0


def test_rank_one_kernel_gram():
    xi = lambda x: x[..., 0] ** 2 - x[..., 1]
    k = kn.RankOneKernel(xi)
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, (25, 2))
    s = np.linalg.svd(k.pairwise(X), compute_uv=False)
    assert s[1] <= 1e-10 * s[0]


def test_rank_one_fd_gradient():
    xi = lambda x: np.sin(x[..., 0]) * x[..., 1]
    k = kn.RankOneKernel(xi)
    x, y = np.array([0.4, 0.7]), np.array([-0.2, 0.3])
    expected = xi(y) * np.array([np.cos(0.4) * 0.7, np.sin(0.4)])
    np.testing.assert_allclose(kernel_gradient(k, [x], [y])[0, 0], expected, atol=1e-9)


# ----------------------------------------------------------------------------
# the directional assembly path against the (N, N, d) gradient tensor
# ----------------------------------------------------------------------------

def _tensor_reference(k, system, lam, X, Y=None):
    """K and B = F . grad_x K - lam K built from the full gradient tensor."""
    Y = X if Y is None else Y
    G = kernel_gradient(k, X, Y)
    K = k.pairwise(X, Y)
    return K, np.einsum("ijd,id->ij", G, eval_field(system, X)) - lam * K, G


@pytest.mark.parametrize("k", ALL_FAMILIES, ids=lambda k: k.family)
def test_directional_assembly_is_bit_identical_to_gradient_tensor(k):
    system = make_system("poly2d")
    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 31)
    prob = CollocationProblem.for_eigenvalue(system, -1.0, k, X)
    asm = assemble(prob)
    K, B, G = _tensor_reference(k, system, prob.lam, X)
    # the full basis keeps no Gram matrix; a center basis of every point
    # keeps K(X, X) as pairwise fills it
    assert asm.K is None
    assert np.array_equal(assemble(prob, np.arange(len(X))).K, K)
    assert np.array_equal(asm.B, B)
    assert np.array_equal(asm.G0, kernel_gradient(k, np.zeros((1, 2)), X)[0].T)
    if k.family in ("exponential", "triangular"):
        assert np.all(G[np.arange(len(X)), np.arange(len(X))] == 0.0)

    # residual_field against the (P, N, d) formula, relative to the size of
    # the terms that cancel in it
    sol = solve(prob)
    P = np.random.default_rng(17).uniform(-1.0, 1.0, (200, 2))
    Kp, Bp, Gp = _tensor_reference(k, system, prob.lam, P, X)
    ref = np.sum(eval_field(system, P) * np.einsum("pnd,n->pd", Gp, sol.alpha), axis=1)
    ref -= prob.lam * (Kp @ sol.alpha)
    scale = np.max((np.abs(Bp + prob.lam * Kp) + abs(prob.lam) * np.abs(Kp)) @ np.abs(sol.alpha))
    np.testing.assert_allclose(residual_field(sol, P), ref, rtol=0, atol=1e-12 * scale)


def test_directional_assembly_of_kernels_with_their_own_code():
    poly2d, cubic = make_system("poly2d"), make_system("cubic1d")
    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 15)
    bank = default_kernel_bank()
    cases = [
        (kn.KernelMixture(bank, np.full(len(bank), 1.0 / len(bank))), poly2d, X),
        (kn.RankOneKernel(lambda x: x[..., 0] - x[..., 1] ** 2), poly2d, X),
        (kn.make_kernel("singular_1d"), cubic, np.linspace(-0.9, 0.9, 40)[:, None]),
    ]
    for k, system, pts in cases:
        K, D = k.directional_pairwise(pts, eval_field(system, pts))
        K_ref, B_ref, _ = _tensor_reference(k, system, 0.0, pts)
        np.testing.assert_allclose(K, K_ref, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(D, B_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(B_ref)))


# ----------------------------------------------------------------------------
# row-blocked directional assembly
# ----------------------------------------------------------------------------

BLOCKED_CASES = ALL_FAMILIES + [
    kn.KernelMixture(ALL_FAMILIES[:3], [0.2, 0.3, 0.5]),
    kn.RankOneKernel(lambda x: x[..., 0] - x[..., 1] ** 2 + np.sin(x[..., 1])),
]


def _family_case(family):
    """A kernel of the family at its default hyperparameters, the points X
    it is defined on and probes P off them."""
    rng = np.random.default_rng(29)
    if family == "singular_1d":
        return kn.make_kernel(family), np.linspace(-0.9, 0.9, 40)[:, None], \
            rng.uniform(-0.9, 0.9, (15, 1))
    k = kn.make_kernel(family, **({"gamma": 1.0} if family == "gaussian" else {}))
    return k, tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 13), rng.uniform(-1.0, 1.0, (50, 2))


@pytest.mark.parametrize("family", kn.kernel_family_names())
def test_values_fill_is_the_value_half_of_the_directional_fill(family):
    # a values-only fill skips the derivative factor and changes no value
    k, X, P = _family_case(family)
    for A, Y in ((X, X), (P, X)):
        F = np.random.default_rng(31).standard_normal(A.shape)
        K, _ = k.directional_pairwise(A, F, Y)
        assert np.array_equal(k.pairwise(A, Y), K)


@pytest.mark.parametrize("dim", [1, 2])
def test_bank_fill_is_the_weighted_sum_of_each_kernels_own_fill(dim, monkeypatch):
    # a mixture fills its components through one shared row function; each
    # geometry and polynomial power it shares must keep the bits of the
    # component's own fill, whatever kernel computed it first
    X, P = _family_case("singular_1d" if dim == 1 else "gaussian")[1:]
    bank = [_family_case(f)[0] for f in kn.kernel_family_names()
            if dim == 1 or f != "singular_1d"]
    bank += [kn.PolynomialKernel(degree=d, coef0=c) for c in (1.0, 0.5) for d in (3, 2, 4)]
    bank += [kn.RankOneKernel(lambda x: np.sin(x).sum(-1)),
             kn.KernelMixture([kn.GaussianKernel(gamma=2.0), kn.PolynomialKernel(degree=3)],
                              [0.4, 0.6])]
    rng = np.random.default_rng(37)
    w = rng.uniform(0.1, 1.0, len(bank))
    mix = kn.KernelMixture(bank, w / w.sum())
    monkeypatch.setattr(kn, "_BLOCK_ENTRIES", 1000)        # many blocks, the last ragged
    for A, Y in ((X, X), (P, X)):
        F = rng.standard_normal(A.shape)
        own = [k.directional_pairwise(A, F, Y) for k in bank]
        K, D = mix.directional_pairwise(A, F, Y)
        assert np.array_equal(K, kn._bank_sum(mix.weights, [Kl for Kl, _ in own]))
        assert np.array_equal(D, kn._bank_sum(mix.weights, [Dl for _, Dl in own]))
        assert np.array_equal(mix.pairwise(A, Y),
                              kn._bank_sum(mix.weights, [k.pairwise(A, Y) for k in bank]))


@pytest.mark.parametrize("k", BLOCKED_CASES, ids=lambda k: k.family)
def test_blocked_directional_assembly_equals_unblocked(k, monkeypatch):
    system = make_system("poly2d")
    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 13)            # N = 169
    P = np.random.default_rng(23).uniform(-1.0, 1.0, (50, 2))
    cases = [(X, X), (P, X), (X, P)]
    monkeypatch.setattr(kn, "_BLOCK_ENTRIES", 10 ** 9)        # one block
    whole = [k.directional_pairwise(A, eval_field(system, A), Y) for A, Y in cases]
    # 1000 entries: blocks of 5 rows (M = 169, last block ragged) and of 20
    # rows (M = 50, ragged); 100 entries: one row per block when M = 169;
    # pairwise is the value half of the same fill at every block size
    for entries in (10 ** 9, 1000, 100):
        monkeypatch.setattr(kn, "_BLOCK_ENTRIES", entries)
        for (A, Y), (K, D) in zip(cases, whole):
            Kb, Db = k.directional_pairwise(A, eval_field(system, A), Y)
            assert np.array_equal(Kb, K)
            assert np.array_equal(Db, D)
            assert np.array_equal(k.pairwise(A, Y), K)


def test_rank_one_pairwise_evaluates_xi_once():
    calls = []

    def xi(x):
        calls.append(len(x))
        return x[..., 0] - x[..., 1] ** 2

    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 11)
    K = kn.RankOneKernel(xi).pairwise(X)
    assert calls == [len(X)]        # xi(X) serves both sides; no gradient
    v = xi(X)
    assert np.array_equal(K, np.outer(v, v))


def test_rank_one_assembly_evaluates_xi_three_times():
    calls = []

    def xi(x):
        calls.append(len(x))
        return x[..., 0] - x[..., 1] ** 2 + np.sin(x[..., 1])

    system = make_system("poly2d")
    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 11)
    prob = CollocationProblem.for_eigenvalue(system, -1.0, kn.RankOneKernel(xi), X)
    asm = assemble(prob)
    # on the grid: xi(X) for the values, xi on its d N complex-step probes
    # for the gradient, and xi(X) again for the basis side of the anchor
    # gradients; the anchor (repeated once per direction) gets the first two
    assert calls == [len(X), 2 * len(X), 2, 2 * 2, len(X)]

    # reference: one complex-step call of xi per dimension, then the
    # (N, N, d) gradient tensor contracted with F
    h, F = 1e-200, eval_field(system, X)
    g = np.stack([xi(X + 1j * h * e).imag / h for e in np.eye(2)], axis=1)
    K = np.outer(xi(X), xi(X))
    G = xi(X)[None, :, None] * g[:, None, :]
    B = np.einsum("ijd,id->ij", G, F) - prob.lam * K
    assert asm.K is None
    np.testing.assert_allclose(prob.kernel.pairwise(X), K, rtol=1e-12, atol=0)
    np.testing.assert_allclose(asm.B, B, rtol=1e-12, atol=1e-12 * np.max(np.abs(B)))


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("xi", [lambda x: np.asarray(x, dtype=float)[..., 0],
                                lambda x: np.abs(x[..., 0])], ids=["float_cast", "abs"])
def test_rank_one_assembly_rejects_a_xi_without_complex_step(xi):
    # a xi that returns real values for complex states would give a
    # gradient of exactly 0; the assembly refuses it instead
    X = tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 5)
    prob = CollocationProblem.for_eigenvalue(make_system("poly2d"), -1.0, kn.RankOneKernel(xi), X)
    with pytest.raises(ConfigurationError, match="complex"):
        assemble(prob)


# ----------------------------------------------------------------------------
# mixtures
# ----------------------------------------------------------------------------

def test_mixture_weight_validation():
    ks = [kn.GaussianKernel(gamma=1.0), kn.CauchyKernel(gamma=1.0)]
    with pytest.raises(ConfigurationError):
        kn.KernelMixture(ks, [0.5, 0.6])
    with pytest.raises(ConfigurationError):
        kn.KernelMixture(ks, [-0.1, 1.1])
    with pytest.raises(ConfigurationError):
        kn.KernelMixture(ks, [1.0])
    with pytest.raises(ConfigurationError):
        kn.KernelMixture(ks, [np.nan, np.nan])


def test_single_component_mixture_is_identity():
    k = kn.GaussianKernel(gamma=2.0)
    mix = kn.KernelMixture([k], [1.0])
    X, Y = random_pairs(20, 2, 14)
    np.testing.assert_allclose(mix.eval(X, Y), k.eval(X, Y), atol=0)
    np.testing.assert_allclose(kernel_gradient(mix, X, Y), kernel_gradient(k, X, Y), atol=0)


def test_two_gaussian_mixture_linearity():
    k1, k2 = kn.GaussianKernel(gamma=1.0), kn.GaussianKernel(gamma=3.0)
    mix = kn.KernelMixture([k1, k2], [0.3, 0.7])
    X, Y = random_pairs(10, 2, 15)
    np.testing.assert_allclose(
        mix.eval(X, Y), 0.3 * k1.eval(X, Y) + 0.7 * k2.eval(X, Y), atol=1e-15
    )


def test_mixture_gram_linearity():
    comps = [kn.GaussianKernel(gamma=1.0), kn.InverseQuadraticKernel(gamma=1.0),
             kn.PolynomialKernel(degree=2, coef0=1.0)]
    beta = np.array([0.2, 0.5, 0.3])
    mix = kn.KernelMixture(comps, beta)
    rng = np.random.default_rng(16)
    X = rng.uniform(-1, 1, (30, 2))
    direct = mix.pairwise(X)
    summed = sum(b * c.pairwise(X) for b, c in zip(beta, comps))
    assert np.max(np.abs(direct - summed)) <= 1e-14


def test_uniform_eleven_kernel_bank_weights():
    bank = default_kernel_bank()
    assert len(bank) == 11
    beta = np.full(11, 1.0 / 11.0)
    mix = kn.KernelMixture(bank, beta)
    x = np.array([0.2, -0.1])
    expected = sum(k.eval(x, x) for k in bank) / 11.0
    assert mix.eval(x, x) == pytest.approx(expected, abs=1e-15)


def test_make_kernel_factory():
    k = kn.make_kernel("laplacian", gamma=2.0)
    assert isinstance(k, kn.ExponentialKernel)
    with pytest.raises(ConfigurationError):
        kn.make_kernel("spherical")
