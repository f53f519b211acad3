"""The benchmark's layer hooks (bench/layers.py) against the real library.

``bench/run.py --trace 1`` wraps library functions by name, so renaming
one of them breaks the traced benchmark; this test fails first.
"""

import pathlib

import flowkernels as fk
from flowkernels import advection, dynamics, kernels, mkl

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_layer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    originals = (advection.symmetrized_kernel, advection.unification_check, dynamics.flow)
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert advection.symmetrized_kernel is not originals[0]
        assert fk.unification_check is not originals[1]
        rule = fk.QuadratureRule(-30.0, 30.0, n=101)
        fk.unification_check(fk.AdvectionProblem(), [0.0, 1.0], rule)
    finally:
        tracer.restore()
    assert (advection.symmetrized_kernel, advection.unification_check, dynamics.flow) == originals
    assert fk.unification_check is originals[1]
    assert "advection.unification_check" in [s.name for s in tracer.spans]
    assert tracer.counters["advection.quadrature_nodes"] > 0


def test_mkl_layer_hooks_record_assembly_and_phi_fill(monkeypatch):
    # mkl.assembly_s and kernels.pairwise_s come from wrapping
    # mkl._per_kernel_blocks and Kernel.pairwise by name; a rename would
    # make them read 0 with no error
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    X = fk.tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], 7)
    bank = [kernels.GaussianKernel(gamma=1.0), kernels.PolynomialKernel(degree=2, coef0=1.0)]
    original = mkl._per_kernel_blocks
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert mkl._per_kernel_blocks is not original
        fk.mkl_solve(fk.make_system("poly2d"), 3.0, X, fk.MKLConfig(base_kernels=bank, max_iter=3))
    finally:
        tracer.restore()
    assert mkl._per_kernel_blocks is original
    names = [s.name for s in tracer.spans]
    assert "mkl.assembly" in names
    assert "kernels.pairwise" in names
