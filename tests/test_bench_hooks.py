"""The benchmark's layer hooks (bench/layers.py) against the real library.

``bench/run.py --trace 1`` wraps library functions by name, so renaming
one of them breaks the traced benchmark; this test fails first.
"""

import pathlib

import flowkernels as fk
from flowkernels import advection, dynamics

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
