"""Layer boundaries of flowkernels and the per-layer metrics built on them.

``install`` wraps the public entry points of each module (and the two
scipy calls that count solver work) so a :class:`spans.Tracer` records a
span per call.  ``layer_metrics`` turns the spans of one traced pass per
workload into the per-layer metrics; each metric is taken on the
workloads whose end-to-end metrics it should move (``HOME``).
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List

import numpy as np

from spans import Span, Tracer, self_times

MIB = 1024.0 * 1024.0
SWEEP_N = (441, 1681, 3721)
PRESETS = ("cubic1d_singular", "cubic1d_rbf", "poly2d_kernel_study",
           "poly2d_mkl_l1", "poly2d_mkl_l2eig", "duffing_char", "unify_advection")

# layer -> workloads whose end-to-end metrics a change in it should move
HOME = {
    "kernels": ("collocation_large", "mkl_bank"),
    "collocation": ("collocation_large",),
    "mkl": ("mkl_bank", "presets"),
    "dynamics": ("presets",),
    "path_integral": ("presets",),
    "advection": ("crosscheck",),
    "spectral": ("crosscheck",),
    "cli": ("presets",),
}

# name -> (unit, better); the order is the order of the report
METRICS = {
    "kernels.pairwise_s": ("s", "lower"),
    "kernels.grad_pairwise_s": ("s", "lower"),
    "kernels.grad_pairwise_peak_mib": ("MiB", "lower"),
    "collocation.assemble_s": ("s", "lower"),
    "collocation.solve_self_s": ("s", "lower"),
    "collocation.residual_field_s": ("s", "lower"),
    "collocation.peak_mib": ("MiB", "lower"),
    "collocation.factorizations": ("1/solve", "lower"),
    "mkl.solve_s": ("s", "lower"),
    "mkl.assembly_s": ("s", "lower"),
    "mkl.objective_evals": ("count", "lower"),
    "mkl.objective_eval_s": ("s", "lower"),
    "mkl.outer_iterations": ("count", "lower"),
    "mkl.evals_per_iteration": ("1", "lower"),
    "mkl.peak_mib": ("MiB", "lower"),
    "dynamics.flow_s": ("s", "lower"),
    "dynamics.flow_calls": ("count", "lower"),
    "dynamics.rk4_state_steps": ("count", "lower"),
    "dynamics.flow_peak_mib": ("MiB", "lower"),
    "path_integral.xi_values_self_s": ("s", "lower"),
    "path_integral.residual_values_s": ("s", "lower"),
    "path_integral.trajectories": ("count", "lower"),
    "path_integral.unique_trajectory_ratio": ("1", "higher"),
    "advection.unification_check_s": ("s", "lower"),
    "advection.kernel_pair_evals": ("count", "lower"),
    "advection.quadrature_nodes": ("count", "lower"),
    "spectral.mercer_s": ("s", "lower"),
    "spectral.mercer_peak_mib": ("MiB", "lower"),
    **{f"cli.{p}_s": ("s", "lower") for p in PRESETS},
    "cli.bytes_written": ("count", "lower"),
    **{f"collocation.{m}.n{n}": (u, "lower") for n in SWEEP_N
       for m, u in (("assemble_s", "s"), ("solve_self_s", "s"), ("peak_mib", "MiB"))},
    "trace.overhead_s": ("s", "lower"),
}

# spans whose tracemalloc peak is reported; memory is traced in a separate
# pass because tracemalloc slows allocation-heavy layers several fold
MEMORY_SPANS = ("kernels.grad_pairwise", "collocation.solve", "mkl.mkl_solve",
                "dynamics.flow", "spectral.mercer")

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points; ``tracer.restore()`` undoes it."""
    import scipy.linalg
    import scipy.optimize

    import flowkernels as fk
    from flowkernels import advection, cli, collocation, dynamics, kernels, mkl
    from flowkernels import path_integral, spectral

    modules = [fk, advection, cli, collocation, dynamics, kernels, mkl,
               path_integral, spectral]

    def everywhere(owner, attr, name, attrs=None):
        tracer.replace_everywhere(modules, owner, attr,
                                  tracer.wrap(getattr(owner, attr), name, attrs))

    # kernels: every class that defines its own pairwise helpers
    for cls in [kernels.Kernel, *_subclasses(kernels.Kernel)]:
        for attr, name in (("pairwise", "kernels.pairwise"),
                           ("grad_x_pairwise", "kernels.grad_pairwise")):
            if attr in cls.__dict__:
                tracer.replace(cls, attr, tracer.wrap(cls.__dict__[attr], name))

    # collocation
    prob_n = lambda problem, *a, **k: {"n": int(problem.points.shape[0])}  # noqa: E731
    everywhere(collocation, "assemble", "collocation.assemble", prob_n)
    everywhere(collocation, "solve", "collocation.solve", prob_n)
    everywhere(collocation, "residual_field", "collocation.residual_field")
    tracer.replace(scipy.linalg, "cho_factor",
                   tracer.wrap(scipy.linalg.cho_factor, "linalg.cho_factor"))

    # mkl: the optimizer's objective is a closure, so it is wrapped where
    # mkl_solve hands it to scipy
    everywhere(mkl, "mkl_solve", "mkl.mkl_solve")
    if hasattr(mkl, "_per_kernel_blocks"):
        everywhere(mkl, "_per_kernel_blocks", "mkl.assembly")
    minimize = scipy.optimize.minimize

    def traced_minimize(fun, x0, *args, **kwargs):
        if not tracer.inside("mkl."):
            return minimize(fun, x0, *args, **kwargs)
        span = tracer.open("mkl.minimize")
        try:
            res = minimize(tracer.wrap(fun, "mkl.objective"), x0, *args, **kwargs)
        finally:
            tracer.close(span)
        span.attrs.update(nit=int(res.nit), nfev=int(res.nfev))
        return res

    tracer.replace(scipy.optimize, "minimize", traced_minimize)

    # dynamics: count integrated states, and remember the initial states of
    # path-integral flows to measure how many trajectories repeat
    def flow_attrs(system, x0, cfg, *a, **k):
        x0 = np.asarray(x0, dtype=float)
        n = int(x0.size // x0.shape[-1]) if x0.ndim else 1
        if tracer.inside("path_integral."):
            tracer.count("path_integral.trajectories", n)
            tracer.remember("path_integral.distinct_states", x0.reshape(-1, x0.shape[-1]))
        return {"n": n, "M": int(cfg.M)}

    everywhere(dynamics, "flow", "dynamics.flow", flow_attrs)
    everywhere(path_integral, "xi_values", "path_integral.xi_values")
    everywhere(path_integral, "residual_values", "path_integral.residual_values")

    # advection: the per-pair quadratures are counted, not timed one by one
    def counted(fn, counter, size=None):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(counter, 1 if size is None else size(result))
            return result
        return wrapper

    everywhere(advection, "unification_check", "advection.unification_check")
    for attr in ("symmetrized_kernel", "symmetrized_resolvent"):
        tracer.replace_everywhere(modules, advection, attr,
                                  counted(getattr(advection, attr), "advection.kernel_pair_evals"))
    tracer.replace(advection.QuadratureRule, "nodes_weights",
                   counted(advection.QuadratureRule.nodes_weights,
                           "advection.quadrature_nodes", lambda r: int(r[0].size)))

    everywhere(spectral, "mercer_decompose", "spectral.mercer")
    everywhere(cli, "main", "cli.main")


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


# -- metrics ------------------------------------------------------------------


class _View:
    """Spans and counters of the workloads one layer is measured on."""

    def __init__(self, traces: Dict[str, dict], workloads):
        self.spans: List[Span] = []
        self.self_s: Dict[int, float] = {}
        self.counters: Dict[str, float] = {}
        self.jobs: List[dict] = []
        self.memory: List[Span] = []
        for wl in workloads:
            self.memory += [Span.from_dict(d) for d in traces[wl]["memory_spans"]]
            spans = [Span.from_dict(d) for d in traces[wl]["spans"]]
            st = self_times(spans)
            base = len(self.spans)
            for s in spans:
                s.id += base
                s.parent = None if s.parent is None else s.parent + base
                self.self_s[s.id] = st[s.id - base]
            self.spans += spans
            for k, v in traces[wl]["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.jobs += traces[wl]["jobs"]
        self.by_id = {s.id: s for s in self.spans}

    def named(self, name, **attrs) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def has_ancestor(self, s: Span, name: str) -> bool:
        while s.parent is not None:
            s = self.by_id[s.parent]
            if s.name == name:
                return True
        return False

    def inclusive(self, name, **attrs) -> float:
        """Total duration of the outermost spans called ``name``."""
        return sum(s.duration for s in self.named(name, **attrs)
                   if not self.has_ancestor(s, name))

    def self_time(self, name) -> float:
        return sum(self.self_s[s.id] for s in self.named(name))

    def peak_mib(self, name, **attrs) -> float:
        """Largest tracemalloc peak of a ``name`` span in the memory pass."""
        return max((s.peak for s in self.memory if s.name == name
                    and all(s.attrs.get(k) == v for k, v in attrs.items())), default=0) / MIB


def layer_metrics(traces: Dict[str, dict], overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced passes of each workload.

    ``traces[workload]`` holds the timing pass's ``spans`` (span dicts),
    ``counters`` and ``jobs`` (job records with their outputs), and the
    memory pass's ``memory_spans``.
    """
    v = {layer: _View(traces, wls) for layer, wls in HOME.items()}
    out: Dict[str, float] = {}

    k = v["kernels"]
    out["kernels.pairwise_s"] = k.inclusive("kernels.pairwise")
    out["kernels.grad_pairwise_s"] = k.inclusive("kernels.grad_pairwise")
    out["kernels.grad_pairwise_peak_mib"] = k.peak_mib("kernels.grad_pairwise")

    c = v["collocation"]
    out["collocation.assemble_s"] = c.inclusive("collocation.assemble")
    out["collocation.solve_self_s"] = (c.inclusive("collocation.solve")
                                       - c.inclusive("collocation.assemble"))
    out["collocation.residual_field_s"] = c.inclusive("collocation.residual_field")
    out["collocation.peak_mib"] = c.peak_mib("collocation.solve")
    solves = c.named("collocation.solve")
    facts = [s for s in c.named("linalg.cho_factor")
             if c.has_ancestor(s, "collocation.solve")]
    out["collocation.factorizations"] = len(facts) / max(len(solves), 1)

    m = v["mkl"]
    evals = m.named("mkl.objective")
    iterations = sum(s.attrs.get("nit", 0) for s in m.named("mkl.minimize"))
    out["mkl.solve_s"] = m.inclusive("mkl.mkl_solve")
    out["mkl.assembly_s"] = m.inclusive("mkl.assembly")
    out["mkl.objective_evals"] = len(evals)
    out["mkl.objective_eval_s"] = statistics.median(s.duration for s in evals) if evals else 0.0
    out["mkl.outer_iterations"] = iterations
    out["mkl.evals_per_iteration"] = len(evals) / max(iterations, 1)
    out["mkl.peak_mib"] = m.peak_mib("mkl.mkl_solve")

    d = v["dynamics"]
    flows = d.named("dynamics.flow")
    out["dynamics.flow_s"] = d.inclusive("dynamics.flow")
    out["dynamics.flow_calls"] = len(flows)
    out["dynamics.rk4_state_steps"] = sum(s.attrs["n"] * s.attrs["M"] for s in flows)
    out["dynamics.flow_peak_mib"] = d.peak_mib("dynamics.flow")

    p = v["path_integral"]
    trajectories = p.counters.get("path_integral.trajectories", 0)
    out["path_integral.xi_values_self_s"] = p.self_time("path_integral.xi_values")
    out["path_integral.residual_values_s"] = p.inclusive("path_integral.residual_values")
    out["path_integral.trajectories"] = trajectories
    out["path_integral.unique_trajectory_ratio"] = (
        p.counters.get("path_integral.distinct_states", 0) / trajectories if trajectories else 0.0)

    a = v["advection"]
    out["advection.unification_check_s"] = a.inclusive("advection.unification_check")
    out["advection.kernel_pair_evals"] = a.counters.get("advection.kernel_pair_evals", 0)
    out["advection.quadrature_nodes"] = a.counters.get("advection.quadrature_nodes", 0)

    s = v["spectral"]
    out["spectral.mercer_s"] = s.inclusive("spectral.mercer")
    out["spectral.mercer_peak_mib"] = s.peak_mib("spectral.mercer")

    cl = v["cli"]
    for preset in PRESETS:
        out[f"cli.{preset}_s"] = sum(span.duration for span in cl.named("cli.main")
                                     if span.run.endswith(f":{preset}"))
    out["cli.bytes_written"] = sum(j["outputs"].get("bytes_written", 0) for j in cl.jobs)

    for n in SWEEP_N:
        out[f"collocation.assemble_s.n{n}"] = c.inclusive("collocation.assemble", n=n)
        out[f"collocation.solve_self_s.n{n}"] = (c.inclusive("collocation.solve", n=n)
                                                 - c.inclusive("collocation.assemble", n=n))
        out[f"collocation.peak_mib.n{n}"] = c.peak_mib("collocation.solve", n=n)

    out["trace.overhead_s"] = overhead_s
    assert list(out) == list(METRICS), "metric table and computation disagree"
    return out
