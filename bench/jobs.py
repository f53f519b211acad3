"""The benchmark's four workloads as fixed job lists with correctness checks.

Every workload is a closed loop: one client runs its job list back to back,
each job starting when the previous one has finished.  Building a workload
(``build``) is its set-up -- systems, grids, kernels, configs and seeded
inputs -- and is timed separately from the jobs.

Why these four (shares from profiling at the seed commit, 2 cores, 2
OpenBLAS threads):

* ``presets``: the seven README presets through ``flowkernels.cli.main``,
  which is what users run.  ``duffing_char`` (RK4 flows and the xi
  quadrature) takes about two thirds of the time and the two MKL presets
  most of the rest; kernel assembly only runs at N <= 441 here, so a faster
  assembly should leave this workload flat.
* ``collocation_large``: plain collocation solves on poly2d (slow mode) at
  N = 441, 1681 and 3721 with a smooth radial, a non-smooth radial and a
  dot-product kernel, plus one ``residual_field`` on seeded off-grid probes.
  Kernel assembly and the normal-equation solve do nearly all the work and
  no flow runs; the (N, N, d) gradient tensor sets the peak memory.
* ``mkl_bank``: multiple-kernel learning with the presets' own settings at
  N = 441 and 961 for both poly2d rates.  It uses the same kernel code as
  ``collocation_large`` differently: 11 families at moderate N, stacked
  into slabs, with one inner solve per objective evaluation.
* ``crosscheck``: two advection unification checks (the per-pair Python
  quadrature loop) and a Gaussian Mercer decomposition at N = 1681.  No
  other workload spends more than about 1% of its time in that loop.  Its
  end-to-end time is not a gate in BENCHMARK.json: on a 2-core machine
  shared with other jobs the unify loop switched between about 1.5 s and
  2.5 s from one process to the next, and the spread of ten runs reached
  25%.  The traced run still measures its layers, and ``--workload
  crosscheck`` or ``all`` runs it by hand.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import pathlib
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import flowkernels as fk
from flowkernels import cli
from flowkernels.dynamics import poly2d_reference_eigenfunctions
from flowkernels.mkl import pruned_mixture

# Accuracy of the seed commit (see expected.json): values compared with
# "match" must agree to MATCH_RTOL, values compared with "no worse" may not
# exceed the seed value by more than NO_WORSE_RTOL, which leaves room for
# the last-digit changes a different OpenBLAS thread count causes.  ATOL
# covers seed values that are rounding noise (~1e-16).
EXPECTED = json.loads((pathlib.Path(__file__).with_name("expected.json")).read_text())
MATCH_RTOL = 1e-9
NO_WORSE_RTOL = 1e-3
ATOL = 1e-13
POLY_RMSE_MAX = 1e-8          # polynomial kernel reproduces the poly2d slow mode
POLY_RESIDUAL_MAX = 1e-6      # so its transport residual vanishes off the grid too
N_PROBES = 1000


@dataclass
class Job:
    """One unit of work: ``run`` returns the values ``check`` inspects.

    ``check`` returns a list of problems; an empty list means correct.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], List[str]]


def no_worse(key: str, value: float) -> List[str]:
    ref = EXPECTED[key]
    if not (math.isfinite(value) and value <= ref * (1.0 + NO_WORSE_RTOL) + ATOL):
        return [f"{key} = {value!r} is worse than the seed's {ref!r}"]
    return []


def matches(key: str, value: float) -> List[str]:
    ref = EXPECTED[key]
    if not (math.isfinite(value) and abs(value - ref) <= MATCH_RTOL * abs(ref) + ATOL):
        return [f"{key} = {value!r} does not match the seed's {ref!r}"]
    return []


def at_most(key: str, value: float, bound: float) -> List[str]:
    if not (math.isfinite(value) and value <= bound):
        return [f"{key} = {value!r} exceeds {bound!r}"]
    return []


# -- presets -------------------------------------------------------------------

_ARTIFACTS = {
    "solve": ("solution.csv",),
    "mkl": ("solution.csv", "weights.csv"),
    "path-integral": ("xi.csv",),
    "mercer": ("spectrum.csv", "modes.csv"),
    "unify": ("unify.csv",),
}

# which metrics.txt entries are accuracy gates, and how each is compared
_PRESET_ACCURACY = {
    "cubic1d_singular": {"rmse_rescaled": "no_worse"},
    "cubic1d_rbf": {"rmse_rescaled": "no_worse"},
    "poly2d_kernel_study": {"rmse_rescaled": "poly"},
    "poly2d_mkl_l1": {"rmse_rescaled": "no_worse"},
    "poly2d_mkl_l2eig": {"rmse_rescaled": "no_worse"},
    "duffing_char": {"residual_over_xi": "no_worse"},
    "unify_advection": {"max_rel_dev": "match"},
}


def _read_metrics(path: pathlib.Path) -> Dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"{path.name}: malformed line {line!r}")
        out[key] = value
    return out


def _check_csv(path: pathlib.Path) -> None:
    """Header row plus at least one row; every non-label cell is a float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path.name}: missing rows or ragged columns")
    labels = {i for i, h in enumerate(rows[0]) if h == "kernel"}
    for r in rows[1:]:
        for i, cell in enumerate(r):
            if i not in labels:
                float(cell)


def _preset_job(name: str, command: str, outdir: pathlib.Path) -> Job:
    def run():
        shutil.rmtree(outdir, ignore_errors=True)
        code = cli.main([command, "--preset", name, "--out", str(outdir)])
        written = sum(p.stat().st_size for p in outdir.iterdir()) if outdir.is_dir() else 0
        return {"exit_code": code, "bytes_written": written}

    def check(res):
        if res["exit_code"] != 0:
            return [f"exit code {res['exit_code']}"]
        problems = []
        try:
            cfg = configparser.ConfigParser()
            cfg.read_string((outdir / f"{name}_config.ini").read_text(encoding="utf-8"))
            metrics = _read_metrics(outdir / f"{name}_metrics.txt")
            for suffix in _ARTIFACTS[command]:
                _check_csv(outdir / f"{name}_{suffix}")
            for key, rule in _PRESET_ACCURACY[name].items():
                value = float(metrics[key])
                res[key] = value
                label = f"presets.{name}.{key}"
                if rule == "match":
                    problems += matches(label, value)
                elif rule == "poly":
                    problems += at_most(label, value, POLY_RMSE_MAX)
                else:
                    problems += no_worse(label, value)
        except (OSError, KeyError, ValueError, configparser.Error) as exc:
            problems.append(f"artifact check failed: {exc!r}")
        return problems

    return Job(name, run, check)


def _presets(seed: int, workdir: pathlib.Path) -> List[Job]:
    return [_preset_job(name, fk.preset(name).command, workdir / name)
            for name in fk.preset_names()]


# -- collocation_large -----------------------------------------------------------

_COLLOCATION_KERNELS = {
    "gaussian": dict(gamma=1.0),
    "exponential": dict(gamma=1.0),
    "polynomial": dict(degree=2, coef0=0.5),
}
_COLLOCATION_SIDES = (21, 41, 61)     # N = 441, 1681, 3721


def _collocation_job(family: str, prob, ref, probes=None) -> Job:
    n = prob.points.shape[0]
    label = f"collocation_large.{family}.n{n}.rmse"

    def run():
        sol = fk.solve(prob, reference=ref)
        out = {"rmse": sol.rmse_rescaled}
        if probes is not None:
            res = fk.residual_field(sol, probes)
            out["probe_residual_max"] = float(np.max(np.abs(res)))
        return out

    def check(res):
        if family == "polynomial":
            problems = at_most(label, res["rmse"], POLY_RMSE_MAX)
        else:
            problems = no_worse(label, res["rmse"])
        if "probe_residual_max" in res:
            problems += at_most("collocation_large.probe_residual_max",
                                res["probe_residual_max"], POLY_RESIDUAL_MAX)
        return problems

    name = f"{family}_n{n}" + ("+residual_field" if probes is not None else "")
    return Job(name, run, check)


def _collocation_large(seed: int, workdir: pathlib.Path) -> List[Job]:
    system = fk.make_system("poly2d")
    ref = poly2d_reference_eigenfunctions()[-1.0]
    rng = np.random.default_rng(seed)
    probes = rng.uniform(-1.0, 1.0, size=(N_PROBES, 2))
    jobs = []
    for side in _COLLOCATION_SIDES:
        X = fk.tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], side)
        for family, hyper in _COLLOCATION_KERNELS.items():
            prob = fk.CollocationProblem.for_eigenvalue(
                system, -1.0, fk.make_kernel(family, **hyper), X)
            last = side == _COLLOCATION_SIDES[-1] and family == "polynomial"
            jobs.append(_collocation_job(family, prob, ref, probes if last else None))
    return jobs


# -- mkl_bank -------------------------------------------------------------------------


def _mkl_job(system, lam: float, X, ref) -> Job:
    n = X.shape[0]
    cfg = fk.MKLConfig()      # the presets' settings: default bank, gtol 1e-6
    label = f"mkl_bank.lam{lam:g}.n{n}"

    def run():
        result = fk.sparsify(fk.mkl_solve(system, lam, X, cfg, reference=ref))
        out = {"rmse": result.rmse_rescaled, "loss_final": float(result.loss_trace[-1]),
               "surviving": int(np.count_nonzero(result.pruned_beta))}
        if result.pruned_beta.size:
            refit = fk.refit_pruned(system, lam, X, pruned_mixture(result), reference=ref,
                                    eta=cfg.eta, mu_grad=cfg.mu_grad)
            out["refit_rmse"] = refit.rmse_rescaled
        return out

    def check(res):
        problems = no_worse(f"{label}.rmse", res["rmse"])
        problems += no_worse(f"{label}.loss_final", res["loss_final"])
        if "refit_rmse" in res and not math.isfinite(res["refit_rmse"]):
            problems.append(f"{label}: refit of the pruned mixture is not finite")
        return problems

    return Job(f"lam{lam:g}_n{n}", run, check)


def _mkl_bank(seed: int, workdir: pathlib.Path) -> List[Job]:
    system = fk.make_system("poly2d")
    refs = poly2d_reference_eigenfunctions()
    jobs = []
    for side in (21, 31):     # N = 441, 961
        X = fk.tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], side)
        for lam in (-1.0, 3.0):
            jobs.append(_mkl_job(system, lam, X, refs[lam]))
    return jobs


# -- crosscheck -------------------------------------------------------------------------


def _unify_job(scheme: str, grid_n: int) -> Job:
    problem = fk.AdvectionProblem(c=1.0, lam=1.0, a=-30.0, b=30.0)
    rule = fk.QuadratureRule(-30.0, 30.0, n=4001, scheme=scheme)
    grid = np.linspace(-5.0, 5.0, grid_n)
    label = f"crosscheck.unify_{scheme}.max_rel_dev"

    def run():
        return {"max_rel_dev": fk.unification_check(problem, grid, rule).max_rel_dev}

    return Job(f"unify_{scheme}_n{grid_n}", run,
               lambda res: matches(label, res["max_rel_dev"]))


def _mercer_job(side: int) -> Job:
    kernel = fk.make_kernel("gaussian", gamma=1.0)
    X = fk.tensor_grid([(-1.0, 1.0), (-1.0, 1.0)], side)
    label = "crosscheck.mercer_gaussian.mu_top"

    def run():
        dec = fk.mercer_decompose(kernel, grid=X)
        return {"mu_top": float(dec.eigenvalues[0]), "indefinite": bool(dec.indefinite)}

    def check(res):
        problems = matches(label, res["mu_top"])
        if res["indefinite"]:
            problems.append("gaussian Gram matrix reported indefinite")
        return problems

    return Job(f"mercer_gaussian_n{side * side}", run, check)


def _crosscheck(seed: int, workdir: pathlib.Path) -> List[Job]:
    return [_unify_job("trapezoid", 80), _unify_job("gauss_legendre", 50), _mercer_job(41)]


_BUILDERS = {
    "presets": _presets,
    "collocation_large": _collocation_large,
    "mkl_bank": _mkl_bank,
    "crosscheck": _crosscheck,
}


def build(workload: str, seed: int, workdir: pathlib.Path) -> List[Job]:
    """Set up a workload: everything its jobs need except the timed work."""
    return _BUILDERS[workload](seed, workdir)
