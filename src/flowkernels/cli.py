"""Command-line front end.

One experiment per invocation: a config (inline file or named preset)
selects the system, kernel, grid, and solver settings; results land in
the output directory as full-precision CSVs plus a flat key=value
metrics file.  The config actually used is archived next to the outputs
so every artifact directory is self-describing.

Exit codes: 0 success, 2 config error, 4 flow blow-up, 3 any other
numerical (floating-point faults included) or IO failure.  A config error
writes nothing, a later failure leaves only ``<name>_config.ini``, and a
success adds the CSVs and ``<name>_metrics.txt``: ``_dispatch`` alone writes.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .advection import AdvectionProblem, QuadratureRule, unification_check
from .collocation import CollocationProblem, PenaltyConfig, solve
from .config import COMMANDS, SCHEMA_VERSION, ExperimentConfig, preset, preset_names
from .dynamics import builtin_system_names, linearize, make_system, reference_eigenfunction
from .errors import ConfigurationError, FlowEscapeError, NumericalError, count
from .grids import tensor_grid
from .kernels import make_kernel
from .mkl import MKLConfig, mkl_solve, pruned_mixture, refit_pruned, sparsify
from .path_integral import XiEvaluator, residual_values
from .spectral import mercer_decompose

__all__ = ["main"]


# ---------------------------------------------------------------------------
# artifact text


def _fmt(v) -> str:
    """Full double precision: 17 significant digits survive a round trip."""
    return f"{float(v):.17g}"


def _csv(table: dict) -> str:
    """UTF-8 CSV text, header row, '.' decimal, one column per entry."""
    cols = []
    for c in table.values():
        arr = np.asarray(c)
        if arr.dtype.kind in "US":
            cols.append([str(v) for v in arr])
        else:
            cols.append([_fmt(v) for v in arr])
    if len({len(c) for c in cols}) > 1:
        raise NumericalError("csv columns have mismatched lengths")
    lines = [",".join(table) + "\n"]
    for row in zip(*cols):
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def _metrics(entries: dict) -> str:
    """Flat key = value lines; every numeric entry must be finite."""
    lines = []
    for k, v in entries.items():
        if isinstance(v, (bool, np.bool_)):
            s = "true" if v else "false"
        elif isinstance(v, (int, np.integer)):
            s = str(int(v))
        elif isinstance(v, (float, np.floating)):
            if not np.isfinite(v):
                raise NumericalError(f"metric {k} is not finite: {v}")
            s = _fmt(v)
        else:
            s = str(v)
        lines.append(f"{k} = {s}\n")
    return "".join(lines)


def _write(path: pathlib.Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _points(X: np.ndarray, **cols) -> dict:
    """The points' coordinates x1, x2, ... followed by cols."""
    return {**{f"x{i + 1}": X[:, i] for i in range(X.shape[1])}, **cols}


def _solution(X: np.ndarray, result, ref) -> dict:
    """The points and phi of a collocation or MKL result, plus the reference
    and the rescaled absolute error when a closed form exists."""
    if ref is None:
        return _points(X, phi=result.phi)
    phi_ref = np.asarray(ref(X), dtype=float)
    return _points(X, phi=result.phi, phi_ref=phi_ref,
                   abs_err=np.abs(result.rescale_factor * result.phi - phi_ref))


# ---------------------------------------------------------------------------
# shared pieces


def _system(cfg: ExperimentConfig):
    """The [system], its linearization and the rate [eigenvalue] picks."""
    system = make_system(cfg.get("system", "name"))
    lin = linearize(system)
    if cfg.has("eigenvalue", "index"):
        idx = cfg.get_int("eigenvalue", "index")
        if not (0 <= idx < lin.eigenvalues.size):
            raise ConfigurationError(
                f"eigenvalue index {idx} out of range for spectrum "
                f"{np.array2string(lin.eigenvalues)}"
            )
        return system, lin, float(lin.eigenvalues[idx])
    return system, lin, lin.eigenpair(cfg.get_float("eigenvalue", "value"))[0]


def _kernel_on_grid(cfg: ExperimentConfig, X: np.ndarray):
    """The [kernel] family name and its kernel, evaluated once on the grid X
    so a kernel invalid there fails before the archive; degree is an
    integer, every other key a finite number."""
    spec = cfg.kernel_spec()
    family = spec.pop("family", None)
    if family is None:
        raise ConfigurationError("missing [kernel] family")
    hyper = {k: cfg.get_int("kernel", k) if k == "degree" else cfg.get_float("kernel", k)
             for k in spec}
    kernel = make_kernel(family, **hyper)
    kernel.eval(X, X)
    return family, kernel


def _grid_points(cfg: ExperimentConfig) -> np.ndarray:
    bounds, counts = cfg.grid_spec()
    return tensor_grid(bounds, counts)


_PARSERS = {float: ExperimentConfig.get_float, int: ExperimentConfig.get_int,
            str: ExperimentConfig.get}


def _settings(cfg: ExperimentConfig, section: str, cls, *names, **keys) -> dict:
    """Keyword arguments for the dataclass cls from the keys [section] sets.
    Each name is a field read under its own key; keys maps a field to the
    key it is read under.  A value is parsed by the type of its field's
    default, and a key the config does not set leaves that default to cls."""
    keys.update(zip(names, names))
    return {name: _PARSERS[type(getattr(cls, name))](cfg, section, key)
            for name, key in keys.items() if cfg.has(section, key)}


def _penalties(cfg: ExperimentConfig) -> PenaltyConfig:
    return PenaltyConfig(**_settings(cfg, "penalties", PenaltyConfig, "eta", "mu_grad"))


# ---------------------------------------------------------------------------
# subcommand runners: each reads and checks every setting it uses, then
# returns the computation that yields its tables, by file suffix and each
# mapping a header to its column, and its own metrics


def _run_solve(cfg: ExperimentConfig) -> Callable[[], tuple]:
    system, _, lam = _system(cfg)
    X = _grid_points(cfg)
    family, kernel = _kernel_on_grid(cfg, X)
    prob = CollocationProblem.for_eigenvalue(system, lam, kernel, X, penalties=_penalties(cfg))

    def run():
        ref = reference_eigenfunction(system.name, prob.lam)
        sol = solve(prob, reference=ref)
        metrics = dict(
            system=system.name, lam=prob.lam, kernel=family,
            n_points=X.shape[0],
            n_centers=sol.n_centers,
            residual_norm=sol.residual_norm,
            anchor_error=sol.anchor_error,
        )
        if sol.rescale_factor is not None:
            metrics.update(
                c_star=sol.rescale_factor,
                rmse_raw=sol.rmse_raw,
                rmse_rescaled=sol.rmse_rescaled,
            )
        return {"solution": _solution(X, sol, ref)}, metrics
    return run


def _run_mkl(cfg: ExperimentConfig) -> Callable[[], tuple]:
    system, _, lam = _system(cfg)
    X = _grid_points(cfg)
    mcfg = MKLConfig(**_settings(cfg, "penalties", MKLConfig, "eta", "mu_grad"),
                     **_settings(cfg, "mkl", MKLConfig, "tau", "max_iter", "gtol"))

    def run():
        ref = reference_eigenfunction(system.name, lam)
        result = sparsify(mkl_solve(system, lam, X, mcfg, reference=ref))
        pruned_empty = result.pruned_beta.size == 0
        pruned = np.zeros_like(result.beta) if pruned_empty else result.pruned_beta
        weights = {"kernel": np.array(list(result.kernel_labels)),
                   "beta": result.beta, "beta_pruned": pruned}
        metrics = dict(
            system=system.name, lam=lam,
            n_points=X.shape[0], n_kernels=result.beta.size,
            beta_min=float(result.beta.min()), beta_max=float(result.beta.max()),
            converged=result.converged, n_iterations=result.loss_trace.size - 1,
            loss_initial=float(result.loss_trace[0]),
            loss_final=float(result.loss_trace[-1]),
            tau=mcfg.tau,
            n_surviving=int(np.count_nonzero(pruned)),
            pruned_empty=pruned_empty,
        )
        if result.rmse_rescaled is not None:
            metrics.update(c_star=result.rescale_factor, rmse_rescaled=result.rmse_rescaled)
        if not pruned_empty:
            refit = refit_pruned(
                system, lam, X, pruned_mixture(result),
                reference=ref, eta=mcfg.eta, mu_grad=mcfg.mu_grad,
            )
            metrics.update(pruned_residual_norm=refit.residual_norm)
            if refit.rmse_rescaled is not None:
                metrics.update(pruned_rmse=refit.rmse_rescaled)
        # the solution this run stands for is the full learned mixture; the
        # pruned refit is an extra diagnostic when anything survives
        return {"weights": weights, "solution": _solution(X, result, ref)}, metrics
    return run


def _run_path_integral(cfg: ExperimentConfig) -> Callable[[], tuple]:
    system, lin, lam = _system(cfg)
    T = cfg.get_float("path_integral", "T")
    M = cfg.get_int("path_integral", "M")
    ev = XiEvaluator(system, lin, lam, T, M)
    X = _grid_points(cfg)

    def run():
        xi, res = residual_values(ev, X)
        mean_abs_xi = float(np.mean(np.abs(xi)))
        mean_abs_res = float(np.mean(np.abs(res)))
        metrics = dict(
            system=system.name, lam=ev.lam, T=T, M=M,
            direction=ev.direction, n_points=X.shape[0],
            mean_abs_xi=mean_abs_xi,
            mean_abs_residual=mean_abs_res,
            max_abs_residual=float(np.max(np.abs(res))),
            residual_over_xi=mean_abs_res / mean_abs_xi if mean_abs_xi else np.inf,
        )
        return {"xi": _points(X, xi=xi, residual=res)}, metrics
    return run


def _run_mercer(cfg: ExperimentConfig) -> Callable[[], tuple]:
    X = _grid_points(cfg)
    family, kernel = _kernel_on_grid(cfg, X)
    k = cfg.get_int("mercer", "k", min(6, len(X)))
    if not (1 <= k <= len(X)):
        raise ConfigurationError(f"[mercer] k={k} not in 1..{len(X)}")

    def run():
        dec = mercer_decompose(kernel, grid=X)
        spectrum = {"n": np.arange(1, dec.eigenvalues.size + 1), "mu": dec.eigenvalues}
        # fix each mode's sign (largest-magnitude entry positive) so output
        # does not depend on eigensolver sign conventions
        modes = dec.modes[:, :k]
        modes = modes * np.where(modes[np.abs(modes).argmax(axis=0), np.arange(k)] < 0, -1, 1)
        metrics = dict(
            kernel=family,
            n_points=X.shape[0], k=k,
            mu_top=float(dec.eigenvalues[0]),
            mu_min=float(dec.eigenvalues[-1]),
            indefinite=dec.indefinite,
        )
        return {"spectrum": spectrum,
                "modes": _points(X, **{f"psi_{j + 1}": modes[:, j] for j in range(k)})}, metrics
    return run


def _run_unify(cfg: ExperimentConfig) -> Callable[[], tuple]:
    problem = AdvectionProblem(**_settings(cfg, "unify", AdvectionProblem, "c", "lam",
                                           a="rule_lo", b="rule_hi"))
    rule = QuadratureRule(problem.a, problem.b,
                          **_settings(cfg, "unify", QuadratureRule, "scheme", n="rule_n"))
    n = count("[unify] grid_n", cfg.get_int("unify", "grid_n", 20), 1)
    grid = np.linspace(cfg.get_float("unify", "grid_lo", -5.0),
                       cfg.get_float("unify", "grid_hi", 5.0), n)

    def run():
        report = unification_check(problem, grid, rule)
        unify = {"x": report.x, "y": report.y, "K_green": report.K_green,
                 "K_analytic": report.K_analytic, "K_resolvent_sym": report.K_resolvent_sym,
                 "rel_dev": report.rel_dev}
        metrics = dict(
            c=problem.c, lam=problem.lam, grid_n=n, rule_n=rule.n, scheme=rule.scheme,
            scalar=report.scalar,
            max_rel_dev=report.max_rel_dev,
            diag_dev=report.diag_dev,
        )
        return {"unify": unify}, metrics
    return run


_RUNNERS = {
    "solve": _run_solve,
    "mkl": _run_mkl,
    "path-integral": _run_path_integral,
    "mercer": _run_mercer,
    "unify": _run_unify,
}


# ---------------------------------------------------------------------------
# argument handling


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowkernels",
        description="kernel-based spectral analysis of ODE flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd, help=f"run a {cmd} experiment")
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--preset", help=f"built-in preset: {', '.join(preset_names())}")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
    sub.add_parser("list-systems", help="print the built-in system names")
    return parser


def _load_config(args) -> ExperimentConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigurationError("exactly one of --config or --preset is required")
    if args.preset is not None:
        return preset(args.preset)
    return ExperimentConfig.from_file(args.config)


def _dispatch(args) -> int:
    if args.command == "list-systems":
        print("\n".join(builtin_system_names()))
        return 0
    cfg = _load_config(args)
    if not cfg.name:
        raise ConfigurationError("experiment name must be nonempty")
    if "/" in cfg.name or os.sep in cfg.name:
        raise ConfigurationError(f"experiment name {cfg.name!r} must be a plain file name")
    if cfg.command != args.command:
        raise ConfigurationError(
            f"config is for command {cfg.command!r} but {args.command!r} was invoked"
        )
    version = cfg.get("experiment", "schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema_version {version!r} is not the supported {SCHEMA_VERSION!r}")
    compute = _RUNNERS[args.command](cfg)
    unread = cfg.unread_keys()
    if unread:
        raise ConfigurationError(
            f"the {cfg.command} command does not read {', '.join(unread)}")
    outdir = pathlib.Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc
    _write(outdir / f"{cfg.name}_config.ini", cfg.to_string())
    tables, entries = compute()
    # form every text first, so a bad table or metric leaves only the config
    texts = {f"{suffix}.csv": _csv(table) for suffix, table in tables.items()}
    texts["metrics.txt"] = _metrics(dict(experiment=cfg.name, command=cfg.command,
                                         schema_version=SCHEMA_VERSION,
                                         package_version=__version__, **entries))
    for suffix, text in texts.items():
        _write(outdir / f"{cfg.name}_{suffix}", text)
    return 0


def _fail(category: str, exc: Exception) -> None:
    reason = " ".join(str(exc).split())
    sys.stderr.write(f"flowkernels: error category={category} reason={reason}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a float fault raises where it happens; underflow stays quiet (Gaussian tails)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _dispatch(args)
    except FlowEscapeError as exc:
        _fail("flow-escape", exc)
        return 4
    except ConfigurationError as exc:
        _fail("config", exc)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        _fail("numerical", exc)
        return 3
    except OSError as exc:
        _fail("io", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
