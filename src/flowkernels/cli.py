"""Command-line front end.

One experiment per invocation: a config (inline file or named preset)
selects the system, kernel, grid, and solver settings; results land in
the output directory as full-precision CSVs plus a flat key=value
metrics file.  The config actually used is archived next to the outputs
so every artifact directory is self-describing.

Exit codes: 0 success, 2 config error, 4 flow blow-up, 3 any other
numerical or IO failure.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .advection import AdvectionProblem, QuadratureRule, unification_check
from .collocation import CollocationProblem, PenaltyConfig, solve
from .config import COMMANDS, ExperimentConfig, preset, preset_names
from .dynamics import builtin_system_names, linearize, make_system
from .errors import ConfigurationError, FlowEscapeError, NumericalError
from .grids import boundary_sets, tensor_grid
from .kernels import make_kernel
from .mkl import MKLConfig, kernel_label, mkl_solve, pruned_mixture, refit_pruned, sparsify
from .path_integral import make_evaluator, residual_values
from .spectral import mercer_decompose

__all__ = ["main"]


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(v) -> str:
    """Full double precision: 17 significant digits survive a round trip."""
    return f"{float(v):.17g}"


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """UTF-8 CSV, header row, '.' decimal, one column per entry."""
    cols = []
    for c in columns:
        arr = np.asarray(c)
        if arr.dtype.kind in "US":
            cols.append([str(v) for v in arr])
        else:
            cols.append([_fmt(v) for v in arr])
    if len({len(c) for c in cols}) > 1:
        raise NumericalError("csv columns have mismatched lengths")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_metrics(path, entries: Dict[str, object]) -> None:
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
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# shared pieces


def _reference_for(system_name: str, lam: float):
    """Closed-form eigenfunction for the built-ins that have one, else None."""
    from .dynamics import poly2d_reference_eigenfunctions

    if system_name == "cubic1d" and abs(lam - 1.0) <= 1e-9:
        def ref(X):
            x = np.asarray(X, dtype=float)[..., 0]
            return x / np.sqrt(1.0 - x * x)
        return ref
    if system_name == "poly2d":
        for rate, fn in poly2d_reference_eigenfunctions().items():
            if abs(lam - rate) <= 1e-9:
                return fn
    return None


def _resolve_lam(cfg: ExperimentConfig, lin) -> float:
    if cfg.has("eigenvalue", "index"):
        idx = cfg.get_int("eigenvalue", "index")
        if not (0 <= idx < lin.eigenvalues.size):
            raise ConfigurationError(
                f"eigenvalue index {idx} out of range for spectrum "
                f"{np.array2string(lin.eigenvalues)}"
            )
        return float(lin.eigenvalues[idx])
    lam, _ = lin.eigenpair(cfg.get_float("eigenvalue", "value"))
    return lam


def _kernel_from_spec(spec: Dict[str, str]):
    spec = dict(spec)
    family = spec.pop("family", None)
    if family is None:
        raise ConfigurationError("missing [kernel] family")
    hyper = {}
    for k, v in spec.items():
        try:
            hyper[k] = int(v) if k == "degree" else float(v)
        except ValueError as exc:
            raise ConfigurationError(f"[kernel] {k} is not numeric: {v!r}") from exc
    return make_kernel(family, **hyper)


def _grid_points(cfg: ExperimentConfig) -> np.ndarray:
    bounds, counts = cfg.grid_spec()
    return tensor_grid(bounds, counts)


def _penalties(cfg: ExperimentConfig, points: np.ndarray) -> PenaltyConfig:
    eta = cfg.get_float("penalties", "eta", 1e-8)
    mu_grad = cfg.get_float("penalties", "mu_grad", 1e4)
    if not cfg.get_bool("penalties", "boundary", False):
        return PenaltyConfig(eta=eta, mu_grad=mu_grad)
    trace, layer = boundary_sets(points)
    return PenaltyConfig(
        eta=eta, mu_grad=mu_grad,
        mu_trace=cfg.get_float("penalties", "mu_trace", 1e2),
        mu_layer=cfg.get_float("penalties", "mu_layer", 1e2),
        trace_points=trace, layer_points=layer,
    )


def _base_metrics(cfg: ExperimentConfig) -> Dict[str, object]:
    return {
        "experiment": cfg.name,
        "command": cfg.command,
        "schema_version": cfg.get("experiment", "schema_version", "1"),
        "package_version": __version__,
        "seed": cfg.seed,
    }


def _coord_headers(dim: int) -> List[str]:
    return [f"x{i + 1}" for i in range(dim)]


def _write_solution(path, X: np.ndarray, result, ref) -> None:
    """The points and phi of a collocation or MKL result, plus the reference
    and the rescaled absolute error when a closed form exists."""
    headers = _coord_headers(X.shape[1]) + ["phi"]
    columns = [X[:, i] for i in range(X.shape[1])] + [result.phi]
    if ref is not None:
        phi_ref = np.asarray(ref(X), dtype=float)
        headers += ["phi_ref", "abs_err"]
        columns += [phi_ref, np.abs(result.rescale_factor * result.phi - phi_ref)]
    write_csv(path, headers, columns)


# ---------------------------------------------------------------------------
# subcommand runners


def _run_solve(cfg: ExperimentConfig, outdir: pathlib.Path) -> None:
    system = make_system(cfg.require("system", "name"))
    lam = _resolve_lam(cfg, linearize(system))
    X = _grid_points(cfg)
    prob = CollocationProblem.for_eigenvalue(
        system, lam, _kernel_from_spec(cfg.kernel_spec()), X,
        penalties=_penalties(cfg, X),
    )
    ref = _reference_for(system.name, prob.lam)
    sol = solve(prob, reference=ref)
    _write_solution(outdir / f"{cfg.name}_solution.csv", X, sol, ref)

    metrics = _base_metrics(cfg)
    metrics.update(
        system=system.name, lam=prob.lam,
        kernel=cfg.kernel_spec().get("family"),
        n_points=X.shape[0],
        residual_norm=sol.residual_norm,
        anchor_error=sol.anchor_error,
    )
    if sol.rescale_factor is not None:
        metrics.update(
            c_star=sol.rescale_factor,
            rmse_raw=sol.rmse_raw,
            rmse_rescaled=sol.rmse_rescaled,
        )
    write_metrics(outdir / f"{cfg.name}_metrics.txt", metrics)


def _run_mkl(cfg: ExperimentConfig, outdir: pathlib.Path) -> None:
    system = make_system(cfg.require("system", "name"))
    lam = _resolve_lam(cfg, linearize(system))
    X = _grid_points(cfg)
    mcfg = MKLConfig(
        eta=cfg.get_float("penalties", "eta", 1e-8),
        mu_grad=cfg.get_float("penalties", "mu_grad", 1e4),
        lam_l1=cfg.get_float("mkl", "lam_l1", 0.0),
        tau=cfg.get_float("mkl", "tau", 0.1),
        max_iter=cfg.get_int("mkl", "max_iter", 200),
        gtol=cfg.get_float("mkl", "gtol", 1e-6),
    )
    ref = _reference_for(system.name, lam)
    result = sparsify(mkl_solve(system, lam, X, mcfg, reference=ref))

    pruned_empty = result.pruned_beta.size == 0
    pruned = np.zeros_like(result.beta) if pruned_empty else result.pruned_beta
    write_csv(
        outdir / f"{cfg.name}_weights.csv",
        ["kernel", "beta", "beta_pruned"],
        [np.array(list(result.kernel_labels)), result.beta, pruned],
    )

    # the solution this run stands for is the full learned mixture; the
    # pruned refit is an extra diagnostic when anything survives
    _write_solution(outdir / f"{cfg.name}_solution.csv", X, result, ref)

    metrics = _base_metrics(cfg)
    metrics.update(
        system=system.name, lam=lam,
        n_points=X.shape[0], n_kernels=result.beta.size,
        beta_min=float(result.beta.min()), beta_max=float(result.beta.max()),
        converged=result.converged, n_iterations=result.loss_trace.size - 1,
        loss_initial=float(result.loss_trace[0]),
        loss_final=float(result.loss_trace[-1]),
        lam_l1=mcfg.lam_l1, tau=mcfg.tau,
        l1_mode="pre_normalization_magnitudes",
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
    write_metrics(outdir / f"{cfg.name}_metrics.txt", metrics)


def _run_path_integral(cfg: ExperimentConfig, outdir: pathlib.Path) -> None:
    system = make_system(cfg.require("system", "name"))
    lin = linearize(system)
    lam = _resolve_lam(cfg, lin)
    T = cfg.get_float("path_integral", "T")
    M = cfg.get_int("path_integral", "M")
    ev = make_evaluator(system, lin, lam, T, M)
    X = _grid_points(cfg)

    xi, res = residual_values(ev, X)
    write_csv(
        outdir / f"{cfg.name}_xi.csv",
        _coord_headers(X.shape[1]) + ["xi", "residual"],
        [X[:, i] for i in range(X.shape[1])] + [xi, res],
    )

    mean_abs_xi = float(np.mean(np.abs(xi)))
    mean_abs_res = float(np.mean(np.abs(res)))
    metrics = _base_metrics(cfg)
    metrics.update(
        system=system.name, lam=ev.config.lam, T=T, M=M,
        direction=ev.config.direction, n_points=X.shape[0],
        mean_abs_xi=mean_abs_xi,
        mean_abs_residual=mean_abs_res,
        max_abs_residual=float(np.max(np.abs(res))),
        residual_over_xi=mean_abs_res / mean_abs_xi if mean_abs_xi else np.inf,
    )
    write_metrics(outdir / f"{cfg.name}_metrics.txt", metrics)


def _run_mercer(cfg: ExperimentConfig, outdir: pathlib.Path) -> None:
    X = _grid_points(cfg)
    kernel = _kernel_from_spec(cfg.kernel_spec())
    dec = mercer_decompose(kernel, grid=X)
    k = cfg.get_int("mercer", "k", min(6, dec.eigenvalues.size))
    if not (1 <= k <= dec.eigenvalues.size):
        raise ConfigurationError(f"[mercer] k={k} not in 1..{dec.eigenvalues.size}")

    write_csv(
        outdir / f"{cfg.name}_spectrum.csv",
        ["n", "mu"],
        [np.arange(1, dec.eigenvalues.size + 1), dec.eigenvalues],
    )
    # fix each mode's sign (largest-magnitude entry positive) so output does
    # not depend on eigensolver sign conventions
    modes = dec.modes[:, :k].copy()
    for j in range(k):
        pivot = np.argmax(np.abs(modes[:, j]))
        if modes[pivot, j] < 0:
            modes[:, j] = -modes[:, j]
    write_csv(
        outdir / f"{cfg.name}_modes.csv",
        _coord_headers(X.shape[1]) + [f"psi_{j + 1}" for j in range(k)],
        [X[:, i] for i in range(X.shape[1])] + [modes[:, j] for j in range(k)],
    )

    metrics = _base_metrics(cfg)
    metrics.update(
        kernel=cfg.kernel_spec().get("family"),
        n_points=X.shape[0], k=k,
        mu_top=float(dec.eigenvalues[0]),
        mu_min=float(dec.eigenvalues[-1]),
        indefinite=dec.indefinite,
    )
    write_metrics(outdir / f"{cfg.name}_metrics.txt", metrics)


def _run_unify(cfg: ExperimentConfig, outdir: pathlib.Path) -> None:
    c = cfg.get_float("unify", "c", 1.0)
    lam = cfg.get_float("unify", "lam", 1.0)
    rule_lo = cfg.get_float("unify", "rule_lo", -30.0)
    rule_hi = cfg.get_float("unify", "rule_hi", 30.0)
    problem = AdvectionProblem(c=c, lam=lam, a=rule_lo, b=rule_hi)
    rule = QuadratureRule(
        rule_lo, rule_hi,
        n=cfg.get_int("unify", "rule_n", 4001),
        scheme=cfg.get("unify", "scheme", "trapezoid"),
    )
    n = cfg.get_int("unify", "grid_n", 20)
    if n < 1:
        raise ConfigurationError(f"[unify] grid_n must be >= 1, got {n}")
    grid = np.linspace(
        cfg.get_float("unify", "grid_lo", -5.0),
        cfg.get_float("unify", "grid_hi", 5.0),
        n,
    )
    report = unification_check(problem, grid, rule)

    write_csv(
        outdir / f"{cfg.name}_unify.csv",
        ["x", "y", "K_green", "K_analytic", "K_resolvent_sym", "rel_dev"],
        [report.x, report.y, report.K_green, report.K_analytic,
         report.K_resolvent_sym, report.rel_dev],
    )
    metrics = _base_metrics(cfg)
    metrics.update(
        c=c, lam=lam, grid_n=n, rule_n=rule.n, scheme=rule.scheme,
        scalar=report.scalar,
        max_rel_dev=report.max_rel_dev,
        diag_dev=report.diag_dev,
    )
    write_metrics(outdir / f"{cfg.name}_metrics.txt", metrics)


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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
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
        for name in builtin_system_names():
            print(name)
        return 0
    cfg = _load_config(args)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    cfg = cfg.validate()
    if cfg.command != args.command:
        raise ConfigurationError(
            f"config is for command {cfg.command!r} but {args.command!r} was invoked"
        )
    outdir = pathlib.Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc
    cfg.write(outdir / f"{cfg.name}_config.ini")
    _RUNNERS[args.command](cfg, outdir)
    return 0


def _fail(category: str, exc: Exception) -> None:
    reason = " ".join(str(exc).split())
    sys.stderr.write(f"flowkernels: error category={category} reason={reason}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FlowEscapeError as exc:
        _fail("flow-escape", exc)
        return 4
    except ConfigurationError as exc:
        _fail("config", exc)
        return 2
    except NumericalError as exc:
        _fail("numerical", exc)
        return 3
    except OSError as exc:
        _fail("io", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
