"""CLI contract: exit codes, artifact schemas, determinism, config round trip."""

import csv
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from flowkernels import kernels
from flowkernels.advection import AdvectionProblem, QuadratureRule
from flowkernels.cli import main
from flowkernels.config import ExperimentConfig, preset, preset_names
from flowkernels.mkl import MKLConfig


def read_metrics(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        k, _, v = line.partition(" = ")
        out[k] = v
    return out


def read_csv_columns(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, body


def write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


MERCER_INI = """
[experiment]
name = gauss_modes
command = mercer
schema_version = 1

[kernel]
family = gaussian
gamma = 1

[grid]
bounds = -1:1, -1:1
counts = 9, 9

[mercer]
k = 3
"""

ESCAPE_INI = """
[experiment]
name = pint_escape
command = path-integral

[system]
name = poly2d

[eigenvalue]
index = 0

[grid]
bounds = -1:1, -1:1
counts = 3, 3

[path_integral]
T = 10
M = 500
"""

NO_RIDGE_INI = """
[experiment]
name = no_ridge
command = solve

[system]
name = poly2d

[eigenvalue]
index = 1

[kernel]
family = polynomial
degree = 1
coef0 = 0.5

[grid]
bounds = -1:1, -1:1
counts = 21, 21

[penalties]
eta = 0
mu_grad = 1e4
"""

TINY_LAM_INI = """
[experiment]
name = unify_bad
command = unify

[unify]
c = 1
lam = 1e-320
grid_n = 4
rule_n = 101
"""


# -- config round trip -------------------------------------------------------


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", preset_names())
    def test_string_round_trip(self, name):
        cfg = preset(name)
        assert ExperimentConfig.from_string(cfg.to_string()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = preset("cubic1d_singular")
        path = tmp_path / "cfg.ini"
        cfg.write(path)
        assert ExperimentConfig.from_file(path) == cfg

    def test_archived_config_reparses(self, tmp_path):
        assert main(["unify", "--preset", "unify_advection", "--out", str(tmp_path)]) == 0
        archived = ExperimentConfig.from_file(tmp_path / "unify_advection_config.ini")
        assert archived == preset("unify_advection")


# -- exit codes ---------------------------------------------------------------


class TestExitCodes:
    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["cubic1d", "duffing", "linear_test", "poly2d"]

    def test_unknown_preset(self, tmp_path):
        assert main(["solve", "--preset", "no_such", "--out", str(tmp_path)]) == 2

    def test_both_config_and_preset(self, tmp_path):
        path = write_config(tmp_path, MERCER_INI)
        assert main(["mercer", "--config", path, "--preset", "cubic1d_rbf"]) == 2

    def test_neither_config_nor_preset(self):
        assert main(["solve"]) == 2

    def test_removed_seed_flag_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["unify", "--preset", "unify_advection", "--seed", "7", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_config_file(self):
        assert main(["solve", "--config", "/no/such/file.ini"]) == 2

    def test_malformed_ini(self, tmp_path):
        path = write_config(tmp_path, "this is not an ini file [")
        assert main(["solve", "--config", path]) == 2

    def test_unknown_system(self, tmp_path, capsys):
        bad = NO_RIDGE_INI.replace("name = poly2d", "name = lorenz96")
        path = write_config(tmp_path, bad)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "unknown system 'lorenz96'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_count_below_two(self, tmp_path):
        bad = MERCER_INI.replace("counts = 9, 9", "counts = 1, 9")
        path = write_config(tmp_path, bad)
        assert main(["mercer", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kernel", ["family = gaussian\ngamma = 1\nwidth = 2",
                                        "family = singular_1d\ngamma = 1"],
                             ids=["gaussian", "singular_1d"])
    def test_unknown_kernel_parameter_is_2(self, kernel, tmp_path, capsys):
        bad = MERCER_INI.replace("family = gaussian\ngamma = 1", kernel)
        path = write_config(tmp_path, bad)
        assert main(["mercer", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and "bad arguments for kernel" in err

    def test_command_mismatch(self, tmp_path):
        assert main(["mkl", "--preset", "cubic1d_rbf", "--out", str(tmp_path)]) == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_LAM_INI)
        with np.errstate(over="ignore"):
            assert main(["unify", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "category=numerical" in err
        assert len(err.strip().splitlines()) == 1

    def test_singular_normal_matrix_is_3(self, tmp_path, capsys):
        # a unit gaussian on 441 points needs more than 441 // 16 greedy
        # centers, so phi stays expanded on all points; without the ridge
        # the normal matrix is numerically singular, one factorization fails
        # and nothing is perturbed
        gaussian = _edit(NO_RIDGE_INI, "family = polynomial\ndegree = 1\ncoef0 = 0.5",
                         "family = gaussian\ngamma = 1")
        path = write_config(tmp_path, gaussian)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "category=numerical" in err and "condition estimate" in err
        rank = re.search(r"rank (\d+) of 441", err)
        assert rank and int(rank.group(1)) < 441
        assert not (tmp_path / "no_ridge_solution.csv").exists()

    def test_flow_escape_is_4(self, tmp_path, capsys):
        path = write_config(tmp_path, ESCAPE_INI)
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 4
        assert "category=flow-escape" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("T = 10", "T = 0"), ("T = 10", "T = inf"),
                                          ("M = 500", "M = 0")],
                             ids=["T0", "Tinf", "M0"])
    def test_path_integral_plan_is_2(self, old, new, tmp_path, capsys):
        path = write_config(tmp_path, ESCAPE_INI.replace(old, new))
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 2
        assert "category=config" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("eta = 1e-8", "eta = -1e-3"),
                                          ("mu_grad = 1e4", "mu_grad = -5")],
                             ids=["eta", "mu_grad"])
    @pytest.mark.parametrize("name", ["poly2d_kernel_study", "poly2d_mkl_l1"],
                             ids=["solve", "mkl"])
    def test_invalid_penalty_is_2(self, name, old, new, tmp_path, capsys):
        cfg = preset(name)
        path = write_config(tmp_path, cfg.to_string().replace(old, new))
        assert main([cfg.command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "category=config" in capsys.readouterr().err

    def test_validation_precedes_numerics(self, tmp_path):
        # an invalid grid in an otherwise runnable config must exit 2, not 3
        bad = ESCAPE_INI.replace("counts = 3, 3", "counts = 3")
        path = write_config(tmp_path, bad)
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 2


def _edit(text, old, new):
    assert old in text, old
    return text.replace(old, new)


# config text, command, expected exit code; a config error must leave --out
# uncreated, and a run that succeeds must archive its config
_CONFIG_CASES = {
    "bounds_not_numeric": (_edit(MERCER_INI, "-1:1, -1:1", "-1:one, -1:1"), "mercer", 2),
    "counts_not_integer": (_edit(MERCER_INI, "counts = 9, 9", "counts = 9, 9.5"), "mercer", 2),
    "no_eigenvalue_section": (_edit(NO_RIDGE_INI, "[eigenvalue]\nindex = 1\n", ""), "solve", 2),
    "no_horizon": (_edit(ESCAPE_INI, "T = 10\n", ""), "path-integral", 2),
    "unknown_bank": (_edit(preset("poly2d_mkl_l1").to_string(), "bank = default11",
                           "bank = other"), "mkl", 2),
    "mkl_max_iter_negative": (_edit(preset("poly2d_mkl_l1").to_string(), "max_iter = 200",
                                    "max_iter = -3"), "mkl", 2),
    "mkl_gtol_nan": (_edit(preset("poly2d_mkl_l1").to_string(), "gtol = 1e-6",
                           "gtol = nan"), "mkl", 2),
    "mercer_k_above_points": (_edit(MERCER_INI, "k = 3", "k = 500"), "mercer", 2),
    "alias_rbf": (_edit(MERCER_INI, "family = gaussian", "family = rbf"), "mercer", 0),
    "alias_laplacian": (_edit(MERCER_INI, "family = gaussian", "family = laplacian"),
                        "mercer", 0),
    "capitalized_family": (_edit(MERCER_INI, "family = gaussian", "family = Gaussian"),
                           "mercer", 0),
    "mercer_without_system": (MERCER_INI, "mercer", 0),
    # a key the command never reads is a config error, however harmless
    "mercer_with_system": (_edit(MERCER_INI, "[kernel]", "[system]\nname = poly2d\n\n[kernel]"),
                           "mercer", 2),
    "unread_experiment_key": (_edit(MERCER_INI, "command = mercer\n",
                                    "command = mercer\nseed = 0\n"), "mercer", 2),
    "solve_penalty_typo": (_edit(preset("poly2d_kernel_study").to_string(), "mu_grad = 1e4\n",
                                 "mu_grad = 1e4\nmu_trac = -1\n"), "solve", 2),
    "mkl_boundary_penalties": (_edit(preset("poly2d_mkl_l1").to_string(), "mu_grad = 1e4\n",
                                     "mu_grad = 1e4\nboundary = on\nmu_trace = -5\n"),
                               "mkl", 2),
    "schema_version_unknown": (_edit(MERCER_INI, "schema_version = 1", "schema_version = 2"),
                               "mercer", 2),
    "bounds_nan": (_edit(MERCER_INI, "-1:1, -1:1", "-1:nan, -1:1"), "mercer", 2),
    "bounds_inf": (_edit(MERCER_INI, "-1:1, -1:1", "-1:1, -inf:1"), "mercer", 2),
    "system_argument_nan": (_edit(ESCAPE_INI, "name = poly2d", "name = linear_test(nan, -2)"),
                            "path-integral", 2),
    "system_argument_inf": (_edit(ESCAPE_INI, "name = poly2d", "name = duffing(inf)"),
                            "path-integral", 2),
    # singular_1d takes 1-D points only, and only inside (-1, 1)
    "solve_kernel_invalid_on_grid": (_edit(NO_RIDGE_INI, "family = polynomial\ndegree = 1\n"
                                           "coef0 = 0.5", "family = singular_1d"), "solve", 2),
    "mercer_kernel_invalid_on_grid": (
        _edit(_edit(_edit(MERCER_INI, "family = gaussian\ngamma = 1", "family = singular_1d"),
                    "-1:1, -1:1", "-1:1"), "counts = 9, 9", "counts = 9"), "mercer", 2),
    "singular_1d_at_interval_ends": (_edit(preset("cubic1d_singular").to_string(),
                                           "bounds = -0.99:0.99", "bounds = -1:1"), "solve", 2),
}

# what the error reason must name, beyond its category
_CONFIG_REASONS = {
    "singular_1d_at_interval_ends": "point index 0",
    "mercer_with_system": "mercer command does not read [system] name",
    "unread_experiment_key": "[experiment] seed",
    "solve_penalty_typo": "solve command does not read [penalties] mu_trac",
    "mkl_boundary_penalties": "[penalties] boundary, [penalties] mu_trace",
    "schema_version_unknown": "schema_version '2'",
    "system_argument_nan": "argument 1 of system 'linear_test(nan, -2)' is not finite",
    "system_argument_inf": "argument 1 of system 'duffing(inf)' is not finite",
}


@pytest.mark.parametrize("case", list(_CONFIG_CASES))
def test_config_cases(case, tmp_path, capsys):
    text, command, code = _CONFIG_CASES[case]
    out = tmp_path / "out"
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(out)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.count("\n") == 1    # one error line, no traceback
        assert "category=config" in err and _CONFIG_REASONS.get(case, "") in err
        assert not out.exists()
    else:
        name = ExperimentConfig.from_string(text).name
        assert (out / f"{name}_config.ini").exists()


def _non_finite_cases():
    """Every key of every preset outside [experiment] whose value is a
    number, set in turn to nan, inf and -inf."""
    cases = []
    for name in preset_names():
        for section, entries in preset(name).sections.items():
            if section == "experiment":
                continue
            for key, value in entries.items():
                try:
                    float(value)
                except ValueError:
                    continue
                cases += [pytest.param(name, section, key, bad,
                                       id=f"{name}-{section}.{key}={bad}")
                          for bad in ("nan", "inf", "-inf")]
    return cases


@pytest.mark.parametrize("name, section, key, bad", _non_finite_cases())
def test_non_finite_config_number_is_2(name, section, key, bad, tmp_path, capsys):
    cfg = preset(name)
    sections = {s: dict(entries) for s, entries in cfg.sections.items()}
    sections[section][key] = bad
    out = tmp_path / "out"
    path = write_config(tmp_path, ExperimentConfig(sections=sections).to_string())
    assert main([cfg.command, "--config", path, "--out", str(out)]) == 2
    assert "category=config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", sorted(kernels._FAMILIES))
def test_every_registered_kernel_name_runs_on_the_cli(family, tmp_path):
    # the CLI accepts exactly the names make_kernel accepts, aliases included
    gamma = "gamma = 1\n" if kernels._FAMILIES[family] is kernels.GaussianKernel else ""
    text = (f"[experiment]\nname = registry\ncommand = mercer\n\n"
            f"[kernel]\nfamily = {family}\n{gamma}\n"
            f"[grid]\nbounds = -0.9:0.9\ncounts = 15\n")
    path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # indefinite sigmoid Gram
        assert main(["mercer", "--config", path, "--out", str(tmp_path / "out")]) == 0


# -- every preset runs --------------------------------------------------------


_PRESET_ARTIFACTS = {
    "cubic1d_singular": ("solution.csv", "metrics.txt"),
    "cubic1d_rbf": ("solution.csv", "metrics.txt"),
    "poly2d_kernel_study": ("solution.csv", "metrics.txt"),
    "poly2d_mkl_l1": ("weights.csv", "solution.csv", "metrics.txt"),
    "poly2d_mkl_l2eig": ("weights.csv", "solution.csv", "metrics.txt"),
    "duffing_char": ("xi.csv", "metrics.txt"),
    "unify_advection": ("unify.csv", "metrics.txt"),
}


class TestPresets:
    @pytest.mark.parametrize("name", sorted(_PRESET_ARTIFACTS))
    def test_preset_runs_and_emits(self, name, tmp_path):
        cmd = preset(name).command
        assert main([cmd, "--preset", name, "--out", str(tmp_path)]) == 0
        for suffix in _PRESET_ARTIFACTS[name] + ("config.ini",):
            assert (tmp_path / f"{name}_{suffix}").exists()

    def test_singular_preset_metrics(self, tmp_path):
        assert main(["solve", "--preset", "cubic1d_singular", "--out", str(tmp_path)]) == 0
        m = read_metrics(tmp_path / "cubic1d_singular_metrics.txt")
        assert float(m["rmse_rescaled"]) <= 5e-4
        assert float(m["residual_norm"]) < 1e-10

    @pytest.mark.parametrize("name, n_centers", [("cubic1d_singular", 1), ("cubic1d_rbf", 199)])
    def test_solve_metrics_report_the_basis_size(self, name, n_centers, tmp_path):
        # the rank-one kernel is expanded on one greedy center; the gaussian
        # needs more than 199 // 16 of them and keeps every grid point
        assert main(["solve", "--preset", name, "--out", str(tmp_path)]) == 0
        m = read_metrics(tmp_path / f"{name}_metrics.txt")
        assert int(m["n_centers"]) == n_centers
        assert int(m["n_points"]) == 199

    def test_path_integral_preset_flows_once(self, tmp_path, monkeypatch):
        # xi and the transport residual come from one flow of the grid's
        # 2 * 625 complex-step probes
        from flowkernels import path_integral

        calls, flow = [], path_integral.flow

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return flow(*args, **kwargs)

        monkeypatch.setattr(path_integral, "flow", counted)
        assert main(["path-integral", "--preset", "duffing_char", "--out", str(tmp_path)]) == 0
        assert calls == [(2 * 625, 2)]

    def test_unify_preset_metrics(self, tmp_path):
        assert main(["unify", "--preset", "unify_advection", "--out", str(tmp_path)]) == 0
        m = read_metrics(tmp_path / "unify_advection_metrics.txt")
        assert float(m["max_rel_dev"]) <= 1e-3
        assert float(m["diag_dev"]) <= 1e-3
        assert float(m["scalar"]) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("c", ["0.5", "2"])
    def test_unify_other_speed_agrees(self, c, tmp_path):
        text = preset("unify_advection").to_string().replace("c = 1\n", f"c = {c}\n")
        path = write_config(tmp_path, text)
        assert main(["unify", "--config", path, "--out", str(tmp_path / "out")]) == 0
        m = read_metrics(tmp_path / "out" / "unify_advection_metrics.txt")
        assert float(m["max_rel_dev"]) <= 1e-3
        assert float(m["scalar"]) == pytest.approx(float(c) ** 2, rel=1e-3)

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_unify_non_positive_speed_is_2(self, c, tmp_path, capsys):
        text = preset("unify_advection").to_string().replace("c = 1\n", f"c = {c}\n")
        path = write_config(tmp_path, text)
        assert main(["unify", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "category=config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestLibraryDefaults:
    """A key a config leaves out takes the default of the library class that
    owns its section."""

    def test_empty_sections_write_library_defaults(self, tmp_path):
        mkl = preset("poly2d_mkl_l1").to_string()
        mkl = _edit(mkl, "eta = 1e-8\nmu_grad = 1e4\n", "")
        mkl = _edit(mkl, "tau = 0.1\nmax_iter = 200\ngtol = 1e-6\n", "")
        mkl = _edit(mkl, "counts = 21, 21", "counts = 7, 7")
        assert "[penalties]\n\n[mkl]\n\n" in mkl
        unify = "[experiment]\nname = unify_defaults\ncommand = unify\n\n[unify]\n"
        for cmd, text in (("mkl", mkl), ("unify", unify)):
            path = write_config(tmp_path, text, name=f"{cmd}.ini")
            assert main([cmd, "--config", path, "--out", str(tmp_path / "out")]) == 0
        m = read_metrics(tmp_path / "out" / "poly2d_mkl_l1_metrics.txt")
        assert float(m["tau"]) == MKLConfig.tau
        m = read_metrics(tmp_path / "out" / "unify_defaults_metrics.txt")
        assert int(m["rule_n"]) == QuadratureRule.n and m["scheme"] == QuadratureRule.scheme
        assert float(m["c"]) == AdvectionProblem.c and float(m["lam"]) == AdvectionProblem.lam

    def test_boundary_weights_default_to_the_library(self, tmp_path):
        cfg = preset("cubic1d_singular")
        bare = _edit(cfg.to_string(), "mu_trace = 1e2\nmu_layer = 1e2\n", "")
        path = write_config(tmp_path, bare)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "bare")]) == 0
        assert main(["solve", "--preset", cfg.name, "--out", str(tmp_path / "preset")]) == 0
        name = f"{cfg.name}_solution.csv"
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "preset" / name).read_bytes()

    @pytest.mark.parametrize("key", ["mu_trace", "mu_layer"])
    def test_boundary_weight_checked_with_boundary_off(self, key, tmp_path, capsys):
        text = _edit(preset("poly2d_kernel_study").to_string(), "mu_grad = 1e4\n",
                     f"mu_grad = 1e4\n{key} = -1\n")
        path = write_config(tmp_path, text)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# -- artifact schemas ---------------------------------------------------------


class TestSchemas:
    def test_solution_csv_2d(self, tmp_path):
        assert main(["solve", "--preset", "poly2d_kernel_study", "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "poly2d_kernel_study_solution.csv")
        assert header == ["x1", "x2", "phi", "phi_ref", "abs_err"]
        assert len(body) == 21 * 21

    def test_solution_csv_1d(self, tmp_path):
        assert main(["solve", "--preset", "cubic1d_rbf", "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "cubic1d_rbf_solution.csv")
        assert header == ["x1", "phi", "phi_ref", "abs_err"]
        assert len(body) == 199

    def test_weights_csv(self, tmp_path):
        assert main(["mkl", "--preset", "poly2d_mkl_l1", "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "poly2d_mkl_l1_weights.csv")
        assert header == ["kernel", "beta", "beta_pruned"]
        assert len(body) == 11
        names = [row[0] for row in body]
        assert "gaussian" in names and "polynomial_deg6" in names
        betas = np.array([float(row[1]) for row in body])
        assert betas.sum() == pytest.approx(1.0, abs=1e-9)
        # near-uniform weights sit below tau, so the pruned model is empty
        assert all(float(row[2]) == 0.0 for row in body)
        m = read_metrics(tmp_path / "poly2d_mkl_l1_metrics.txt")
        assert m["pruned_empty"] == "true"
        assert float(m["rmse_rescaled"]) <= 0.25

    def test_spectrum_and_modes_csv(self, tmp_path):
        path = write_config(tmp_path, MERCER_INI)
        assert main(["mercer", "--config", path, "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "gauss_modes_spectrum.csv")
        assert header == ["n", "mu"]
        assert [row[0] for row in body[:3]] == ["1", "2", "3"]
        mus = np.array([float(row[1]) for row in body])
        assert np.all(np.diff(mus) <= 0) and mus.min() >= 0
        header, body = read_csv_columns(tmp_path / "gauss_modes_modes.csv")
        assert header == ["x1", "x2", "psi_1", "psi_2", "psi_3"]
        assert len(body) == 81

    def test_xi_csv(self, tmp_path):
        cfg_text = ESCAPE_INI.replace("index = 0", "index = 1")
        cfg_text = cfg_text.replace("T = 10", "T = 2").replace("M = 500", "M = 100")
        cfg_text = cfg_text.replace("bounds = -1:1, -1:1", "bounds = -0.5:0.5, -0.5:0.5")
        path = write_config(tmp_path, cfg_text)
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "pint_escape_xi.csv")
        assert header == ["x1", "x2", "xi", "residual"]
        vals = np.array([[float(v) for v in row] for row in body])
        assert np.all(np.isfinite(vals))

    def test_unify_csv_columns(self, tmp_path):
        assert main(["unify", "--preset", "unify_advection", "--out", str(tmp_path)]) == 0
        header, body = read_csv_columns(tmp_path / "unify_advection_unify.csv")
        assert header == ["x", "y", "K_green", "K_analytic", "K_resolvent_sym", "rel_dev"]
        assert len(body) == 400


# -- determinism and precision ------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("name,cmd", [
        ("cubic1d_rbf", "solve"),
        ("unify_advection", "unify"),
        ("poly2d_mkl_l1", "mkl"),
    ])
    def test_byte_identical_reruns(self, name, cmd, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main([cmd, "--preset", name, "--out", str(d)]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_full_precision_round_trip(self, tmp_path):
        assert main(["solve", "--preset", "cubic1d_rbf", "--out", str(tmp_path)]) == 0
        _, body = read_csv_columns(tmp_path / "cubic1d_rbf_solution.csv")
        phi = np.array([float(row[1]) for row in body])

        from flowkernels.cli import _grid_points, _penalties
        from flowkernels.collocation import CollocationProblem, evaluate, solve
        from flowkernels.dynamics import make_system
        from flowkernels.kernels import make_kernel

        cfg = preset("cubic1d_rbf")
        X = _grid_points(cfg)
        prob = CollocationProblem.for_eigenvalue(
            make_system("cubic1d"), 1.0, make_kernel("gaussian", ell=0.3), X,
            penalties=_penalties(cfg),
        )
        direct = evaluate(solve(prob), X)
        # 17 significant digits survive the text round trip bit for bit
        np.testing.assert_array_equal(phi, direct)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowkernels.cli", "list-systems"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "duffing" in proc.stdout

    def test_import_loads_no_scipy_optimize(self):
        # scipy.optimize's import was about a quarter second of every run's
        # start-up; the MKL optimizer is numpy
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        code = ("import sys, flowkernels.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
