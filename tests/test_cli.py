"""CLI contract: exit codes, artifact schemas, determinism, config round trip."""

import csv
import subprocess
import sys

import numpy as np
import pytest

from flowkernels.cli import main
from flowkernels.config import ExperimentConfig, preset, preset_names


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
seed = 0
schema_version = 1

[system]
name = poly2d

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

    def test_seed_override_lands_in_metrics(self, tmp_path):
        rc = main(["unify", "--preset", "unify_advection", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        m = read_metrics(tmp_path / "unify_advection_metrics.txt")
        assert m["seed"] == "7"


# -- exit codes ---------------------------------------------------------------


class TestExitCodes:
    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["advection1d", "cubic1d", "duffing", "linear_test", "poly2d"]

    def test_unknown_preset(self, tmp_path):
        assert main(["solve", "--preset", "no_such", "--out", str(tmp_path)]) == 2

    def test_both_config_and_preset(self, tmp_path):
        path = write_config(tmp_path, MERCER_INI)
        assert main(["mercer", "--config", path, "--preset", "cubic1d_rbf"]) == 2

    def test_neither_config_nor_preset(self):
        assert main(["solve"]) == 2

    def test_missing_config_file(self):
        assert main(["solve", "--config", "/no/such/file.ini"]) == 2

    def test_malformed_ini(self, tmp_path):
        path = write_config(tmp_path, "this is not an ini file [")
        assert main(["solve", "--config", path]) == 2

    def test_unknown_system(self, tmp_path):
        bad = MERCER_INI.replace("name = poly2d", "name = lorenz96")
        path = write_config(tmp_path, bad)
        assert main(["mercer", "--config", path, "--out", str(tmp_path)]) == 2

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
        # without the ridge a degree-1 kernel leaves the normal matrix of rank
        # 3 on 441 points; one factorization fails and nothing is perturbed
        path = write_config(tmp_path, NO_RIDGE_INI)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "category=numerical" in err and "condition estimate" in err
        assert not (tmp_path / "no_ridge_solution.csv").exists()

    def test_flow_escape_is_4(self, tmp_path, capsys):
        path = write_config(tmp_path, ESCAPE_INI)
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 4
        assert "category=flow-escape" in capsys.readouterr().err

    def test_validation_precedes_numerics(self, tmp_path):
        # an invalid grid in an otherwise runnable config must exit 2, not 3
        bad = ESCAPE_INI.replace("counts = 3, 3", "counts = 3")
        path = write_config(tmp_path, bad)
        assert main(["path-integral", "--config", path, "--out", str(tmp_path)]) == 2


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

    def test_path_integral_preset_flows_once(self, tmp_path, monkeypatch):
        # xi and the transport residual come from one stacked flow of the
        # grid and its finite-difference probes
        from flowkernels import path_integral

        calls, flow = [], path_integral.flow

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return flow(*args, **kwargs)

        monkeypatch.setattr(path_integral, "flow", counted)
        assert main(["path-integral", "--preset", "duffing_char", "--out", str(tmp_path)]) == 0
        assert calls == [(5 * 625, 2)]

    def test_unify_preset_metrics(self, tmp_path):
        assert main(["unify", "--preset", "unify_advection", "--out", str(tmp_path)]) == 0
        m = read_metrics(tmp_path / "unify_advection_metrics.txt")
        assert float(m["max_rel_dev"]) <= 1e-3
        assert float(m["diag_dev"]) <= 1e-3
        assert float(m["scalar"]) == pytest.approx(1.0, abs=1e-3)


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
            penalties=_penalties(cfg, X),
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
