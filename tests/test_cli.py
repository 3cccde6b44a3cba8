import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import powerctl
from powerctl import cli, policy


@pytest.fixture
def cfg_file(tmp_path):
    def write(text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    return write


BASE = """
theta = 0.2
beta1 = 0.4
lambda = 1.5
n0 = 1.0
rho = 0.1
n_users = 10
"""


class TestConfig:
    def test_defaults_plus_overrides(self, cfg_file):
        cfg = cli.load_config(cfg_file("theta = 0.3  # comment\nrho_list = 0.1, 0.2\n"))
        assert cfg["theta"] == 0.3
        assert cfg["rho_list"] == [0.1, 0.2]
        assert cfg["beta1"] == 0.4  # default

    def test_unknown_key(self, cfg_file):
        with pytest.raises(cli.ConfigError):
            cli.load_config(cfg_file("nonsense = 1\n"))

    def test_bad_value(self, cfg_file):
        with pytest.raises(cli.ConfigError):
            cli.load_config(cfg_file("theta = fast\n"))


class TestCommands:
    def test_equilibrium(self, cfg_file, tmp_path):
        code = cli.main(
            ["equilibrium", "--config", cfg_file(BASE), "--out", str(tmp_path)]
        )
        assert code == 0
        data = json.loads((tmp_path / "equilibrium.json").read_text())
        assert data["regime"] == "Active"
        assert data["n0_0"] == pytest.approx(24.84)

    def test_fluid_constant_rows(self, cfg_file, tmp_path):
        text = BASE + "fluid_policy = passive\nm0 = 0, 0.6, 0, 0.4\nhorizon = 2\n"
        code = cli.main(["fluid", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "fluid.csv").read_text().splitlines()
        assert rows[0] == "t,m1,m2,m3,m4,s4,inst_cost"
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert first[1:5] == last[1:5]

    def test_vi(self, cfg_file, tmp_path):
        code = cli.main(
            ["vi", "--config", cfg_file(BASE + "n_users = 4\n"), "--out", str(tmp_path)]
        )
        assert code == 0
        data = json.loads((tmp_path / "vi.json").read_text())
        assert data["span_residual"] < 1e-9
        assert data["g"] > 0.0

    def test_compare_table(self, cfg_file, tmp_path):
        text = BASE + "rho_list = 0.1, 0.2\n"
        code = cli.main(["compare", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()
        assert rows[0] == "rho,g_mf,g_vi,rel_err_pct,abs_err_pct"
        assert len(rows) == 3
        for row in rows[1:]:
            rho, g_mf, g_vi, rel, abs_ = (float(x) for x in row.split(","))
            assert g_vi <= g_mf + 1e-9
            assert rel >= 0.0
            # columns carry 12 significant digits; near-equal costs leave
            # the error columns consistent only to the print resolution
            assert rel == pytest.approx(abs(g_mf - g_vi) * 100 / g_mf, rel=1e-3, abs=1e-9)
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1, 0.2]

    def test_threshold_report(self, cfg_file, tmp_path):
        text = BASE + "rho = 0.05\nn_starts = 1\ngrid_step = 0.02\n"
        code = cli.main(
            ["threshold", "--config", cfg_file(text), "--out", str(tmp_path)]
        )
        assert code == 0
        data = json.loads((tmp_path / "threshold.json").read_text())
        assert data["regime"] == "Interior"
        assert data["passed"] is True
        # per start, [time, arc entered] of the first switch, or null
        for key in ("argmin_first_switch", "pi_first_switch"):
            (first,) = data[key]
            assert first is None or (first[0] > 0.0 and first[1] in (0, 1, 2))


    def test_threshold_default_config(self, cfg_file, tmp_path):
        # the shipped default (Active regime, five starts, grid step 0.005)
        code = cli.main(["threshold", "--config", cfg_file(""), "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "threshold.json").read_text())
        assert data["regime"] == "Active"
        assert data["pairing_verdict"] == "Prop3Consistent"
        params = cli._params(cli.load_config(cfg_file("")))
        assert abs(data["policy_pi"] - policy.m4_active(params)) <= 1e-12
        assert np.all(np.isfinite(data["costs"]))
        assert np.shape(data["tails"]) == np.shape(data["costs"])


class TestDeterminism:
    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        text = BASE + "rho_list = 0.1\n"
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            assert cli.main(
                ["compare", "--config", cfg_file(text), "--out", str(out), "--seed", "7"]
            ) == 0
            outputs.append((out / "compare.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_fluid_byte_identical(self, cfg_file, tmp_path):
        text = BASE + "horizon = 5\n"
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            assert cli.main(
                ["fluid", "--config", cfg_file(text), "--out", str(out)]
            ) == 0
            blobs.append((out / "fluid.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestModuleRun:
    def test_runs_as_main_without_warnings(self, cfg_file, tmp_path):
        # ``python -m powerctl.cli`` imports the package first; it must not have loaded cli
        src = str(Path(powerctl.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        args = ["equilibrium", "--config", cfg_file(""), "--out", str(tmp_path)]
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "powerctl.cli", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert (tmp_path / "equilibrium.json").exists()


# config values no command can run on: (command, config line, key the error names).
# Before the checks in load_config the first six crashed with a traceback (exit 1),
# vi_tol = 0 ran 10^6 sweeps before exit 3, and the last four wrote a silently wrong
# output: "grid check PASS" after auditing no start, a duty cycle above 1, a one-row
# fluid.csv
BAD_VALUES = {
    "dt-zero": ("fluid", "dt = 0", "dt"),
    "dt-negative": ("fluid", "dt = -0.01", "dt"),
    "grid-step-zero": ("threshold", "grid_step = 0", "grid_step"),
    "n-users-zero": ("vi", "n_users = 0", "n_users"),
    "n-users-negative": ("compare", "n_users = -2", "n_users"),
    "rho-list-empty": ("compare", "rho_list =", "rho_list"),
    "s4-not-a-number": ("fluid", "fluid_policy = s4=abc", "fluid_policy"),
    "m0-two-entries": ("fluid", "m0 = 0.5, 0.5", "m0"),
    "vi-tol-zero": ("vi", "vi_tol = 0", "vi_tol"),
    "n-starts-zero": ("threshold", "n_starts = 0", "n_starts"),
    "s4-above-one": ("fluid", "fluid_policy = s4=1.5", "fluid_policy"),
    "horizon-zero": ("fluid", "horizon = 0", "horizon"),
    "horizon-negative": ("fluid", "horizon = -1", "horizon"),
    "pairing-unknown": ("vi", "pairing = foo", "pairing"),
    "bench-policy-unknown": ("equilibrium", "bench_policy = foo", "bench_policy"),
}


class TestExitCodes:
    @pytest.mark.parametrize("command,line,key", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_refused_value_exits_2_naming_the_key(self, cfg_file, tmp_path, capsys, command,
                                                   line, key):
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main([command, "--config", cfg_file(BASE + line + "\n"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and f" {key} " in err
        assert list(out.iterdir()) == []

    def test_measure_off_the_simplex_prints_its_sum(self, cfg_file, tmp_path, capsys):
        # the sum is printed as a plain float, not as a numpy repr
        text = BASE + "m0 = 0.5, 0.5, 0.5, 0.5\n"
        code = cli.main(["fluid", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: measure sums to 2.0, not 1\n"

    def test_validation_error_names_assumption(self, cfg_file, tmp_path, capsys):
        code = cli.main(
            ["equilibrium", "--config", cfg_file("theta = 1.2\n"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "Assumption 1" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        assert cli.main(
            ["equilibrium", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        ) == 2

    def test_numerical_refusal(self, cfg_file, tmp_path):
        # noise above the convexity certificate: classification refused
        text = "theta = 0.2\nbeta1 = 0.4\nlambda = 1.5\nn0 = 300\np_max = 100000\n"
        code = cli.main(
            ["equilibrium", "--config", cfg_file(text), "--out", str(tmp_path)]
        )
        assert code == 3

    def test_step_too_large(self, cfg_file, tmp_path, capsys):
        # at dt = 3 the first RK4 step of the default fluid run leaves the simplex
        code = cli.main(["fluid", "--config", cfg_file(BASE + "dt = 3\n"), "--out", str(tmp_path)])
        assert code == 3
        assert "simplex violated" in capsys.readouterr().err

    def test_missing_out_dir(self, cfg_file, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        code = cli.main(["fluid", "--config", cfg_file(BASE), "--out", str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: output directory {missing}")
        assert not missing.exists()
