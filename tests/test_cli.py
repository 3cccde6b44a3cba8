import json

import numpy as np
import pytest

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


class TestExitCodes:
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
