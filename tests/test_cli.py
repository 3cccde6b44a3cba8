import hashlib
import json
import os
import subprocess
import sys
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import oracles
import powerctl
from powerctl import cli, finite, policy
from powerctl.model import ModelParams


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

    @pytest.mark.parametrize("line", ["theta 0.3", "n_users"])
    def test_line_without_equals_refused(self, cfg_file, line):
        with pytest.raises(cli.ConfigError, match=f"run.cfg:2: expected key = value, got '{line}"):
            cli.load_config(cfg_file(f"# header\n{line}\n"))

    def test_bad_value(self, cfg_file):
        with pytest.raises(cli.ConfigError):
            cli.load_config(cfg_file("theta = fast\n"))

    def test_each_value_has_the_type_of_its_default(self, cfg_file):
        text = ("theta = 1e-1\nn_users = 3\nn_starts = 2\nm0 = 1, 0, 0, 0\n"
                "fluid_policy = active\npairing = literal\n")
        cfg = cli.load_config(cfg_file(text))
        assert cfg.keys() == cli._DEFAULTS.keys()
        for key, default in cli._DEFAULTS.items():
            assert type(cfg[key]) is type(default), key
        assert all(type(v) is float for key in ("m0", "rho_list") for v in cfg[key])
        with pytest.raises(cli.ConfigError, match="bad value for n_users"):
            cli.load_config(cfg_file("n_users = 2.5\n"))


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

    def test_fluid_default_rows(self, cfg_file, tmp_path, capsys):
        # no event to t = 50: rows at 0, 0.01, .., 50, none written twice at the horizon
        code = cli.main(["fluid", "--config", cfg_file(BASE), "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("5001 samples to t=50 -> ")
        times = [row.split(",")[0] for row in (tmp_path / "fluid.csv").read_text().splitlines()[1:]]
        assert times[-2:] == ["49.99", "50"] and len(set(times)) == len(times)

    def test_vi(self, cfg_file, tmp_path):
        code = cli.main(
            ["vi", "--config", cfg_file(BASE + "n_users = 4\n"), "--out", str(tmp_path)]
        )
        assert code == 0
        data = json.loads((tmp_path / "vi.json").read_text())
        assert data["span_residual"] < 1e-9
        assert data["g"] > 0.0
        # the (Q, n4) table: row Q holds k for n4 = 0..Q
        assert [len(row) for row in data["policy"]] == [1, 2, 3, 4, 5]

    # N -> sha256 of json.dumps of the greedy k per count vector, in count-vector order,
    # recorded when vi.json listed them so
    VI_PER_COUNT_VECTOR = {
        10: (286, "6eda39b1309d9bbb895a784e4d3a029c83279750e65d6fc8ef53c2045c90f801"),
        12: (455, "13f1739575f48fc1866158e419458a05aeb79667f8ecd9841195d53a545bc9d1"),
    }

    @pytest.mark.parametrize("n_users", VI_PER_COUNT_VECTOR)
    def test_vi_table_read_off_per_count_vector_is_recorded(self, cfg_file, tmp_path, n_users):
        config = cfg_file(f"n_users = {n_users}\n")
        assert cli.main(["vi", "--config", config, "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "vi.json").read_text())["policy"]
        table = np.zeros((n_users + 1, n_users + 1), dtype=np.int64)
        for q, row in enumerate(rows):
            table[q, : q + 1] = row
        read_off = oracles.per_count_vector(table).tolist()
        size, digest = self.VI_PER_COUNT_VECTOR[n_users]
        assert len(read_off) == size
        assert hashlib.sha256(json.dumps(read_off).encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("name,pairing", [("literal", policy.PAPER_LITERAL),
                                              ("prop3", policy.PROP3_CONSISTENT)])
    def test_compare_bench_policy_is_the_pairing_threshold(self, cfg_file, tmp_path, name,
                                                           pairing):
        # each row's g_mf is that pairing's threshold, evaluated exactly at N = n_users
        text = BASE + f"bench_policy = {name}\n"
        code = cli.main(["compare", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        rho_list = cli._DEFAULTS["rho_list"]
        assert len(rows) == len(rho_list)
        for rho, row in zip(rho_list, rows):
            params = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=rho, lam=1.5, n0=1.0)
            table = policy.finite_table(policy.make_policy(params, pairing), 10)
            g_mf = finite.evaluate_table_exact(table, params, 10)
            assert row.split(",")[:2] == [f"{rho:.12g}", f"{g_mf:.12g}"]

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


class TestSharedParser:
    """One process, many ``cli.main`` calls: the parser is built once, at import, and the
    laws are memoised, so no call may leave state that changes a later one's output."""

    @pytest.fixture
    def run(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE + "rho_list = 0.05, 0.1\n")

        def run(name, command, *extra):
            out = tmp_path / name
            out.mkdir()
            assert cli.main([command, "--config", cfg, "--out", str(out), *extra]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        return run

    def first(self, monkeypatch, run, name, command):
        """The output of ``command`` as if first in its process: no law memoised."""
        monkeypatch.setattr(finite, "_laws", OrderedDict())
        return run(name, command)

    def test_refusals_leave_the_next_call_as_a_first_one(self, monkeypatch, run, capsys):
        first_vi = self.first(monkeypatch, run, "first-vi", "vi")
        for argv in (["vi", "--config", "x.cfg", "--seed", "-1"], ["nonsense", "--config", "x.cfg"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err
        assert run("vi", "vi") == first_vi

    def test_vi_compare_vi_match_first_calls(self, monkeypatch, run):
        first_vi = self.first(monkeypatch, run, "first-vi", "vi")
        first_compare = self.first(monkeypatch, run, "first-compare", "compare")
        monkeypatch.setattr(finite, "_laws", OrderedDict())
        assert [run("a", "vi"), run("b", "compare"), run("c", "vi")] == [
            first_vi, first_compare, first_vi]

    def test_a_seed_given_once_is_not_the_next_default(self, monkeypatch, run):
        assert run("seeded", "threshold", "--seed", "3") != run("default", "threshold")
        assert run("zero", "threshold", "--seed", "0") == run("default-again", "threshold")


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


# model values that validate_params refuses: (command, config line). Before, theta = 0
# crashed fluid and compare with a ZeroDivisionError (exit 1); theta = -0.5 and p_max = nan
# ran vi to exit 0; beta1, n0 and lambda = nan ran vi 10^6 sweeps before exit 3; a NaN
# entry of m0 passed the simplex check, and fluid wrote rows of nan; vi, equilibrium,
# threshold and compare, which do not read m0, ran to exit 0 with an m0 off the simplex;
# fluid at beta1 = 0 divided by zero (exit 1 under -W error, inf and nan without);
# rho * theta below 2^-511 crashed equilibrium, threshold, fluid and compare with a
# ZeroDivisionError at theta = 1e-170 (rho = 0.1) and at theta = 1e-100, rho = 1e-200, and
# threshold with an overflow at rho = 1e-200 and 1e-300 (ValueError without -W error)
MODEL_REFUSED = {
    "theta-zero-fluid": ("fluid", "theta = 0"),
    "theta-zero-compare": ("compare", "theta = 0"),
    "theta-negative": ("vi", "theta = -0.5"),
    "beta1-nan": ("vi", "beta1 = nan"),
    "n0-nan": ("vi", "n0 = nan"),
    "lambda-nan": ("vi", "lambda = nan"),
    "p-max-nan": ("vi", "p_max = nan"),
    "m0-nan": ("fluid", "m0 = nan, 0.5, 0.25, 0.25"),
    "m0-nan-vi": ("vi", "m0 = nan, 0.5, 0.25, 0.25"),
    "m0-nan-equilibrium": ("equilibrium", "m0 = nan, 0.5, 0.25, 0.25"),
    "m0-nan-threshold": ("threshold", "m0 = nan, 0.5, 0.25, 0.25"),
    "m0-nan-compare": ("compare", "m0 = nan, 0.5, 0.25, 0.25"),
    "m0-sum-two-vi": ("vi", "m0 = 0.5, 0.5, 0.5, 0.5"),
    "beta1-zero-fluid": ("fluid", "beta1 = 0\nfluid_policy = passive"),
    **{f"theta-tiny-{command}": (command, "theta = 1e-170")
       for command in ("equilibrium", "threshold", "fluid", "compare")},
    "theta-and-rho-tiny": ("equilibrium", "theta = 1e-100\nrho = 1e-200"),
    "rho-tiny-threshold": ("threshold", "rho = 1e-200"),
    "rho-tinier-threshold": ("threshold", "rho = 1e-300"),
}


class TestExitCodes:
    @pytest.mark.parametrize("command,line", MODEL_REFUSED.values(), ids=MODEL_REFUSED.keys())
    def test_refused_model_value_exits_2(self, cfg_file, tmp_path, capsys, command, line):
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main([command, "--config", cfg_file(BASE + line + "\n"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("small,other", [("rho", "theta"), ("theta", "rho")])
    def test_every_command_runs_at_the_rate_floor(self, cfg_file, tmp_path, small, other):
        # rho * theta = 2^-511, the least the model accepts: no division by zero, and no
        # overflow warning
        rho = 2.0**-510 if small == "rho" else 0.5
        text = BASE + f"{small} = {2.0**-510!r}\n{other} = 0.5\nrho_list = {rho!r}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in sorted(cli._COMMANDS):
                assert cli.main([command, "--config", cfg_file(text), "--out", str(tmp_path)]) == 0

    def test_beta1_zero_is_refused_by_fluid_only(self, cfg_file, tmp_path, capsys):
        # vi needs no slide; equilibrium's regime constants collapse at beta1 = 0
        text = BASE + "beta1 = 0\nfluid_policy = passive\n"
        code = cli.main(["fluid", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 2 and "beta1" in capsys.readouterr().err
        assert cli.main(["vi", "--config", cfg_file(text), "--out", str(tmp_path)]) == 0
        assert cli.main(["equilibrium", "--config", cfg_file(text), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_negative_seed_exits_2(self, cfg_file, tmp_path, capsys, command):
        # numpy's default_rng refuses a negative seed: threshold once exited 1 with a
        # traceback, and the commands that draw no start ran to exit 0
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg_file(BASE), "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
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

    def test_out_of_order_regime_constants_exit_3(self, cfg_file, tmp_path, capsys):
        # a certified convex model whose regime constants n0_1 >= n0_0 is refused
        text = "theta = 0.8\nbeta1 = 0.8\nrho = 0.8\nlambda = 1.0\nn0 = 0.01\np_max = 1000000\n"
        code = cli.main(["equilibrium", "--config", cfg_file(text), "--out", str(tmp_path)])
        assert code == 3
        assert "regime constants out of order" in capsys.readouterr().err

    def test_large_step_exits_0(self, cfg_file, tmp_path, capsys):
        # at dt = 3 the first RK4 step of the default fluid run left the simplex (exit 3);
        # the closed-form flow takes no step, so dt only spaces the rows
        code = cli.main(["fluid", "--config", cfg_file(BASE + "dt = 3\n"), "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("18 samples to t=50 -> ")
        rows = np.loadtxt(tmp_path / "fluid.csv", delimiter=",", skiprows=1)
        assert np.abs(rows[:, 1:5].sum(axis=1) - 1.0).max() < 1e-11 and rows[:, 1:5].min() > 0.0

    def test_missing_out_dir(self, cfg_file, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        code = cli.main(["fluid", "--config", cfg_file(BASE), "--out", str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: output directory {missing}")
        assert not missing.exists()
