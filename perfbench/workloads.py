"""The benchmark's three workloads: inputs, operations and output checks.

A workload is a generator of ``Call`` objects making up one job. Each call
is one operation: a ``powerctl`` CLI command run in-process through
``powerctl.cli.main``, or one library call. Only ``run`` is timed; ``check``
then verifies the outputs and returns facts that the traced run turns into
per-layer metrics. A call fails when ``run`` raises or ``check`` raises.

Reference values were recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from powerctl import cli, equilibrium, finite, fluid, policy
from powerctl.model import ModelParams

# (g_mf, g_vi) per rho of the default N = 10 compare table
COMPARE_G = {
    0.05: (1.8380101988901367, 1.8380101992632136),
    0.1: (3.4376010627353613, 3.437601062933659),
    0.2: (6.085845830072538, 6.085845830298518),
    0.3: (8.188697915168774, 8.188697915322479),
}
VI_G = {10: 3.437601062933659, 12: 4.125173984377067}
# exact g of the benchmark policy at N = 10, rho = 0.1 (memoryless channel)
SIM_EXACT_G = 3.4376010627353613
MARKOV_G = 3.140803997725548
MARKOV_CHANNEL = ((0.7, 0.3), (0.2, 0.8))
VI_TOL = 1e-9  # the CLI's default span tolerance

# Fixed, not seed-drawn: the start decides how many RK4 steps the threshold
# grid and the fluid run take (a seed-drawn start moves their times by
# 15-40% between seeds), so the work per job is held constant.
THRESHOLD_CLI_SEED = 0
FLUID_HORIZON = 500
SIM_RUNS = ((10, 100_000), (1000, 3_000))  # (N, slots)
INTERIOR_N0 = 5.0


class CheckFailed(Exception):
    pass


@dataclass
class Call:
    name: str
    metric: str
    rep: int
    run: Callable[[], object]
    check: Callable[[object], dict]


class Context:
    """Per-run state: scratch directory, seeded generator, facts per call."""

    def __init__(self, tmp: Path, rng):
        self.tmp = tmp
        self.rng = rng
        self.facts = {}

    def config(self, name, text):
        path = self.tmp / name
        path.write_text(text)
        return path

    def out_dir(self, name):
        path = self.tmp / name
        path.mkdir(exist_ok=True)
        return path


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, recorded, what):
    tol = VI_TOL + 1e-11 * abs(recorded)  # CSV values carry 12 digits
    _require(abs(value - recorded) <= tol, f"{what} = {value!r}, recorded {recorded!r}")


def params_of(cfg) -> ModelParams:
    return ModelParams.good_bad(
        theta=cfg["theta"], beta1=cfg["beta1"], rho=cfg["rho"],
        lam=cfg["lambda"], n0=cfg["n0"], p_max=cfg["p_max"],
    )


def _cli(command, cfg, out, *extra):
    """The timed call: one CLI command through ``cli.main``, its stdout discarded."""
    argv = [command, "--config", str(cfg), "--out", str(out), *extra]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return run


# -- nuser-table -----------------------------------------------------------


def _check_compare(out):
    def check(code):
        _require(code == 0, f"exit code {code}")
        path = out / "compare.csv"
        lines = path.read_text().splitlines()
        _require(lines[0] == "rho,g_mf,g_vi,rel_err_pct,abs_err_pct", "compare.csv header")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        _require(sorted(r[0] for r in rows) == sorted(COMPARE_G), "compare.csv rho column")
        for rho, g_mf, g_vi, *_ in rows:
            _close(g_mf, COMPARE_G[rho][0], f"g_mf(rho={rho})")
            _close(g_vi, COMPARE_G[rho][1], f"g_vi(rho={rho})")
            _require(g_vi <= g_mf + 1e-9, f"g_vi > g_mf at rho={rho}")
        return {"bytes": path.stat().st_size}

    return check


def _check_vi(cfg_path, out, n_users):
    def check(code):
        _require(code == 0, f"exit code {code}")
        path = out / "vi.json"
        report = json.loads(path.read_text())
        _close(report["g"], VI_G[n_users], f"g_vi(N={n_users})")
        tol = cli.load_config(cfg_path)["vi_tol"]
        _require(report["span_residual"] < tol, "span above tolerance")
        return {
            "iterations": report["iterations"],
            "states": len(report["policy"]),
            "bytes": path.stat().st_size,
        }

    return check


def nuser_table(ctx):
    """compare on the default config (N = 10 table), and vi at N = 10 and N = 12."""
    default = ctx.config("default.cfg", "# CLI defaults: N = 10, rho_list = 0.05, 0.1, 0.2, 0.3\n")
    vi12 = ctx.config("vi12.cfg", "n_users = 12\n")
    compare_out, vi10_out, vi12_out = (ctx.out_dir(n) for n in ("compare", "vi_n10", "vi_n12"))
    vi10 = _cli("vi", default, vi10_out), _check_vi(default, vi10_out, 10)
    # the short vi_n10 calls are spread over the job so their median samples all of it
    yield Call("vi_n10", "vi_n10_s", 0, *vi10)
    yield Call("compare", "compare_s", 0, _cli("compare", default, compare_out),
               _check_compare(compare_out))
    yield Call("vi_n10", "vi_n10_s", 1, *vi10)
    yield Call("vi_n12", "vi_n12_s", 0, _cli("vi", vi12, vi12_out), _check_vi(vi12, vi12_out, 12))
    yield Call("vi_n10", "vi_n10_s", 2, *vi10)


# -- threshold-audit -------------------------------------------------------


def _check_threshold(ctx, out, regime, params, eq):
    def check(code):
        _require(code == 0, f"exit code {code}")
        path = out / "threshold.json"
        report = json.loads(path.read_text())
        _require(report["regime"] == regime, f"regime {report['regime']}, expected {regime}")
        if regime == equilibrium.ACTIVE:
            b1, rho = params.beta1, params.rho
            closed = b1 * rho / (rho + b1 * (1.0 - rho))  # m4 at the always-on equilibrium
            _require(
                report["pairing_verdict"] == policy.PROP3_CONSISTENT,
                f"pairing verdict {report['pairing_verdict']}",
            )
        else:
            closed = float(eq.m_star[3])
            same = report["starts"][0] == ctx.facts["threshold_active"]["start"]
            _require(same, "the two threshold calls drew different starts")
        _require(abs(report["policy_pi"] - closed) <= 1e-12, f"pi {report['policy_pi']} != {closed}")
        flags = report["converged"][0]
        return {
            "passed": bool(report["passed"]),
            "grid_values": len(report["thresholds"]) + 2,
            "converged": sum(flags),
            "attempted": len(flags),
            "grid_at_pi": report["pairing_costs"][policy.PROP3_CONSISTENT][0],
            "start": report["starts"][0],
            "bytes": path.stat().st_size,
        }

    return check


def _check_bias(value):
    _require(math.isfinite(value), f"bias cost {value}")
    return {"value": value}


def threshold_audit(ctx):
    """threshold (one start) on the Active and Interior configs, bias_cost at pi from that start."""
    regimes = {}
    for key, regime, extra in (
        ("active", equilibrium.ACTIVE, ""),
        ("interior", equilibrium.INTERIOR, f"n0 = {INTERIOR_N0}\n"),
    ):
        cfg = ctx.config(f"{key}.cfg", "n_starts = 1\n" + extra)
        params = params_of(cli.load_config(cfg))
        regimes[key] = (regime, cfg, params, equilibrium.optimal_equilibrium(params))

    def threshold(key):
        regime, cfg, params, eq = regimes[key]
        out = ctx.out_dir(f"threshold_{key}")
        run = _cli("threshold", cfg, out, "--seed", str(THRESHOLD_CLI_SEED))
        return Call(f"threshold_{key}", f"threshold_{key}_s", 0, run,
                    _check_threshold(ctx, out, regime, params, eq))

    def bias_pair(rep):
        for key, (_, _, params, eq) in regimes.items():
            pol = policy.make_policy(params)

            def run(pol=pol, params=params, eq=eq):
                # both threshold calls draw the same start (same CLI seed)
                start = ctx.facts["threshold_active"]["start"]
                return fluid.bias_cost(start, pol, eq.E_star, params, m_star=eq.m_star)

            yield Call(f"bias_cost_{key}", "bias_cost_s", rep, run, _check_bias)

    # the short bias_cost pairs are spread over the job so their median samples all of it
    yield threshold("active")
    yield from bias_pair(0)
    yield threshold("interior")
    yield from bias_pair(1)
    yield from bias_pair(2)


# -- trajectories ----------------------------------------------------------


def _check_fluid(cfg_path, out):
    def check(code):
        _require(code == 0, f"exit code {code}")
        path = out / "fluid.csv"
        lines = path.read_text().splitlines()
        _require(lines[0] == "t,m1,m2,m3,m4,s4,inst_cost", "fluid.csv header")
        last = [float(x) for x in lines[-1].split(",")]
        _require(abs(last[0] - FLUID_HORIZON) < 1e-9, f"final time {last[0]}")
        params = params_of(cli.load_config(cfg_path))
        m_star = equilibrium.optimal_equilibrium(params).m_star
        err = sum(abs(a - b) for a, b in zip(last[1:5], m_star))
        _require(err <= 1e-9, f"final state {err:.3g} (L1) from m_star")
        pi = policy.make_policy(params).pi
        on_surface = sum(abs(float(line.split(",")[4]) - pi) <= 1e-9 for line in lines[1:])
        return {
            "steps": len(lines) - 2,
            "surface_share": on_surface / (len(lines) - 1),
            "bytes": path.stat().st_size,
        }

    return check


def _check_sim(n_users, horizon):
    def check(sim):
        _require(sim.measures.shape == (horizon, 4), "measure shape")
        _require(bool((sim.measures.sum(axis=1) == n_users).all()), "counts do not sum to N")
        _require(math.isfinite(sim.mean_cost) and sim.mean_cost > 0.0, f"mean {sim.mean_cost}")
        if n_users == 10:
            _require(sim.ci95 > 0.0, "zero ci95")
            gap = abs(sim.mean_cost - SIM_EXACT_G)
            _require(gap <= 4.0 * sim.ci95, f"sim mean {sim.mean_cost} vs exact g, ci95 {sim.ci95}")
        return {"slots": horizon}

    return check


def _check_markov(g):
    _close(g, MARKOV_G, "Markov-channel g")
    return {}


def trajectories(ctx):
    """fluid (horizon 500) on both configs, simulate at N = 10 and 1000, Markov evaluation."""
    params = params_of(cli.load_config(ctx.config("default.cfg", "")))
    bench = policy.make_bench_policy(params)
    markov = ModelParams(
        k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.2, n0=1.0,
        lam=1.5, p_max=10.0, q_max=1, channel_matrix=MARKOV_CHANNEL,
    )

    def markov_eval():
        pick = lambda counts: policy.apply_finite(bench, counts, 10)
        return finite.evaluate_policy_exact(pick, markov, 10, channel_model="markov")

    # the short Markov evaluations are spread over the job so their median samples all of it
    yield Call("markov_n10", "markov_eval_s", 0, markov_eval, _check_markov)
    for key, extra in (("active", ""), ("interior", f"n0 = {INTERIOR_N0}\n")):
        cfg = ctx.config(f"fluid_{key}.cfg", f"horizon = {FLUID_HORIZON}\n" + extra)
        out = ctx.out_dir(f"fluid_{key}")
        yield Call(f"fluid_{key}", "fluid_s", 0, _cli("fluid", cfg, out), _check_fluid(cfg, out))
        yield Call("markov_n10", "markov_eval_s", 1 if key == "active" else 2, markov_eval,
                   _check_markov)
    for n_users, horizon in SIM_RUNS:
        seed = int(ctx.rng.integers(2**31))

        def run(n_users=n_users, horizon=horizon, seed=seed):
            pick = lambda counts: policy.apply_finite(bench, counts, n_users)
            return finite.simulate(pick, params, n_users, horizon, seed=seed)

        yield Call(f"sim_n{n_users}", "sim_s", 0, run, _check_sim(n_users, horizon))
    yield Call("markov_n10", "markov_eval_s", 3, markov_eval, _check_markov)


@dataclass(frozen=True)
class Workload:
    job: Callable
    metrics: tuple  # per-operation times, reported by name on the line before the result


WORKLOADS = {
    "nuser-table": Workload(nuser_table, ("compare_s", "vi_n10_s", "vi_n12_s")),
    "threshold-audit": Workload(
        threshold_audit, ("threshold_active_s", "threshold_interior_s", "bias_cost_s")
    ),
    "trajectories": Workload(trajectories, ("fluid_s", "sim_s", "markov_eval_s")),
}
