"""Command-line front end: powerctl <subcommand> --config <path>.

Subcommands: equilibrium, threshold, fluid, vi, compare. Parameters come
from one flat key = value config file (documented in the README); outputs
are JSON reports and CSV tables written to --out. Exit codes: 0 success,
2 configuration or model-assumption error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import equilibrium, finite, fluid, policy
from .errors import AssumptionViolation, NotADistribution, PowerCtlError
from .model import ModelParams, validate_measure, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULTS = {
    "theta": 0.2,
    "beta1": 0.4,
    "lambda": 1.5,
    "n0": 1.0,
    "p_max": 10.0,
    "rho": 0.1,
    "n_users": 10,
    "rho_list": [0.05, 0.1, 0.2, 0.3],
    "pairing": "prop3",
    "bench_policy": "average_optimal",
    "vi_tol": 1e-9,
    "grid_step": 0.005,
    "n_starts": 5,
    "m0": [0.25, 0.25, 0.25, 0.25],
    "horizon": 50.0,
    "dt": 0.01,
    "fluid_policy": "threshold",
}

_PAIRINGS = {
    "prop3": policy.PROP3_CONSISTENT,
    "literal": policy.PAPER_LITERAL,
}


class ConfigError(ValueError):
    pass


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


def _fluid_activation(name):
    """The constant activation s4 of a ``fluid_policy`` name (passive 0, active 1,
    s4=<v> v in [0, 1]), nan for threshold, None for any other name."""
    named = {"threshold": math.nan, "passive": 0.0, "active": 1.0}
    if name in named:
        return named[name]
    try:
        s4 = float(name[3:])
    except ValueError:
        return None
    return s4 if name.startswith("s4=") and 0.0 <= s4 <= 1.0 else None


# key, test of its value, and the rule a value failing the test breaks
_CHECKS = (
    ("n_users", lambda n: n >= 1, "must be at least 1"),
    ("n_starts", lambda n: n >= 1, "must be at least 1"),
    ("rho_list", len, "must list at least one value"),
    ("m0", lambda m0: len(m0) == 4, "must have 4 entries"),
    ("vi_tol", _positive, "must be positive and finite"),
    ("grid_step", _positive, "must be positive and finite"),
    ("horizon", _positive, "must be positive and finite"),
    ("dt", _positive, "must be positive and finite"),
    ("fluid_policy", lambda name: _fluid_activation(name) is not None,
     "must be threshold, passive, active or s4=<v> with v in [0, 1]"),
    ("pairing", lambda name: name in _PAIRINGS, f"must be one of {sorted(_PAIRINGS)}"),
    ("bench_policy", lambda name: name == "average_optimal" or name in _PAIRINGS,
     f"must be average_optimal or one of {sorted(_PAIRINGS)}"),
)


def load_config(path) -> dict:
    """Parse the flat key = value config file; '#' starts a comment.

    Each value parses as the type of its default, a list as comma-separated floats.
    ConfigError on an unreadable file, an unknown key, a value that does not
    parse, or one that breaks a rule of ``_CHECKS``; NotADistribution on an
    ``m0`` off the probability simplex, whichever command reads the config.
    """
    cfg = dict(_DEFAULTS)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in cfg:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if isinstance(_DEFAULTS[key], list):
                cfg[key] = [float(v) for v in value.split(",") if v.strip()]
            else:
                cfg[key] = type(_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    for key, ok, rule in _CHECKS:
        if not ok(cfg[key]):
            raise ConfigError(f"{path}: {key} {rule}, got {cfg[key]!r}")
    validate_measure(cfg["m0"])
    return cfg


def _params(cfg, rho=None) -> ModelParams:
    return ModelParams.good_bad(
        theta=cfg["theta"],
        beta1=cfg["beta1"],
        rho=cfg["rho"] if rho is None else rho,
        lam=cfg["lambda"],
        n0=cfg["n0"],
        p_max=cfg["p_max"],
    )


def _bench_policy(cfg, params):
    name = cfg["bench_policy"]
    if name == "average_optimal":
        return policy.make_bench_policy(params)
    return policy.make_policy(params, _PAIRINGS[name])


def cmd_equilibrium(cfg, out_dir, seed):
    report = equilibrium.optimal_equilibrium(_params(cfg))
    path = f"{out_dir}/equilibrium.json"
    report.to_json(path)
    print(f"{report.regime}: s4*={report.s4_star:.12g} E*={report.E_star:.12g} -> {path}")
    return EXIT_OK


def cmd_threshold(cfg, out_dir, seed):
    params = _params(cfg)
    pairing = _PAIRINGS[cfg["pairing"]]
    rng = np.random.default_rng(seed)
    starts = [rng.dirichlet(np.ones(4)) for _ in range(cfg["n_starts"])]
    report = policy.bias_optimality_check(
        params, m0_set=starts, grid_step=cfg["grid_step"], pairing=pairing
    )
    path = f"{out_dir}/threshold.json"
    report.to_json(path)
    verdict = report.pairing_verdict or "n/a (interior)"
    print(
        f"{report.regime}: pi={report.policy_pi:.12g} grid check "
        f"{'PASS' if report.passed else 'FAIL'}, pairing verdict: {verdict} -> {path}"
    )
    return EXIT_OK


def cmd_fluid(cfg, out_dir, seed):
    params = _params(cfg)
    s4 = _fluid_activation(cfg["fluid_policy"])
    controller = policy.make_policy(params, _PAIRINGS[cfg["pairing"]]) if math.isnan(s4) else s4
    traj = fluid.integrate(cfg["m0"], controller, cfg["horizon"], params, dt=cfg["dt"])
    path = f"{out_dir}/fluid.csv"
    traj.to_csv(path)
    print(f"{len(traj.t)} samples to t={traj.t[-1]:.12g} -> {path}")
    return EXIT_OK


def cmd_vi(cfg, out_dir, seed):
    params = _params(cfg)
    result = finite.relative_value_iteration(params, cfg["n_users"], tol=cfg["vi_tol"])
    path = f"{out_dir}/vi.json"
    result.to_json(path)
    print(
        f"g={result.g:.12g} after {result.iterations} iterations "
        f"(span {result.span_residual:.3g}) -> {path}"
    )
    return EXIT_OK


def _bench_row(cfg, rho):
    params = _params(cfg, rho=rho)
    controller = _bench_policy(cfg, params)
    n_users = cfg["n_users"]
    g_mf = finite.evaluate_table_exact(policy.finite_table(controller, n_users), params, n_users)
    vi = finite.relative_value_iteration(params, n_users, tol=cfg["vi_tol"])
    rel = abs(g_mf - vi.g) * 100.0 / g_mf
    return {
        "rho": rho,
        "g_mf": g_mf,
        "g_vi": vi.g,
        "rel_err_pct": rel,
        "abs_err_pct": abs(g_mf - vi.g) * 100.0,
    }


def cmd_compare(cfg, out_dir, seed):
    rows = [_bench_row(cfg, rho) for rho in sorted(cfg["rho_list"])]
    path = f"{out_dir}/compare.csv"
    names = ("rho", "g_mf", "g_vi", "rel_err_pct", "abs_err_pct")
    columns = [np.array([row[c] for row in rows]) for c in names]
    write_csv(path, ",".join(names), ("%.12g",) * 5, columns)
    worst = max(row["rel_err_pct"] for row in rows)
    print(f"{len(rows)} rows, worst rel err {worst:.4g}% -> {path}")
    return EXIT_OK


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "threshold": cmd_threshold,
    "fluid": cmd_fluid,
    "vi": cmd_vi,
    "compare": cmd_compare,
}


# built once, at import: parse_args reads the parser and changes nothing in it
_PARSER = argparse.ArgumentParser(
    prog="powerctl",
    description="Queue-aware power control: equilibria, threshold policies, benchmarks.",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="flat key = value parameter file")
_PARSER.add_argument("--out", default=".", help="output directory (default: .)")
_PARSER.add_argument("--seed", type=int, default=0, help="seed for randomized starts")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed < 0:  # numpy's default_rng takes no negative seed
        _PARSER.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    try:
        cfg = load_config(args.config)
        if not os.path.isdir(args.out):
            raise ConfigError(f"output directory {args.out} does not exist")
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except (ConfigError, AssumptionViolation, NotADistribution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PowerCtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
