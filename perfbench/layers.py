"""Per-layer metrics of one traced job, from its spans and the calls' facts.

A metric whose call the workload does not make reads 0 (for example the
finite solver's times on ``threshold-audit``). ``bases`` returns the
numerator and denominator behind every ratio.
"""

from __future__ import annotations

import math
import statistics

from tracing import LAYERS, self_seconds

REGIMES = ("active", "interior")


def _op(span):
    """Benchmark operation a span belongs to (run ids read job:op:rep)."""
    return span[6].split(":")[1] if span[6] else None


def _times(spans, name, op=None, cpu=False):
    return [
        span[7] if cpu else span[4] - span[3]
        for span in spans
        if span[1] == name and (op is None or _op(span) == op)
    ]


def _median(values):
    return statistics.median(values) if values else 0.0


def _fact(facts, call, key):
    return facts.get(call, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, facts, untraced_wall, traced_wall):
    """Return (metrics, bases) for one traced job."""
    m, bases = {}, {}
    vi = {n: _median(_times(spans, "finite.relative_value_iteration", f"vi_n{n}")) for n in (10, 12)}
    states = {n: _fact(facts, f"vi_n{n}", "states") for n in (10, 12)}
    m["finite.vi_s.n10"] = vi[10]
    # busy (thread CPU) time: compare runs its rows in a GIL-bound thread pool
    m["finite.eval_s.n10"] = _median(_times(spans, "finite.evaluate_policy_exact", "compare", cpu=True))
    m["finite.vi_s.n12"] = vi[12]
    if min(vi.values()) > 0 and min(states.values()) > 0 and states[12] != states[10]:
        m["finite.scaling_exp"] = math.log(vi[12] / vi[10]) / math.log(states[12] / states[10])
    else:
        m["finite.scaling_exp"] = 0.0
    bases["finite.scaling_exp"] = {"vi_s": vi, "states": states}
    for n in (10, 12):
        m[f"finite.vi_iterations.n{n}"] = _fact(facts, f"vi_n{n}", "iterations")
        m[f"finite.states.n{n}"] = states[n]
    m["finite.policy_calls"] = len(_times(spans, "policy.apply_finite"))
    m["finite.eval_markov_s.n10"] = _median(
        _times(spans, "finite.evaluate_policy_exact", "markov_n10")
    )
    for n in (10, 1000):
        sim = _median(_times(spans, "finite.simulate", f"sim_n{n}"))
        m[f"finite.sim_slot_us.n{n}"] = 1e6 * _ratio(sim, _fact(facts, f"sim_n{n}", "slots"))

    for key in REGIMES:
        call = f"threshold_{key}"
        m[f"fluid.grid_batch_s.{key}"] = _median(_times(spans, "fluid.threshold_bias_batch", call))
    m["fluid.grid_values"] = sum(_fact(facts, f"threshold_{k}", "grid_values") for k in REGIMES)
    for key in REGIMES:
        done = _fact(facts, f"threshold_{key}", "converged")
        tried = _fact(facts, f"threshold_{key}", "attempted")
        m[f"fluid.grid_converged_frac.{key}"] = _ratio(done, tried)
        bases[f"fluid.grid_converged_frac.{key}"] = {"converged": done, "attempted": tried}
    for key in REGIMES:
        if f"bias_cost_{key}" in facts and f"threshold_{key}" in facts:
            gap = facts[f"bias_cost_{key}"]["value"] - facts[f"threshold_{key}"]["grid_at_pi"]
        else:
            gap = 0.0
        m[f"fluid.grid_bias_gap.{key}"] = abs(gap)
    m["fluid.bias_cost_s"] = _median(_times(spans, "fluid.bias_cost"))
    for key in REGIMES:
        integrate = _median(_times(spans, "fluid.integrate", f"fluid_{key}"))
        m[f"fluid.rk4_step_us.{key}"] = 1e6 * _ratio(integrate, _fact(facts, f"fluid_{key}", "steps"))
    m["fluid.steps"] = sum(_fact(facts, f"fluid_{k}", "steps") for k in REGIMES)
    m["fluid.surface_share.interior"] = float(_fact(facts, "fluid_interior", "surface_share"))
    m["fluid.csv_write_s"] = _median(_times(spans, "fluid.Trajectory.to_csv"))
    m["fluid.csv_bytes"] = sum(_fact(facts, f"fluid_{k}", "bytes") for k in REGIMES)

    for key in REGIMES:
        m[f"policy.audit_s.{key}"] = _median(
            _times(spans, "policy.bias_optimality_check", f"threshold_{key}")
        )
    m["policy.audit_passed"] = sum(int(_fact(facts, f"threshold_{k}", "passed")) for k in REGIMES)

    optimal = _times(spans, "equilibrium.optimal_equilibrium")
    m["equilibrium.optimal_us"] = 1e6 * _median(optimal)
    m["equilibrium.optimal_calls"] = len(optimal)
    tables = _times(spans, "kernel.build_tables")
    m["kernel.build_tables_us"] = 1e6 * _median(tables)
    m["kernel.build_tables_calls"] = len(tables)
    m["cli.load_config_s"] = _median(_times(spans, "cli.load_config"))
    m["cli.output_bytes"] = sum(f.get("bytes", 0) for f in facts.values())

    m["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    bases["trace.overhead_frac"] = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    own = self_seconds(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    return m, bases
