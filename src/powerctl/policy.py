"""Threshold controllers and their numerical optimality audit.

The bias-optimal controller watches a single statistic, the fraction m4 of
users with a packet and a good channel: silence while m4 sits at or below a
scalar threshold, everyone in that class transmits above it.

The threshold value depends on the noise regime. In the interior regime it
is the m4-coordinate of the optimal equilibrium. In the two boundary
regimes the source analysis pairs the regimes with the two candidate
values m4_active and m4_passive in a way that contradicts the equilibria
it certifies as optimal, so both pairings are implemented:

* ``Prop3Consistent`` (default): the threshold equals the m4-coordinate of
  the optimal equilibrium, so the closed loop stabilizes exactly the point
  certified optimal (passive regime -> m4_passive, active -> m4_active).
* ``PaperLiteral``: the swapped assignment, exactly as stated.

``bias_optimality_check`` adjudicates empirically with a grid search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .equilibrium import INTERIOR, PASSIVE, EquilibriumReport, optimal_equilibrium
from .fluid import threshold_bias_batch
from .model import ModelParams, require_good_bad, write_json

PROP3_CONSISTENT = "Prop3Consistent"
PAPER_LITERAL = "PaperLiteral"


def m4_passive(params: ModelParams) -> float:
    """Queue-good mass at the never-transmit equilibrium."""
    return params.beta1


def m4_active(params: ModelParams) -> float:
    """Queue-good mass at the always-transmit equilibrium."""
    b1, rho = params.beta1, params.rho
    return b1 * rho / (rho + b1 * (1.0 - rho))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Transmit-all-above / silence-at-or-below rule on the m4 coordinate."""

    pi: float
    regime: str
    pairing: str


def make_policy(params: ModelParams, pairing: str = PROP3_CONSISTENT) -> ThresholdPolicy:
    """Build the threshold controller for the parameters' noise regime."""
    if pairing not in (PROP3_CONSISTENT, PAPER_LITERAL):
        raise ValueError(f"unknown pairing {pairing!r}")
    report = optimal_equilibrium(params)
    if report.regime == INTERIOR:
        pi = report.m_star[3]
    elif report.regime == PASSIVE:
        pi = m4_passive(params) if pairing == PROP3_CONSISTENT else m4_active(params)
    else:
        pi = m4_active(params) if pairing == PROP3_CONSISTENT else m4_passive(params)
    return ThresholdPolicy(pi=pi, regime=report.regime, pairing=pairing)


AVERAGE_OPTIMAL = "AverageOptimal"


def make_bench_policy(params: ModelParams) -> ThresholdPolicy:
    """Threshold realization of the average-optimal activation, for benchmarks.

    In the boundary regimes every threshold at or below (above) the optimal
    equilibrium's m4 stabilizes the same optimal operating point, and the
    bias integral is nearly flat across them, so the fluid cannot
    distinguish the printed boundary thresholds from the degenerate ones.
    Small finite populations can: a positive threshold makes the system
    idle whenever the class-4 count dips below it, which at populations of
    ten users costs about ten percent. The benchmark therefore realizes
    the active regime as transmit-whenever-possible (threshold 0), the
    passive regime as never-transmit (threshold 1), and the interior
    regime as the duty-cycle threshold at the optimal m4.
    """
    report = optimal_equilibrium(params)
    if report.regime == INTERIOR:
        pi = report.m_star[3]
    elif report.regime == PASSIVE:
        pi = 1.0
    else:
        pi = 0.0
    return ThresholdPolicy(pi=pi, regime=report.regime, pairing=AVERAGE_OPTIMAL)


def apply_fluid(policy: ThresholdPolicy, m) -> float:
    """Fluid control: 0 at or below the threshold, 1 above."""
    return 0.0 if m[3] <= policy.pi else 1.0


def apply_finite(policy: ThresholdPolicy, counts, n_users: int) -> int:
    """Finite-population control: number of full-queue good-channel transmitters."""
    n4 = int(counts[3])
    return n4 if n4 / n_users > policy.pi else 0


def finite_table(policy: ThresholdPolicy, n_users: int) -> np.ndarray:
    """``apply_finite`` as a k table over (Q, n4) = (n2 + n4, n4), for
    ``finite.evaluate_table_exact``: every row is the same, as it reads n4 only."""
    n4 = np.arange(n_users + 1)
    return np.tile(np.where(n4 / n_users > policy.pi, n4, 0), (n_users + 1, 1))


@dataclass
class BiasCheckReport:
    """Grid-search audit of the threshold controller's bias optimality."""

    regime: str
    pairing: str
    policy_pi: float
    grid_step: float
    thresholds: list
    starts: list
    costs: list
    converged: list
    tails: list
    argmins: list
    argmin_first_switch: list
    pi_first_switch: list
    passed: bool
    pairing_verdict: str | None = None
    pairing_costs: dict = field(default_factory=dict)

    def to_json(self, path=None) -> str:
        return write_json(asdict(self), path)


def _argmin_toward(costs, thresholds, target):
    """Index of the cheapest threshold, ties resolved toward ``target``."""
    best = np.min(costs)
    tied = np.flatnonzero(costs <= best + 1e-9)
    return tied[np.argmin(np.abs(thresholds[tied] - target))]


def bias_optimality_check(
    params: ModelParams,
    m0_set=None,
    grid_step: float = 0.005,
    pairing: str = PROP3_CONSISTENT,
    t_max: float = 1e5,
    seed: int = 0,
) -> BiasCheckReport:
    """Compare the policy threshold against a brute-force threshold grid.

    For every start, every candidate threshold on the grid
    {0, grid_step, ..., beta1 + grid_step} is run to equilibrium and its
    bias integral recorded (with the analytic tail when it settles at the
    wrong operating point). The check passes when each argmin lies within
    one grid step of the policy's threshold. Per start it also keeps the first
    switch (time, arc entered) of the argmin's path and of the policy's, None
    for a path that never switches. In the boundary regimes the two pairing
    candidates are also raced and the winner reported.
    ValueError on an empty ``m0_set``, which would pass without a check.
    """
    require_good_bad(params)
    report: EquilibriumReport = optimal_equilibrium(params)
    policy = make_policy(params, pairing)
    if m0_set is None:
        rng = np.random.default_rng(seed)
        m0_set = [rng.dirichlet(np.ones(4)) for _ in range(5)]
    if len(m0_set) == 0:
        raise ValueError("m0_set is empty: the check would pass without auditing a start")
    n_grid = int(np.floor(params.beta1 / grid_step)) + 2
    grid = np.arange(n_grid) * grid_step
    pi_p3c = make_policy(params, PROP3_CONSISTENT).pi
    pi_lit = make_policy(params, PAPER_LITERAL).pi
    taus = np.concatenate([grid, [pi_p3c, pi_lit]])
    at_pi = n_grid if pairing == PROP3_CONSISTENT else n_grid + 1

    costs, flags, tails, argmins, argmin_first, pi_first = [], [], [], [], [], []
    p3c_costs, lit_costs = [], []
    for m0 in m0_set:
        batch = threshold_bias_batch(m0, taus, report.E_star, report.m_star, params, t_max=t_max)
        values = batch.values
        costs.append(values[:n_grid].tolist())
        flags.append(batch.converged[:n_grid].tolist())
        tails.append(batch.tails[:n_grid].tolist())
        best = _argmin_toward(values[:n_grid], grid, policy.pi)
        argmins.append(float(grid[best]))
        argmin_first.append(next(iter(batch.switches[best]), None))
        pi_first.append(next(iter(batch.switches[at_pi]), None))
        p3c_costs.append(float(values[n_grid]))
        lit_costs.append(float(values[n_grid + 1]))

    passed = all(abs(a - policy.pi) <= grid_step + 1e-12 for a in argmins)
    verdict = None
    if report.regime != INTERIOR:
        p3c_total = float(np.sum(p3c_costs))
        lit_total = float(np.sum(lit_costs))
        verdict = PROP3_CONSISTENT if p3c_total <= lit_total else PAPER_LITERAL
    return BiasCheckReport(
        regime=report.regime,
        pairing=pairing,
        policy_pi=policy.pi,
        grid_step=grid_step,
        thresholds=grid.tolist(),
        starts=[np.asarray(m0).tolist() for m0 in m0_set],
        costs=costs,
        converged=flags,
        tails=tails,
        argmins=argmins,
        argmin_first_switch=argmin_first,
        pi_first_switch=pi_first,
        passed=passed,
        pairing_verdict=verdict,
        pairing_costs={PROP3_CONSISTENT: p3c_costs, PAPER_LITERAL: lit_costs},
    )
