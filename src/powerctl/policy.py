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

from dataclasses import dataclass, field, fields

import numpy as np

from .equilibrium import INTERIOR, PASSIVE, m4_active, m4_passive, optimal_equilibrium
from .fluid import threshold_bias_batch
from .model import ModelParams, write_json

PROP3_CONSISTENT = "Prop3Consistent"
PAPER_LITERAL = "PaperLiteral"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Transmit-all-above / silence-at-or-below rule on the m4 coordinate."""

    pi: float
    regime: str
    pairing: str


def _pairing_thresholds(params: ModelParams, pairing: str):
    """The optimal equilibrium, and the threshold of each pairing in its regime,
    ``PROP3_CONSISTENT``'s first. ValueError if ``pairing`` is neither."""
    if pairing not in (PROP3_CONSISTENT, PAPER_LITERAL):
        raise ValueError(f"unknown pairing {pairing!r}")
    report = optimal_equilibrium(params)
    if report.regime == INTERIOR:
        pis = (report.m_star[3],) * 2
    elif report.regime == PASSIVE:
        pis = (m4_passive(params), m4_active(params))
    else:
        pis = (m4_active(params), m4_passive(params))
    return report, dict(zip((PROP3_CONSISTENT, PAPER_LITERAL), pis))


def make_policy(params: ModelParams, pairing: str = PROP3_CONSISTENT) -> ThresholdPolicy:
    """Build the threshold controller for the parameters' noise regime."""
    report, pis = _pairing_thresholds(params, pairing)
    return ThresholdPolicy(pi=pis[pairing], regime=report.regime, pairing=pairing)


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
        return write_json({f.name: getattr(self, f.name) for f in fields(self)}, path)


def _argmin_toward(costs, thresholds, target):
    """Index of the cheapest threshold, ties resolved toward ``target``."""
    best = np.min(costs)
    tied = np.flatnonzero(costs <= best + 1e-9)
    return tied[np.argmin(np.abs(thresholds[tied] - target))]


def bias_optimality_check(
    params: ModelParams, m0_set, grid_step: float = 0.005, pairing: str = PROP3_CONSISTENT
) -> BiasCheckReport:
    """Compare the policy threshold against a brute-force threshold grid.

    For every start, every candidate threshold on the grid
    {0, grid_step, ..., beta1 + grid_step} is run to equilibrium and its
    bias integral recorded (with the analytic tail when it settles at the
    wrong operating point), in one ``threshold_bias_batch`` over all (start,
    threshold) pairs. The check passes when each argmin lies within
    one grid step of the policy's threshold. Per start it also keeps the first
    switch (time, arc entered) of the argmin's path and of the policy's, None
    for a path that never switches. In the boundary regimes the two pairing
    candidates are also raced and the winner reported.
    ValueError on an empty ``m0_set``, which would pass without a check.
    """
    report, pis = _pairing_thresholds(params, pairing)
    if len(m0_set) == 0:
        raise ValueError("m0_set is empty: the check would pass without auditing a start")
    starts = np.asarray(m0_set, dtype=float)
    n_grid = int(np.floor(params.beta1 / grid_step)) + 2
    grid = np.arange(n_grid) * grid_step
    taus = np.concatenate([grid, list(pis.values())])
    at_pi = n_grid + list(pis).index(pairing)
    batch = threshold_bias_batch(
        np.repeat(starts, len(taus), axis=0), np.tile(taus, len(starts)),
        report.E_star, report.m_star, params,
    )
    values, flags, tails = (
        a.reshape(len(starts), -1) for a in (batch.values, batch.converged, batch.tails)
    )
    best = [_argmin_toward(row[:n_grid], grid, pis[pairing]) for row in values]
    first = [next(iter(path), None) for path in batch.switches]  # per pair, start-major
    p3c_costs, lit_costs = values[:, n_grid].tolist(), values[:, n_grid + 1].tolist()
    verdict = None
    if report.regime != INTERIOR:
        verdict = PROP3_CONSISTENT if np.sum(p3c_costs) <= np.sum(lit_costs) else PAPER_LITERAL
    return BiasCheckReport(
        regime=report.regime,
        pairing=pairing,
        policy_pi=pis[pairing],
        grid_step=grid_step,
        thresholds=grid.tolist(),
        starts=starts.tolist(),
        costs=values[:, :n_grid].tolist(),
        converged=flags[:, :n_grid].tolist(),
        tails=tails[:, :n_grid].tolist(),
        argmins=grid[best].tolist(),
        argmin_first_switch=[first[i * len(taus) + k] for i, k in enumerate(best)],
        pi_first_switch=first[at_pi :: len(taus)],
        passed=all(abs(a - pis[pairing]) <= grid_step + 1e-12 for a in grid[best]),
        pairing_verdict=verdict,
        pairing_costs={PROP3_CONSISTENT: p3c_costs, PAPER_LITERAL: lit_costs},
    )
