"""The original stochastic system at finite population size.

Users are exchangeable, so the controlled Markov chain collapses to the
vector of per-class counts (n1, n2, n3, n4). The only useful transmissions
come from class 4 (packet waiting, good channel): zero-gain classes can
never clear the SINR threshold and empty queues gain nothing from service,
while any power level other than the exact-threshold one is either wasted
or insufficient under the 0/1 rate. The action is therefore the number k
of class-4 users driven to meet the threshold exactly, at the symmetric
power that makes each of their SINRs equal to it.

Provides exact machinery (relative value iteration for the optimal
average cost, stationary-distribution policy evaluation) and a seeded
slot-by-slot Monte Carlo simulator. Both exact solvers use the factorisation
P = A·D: a (state, action) pair fixes a post-decision key (A), and the next
state is drawn from that key's law (D).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MultichainDetected, NoConvergence
from .kernel import IID, MARKOV, build_tables
from .model import ModelParams, require_good_bad, validate_params, write_csv


class AggregateSpace:
    """All count vectors of a fixed population over the four classes."""

    def __init__(self, n_users: int, params: ModelParams):
        require_good_bad(params)
        self.n_users = n_users
        states = []
        for n1 in range(n_users + 1):
            for n2 in range(n_users - n1 + 1):
                for n3 in range(n_users - n1 - n2 + 1):
                    states.append((n1, n2, n3, n_users - n1 - n2 - n3))
        self.states = np.array(states, dtype=np.int64)
        self._index = {tuple(s): i for i, s in enumerate(states)}

    def __len__(self):
        return len(self.states)

    def index_of(self, counts) -> int:
        return self._index[tuple(int(c) for c in counts)]


def enumerate_states(n_users: int, params: ModelParams):
    """Lexicographic list of all aggregate states (compositions of n_users)."""
    return [tuple(s) for s in AggregateSpace(n_users, params).states]


def transmit_power(k: int, n_users: int, params: ModelParams) -> float:
    """Symmetric power putting k simultaneous class-4 transmitters exactly
    at the SINR threshold.

    Raises Infeasible when no such power exists or it exceeds the cap,
    which excludes action k from the decision problem.
    """
    if k == 0:
        return 0.0
    load = params.theta * (k - 1) / n_users
    if load >= 1.0:
        raise Infeasible(f"{k} simultaneous transmitters saturate the channel", k=k)
    p = params.theta * params.n0 / (1.0 - load)
    if p > params.p_max:
        raise Infeasible(f"power {p:.6g} for k={k} exceeds cap {params.p_max}", k=k)
    return p


def _check_action(counts, k: int) -> int:
    """Return k, or raise Infeasible unless 0 <= k <= n4 (only class 4 transmits)."""
    if not 0 <= k <= int(counts[3]):
        raise Infeasible(f"k={k} outside [0, n4={int(counts[3])}]", k=k)
    return k


def stage_cost(counts, k: int, n_users: int, params: ModelParams) -> float:
    """Per-slot cost charged on the pre-transition state: power plus holding."""
    return k * transmit_power(k, n_users, params) + params.lam * (
        int(counts[1]) + int(counts[3])
    )


def _multinomial_dists(rows, n_max: int):
    """Count-vector distributions of n iid draws from each distinct row.

    Returns {row_key: [dist_0, ..., dist_n_max]} where dist_n maps a
    4-tuple of destination counts to its probability.
    """
    out = {}
    for key, row in rows.items():
        dists = [{(0, 0, 0, 0): 1.0}]
        for _ in range(n_max):
            nxt = {}
            for counts, prob in dists[-1].items():
                for dest in range(4):
                    if row[dest] == 0.0:
                        continue
                    bumped = list(counts)
                    bumped[dest] += 1
                    bumped = tuple(bumped)
                    nxt[bumped] = nxt.get(bumped, 0.0) + prob * row[dest]
            dists.append(nxt)
        out[key] = dists
    return out


def _convolve(a, b):
    if len(a) == 1 and next(iter(a.keys())) == (0, 0, 0, 0):
        return dict(b)
    out = {}
    for ca, pa in a.items():
        for cb, pb in b.items():
            key = (ca[0] + cb[0], ca[1] + cb[1], ca[2] + cb[2], ca[3] + cb[3])
            out[key] = out.get(key, 0.0) + pa * pb
    return out


class _TransitionBuilder:
    """Per-group multinomial tables for one parameter set: the Markov-channel
    rows of ``evaluate_policy_exact`` and the oracle behind ``transition_distribution``."""

    def __init__(self, params: ModelParams, n_users: int, channel_model: str = IID):
        tables = build_tables(params, channel_model)
        # groups: class 1..3 always fail; class 4 splits into k successes
        # and n4 - k failures
        self.group_rows = [tables.gamma0[i] for i in range(4)] + [tables.gamma1[3]]
        rows = {}
        for row in self.group_rows:
            rows.setdefault(row.tobytes(), row)
        self._dists = _multinomial_dists(rows, n_users)

    def distribution(self, counts, k: int):
        """Joint destination-count distribution for state ``counts``, action k."""
        group_sizes = [int(counts[0]), int(counts[1]), int(counts[2]),
                       int(counts[3]) - k, k]
        dist = {(0, 0, 0, 0): 1.0}
        for row, size in zip(self.group_rows, group_sizes):
            if size == 0:
                continue
            dist = _convolve(dist, self._dists[row.tobytes()][size])
        return dist


def transition_distribution(counts, k: int, params: ModelParams, n_users=None):
    """Sparse next-state distribution of the aggregate chain.

    k class-4 users transit with guaranteed success, everyone else without;
    the per-group multinomials over destination classes are convolved.
    """
    counts = tuple(int(c) for c in counts)
    if n_users is None:
        n_users = sum(counts)
    _check_action(counts, k)
    transmit_power(k, n_users, params)  # raises when k is excluded
    return _TransitionBuilder(params, n_users).distribution(counts, k)


@dataclass
class VIResult:
    """Output of average-cost relative value iteration."""

    g: float
    h: np.ndarray
    policy: np.ndarray
    iterations: int
    span_residual: float

    def to_json(self, path=None) -> str:
        payload = {
            "g": self.g,
            "iterations": self.iterations,
            "span_residual": self.span_residual,
            "policy": self.policy.tolist(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)])


def _iid_next_law(space: AggregateSpace, params: ModelParams) -> np.ndarray:
    """Next-state law of the memoryless chain for every post-service backlog a.

    The a users left holding a packet keep it, the N - a others receive one
    with probability rho, and every user redraws its channel level, so
    Q' = a + Bin(N - a, rho), n4' ~ Bin(Q', beta1) and n3' ~ Bin(N - Q', beta1).
    Row a of the returned (N + 1) x S matrix is that law over ``space``.
    """
    n = space.n_users
    arrivals = np.zeros((n + 1, n + 1))  # [a, Q']
    good = np.zeros((n + 1, n + 1))  # [m, good-channel users among m]
    for m in range(n + 1):
        arrivals[m, m:] = _binomial_pmf(n - m, params.rho)
        good[m, : m + 1] = _binomial_pmf(m, params.beta[1])
    _, n2, n3, n4 = space.states.T
    full = n2 + n4
    return arrivals[:, full] * (good[full, n4] * good[n - full, n3])


def _stationary_law(law, post) -> np.ndarray:
    """Stationary law of P = A·D, where state s moves to key ``post[s]`` (A)
    and key r draws the next state from ``law[r]`` (D).

    Solves directly for the law nu of the key chain M = D·A; nu·D is that
    of P. AD and DA share their nonzero eigenvalues with multiplicities, so
    P has a single recurrent class exactly when M has, and M is checked.
    """
    n_keys = len(law)
    order = np.argsort(post, kind="stable")
    m = np.add.reduceat(law[:, order], np.searchsorted(post[order], np.arange(n_keys)), axis=1)
    reach = (m > 0.0) | np.eye(n_keys, dtype=bool)
    for _ in range(n_keys.bit_length()):  # squaring doubles the path length covered
        reach = (reach.astype(float) @ reach) > 0.0
    # a key is recurrent when every key it reaches reaches it back; its
    # reachable set is then its class, named by its first member
    recurrent = ~(reach & ~reach.T).any(axis=1)
    n_classes = np.unique(reach[recurrent].argmax(axis=1)).size
    if n_classes != 1:
        raise MultichainDetected(f"policy induces {n_classes} recurrent classes; expected 1")
    system = m.T - np.eye(n_keys)
    system[-1] = 1.0  # replaces one redundant balance equation by sum(nu) = 1
    return np.linalg.solve(system, np.eye(n_keys)[-1]) @ law


def relative_value_iteration(
    params: ModelParams, n_users: int, tol: float = 1e-9, max_iter: int = 10**6
) -> VIResult:
    """Optimal average cost of the aggregated problem by relative VI.

    The next state depends on (state, k) only through the backlog
    a = n2 + n4 - k, so a Bellman sweep is q = cost + (D @ h)[a] followed
    by a minimum over each state's actions. Span-seminorm stopping: stop
    once span(Th - h) < tol, report g as the midpoint of the span bounds
    and the greedy policy (smallest k within 1e-12 of the minimum).
    """
    validate_params(params)
    space = AggregateSpace(n_users, params)
    law = _iid_next_law(space, params)
    power = []  # k * p(k); p grows with k, so the allowed k are a prefix of 0..N
    for k in range(n_users + 1):
        try:
            power.append(k * transmit_power(k, n_users, params))
        except Infeasible:
            break
    _, n2, _, n4 = space.states.T
    n_actions = np.minimum(n4, len(power) - 1) + 1
    offsets = np.concatenate([[0], np.cumsum(n_actions)[:-1]])
    state = np.repeat(np.arange(len(space)), n_actions)
    action = np.arange(len(state)) - offsets[state]
    backlog = (n2 + n4)[state] - action
    cost = np.array(power)[action] + params.lam * (n2 + n4)[state]

    def sweep(h):
        q = cost + (law @ h)[backlog]
        return q, np.minimum.reduceat(q, offsets)

    h = np.zeros(len(space))
    for it in range(1, max_iter + 1):
        _, th = sweep(h)
        delta = th - h
        span = float(delta.max() - delta.min())
        if span < tol:
            g = 0.5 * float(delta.max() + delta.min())
            h = th - th[0]
            q, best = sweep(h)
            ties = np.where(q <= best[state] + 1e-12, action, n_users + 1)
            policy = np.minimum.reduceat(ties, offsets)
            return VIResult(g=g, h=h, policy=policy, iterations=it, span_residual=span)
        h = th - th[0]
    raise NoConvergence(
        f"span {span:.3e} above tolerance {tol} after {max_iter} iterations",
        span=span,
        iterations=max_iter,
    )


def evaluate_policy_exact(
    policy_fn, params: ModelParams, n_users: int, channel_model: str = IID
) -> float:
    """Exact long-run average cost of a stationary policy.

    Averages the stage cost under the stationary distribution, obtained by
    a direct solve after verifying the induced chain has a single recurrent
    class (memoryless channels always do; the check guards degenerate
    Markov channel laws). The post-decision key is the backlog n2 + n4 - k
    under the memoryless channel and the post-service counts
    (n1, n2, n3 + k, n4 - k) under the Markov one, where a served class-4
    user moves exactly like a class-3 one. Raises Infeasible when the
    policy picks k outside [0, n4].
    """
    space = AggregateSpace(n_users, params)
    actions = np.empty(len(space), dtype=np.int64)
    costs = np.empty(len(space))
    for i, counts in enumerate(space.states):
        k = _check_action(counts, int(policy_fn(counts)))
        actions[i], costs[i] = k, stage_cost(counts, k, n_users, params)
    if channel_model == IID:
        backlog = space.states[:, 1] + space.states[:, 3] - actions
        keys, post = np.unique(backlog, return_inverse=True)
        law = _iid_next_law(space, params)[keys]
    else:
        builder = _TransitionBuilder(params, n_users, channel_model)
        served = space.states + np.outer(actions, [0, 0, 1, -1])
        keys, post = np.unique([space.index_of(c) for c in served], return_inverse=True)
        law = np.zeros((len(keys), len(space)))
        for row, key in zip(law, keys):
            for dest, prob in builder.distribution(space.states[key], 0).items():
                row[space.index_of(dest)] = prob
    return float(_stationary_law(law, post) @ costs)


@dataclass
class SimResult:
    """Seeded slot simulation output."""

    mean_cost: float
    ci95: float
    measures: np.ndarray
    actions: np.ndarray
    costs: np.ndarray

    def to_csv(self, path):
        columns = (np.arange(len(self.costs)), *self.measures.T, self.actions, self.costs)
        write_csv(path, "t,n1,n2,n3,n4,action,cost", "%d," * 6 + "%.12g\n", columns)


def simulate(
    policy_fn,
    params: ModelParams,
    n_users: int,
    horizon: int,
    seed: int,
    burn_in: float = 0.1,
    channel_model: str = IID,
    initial_counts=None,
) -> SimResult:
    """Slot-by-slot simulation of the finite stochastic system.

    Per slot: the policy picks k from the class counts, the k transmitters
    are driven to the exact SINR threshold (their packets depart), queues
    then absorb Bernoulli arrivals with overflow drop, and channels redraw.
    Deterministic given the seed. Cost is charged on the pre-transition
    state; the mean is taken after the burn-in fraction.
    """
    require_good_bad(params)
    rng = np.random.default_rng(seed)
    beta = np.asarray(params.beta, dtype=float)
    if initial_counts is not None:
        counts = [int(c) for c in initial_counts]
        if sum(counts) != n_users:
            raise ValueError(f"initial counts {counts} must sum to {n_users}")
        lvl = np.repeat([0, 0, 1, 1], counts).astype(np.int8)
        q = np.repeat([0, 1, 0, 1], counts).astype(np.int8)
    else:
        lvl = (rng.random(n_users) < beta[1]).astype(np.int8)
        q = np.zeros(n_users, dtype=np.int8)
    if channel_model == MARKOV:
        chan = np.asarray(params.channel_matrix, dtype=float)
    measures = np.empty((horizon, 4), dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    costs = np.empty(horizon)
    for t in range(horizon):
        cls = 2 * lvl + q
        counts_now = np.bincount(cls, minlength=4)
        k = _check_action(counts_now, int(policy_fn(counts_now)))
        measures[t] = counts_now
        actions[t] = k
        costs[t] = stage_cost(counts_now, k, n_users, params)
        served = np.zeros(n_users, dtype=bool)
        if k > 0:
            # exact-threshold power: the k scheduled users all succeed
            served[np.flatnonzero(cls == 3)[:k]] = True
        arrivals = rng.random(n_users) < params.rho
        q = np.minimum(q - (served & (q > 0)) + arrivals, params.q_max).astype(np.int8)
        if channel_model == IID:
            lvl = (rng.random(n_users) < beta[1]).astype(np.int8)
        else:
            stay_good = rng.random(n_users) < chan[lvl, 1]
            lvl = stay_good.astype(np.int8)
    start = int(burn_in * horizon)
    tail = costs[start:]
    n_batches = min(20, max(1, len(tail) // 50))
    batches = np.array_split(tail, n_batches)
    batch_means = np.array([b.mean() for b in batches])
    ci95 = (
        1.96 * batch_means.std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else 0.0
    )
    return SimResult(
        mean_cost=float(tail.mean()),
        ci95=float(ci95),
        measures=measures,
        actions=actions,
        costs=costs,
    )

