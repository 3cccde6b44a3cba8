"""The original stochastic system at finite population size.

Users are exchangeable, so the controlled Markov chain collapses to the
vector of per-class counts (n1, n2, n3, n4); ``_count_vectors(N)`` lists all
of them in lexicographic order. The only useful transmissions come from
class 4 (packet waiting, good channel): zero-gain classes can never clear
the SINR threshold and empty queues gain nothing from service,
while any power level other than the exact-threshold one is either wasted
or insufficient under the 0/1 rate. The action is therefore the number k
of class-4 users driven to meet the threshold exactly, at the symmetric
power that makes each of their SINRs equal to it.

Provides exact machinery (relative value iteration for the optimal
average cost, stationary-distribution policy evaluation) and a seeded
Monte Carlo simulator. Under the memoryless channel a state acts only
through Q = n2 + n4 and n4, and its next state's law only through the
backlog a = Q - k, so VI keeps h on (Q, n4), O(N^2) per sweep, and every
exact evaluation, of a k table over (Q, n4) or of a callable on the counts,
is one stationary solve on the N + 1 backlogs. Under the Markov channel a
callable is evaluated through P = A·D: a (state, action) pair fixes a
post-decision key (A), its post-service counts, and the next state is drawn
from that key's law (D), built from binomial pmfs. Both chains have a single
recurrent class, proved from the parameters (``_backlog_chain_cost``,
``_require_markov_unichain``), so each evaluation is one direct solve.
The simulator draws each slot's next counts from the law of its post-decision
key, the same laws: a key's first draws are composed group by group from scalar
binomials (O(1) in N), and later ones are popped from a per-key stock of whole
transitions drawn ahead in blocks (``_transition_stock``). It calls the policy
once per distinct count vector.
"""

from __future__ import annotations

import functools
import numbers
from array import array
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MultichainDetected, NoConvergence
from .kernel import IID, MARKOV, require_channel_model
from .model import ModelParams, write_json


def _count_vectors(n_users: int, parts: int = 4) -> np.ndarray:
    """All vectors of ``parts`` counts summing to n_users, in lexicographic order."""
    vectors, rest = np.zeros((1, 0), dtype=np.int64), np.array([n_users])
    for _ in range(parts - 1):  # every prefix in order, then its next count ascending
        width = rest + 1
        prefix = np.repeat(np.arange(len(rest)), width)
        count = np.arange(len(prefix)) - np.repeat(np.cumsum(width) - width, width)
        vectors, rest = np.column_stack([vectors[prefix], count]), rest[prefix] - count
    return np.column_stack([vectors, rest])


def _checked_users(n_users: int) -> int:
    if n_users < 1:  # as cli.load_config refuses it
        raise ValueError(f"n_users must be at least 1, got {n_users!r}")
    return n_users


def transmit_power(k: int | np.ndarray, n_users: int, params: ModelParams) -> float | np.ndarray:
    """Symmetric power p(k) = theta n0 / (1 - theta (k - 1) / N) putting k
    simultaneous class-4 transmitters exactly at the SINR threshold, 0 at k = 0:
    a float for an int k, an array for an int array.

    Every k in [0, N] is feasible: the load theta (k - 1) / N stays below
    theta < 1, so p(k) < theta n0 / (1 - theta) <= p_max by Assumption 2,
    which ``ModelParams`` checks on construction. Raises Infeasible for a k
    that is not a whole number or lies outside [0, N], ValueError for N < 1.
    """
    _checked_users(n_users)
    whole, inside = k % 1 == 0, (0 <= k) & (k <= n_users)  # bools, or arrays for an array k
    if isinstance(k, np.ndarray):
        whole, inside = whole.all(), inside.all()
    if not whole:
        raise Infeasible(f"k={k} is not a whole number", k=k)
    if not inside:
        raise Infeasible(f"k={k} outside [0, N={n_users}]", k=k)
    # (k > 0) zeroes p(0), which the formula would put at theta n0 / (1 + theta / N)
    return (k > 0) * (params.theta * params.n0 / (1.0 - params.theta * (k - 1) / n_users))


def _check_action(counts, k) -> int:
    """Return k as an int, or raise Infeasible unless k is a whole number in
    [0, n4] (only class 4 transmits); a float such as 3.0 is taken as 3."""
    if not float(k).is_integer():
        raise Infeasible(f"k={k} is not a whole number", k=k)
    if not 0 <= k <= int(counts[3]):
        raise Infeasible(f"k={k} outside [0, n4={int(counts[3])}]", k=k)
    return int(k)


@dataclass
class VIResult:
    """Output of average-cost relative value iteration.

    ``values`` (the relative value h) and ``table`` (the greedy k) live on
    (Q, n4) = (n2 + n4, n4), indexed [Q, n4] for n4 <= Q; ``to_json`` writes
    the table as its N + 1 rows, row Q holding k for n4 = 0..Q.
    """

    g: float
    values: np.ndarray
    table: np.ndarray
    iterations: int
    span_residual: float

    def to_json(self, path) -> None:
        write_json({
            "g": self.g,
            "iterations": self.iterations,
            "span_residual": self.span_residual,
            "policy": [row[: q + 1] for q, row in enumerate(self.table.tolist())],
        }, path)


_LAW_BUDGET = 16 * 2**20  # most bytes of laws ``_memoised`` keeps: two N = 1000 laws fit
_laws = OrderedDict()  # (builder, n, p) -> read-only law, least recently used first
_STALL_SWEEPS = 100  # sweeps in a row without a new least span that end relative VI


def _memoised(builder):
    """``builder(n, p)`` memoised for the life of the process, for laws that depend
    only on (n, p).

    Every caller gets the same read-only array (writing into it raises ValueError).
    The laws kept hold at most ``_LAW_BUDGET`` bytes in all: the least recently used
    go first, and a law larger than the budget is built, returned and not kept.
    ``__wrapped__`` is the builder.
    """

    @functools.wraps(builder)
    def law(n: int, p: float) -> np.ndarray:
        key = (builder, n, p)
        if key in _laws:
            _laws.move_to_end(key)
            return _laws[key]
        table = builder(n, p)
        table.flags.writeable = False
        if table.nbytes <= _LAW_BUDGET:
            _laws[key] = table
            kept = sum(t.nbytes for t in _laws.values())
            while kept > _LAW_BUDGET:
                kept -= _laws.popitem(last=False)[1].nbytes
        return table

    return law


@_memoised
def _binomial_table(n: int, p: float) -> np.ndarray:
    """(n + 1) x (n + 1) table whose row m is the pmf of Bin(m, p), zero past m:
    row m + 1 is row m convolved with (1 - p, p), divided by its sum so that
    rounding does not build up along the rows. Memoised, read-only."""
    table = np.zeros((n + 1, n + 1))
    row, step = np.ones(1), np.array([1.0 - p, p])
    for m in range(n + 1):
        table[m, : m + 1] = row
        row = np.convolve(row, step)
        row /= row.sum()
    return table


@_memoised
def _arrival_law(n: int, rho: float) -> np.ndarray:
    """[a, Q']: the law of Q' = a + Bin(n - a, rho) full queues from backlog a.
    Memoised, read-only."""
    arrive = _binomial_table(n, rho)
    a, q = np.ogrid[: n + 1, : n + 1]
    return np.where(q >= a, arrive[n - a, q - a], 0.0)


def _channel_weight(states: np.ndarray, n: int, params: ModelParams) -> np.ndarray:
    """Probability Bin(n4; Q, beta1)·Bin(n3; N - Q, beta1) that redrawn channels
    split the Q = n2 + n4 full and N - Q empty queues as each count vector does."""
    good = _binomial_table(n, params.beta1)
    _, n2, n3, n4 = states.T
    full = n2 + n4
    return good[full, n4] * good[n - full, n3]


def _markov_next_law(keys: np.ndarray, states: np.ndarray, params: ModelParams) -> np.ndarray:
    """Next-state law of the Markov-channel chain for post-service counts ``keys``
    over the count vectors ``states`` of N users.

    From key (n1, n2, n3, n4), A1 ~ Bin(n1, rho) of the bad-channel and
    A3 ~ Bin(n3, rho) of the good-channel empty users receive a packet. With
    c_l the probability of a good level next from level l (bad 0, good 1),
    Q' = n2 + n4 + A1 + A3, n4' = Bin(n2 + A1, c0) + Bin(n4 + A3, c1) and
    n3' = Bin(n1 - A1, c0) + Bin(n3 - A3, c1). Row r of the returned
    len(keys) x S matrix is that law for keys[r], summed over A1.
    """
    n = int(states[0].sum())
    arrivals = _binomial_table(n, params.rho)  # [m, arrivals among m empty users]
    from_bad, from_good = (_binomial_table(n, row[1]) for row in params.channel_matrix)
    # good[f0, f1, x]: x good levels next among f0 users now bad and f1 now good
    # (read only where f0 + f1 <= n, where the cut at n drops nothing)
    good = np.array([[np.convolve(b, g)[: n + 1] for g in from_good] for b in from_bad])
    _, n2, n3, n4 = states.T
    arrived = (n2 + n4) - (keys[:, 1] + keys[:, 3])[:, None]  # A1 + A3, [key, state]
    law = np.zeros(arrived.shape)
    for a1 in range(n + 1):
        a3 = arrived - a1
        r, s = np.nonzero((a1 <= keys[:, :1]) & (a3 >= 0) & (a3 <= keys[:, 2:3]))
        k1, k2, k3, k4 = keys[r].T
        a3 = a3[r, s]
        law[r, s] += (
            arrivals[k1, a1] * arrivals[k3, a3]
            * good[k2 + a1, k4 + a3, n4[s]] * good[k1 - a1, k3 - a3, n3[s]]
        )
    return law


def _key_chain_law(m) -> np.ndarray:
    """Stationary law of a post-decision key chain M with a single recurrent
    class, by one direct solve; the callers prove the single class from the
    parameters (``_backlog_chain_cost``, ``_require_markov_unichain``)."""
    n_keys = len(m)
    system = m.T - np.eye(n_keys)
    system[-1] = 1.0  # replaces one redundant balance equation by sum(nu) = 1
    return np.linalg.solve(system, np.eye(n_keys)[-1])


def _require_markov_unichain(params: ModelParams, n_users: int) -> None:
    """Raise MultichainDetected when the Markov-channel chain can have more
    than one recurrent class, which only two channels allow.

    Let c_l be the probability of a good level next from level l, and rho lie
    in (0, 1). If c0 < 1 and c1 < 1, every key reaches "every queue full,
    every channel bad" in one step; there n4 = 0 forces k = 0, so every key
    reaches key (0, N, 0, 0) in one step. If c0 > 0 and c1 > 0, every key
    reaches "every queue full, every channel good", whose key is
    (0, 0, k*, N - k*) for the policy's k* there. Either way one key is
    reached from every key in one step, so there is a single recurrent class,
    and it is aperiodic, whatever the policy. Otherwise (c0, c1) is (0, 1) or
    (1, 0):

    - (0, 1), a frozen channel: the good-channel count never changes, so
      each of its N + 1 values is closed;
    - (1, 0): every level flips each slot and the good-channel count G moves
      to N - G. For N >= 2, {0, N} and {1, N - 1} are closed. At N = 1 the
      chain is one class of period 2, and its stationary law is unique.
    """
    c0, c1 = (row[1] for row in params.channel_matrix)
    if (c0, c1) == (0.0, 1.0):
        raise MultichainDetected(
            "frozen Markov channel (good-next probabilities 0 from bad, 1 from good): "
            "the good-channel count never changes, so every policy has at least "
            f"{n_users + 1} recurrent classes"
        )
    if (c0, c1) == (1.0, 0.0) and n_users >= 2:
        raise MultichainDetected(
            "alternating Markov channel (good-next probabilities 1 from bad, 0 from good): "
            "the good-channel count G moves to N - G every slot, so for N >= 2 "
            "every policy has more than one recurrent class"
        )


def _power_table(n_users: int, params: ModelParams) -> np.ndarray:
    """k * p(k) for k = 0..N."""
    k = np.arange(n_users + 1)
    return k * transmit_power(k, n_users, params)


def relative_value_iteration(params: ModelParams, n_users: int, tol: float = 1e-9) -> VIResult:
    """Optimal average cost of the aggregated problem by relative VI.

    h lives on (Q, n4) = (n2 + n4, n4). A sweep takes W(a) = E[h(Q', n4') | a] for
    Q' = a + Bin(N - a, rho), n4' ~ Bin(Q', beta1), then Th(Q, n4) as the minimum over
    k <= n4 of lam * Q + k * p(k) + W(Q - k), one running minimum along k for all n4: O(N^2).
    Span-seminorm stopping: stop once span(Th - h) < tol, report g as the midpoint of the
    span bounds and the greedy policy (smallest k within 1e-12 of the minimum); h is 0 at
    (Q, n4) = (N, N), the first count vector. The step contracts the span
    (``_backlog_chain_cost``), so only rounding stops its fall: NoConvergence, with the
    least span, once ``_STALL_SWEEPS`` sweeps in a row set none lower. ValueError for N < 1.
    """
    n = _checked_users(n_users)
    arrivals, good = _arrival_law(n, params.rho), _binomial_table(n, params.beta1)
    cost = _power_table(n, params) + params.lam * np.arange(n + 1)[:, None]  # [Q, k]
    padded = np.full(2 * n + 1, np.inf)  # (W(N), ..., W(0), inf, ...)
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]  # W(Q - k)
    work = np.empty((n + 1, n + 1))  # holds Th, overwritten by every sweep

    def sweep(h):
        padded[n::-1] = np.einsum("aq,q->a", arrivals, np.einsum("qj,qj->q", good, h))
        # the running minimum over k <= n4 is Th(Q, n4); for n4 > Q (no state) it repeats
        # Th(Q, Q), so it adds no extreme to the span, and good is 0 there
        return np.minimum.accumulate(np.add(cost, shifted, out=work), axis=1, out=work)

    h, it, least = np.zeros((n + 1, n + 1)), 0, (np.inf, 0)  # least: the least span, its sweep
    while it - least[1] < _STALL_SWEEPS:
        it += 1
        th = sweep(h)
        delta = th - h
        span = float(delta.max() - delta.min())
        if span < tol:
            g = 0.5 * float(delta.max() + delta.min())
            h = th - th[n, n]
            best = sweep(h)
            # the running minimum falls, so its first entry within 1e-12 of the
            # minimum is the first k within 1e-12
            table = np.array([np.searchsorted(-row, -(row + 1e-12)) for row in best])
            return VIResult(g=g, values=h, table=table, iterations=it, span_residual=span)
        least = min(least, (span, it))  # a tie, or a NaN span, keeps the earlier sweep
        h = th - th[n, n]
    raise NoConvergence(f"span stalled at {least[0]:.3e} above tolerance {tol} after {it} "
                        "iterations", span=least[0], iterations=it)


def _priced(k: np.ndarray, n4: np.ndarray, n_users: int, params: ModelParams) -> tuple:
    """The actions k as int64 and k * p(k) for each, n4 holding the class-4 count
    at each entry; Infeasible on the first entry, in the given order, that is not a
    whole number in [0, n4] (``_check_action``)."""
    for i in np.flatnonzero(~((k >= 0) & (k <= n4) & (k == np.round(k))))[:1]:
        _check_action((0, 0, 0, n4[i]), k[i])  # reads n4 only
    k = k.astype(np.int64)
    return k, _power_table(n_users, params)[k]


def _backlog_chain_cost(n, full, weight, k, cost, params: ModelParams) -> float:
    """Average cost of the memoryless chain on its N + 1 backlogs, M = P_Q·T.

    Entry i stands for the states with Q' = full[i] that the channel redraw
    reaches with probability weight[i], serving k[i] at stage cost cost[i].
    P_Q[a, Q'] is the law of Q' = a + Bin(N - a, rho) and T[Q', a'] the
    probability that Q' - k = a'.

    M has a single recurrent class for every policy and every beta1, and it
    is aperiodic, so no check precedes the solve. From every backlog a,
    Q' = N has probability rho^(N - a) > 0. Given Q' = N, the counts are
    (0, N - j, 0, j) with probability Bin(j; N, beta1), the same for every a.
    So for any j of positive probability, the backlog N - k(0, N - j, 0, j)
    is reached in one step from every backlog, and also from itself.
    """
    moves = np.bincount(full * (n + 1) + full - k, weight, (n + 1) ** 2).reshape(n + 1, n + 1)
    arrivals = _arrival_law(n, params.rho)
    cost = np.bincount(full, weight * cost, n + 1)  # E[cost | Q']
    return float(_key_chain_law(arrivals @ moves) @ (arrivals @ cost))


def evaluate_table_exact(table, params: ModelParams, n_users: int) -> float:
    """Exact long-run average cost (memoryless channel) of the policy serving
    k = table[Q, n4] where Q = n2 + n4; entries with n4 > Q are not read.

    The key chain is that of the N + 1 backlogs (``_backlog_chain_cost``),
    with n4' ~ Bin(Q', beta1). Raises Infeasible on the k
    ``evaluate_policy_exact`` raises on: the first, in count-vector order,
    that is not a whole number in [0, n4], and ValueError for N < 1. The chain's
    single class needs rho in (0, 1), which ``ModelParams`` checks on construction.
    """
    n = _checked_users(n_users)
    # the count vectors with n1 = 0 hold every (Q, n4) once, each at its first place
    n2, _, n4 = _count_vectors(n, parts=3).T
    full = n2 + n4
    k, priced = _priced(np.asarray(table)[full, n4], n4, n, params)
    cost = params.lam * full + priced
    weight = _binomial_table(n, params.beta1)[full, n4]
    return _backlog_chain_cost(n, full, weight, k, cost, params)


def evaluate_policy_exact(
    policy_fn, params: ModelParams, n_users: int, channel_model: str = IID
) -> float:
    """Exact long-run average cost of a stationary policy.

    The policy runs once on every count vector, in ``_count_vectors`` order,
    before its actions are checked: Infeasible names the first k that is not
    a whole number in [0, n4]. Under the memoryless channel a count vector
    moves to its backlog n2 + n4 - k, and the chain is solved on the N + 1
    backlogs (``_backlog_chain_cost``), each vector weighted by the law of its
    channel redraw. Under the Markov channel the stationary law of
    P = A·D (state s moves to the post-service key (n1, n2, n3 + k, n4 - k),
    a served class-4 user moving exactly like a class-3 one, and key r draws
    the next state from law[r]) is nu·D for the law nu of the key chain
    M = D·A; AD and DA share their nonzero eigenvalues, so M has a single
    recurrent class exactly when P has. Both chains have one for every policy
    (``_backlog_chain_cost``, ``_require_markov_unichain``), except on the two
    degenerate Markov channels, which raise MultichainDetected before the
    policy runs. Both certificates need rho in (0, 1), which ``ModelParams``
    checks on construction. ValueError for N < 1.
    """
    require_channel_model(params, channel_model)
    if channel_model == MARKOV:
        _require_markov_unichain(params, n_users)
    states = _count_vectors(_checked_users(n_users))
    actions = np.array([policy_fn(counts) for counts in states])
    full = states[:, 1] + states[:, 3]
    actions, priced = _priced(actions, states[:, 3], n_users, params)
    costs = priced + params.lam * full
    if channel_model == IID:
        weight = _channel_weight(states, n_users, params)
        return _backlog_chain_cost(n_users, full, weight, actions, costs, params)
    served = states + np.outer(actions, [0, 0, 1, -1])
    keys, post = np.unique(served, axis=0, return_inverse=True)
    law = _markov_next_law(keys, states, params)
    order = np.argsort(post, kind="stable")
    m = np.add.reduceat(law[:, order], np.searchsorted(post[order], np.arange(len(law))), axis=1)
    return float(_key_chain_law(m) @ law @ costs)


@dataclass
class SimResult:
    """Seeded slot simulation output."""

    mean_cost: float
    ci95: float
    measures: np.ndarray
    actions: np.ndarray
    costs: np.ndarray


def _initial_counts(initial_counts, n_users: int) -> tuple:
    """The start counts as four ints, or ValueError unless they are four
    non-negative integers summing to n_users."""
    counts = tuple(initial_counts)
    if not (
        len(counts) == 4
        and all(isinstance(c, numbers.Integral) and c >= 0 for c in counts)
        and sum(counts) == n_users
    ):
        raise ValueError(
            f"initial counts {list(counts)} must be four non-negative integers "
            f"summing to {n_users}"
        )
    return tuple(int(c) for c in counts)


_FIRST_DRAWS = 32  # draws of a post-decision key composed from scalar binomials, before blocks
_STOCK_CAP = 4096  # most whole transitions one block of a key draws
_BURN_IN = 0.1  # share of the horizon simulate leaves out of the mean


def _channel_step(params: ModelParams, n_users: int, channel_model: str):
    """``(post, draw_next)`` of a channel model on N = n_users users.

    A count vector (n1, n2, n3, n4) has the code (n1 * (N + 1) + n2) * (N + 1)
    + n3. ``post(code, full, k)`` is the int post-decision key of serving k at
    the count vector of that code with full = n2 + n4: the key of the exact
    solvers' P = A·D, on which alone the next counts depend.
    ``draw_next(key, draw)`` draws the code of the next counts, taking each
    Bin(m, p) from ``draw(m, p)``; when ``draw`` returns arrays of draws, it
    returns an array of codes:

    - memoryless (``_backlog_chain_cost``): the key is the backlog
      a = full - k; Q' = a + Bin(N - a, rho), n4' ~ Bin(Q', beta1),
      n3' ~ Bin(N - Q', beta1);
    - Markov (``_markov_next_law``): the key is the code of (n1, n2, n3 + k,
      n4 - k), code + k, a served user moving exactly like an empty
      good-channel one; each empty group draws its arrivals, and each group
      its good-next count with the probability of its current level.
    """
    n, base, rho = n_users, n_users + 1, params.rho
    if channel_model == IID:
        good = params.beta1

        def draw_next(a, draw):
            full = a + draw(n - a, rho)
            n4, n3 = draw(full, good), draw(n - full, good)
            return ((n - full - n3) * base + full - n4) * base + n3

        return (lambda code, full, k: full - k), draw_next
    from_bad, from_good = (row[1] for row in params.channel_matrix)

    def draw_next(key, draw):
        rest, k3 = divmod(key, base)
        k1, k2 = divmod(rest, base)
        a1, a3 = draw(k1, rho), draw(k3, rho)
        bad_full, good_full = k2 + a1, n - k1 - k2 - k3 + a3
        bad_empty, good_empty = k1 - a1, k3 - a3
        n4 = draw(bad_full, from_bad) + draw(good_full, from_good)
        n3 = draw(bad_empty, from_bad) + draw(good_empty, from_good)
        return ((bad_empty + good_empty - n3) * base + bad_full + good_full - n4) * base + n3

    return (lambda code, full, k: code + k), draw_next


def _transition_stock(binomial, draw_next, wide: bool = False):
    """``(stocks, refill)``: a stock of whole next-state draws per post-decision key.

    ``stocks`` maps a key to its pending codes, popped from the end, and
    ``refill(key)``, called when they are missing or empty, returns the key's
    next code. A key's first ``_FIRST_DRAWS`` codes are each one ``draw_next``
    on scalar ``binomial(m, p)`` calls. Each later refill is one ``draw_next``
    on ``binomial(m, p, size=size)``, a block of whole transitions in one
    vectorised pass, whose size doubles per refill from 2 * ``_FIRST_DRAWS``
    up to ``_STOCK_CAP``. The schedule depends only on the key's own refills.
    When codes can pass int64 (``wide``), every draw is composed and nothing
    is stocked.

    Each code is a draw from the key's next-state law, independent of every
    code returned before it: every ``binomial`` call returns fresh draws,
    independent of all earlier ones, and no code is read before it is popped.
    """
    stocks = {}  # key -> pending codes, popped from the end
    sizes = {}  # key -> composed draws so far, then the size of its last block
    composed = float("inf") if wide else _FIRST_DRAWS

    def refill(key):
        size = sizes.get(key, 0)
        if size < composed:
            sizes[key] = size + 1
            return draw_next(key, binomial)
        size = sizes[key] = min(2 * size, _STOCK_CAP)
        pending = stocks.setdefault(key, array("q"))
        # int64 codes packed 8 bytes apiece into the key's emptied array, whose buffer
        # popping never shrinks; each pop returns a fresh int
        pending.frombytes(draw_next(key, functools.partial(binomial, size=size)).view(np.uint8))
        return pending.pop()

    return stocks, refill


def simulate(
    policy_fn,
    params: ModelParams,
    n_users: int,
    horizon: int,
    seed: int,
    channel_model: str = IID,
    initial_counts=None,
) -> SimResult:
    """Seeded simulation of the finite stochastic system on its class counts.

    Per slot: the policy picks k from the counts (n1, n2, n3, n4), the k
    transmitters are driven to the exact SINR threshold (their packets
    depart), queues then absorb Bernoulli arrivals with overflow drop, and
    channels redraw. Users are exchangeable, so the next counts are drawn
    from the binomial laws of the exact solvers, and their law depends only on
    the post-decision key of the counts and k (``_channel_step``): the backlog
    under the memoryless channel, (n1, n2, n3 + k, n4 - k) under the Markov one.

    Each slot pops one next state from its key's stock (``_transition_stock``):
    a key's first draws are composed group by group from scalar binomials, a
    handful whatever N is, and later ones come in blocks of whole transitions,
    so a key seen often costs one pop per slot. The law is that of one fresh
    draw per slot. Each key's stock, in pop order, is an i.i.d. sequence of
    draws from the key's next-state law, every value is read once, and which
    stock a slot pops from depends only on the values popped before it. So
    each slot's next state is a fresh draw from its key's law, independent of
    the path so far. Block sizes depend only on each key's own history, never
    on the horizon, so a run is the prefix of a longer one with the same seed.

    Without ``initial_counts`` all queues start empty with n3 ~ Bin(N, beta1).
    ``policy_fn`` must be a deterministic function of the counts: it is called
    (with an int64 array) on a count vector's first visit only, and that k and
    its stage cost, charged on the pre-transition state, serve every revisit.
    Deterministic given the seed. The mean leaves out the first ``_BURN_IN``
    share of the horizon; ValueError for N < 1 and when horizon < 1 leaves no slot
    to average.
    """
    require_channel_model(params, channel_model)
    if horizon < 1:
        raise ValueError(f"horizon {horizon} leaves no slot to average")
    n, base, lam = _checked_users(n_users), n_users + 1, params.lam
    wide = base**3 > 2**63  # codes past int64 stay Python ints
    rng = np.random.default_rng(seed)
    if initial_counts is not None:
        n1, n2, n3, _ = _initial_counts(initial_counts, n)
    else:
        n3 = rng.binomial(n, params.beta1)
        n1, n2 = n - n3, 0
    post, draw_next = _channel_step(params, n, channel_model)
    stocks, refill = _transition_stock(rng.binomial, draw_next, wide)
    power = {}  # k -> k * p(k), each k priced once by transmit_power
    place = {}  # count code -> its place in order of first visit
    keys, actions, costs = [], [], []  # per count vector, in order of first visit

    def visit(code):
        """A count code's place, on its first visit: its checked k, stage cost
        (charged on the pre-transition state) and post-decision key are kept."""
        rest, n3 = divmod(code, base)
        n1, n2 = divmod(rest, base)
        counts = (n1, n2, n3, n - n1 - n2 - n3)
        k = _check_action(counts, policy_fn(np.array(counts, dtype=np.int64)))
        if k not in power:
            power[k] = k * transmit_power(k, n, params)
        full = n2 + counts[3]
        keys.append(post(code, full, k))
        actions.append(k)
        costs.append(power[k] + lam * full)
        return len(keys) - 1

    visits = array("q", [0]) * horizon  # place of each slot's count vector
    code = (n1 * base + n2) * base + n3
    for t in range(horizon):
        i = place.get(code)
        if i is None:
            i = place[code] = visit(code)
        visits[t] = i
        key = keys[i]
        pending = stocks.get(key)
        code = pending.pop() if pending else refill(key)
    visits = np.asarray(visits)
    first = np.array(list(place), dtype=object if wide else np.int64)
    rest, n3 = first // base, first % base
    n1, n2 = rest // base, rest % base
    measures = np.column_stack([n1, n2, n3, n - n1 - n2 - n3]).astype(np.int64)[visits]
    actions = np.array(actions, dtype=np.int64)[visits]
    costs = np.array(costs)[visits]
    tail = costs[int(_BURN_IN * horizon):]
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
