"""Independent oracles for the GOOD/BAD unit-buffer model, written for any number of
channel levels and any buffer size.

The package hard-codes the two-level, one-packet case (``kernel.drift_matrix_4state``,
the finite chain's binomial laws, ``finite.transmit_power``). These builders assemble
the same quantities from first principles instead, class by class: ``build_tables``
gives the per-class transition tables, ``drift_matrix`` the mean-field drift they
imply, and ``finite_sinr`` one user's SINR in a finite population.

Reference forms the tests read the package's bulk computations against:
``AggregateSpace`` indexes the count vectors of ``finite._count_vectors``
(``index_of``), ``per_count_vector`` reads a (Q, n4) grid, such as the VI's k
table, off at each of them, ``stage_cost`` is one count vector's per-slot cost,
``transition_distribution`` is one count vector's memoryless
next-state law as a dict, checked against the user-by-user law, ``sim_to_csv``
writes a ``finite.simulate`` result as CSV rows, ``apply_fluid``
is a threshold policy's fluid control (0 at or below ``pi``, 1 above), and
``passive_trajectory_closed_form`` the uncontrolled flow U(0) in closed form.

``crossed`` says whether a state has left its arc of a ``fluid._FluidSystem``: the
per-step event test of the two stepped oracles below, where the package takes each
event in closed form (``fluid._arc_events``). ``clipped_equivalent_control`` is the
slide's duty cycle phi0 / (phi0 - phi1), clipped to [0, 1]: ``rk4_integrate``'s s4 on
the slide, where ``fluid._FluidSystem.control`` divides phi0 by beta1 (1 - rho) tau.
``stepped_bias_batch`` is the threshold-path engine that ``fluid.threshold_bias_batch``
replaced: it steps every path by tabled exp(A h) and brackets each event by a dyadic
search, where the package goes from event to event in closed form. ``rk4_integrate``
is the RK4 ``integrate`` that ``fluid.integrate``'s closed-form sampler replaced: per-arc
step matrices in chunks, every event bisected on the step matrix.

Classes are laid out channel-major: the user at channel level ``l`` (0-based) with
queue length ``r`` sits at position ``l * (q_max + 1) + r``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from powerctl import finite, fluid
from powerctl.equilibrium import instantaneous_cost, m4_active, m4_passive
from powerctl.errors import NonConvergent
from powerctl.fluid import BiasBatch, Trajectory, _FluidSystem, _row_dot
from powerctl.kernel import IID, require_channel_model
from powerctl.model import ModelParams, bisect, validate_measure, write_csv
from powerctl.policy import ThresholdPolicy


def queue_kernel(q: int, success: int, rho: float, q_max: int) -> np.ndarray:
    """Distribution of the next queue length given the current one.

    A successful slot removes one packet when there is one to send; an
    arrival then lands with probability rho, dropped if the buffer is
    already full. Returns a length q_max+1 probability vector.
    """
    if not 0 <= q <= q_max:
        raise IndexError(f"queue length {q} outside [0, {q_max}]")
    after_service = q - 1 if (success and q > 0) else q
    dist = np.zeros(q_max + 1)
    dist[min(after_service + 1, q_max)] += rho
    dist[after_service] += 1.0 - rho
    return dist


@dataclass(frozen=True)
class KernelTables:
    """Class-to-class transition matrices under failure (gamma0) and success (gamma1)."""

    gamma0: np.ndarray
    gamma1: np.ndarray


def build_tables(params: ModelParams, channel_model: str = IID) -> KernelTables:
    """Assemble gamma0/gamma1 as (channel factor) x (queue move).

    The channel factor is the level law beta for the memoryless model, or
    the row of the level transition matrix for the Markov model.
    """
    require_channel_model(params, channel_model)
    q_dim = params.q_max + 1
    s_dim = params.k * q_dim
    beta = np.asarray(params.beta, dtype=float)
    tables = []
    for success in (0, 1):
        gamma = np.zeros((s_dim, s_dim))
        for i in range(s_dim):
            lvl_i, q_i = divmod(i, q_dim)
            qdist = queue_kernel(q_i, success, params.rho, params.q_max)
            if channel_model == IID:
                chan = beta
            else:
                chan = np.asarray(params.channel_matrix[lvl_i], dtype=float)
            gamma[i] = np.kron(chan, qdist)
        tables.append(gamma)
    return KernelTables(gamma0=tables[0], gamma1=tables[1])


def drift_matrix(g, params: ModelParams, tables: KernelTables | None = None) -> np.ndarray:
    """Drift of the population measure when a fraction g_i of class i succeeds.

    Row i of the one-step kernel is g_i * gamma1[i] + (1 - g_i) * gamma0[i];
    the drift is its transpose minus the identity, so I + U maps the simplex
    to itself and columns of U sum to zero.
    """
    g = np.asarray(g, dtype=float)
    if tables is None:
        tables = build_tables(params)
    nu = g[:, None] * tables.gamma1 + (1.0 - g)[:, None] * tables.gamma0
    return nu.T - np.eye(len(tables.gamma0))


def finite_sinr(n: int, h, p, big_n: int, params: ModelParams) -> float:
    """SINR of user ``n`` in a population of ``big_n`` users.

    Interference is averaged with weight 1/big_n per interferer.
    """
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    other = float(np.dot(h, p)) - h[n] * p[n]
    return h[n] * p[n] / (other / big_n + params.n0)


# Reference forms of the finite chain and the fluid that the package computes in bulk.


class AggregateSpace:
    """All count vectors of a fixed population over the four classes."""

    def __init__(self, n_users: int):
        self.n_users = n_users
        self.states = finite._count_vectors(n_users)
        self._index = None  # count vector -> position, built by the first index_of

    def __len__(self):
        return len(self.states)

    def index_of(self, counts) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(map(tuple, self.states.tolist()))}
        return self._index[tuple(int(c) for c in counts)]


def per_count_vector(grid) -> np.ndarray:
    """grid[Q, n4] read off at every count vector, in ``finite._count_vectors`` order."""
    _, n2, _, n4 = finite._count_vectors(len(grid) - 1).T
    return grid[n2 + n4, n4]


def stage_cost(counts, k: int, n_users: int, params: ModelParams) -> float:
    """Per-slot cost charged on the pre-transition state: power plus holding.
    Infeasible unless k is a whole number in [0, n4]."""
    k = finite._check_action(counts, k)
    return k * finite.transmit_power(k, n_users, params) + params.lam * (
        int(counts[1]) + int(counts[3])
    )


def transition_distribution(counts, k: int, params: ModelParams):
    """Sparse next-state distribution of the aggregate chain (memoryless channel).

    k class-4 users are served with guaranteed success, leaving the backlog
    a = n2 + n4 - k, so for N = sum(counts) users Q' = a + Bin(N - a, rho),
    n4' ~ Bin(Q', beta1) and n3' ~ Bin(N - Q', beta1): a dict from each
    reachable count vector to its probability.
    """
    counts = tuple(int(c) for c in counts)
    k = finite._check_action(counts, k)
    n = sum(counts)
    states = AggregateSpace(n).states
    arrivals = finite._arrival_law(n, params.rho)[counts[1] + counts[3] - k]
    row = arrivals[states[:, 1] + states[:, 3]] * finite._channel_weight(states, n, params)
    return {tuple(int(c) for c in states[i]): float(row[i]) for i in np.flatnonzero(row)}


def sim_to_csv(sim: finite.SimResult, path) -> None:
    """A simulation's slots as CSV rows ``t,n1,n2,n3,n4,action,cost``."""
    columns = (np.arange(len(sim.costs)), *sim.measures.T, sim.actions, sim.costs)
    write_csv(path, "t,n1,n2,n3,n4,action,cost", ("%d",) * 6 + ("%.12g",), columns)


def apply_fluid(policy: ThresholdPolicy, m) -> float:
    """Fluid control: 0 at or below the threshold, 1 above."""
    return 0.0 if m[3] <= policy.pi else 1.0


def passive_trajectory_closed_form(m0, t: float, params: ModelParams) -> np.ndarray:
    """State at time t of the uncontrolled flow started at m0.

    Closed-form solution of dm/dt = U(0) m for the GOOD/BAD unit-buffer
    system; m2 follows from conservation of mass.
    """
    b0, b1 = params.beta
    rho = params.rho
    m1, m2, m3, m4 = np.asarray(m0, dtype=float)
    et = np.exp(-t)
    ert = np.exp(-rho * t)
    m1_t = (b1 * m1 - b0 * m3) * et + b0 * (m1 + m3) * ert
    m3_t = (b0 * m3 - b1 * m1) * et + b1 * (m1 + m3) * ert
    m4_t = b1 * (1.0 + et * (m1 + m3 - 1.0)) + et * m4 - (m1 + m3) * b1 * ert
    m2_t = 1.0 - m1_t - m3_t - m4_t
    return np.array([m1_t, m2_t, m3_t, m4_t])


# The stepped exact engine: exp(A h) tables per step and a dyadic event search.

_STEP_MIN, _STEP_MAX = 0.25, 4.0  # exact steps grow as clock / 8 between these
_SEARCH_BITS = 4  # event-time bits that ``_event_bracket`` resolves per search round
_GATHER_BYTES = 2**20  # per-path propagator copies that ``_per_arc`` makes at once
_GAUSS_T = np.concatenate([fluid._GAUSS_T, [1.0]])  # the Gauss-Legendre nodes, then the step end
_GAUSS_W = fluid._GAUSS_W
_EVENT_TIME_TOL, _SETTLE_TOL, _SURFACE_TOL = (
    fluid._EVENT_TIME_TOL, fluid._SETTLE_TOL, fluid._SURFACE_TOL)
_LINEAR_TAIL_TOL, _MAX_ARCS = fluid._LINEAR_TAIL_TOL, fluid._MAX_ARCS


def _expm(a):
    """exp of each matrix in a stack: per-matrix scaling and squaring, Taylor degree 12."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))[1] + 2, 0)
    a = a / np.ldexp(1.0, s)[..., None, None]  # 1-norms now at most 1/4
    e = eye = np.eye(4)
    for k in range(12, 0, -1):
        e = eye + (a @ e) / k
    for i in range(int(s.max(initial=0))):
        e = np.where((s > i)[..., None, None], e @ e, e)
    return e


@functools.lru_cache(maxsize=1024)
def _propagators(gens: bytes, times: tuple) -> np.ndarray:
    """exp(A t) for each 4x4 generator A in the buffer ``gens`` and each t in ``times``."""
    return _expm(np.frombuffer(gens).reshape(-1, 4, 4)[:, None] * np.array(times)[:, None, None])


@functools.lru_cache(maxsize=128)
def _grid_tables(gens: bytes, h: float) -> tuple:
    """The event grid of a step h, h / 2^K with K = ceil(log2(h / _EVENT_TIME_TOL)),
    in rounds of _SEARCH_BITS bits, the first taking the remainder. Per round its span
    and exp(A j span), j = 0 .. 2^bits - 1, for each generator A in the buffer ``gens``:
    powers of exp(A span), doubled by batched products."""
    k = int(np.ceil(np.log2(h / _EVENT_TIME_TOL)))
    bits = [k % _SEARCH_BITS] * (k % _SEARCH_BITS > 0) + [_SEARCH_BITS] * (k // _SEARCH_BITS)
    spans = h / 2.0 ** np.cumsum(bits)
    base = _expm(np.frombuffer(gens).reshape(-1, 1, 4, 4) * spans[:, None, None])[:, :, None]
    powers = np.concatenate([np.broadcast_to(np.eye(4), base.shape), base], axis=2)
    while powers.shape[2] < 2**_SEARCH_BITS:  # E^(n + j) = E^n E^j, j = 1 .. n
        powers = np.concatenate([powers, powers[:, :, -1:] @ powers[:, :, 1:]], axis=2)
    return tuple((spans[r], powers[:, r, : 2**b].copy()) for r, b in enumerate(bits))


def _per_arc(tables, arc, m):
    """Row i is tables[arc[i]] applied to m[i]: (paths, k, 4) from (arcs, k, 4, 4)
    tables, one product on per-path copies of the tables, over blocks of paths
    whose copies take at most _GATHER_BYTES."""
    out = np.empty((len(m), tables.shape[1], 4))
    block = max(1, _GATHER_BYTES // tables[0].nbytes)
    for i in range(0, len(m), block):
        rows = slice(i, i + block)
        np.einsum("pkij,pj->pki", tables[arc[rows]], m[rows], out=out[rows])
    return out


def crossed(system: _FluidSystem, m, arc, tau):
    """Has m (per row) left ``arc`` of ``system``? On a bang arc m4 passed tau; on
    the slide the duty cycle phi0 / (phi0 - phi1) left [0, 1] by more than the
    rounding of phi0 and phi1: at an optimum on the surface with duty cycle 0 or 1,
    phi0 or phi1 is rounding noise of either sign. Products with a state are sums
    per row, so a row has the same bits alone as in any stack."""
    bang = (m[..., 3] > tau) != (arc == 1)
    if not np.any(arc == 2):
        return bang
    exits = (m[..., None] * system.exits).sum(axis=-2)
    off = (exits > (np.abs(m)[..., None] * system.exit_slack).sum(axis=-2)).any(axis=-1)
    return np.where(arc == 2, off, bang)


def clipped_equivalent_control(system: _FluidSystem, m):
    """Duty cycle freezing m4 (per row of m), clipped to the escaping pure control:
    phi0 / (phi0 - phi1), where ``_FluidSystem.control`` takes phi0 / (beta1 (1 - rho) tau)."""
    phi0, phi1 = _row_dot(m, system.u0[3]), _row_dot(m, system.u1[3])
    denom = phi0 - phi1
    s = np.divide(phi0, denom, out=np.zeros_like(denom), where=denom > 0.0)
    # where both fields push the same way, follow the active one upward
    return np.where(denom > 0.0, np.clip(s, 0.0, 1.0), phi1 > 0.0)


def _event_bracket(gens: bytes, arc, m, h, crossed):
    """Bracket each path's event on the grid of ``_grid_tables``.

    Path i runs from m[i] on generator arc[i] and has left its arc by time h.
    ``crossed`` maps a (paths, points, 4) stack of states to (paths, points)
    flags. Each round propagates the bracket's left end to the round's grid
    points in one product and moves it to the last point before the first
    crossed one (to the last point if none is crossed), so the bracket closes
    on the first crossing the grid resolves. Returns its left end lo, its width
    delta (the last span, at most _EVENT_TIME_TOL), the state at lo, not
    crossed, and the state at lo + delta, its far side, from exp(A delta).
    """
    lo, rows, last = np.zeros(len(m)), np.arange(len(m)), np.ones((len(m), 1), dtype=bool)
    for span, table in _grid_tables(gens, h):
        cand = _per_arc(table, arc, m)  # cand[:, 0] is m
        k = np.argmax(np.concatenate([crossed(cand[:, 1:]), last], axis=1), axis=1)
        lo, m = lo + k * span, cand[rows, k]
    return lo, span, m, _per_arc(table[:, 1:2], arc, m)[:, 0]


def stepped_bias_batch(
    m0, thresholds, e_star: float, m_star, params: ModelParams, t_max=1e5, t_hard=5000.0
) -> BiasBatch:
    """The stepped exact engine that ``fluid.threshold_bias_batch`` replaced, kept as
    its oracle: same arguments and result. Paths advance in lockstep by exact
    propagators exp(A h) of their arcs, h growing as clock / 8 between _STEP_MIN
    and _STEP_MAX. An event found at a step end is bracketed on the step's grid
    h / 2^K, K = ceil(log2(h / _EVENT_TIME_TOL)), by ``_event_bracket``, and the
    path lands on the bracket's far side. Step costs use 8-point Gauss-Legendre.
    A path within _SETTLE_TOL of its arc's equilibrium, or that can no longer reach
    its arc's event, takes the rest of the arc linearised, -grad . A^# x; one still
    moving at clock t_hard is valued so, and is not converged.
    """
    tau = np.asarray(thresholds, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError(f"thresholds must be finite, got {tau[~np.isfinite(tau)].tolist()}")
    n, (b0, b1), rho, theta, n0 = len(tau), params.beta, params.rho, params.theta, params.n0
    system, c = _FluidSystem(params), b1 * (1 - rho)
    u0, gens = system.u0, system.gens
    key, m4_act = gens.tobytes(), m4_active(params)
    hold = params.lam * np.array([0.0, 1.0, 0.0, 1.0])
    grad = np.array([hold, hold + theta**2 * n0 / (1.0 - theta * m4_act) ** 2 * np.eye(4)[3], hold])
    # per path: slide power per unit phi0; per arc: equilibrium, margin to the arc's event
    kap = np.divide(theta * n0, c * tau * (1.0 - theta * tau), out=np.zeros(n), where=tau > 0)
    m4 = np.stack([np.full(n, m4_passive(params)), np.full(n, m4_act), tau], axis=1)
    eq = np.stack([b0 * (b1 - m4) / b1, b0 * m4 / b1, b1 - m4, m4], axis=2)  # (n, arc, 4)
    passive = np.where(tau >= b1, np.inf, tau - b1)  # at tau >= beta1 it settles at once
    slack = rho * (b1 - tau) / c  # tau times the duty cycle at the slide's equilibrium
    act = np.minimum(m4_act - tau, 0.5 * _LINEAR_TAIL_TOL)
    margin = np.stack([passive, act, np.minimum(slack, tau - slack)], axis=1)

    def rate(m, arc, kap):
        power = np.where(arc == 1, theta * n0 / (1.0 - theta * m[..., 3]), 0.0)
        return m @ hold + power + kap * (arc == 2) * (m @ u0[3])

    # (n, arc) cost rates at the equilibria, one 3 x 4 product per path: a path's
    # settled rate does not depend on which paths settle with it
    rates = rate(eq, np.arange(3), kap[:, None])

    m = np.broadcast_to(validate_measure(m0), (n, 4)).copy()
    arc = (m[:, 3] > tau).astype(int)
    on = np.abs(m[:, 3] - tau) <= _SURFACE_TOL
    m[on], arc[on] = system.land(m[on], tau[on])
    values, tails, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    live, j, t, clock, switches = np.arange(n), np.zeros(n), np.zeros(n), 0.0, [[] for _ in tau]
    while live.size:
        rows = np.arange(live.size)
        x = m - eq[rows, arc]
        near = (dist := np.abs(x).sum(axis=1)) <= _SETTLE_TOL
        done = near | (0.5 * dist < margin[rows, arc]) | (clock >= t_hard)
        if done.any():
            d, a = np.flatnonzero(done), arc[done]
            m_eq, x = eq[d, a], np.where(near[d, None], 0.0, x[d])  # drop tails below 1e-12
            z = gens[a] - m_eq[:, :, None]  # A - m_eq 1^T; on slides also - e4 e4^T
            z[a == 2, 3, 3] -= 1.0
            y = np.linalg.solve(z, x[:, :, None])[:, :, 0]  # integral of x(t) is -y
            rest = ((grad[a] + np.outer(kap[d] * (a == 2), u0[3])) * y).sum(axis=1)
            e_eq = rates[d, a]
            target = (np.abs(m_eq - m_star).sum(axis=1) < 1e-9) & (np.abs(e_eq - e_star) < 1e-10)
            off = np.where(target, 0.0, e_eq - e_star)
            values[live[d]] = j[d] - rest + off * (t_max - t[d])
            tails[live[d]], converged[live[d]] = off * t_max, target & (clock < t_hard)
            live, tau, kap, eq, rates, margin, m, arc, j, t = (
                v[~done] for v in (live, tau, kap, eq, rates, margin, m, arc, j, t))
            continue
        h = min(_STEP_MAX, max(_STEP_MIN, clock / 8.0))
        clock += h
        path = _per_arc(_propagators(key, tuple(h * _GAUSS_T)), arc, m)  # nodes, then the end
        m_new, arc_new, step = path[:, -1], arc.copy(), np.full(live.size, h)
        hit = np.flatnonzero(crossed(system, m_new, arc, tau))
        if hit.size:
            a, th = arc[hit], tau[hit]
            left = lambda x: crossed(system, x, a[:, None], th[:, None])
            lo, delta, _, far = _event_bracket(key, a, m[hit], h, left)
            step[hit] = lo + delta
            sub = _expm(gens[a, None] * (step[hit, None] * _GAUSS_T[:-1])[..., None, None])
            path[hit, :-1] = np.einsum("pkij,pj->pki", sub, m[hit])  # the cut step's nodes
            m_new[hit], arc_new[hit] = system.land(far, th)
            for p, when, new in zip(live[hit], t[hit] + step[hit], arc_new[hit]):
                switches[p].append((float(when), int(new)))
                if len(switches[p]) >= _MAX_ARCS:
                    raise NonConvergent(f"a threshold path exceeded {_MAX_ARCS} arcs")
        # the step cost as a sum per row, so a path's value does not depend on its batch
        dj = step * ((rate(path[:, :-1], arc[:, None], kap[:, None]) - e_star) * _GAUSS_W).sum(1)
        m, arc, j, t = m_new, arc_new, j + dj, t + step
    return BiasBatch(values, converged, tails, switches)


# RK4 ``integrate``: per-arc step matrices, batched in chunks, events bisected.

_SIMPLEX_TOL = 1e-9
_CHUNK = 256  # RK4 steps that ``rk4_integrate`` advances by one batched product


class StepTooLarge(RuntimeError):
    """Integrator step violated the simplex tolerance."""


def step_matrices(a, h, k=1):
    """An RK4 step of size h on dm/dt = A m is m -> R m, R = I + D, D built from
    the stage maps Q2, Q3, Q4 (stage state Q m). Returns R^j - I for j = 1 .. k,
    built from the small D so no digit is lost."""
    eye = np.eye(4)
    q2 = eye + 0.5 * h * a
    q3 = eye + 0.5 * h * a @ q2
    q4 = eye + h * a @ q3
    d = ((h / 6.0) * a @ (eye + 2.0 * q2 + 2.0 * q3 + q4))[None]
    while len(d) < k:  # R^(i+j) - I = (R^i - I) + (R^j - I) + (R^i - I)(R^j - I)
        d = np.concatenate([d, d + d[-1] + d @ d[-1]])
    # R^j conserves mass: m2 takes the columns' rounding, as ``land`` does
    d[:, 1] = -(d[:, 0] + d[:, 2] + d[:, 3])
    return d


def check_simplex(m):
    err = abs(float(m.sum()) - 1.0)
    if err > _SIMPLEX_TOL or float(m.min()) < -_SIMPLEX_TOL:
        raise StepTooLarge(
            f"simplex violated: sum error {err:.3e}, min entry {m.min():.3e}"
        )
    return m / m.sum()


def _event_step(system, gens, m, arc, tau, h):
    """One RK4 step of size h from m on ``arc`` (generator gens[arc]) that may meet
    an event. An event is bisected on the step matrix to _EVENT_TIME_TOL and landed
    on its far side, within the step, so it takes one step. Returns (state, arc,
    step taken).
    """
    a = gens[arc]
    step = lambda x: m + step_matrices(a, x)[0] @ m
    end = step(h)
    if not crossed(system, end[None], arc, tau)[0]:
        return end, arc, h
    lo, _ = bisect(lambda x: crossed(system, step(x)[None], arc, tau)[0], 0.0, h, _EVENT_TIME_TOL)
    h = min(lo + _EVENT_TIME_TOL, h)
    end, arc = system.land(step(h), tau)
    return end, arc, h


def rk4_integrate(m0, policy, horizon: float, params: ModelParams, dt: float = 0.01) -> Trajectory:
    """Integrate the controlled fluid from m0 for the given horizon.

    ``policy`` is either a threshold policy object (a finite attribute ``pi``) or a
    constant activation s4, a float in [0, 1]; else ValueError. Classic RK4 with step
    dt; threshold events are located by bisection and treated as arc boundaries, so
    the control is piecewise constant (or the sliding duty cycle) between events. A
    constant runs as one arc, U(s4), with its threshold at +inf.

    Steps come in chunks of up to _CHUNK: the states R^k m of the current
    arc's step matrix, each divided by its sum. A chunk is kept up to its
    first step that fails the simplex tolerances or leaves the arc. That
    step, or a last one shortened to the horizon, is taken alone: a full
    step that stays on the arc is kept (or raises StepTooLarge), one that
    leaves it is cut at the bisected event and landed on its far side.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    system = _FluidSystem(params)
    m = validate_measure(m0).copy()
    if hasattr(policy, "pi"):  # the control of each arc; the slide's is its duty cycle
        tau, gens, controls = float(policy.pi), system.gens, np.array([0.0, 1.0, np.nan])
        if not np.isfinite(tau):
            raise ValueError(f"a threshold must be finite, got pi={tau!r}")
        m, arc = system.land(m, tau) if abs(m[3] - tau) <= _SURFACE_TOL else (m, int(m[3] > tau))
    else:
        s = float(policy)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"a constant activation s4 must lie in [0, 1], got {s!r}")
        tau, gens, controls, arc = np.inf, (system.u0 + s * system.du)[None], np.array([s]), 0
    t, matrices, steps = 0.0, {}, np.full(_CHUNK + 1, dt)
    blocks = [([t], m[None], [arc])]  # t, m, arc
    while t < horizon - 1e-15:
        steps[0] = t
        clock = np.cumsum(steps)  # the sequential t += dt
        n = np.count_nonzero((clock[:-1] < horizon - 1e-15) & (dt <= horizon - clock[:-1]))
        if n:
            if arc not in matrices:
                matrices = {arc: step_matrices(gens[arc], dt, _CHUNK)}
            ends = m + (matrices[arc][:n].reshape(-1, 4) @ m).reshape(n, 4)  # R^k m, one GEMV
            sums = ends.sum(axis=1)
            ok = (np.abs(sums - 1.0) <= _SIMPLEX_TOL) & (ends.min(axis=1) >= -_SIMPLEX_TOL)
            ok &= ~crossed(system, ends, arc, tau)
            k = n if ok.all() else int(np.argmin(ok))
            if k:
                states = ends[:k] / sums[:k, None]
                m, t = states[-1], clock[k]
                blocks.append((clock[1 : k + 1], states, np.full(k, arc)))
            if k == n:
                continue
        m, arc, done = _event_step(system, gens, m, arc, tau, min(dt, horizon - t))
        m = check_simplex(m)
        t += done
        blocks.append(([t], m[None], [arc]))
    t, m, arc = (np.concatenate(column) for column in zip(*blocks))
    s4 = np.where(arc == 2, clipped_equivalent_control(system, m), controls[arc])
    return Trajectory(t=t, m=m, s4=s4, inst_cost=instantaneous_cost(m.T, s4, params))
