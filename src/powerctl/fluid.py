"""Mean-field dynamics: discrete map, RK4 flow, closed forms, exact bias integrals.

dm/dt = U(s) m, where the activation s of the full-queue good-channel class
enters U only through its m4 column. A threshold controller on m4 runs on
three linear arcs: U(0) below its threshold, U(1) above it, and on the
surface the slide of the equivalent control (Filippov/Utkin)
s = phi0(m) / (beta1 (1 - rho) m4), phi0 being the passive field's
m4-component, until s leaves [0, 1]. ``_FluidSystem`` is that arc model:
the generators, when a state has left its arc (``crossed``) and where it
goes next (``land``). A callable policy's arcs are its values s, on U(s).
On every arc dm/dt = A m, so an RK4 step of size h is one matrix,
m -> m + D(h) m: ``integrate`` advances up to _CHUNK steps at once as R^k m
and takes a step alone only where it meets an event or is a last, shortened
one. Every event is bisected on D to 1e-10 and landed on its far side.
``threshold_bias_batch`` propagates the same arcs exactly, by exp(A h), and
backs ``bias_cost`` for thresholds. It brackets an event on the dyadic grid
h / 2^K of its step, K = ceil(log2(h / 1e-10)), fixing _SEARCH_BITS bits of
the event time per round from cached tables exp(A j span), and lands the
path on the bracket's far side, as ``integrate`` does; for a callable,
``bias_cost`` prices each RK4 step of ``integrate`` from its stage states.
The cost c(m, s) = s * theta * n0 / (1 - theta * m4) + lam * (m2 + m4) is
the bang-bang cost at s in {0, 1} and the duty-cycle average on a slide.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, StepTooLarge
from .kernel import KernelTables, drift_matrix, drift_matrix_4state
from .model import ModelParams, require_good_bad, validate_measure, write_csv

_SIMPLEX_TOL = 1e-9
_EVENT_TIME_TOL = 1e-10
_SEARCH_BITS = 4  # event-time bits that ``threshold_bias_batch`` resolves per search round
_SURFACE_TOL = 1e-9
_EPS = np.finfo(float).eps
_CHUNK = 256  # RK4 steps that ``integrate`` advances by one batched product
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])  # of the stage states, times h / 6
_OFF_TARGET = "settled at a non-target equilibrium (cost {:.6g}, target {:.6g})"


@dataclass
class Trajectory:
    """Sampled controlled path: states, controls in effect, running cost."""

    t: np.ndarray
    m: np.ndarray
    s4: np.ndarray
    inst_cost: np.ndarray

    def to_csv(self, path):
        columns = (self.t, *self.m.T, self.s4, self.inst_cost)
        write_csv(path, "t,m1,m2,m3,m4,s4,inst_cost", "%.12g," * 6 + "%.12g\n", columns)


def instantaneous_cost(m, s4: float, params: ModelParams) -> float:
    """Cost rate at measure m under activation fraction s4 (time-sharing form)."""
    m = np.asarray(m, dtype=float)
    power = s4 * params.theta * params.n0 / (1.0 - params.theta * m[3])
    return power + params.lam * (m[1] + m[3])


def discrete_step(m, s4: float, params: ModelParams) -> np.ndarray:
    """One slot of the fluid recursion m' = (I + U(s4)) m."""
    m = np.asarray(m, dtype=float)
    return m + drift_matrix_4state(s4, params) @ m


def discrete_step_general(
    m, g, params: ModelParams, tables: KernelTables | None = None
) -> np.ndarray:
    """One slot of the fluid recursion with a full per-class success profile."""
    m = np.asarray(m, dtype=float)
    return m + drift_matrix(g, params, tables) @ m


def passive_trajectory_closed_form(m0, t: float, params: ModelParams) -> np.ndarray:
    """State at time t of the uncontrolled flow started at m0.

    Closed-form solution of dm/dt = U(0) m for the GOOD/BAD unit-buffer
    system; m2 follows from conservation of mass.
    """
    require_good_bad(params)
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


class _FluidSystem:
    """The arc model of the threshold-controlled fluid.

    On each arc the flow is linear, dm/dt = A m, with A one of ``gens``:
    U(0) (arc 0), U(1) (arc 1), or on m4 = tau the slide (arc 2). ``crossed``
    says when a path leaves its arc and ``land`` where it goes next.
    """

    def __init__(self, params: ModelParams):
        require_good_bad(params)
        self.params = params
        self.u0 = drift_matrix_4state(0.0, params)
        self.u1 = drift_matrix_4state(1.0, params)
        self.du = self.u1 - self.u0
        # the flow on m4 = tau under the unclipped equivalent control; its m4 row is zero
        c = params.beta[1] * (1 - params.rho)
        slide = self.u0 + np.outer(self.du[:, 3], self.u0[3]) / c
        slide[3] = 0.0
        self.gens = np.array([self.u0, self.u1, slide])
        # -phi0 and phi1 (the duty cycle's exits), and the rounding bound of each per |m|
        self.exits = np.stack([-self.u0[3], self.u1[3]], axis=1)
        self.exit_slack = 4.0 * _EPS * np.abs(self.exits)

    def generator(self, arc):
        return self.gens[arc]

    def clipped_equivalent_control(self, m):
        """Duty cycle freezing m4 (per row of m), saturated to the escaping pure control."""
        phi0, phi1 = m @ self.u0[3], m @ self.u1[3]
        denom = phi0 - phi1
        s = np.divide(phi0, denom, out=np.zeros_like(denom), where=denom > 0.0)
        # where both fields push the same way, follow the active one upward
        return np.where(denom > 0.0, np.clip(s, 0.0, 1.0), phi1 > 0.0)

    def crossed(self, m, arc, tau):
        """Has m (per row) left ``arc``? On a bang arc m4 passed tau; on the slide the
        duty cycle phi0 / (phi0 - phi1) left [0, 1] by more than the rounding of phi0
        and phi1: at an optimum on the surface with duty cycle 0 or 1, phi0 or phi1
        is rounding noise of either sign."""
        off = (m @ self.exits > np.abs(m) @ self.exit_slack).any(axis=-1)
        return np.where(arc == 2, off, (m[..., 3] > tau) != (arc == 1))

    def land(self, m, tau):
        """Snap m onto m4 = tau (m2 absorbs the change) and take the arc whose
        field keeps or carries it: U(1) if it lifts m4, U(0) if it lowers m4, else the slide."""
        m = m + np.multiply.outer(m[..., 3] - tau, [0.0, 1.0, 0.0, -1.0])
        arc = np.where(m @ self.u1[3] > 0.0, 1, np.where(m @ self.u0[3] < 0.0, 0, 2))
        return m, arc[()]  # a scalar for one state

    @staticmethod
    def step_matrices(a, h, k=1):
        """An RK4 step of size h on dm/dt = A m is m -> R m, R = I + D. Returns the
        stage maps Q2, Q3, Q4 (stage state Q m) and R^j - I for j = 1 .. k, built
        from the small D so no digit is lost."""
        eye = np.eye(4)
        q2 = eye + 0.5 * h * a
        q3 = eye + 0.5 * h * a @ q2
        q4 = eye + h * a @ q3
        d = ((h / 6.0) * a @ (eye + 2.0 * q2 + 2.0 * q3 + q4))[None]
        while len(d) < k:  # R^(i+j) - I = (R^i - I) + (R^j - I) + (R^i - I)(R^j - I)
            d = np.concatenate([d, d + d[-1] + d @ d[-1]])
        # R^j conserves mass: m2 takes the columns' rounding, as ``land`` does
        d[:, 1] = -(d[:, 0] + d[:, 2] + d[:, 3])
        return np.array([q2, q3, q4]), d

    def check_simplex(self, m):
        err = abs(float(m.sum()) - 1.0)
        if err > _SIMPLEX_TOL or float(m.min()) < -_SIMPLEX_TOL:
            raise StepTooLarge(
                f"simplex violated: sum error {err:.3e}, min entry {m.min():.3e}"
            )
        return m / m.sum()


class _CallableDriver:
    """The arc model of an arbitrary policy function: its arcs are the values s
    of the policy, each on U(s), and it has no sliding mode."""

    def __init__(self, system: _FluidSystem, policy):
        self.sys = system
        self.policy = policy

    def generator(self, s):
        return self.sys.u0 + s * self.sys.du

    def crossed(self, ms, s, tau=None):
        # stop at the first change: later states are off the path, and a policy may keep state
        kept = sum(1 for _ in itertools.takewhile(lambda x: float(self.policy(x)) == s, ms))
        return np.arange(len(ms)) >= kept

    def land(self, m, tau=None):
        return m, float(self.policy(m))


def _bisect_time(step_fn, predicate, h):
    """Largest tau in [0, h] with predicate(step_fn(tau)) False, to 1e-10."""
    lo, hi = 0.0, h
    while hi - lo > _EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if predicate(step_fn(mid)):
            hi = mid
        else:
            lo = mid
    return lo


def _event_step(model, m, arc, tau, h, switched, matrices=None):
    """One RK4 step of size h from m on ``arc`` that may meet an event.

    An event is bisected on the step matrix to _EVENT_TIME_TOL and landed on
    its far side, within the step, so it takes one step. For a callable, a second switch within
    _EVENT_TIME_TOL of a first (``switched``: the last step ended on one) is
    chattering, or a policy that changes continuously, and raises NonConvergent.
    ``matrices``, if given, are ``step_matrices`` of the arc's generator for h.
    Returns (state, arc, step taken, its stage maps, whether it switched).
    """
    a = model.generator(arc)
    stage_maps, d = matrices or _FluidSystem.step_matrices(a, h)
    end = m + d[0] @ m
    if not model.crossed(end[None], arc, tau)[0]:
        return end, arc, h, stage_maps, False
    step = lambda x: m + _FluidSystem.step_matrices(a, x)[1][0] @ m
    lo = _bisect_time(step, lambda x: model.crossed(x[None], arc, tau)[0], h)
    if switched and lo < _EVENT_TIME_TOL and isinstance(model, _CallableDriver):
        raise NonConvergent(f"policy switched again within {_EVENT_TIME_TOL:g} of its last switch")
    h = min(lo + _EVENT_TIME_TOL, h)
    stage_maps, d = _FluidSystem.step_matrices(a, h)
    end, arc = model.land(m + d[0] @ m, tau)
    return end, arc, h, stage_maps, True


def integrate(m0, policy, horizon: float, params: ModelParams, dt: float = 0.01) -> Trajectory:
    """Integrate the controlled fluid from m0 for the given horizon.

    ``policy`` is either a threshold policy object (attribute ``pi``) or a
    callable m -> s4. Classic RK4 with step dt; control switches are
    located by bisection and treated as arc boundaries, so the control is
    piecewise constant (or the sliding duty cycle) between events.

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
    if hasattr(policy, "pi"):
        model, tau = system, float(policy.pi)
        m, arc = system.land(m, tau) if abs(m[3] - tau) <= _SURFACE_TOL else (m, int(m[3] > tau))
    else:
        model, tau = _CallableDriver(system, policy), None
        m, arc = model.land(m)
    t, switched, matrices = 0.0, False, {}
    blocks = [([t], m[None], [arc])]  # t, m, arc
    while t < horizon - 1e-15:
        clock = np.cumsum(np.concatenate(([t], np.full(_CHUNK, dt))))  # the sequential t += dt
        n = np.count_nonzero((clock[:-1] < horizon - 1e-15) & (dt <= horizon - clock[:-1]))
        if n:
            if arc not in matrices:
                matrices = {arc: system.step_matrices(model.generator(arc), dt, _CHUNK)[1]}
            ends = m + matrices[arc][:n] @ m  # R^k m
            sums = ends.sum(axis=1)
            states = ends / sums[:, None]
            ok = (np.abs(sums - 1.0) <= _SIMPLEX_TOL) & (ends.min(axis=1) >= -_SIMPLEX_TOL)
            ok &= ~model.crossed(ends, arc, tau)
            k = n if ok.all() else int(np.argmin(ok))
            if k:
                m, t, switched = states[k - 1], clock[k], False
                blocks.append((clock[1 : k + 1], states[:k], np.full(k, arc)))
            if k == n:
                continue
        m, arc, done, _, switched = _event_step(model, m, arc, tau, min(dt, horizon - t), switched)
        m = system.check_simplex(m)
        t += done
        blocks.append(([t], m[None], [arc]))
    t, m, s = (np.concatenate(column) for column in zip(*blocks))
    if model is system:  # arc 0 or 1 is its control; on the slide, the duty cycle
        s = np.where(s == 2, system.clipped_equivalent_control(m), s)
    s4 = s.astype(float)
    return Trajectory(t=t, m=m, s4=s4, inst_cost=instantaneous_cost(m.T, s4, params))


def bias_cost(
    m0, policy, e_star: float, params: ModelParams, dt=0.01, t_max=1e5, m_star=None
) -> float:
    """Integral of (cost - e_star) along the closed-loop path from m0.

    Threshold policies (attribute ``pi``) run on ``threshold_bias_batch``;
    callable ones on the RK4 steps of ``integrate`` with step dt, each
    priced from its stage states, stopping within 1e-9 (L1) of the target
    with the cost rate within 1e-10 of e_star. A path that settles
    elsewhere raises NonConvergent carrying its value (tail priced to t_max).
    """
    from .equilibrium import optimal_equilibrium

    m_star = np.asarray(optimal_equilibrium(params).m_star if m_star is None else m_star)
    m = validate_measure(m0).copy()
    if hasattr(policy, "pi"):
        batch = threshold_bias_batch(m, [policy.pi], e_star, m_star, params, t_max)
        if batch.converged[0]:
            return float(batch.values[0])
        cost = e_star + batch.tails[0] / t_max
        raise NonConvergent(_OFF_TARGET.format(cost, e_star), value=float(batch.values[0]))
    system = _FluidSystem(params)
    model = _CallableDriver(system, policy)
    m, s = model.land(m)
    t, j, switched = 0.0, 0.0, False
    full = {}  # s -> step matrices of U(s) for a full step dt
    while t < t_max:
        cost_now = instantaneous_cost(m, s, params)
        if np.abs(m - m_star).sum() < 1e-9 and abs(cost_now - e_star) < 1e-10:
            return j
        if np.abs(model.generator(s) @ m).sum() < 1e-13:
            j += (cost_now - e_star) * (t_max - t)
            raise NonConvergent(_OFF_TARGET.format(cost_now, e_star), value=j, t_end=t)
        if s not in full:
            full[s] = _FluidSystem.step_matrices(model.generator(s), dt)
        m_new, s_new, done, stage_maps, switched = _event_step(
            model, m, s, None, dt, switched, full[s]
        )
        stages = np.concatenate([m[None], stage_maps @ m])  # m, Q2 m, Q3 m, Q4 m
        j += (done / 6.0) * ((instantaneous_cost(stages.T, s, params) - e_star) @ _RK4_WEIGHTS)
        m, s, t = system.check_simplex(m_new), s_new, t + done
    raise NonConvergent("time cap hit before convergence", value=j, t_end=t)


_STEP_MIN, _STEP_MAX = 0.25, 4.0  # exact steps grow as clock / 8 between these
_SETTLE_TOL = 1e-12  # L1 distance at which a path sits at its arc's equilibrium
_LINEAR_TAIL_TOL = 1e-7  # active arcs settle closer: the linearised power tail is then exact
_MAX_ARCS = 64
# 8-point Gauss-Legendre rule moved to [0, 1] (symmetric about 1/2), then the step end
_GL_X = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.3626837833783617, 0.3137066458778869, 0.2223810344533744, 0.10122853629037706])
_GAUSS_T = np.concatenate([0.5 - 0.5 * _GL_X[::-1], 0.5 + 0.5 * _GL_X, [1.0]])
_GAUSS_W = 0.5 * np.concatenate([_GL_W[::-1], _GL_W])


@dataclass
class BiasBatch:
    """Per threshold: value, converged flag, its (E_settled - e_star) * t_max part (0
    if converged), events (time, arc entered: 0 passive, 1 active, 2 sliding)."""

    values: np.ndarray
    converged: np.ndarray
    tails: np.ndarray
    switches: list


def _expm(a):
    """exp of each matrix in a stack: per-matrix scaling and squaring, Taylor degree 12."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))[1] + 2, 0)
    a, e = a / np.ldexp(1.0, s)[..., None, None], np.eye(4)  # 1-norms now at most 1/4
    for k in range(12, 0, -1):
        e = np.eye(4) + (a @ e) / k
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
        cand = np.einsum("pjik,pk->pji", table[arc], m)  # cand[:, 0] is m
        k = np.argmax(np.concatenate([crossed(cand[:, 1:]), last], axis=1), axis=1)
        lo, m = lo + k * span, cand[rows, k]
    return lo, span, m, np.einsum("pik,pk->pi", table[arc, 1], m)


def threshold_bias_batch(
    m0, thresholds, e_star: float, m_star, params: ModelParams, t_max=1e5, t_hard=5000.0
) -> BiasBatch:
    """Bias integrals of many threshold controllers from one start m0.

    Paths advance in lockstep by exact propagators exp(A h) of their arcs: U(0),
    U(1), or on m4 = tau the slide U(0) + du[:,3] u0[3] / (beta1 (1 - rho)), whose
    m4 row is zero. Events (m4 crossing tau on a bang arc, the duty cycle leaving
    [0, 1] on a slide) are found by step ends and bracketed on the step's grid
    h / 2^K, K = ceil(log2(h / _EVENT_TIME_TOL)), by ``_event_bracket``: each
    round propagates the bracket's left end to 2^_SEARCH_BITS - 1 grid points at
    once and keeps the last before the first crossed, until the bracket is one
    grid step wide. The path lands on its far side, reached by exp(A h / 2^K)
    from the left end; step costs use Gauss-Legendre. Deviations from an arc's
    equilibrium shrink in L1, so once one cannot reach the arc's event the rest
    is -grad . A^# x (linearised on active arcs). A path settling away from
    m_star is worth the integral of (cost - E_settled) plus (E_settled - e_star)
    * t_max; one still moving at clock t_hard is valued as if it stayed on its
    arc, and is not converged.
    """
    tau = np.asarray(thresholds, dtype=float)
    n, (b0, b1), rho, theta, n0 = len(tau), params.beta, params.rho, params.theta, params.n0
    system, c = _FluidSystem(params), b1 * (1 - rho)
    u0, gens = system.u0, system.gens
    key, m4_act = gens.tobytes(), b1 * rho / (rho + c)
    hold = params.lam * np.array([0.0, 1.0, 0.0, 1.0])
    grad = np.array([hold, hold + theta**2 * n0 / (1.0 - theta * m4_act) ** 2 * np.eye(4)[3], hold])
    # per path: slide power per unit phi0; per arc: equilibrium m4, margin to the arc's event
    kap = np.divide(theta * n0, c * tau * (1.0 - theta * tau), out=np.zeros(n), where=tau > 0)
    m4_eq = np.stack([np.full(n, b1), np.full(n, m4_act), tau], axis=1)
    slack = rho * (b1 - tau) / c  # tau times the duty cycle at the slide's equilibrium
    act = np.minimum(m4_act - tau, 0.5 * _LINEAR_TAIL_TOL)
    margin = np.stack([tau - b1, act, np.minimum(slack, tau - slack)], axis=1)

    def rate(m, arc, kap):
        power = np.where(arc == 1, theta * n0 / (1.0 - theta * m[..., 3]), 0.0)
        return m @ hold + power + kap * (arc == 2) * (m @ u0[3])

    m = np.tile(validate_measure(m0), (n, 1))
    arc = (m[:, 3] > tau).astype(int)
    on = np.abs(m[:, 3] - tau) <= _SURFACE_TOL
    m[on], arc[on] = system.land(m[on], tau[on])
    values, tails, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    live, j, t, clock, switches = np.arange(n), np.zeros(n), np.zeros(n), 0.0, [[] for _ in tau]
    while live.size:
        m4 = np.choose(arc, m4_eq.T)
        x = m - np.stack([b0 * (b1 - m4) / b1, b0 * m4 / b1, b1 - m4, m4], axis=1)
        near = (dist := np.abs(x).sum(axis=1)) <= _SETTLE_TOL
        done = near | (0.5 * dist < np.choose(arc, margin.T)) | (clock >= t_hard)
        if done.any():
            d, a = np.flatnonzero(done), arc[done]
            m_eq, x = m[d] - x[d], np.where(near[d, None], 0.0, x[d])  # drop tails below 1e-12
            z = gens[a] - m_eq[:, :, None]  # A - m_eq 1^T; on slides also - e4 e4^T
            z[a == 2, 3, 3] -= 1.0
            y = np.linalg.solve(z, x[:, :, None])[:, :, 0]  # integral of x(t) is -y
            rest = ((grad[a] + np.outer(kap[d] * (a == 2), u0[3])) * y).sum(axis=1)
            e_eq = rate(m_eq, a, kap[d])
            target = (np.abs(m_eq - m_star).sum(axis=1) < 1e-9) & (np.abs(e_eq - e_star) < 1e-10)
            off = np.where(target, 0.0, e_eq - e_star)
            values[live[d]] = j[d] - rest + off * (t_max - t[d])
            tails[live[d]], converged[live[d]] = off * t_max, target & (clock < t_hard)
            live, tau, kap, m4_eq, margin, m, arc, j, t = (
                v[~done] for v in (live, tau, kap, m4_eq, margin, m, arc, j, t))
            continue
        h = min(_STEP_MAX, max(_STEP_MIN, clock / 8.0))
        clock += h
        path = np.einsum("pkij,pj->pki", _propagators(key, tuple(h * _GAUSS_T))[arc], m)
        dj = h * ((rate(path[:, :-1], arc[:, None], kap[:, None]) - e_star) @ _GAUSS_W)
        m_new, step = path[:, -1], np.full(live.size, h)
        hit = np.flatnonzero(system.crossed(m_new, arc, tau))
        if hit.size:
            a, th = arc[hit], tau[hit]
            crossed = lambda x: system.crossed(x, a[:, None], th[:, None])
            lo, delta, _, far = _event_bracket(key, a, m[hit], h, crossed)
            step[hit] = lo + delta
            sub = _expm(gens[a, None] * (step[hit, None] * _GAUSS_T[:-1])[..., None, None])
            sub = np.einsum("pkij,pj->pki", sub, m[hit])
            dj[hit] = step[hit] * ((rate(sub, a[:, None], kap[hit, None]) - e_star) @ _GAUSS_W)
            m_new[hit], arc[hit] = system.land(far, th)
            for p, when, new in zip(live[hit], t[hit] + step[hit], arc[hit]):
                switches[p].append((float(when), int(new)))
                if len(switches[p]) >= _MAX_ARCS:
                    raise NonConvergent(f"a threshold path exceeded {_MAX_ARCS} arcs")
        m, j, t = m_new, j + dj, t + step
    return BiasBatch(values, converged, tails, switches)
