"""Mean-field dynamics: discrete map, RK4 flow, closed forms, exact bias integrals.

dm/dt = U(s) m, where the activation s of the full-queue good-channel class
enters U only through its m4 column. A threshold controller on m4 runs U(0)
below its threshold, U(1) above it, and on the surface the clipped
equivalent control (Filippov/Utkin) s = phi0(m) / (beta1 (1 - rho) m4),
phi0 being the passive field's m4-component, until s leaves [0, 1].
``integrate`` steps these arcs with RK4 (callable policies too);
``threshold_bias_batch`` propagates them exactly and backs ``bias_cost``.
The cost c(m, s) = s * theta * n0 / (1 - theta * m4) + lam * (m2 + m4) is
the bang-bang cost at s in {0, 1} and the duty-cycle average on a slide.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, StepTooLarge
from .kernel import KernelTables, drift_matrix, drift_matrix_4state
from .model import ModelParams, require_good_bad, validate_measure

_SIMPLEX_TOL = 1e-9
_EVENT_TIME_TOL = 1e-10
_SURFACE_TOL = 1e-9
_OFF_TARGET = "settled at a non-target equilibrium (cost {:.6g}, target {:.6g})"


@dataclass
class Trajectory:
    """Sampled controlled path: states, controls in effect, running cost."""

    t: np.ndarray
    m: np.ndarray
    s4: np.ndarray
    inst_cost: np.ndarray

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,m1,m2,m3,m4,s4,inst_cost\n")
            for i in range(len(self.t)):
                row = [self.t[i], *self.m[i], self.s4[i], self.inst_cost[i]]
                fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


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
    """RK4 stepping on dm/dt = U(s) m with cost accumulation.

    The cost coordinate J satisfies dJ/dt = c(m, s) - cost_offset and is
    advanced through the same RK4 stages as m.
    """

    def __init__(self, params: ModelParams, cost_offset: float = 0.0):
        require_good_bad(params)
        self.params = params
        self.u0 = drift_matrix_4state(0.0, params)
        self.u1 = drift_matrix_4state(1.0, params)
        self.du = self.u1 - self.u0
        self.cost_offset = cost_offset

    def clipped_equivalent_control(self, m) -> float:
        """Duty cycle freezing m4, saturated to the escaping pure control."""
        phi0, phi1 = float(self.u0[3] @ m), float(self.u1[3] @ m)
        denom = phi0 - phi1
        if denom <= 0.0:
            # both fields push the same way; follow the active one upward
            return 1.0 if phi1 > 0.0 else 0.0
        return min(1.0, max(0.0, phi0 / denom))

    def rhs(self, m, s):
        dm = self.u0 @ m + s * (self.du @ m)
        dj = instantaneous_cost(m, s, self.params) - self.cost_offset
        return dm, dj

    def rk4_step(self, m, j, h, control_of):
        """One classic RK4 step; ``control_of`` maps a stage state to s."""
        k1m, k1j = self.rhs(m, control_of(m))
        m2 = m + 0.5 * h * k1m
        k2m, k2j = self.rhs(m2, control_of(m2))
        m3 = m + 0.5 * h * k2m
        k3m, k3j = self.rhs(m3, control_of(m3))
        m4 = m + h * k3m
        k4m, k4j = self.rhs(m4, control_of(m4))
        m_new = m + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        j_new = j + (h / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
        return m_new, j_new

    def check_simplex(self, m):
        err = abs(float(m.sum()) - 1.0)
        if err > _SIMPLEX_TOL or float(m.min()) < -_SIMPLEX_TOL:
            raise StepTooLarge(
                f"simplex violated: sum error {err:.3e}, min entry {m.min():.3e}"
            )
        return m / m.sum()


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


class _ThresholdDriver:
    """Arc-by-arc control resolution for a threshold-on-m4 policy.

    Off the surface the control is frozen per arc and crossings are located
    by bisection. On the surface (reached exactly via a crossing event) the
    clipped equivalent control takes over until the state escapes.
    """

    BANG = "bang"
    SLIDE = "slide"

    def __init__(self, system: _FluidSystem, pi: float):
        self.sys = system
        self.pi = pi
        self.mode = self.BANG
        self.control = 0.0

    def resolve_mode(self, m):
        e = m[3] - self.pi
        if abs(e) <= _SURFACE_TOL:
            self.mode = self.SLIDE
        else:
            self.mode = self.BANG
            self.control = 1.0 if e > 0.0 else 0.0

    def snap(self, m):
        """Project onto the surface, absorbing the correction in m2."""
        m = m.copy()
        m[1] += m[3] - self.pi
        m[3] = self.pi
        return m

    def current_s(self, m) -> float:
        if self.mode == self.SLIDE:
            return self.sys.clipped_equivalent_control(m)
        return self.control

    def advance(self, m, j, h):
        """Move one step of size at most h; returns (m, j, dt_done)."""
        if self.mode == self.BANG:
            a = self.control
            m_new, j_new = self.sys.rk4_step(m, j, h, lambda x: a)
            crossed = lambda x: (x[3] > self.pi) != (a > 0.5)
            if crossed(m_new):
                stepper = lambda tau: self.sys.rk4_step(m, j, tau, lambda x: a)[0]
                tau = _bisect_time(stepper, crossed, h)
                self.mode = self.SLIDE
                if tau <= _EVENT_TIME_TOL:
                    # crossing at the arc start: slide immediately
                    m = self.snap(m)
                else:
                    m_new, j_new = self.sys.rk4_step(m, j, tau, lambda x: a)
                    return self.snap(m_new), j_new, tau
            else:
                return m_new, j_new, h
        # sliding arc: the clipped equivalent control is continuous in the
        # state, so the step needs no event handling of its own
        m_new, j_new = self.sys.rk4_step(m, j, h, self.sys.clipped_equivalent_control)
        if abs(m_new[3] - self.pi) > _SURFACE_TOL:
            self.mode = self.BANG
            self.control = 1.0 if m_new[3] > self.pi else 0.0
        return m_new, j_new, h


class _CallableDriver:
    """Piecewise-constant control from an arbitrary policy function."""

    def __init__(self, system: _FluidSystem, policy):
        self.sys = system
        self.policy = policy
        self.control = 0.0

    def resolve_mode(self, m):
        self.control = float(self.policy(m))

    def current_s(self, m) -> float:
        return self.control

    def advance(self, m, j, h):
        a = self.control
        m_new, j_new = self.sys.rk4_step(m, j, h, lambda x: a)
        if float(self.policy(m_new)) != a:
            stepper = lambda tau: self.sys.rk4_step(m, j, tau, lambda x: a)[0]
            changed = lambda x: float(self.policy(x)) != a
            tau = _bisect_time(stepper, changed, h)
            tau = max(tau, _EVENT_TIME_TOL)
            m_new, j_new = self.sys.rk4_step(m, j, tau, lambda x: a)
            self.control = float(self.policy(m_new))
            return m_new, j_new, tau
        return m_new, j_new, h


def _make_driver(system: _FluidSystem, policy):
    if hasattr(policy, "pi"):
        return _ThresholdDriver(system, float(policy.pi))
    return _CallableDriver(system, policy)


def integrate(m0, policy, horizon: float, params: ModelParams, dt: float = 0.01) -> Trajectory:
    """Integrate the controlled fluid from m0 for the given horizon.

    ``policy`` is either a threshold policy object (attribute ``pi``) or a
    callable m -> s4. Classic RK4 with step dt; control switches are
    located by bisection and treated as arc boundaries, so the control is
    piecewise constant (or the sliding duty cycle) between events.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    system = _FluidSystem(params)
    driver = _make_driver(system, policy)
    m = validate_measure(m0).copy()
    driver.resolve_mode(m)
    t = 0.0
    s_now = driver.current_s(m)
    ts, ms = [t], [m.copy()]
    ss, cs = [s_now], [instantaneous_cost(m, s_now, params)]
    while t < horizon - 1e-15:
        h = min(dt, horizon - t)
        m, _, done = driver.advance(m, 0.0, h)
        m = system.check_simplex(m)
        t += done
        s_now = driver.current_s(m)
        ts.append(t)
        ms.append(m.copy())
        ss.append(s_now)
        cs.append(instantaneous_cost(m, s_now, params))
    return Trajectory(
        t=np.array(ts), m=np.array(ms), s4=np.array(ss), inst_cost=np.array(cs)
    )


def bias_cost(
    m0, policy, e_star: float, params: ModelParams, dt=0.01, t_max=1e5, m_star=None
) -> float:
    """Integral of (cost - e_star) along the closed-loop path from m0.

    Threshold policies (attribute ``pi``) run on ``threshold_bias_batch``;
    callable ones on RK4 with step dt, stopping within 1e-9 (L1) of the
    target with the cost rate within 1e-10 of e_star. A path that settles
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
    system = _FluidSystem(params, cost_offset=e_star)
    driver = _CallableDriver(system, policy)
    driver.resolve_mode(m)
    t, j = 0.0, 0.0
    while t < t_max:
        cost_now = instantaneous_cost(m, driver.control, params)
        if np.abs(m - m_star).sum() < 1e-9 and abs(cost_now - e_star) < 1e-10:
            return j
        if np.abs(system.rhs(m, driver.control)[0]).sum() < 1e-13:
            j += (cost_now - e_star) * (t_max - t)
            raise NonConvergent(_OFF_TARGET.format(cost_now, e_star), value=j, t_end=t)
        m, j, done = driver.advance(m, j, dt)
        m, t = system.check_simplex(m), t + done
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


def threshold_bias_batch(
    m0, thresholds, e_star: float, m_star, params: ModelParams, t_max=1e5, t_hard=5000.0
) -> BiasBatch:
    """Bias integrals of many threshold controllers from one start m0.

    Paths advance in lockstep by exact propagators exp(A h) of their arcs: U(0),
    U(1), or on m4 = tau the slide U(0) + du[:,3] u0[3] / (beta1 (1 - rho)), whose
    m4 row is zero. Events (m4 crossing tau on a bang arc, the duty cycle leaving
    [0, 1] on a slide) are bracketed by step ends and bisected on exp(A tau) to
    _EVENT_TIME_TOL; step costs use Gauss-Legendre. Deviations from an arc's
    equilibrium shrink in L1, so once one cannot reach the arc's event the rest
    is -grad . A^# x (linearised on active arcs). A path settling away from
    m_star is worth the integral of (cost - E_settled) plus (E_settled - e_star)
    * t_max; one still moving at clock t_hard is valued as if it stayed on its
    arc, and is not converged.
    """
    tau = np.asarray(thresholds, dtype=float)
    n, (b0, b1), rho, theta, n0 = len(tau), params.beta, params.rho, params.theta, params.n0
    u0, u1, c = drift_matrix_4state(0.0, params), drift_matrix_4state(1.0, params), b1 * (1 - rho)
    gens = np.array([u0, u1, u0 + np.outer(u1[:, 3] - u0[:, 3], u0[3]) / c])
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

    def crossed(m, arc, tau):  # bang arc: m4 passed tau; slide: duty cycle left [0, 1]
        return np.where(arc == 2, (m @ u0[3] < 0) | (m @ u1[3] > 0), (m[:, 3] > tau) != (arc == 1))

    def land(m, tau):  # snap onto the surface, take the arc whose field keeps or carries m
        m = m + np.outer(m[:, 3] - tau, [0.0, 1.0, 0.0, -1.0])
        return m, np.where(m @ u1[3] > 0.0, 1, np.where(m @ u0[3] < 0.0, 0, 2))

    m = np.tile(validate_measure(m0), (n, 1))
    arc = (m[:, 3] > tau).astype(int)
    on = np.abs(m[:, 3] - tau) <= _SURFACE_TOL
    m[on], arc[on] = land(m[on], tau[on])
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
        hit = np.flatnonzero(crossed(m_new, arc, tau))
        if hit.size:
            a, th = arc[hit], tau[hit]
            levels = h / 2.0 ** np.arange(1, np.ceil(np.log2(h / _EVENT_TIME_TOL)) + 1)
            ladder = _propagators(key, tuple(levels))
            lo, m_lo = np.zeros(hit.size), m[hit]
            for k, dk in enumerate(levels):
                cand = np.einsum("pij,pj->pi", ladder[a, k], m_lo)
                ok = ~crossed(cand, a, th)
                lo, m_lo = lo + dk * ok, np.where(ok[:, None], cand, m_lo)
            step[hit] = lo + levels[-1]
            sub = _expm(gens[a, None] * (step[hit, None] * _GAUSS_T[:-1])[..., None, None])
            sub = np.einsum("pkij,pj->pki", sub, m[hit])
            dj[hit] = step[hit] * ((rate(sub, a[:, None], kap[hit, None]) - e_star) @ _GAUSS_W)
            m_new[hit], arc[hit] = land(np.einsum("pij,pj->pi", ladder[a, -1], m_lo), th)
            for p, when, new in zip(live[hit], t[hit] + step[hit], arc[hit]):
                switches[p].append((float(when), int(new)))
                if len(switches[p]) >= _MAX_ARCS:
                    raise NonConvergent(f"a threshold path exceeded {_MAX_ARCS} arcs")
        m, j, t = m_new, j + dj, t + step
    return BiasBatch(values, converged, tails, switches)
