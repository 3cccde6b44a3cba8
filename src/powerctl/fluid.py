"""Mean-field dynamics: discrete map, RK4 flow, closed forms, exact bias integrals.

dm/dt = U(s) m, where the activation s of the full-queue good-channel class
enters U only through its m4 column. A threshold controller on m4 runs on
three linear arcs: U(0) below its threshold, U(1) above it, and on the
surface the slide of the equivalent control (Filippov/Utkin)
s = phi0(m) / (beta1 (1 - rho) m4), phi0 being the passive field's
m4-component, until s leaves [0, 1]. ``_FluidSystem`` is that arc model:
the generators, when a state has left its arc (``crossed``) and where it
goes next (``land``). A constant activation s is one arc, U(s), that no
state leaves: its threshold sits at +inf.
On every arc dm/dt = A m, so an RK4 step of size h is one matrix,
m -> m + D(h) m: ``integrate`` advances up to _CHUNK steps at once as R^k m
and takes a step alone only where it meets an event or is a last, shortened
one. Every event is bisected on D to 1e-10 and landed on its far side.
``threshold_bias_batch`` backs ``bias_cost`` and follows the same arcs in closed form,
event to event: on an arc m - eq is a sum of e^-t and e^(-lam t) terms (t e^-t at lam = 1).
The cost rate c(m, s) = theta n0 s / (1 - theta m4) + lam (m2 + m4), ``instantaneous_cost``,
is the bang-bang cost at s in {0, 1} and the duty-cycle average on a slide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import instantaneous_cost, m4_active, m4_passive, optimal_equilibrium
from .errors import AssumptionViolation, NonConvergent, StepTooLarge
from .kernel import drift_matrix_4state
from .model import ModelParams, bisect, validate_measure, write_csv

_SIMPLEX_TOL = 1e-9
_EVENT_TIME_TOL = 1e-10
_SURFACE_TOL = 1e-9
_EPS = np.finfo(float).eps
_CHUNK = 256  # RK4 steps that ``integrate`` advances by one batched product


@dataclass
class Trajectory:
    """Sampled controlled path: states, controls in effect, running cost."""

    t: np.ndarray
    m: np.ndarray
    s4: np.ndarray
    inst_cost: np.ndarray

    def to_csv(self, path):
        columns = (self.t, *self.m.T, self.s4, self.inst_cost)
        write_csv(path, "t,m1,m2,m3,m4,s4,inst_cost", ("%.12g",) * 7, columns)


def discrete_step(m, s4: float, params: ModelParams) -> np.ndarray:
    """One slot of the fluid recursion m' = (I + U(s4)) m."""
    m = np.asarray(m, dtype=float)
    return m + drift_matrix_4state(s4, params) @ m


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


class _FluidSystem:
    """The arc model of the threshold-controlled fluid.

    On each arc the flow is linear, dm/dt = A m, with A one of ``gens``:
    U(0) (arc 0), U(1) (arc 1), or on m4 = tau the slide (arc 2). ``crossed``
    says when a path leaves its arc and ``land`` where it goes next.
    AssumptionViolation at beta1 = 0, where the slide is undefined.
    """

    def __init__(self, params: ModelParams):
        if params.beta1 <= 0.0:
            raise AssumptionViolation(f"the fluid needs beta1 > 0, got beta1={params.beta1}")
        self.u0 = drift_matrix_4state(0.0, params)
        self.u1 = drift_matrix_4state(1.0, params)
        self.du = self.u1 - self.u0
        # the flow on m4 = tau under the unclipped equivalent control; its m4 row is zero
        c = params.beta1 * (1 - params.rho)
        slide = self.u0 + np.outer(self.du[:, 3], self.u0[3]) / c
        slide[3] = 0.0
        self.gens = np.array([self.u0, self.u1, slide])
        # -phi0 and phi1 (the duty cycle's exits), and the rounding bound of each per |m|
        self.exits = np.stack([-self.u0[3], self.u1[3]], axis=1)
        self.exit_slack = 4.0 * _EPS * np.abs(self.exits)

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
        bang = (m[..., 3] > tau) != (arc == 1)
        if not np.any(arc == 2):
            return bang
        off = (m @ self.exits > np.abs(m) @ self.exit_slack).any(axis=-1)
        return np.where(arc == 2, off, bang)

    def land(self, m, tau):
        """Snap m onto m4 = tau (m2 absorbs the change) and take the arc whose
        field keeps or carries it: U(1) if it lifts m4, U(0) if it lowers m4, else the slide."""
        m = m + np.multiply.outer(m[..., 3] - tau, [0.0, 1.0, 0.0, -1.0])
        arc = np.where(m @ self.u1[3] > 0.0, 1, np.where(m @ self.u0[3] < 0.0, 0, 2))
        return m, arc[()]  # a scalar for one state

    @staticmethod
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

    def check_simplex(self, m):
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
    step = lambda x: m + _FluidSystem.step_matrices(a, x)[0] @ m
    end = step(h)
    if not system.crossed(end[None], arc, tau)[0]:
        return end, arc, h
    lo, _ = bisect(lambda x: system.crossed(step(x)[None], arc, tau)[0], 0.0, h, _EVENT_TIME_TOL)
    h = min(lo + _EVENT_TIME_TOL, h)
    end, arc = system.land(step(h), tau)
    return end, arc, h


def integrate(m0, policy, horizon: float, params: ModelParams, dt: float = 0.01) -> Trajectory:
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
                matrices = {arc: system.step_matrices(gens[arc], dt, _CHUNK)}
            ends = m + (matrices[arc][:n].reshape(-1, 4) @ m).reshape(n, 4)  # R^k m, one GEMV
            sums = ends.sum(axis=1)
            ok = (np.abs(sums - 1.0) <= _SIMPLEX_TOL) & (ends.min(axis=1) >= -_SIMPLEX_TOL)
            ok &= ~system.crossed(ends, arc, tau)
            k = n if ok.all() else int(np.argmin(ok))
            if k:
                states = ends[:k] / sums[:k, None]
                m, t = states[-1], clock[k]
                blocks.append((clock[1 : k + 1], states, np.full(k, arc)))
            if k == n:
                continue
        m, arc, done = _event_step(system, gens, m, arc, tau, min(dt, horizon - t))
        m = system.check_simplex(m)
        t += done
        blocks.append(([t], m[None], [arc]))
    t, m, arc = (np.concatenate(column) for column in zip(*blocks))
    s4 = np.where(arc == 2, system.clipped_equivalent_control(m), controls[arc])
    return Trajectory(t=t, m=m, s4=s4, inst_cost=instantaneous_cost(m.T, s4, params))


def bias_cost(m0, policy, e_star: float, params: ModelParams, t_max=1e5, m_star=None) -> float:
    """Integral of (cost - e_star) along the path of the threshold policy ``policy``
    (attribute ``pi``) from m0, by ``threshold_bias_batch``. A path that settles
    elsewhere raises NonConvergent carrying its value (tail priced to t_max).
    """
    m_star = np.asarray(optimal_equilibrium(params).m_star if m_star is None else m_star)
    batch = threshold_bias_batch(m0, [policy.pi], e_star, m_star, params, t_max)
    if batch.converged[0]:
        return float(batch.values[0])
    cost = e_star + batch.tails[0] / t_max
    message = f"settled at a non-target equilibrium (cost {cost:.6g}, target {e_star:.6g})"
    raise NonConvergent(message, value=float(batch.values[0]))


_SETTLE_TOL = 1e-12  # L1 distance at which a path sits at its arc's equilibrium
_LINEAR_TAIL_TOL = 1e-7  # active arcs settle closer: the linearised power tail is then exact
_MAX_ARCS = 64
_EDGES = 2.0 * (1.125 ** np.arange(256) - 1.0)  # active-arc panels [E_k, E_k+1], widths (E + 2) / 8
_PANEL_BLOCK = 2**11  # active-arc panels priced at once, whole paths to a block
# 8-point Gauss-Legendre rule moved to [0, 1] (symmetric about 1/2)
_GL_X = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.3626837833783617, 0.3137066458778869, 0.2223810344533744, 0.10122853629037706])
_GAUSS_T = np.concatenate([0.5 - 0.5 * _GL_X[::-1], 0.5 + 0.5 * _GL_X])
_GAUSS_W = 0.5 * np.concatenate([_GL_W[::-1], _GL_W])


@dataclass
class BiasBatch:
    """Per path: value, converged flag, its (E_settled - e_star) * t_max part (0
    if converged), events (time, arc entered: 0 passive, 1 active, 2 sliding)."""

    values: np.ndarray
    converged: np.ndarray
    tails: np.ndarray
    switches: list


def _decay(s, lam):
    """e^-s and psi(s) = (e^(-lam s) - e^-s) / (1 - lam), the divided difference of e^(z s)
    on {-1, -lam}; 1 - lam floored at 1e-200 gives its limit s e^-s at lam = 1 exactly."""
    d = np.maximum(1.0 - lam, 1e-200)
    return np.exp(-s), np.exp(-lam * s) * -np.expm1(-d * s) / d


def _flow(s, lam, p, q):
    """On an arc, x(s) = m(s) - eq = -(e^-s p + psi(s) q) (rows of p, q per path) and
    its integral from s to infinity, -(e^-s (p + q / lam) + psi(s) q / lam)."""
    e, psi = (v[..., None] for v in _decay(s, lam))
    return -(e * p + psi * q), -(e * p + (e + psi) * q / lam[..., None])


def _bang_event(g0, h, v1, v2, lam, span):
    """First root in (0, span] of g(s) = h - e^-s (v1 + v2 / lam) - psi(s) v2 / lam, a
    path's m4(s) - tau signed to turn positive where it leaves its bang arc, from
    g(0) = g0 <= 0; inf where there is none. g' = e^-s (v1 + E(s) v2) with
    E(s) = expm1((1 - lam) s) / (1 - lam) rising from 0, so g turns at most once, at
    E(t*) = -v1 / v2, and {0, t*, span} brackets the first root; after a landing (g0 = 0)
    only [t*, span] can. Newton steps, bisecting off the bracket, refine each path alone."""
    d, p, q = np.maximum(1.0 - lam, 1e-200), v1 + v2 / lam, v2 / lam

    def g(s):  # g, g', and the e^-s and psi(s) they are made of
        e, psi = _decay(s, lam)
        return h - e * p - psi * q, e * v1 + psi * v2, e, psi

    with np.errstate(divide="ignore", invalid="ignore"):  # where g' is flat, a step bisects
        a = np.minimum(np.log1p(d * np.where(v1 * v2 < 0.0, -v1 / v2, np.inf)) / d, span)
        (g_a, g_span), _, (e, _), (psi, _) = g(np.stack([a, span]))
        found = (first := (g0 < 0.0) & (g_a > 0.0)) | (a < span) & (g_a < 0.0) & (g_span > 0.0)
        live, lo, hi = found.copy(), np.where(first, 0.0, a), np.where(first, a, span)
        mid = lambda: np.sqrt((1.0 + lo) * (1.0 + hi)) - 1.0  # a wide bracket halves in log
        # start from Newton's step in e^-s at 0, or past t* from g's quadratic model there
        curve = e * (v2 - v1) - lam * psi * v2
        x = np.where(first, -np.log1p(g0 / v1), a + np.sqrt(-2.0 * g_a / curve))
        x = np.where((x > lo) & (x < hi), x, mid())
        for _ in range(64):  # a cap: the bracketed search takes a handful
            if not live.any():
                break
            gx, dg, _, _ = g(x)
            lo, hi = np.where(gx > 0.0, lo, x), np.where(gx > 0.0, x, hi)
            nx = x - np.log1p(lam * gx / dg) / lam  # Newton's step in e^(-lam s)
            done = np.abs(nx - x) <= 1e-8 * (1.0 + x)  # then nx is off by ~ its square
            keep = done | (nx > lo) & (nx < hi)
            x = np.where(live, nx if keep.all() else np.where(keep, nx, mid()), x)
            live &= ~done & (hi - lo > 1e-14 * (1.0 + x))
    return np.where(found, x, np.inf)


def _active_cost(ends, eq, p, q, lam, e_star, params):
    """Per path, the integral of (cost - e_star) on the active arc over [0, end], Gauss-Legendre
    on the panels of _EDGES cut at the end, in blocks of whole paths: free of the batch."""
    counts = _EDGES.searchsorted(ends)
    out, first = np.zeros(len(ends)), np.cumsum(counts) - counts
    bounds = np.flatnonzero(np.diff(first // _PANEL_BLOCK, prepend=-1)).tolist() + [len(ends)]
    for rows in map(np.arange, bounds[:-1], bounds[1:]):
        path = np.repeat(rows, counts[rows])
        k = np.arange(len(path)) + first[rows[0]] - first[path]
        left = np.minimum(_EDGES[k], ends[path])
        width = np.minimum(_EDGES[k + 1], ends[path]) - left
        e, psi = (v[..., None] for v in _decay(left[:, None] + width[:, None] * _GAUSS_T, lam))
        m = eq[path, None] - e * p[path, None] - psi * q[path, None]  # eq + x at the nodes
        rate = instantaneous_cost(np.moveaxis(m, -1, 0), 1.0, params)
        out += np.bincount(path, width * ((rate - e_star) * _GAUSS_W).sum(axis=1), len(ends))
    return out


def threshold_bias_batch(
    m0, thresholds, e_star: float, m_star, params: ModelParams, t_max=1e5, t_hard=5000.0
) -> BiasBatch:
    """Bias integrals of finite thresholds (else ValueError), one path per threshold:
    all from one start m0 of shape (4,), or path i from row i of an (n, 4) m0.

    Paths go from event to event in lockstep rounds, an arc per path per round. An
    arc's generator A (``_FluidSystem``) has spectrum {0, -1, -lam}, lam = rho on U(0),
    rho + beta1 (1 - rho) on U(1), so m(s) = m + phi1(s) A m + phi2(s) A (A + I) m, phi1
    and phi2 the divided differences of e^(z s) on {0, -1, -lam}, exact also where U(1)
    is defective (beta1 = 1); A (A + I) = 0 on the slide. Events: ``_bang_event``, or
    a slide exit's closed form, landed 1e-10 past. Costs: ``instantaneous_cost`` (a
    slide's control its duty cycle), in closed form where linear in m, else Gauss-Legendre.
    A path within _SETTLE_TOL of its arc's equilibrium, or past reaching the event (m4
    within L1 distance / 2 of the equilibrium's; at once for a passive path at tau >=
    beta1, whose m4 - beta1 = e^(-rho t) (alpha e^(-(1 - rho) t) - beta1 (m1 + m3)) never
    exceeds max(m4(0) - beta1, 0)), takes no event: one found later is rounding. The
    last arc is priced to infinity, on U(1) linearised from a panel edge that close. A
    path settling off m_star adds (E_settled - e_star) * t_max. Events after t_hard are
    not taken, nor U(1) integrated past it; a path cut short so is not converged.
    """
    tau = np.asarray(thresholds, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError(f"thresholds must be finite, got {tau[~np.isfinite(tau)].tolist()}")
    n, (b0, b1), rho = len(tau), params.beta, params.rho
    system, c = _FluidSystem(params), b1 * (1 - rho)
    u0, gens, exits = system.u0, system.gens, system.exits - system.exit_slack
    lams = np.array([rho, rho + c, 1.0])  # each arc's slow decay; the slide has none
    # per path: a slide's duty cycle per unit phi0; per arc: equilibrium, margin to the arc's event
    duty = np.divide(1.0, c * tau, out=np.zeros(n), where=tau > 0)
    m4 = np.stack([np.full(n, m4_passive(params)), np.full(n, m4_active(params)), tau], axis=1)
    eq = np.stack([b0 * (b1 - m4) / b1, b0 * m4 / b1, b1 - m4, m4], axis=2)  # (n, arc, 4)
    passive = np.where(tau >= b1, np.inf, tau - b1)  # at tau >= beta1 it settles at once
    slack = rho * (b1 - tau) / c  # tau times the duty cycle at the slide's equilibrium
    act = np.minimum(m4[:, 1] - tau, 0.5 * _LINEAR_TAIL_TOL)  # and the power is linear
    margin = np.stack([passive, act, np.minimum(slack, tau - slack)], axis=1)

    def cost(m, arc, duty):
        s = np.where(arc == 2, duty * (m * u0[3]).sum(axis=-1), arc == 1)
        return instantaneous_cost(np.moveaxis(m, -1, 0), s, params)

    rates = cost(eq, np.arange(3), duty[:, None])  # (n, arc) cost rates at the equilibria
    m = np.broadcast_to(validate_measure(m0), (n, 4)).copy()
    arc = (m[:, 3] > tau).astype(int)
    on = np.abs(m[:, 3] - tau) <= _SURFACE_TOL
    m[on], arc[on] = system.land(m[on], tau[on])
    values, tails, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    live, j, t, switches = np.arange(n), np.zeros(n), np.zeros(n), [[] for _ in tau]
    while live.size:
        rows = np.arange(live.size)
        e, lam, a, span = eq[rows, arc], lams[arc], gens[arc], t_hard - t
        v1 = np.einsum("pij,pj->pi", a, m)
        v2 = np.where(arc[:, None] < 2, v1 + np.einsum("pij,pj->pi", a, v1), 0.0)  # A (A + I) m
        p, q = v1 + v2 / lam[:, None], v2 / lam[:, None]  # m(s) = e - e^-s p - psi(s) q
        dist = np.abs(m - e).sum(axis=1)  # near its equilibrium, or past reaching its event:
        calm = (dist <= _SETTLE_TOL) | (0.5 * dist < margin[rows, arc])  # no event to come
        te, bang, slide = np.full(len(m), np.inf), np.flatnonzero(arc < 2), np.flatnonzero(arc == 2)
        if bang.size:
            sign = 1 - 2 * arc[bang]  # m4 rises past tau on U(0), falls to it on U(1)
            te[bang] = _bang_event(sign * (m[bang, 3] - tau[bang]), sign * (e[bang, 3] - tau[bang]),
                                   sign * v1[bang, 3], sign * v2[bang, 3], lam[bang], span[bang])
        if slide.size:  # an exit (e - e^-s p) . w turns positive at e^-s = (e . w) / (p . w)
            ew, pw = ((v[slide, :, None] * exits).sum(axis=1) for v in (e, p))
            z = np.divide(ew, pw, out=np.zeros_like(ew), where=(ew > 0.0) & (pw > 0.0))
            log_z = np.log(np.minimum(z, 1.0), out=np.full_like(z, -np.inf), where=z > 0.0)
            te[slide] = _EVENT_TIME_TOL - log_z.max(axis=1)
        x, tail = _flow(np.where(np.isfinite(te), te, 0.0), lam, p, q)
        real = np.isfinite(te) & ~calm & (np.abs(x).sum(axis=1) > _SETTLE_TOL)  # else rounding
        hit, hard = real & (te < span), real & (te >= span)
        end, whole = np.where(hit, te, 0.0), -(p + q / lam[:, None])  # whole: x's integral
        tail = np.where(hit[:, None], tail, whole)  # the integral of x from the arc's end on
        # a settling active arc takes Gauss-Legendre to an edge where the bound
        # e^(-lam s) (|p| + s |q|) on its distance is within the linearisation margin
        if (up := np.flatnonzero(~hit & (arc == 1))).size:
            size, slope = np.abs(p[up]).sum(1), np.abs(q[up]).sum(1)
            goal = np.maximum(2 * margin[up, 1], _SETTLE_TOL)
            far = lambda s: np.log(np.maximum((size + s * slope) / goal, 1.0)) / lam[up]
            far = far(far(span[up]))  # its fixed point, approached from above
            end[up] = _EDGES[_EDGES.searchsorted(np.minimum(far, span[up]))]
            hard[up], tail[up] = far > span[up], _flow(end[up], lam[up], p[up], q[up])[1]
        if (act := np.flatnonzero(arc == 1)).size:
            j[act] += _active_cost(end[act], e[act], p[act], q[act], lams[1], e_star, params)
        # cost - e_eq, linear in x, over a linear arc's span and over each settled arc's rest
        e_eq, lin = rates[rows, arc], hit & (arc != 1)
        dev = cost(e + np.where(lin[:, None], whole - tail, np.where(hit[:, None], 0.0, tail)),
                   arc, duty) - e_eq
        j += np.where(lin, dev + (e_eq - e_star) * end, 0.0)
        target = (np.abs(e - m_star).sum(axis=1) < 1e-9) & (np.abs(e_eq - e_star) < 1e-10)
        off, d = np.where(target, 0.0, e_eq - e_star), ~hit
        values[live[d]] = (j + dev + off * (t_max - t - end))[d]
        tails[live[d]], converged[live[d]] = off[d] * t_max, target[d] & ~hard[d]
        m[hit], arc[hit] = system.land(e[hit] + x[hit], tau[hit])
        t[hit] += te[hit]
        for path, when, new in zip(live[hit], t[hit], arc[hit]):
            switches[path].append((float(when), int(new)))
            if len(switches[path]) >= _MAX_ARCS:
                raise NonConvergent(f"a threshold path exceeded {_MAX_ARCS} arcs")
        live, tau, duty, eq, rates, margin, m, arc, j, t = (
            v[hit] for v in (live, tau, duty, eq, rates, margin, m, arc, j, t))
    return BiasBatch(values, converged, tails, switches)
