"""Mean-field dynamics: discrete map, the closed-form controlled flow, exact bias integrals.

dm/dt = U(s) m, where the activation s of the full-queue good-channel class
enters U only through its m4 column. A threshold controller on m4 runs on
three linear arcs: U(0) below its threshold, U(1) above it, and on the
surface the slide of the equivalent control (Filippov/Utkin)
s = phi0(m) / (beta1 (1 - rho) m4), phi0 being the passive field's
m4-component, until s leaves [0, 1]. ``_FluidSystem`` is that arc model: the
generators, each arc's equilibrium and event margin, a path's first arc
(``start``), each arc's activation (``control``) and where a state goes once
it has left its arc (``land``). A constant activation s is one arc, U(s).
Each arc's generator A has spectrum {0, -1, -lam}: lam = rho + s beta1 (1 - rho) on
U(s), and the slide has A (A + I) = 0. So on an arc m(t) = m + phi1(t) A m +
phi2(t) A (A + I) m, phi1 and phi2 the divided differences of e^(z t) on
{0, -1, -lam}: a sum of e^-t and e^(-lam t) terms (t e^-t at lam = 1) about the
arc's equilibrium. ``_arc_events`` is the one event rule on it and ``_walk`` the one
walk from event to event: ``integrate`` samples its arcs on a grid, and
``threshold_bias_batch``, behind ``bias_cost``, prices them; a path that settles
off the target is priced up to the horizon ``_T_MAX``.
The cost rate c(m, s) = theta n0 s / (1 - theta m4) + lam (m2 + m4), ``instantaneous_cost``,
is the bang-bang cost at s in {0, 1} and the duty-cycle average on a slide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import instantaneous_cost, m4_active, m4_passive, optimal_equilibrium
from .errors import AssumptionViolation, NonConvergent
from .kernel import drift_matrix_4state
from .model import ModelParams, validate_measure, write_csv

_EVENT_TIME_TOL = 1e-10
_SURFACE_TOL = 1e-9
_SETTLE_TOL = 1e-12  # L1 distance at which a path sits at its arc's equilibrium
_LINEAR_TAIL_TOL = 1e-7  # active arcs settle closer: the linearised power tail is then exact
_GRID_SLACK = 1e-9  # a grid point within this many dt of the horizon is the horizon's row
_T_MAX = 1e5  # the horizon to which a path settling off the target is priced
_EPS = np.finfo(float).eps


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


class _FluidSystem:
    """The arc model of the threshold-controlled fluid.

    On each arc the flow is linear, dm/dt = A m, with A one of ``gens``:
    U(0) (arc 0), U(1) (arc 1), or on m4 = tau the slide (arc 2), and ``lams``
    its slow decay. ``arcs`` gives each arc's equilibrium and event margin,
    ``exits`` the slide's exit fields, ``start`` a path's first arc, ``control``
    each arc's activation and ``land`` where a path goes next.
    Products with a state are sums per row, so a row has the same bits
    alone as in any stack. AssumptionViolation at beta1 = 0, where the slide is
    undefined.
    """

    def __init__(self, params: ModelParams):
        if params.beta1 <= 0.0:
            raise AssumptionViolation(f"the fluid needs beta1 > 0, got beta1={params.beta1}")
        self.params = params
        self.u0 = drift_matrix_4state(0.0, params)
        self.u1 = drift_matrix_4state(1.0, params)
        self.du = self.u1 - self.u0
        # the flow on m4 = tau under the unclipped equivalent control; its m4 row is zero
        self.c = c = params.beta1 * (1 - params.rho)
        slide = self.u0 + np.outer(self.du[:, 3], self.u0[3]) / c
        slide[3] = 0.0
        self.gens = np.array([self.u0, self.u1, slide])
        self.lams = np.array([params.rho, params.rho + c, 1.0])  # the slide has no slow decay
        # -phi0 and phi1 (the duty cycle's exits), and the rounding bound of each per |m|
        self.exits = np.stack([-self.u0[3], self.u1[3]], axis=1)
        self.exit_slack = 4.0 * _EPS * np.abs(self.exits)

    def arcs(self, tau):
        """Per threshold in tau, (n,): each arc's equilibrium, (n, 3, 4), and the margin
        of its event, (n, 3): a path whose m4 is within L1 distance / 2 of the
        equilibrium's can no longer reach the event once that distance is below twice
        the margin. A passive path at tau >= beta1 never reaches it, since its
        m4 - beta1 = e^(-rho t) (alpha e^(-(1 - rho) t) - beta1 (m1 + m3)) never
        exceeds max(m4(0) - beta1, 0)."""
        params, n = self.params, len(tau)
        (b0, b1), rho = params.beta, params.rho
        m4 = np.stack([np.full(n, m4_passive(params)), np.full(n, m4_active(params)), tau], axis=1)
        eq = np.stack([b0 * (b1 - m4) / b1, b0 * m4 / b1, b1 - m4, m4], axis=2)
        passive = np.where(tau >= b1, np.inf, tau - b1)
        slack = rho * (b1 - tau) / self.c  # tau times the duty cycle at the slide's equilibrium
        act = np.minimum(m4[:, 1] - tau, 0.5 * _LINEAR_TAIL_TOL)  # and the power is linear
        return eq, np.stack([passive, act, np.minimum(slack, tau - slack)], axis=1)

    def start(self, m, tau):
        """Each row's first arc: U(1) above tau, else U(0), or within _SURFACE_TOL ``land``'s."""
        m, arc = m.copy(), (m[:, 3] > tau).astype(int)
        on = np.abs(m[:, 3] - tau) <= _SURFACE_TOL
        m[on], arc[on] = self.land(m[on], tau[on])
        return m, arc

    def control(self, m, arc, tau):
        """Each arc's activation, per row of m: 0, 1, or on the slide the duty cycle
        phi0 / (beta1 (1 - rho) tau) that holds m4 = tau (0 at tau <= 0)."""
        duty = np.divide(1.0, self.c * tau, out=np.zeros(np.shape(tau)), where=tau > 0)
        return np.where(arc == 2, duty * _row_dot(m, self.u0[3]), arc == 1)

    def land(self, m, tau):
        """Snap m onto m4 = tau (m2 absorbs the change) and take the arc whose
        field keeps or carries it: U(1) if it does not lower m4, U(0) if it does not
        lift m4, else the slide (phi1 < phi0 wherever m4 > 0, so one test holds at most)."""
        m = m + np.multiply.outer(m[..., 3] - tau, [0.0, 1.0, 0.0, -1.0])
        keeps1, keeps0 = _row_dot(m, self.u1[3]) >= 0.0, _row_dot(m, self.u0[3]) <= 0.0
        arc = np.where(keeps1, 1, np.where(keeps0, 0, 2))
        return m, arc[()]  # a scalar for one state


def _row_dot(m, w):
    """m . w per row of m, summed in index order, so a row's bits do not depend on its stack."""
    return ((m[..., 0] * w[0] + m[..., 1] * w[1]) + m[..., 2] * w[2]) + m[..., 3] * w[3]


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
    only [t*, span] can. Newton steps, halving the bracket where one leaves it, refine
    each path alone."""
    d, p, q = np.maximum(1.0 - lam, 1e-200), v1 + v2 / lam, v2 / lam

    def g(s):  # g, g', and the e^-s and psi(s) they are made of
        e, psi = _decay(s, lam)
        return h - e * p - psi * q, e * v1 + psi * v2, e, psi

    with np.errstate(divide="ignore", invalid="ignore"):  # where g' is flat, a step halves
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


def _arc_events(system, m, arc, tau, e, margin, span):
    """The event rule, per path i from m[i] on arc[i], with threshold tau[i], the arc's
    equilibrium e[i] and event margin margin[i] (``_FluidSystem.arcs``), up to time span[i].

    Returns p and q, m(s) = e - e^-s p - psi(s) q on the arc; the event time: the first
    root of m4 - tau on a bang arc (``_bang_event``), 1e-10 past a slide exit's closed
    form, inf where there is none; and x = m - e at that time and its integral from
    there to infinity (at 0 where there is none). A path within _SETTLE_TOL of e, or
    past reaching the event (within twice its margin), takes no event: one found where
    it is within _SETTLE_TOL of e is rounding.
    """
    lam, a = system.lams[arc], system.gens[arc]
    v1 = np.einsum("pij,pj->pi", a, m)
    v2 = np.where(arc[:, None] < 2, v1 + np.einsum("pij,pj->pi", a, v1), 0.0)  # A (A + I) m
    p, q = v1 + v2 / lam[:, None], v2 / lam[:, None]
    dist = np.abs(m - e).sum(axis=1)
    calm = (dist <= _SETTLE_TOL) | (0.5 * dist < margin)
    te, bang, slide = np.full(len(m), np.inf), np.flatnonzero(arc < 2), np.flatnonzero(arc == 2)
    if bang.size:
        sign = 1 - 2 * arc[bang]  # m4 rises past tau on U(0), falls to it on U(1)
        te[bang] = _bang_event(sign * (m[bang, 3] - tau[bang]), sign * (e[bang, 3] - tau[bang]),
                               sign * v1[bang, 3], sign * v2[bang, 3], lam[bang], span[bang])
    if slide.size:  # an exit (e - e^-s p) . w turns positive at e^-s = (e . w) / (p . w)
        exits = system.exits - system.exit_slack
        ew, pw = ((v[slide, :, None] * exits).sum(axis=1) for v in (e, p))
        z = np.divide(ew, pw, out=np.zeros_like(ew), where=(ew > 0.0) & (pw > 0.0))
        log_z = np.log(np.minimum(z, 1.0), out=np.full_like(z, -np.inf), where=z > 0.0)
        te[slide] = _EVENT_TIME_TOL - log_z.max(axis=1)
    x, tail = _flow(np.where(np.isfinite(te), te, 0.0), lam, p, q)
    real = np.isfinite(te) & ~calm & (np.abs(x).sum(axis=1) > _SETTLE_TOL)
    return p, q, np.where(real, te, np.inf), x, tail


def _walk(system, m, tau, t_end, switches):
    """Paths from the rows of m under thresholds tau, from their ``start`` to time t_end, in
    lockstep rounds. Yields per round the live paths' indices, each arc's start time, state,
    arc, equilibrium, margin, span and ``_arc_events``; lands each event within the span, as
    (time, arc entered) in its path's switches. NonConvergent once a path exceeds _MAX_ARCS."""
    eq, margin = system.arcs(tau)
    m, arc = system.start(m, tau)
    live, t = np.arange(len(tau)), np.zeros(len(tau))
    while live.size:
        e, edge, span = eq[live, arc], margin[live, arc], t_end - t
        p, q, te, x, tail = _arc_events(system, m, arc, tau[live], e, edge, span)
        yield live, t, m, arc, e, edge, span, (p, q, te, x, tail)
        hit = te < span
        live, t = live[hit], t[hit] + te[hit]
        m, arc = system.land(e[hit] + x[hit], tau[live])
        for path, when, new in zip(live, t, arc):
            switches[path].append((float(when), int(new)))
            if len(switches[path]) >= _MAX_ARCS:
                raise NonConvergent(f"a threshold path exceeded {_MAX_ARCS} arcs")


def integrate(m0, policy, horizon: float, params: ModelParams, dt: float = 0.01) -> Trajectory:
    """Sample the controlled fluid from m0 to the horizon.

    ``policy`` is either a threshold policy object (a finite attribute ``pi``) or a
    constant activation s4, a float in [0, 1]; else ValueError. The path is the closed-form
    flow of its arcs, from event to event by ``_walk``, the walk ``threshold_bias_batch``
    prices; a constant runs as one arc, U(s4), with no event. Rows: the start, then
    from it and from each event t0 + k dt (k >= 1) up to the next event, a row at each
    event (the state landed on tau, the arc it enters), and one at the horizon. No
    step is taken, so any dt > 0 gives states of the exact flow.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    system = _FluidSystem(params)
    m = validate_measure(m0)[None]
    threshold = hasattr(policy, "pi")
    if threshold:
        tau = np.array([float(policy.pi)])
        if not np.isfinite(tau[0]):
            raise ValueError(f"a threshold must be finite, got pi={tau[0]}")
        arcs = ((t[0], m, arc, e, system.lams[arc], p, q, te[0]) for _, t, m, arc, e, _, _,
                (p, q, te, _, _) in _walk(system, m, tau, horizon, [[]]))
    else:
        s = float(policy)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"a constant activation s4 must lie in [0, 1], got {s!r}")
        a, lam = system.u0 + s * system.du, np.array([params.rho + s * system.c])
        v1 = m @ a.T
        v2 = v1 + v1 @ a.T  # A (A + I) m
        p, q = v1 + v2 / lam, v2 / lam
        arcs = [(0.0, m, np.zeros(1, dtype=int), m + p, lam, p, q, np.inf)]
    blocks = []
    for t, m, arc, e, lam, p, q, te in arcs:
        blocks.append(([t], m, arc))
        if t >= horizon:
            break
        event = te < horizon - t  # the walk's rule
        before = t + te if event else horizon - _GRID_SLACK * dt  # the grid rows lie before it
        k = np.arange(1, int((before - t) / dt) + 2)
        keep = t + k * dt < before
        times, since = t + k[keep] * dt, k[keep] * dt  # since the arc began
        if not event:
            times, since = np.append(times, horizon), np.append(since, horizon - t)
        ex, psi = _decay(since, lam)
        blocks.append((times, e - ex[:, None] * p - psi[:, None] * q, np.repeat(arc, len(since))))
    t, m, arc = (np.concatenate(column) for column in zip(*blocks))
    s4 = system.control(m, arc, tau) if threshold else np.full(len(t), s)
    return Trajectory(t=t, m=m, s4=s4, inst_cost=instantaneous_cost(m.T, s4, params))


def bias_cost(m0, policy, e_star: float, params: ModelParams, m_star=None) -> float:
    """Integral of (cost - e_star) along the path of the threshold policy ``policy``
    (attribute ``pi``) from m0, by ``threshold_bias_batch``. A path that settles
    elsewhere raises NonConvergent carrying its value (tail priced to ``_T_MAX``).
    """
    m_star = np.asarray(optimal_equilibrium(params).m_star if m_star is None else m_star)
    batch = threshold_bias_batch(m0, [policy.pi], e_star, m_star, params)
    if batch.converged[0]:
        return float(batch.values[0])
    cost = e_star + batch.tails[0] / _T_MAX
    message = f"settled at a non-target equilibrium (cost {cost:.6g}, target {e_star:.6g})"
    raise NonConvergent(message, value=float(batch.values[0]))


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
    m0, thresholds, e_star: float, m_star, params: ModelParams, t_max=_T_MAX, t_hard=5000.0
) -> BiasBatch:
    """Bias integrals of finite thresholds (else ValueError), one path per threshold:
    all from one start m0 of shape (4,), or path i from row i of an (n, 4) m0.

    Paths go from event to event by ``_walk``, an arc per path per round, on the
    closed-form arcs of ``_FluidSystem``, exact also where U(1) is defective (beta1 = 1).
    Costs: ``instantaneous_cost`` at ``_FluidSystem.control`` (a slide's control its
    duty cycle), in closed form where linear in m, else Gauss-Legendre. The
    last arc is priced to infinity, on U(1) linearised from a panel edge that close. A
    path settling off m_star adds (E_settled - e_star) * t_max. Events after t_hard are
    not taken, nor U(1) integrated past it; a path cut short so is not converged.
    """
    tau = np.asarray(thresholds, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError(f"thresholds must be finite, got {tau[~np.isfinite(tau)].tolist()}")
    n, system = len(tau), _FluidSystem(params)

    def cost(m, arc, tau):
        return instantaneous_cost(np.moveaxis(m, -1, 0), system.control(m, arc, tau), params)

    values, tails, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    j, switches = np.zeros(n), [[] for _ in tau]  # j: each path's value so far
    for live, t, _, arc, e, margin, span, (p, q, te, _, tail) in _walk(
            system, np.broadcast_to(validate_measure(m0), (n, 4)), tau, t_hard, switches):
        lam, hit = system.lams[arc], te < span
        hard = np.isfinite(te) & ~hit
        end, whole = np.where(hit, te, 0.0), -(p + q / lam[:, None])  # whole: x's integral
        tail = np.where(hit[:, None], tail, whole)  # the integral of x from the arc's end on
        # a settling active arc takes Gauss-Legendre to an edge where the bound
        # e^(-lam s) (|p| + s |q|) on its distance is within the linearisation margin
        if (up := np.flatnonzero(~hit & (arc == 1))).size:
            size, slope = np.abs(p[up]).sum(1), np.abs(q[up]).sum(1)
            goal = np.maximum(2 * margin[up], _SETTLE_TOL)
            far = lambda s: np.log(np.maximum((size + s * slope) / goal, 1.0)) / lam[up]
            far = far(far(span[up]))  # its fixed point, approached from above
            end[up] = _EDGES[_EDGES.searchsorted(np.minimum(far, span[up]))]
            hard[up], tail[up] = far > span[up], _flow(end[up], lam[up], p[up], q[up])[1]
        if (act := np.flatnonzero(arc == 1)).size:
            j[live[act]] += _active_cost(end[act], e[act], p[act], q[act], system.lams[1],
                                         e_star, params)
        # cost - e_eq, linear in x, over a linear arc's span and over each settled arc's rest
        e_eq, lin = cost(e, arc, tau[live]), hit & (arc != 1)
        dev = cost(e + np.where(lin[:, None], whole - tail, np.where(hit[:, None], 0.0, tail)),
                   arc, tau[live]) - e_eq
        j[live] += np.where(lin, dev + (e_eq - e_star) * end, 0.0)
        target = (np.abs(e - m_star).sum(axis=1) < 1e-9) & (np.abs(e_eq - e_star) < 1e-10)
        off, d = np.where(target, 0.0, e_eq - e_star), ~hit
        values[live[d]] = (j[live] + dev + off * (t_max - t - end))[d]
        tails[live[d]], converged[live[d]] = off[d] * t_max, target[d] & ~hard[d]
    return BiasBatch(values, converged, tails, switches)
