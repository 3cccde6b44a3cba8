import itertools

import numpy as np
import pytest

import oracles
from conftest import random_simplex, sec4_at
from powerctl import equilibrium, finite, fluid, kernel, policy
from powerctl.errors import NonConvergent, NotADistribution
from powerctl.model import ModelParams


class TestDiscreteStep:
    def test_equilibrium_fixed_point(self, sec4):
        for s4 in np.linspace(0.0, 1.0, 11):
            m = equilibrium.equilibrium_measure(s4, sec4)
            assert fluid.discrete_step(m, s4, sec4) == pytest.approx(m, abs=1e-15)

    def test_corner_start(self, sec4):
        out = fluid.discrete_step(np.array([1.0, 0, 0, 0]), 0.7, sec4)
        assert out == pytest.approx([0.54, 0.06, 0.36, 0.04])

    def test_long_iteration_reaches_equilibrium(self, sec4):
        rng = np.random.default_rng(1)
        for s4 in (0.0, 0.35, 1.0):
            m = random_simplex(rng)
            for _ in range(10_000):
                m = fluid.discrete_step(m, s4, sec4)
            ref = equilibrium.equilibrium_measure(s4, sec4)
            assert np.abs(m - ref).max() < 1e-8


class TestPassiveClosedForm:
    def test_initial_condition(self, sec4):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m0 = random_simplex(rng)
            assert oracles.passive_trajectory_closed_form(m0, 0.0, sec4) == pytest.approx(
                m0, abs=1e-14
            )

    def test_long_run_limit(self, sec4):
        rng = np.random.default_rng(4)
        m0 = random_simplex(rng)
        assert oracles.passive_trajectory_closed_form(m0, 200.0, sec4) == pytest.approx(
            [0.0, 0.6, 0.0, 0.4], abs=1e-8
        )

    def test_derivative_matches_drift(self, sec4):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            m0 = random_simplex(rng)
            fd = (
                oracles.passive_trajectory_closed_form(m0, h, sec4)
                - oracles.passive_trajectory_closed_form(m0, 0.0, sec4)
            ) / h
            assert fd == pytest.approx(kernel.drift_matrix_4state(0.0, sec4) @ m0, abs=1e-5)

    @pytest.mark.parametrize("shift", [0.0, 0.005, None], ids=["beta1", "beta1+0.005", "one"])
    def test_never_passes_a_threshold_at_or_above_beta1(self, shift):
        # the passive settle rule of the exact engine: from m4 <= tau >= beta1 the
        # passive flow keeps m4 <= tau; 1e-15 allows the closed form's own rounding
        rng = np.random.default_rng(18)
        t = np.concatenate([np.linspace(0.0, 60.0, 6001), np.geomspace(60.0, 1e4, 400)])
        for rho in (0.02, 0.1, 0.5, 0.95):
            params = sec4_at(rho)
            tau = 1.0 if shift is None else params.beta1 + shift
            starts = rng.dirichlet(np.ones(4), size=300)
            starts = starts[starts[:, 3] <= tau]
            # and starts on the threshold, the rest of the mass spread over m1 .. m3
            on = rng.dirichlet(np.ones(3), size=50) * (1.0 - tau)
            starts = np.concatenate([starts, np.insert(on, 3, tau, axis=1)])
            assert len(starts) > 100
            for m0 in starts:
                m4 = oracles.passive_trajectory_closed_form(m0, t, params)[3]
                assert m4.max() <= tau + 1e-15


class TestIntegrate:
    def test_constant_at_passive_equilibrium(self, sec4):
        traj = fluid.integrate([0.0, 0.6, 0.0, 0.4], 0.0, 3.0, sec4)
        assert np.abs(traj.m - traj.m[0]).max() < 1e-12
        assert np.all(traj.s4 == 0.0)

    def test_matches_closed_form(self, sec4):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m0 = random_simplex(rng)
            traj = fluid.integrate(m0, 0.0, 5.0, sec4, dt=0.01)
            for t_ref in (0.5, 1.0, 2.0, 5.0):
                assert np.abs(traj.t - t_ref).min() < 1e-9
            ref = oracles.passive_trajectory_closed_form(m0, traj.t, sec4).T
            assert np.abs(traj.m - ref).max() < 1e-12

    def test_fourth_order_convergence(self, sec4):
        m0 = np.array([0.4, 0.3, 0.2, 0.1])
        ref = oracles.passive_trajectory_closed_form(m0, 2.0, sec4)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            traj = oracles.rk4_integrate(m0, 0.0, 2.0, sec4, dt=dt)
            errs.append(np.abs(traj.m[-1] - ref).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    def test_simplex_preserved(self, sec4):
        rng = np.random.default_rng(7)
        tp = policy.make_policy(sec4)
        for _ in range(5):
            traj = fluid.integrate(random_simplex(rng), tp, 50.0, sec4)
            assert np.abs(traj.m.sum(axis=1) - 1.0).max() < 1e-7
            assert traj.m.min() >= -1e-9
            assert np.all(np.diff(traj.t) > 0.0)

    def test_threshold_event_bisection(self, sec4):
        # crossing time appears as an extra sample localized on the surface
        tp = policy.make_policy(sec4)  # active regime, pi = m4 of equilibrium
        m0 = np.array([0.1, 0.4, 0.45, 0.05])  # below threshold, passive first
        traj = fluid.integrate(m0, tp, 30.0, sec4)
        assert traj.s4[0] == 0.0
        crossings = np.flatnonzero(np.abs(traj.m[:, 3] - tp.pi) < 1e-9)
        assert len(crossings) > 0
        assert traj.s4[-1] > 0.0

    @pytest.mark.parametrize("s4", [np.nan, -0.5, 1.5])
    def test_constant_outside_the_unit_interval_refused(self, sec4, s4):
        # s4 is the fraction of class-4 users that transmit; NaN would run to rows of nan
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            fluid.integrate([0.25] * 4, s4, 1.0, sec4)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_step_not_positive_refused(self, sec4, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            fluid.integrate([0.25] * 4, 1.0, 1.0, sec4, dt=dt)

    @pytest.mark.parametrize("pi", [np.nan, np.inf, -np.inf])
    def test_threshold_not_finite_refused(self, sec4, pi):
        # a NaN threshold once ran as never-transmit (m4 > nan is False)
        tp = policy.ThresholdPolicy(pi=pi, regime="test", pairing="test")
        with pytest.raises(ValueError, match=f"a threshold must be finite, got pi={pi!r}"):
            fluid.integrate([0.25] * 4, tp, 1.0, sec4)

    def test_switch_at_the_horizon_ends_on_it(self, sec4):
        # a switch bisected within 1e-10 of the horizon lands inside the last step
        pick = policy.ThresholdPolicy(pi=0.06, regime="test", pairing="test")
        m0 = [0.5, 0.3, 0.18, 0.02]
        traj = fluid.integrate(m0, pick, 1.0, sec4)
        landing = traj.t[np.argmax(traj.s4 == 1.0)]  # within 1e-10 past the crossing
        for horizon in landing - np.linspace(0.0, 1.2e-10, 25):
            assert fluid.integrate(m0, pick, horizon, sec4).t[-1] == horizon

    @pytest.mark.parametrize("horizon, dt", [(50.0, 0.01), (500.0, 0.01), (7.7, 0.07), (3.0, 1.0)])
    def test_one_row_per_grid_point(self, sec4, horizon, dt):
        # a path with no event: rows at k dt, k = 0 .. K - 1, and the horizon K dt. A
        # running sum of dt once fell short of the horizon and wrote one more row there
        k = round(horizon / dt)
        # from [0.25] * 4 the threshold path stays on the active arc
        for controller in (0.3, policy.make_policy(sec4)):
            traj = fluid.integrate([0.25] * 4, controller, horizon, sec4, dt=dt)
            assert len(traj.t) == k + 1 and traj.t[-1] == horizon
            assert np.array_equal(traj.t[:-1], np.arange(k) * dt)
            printed = [f"{t:.12g}" for t in traj.t]
            assert len(set(printed)) == len(printed)

    @pytest.mark.parametrize("name", ["passive", "active", "threshold"])
    def test_large_steps_sample_the_same_flow(self, sec4, name):
        # at dt = 3 the first RK4 step left the simplex; the closed form takes no step, so
        # its rows at t = 0, 3, .., 48 and 50 are rows of the dt = 0.01 path
        controller = {"passive": 0.0, "active": 1.0, "threshold": policy.make_policy(sec4)}[name]
        coarse = fluid.integrate([0.25] * 4, controller, 50.0, sec4, dt=3.0)
        fine = fluid.integrate([0.25] * 4, controller, 50.0, sec4, dt=0.01)
        assert len(coarse.t) == 18 and coarse.t[-1] == 50.0
        assert np.abs(coarse.m.sum(axis=1) - 1.0).max() < 1e-12 and coarse.m.min() > 0.0
        rows = np.searchsorted(fine.t, coarse.t - 1e-9)
        assert np.abs(fine.t[rows] - coarse.t).max() < 1e-12
        assert np.abs(fine.m[rows] - coarse.m).max() < 1e-14
        assert np.array_equal(fine.s4[rows], coarse.s4)

    def test_csv_round_trip(self, sec4, tmp_path):
        traj = fluid.integrate([0.25] * 4, 1.0, 1.0, sec4)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape[0] == len(traj.t)
        assert data["m4"][-1] == pytest.approx(traj.m[-1, 3], rel=1e-10)


class TestBiasCost:
    def test_zero_at_equilibrium(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        val = fluid.bias_cost(np.array(rep.m_star), tp, rep.E_star, sec4)
        assert val == 0.0

    def test_rk4_stage_pricing_matches_exact_engine(self, sec4):
        # passive, then one switch to active, no slide: RK4 steps priced from their
        # stage states against the exact engine, which has no step
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        for m0 in ([0.1, 0.4, 0.45, 0.05], [0.7, 0.1, 0.15, 0.05]):
            exact = fluid.bias_cost(np.array(m0), tp, rep.E_star, sec4)
            traj = oracles.rk4_integrate(m0, tp, ORACLE_T, sec4, dt=0.01)
            assert abs(_rk4_stage_bias(traj, sec4, rep.E_star) - exact) < 1e-8

    def test_wrong_threshold_diverges(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        bad = policy.ThresholdPolicy(pi=0.3, regime=rep.regime, pairing="test")
        with pytest.raises(NonConvergent) as err:
            fluid.bias_cost(np.array([0.55, 0.15, 0.2, 0.1]), bad, rep.E_star, sec4)
        assert err.value.value > 100.0

    def test_neighbor_thresholds_no_better(self, sec4):
        # the policy threshold beats itself shifted by +/- 0.02
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        m0 = np.array([0.55, 0.15, 0.2, 0.1])
        base = fluid.bias_cost(m0, tp, rep.E_star, sec4)
        for shift in (-0.02, 0.02):
            shifted = policy.ThresholdPolicy(
                pi=tp.pi + shift, regime=tp.regime, pairing=tp.pairing
            )
            try:
                other = fluid.bias_cost(m0, shifted, rep.E_star, sec4)
            except NonConvergent as exc:
                other = exc.value
            assert base <= other + 1e-9


class TestInstantaneousCost:
    def test_one_implementation(self, sec4):
        # the fluid's cost rate is the equilibrium module's; E(s4) is that rate at equilibrium
        assert fluid.instantaneous_cost is equilibrium.instantaneous_cost
        m = equilibrium.equilibrium_measure(0.3, sec4)
        assert equilibrium.equilibrium_cost(0.3, sec4) == fluid.instantaneous_cost(m, 0.3, sec4)

    def test_passive_is_holding_cost(self, sec4):
        assert fluid.instantaneous_cost([0.0, 0.6, 0.0, 0.4], 0.0, sec4) == pytest.approx(
            1.5
        )

    def test_active_adds_power(self, sec4):
        m = [0.2, 0.2, 0.2, 0.4]
        expected = 0.2 / (1 - 0.2 * 0.4) + 1.5 * 0.6
        assert fluid.instantaneous_cost(m, 1.0, sec4) == pytest.approx(expected)


# The exact engine against ``oracles.rk4_integrate`` on controlled paths. Horizon T:
# every path below ends on an active arc (rate >= 0.43) or a slide (rate 1)
# well before T, so the bias left after T is below 1e-9.
ORACLE_T = 60.0
ORACLE_DT = 0.005
# Fixed from a dt / dt-halving pair: the RK4 trapezoids at dt = 0.01 and 0.005
# differed by at most 1.9e-6 over these six paths, and the trapezoid error is
# second order, so at dt = 0.005 it is about a third of that (<= 6.1e-7).
ORACLE_VALUE_TOL = 1e-6
ORACLE_CASES = [
    # (rho, start, tau - pi, settles at the optimum): Active regime, then Interior
    (0.1, [0.5868, 0.0235, 0.2749, 0.1148], -0.007, True),  # slide, then off it to active
    (0.1, [0.1, 0.4, 0.45, 0.05], 0.0, True),  # passive, then straight through to active
    (0.1, [0.25, 0.25, 0.25, 0.25], 0.01, False),  # active, then slides off the optimum
    (0.05, [0.5927, 0.0257, 0.3503, 0.0313], -0.008, False),  # slide, then off it to active
    (0.05, [0.7, 0.1, 0.15, 0.05], 0.0, True),  # passive, active, then slides to the optimum
    (0.05, [0.25, 0.25, 0.25, 0.25], 0.01, False),  # active, then slides off the optimum
]


def _rk4_stage_bias(traj, params, e_star):
    """Bias integral of an RK4 path to its last time: each step is priced as
    (h/6)(c(m) + 2c(Q2 m) + 2c(Q3 m) + c(Q4 m)), its stage states computed
    stage-wise on U(s) at the s4 in effect at its start, less e_star per unit time."""
    u0 = kernel.drift_matrix_4state(0.0, params)
    a = u0 + traj.s4[:-1, None, None] * (kernel.drift_matrix_4state(1.0, params) - u0)
    h, s, m = np.diff(traj.t), traj.s4[:-1], traj.m[:-1]
    stages = [m]
    for frac in (0.5, 0.5, 1.0):
        stages.append(m + frac * h[:, None] * np.einsum("pij,pj->pi", a, stages[-1]))
    c = [fluid.instantaneous_cost(x.T, s, params) for x in stages]
    return float(np.sum(h / 6.0 * (c[0] + 2.0 * c[1] + 2.0 * c[2] + c[3])) - e_star * traj.t[-1])


def _rk4_oracle(traj, params, dt):
    """Switch times and bias integral of an RK4 threshold path.

    ``rk4_integrate`` shortens only the steps that end on a bisected event (a
    landing on the surface or a slide exit), so those give the switch
    times. The trapezoid prices each step at the control in effect during
    it, so a bang control switching at a landing is not averaged across
    that step.
    """
    shortened = np.flatnonzero(np.diff(traj.t[:-1]) < dt * (1.0 - 1e-9)) + 1
    times = list(traj.t[shortened])
    bang = np.isin(traj.s4[:-1], (0.0, 1.0))
    s_right = np.where(bang, traj.s4[:-1], traj.s4[1:])
    m = traj.m[1:]
    right = s_right * params.theta * params.n0 / (1.0 - params.theta * m[:, 3])
    right = right + params.lam * (m[:, 1] + m[:, 3])
    return times, float(np.sum(0.5 * np.diff(traj.t) * (traj.inst_cost[:-1] + right)))


class TestExactEngine:
    @pytest.mark.parametrize("rho, start, shift, optimal", ORACLE_CASES)
    def test_matches_rk4_on_controlled_paths(self, rho, start, shift, optimal):
        params = sec4_at(rho)
        rep = equilibrium.optimal_equilibrium(params)
        pi = policy.make_policy(params).pi + shift
        m0 = np.array(start) / np.sum(start)
        batch = fluid.threshold_bias_batch(
            m0, [pi], rep.E_star, rep.m_star, params, t_max=ORACLE_T
        )
        controller = policy.ThresholdPolicy(pi=pi, regime=rep.regime, pairing="test")
        traj = oracles.rk4_integrate(m0, controller, ORACLE_T, params, dt=ORACLE_DT)
        times, trapezoid = _rk4_oracle(traj, params, ORACLE_DT)
        switches = [when for when, _ in batch.switches[0]]
        assert 1 <= len(switches) == len(times)
        assert np.max(np.abs(np.array(switches) - times)) < 1e-6
        assert abs(batch.values[0] - (trapezoid - rep.E_star * ORACLE_T)) < ORACLE_VALUE_TOL
        assert batch.converged[0] == optimal

    @pytest.mark.parametrize("pi", [np.nan, np.inf, -np.inf])
    def test_threshold_not_finite_refused(self, sec4, pi):
        # NaN once gave the never-transmit value with converged False; -inf warned in
        # the rate's matmul. Finite thresholds outside [0, 1] still run.
        rep = equilibrium.optimal_equilibrium(sec4)
        with pytest.raises(ValueError, match=rf"thresholds must be finite, got \[{pi}\]"):
            fluid.threshold_bias_batch([0.25] * 4, [0.1, pi], rep.E_star, rep.m_star, sec4)
        batch = fluid.threshold_bias_batch([0.25] * 4, [-0.5, 1.5], rep.E_star, rep.m_star, sec4)
        assert np.isfinite(batch.values).all()

    def test_tails_price_the_settled_cost(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        m0 = np.array([0.55, 0.15, 0.2, 0.1])
        s_settled = (sec4.beta1 * sec4.rho / 0.3 - sec4.rho) / (sec4.beta1 * (1 - sec4.rho))
        gap = equilibrium.equilibrium_cost(s_settled, sec4) - rep.E_star
        runs = [
            fluid.threshold_bias_batch(m0, [tp.pi, 0.3], rep.E_star, rep.m_star, sec4, t_max)
            for t_max in (1e3, 1e5)
        ]
        for t_max, run in zip((1e3, 1e5), runs):
            assert list(run.converged) == [True, False]
            assert run.tails[0] == 0.0
            assert run.tails[1] == pytest.approx(gap * t_max, rel=1e-9)
        # the rest of a value, the bias relative to the settled cost, is free of t_max
        rest = [run.values - run.tails for run in runs]
        assert np.abs(rest[0] - rest[1]).max() < 1e-9

    def test_arc_cap(self, sec4, monkeypatch):
        rep = equilibrium.optimal_equilibrium(sec4)
        m0 = np.array([0.5868, 0.0235, 0.2749, 0.1148])  # slides, then leaves the surface
        monkeypatch.setattr(fluid, "_MAX_ARCS", 2)
        with pytest.raises(NonConvergent):
            fluid.threshold_bias_batch(m0, [0.08], rep.E_star, rep.m_star, sec4)

    def test_pair_batch_matches_single_start_batches(self, sec4):
        # one path per (start, threshold) pair against one batch per start
        rep = equilibrium.optimal_equilibrium(sec4)
        starts = np.random.default_rng(16).dirichlet(np.ones(4), size=6)
        taus = np.linspace(0.0, 0.42, 30)
        batch = fluid.threshold_bias_batch(
            np.repeat(starts, len(taus), axis=0), np.tile(taus, len(starts)),
            rep.E_star, rep.m_star, sec4,
        )
        for i, m0 in enumerate(starts):
            single = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, sec4)
            rows = slice(i * len(taus), (i + 1) * len(taus))
            assert np.array_equal(batch.values[rows], single.values)
            assert batch.switches[rows] == single.switches
            assert list(batch.converged[rows]) == list(single.converged)
            # a settled cost rate is one product per path: tails to the last bit,
            # whichever paths settle with it
            assert np.array_equal(batch.tails[rows], single.tails)
        alone = [
            fluid.threshold_bias_batch(starts[0], [tau], rep.E_star, rep.m_star, sec4).tails[0]
            for tau in taus
        ]
        assert np.array_equal(alone, batch.tails[: len(taus)])

    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_a_path_alone_has_its_batch_value(self, n0):
        # a step's cost is a sum per path, not a product over the batch, so no
        # value depends on which paths run with it, to the last bit
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        starts = np.random.default_rng(21).dirichlet(np.ones(4), size=6)
        taus = np.linspace(0.0, 0.45, 30)
        m0, tau = np.repeat(starts, len(taus), axis=0), np.tile(taus, len(starts))
        batch = fluid.threshold_bias_batch(m0, tau, rep.E_star, rep.m_star, params)
        alone = [
            fluid.threshold_bias_batch(m0[i], tau[i : i + 1], rep.E_star, rep.m_star, params)
            .values[0]
            for i in range(len(tau))
        ]
        assert np.array_equal(alone, batch.values)

    @pytest.mark.parametrize("n0", [1.0, 30.0])  # Active (settles off target), Passive
    def test_passive_path_at_beta1_settles_at_once(self, n0):
        # no switch, and its whole value is the passive arc's closed-form integral
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        m0 = np.array([0.3, 0.25, 0.2, 0.25])  # m4 below tau = beta1 = 0.4
        batch = fluid.threshold_bias_batch(m0, [params.beta1], rep.E_star, rep.m_star, params)
        assert batch.switches == [[]]
        # the integral of (cost - E_settled) along the closed form: composite 8-point
        # Gauss-Legendre on panels of width 1/2 to t = 400, where e^(-rho t) < 1e-17
        x, w = np.polynomial.legendre.leggauss(8)
        t = (0.5 * np.arange(800)[:, None] + 0.25 + 0.25 * x).ravel()
        m = oracles.passive_trajectory_closed_form(m0, t, params)
        settled = params.lam  # the passive equilibrium (0, 1 - beta1, 0, beta1) has m2 + m4 = 1
        integral = float(np.sum(np.tile(0.25 * w, 800) * (params.lam * (m[1] + m[3]) - settled)))
        assert batch.tails[0] == pytest.approx((settled - rep.E_star) * 1e5, rel=1e-12, abs=1e-9)
        assert batch.values[0] == pytest.approx(integral + batch.tails[0], rel=1e-10, abs=0.0)
        assert batch.values[0] - batch.tails[0] == pytest.approx(integral, rel=1e-10, abs=0.0)
        assert batch.converged[0] == (rep.regime == equilibrium.PASSIVE)

    def test_no_event_after_t_hard(self, sec4):
        # at the policy's threshold this path switches at t = 1.41 and converges: with
        # t_hard = 1 that event is not taken, and the path, still moving at t = 1, is
        # valued on its arc and not converged
        rep = equilibrium.optimal_equilibrium(sec4)
        pi = policy.make_policy(sec4).pi
        m0 = np.random.default_rng(14).dirichlet(np.ones(4), size=40)[2]
        full = fluid.threshold_bias_batch(m0, [pi], rep.E_star, rep.m_star, sec4)
        cut = fluid.threshold_bias_batch(m0, [pi], rep.E_star, rep.m_star, sec4, t_hard=1.0)
        assert full.converged[0] and 1.0 < full.switches[0][0][0] < 2.0
        assert cut.switches == [[]] and not cut.converged[0] and np.isfinite(cut.values[0])

    @pytest.mark.parametrize("below", [0.005, 0.05])
    def test_passive_path_below_beta1_still_switches(self, sec4, below):
        # below beta1 the passive flow can pass tau, so the settle rule must not apply:
        # the first switch is where the closed form's m4 meets tau (bisected here)
        rep = equilibrium.optimal_equilibrium(sec4)
        tau, m0 = sec4.beta1 - below, np.array([0.45, 0.2, 0.3, 0.05])
        batch = fluid.threshold_bias_batch(m0, [tau], rep.E_star, rep.m_star, sec4)
        lo, hi = 0.0, 1000.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            above = oracles.passive_trajectory_closed_form(m0, mid, sec4)[3] > tau
            lo, hi = (lo, mid) if above else (mid, hi)
        when, arc = batch.switches[0][0]
        assert arc != 0 and abs(when - hi) < 1e-9

    def test_pair_batch_refuses_a_nan_start(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        starts = np.array([[0.25, 0.25, 0.25, 0.25], [np.nan, 0.5, 0.25, 0.25]])
        with pytest.raises(NotADistribution, match="outside"):
            fluid.threshold_bias_batch(starts, [0.05, 0.1], rep.E_star, rep.m_star, sec4)


def _event_rows(traj, dt):
    """(time, arc entered) of each event row of a sampled path: a row off the grid
    t0 + k dt of the event before it (the last row is the horizon's)."""
    t0, events = traj.t[0], []
    for t, s in zip(traj.t[1:-1], traj.s4[1:-1]):
        if t != t0 + round((t - t0) / dt) * dt:
            t0 = t
            events.append((float(t), 0 if s == 0.0 else 1 if s == 1.0 else 2))
    return events


class TestSampler:
    @staticmethod
    def _assert_matches_rk4(m0, controller, params, dt=0.01):
        # row for row, but for the row RK4 writes a sliver short of the horizon: times
        # within 1e-9 (grid rows after an event take its time), states within 1e-9
        ours = fluid.integrate(m0, controller, ORACLE_T, params, dt=dt)
        rk4 = oracles.rk4_integrate(m0, controller, ORACLE_T, params, dt=dt)
        rows = np.append(np.diff(rk4.t) > 1e-9, True)
        assert len(ours.t) == rows.sum()
        assert np.abs(ours.t - rk4.t[rows]).max() < 1e-9
        assert np.abs(ours.m - rk4.m[rows]).max() < 1e-9
        assert np.abs(ours.s4 - rk4.s4[rows]).max() < 1e-8  # the same arcs
        return ours

    @pytest.mark.parametrize("rho, start, shift, optimal", ORACLE_CASES)
    def test_matches_rk4_on_controlled_paths(self, rho, start, shift, optimal):
        params = sec4_at(rho)
        pi = policy.make_policy(params).pi + shift
        controller = policy.ThresholdPolicy(pi=pi, regime="test", pairing="test")
        traj = self._assert_matches_rk4(np.array(start) / np.sum(start), controller, params)
        assert _event_rows(traj, 0.01)

    @pytest.mark.parametrize("s4", [0.0, 0.3, 1.0])
    def test_matches_rk4_on_constant_arcs(self, sec4, s4):
        traj = self._assert_matches_rk4(np.array([0.4, 0.3, 0.2, 0.1]), s4, sec4)
        assert np.all(traj.s4 == s4)

    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_events_are_the_engines(self, n0):
        # one event rule: the sampler's event rows are the exact engine's switches, run
        # to the same horizon, for the oracle cases' starts with thresholds around pi
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        starts = np.array([start for _, start, _, _ in ORACLE_CASES])
        starts /= starts.sum(axis=1, keepdims=True)
        taus = policy.make_policy(params).pi + np.array([-0.02, -0.008, -0.002, 0.0, 0.01, 0.05])
        m0, tau = np.repeat(starts, len(taus), axis=0), np.tile(taus, len(starts))
        batch = fluid.threshold_bias_batch(m0, tau, rep.E_star, rep.m_star, params,
                                           t_max=ORACLE_T, t_hard=ORACLE_T)
        events = 0
        for start, pi, switches in zip(m0, tau, batch.switches):
            controller = policy.ThresholdPolicy(pi=pi, regime="test", pairing="test")
            ours = _event_rows(fluid.integrate(start, controller, ORACLE_T, params, dt=0.1), 0.1)
            assert [arc for _, arc in ours] == [arc for _, arc in switches]
            gaps = np.subtract([t for t, _ in ours], [t for t, _ in switches])
            assert np.all(np.abs(gaps) < 1e-10)
            events += len(ours)
        assert events > 30

    def test_arc_cap(self, sec4, monkeypatch):
        # the walk's cap holds for the sampler as for the engine
        pi = policy.make_policy(sec4).pi
        controller = policy.ThresholdPolicy(pi=pi + 0.01, regime="test", pairing="test")
        m0 = np.array([0.25, 0.25, 0.25, 0.25])  # active, then slides off the optimum
        assert _event_rows(fluid.integrate(m0, controller, ORACLE_T, sec4, dt=0.1), 0.1)
        monkeypatch.setattr(fluid, "_MAX_ARCS", 1)
        with pytest.raises(NonConvergent, match="exceeded 1 arcs"):
            fluid.integrate(m0, controller, ORACLE_T, sec4, dt=0.1)

    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_slide_duty_is_the_clipped_equivalent_control(self, n0):
        # on the slide m4 = tau, so phi0 / (phi0 - phi1) = phi0 / (beta1 (1 - rho) tau):
        # the two forms of the duty cycle agree to rounding on every slide row
        params = sec4_at(0.1, n0=n0)
        system = fluid._FluidSystem(params)
        starts = np.array([start for _, start, _, _ in ORACLE_CASES])
        starts /= starts.sum(axis=1, keepdims=True)
        taus = policy.make_policy(params).pi + np.array([-0.02, -0.008, -0.002, 0.0, 0.01])
        rows = 0
        for start, pi in itertools.product(starts, taus):
            controller = policy.ThresholdPolicy(pi=pi, regime="test", pairing="test")
            traj = fluid.integrate(start, controller, ORACLE_T, params, dt=0.01)
            slide = (traj.s4 != 0.0) & (traj.s4 != 1.0)  # a bang arc's control is 0 or 1
            assert np.all(traj.m[slide, 3] == pi)
            duty = oracles.clipped_equivalent_control(system, traj.m[slide])
            assert np.abs(traj.s4[slide] - duty).max(initial=0.0) <= 1e-15
            rows += slide.sum()
        assert rows > 10_000


class TestArcStacks:
    def test_a_row_alone_has_its_stack_bits(self, sec4):
        # products with a state are sums per row: numpy's matmul rounds a row of a
        # (50, 4) @ (4,) product differently with the height of the stack. Near the
        # Active optimum on the surface phi1 is rounding noise, so land's arc and the
        # slide's exits turn on those bits
        system = fluid._FluidSystem(sec4)
        tau = policy.make_policy(sec4).pi
        rng = np.random.default_rng(24)
        near = rng.normal(size=(20, 50, 4))
        near = np.array(equilibrium.optimal_equilibrium(sec4).m_star) + 1e-16 * (
            near - near.mean(axis=-1, keepdims=True))
        slide = np.full(50, 2)
        for m in np.concatenate([near, rng.dirichlet(np.ones(4), size=(20, 50))]):
            landed, arcs = system.land(m, tau)
            taus = np.full(50, tau)
            began, first = system.start(m, taus)
            duty = system.control(m, slide, taus)
            off = oracles.crossed(system, m, slide, tau)
            for i, row in enumerate(m):
                alone, arc = system.land(row, tau)
                assert np.array_equal(alone, landed[i]) and arc == arcs[i]
                alone, arc = system.start(row[None], taus[:1])
                assert np.array_equal(alone[0], began[i]) and arc[0] == first[i]
                assert system.control(row, 2, tau) == duty[i]
                assert oracles.crossed(system, row, 2, tau) == off[i]

    @pytest.mark.parametrize("kind", ["bang", "slide", "mixed"])
    @pytest.mark.parametrize("points", [None, 9])  # (paths, 4) and (paths, points, 4) stacks
    def test_crossed_matches_the_two_test_form(self, sec4, kind, points):
        system = fluid._FluidSystem(sec4)
        rng = np.random.default_rng(18)
        shape = (200,) if points is None else (200, points)
        m = rng.dirichlet(np.ones(4), size=shape)
        lead = (200,) if points is None else (200, 1)
        tau = rng.uniform(0.0, 0.5, size=lead)
        arc = {"bang": rng.integers(0, 2, lead), "slide": np.full(lead, 2),
               "mixed": rng.integers(0, 3, lead)}[kind]
        off = (m @ system.exits > np.abs(m) @ system.exit_slack).any(axis=-1)
        want = np.where(arc == 2, off, (m[..., 3] > tau) != (arc == 1))
        assert want.any() and not want.all()
        got = oracles.crossed(system, m, arc, tau)
        assert got.shape == want.shape and np.array_equal(got, want)


def _audit_pairs(params, starts):
    """Each start with each audit threshold: the grid {0, 0.005, ..., beta1 + 0.005}
    and the two pairing thresholds."""
    grid = np.arange(int(np.floor(params.beta1 / 0.005)) + 2) * 0.005
    pis = [policy.make_policy(params, pairing).pi
           for pairing in (policy.PROP3_CONSISTENT, policy.PAPER_LITERAL)]
    taus = np.concatenate([grid, pis])
    return np.repeat(starts, len(taus), axis=0), np.tile(taus, len(starts))


def _assert_engines_agree(new, old, taus, slow=()):
    """The same arcs and converged flags, values within 1e-9 max(1, |v|), event
    times within 1e-9, or 1e-4 on the paths in ``slow``. Returns the event count."""
    events = 0
    for i, (ours, theirs) in enumerate(zip(new.switches, old.switches, strict=True)):
        assert [arc for _, arc in ours] == [arc for _, arc in theirs]
        times = np.array([when for when, _ in ours]) - [when for when, _ in theirs]
        assert np.all(np.abs(times) <= (1e-4 if i in slow else 1e-9)), (i, taus[i], ours, theirs)
        events += len(ours)
    gap = np.abs(new.values - old.values) / np.maximum(1.0, np.abs(old.values))
    assert gap.max() <= 1e-9
    assert list(new.converged) == list(old.converged)
    return events


def _settled_at_a_switch(params, m0, tau, switches):
    """Per switch, the L1 distance of the state just before it from the equilibrium of
    the arc it leaves, propagated by the oracle's exp(A t) from the start."""
    system = fluid._FluidSystem(params)
    b0, b1 = params.beta
    bang = [equilibrium.equilibrium_measure(s, params) for s in (0.0, 1.0)]
    slide = np.array([b0 * (b1 - tau) / b1, b0 * tau / b1, b1 - tau, tau])
    if abs(m0[3] - tau) <= fluid._SURFACE_TOL:
        m, arc = system.land(m0, tau)
    else:
        m, arc = m0, int(m0[3] > tau)
    t, dists = 0.0, []
    for when, new in switches:
        m = oracles._expm(system.gens[arc] * (when - t)) @ m
        dists.append(np.abs(m - (slide if arc == 2 else bang[arc])).sum())
        (m, _), arc, t = system.land(m, tau), new, when
    return dists


class TestEventSearch:
    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_matches_the_stepped_engine_on_the_audit_grid(self, n0):
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        # one pair batch per engine: each of 40 seeded starts with each of 84 thresholds
        m0, taus = _audit_pairs(params, np.random.default_rng(14).dirichlet(np.ones(4), size=40))
        assert len(taus) == 40 * 84
        new = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
        old = oracles.stepped_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
        assert _assert_engines_agree(new, old, taus) > 1000

    @pytest.mark.parametrize("beta1", [1.0, 1.0 - 1e-9])
    def test_matches_the_stepped_engine_near_beta1_one(self, beta1):
        # at beta1 = 1 U(1) has a triple eigenvalue -1 and is defective; the arc form
        # needs no eigenvectors, so it holds there and next to it
        params = ModelParams.good_bad(theta=0.2, beta1=beta1, rho=0.1, lam=1.5, n0=1.0)
        rep = equilibrium.optimal_equilibrium(params)
        start = np.random.default_rng(0).dirichlet(np.ones(4))  # the CLI's first audit start
        m0, taus = _audit_pairs(params, start[None])
        new = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
        old = oracles.stepped_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
        # a threshold within 1e-10 of the active equilibrium's m4 is met at a slope
        # below 1e-10, so 1e-16 of rounding in m4 moves that event by up to 1e-5:
        # tau = 0.1 at beta1 = 1 - 1e-9 (at beta1 = 1 it is m4_active, never met)
        slow = np.flatnonzero(np.abs(taus - equilibrium.m4_active(params)) < 1e-10)
        assert _assert_engines_agree(new, old, taus, slow=set(slow.tolist())) > 100

    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_no_switch_once_settled_and_none_twice_at_once(self, n0):
        # a root found past the settle tolerance is rounding (Active pi paths once
        # met tau at t ~ 1600); a path just landed on tau must not cross it again
        # at the landing time
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        starts = np.random.default_rng(14).dirichlet(np.ones(4), size=40)
        m0, taus = _audit_pairs(params, starts)
        # and a threshold one ulp either side of the active equilibrium's m4, which an
        # active arc settling from above meets only at rounding level
        m4 = equilibrium.m4_active(params)
        m0 = np.concatenate([m0, starts, starts])
        taus = np.concatenate([taus, np.full(40, np.nextafter(m4, 0.0)),
                               np.full(40, np.nextafter(m4, 1.0))])
        batch = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
        closest = np.inf
        for start, tau, switches in zip(m0, taus, batch.switches):
            times = [when for when, _ in switches]
            assert len(set(times)) == len(times)
            if switches:
                closest = min(closest, *_settled_at_a_switch(params, start, tau, switches))
        assert closest > fluid._SETTLE_TOL

    def test_bracket_closes_on_the_first_crossing(self):
        # rows of g(s) = h - e^-s (v1 + v2 / lam) - psi(s) v2 / lam, which turns once:
        # 0 and 2 (lam = 1) rise past 0 and fall back, crossing twice; 1 starts on
        # the threshold (g0 = 0), dips, then crosses once; 3 is 1 with its crossing
        # past its span, 4 is 0 with its span before the first crossing
        lam = np.array([0.3, 0.3, 1.0, 0.3, 0.3])
        v1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        v2 = np.array([-0.1, 1.0, -0.3, 1.0, -0.1])
        h = np.array([-0.05, -1.0 + 1.0 / 0.3, -0.005, -1.0 + 1.0 / 0.3, -0.05])
        span = np.array([50.0, 50.0, 50.0, 1.0, 0.2])

        def g(s, i):
            d = 1.0 - lam[i]
            psi = s * np.exp(-s) if d == 0.0 else (np.exp(-lam[i] * s) - np.exp(-s)) / d
            return h[i] - np.exp(-s) * (v1[i] + v2[i] / lam[i]) - psi * v2[i] / lam[i]

        g0 = np.array([g(0.0, i) for i in range(len(h))])
        g0[[1, 3]] = 0.0
        got = fluid._bang_event(g0, h, v1, v2, lam, span)
        for i in range(len(h)):
            s = np.linspace(0.0, span[i], 200_001)[1:]
            up = np.flatnonzero(g(s, i) > 0.0)
            if not up.size:
                assert got[i] == np.inf
                continue
            lo, hi = s[up[0] - 1], s[up[0]]  # the scan's first crossing, bisected
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if g(mid, i) > 0.0 else (mid, hi)
            assert abs(got[i] - hi) < 1e-12
        assert np.isfinite(got[:3]).all() and got[3] == got[4] == np.inf
        assert g(10.0, 0) < 0.0 and g(10.0, 2) < 0.0  # back below: the second crossing


def _stagewise(m0, control_of, horizon, params, dt):
    """The plain loop ``oracles.rk4_integrate`` batches: one stage-wise RK4 step at a time on
    dm/dt = U(s) m, with s = control_of(stage state)."""
    u0 = kernel.drift_matrix_4state(0.0, params)
    du = kernel.drift_matrix_4state(1.0, params) - u0
    rhs = lambda x: u0 @ x + control_of(x) * (du @ x)
    m, t, ts, ms = np.asarray(m0, dtype=float), 0.0, [0.0], [m0]
    while t < horizon - 1e-15:
        h = min(dt, horizon - t)
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * h * k1)
        k3 = rhs(m + 0.5 * h * k2)
        k4 = rhs(m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = m / m.sum()
        t += h
        ts.append(t)
        ms.append(m)
    return np.array(ts), np.array(ms)


class TestStepMatrices:
    # longer than two chunks, so the steps run as two full chunks, a partial
    # one and a last step shortened to the horizon
    HORIZON = 6.0

    @pytest.mark.parametrize("s4", [0.0, 1.0, 0.3])
    def test_constant_arcs_match_stagewise_loop(self, sec4, s4):
        assert self.HORIZON > 2 * oracles._CHUNK * 0.01
        m0 = np.array([0.4, 0.3, 0.2, 0.1])
        traj = oracles.rk4_integrate(m0, s4, self.HORIZON, sec4, dt=0.01)
        t, m = _stagewise(m0, lambda m: s4, self.HORIZON, sec4, 0.01)
        assert np.array_equal(traj.t, t)
        assert np.abs(traj.m - m).max() < 1e-13
        assert np.all(traj.s4 == s4)

    def test_sliding_arc_matches_stagewise_loop(self):
        params = sec4_at(0.05)  # Interior regime: the optimum slides on m4 = pi
        rep = equilibrium.optimal_equilibrium(params)
        tp = policy.make_policy(params)
        m0 = np.array(rep.m_star) + np.array([0.01, -0.01, 0.0, 0.0])  # on the surface
        system = fluid._FluidSystem(params)
        duty = lambda m: oracles.clipped_equivalent_control(system, m)
        traj = oracles.rk4_integrate(m0, tp, self.HORIZON, params, dt=0.01)
        t, m = _stagewise(m0, duty, self.HORIZON, params, 0.01)
        assert np.abs(m[:, 3] - tp.pi).max() < 1e-15  # the reference stays on the slide
        assert np.all((duty(m) > 0.0) & (duty(m) < 1.0))
        assert np.array_equal(traj.t, t)
        assert np.abs(traj.m - m).max() < 1e-13
        assert np.abs(traj.s4 - duty(m)).max() < 1e-13

    def test_slide_holds_the_surface(self):
        # the slide's m4 row is zero and every R^k conserves mass, so dividing the
        # states of a chunk by their sums leaves m4 where the stage-wise loop holds it
        params = sec4_at(0.1, n0=5.0)  # Interior; without the mass fix m4 drifts here
        tp = policy.make_policy(params)
        traj = oracles.rk4_integrate([0.25] * 4, tp, 5000.0, params)
        on = np.abs(traj.m[:, 3] - tp.pi) <= 1e-9
        assert on.sum() > 490_000 and np.abs(traj.m[on, 3] - tp.pi).max() < 1e-14

    @pytest.mark.parametrize("rho, start, shift, optimal", ORACLE_CASES)
    def test_threshold_events_match_stagewise_driver(
        self, rho, start, shift, optimal, monkeypatch
    ):
        # landings and slide exits: the chunks stop where ``rk4_integrate`` driven one step
        # at a time (_CHUNK = 1) has its events, to the same clock
        params = sec4_at(rho)
        rep = equilibrium.optimal_equilibrium(params)
        pi = policy.make_policy(params).pi + shift
        controller = policy.ThresholdPolicy(pi=pi, regime=rep.regime, pairing="test")
        m0 = np.array(start) / np.sum(start)
        traj = oracles.rk4_integrate(m0, controller, 20.0, params)
        monkeypatch.setattr(oracles, "_CHUNK", 1)
        single = oracles.rk4_integrate(m0, controller, 20.0, params)
        assert np.array_equal(traj.t, single.t)
        assert np.abs(traj.m - single.m).max() < 1e-13
        # each path has a landing (a shortened step) or starts on a slide that it leaves
        assert np.diff(traj.t).min() < 0.01 * (1 - 1e-9) or 0.0 < traj.s4[0] < 1.0

    def test_chunks_run_at_an_optimum_on_the_surface(self, sec4, monkeypatch):
        # Active regime: the optimum sits on m4 = pi with duty cycle 1, so phi1 there
        # is rounding noise of either sign; the slide's chunks must still hold
        steps = []
        event_step = oracles._event_step
        monkeypatch.setattr(oracles, "_event_step", lambda *a: steps.append(1) or event_step(*a))
        m0 = np.array([0.349771, 0.02916308, 0.53508528, 0.08598064])
        traj = oracles.rk4_integrate(m0 / m0.sum(), policy.make_policy(sec4), 100.0, sec4)
        on = np.abs(traj.m[:, 3] - policy.make_policy(sec4).pi) <= 1e-9
        assert on[-5000:].all() and len(steps) <= 5

    @pytest.mark.parametrize(
        "name, entry",
        [("passive", "-8.000e-03"), ("active", "-2.215e-02"), ("threshold", "-2.215e-02")],
    )
    def test_large_steps_fail_loudly(self, sec4, name, entry):
        # at dt = 3 the first RK4 step, inside the first chunk, leaves the simplex
        controller = {
            "passive": 0.0,
            "active": 1.0,
            "threshold": policy.make_policy(sec4),
        }[name]
        with pytest.raises(oracles.StepTooLarge, match=f"min entry {entry}"):
            oracles.rk4_integrate([0.25] * 4, controller, 50.0, sec4, dt=3.0)

    def test_callable_switch_inside_chunk(self, sec4):
        # a threshold: passive below the level, active above it; the active flow then
        # settles at m4 = 0.087 > level, so the path switches once
        level = 0.06
        m0 = np.array([0.5, 0.3, 0.18, 0.02])
        tp = policy.ThresholdPolicy(pi=level, regime="test", pairing="test")
        traj = oracles.rk4_integrate(m0, tp, 10.0, sec4)
        first = int(np.argmax(traj.s4 == 1.0))
        assert 10 < first < oracles._CHUNK and np.all(traj.s4[:first] == 0.0)
        lo, hi = 0.0, traj.t[first] + 1.0  # passive closed form: m4 crosses the level once
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if oracles.passive_trajectory_closed_form(m0, mid, sec4)[3] > level:
                hi = mid
            else:
                lo = mid
        assert abs(traj.t[first] - lo) < 1e-8


def _joined_rows(rows):
    """The per-value writer the CSV writers replaced (ints as ints, floats %.12g)."""
    return "".join(
        ",".join(f"{x:.12g}" if isinstance(x, float) else str(int(x)) for x in row) + "\n"
        for row in rows
    )


class TestCsvWriters:
    def test_trajectory_bytes(self, sec4, tmp_path):
        traj = fluid.integrate([0.25] * 4, policy.make_policy(sec4), 50.0, sec4)
        assert len(traj.t) > 4096  # crosses a block of the writer
        path = tmp_path / "fluid.csv"
        traj.to_csv(path)
        rows = [[t, *m, s, c] for t, m, s, c in zip(traj.t, traj.m, traj.s4, traj.inst_cost)]
        assert path.read_text() == "t,m1,m2,m3,m4,s4,inst_cost\n" + _joined_rows(rows)

    def test_simulation_bytes(self, sec4, tmp_path):
        tp = policy.make_policy(sec4)
        sim = finite.simulate(lambda c: policy.apply_finite(tp, c, 5), sec4, 5, 5000, seed=3)
        path = tmp_path / "sim.csv"
        sim.to_csv(path)
        rows = [
            [t, *n, a, c] for t, (n, a, c) in enumerate(zip(sim.measures, sim.actions, sim.costs))
        ]
        assert path.read_text() == "t,n1,n2,n3,n4,action,cost\n" + _joined_rows(rows)
