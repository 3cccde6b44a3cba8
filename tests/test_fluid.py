import numpy as np
import pytest

from conftest import random_simplex, sec4_at
from powerctl import equilibrium, fluid, kernel, policy
from powerctl.errors import NonConvergent


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

    def test_general_form_matches(self, sec4):
        rng = np.random.default_rng(2)
        m = random_simplex(rng)
        assert fluid.discrete_step_general(m, np.array([0, 0, 0, 0.3]), sec4) == pytest.approx(
            fluid.discrete_step(m, 0.3, sec4), abs=1e-15
        )


class TestPassiveClosedForm:
    def test_initial_condition(self, sec4):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m0 = random_simplex(rng)
            assert fluid.passive_trajectory_closed_form(m0, 0.0, sec4) == pytest.approx(
                m0, abs=1e-14
            )

    def test_long_run_limit(self, sec4):
        rng = np.random.default_rng(4)
        m0 = random_simplex(rng)
        assert fluid.passive_trajectory_closed_form(m0, 200.0, sec4) == pytest.approx(
            [0.0, 0.6, 0.0, 0.4], abs=1e-8
        )

    def test_derivative_matches_drift(self, sec4):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            m0 = random_simplex(rng)
            fd = (
                fluid.passive_trajectory_closed_form(m0, h, sec4)
                - fluid.passive_trajectory_closed_form(m0, 0.0, sec4)
            ) / h
            assert fd == pytest.approx(kernel.drift_vector(m0, 0, sec4), abs=1e-5)


class TestIntegrate:
    def test_constant_at_passive_equilibrium(self, sec4):
        traj = fluid.integrate([0.0, 0.6, 0.0, 0.4], lambda m: 0.0, 3.0, sec4)
        assert np.abs(traj.m - traj.m[0]).max() < 1e-12
        assert np.all(traj.s4 == 0.0)

    def test_matches_closed_form(self, sec4):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m0 = random_simplex(rng)
            traj = fluid.integrate(m0, lambda m: 0.0, 5.0, sec4, dt=0.01)
            for t_ref in (0.5, 1.0, 2.0, 5.0):
                i = int(np.argmin(np.abs(traj.t - t_ref)))
                assert abs(traj.t[i] - t_ref) < 1e-9
                ref = fluid.passive_trajectory_closed_form(m0, t_ref, sec4)
                assert np.abs(traj.m[i] - ref).max() < 1e-6

    def test_fourth_order_convergence(self, sec4):
        m0 = np.array([0.4, 0.3, 0.2, 0.1])
        ref = fluid.passive_trajectory_closed_form(m0, 2.0, sec4)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            traj = fluid.integrate(m0, lambda m: 0.0, 2.0, sec4, dt=dt)
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

    def test_csv_round_trip(self, sec4, tmp_path):
        traj = fluid.integrate([0.25] * 4, lambda m: 1.0, 1.0, sec4)
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

    def test_detour_costs(self, sec4):
        # start at the optimal point but force a passive excursion first;
        # queues overfill and the return trip costs extra
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        switched = {"done": False}

        def detour(m):
            if not switched["done"]:
                if m[3] <= 0.2:
                    return 0.0
                switched["done"] = True
            return policy.apply_fluid(tp, m)

        val = fluid.bias_cost(np.array(rep.m_star), detour, rep.E_star, sec4)
        assert val > 0.0

    def test_dt_invariance(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        m0 = np.array([0.55, 0.15, 0.2, 0.1])
        coarse = fluid.bias_cost(m0, tp, rep.E_star, sec4, dt=0.01)
        fine = fluid.bias_cost(m0, tp, rep.E_star, sec4, dt=0.005)
        assert abs(coarse - fine) < 1e-6

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
    def test_passive_is_holding_cost(self, sec4):
        assert fluid.instantaneous_cost([0.0, 0.6, 0.0, 0.4], 0.0, sec4) == pytest.approx(
            1.5
        )

    def test_active_adds_power(self, sec4):
        m = [0.2, 0.2, 0.2, 0.4]
        expected = 0.2 / (1 - 0.2 * 0.4) + 1.5 * 0.6
        assert fluid.instantaneous_cost(m, 1.0, sec4) == pytest.approx(expected)


# The exact engine against RK4 ``integrate`` on controlled paths. Horizon T:
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


def _rk4_oracle(traj, pi, params, dt):
    """Switch times and bias integral of an RK4 threshold path.

    ``integrate`` shortens only the steps that end on a bisected landing, so
    those give the landing times; a slide exit is where the duty cycle on
    the surface reaches 0 or 1, found from a cubic through the last four
    sliding samples. The trapezoid prices each step at the control in
    effect during it, so a bang control switching at a landing is not
    averaged across that step.
    """
    raw = traj.m @ kernel.drift_matrix_4state(0.0, params)[3]
    raw = raw / (params.beta1 * (1.0 - params.rho) * pi)
    times = []
    for i in range(1, len(traj.t) - 1):
        if traj.t[i] - traj.t[i - 1] < dt * (1.0 - 1e-9):
            times.append(traj.t[i])
        elif 0.0 < traj.s4[i - 1] < 1.0 and traj.s4[i] in (0.0, 1.0):
            k = slice(i - 4, i)
            coef = np.polyfit(traj.t[k] - traj.t[i - 1], raw[k] - traj.s4[i], 3)
            roots = [r.real for r in np.roots(coef) if abs(r.imag) < 1e-12]
            times.append(traj.t[i - 1] + min(r for r in roots if -1e-12 <= r <= dt))
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
        traj = fluid.integrate(m0, controller, ORACLE_T, params, dt=ORACLE_DT)
        times, trapezoid = _rk4_oracle(traj, pi, params, ORACLE_DT)
        switches = [when for when, _ in batch.switches[0]]
        assert 1 <= len(switches) == len(times)
        assert np.max(np.abs(np.array(switches) - times)) < 1e-6
        assert abs(batch.values[0] - (trapezoid - rep.E_star * ORACLE_T)) < ORACLE_VALUE_TOL
        assert batch.converged[0] == optimal

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
