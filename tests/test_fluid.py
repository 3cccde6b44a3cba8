import time

import numpy as np
import pytest

from conftest import random_simplex, sec4_at
from powerctl import equilibrium, finite, fluid, kernel, policy
from powerctl.errors import NonConvergent, StepTooLarge


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

    @pytest.mark.parametrize(
        "pick",
        [lambda m: 1.0 if m[3] > 0.2 else 0.0, lambda m: min(1.0, 5.0 * m[3])],
        ids=["attracting-switch", "continuous"],
    )
    def test_callable_without_sliding_mode_raises(self, sec4, pick):
        # the flow pushes m4 back across the switch at once, or the value changes
        # on every step: a callable has no sliding mode, so each must fail fast
        calls = []

        def budgeted(m):
            calls.append(1)
            assert len(calls) < 10_000, "still stepping after 10,000 policy calls"
            return pick(m)

        start = time.perf_counter()
        with pytest.raises(NonConvergent):
            fluid.integrate([0.5, 0.3, 0.15, 0.05], budgeted, 10.0, sec4)
        assert time.perf_counter() - start < 1.0

    def test_switch_at_the_horizon_ends_on_it(self, sec4):
        # a switch bisected within 1e-10 of the horizon lands inside the last step
        pick = lambda m: 1.0 if m[3] > 0.06 else 0.0
        m0 = [0.5, 0.3, 0.18, 0.02]
        traj = fluid.integrate(m0, pick, 1.0, sec4)
        landing = traj.t[np.argmax(traj.s4 == 1.0)]  # within 1e-10 past the crossing
        for horizon in landing - np.linspace(0.0, 1.2e-10, 25):
            assert fluid.integrate(m0, pick, horizon, sec4).t[-1] == horizon

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

    def test_callable_matches_exact_engine(self, sec4):
        # the threshold as a callable: passive, then one switch to active, no slide. Its
        # RK4 steps are priced from their stage states; the exact engine has no step
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        for m0 in ([0.1, 0.4, 0.45, 0.05], [0.7, 0.1, 0.15, 0.05]):
            exact = fluid.bias_cost(np.array(m0), tp, rep.E_star, sec4)
            pick = lambda m: policy.apply_fluid(tp, m)
            assert abs(fluid.bias_cost(np.array(m0), pick, rep.E_star, sec4) - exact) < 1e-8

    def test_callable_reuses_full_step_matrices(self, sec4, monkeypatch):
        # the values recorded when every step rebuilt its step matrices, bit for bit:
        # reusing the full-dt matrices of U(s) changes no digit. A path with one
        # switch builds them once per value of s, plus those of its bisection
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        pick = lambda m: policy.apply_fluid(tp, m)
        build = fluid._FluidSystem.step_matrices
        builds = []

        def counted(*args, **kwargs):
            builds.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(fluid._FluidSystem, "step_matrices", staticmethod(counted))
        for m0, recorded in (
            ([0.1, 0.4, 0.45, 0.05], 1.1479736450678613),  # 4,932 steps
            ([0.7, 0.1, 0.15, 0.05], -0.1905208029331337),
        ):
            builds.clear()
            assert fluid.bias_cost(np.array(m0), pick, rep.E_star, sec4) == recorded
            assert builds.count(0.01) == 2
            assert len(builds) <= 40

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


def _rk4_oracle(traj, params, dt):
    """Switch times and bias integral of an RK4 threshold path.

    ``integrate`` shortens only the steps that end on a bisected event (a
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
        traj = fluid.integrate(m0, controller, ORACLE_T, params, dt=ORACLE_DT)
        times, trapezoid = _rk4_oracle(traj, params, ORACLE_DT)
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


def _ladder_bracket(gens, arc, m, h, crossed):
    """The bisection ladder on the engine's event grid: one level per bit, each
    moving the bracket's left end to its midpoint when that is not crossed.
    The oracle of ``fluid._event_bracket``, with the same signature."""
    levels = h / 2.0 ** np.arange(1, np.ceil(np.log2(h / fluid._EVENT_TIME_TOL)) + 1)
    ladder = fluid._propagators(gens, tuple(levels))
    lo = np.zeros(len(m))
    for k, dk in enumerate(levels):
        cand = np.einsum("pij,pj->pi", ladder[arc, k], m)
        ok = ~crossed(cand[:, None])[:, 0]
        lo, m = lo + dk * ok, np.where(ok[:, None], cand, m)
    return lo, levels[-1], m, np.einsum("pij,pj->pi", ladder[arc, -1], m)


class TestEventSearch:
    @pytest.mark.parametrize("n0", [1.0, 5.0])  # Active, Interior
    def test_matches_the_bisection_ladder_on_the_audit_grid(self, n0, monkeypatch):
        params = sec4_at(0.1, n0=n0)
        rep = equilibrium.optimal_equilibrium(params)
        grid = np.arange(int(np.floor(params.beta1 / 0.005)) + 2) * 0.005
        pis = [policy.make_policy(params, pairing).pi
               for pairing in (policy.PROP3_CONSISTENT, policy.PAPER_LITERAL)]
        taus = np.concatenate([grid, pis])
        assert len(taus) == 84
        events = 0
        for m0 in np.random.default_rng(14).dirichlet(np.ones(4), size=40):
            new = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
            with monkeypatch.context() as patch:
                patch.setattr(fluid, "_event_bracket", _ladder_bracket)
                old = fluid.threshold_bias_batch(m0, taus, rep.E_star, rep.m_star, params)
            for ours, theirs in zip(new.switches, old.switches):
                assert [arc for _, arc in ours] == [arc for _, arc in theirs]
                times = np.array([when for when, _ in ours]) - [when for when, _ in theirs]
                assert np.all(np.abs(times) <= 1e-10)
                events += len(ours)
            np.testing.assert_allclose(new.values, old.values, rtol=1e-9, atol=0.0)
            assert list(new.converged) == list(old.converged)
        assert events > 1000

    def test_bracket_closes_on_the_first_crossing(self):
        # a clock: exp(A t) (1, 0, 0, 0) = (1, 0, 0, t) exactly, as A A = 0
        clock = np.zeros((1, 4, 4))
        clock[0, 3, 0] = 1.0
        gens, h = clock.tobytes(), 1.0
        first = fluid._grid_tables(gens, h)[0][0]  # the first round's span
        # per path, two windows of t in which it is crossed; the first crossing is at [:, 0, 0]
        windows = np.array([
            [[0.3, 2.0], [3.0, 3.0]],  # one crossing, then crossed to the step's end
            [[0.5 * first, 1.5 * first], [0.9, 2.0]],  # crossed, clear again, crossed
            [[1e-11, 2.0], [3.0, 3.0]],  # in the first grid cell
            [[1.0 - 1e-11, 2.0], [3.0, 3.0]],  # in the last grid cell
        ])

        def crossed(x):
            t = x[..., 3, None]
            return ((t > windows[:, None, :, 0]) & (t < windows[:, None, :, 1])).any(axis=-1)

        m = np.tile([1.0, 0.0, 0.0, 0.0], (len(windows), 1))
        lo, delta, m_lo, m_far = fluid._event_bracket(gens, np.zeros(len(m), int), m, h, crossed)
        assert 0.0 < delta <= fluid._EVENT_TIME_TOL
        assert np.array_equal(m_lo[:, 3], lo) and np.array_equal(m_far[:, 3], lo + delta)
        assert not crossed(m_lo[:, None]).any() and crossed(m_far[:, None]).all()
        assert np.all((lo <= windows[:, 0, 0]) & (windows[:, 0, 0] < lo + delta))


def _stagewise(m0, control_of, horizon, params, dt):
    """The plain loop ``integrate`` batches: one stage-wise RK4 step at a time on
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
        assert self.HORIZON > 2 * fluid._CHUNK * 0.01
        m0 = np.array([0.4, 0.3, 0.2, 0.1])
        traj = fluid.integrate(m0, lambda m: s4, self.HORIZON, sec4, dt=0.01)
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
        duty = system.clipped_equivalent_control
        traj = fluid.integrate(m0, tp, self.HORIZON, params, dt=0.01)
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
        traj = fluid.integrate([0.25] * 4, tp, 5000.0, params)
        on = np.abs(traj.m[:, 3] - tp.pi) <= 1e-9
        assert on.sum() > 490_000 and np.abs(traj.m[on, 3] - tp.pi).max() < 1e-14

    @pytest.mark.parametrize("rho, start, shift, optimal", ORACLE_CASES)
    def test_threshold_events_match_stagewise_driver(
        self, rho, start, shift, optimal, monkeypatch
    ):
        # landings and slide exits: the chunks stop where ``integrate`` driven one step
        # at a time (_CHUNK = 1) has its events, to the same clock
        params = sec4_at(rho)
        rep = equilibrium.optimal_equilibrium(params)
        pi = policy.make_policy(params).pi + shift
        controller = policy.ThresholdPolicy(pi=pi, regime=rep.regime, pairing="test")
        m0 = np.array(start) / np.sum(start)
        traj = fluid.integrate(m0, controller, 20.0, params)
        monkeypatch.setattr(fluid, "_CHUNK", 1)
        single = fluid.integrate(m0, controller, 20.0, params)
        assert np.array_equal(traj.t, single.t)
        assert np.abs(traj.m - single.m).max() < 1e-13
        # each path has a landing (a shortened step) or starts on a slide that it leaves
        assert np.diff(traj.t).min() < 0.01 * (1 - 1e-9) or 0.0 < traj.s4[0] < 1.0

    def test_chunks_run_at_an_optimum_on_the_surface(self, sec4, monkeypatch):
        # Active regime: the optimum sits on m4 = pi with duty cycle 1, so phi1 there
        # is rounding noise of either sign; the slide's chunks must still hold
        steps = []
        event_step = fluid._event_step
        monkeypatch.setattr(fluid, "_event_step", lambda *a: steps.append(1) or event_step(*a))
        m0 = np.array([0.349771, 0.02916308, 0.53508528, 0.08598064])
        traj = fluid.integrate(m0 / m0.sum(), policy.make_policy(sec4), 100.0, sec4)
        on = np.abs(traj.m[:, 3] - policy.make_policy(sec4).pi) <= 1e-9
        assert on[-5000:].all() and len(steps) <= 5

    @pytest.mark.parametrize(
        "name, entry",
        [("passive", "-8.000e-03"), ("active", "-2.215e-02"), ("threshold", "-2.215e-02")],
    )
    def test_large_steps_fail_loudly(self, sec4, name, entry):
        # at dt = 3 the first RK4 step, inside the first chunk, leaves the simplex
        controller = {
            "passive": lambda m: 0.0,
            "active": lambda m: 1.0,
            "threshold": policy.make_policy(sec4),
        }[name]
        with pytest.raises(StepTooLarge, match=f"min entry {entry}"):
            fluid.integrate([0.25] * 4, controller, 50.0, sec4, dt=3.0)

    def test_callable_switch_inside_chunk(self, sec4):
        # passive below the level, active above it; the active flow then settles at
        # m4 = 0.087 > level, so the path switches once
        level = 0.06
        m0 = np.array([0.5, 0.3, 0.18, 0.02])
        traj = fluid.integrate(m0, lambda m: 1.0 if m[3] > level else 0.0, 10.0, sec4)
        first = int(np.argmax(traj.s4 == 1.0))
        assert 10 < first < fluid._CHUNK and np.all(traj.s4[:first] == 0.0)
        lo, hi = 0.0, traj.t[first] + 1.0  # passive closed form: m4 crosses the level once
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if fluid.passive_trajectory_closed_form(m0, mid, sec4)[3] > level:
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
