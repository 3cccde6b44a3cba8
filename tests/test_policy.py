import json

import numpy as np
import pytest

import oracles
from conftest import random_simplex, sec4_at
from powerctl import equilibrium, fluid, policy


class TestMakePolicy:
    @pytest.mark.parametrize("pairing", ["prop3", "average_optimal"])
    def test_unknown_pairing_refused(self, sec4, pairing):
        # the CLI's names are not pairings: make_policy takes the constants only
        with pytest.raises(ValueError, match=f"unknown pairing '{pairing}'"):
            policy.make_policy(sec4, pairing)

    def test_active_regime_default(self, sec4):
        tp = policy.make_policy(sec4)
        assert tp.regime == equilibrium.ACTIVE
        assert tp.pairing == policy.PROP3_CONSISTENT
        # activation-equilibrium coordinate: b1*rho / (rho + b1*(1-rho))
        assert tp.pi == pytest.approx(0.04 / 0.46, abs=1e-12)

    def test_passive_regime(self):
        p = sec4_at(0.1, n0=100.0, p_max=10_000.0)
        tp = policy.make_policy(p)
        assert tp.regime == equilibrium.PASSIVE
        assert tp.pi == pytest.approx(0.4)

    def test_interior_regime(self):
        p = sec4_at(0.05)
        tp = policy.make_policy(p)
        assert tp.regime == equilibrium.INTERIOR
        assert equilibrium.n0_from_m4(tp.pi, p) == pytest.approx(1.0, abs=1e-8)

    def test_literal_pairing_swaps_boundaries(self, sec4):
        lit = policy.make_policy(sec4, policy.PAPER_LITERAL)
        assert lit.pi == pytest.approx(0.4)  # active regime gets the passive mass
        p = sec4_at(0.1, n0=100.0, p_max=10_000.0)
        lit = policy.make_policy(p, policy.PAPER_LITERAL)
        assert lit.pi == pytest.approx(0.04 / 0.46, abs=1e-12)

    def test_interior_ignores_pairing(self):
        p = sec4_at(0.05)
        a = policy.make_policy(p, policy.PROP3_CONSISTENT)
        b = policy.make_policy(p, policy.PAPER_LITERAL)
        assert a.pi == b.pi

    def test_bench_policy_degenerate_thresholds(self, sec4):
        bench = policy.make_bench_policy(sec4)
        assert bench.pi == 0.0  # active regime: transmit whenever possible
        p = sec4_at(0.1, n0=100.0, p_max=10_000.0)
        assert policy.make_bench_policy(p).pi == 1.0
        p = sec4_at(0.05)
        assert policy.make_bench_policy(p).pi == pytest.approx(
            policy.make_policy(p).pi
        )


class TestApply:
    def test_weak_inequality_at_threshold(self, sec4):
        tp = policy.make_policy(sec4)
        m = np.array([0.5, 0.3, 0.2 - tp.pi, tp.pi])
        assert oracles.apply_fluid(tp, m) == 0.0
        m[3] = tp.pi + 1e-12
        m[2] -= 1e-12
        assert oracles.apply_fluid(tp, m) == 1.0

    def test_finite_counts(self, sec4):
        tp = policy.make_policy(sec4)
        assert policy.apply_finite(tp, np.array([5, 1, 1, 3]), 10) == 3
        assert policy.apply_finite(tp, np.array([7, 1, 2, 0]), 10) == 0

    def test_scale_consistency(self, sec4):
        tp = policy.make_policy(sec4)
        for n in (10, 23, 160):
            for n4 in range(n + 1):
                counts = np.array([n - n4, 0, 0, n4])
                k = policy.apply_finite(tp, counts, n)
                s = oracles.apply_fluid(tp, counts / n)
                assert k == (n4 if s > 0 else 0)


class TestClosedLoop:
    def test_converges_to_optimal_equilibrium(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        tp = policy.make_policy(sec4)
        rng = np.random.default_rng(31)
        for _ in range(5):
            traj = fluid.integrate(random_simplex(rng), tp, 1000.0, sec4, dt=0.01)
            assert np.abs(traj.m[-1] - np.array(rep.m_star)).sum() < 1e-6

    def test_interior_converges(self):
        p = sec4_at(0.05)
        rep = equilibrium.optimal_equilibrium(p)
        tp = policy.make_policy(p)
        traj = fluid.integrate(np.array([0.25] * 4), tp, 1000.0, p, dt=0.01)
        assert np.abs(traj.m[-1] - np.array(rep.m_star)).sum() < 1e-6
        # sliding duty cycle settles at the optimal activation
        assert traj.s4[-1] == pytest.approx(rep.s4_star, abs=1e-6)


class TestBiasOptimalityCheck:
    def test_interior_grid(self):
        p = sec4_at(0.05)
        report = policy.bias_optimality_check(
            p, grid_step=0.01, m0_set=[np.array([0.25] * 4), np.array([0.5, 0.2, 0.2, 0.1])]
        )
        assert report.passed
        for argmin in report.argmins:
            assert abs(argmin - report.policy_pi) <= 0.01 + 1e-12
        assert report.pairing_verdict is None

    def test_active_regime_verdict(self, sec4):
        report = policy.bias_optimality_check(
            sec4, grid_step=0.02, m0_set=[np.array([0.25] * 4)]
        )
        assert report.pairing_verdict == policy.PROP3_CONSISTENT
        p3c = report.pairing_costs[policy.PROP3_CONSISTENT][0]
        lit = report.pairing_costs[policy.PAPER_LITERAL][0]
        assert p3c < lit

    def test_passive_regime_stationary_start(self):
        # from the passive equilibrium every threshold at or above its m4
        # incurs zero bias; ties break toward the policy threshold
        p = sec4_at(0.1, n0=100.0, p_max=1e4)
        report = policy.bias_optimality_check(
            p, grid_step=0.01, m0_set=[np.array([0.0, 0.6, 0.0, 0.4])]
        )
        assert report.passed
        assert report.argmins[0] == pytest.approx(0.4)
        assert report.argmin_first_switch == report.pi_first_switch == [None]  # both stay put
        costs = np.array(report.costs[0])
        taus = np.array(report.thresholds)
        assert np.all(np.abs(costs[taus >= 0.4]) < 1e-9)

    def test_first_switches_are_the_engines(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        starts = [np.array([0.25] * 4), np.array([0.1, 0.4, 0.45, 0.05])]
        report = policy.bias_optimality_check(sec4, grid_step=0.01, m0_set=starts)
        for i, start in enumerate(starts):
            for tau, first in (
                (report.argmins[i], report.argmin_first_switch[i]),
                (report.policy_pi, report.pi_first_switch[i]),
            ):
                batch = fluid.threshold_bias_batch(start, [tau], rep.E_star, rep.m_star, sec4)
                assert first == (batch.switches[0][0] if batch.switches[0] else None)
        # from the uniform start the argmin path never switches; from the second both
        # paths are passive, then switch to active, the argmin's first
        assert report.argmin_first_switch[0] is None
        (t_argmin, arc_argmin) = report.argmin_first_switch[1]
        (t_pi, arc_pi) = report.pi_first_switch[1]
        assert arc_argmin == arc_pi == 1 and t_argmin < t_pi

    def test_report_serializes(self, sec4, tmp_path):
        report = policy.bias_optimality_check(
            sec4, grid_step=0.05, m0_set=[np.array([0.25] * 4)]
        )
        path = tmp_path / "check.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert data["regime"] == "Active"
        assert len(data["thresholds"]) == len(data["costs"][0])

    def test_one_engine_call_per_audit(self, sec4, monkeypatch):
        calls = []

        def counted(m0, thresholds, *args, **kwargs):
            calls.append((np.shape(m0), len(thresholds)))
            return fluid.threshold_bias_batch(m0, thresholds, *args, **kwargs)

        monkeypatch.setattr(policy, "threshold_bias_batch", counted)
        starts = np.random.default_rng(3).dirichlet(np.ones(4), size=5)
        report = policy.bias_optimality_check(sec4, starts, grid_step=0.05)
        n_taus = len(report.thresholds) + 2  # the grid and the two pairing thresholds
        assert calls == [((5 * n_taus, 4), 5 * n_taus)]
        assert np.shape(report.costs) == (5, len(report.thresholds))

    def test_empty_start_set_refused(self, sec4):
        # all([]) would read as a pass after auditing nothing
        with pytest.raises(ValueError, match="m0_set is empty"):
            policy.bias_optimality_check(sec4, grid_step=0.05, m0_set=[])


class TestGridEngineConsistency:
    """The audit grid and ``bias_cost`` run on one exact engine (no dt left)."""

    @pytest.mark.parametrize("rho", [0.1, 0.05])  # Active (sec4), Interior
    def test_pairing_cost_equals_bias_cost(self, rho):
        params = sec4_at(rho)
        rep = equilibrium.optimal_equilibrium(params)
        start = np.random.default_rng(0).dirichlet(np.ones(4))
        report = policy.bias_optimality_check(params, m0_set=[start], grid_step=0.01)
        grid_at_pi = report.pairing_costs[policy.PROP3_CONSISTENT][0]
        single = fluid.bias_cost(start, policy.make_policy(params), rep.E_star, params)
        assert abs(grid_at_pi - single) < 1e-9

    def test_tails_align_with_costs(self):
        report = policy.bias_optimality_check(
            sec4_at(0.05), grid_step=0.01, m0_set=[np.array([0.25] * 4)]
        )
        tails, flags = np.array(report.tails[0]), np.array(report.converged[0])
        assert tails.shape == np.array(report.costs[0]).shape
        assert np.all(tails[flags] == 0.0)
        # the optimum is unique in the Interior regime: any other settled cost is higher
        assert flags.sum() == 0 and np.all(tails > 0.0)
