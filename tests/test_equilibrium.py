import numpy as np
import pytest

from conftest import random_good_bad, sec4_at
from powerctl import equilibrium, fluid, kernel
from powerctl.errors import ConvexityUnverified, DegenerateRegime, DomainError
from powerctl.model import ModelParams


def null_space_measure(s4, params):
    """Independent equilibrium oracle: SVD null space of the drift matrix."""
    u = kernel.drift_matrix_4state(s4, params)
    _, svals, vt = np.linalg.svd(u)
    assert svals[-1] < 1e-12
    vec = vt[-1]
    vec = vec / vec.sum()
    return vec


class TestEquilibriumMeasure:
    def test_passive(self, sec4):
        assert equilibrium.equilibrium_measure(0.0, sec4) == pytest.approx(
            [0.0, 0.6, 0.0, 0.4]
        )

    def test_always_on(self, sec4):
        m = equilibrium.equilibrium_measure(1.0, sec4)
        expected = np.array([0.216, 0.06, 0.144, 0.04]) / 0.46
        assert m == pytest.approx(expected, abs=1e-12)
        assert np.abs(kernel.drift_matrix_4state(1.0, sec4) @ m).max() < 1e-12

    def test_kernel_and_nullspace_agreement(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            params = random_good_bad(rng)
            for s4 in np.linspace(0.0, 1.0, 6):
                m = equilibrium.equilibrium_measure(s4, params)
                assert m.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(kernel.drift_matrix_4state(s4, params) @ m).max() < 1e-12
                assert m == pytest.approx(null_space_measure(s4, params), abs=1e-9)

    def test_discrete_fixed_point_grid(self, sec4):
        for s4 in np.arange(0.0, 1.01, 0.1):
            m = equilibrium.equilibrium_measure(s4, sec4)
            assert fluid.discrete_step(m, s4, sec4) == pytest.approx(m, abs=1e-14)


class TestEquilibriumCost:
    def test_passive_cost_is_queue_weight(self, sec4):
        assert equilibrium.equilibrium_cost(0.0, sec4) == pytest.approx(1.5)

    def test_always_on_cost(self, sec4):
        assert equilibrium.equilibrium_cost(1.0, sec4) == pytest.approx(
            0.5296267795305887, abs=1e-12
        )

    def test_cost_matches_long_run_fluid(self, sec4):
        # constant control: integrate far out and compare the settled rate
        traj = fluid.integrate([0.25] * 4, 1.0, 200.0, sec4)
        assert traj.inst_cost[-1] == pytest.approx(
            equilibrium.equilibrium_cost(1.0, sec4), abs=1e-9
        )

    def test_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        checked = 0
        while checked < 100:
            params = random_good_bad(rng)
            s4 = rng.uniform(0.01, 0.99)
            fd = (
                equilibrium.equilibrium_cost(s4 + h, params)
                - equilibrium.equilibrium_cost(s4 - h, params)
            ) / (2 * h)
            exact = equilibrium.equilibrium_cost_derivative(s4, params)
            assert fd == pytest.approx(exact, abs=1e-6 * max(1.0, abs(exact)))
            checked += 1


class TestConvexity:
    def test_benchmark_bound(self, sec4):
        f0, ok = equilibrium.convexity_bound(sec4)
        assert f0 == pytest.approx(1.5 * 0.9 * 0.92**2 / (0.1 * 0.04), abs=1e-9)
        assert ok

    def test_tight_limit_fails(self):
        p = ModelParams(k=2, gains=(0.0, 1.0), beta=(0.01, 0.99), rho=0.5,
                        theta=0.99, n0=0.5, lam=1e-6, p_max=1e6, q_max=1)
        f0, ok = equilibrium.convexity_bound(p)
        assert f0 < 0.5 and not ok

    def test_second_difference_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            params = random_good_bad(rng)
            _, ok = equilibrium.convexity_bound(params)
            if not ok:
                continue
            grid = np.arange(0.0, 1.0001, 0.01)
            vals = np.array([equilibrium.equilibrium_cost(s, params) for s in grid])
            assert np.diff(vals, 2).min() >= -1e-8


class TestRegimeConstants:
    def test_benchmark_values(self, sec4):
        n0_0, n0_1 = equilibrium.n0_thresholds(sec4)
        assert n0_0 == pytest.approx(24.84, abs=1e-9)
        assert n0_1 == pytest.approx(1.2714, abs=1e-3)

    def test_derivative_sign_flips_at_constants(self, sec4):
        n0_0, n0_1 = equilibrium.n0_thresholds(sec4)
        for n0, s4 in ((n0_0, 0.0), (n0_1, 1.0)):
            at = sec4_at(0.1, n0=n0, p_max=1000.0)
            assert equilibrium.equilibrium_cost_derivative(s4, at) == pytest.approx(
                0.0, abs=1e-9
            )
            below = sec4_at(0.1, n0=n0 * (1 - 1e-6), p_max=1000.0)
            above = sec4_at(0.1, n0=n0 * (1 + 1e-6), p_max=1000.0)
            assert equilibrium.equilibrium_cost_derivative(s4, below) < 0.0
            assert equilibrium.equilibrium_cost_derivative(s4, above) > 0.0

    def test_low_arrival_rate_interior_window(self):
        p = sec4_at(0.05)
        _, n0_1 = equilibrium.n0_thresholds(p)
        assert n0_1 == pytest.approx(0.7699, abs=1e-4)
        assert n0_1 < 1.0 < equilibrium.n0_thresholds(p)[0]


    def test_out_of_order_constants_refused(self):
        # certified convex (bound 0.0506 >= n0), yet n0_1 >= n0_0: no regime to classify
        p = ModelParams.good_bad(theta=0.8, beta1=0.8, rho=0.8, lam=1.0, n0=0.01, p_max=1e6)
        f0, ok = equilibrium.convexity_bound(p)
        assert ok and f0 == pytest.approx(0.050625, abs=1e-9)
        message = r"out of order: n0_1=0\.1000816\d* >= n0_0=0\.0899999"
        with pytest.raises(DegenerateRegime, match=message):
            equilibrium.n0_thresholds(p)
        with pytest.raises(DegenerateRegime, match=message):
            equilibrium.optimal_equilibrium(p)


class TestStationarityIdentity:
    def test_boundary_equilibria_reproduce_constants(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = random_good_bad(rng, lam_range=(0.1, 3.0))
            n0_0, n0_1 = equilibrium.n0_thresholds(params)
            b1, rho = params.beta1, params.rho
            m4_active = b1 * rho / (rho + b1 * (1 - rho))
            assert equilibrium.n0_from_m4(b1, params) == pytest.approx(n0_0, abs=1e-10)
            assert equilibrium.n0_from_m4(m4_active, params) == pytest.approx(
                n0_1, abs=1e-10
            )

    def test_domain_error(self, sec4):
        with pytest.raises(DomainError):
            equilibrium.n0_from_m4(0.0, sec4)
        with pytest.raises(DomainError):
            equilibrium.n0_from_m4(0.5, sec4)


class TestOptimalEquilibrium:
    def test_active_at_benchmark(self, sec4):
        rep = equilibrium.optimal_equilibrium(sec4)
        assert rep.regime == equilibrium.ACTIVE
        assert rep.s4_star == 1.0
        assert rep.m_star[3] == pytest.approx(0.086957, abs=1e-6)
        assert rep.E_star == pytest.approx(0.529627, abs=1e-6)

    def test_interior_at_low_arrivals(self):
        p = sec4_at(0.05)
        rep = equilibrium.optimal_equilibrium(p)
        assert rep.regime == equilibrium.INTERIOR
        assert 0.0 < rep.s4_star < 1.0
        assert equilibrium.n0_from_m4(rep.m_star[3], p) == pytest.approx(1.0, abs=1e-8)
        assert abs(equilibrium.equilibrium_cost_derivative(rep.s4_star, p)) < 1e-9

    @pytest.mark.parametrize("rho,theta", [(1e-30, 0.2), (2.0**-510, 0.5)])
    def test_interior_optimum_below_the_absolute_width(self, rho, theta):
        # s4* sits near sqrt(rho), below the 1e-12 width: bisection from 0 once stopped at
        # s4* = 4.5e-13 here, with E* = 2.3e-13 against 4.7e-77 on the grid at 2^-510
        p = ModelParams.good_bad(theta=theta, beta1=0.4, rho=rho, lam=1.5, n0=1.0)
        rep = equilibrium.optimal_equilibrium(p)
        assert rep.regime == equilibrium.INTERIOR
        slope = lambda s4: equilibrium.equilibrium_cost_derivative(s4, p)
        assert slope(rep.s4_star * (1 - 1e-9)) < 0.0 < slope(rep.s4_star * (1 + 1e-9))
        grid = [equilibrium.equilibrium_cost(s, p) for s in np.logspace(-200, 0, 2001)]
        assert rep.E_star <= min(grid)

    def test_passive_at_high_noise(self):
        p = sec4_at(0.1, n0=100.0, p_max=10_000.0)
        rep = equilibrium.optimal_equilibrium(p)
        assert rep.regime == equilibrium.PASSIVE
        assert rep.s4_star == 0.0
        assert rep.E_star == pytest.approx(1.5)
        assert rep.m_star == pytest.approx([0.0, 0.6, 0.0, 0.4])

    def test_refuses_without_certificate(self):
        p = sec4_at(0.1, n0=300.0, p_max=100_000.0)
        f0, ok = equilibrium.convexity_bound(p)
        assert not ok
        with pytest.raises(ConvexityUnverified):
            equilibrium.optimal_equilibrium(p)

    def test_global_minimum_on_grid(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            params = random_good_bad(rng)
            _, ok = equilibrium.convexity_bound(params)
            if not ok:
                continue
            rep = equilibrium.optimal_equilibrium(params)
            grid = np.arange(0.0, 1.0001, 0.05)
            vals = [equilibrium.equilibrium_cost(s, params) for s in grid]
            assert rep.E_star <= min(vals) + 1e-9

    def test_derivative_nondecreasing_under_certificate(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            params = random_good_bad(rng)
            _, ok = equilibrium.convexity_bound(params)
            if not ok:
                continue
            grid = np.arange(0.0, 1.0001, 0.01)
            deriv = [equilibrium.equilibrium_cost_derivative(s, params) for s in grid]
            assert np.diff(deriv).min() >= -1e-8

    def test_json_fields(self, sec4, tmp_path):
        rep = equilibrium.optimal_equilibrium(sec4)
        path = tmp_path / "report.json"
        rep.to_json(path)
        import json

        data = json.loads(path.read_text())
        assert set(data) == {
            "regime", "s4_star", "m_star", "E_star", "n0_0", "n0_1", "convexity_ok",
        }
        assert data["regime"] == "Active"
