import types

import numpy as np
import pytest

import oracles
from conftest import random_good_bad
from powerctl import finite, kernel
from powerctl.model import ModelParams


class TestQueueKernel:
    def test_success_drains(self):
        dist = oracles.queue_kernel(1, 1, 0.1, 1)
        assert dist == pytest.approx([0.9, 0.1])

    def test_empty_queue_only_arrivals(self):
        # nothing to send: next length is just the arrival indicator
        dist = oracles.queue_kernel(0, 1, 0.1, 1)
        assert dist == pytest.approx([0.9, 0.1])

    def test_overflow_merges(self):
        dist = oracles.queue_kernel(1, 0, 0.1, 1)
        assert dist == pytest.approx([0.0, 1.0])
        dist = oracles.queue_kernel(3, 0, 0.25, 3)
        assert dist == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_interior_moves(self):
        dist = oracles.queue_kernel(2, 0, 0.25, 3)
        assert dist == pytest.approx([0.0, 0.0, 0.75, 0.25])
        dist = oracles.queue_kernel(2, 1, 0.25, 3)
        assert dist == pytest.approx([0.0, 0.75, 0.25, 0.0])

    @pytest.mark.parametrize("q", [-1, 2])
    def test_queue_length_out_of_range(self, q):
        with pytest.raises(IndexError, match=rf"queue length {q} outside \[0, 1\]"):
            oracles.queue_kernel(q, 0, 0.1, 1)

    def test_normalized_everywhere(self):
        for q_max in (1, 2, 3):
            for q in range(q_max + 1):
                for a in (0, 1):
                    assert oracles.queue_kernel(q, a, 0.3, q_max).sum() == pytest.approx(1.0)


class TestBuildTables:
    def test_benchmark_success_row(self, sec4):
        tabs = oracles.build_tables(sec4)
        # from (GOOD,1) with success: channel redraw times {stay w.p. rho,
        # drain w.p. 1-rho}
        assert tabs.gamma1[3] == pytest.approx([0.54, 0.06, 0.36, 0.04])

    def test_benchmark_failure_row(self, sec4):
        tabs = oracles.build_tables(sec4)
        assert tabs.gamma0[2] == pytest.approx([0.54, 0.06, 0.36, 0.04])

    def test_rows_sum_to_one_grid(self):
        # the oracle's general k-level, q_max-buffer shapes, which ModelParams refuses:
        # a namespace of the same fields
        rng = np.random.default_rng(0)
        for k in (1, 2, 3, 4):
            for q_max in (1, 2, 3):
                beta = rng.dirichlet(np.ones(k))
                p = types.SimpleNamespace(
                    k=k, gains=tuple(np.linspace(0, 1, k)), beta=tuple(beta), rho=0.3,
                    theta=0.1, n0=1.0, lam=1.0, p_max=100.0, q_max=q_max, channel_matrix=None)
                tabs = oracles.build_tables(p)
                assert np.allclose(tabs.gamma0.sum(axis=1), 1.0, atol=1e-12)
                assert np.allclose(tabs.gamma1.sum(axis=1), 1.0, atol=1e-12)
                assert tabs.gamma0.min() >= 0.0 and tabs.gamma1.min() >= 0.0

    def test_markov_identity_keeps_level(self, sec4):
        p = ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.2,
                        n0=1.0, lam=1.5, p_max=10.0, q_max=1,
                        channel_matrix=((1.0, 0.0), (0.0, 1.0)))
        tabs = oracles.build_tables(p, kernel.MARKOV)
        for i in range(4):
            lvl = i // 2
            block = slice(2 * lvl, 2 * lvl + 2)
            for gamma in (tabs.gamma0, tabs.gamma1):
                assert gamma[i].sum() == pytest.approx(1.0)
                assert gamma[i, block].sum() == pytest.approx(1.0)

    def test_single_user_chain_frequencies(self, sec4):
        # drive one user with the always-transmit rule and compare observed
        # transition frequencies against the table rows (3-sigma bounds)
        n_slots = 200_000
        sim = finite.simulate(lambda c: int(c[3]), sec4, 1, n_slots, seed=123)
        tabs = oracles.build_tables(sec4)
        cls = np.argmax(sim.measures, axis=1)
        for i in range(4):
            mask = cls[:-1] == i
            n_i = int(mask.sum())
            assert n_i > 1000
            row = tabs.gamma1[i] if i == 3 else tabs.gamma0[i]
            freqs = np.bincount(cls[1:][mask], minlength=4) / n_i
            bound = 3.0 * np.sqrt(row * (1.0 - row) / n_i)
            assert np.all(np.abs(freqs - row) <= bound + 1e-12)


class TestDriftMatrix:
    def test_zero_success_ignores_gamma1(self, sec4):
        tabs = oracles.build_tables(sec4)
        u = oracles.drift_matrix(np.zeros(4), sec4, tabs)
        assert np.allclose(u, tabs.gamma0.T - np.eye(4))

    def test_matches_explicit_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            params = random_good_bad(rng)
            s4 = rng.uniform()
            u_general = oracles.drift_matrix(np.array([0, 0, 0, s4]), params)
            u_explicit = kernel.drift_matrix_4state(s4, params)
            assert np.abs(u_general - u_explicit).max() < 1e-14

    def test_columns_conserve_mass(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            params = random_good_bad(rng)
            u = kernel.drift_matrix_4state(rng.uniform(), params)
            assert np.abs(u.sum(axis=0)).max() < 1e-12
            off_diag = u - np.diag(np.diag(u))
            assert off_diag.min() >= 0.0
            assert np.all(np.diag(u) <= 0.0) and np.all(np.diag(u) >= -1.0)

    def test_step_matrix_column_stochastic(self, sec4):
        rng = np.random.default_rng(8)
        g = rng.uniform(size=4)
        step = np.eye(4) + oracles.drift_matrix(g, sec4)
        assert np.allclose(step.sum(axis=0), 1.0, atol=1e-12)
        assert step.min() >= 0.0

    def test_passive_equilibrium_in_kernel(self, sec4):
        u = kernel.drift_matrix_4state(0.0, sec4)
        assert np.abs(u @ np.array([0.0, 0.6, 0.0, 0.4])).max() < 1e-15


class TestDriftVector:
    def test_uniform_active_value(self, sec4):
        phi = kernel.drift_matrix_4state(1.0, sec4) @ np.array([0.25] * 4)
        assert phi[3] == pytest.approx(-0.12, abs=1e-15)
