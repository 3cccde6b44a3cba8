import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import powerctl
from conftest import sec4_at
from powerctl import finite, fluid, policy
from powerctl.errors import AssumptionViolation, Infeasible, MultichainDetected, NoConvergence
from powerctl.model import ModelParams


class TestEnumeration:
    def test_counts(self, sec4):
        assert len(oracles.AggregateSpace(1).states) == 4
        assert len(oracles.AggregateSpace(2).states) == 10
        assert len(oracles.AggregateSpace(10).states) == 286

    def test_lexicographic_order(self, sec4):
        compositions = [c for c in itertools.product(range(8), repeat=4) if sum(c) == 7]
        states = oracles.AggregateSpace(7).states
        assert list(map(tuple, states.tolist())) == sorted(compositions)

    def test_index_round_trip(self, sec4):
        space = oracles.AggregateSpace(10)
        for i, state in enumerate(space.states):
            assert space.index_of(state) == i
        assert all(s.sum() == 10 for s in space.states)


class TestTransmitPower:
    def test_single(self, sec4):
        assert finite.transmit_power(1, 10, sec4) == pytest.approx(0.2)

    def test_three_of_ten(self, sec4):
        p = finite.transmit_power(3, 10, sec4)
        assert p == pytest.approx(0.2 / 0.96, abs=1e-12)

    def test_all_meet_threshold(self, sec4):
        n, k = 10, 3
        p_val = finite.transmit_power(k, n, sec4)
        h = np.zeros(n)
        h[:k] = 1.0
        pw = np.zeros(n)
        pw[:k] = p_val
        for user in range(k):
            assert oracles.finite_sinr(user, h, pw, n, sec4) == pytest.approx(
                sec4.theta, abs=1e-15
            )

    def test_cap_never_binds_under_validated_params(self, sec4):
        # the feasibility assumption caps the mean-field power above the
        # worst finite-population value, so every k up to N is allowed
        tight = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=0.1, lam=1.5, n0=1.0,
                                     p_max=0.25)
        for k in range(11):
            finite.transmit_power(k, 10, tight)

    @pytest.mark.parametrize("n_users", [1, 2, 10, 1000, 10**5])
    def test_every_count_is_feasible_up_to_the_assumption_2_boundary(self, n_users):
        # for k <= N the load theta (k - 1) / N stays below theta, so
        # p(k) < theta n0 / (1 - theta) <= p_max (Assumption 2); each (theta, n0) runs
        # at the least p_max construction accepts, the boundary up to rounding, and at
        # a slack one
        rng = np.random.default_rng(24)
        for _ in range(6):
            theta, n0 = rng.uniform(0.01, 0.99), rng.uniform(0.01, 10.0)
            p_max = theta * n0 / (1.0 - theta)
            while theta > p_max / (n0 + p_max):
                p_max = np.nextafter(p_max, np.inf)
            for cap in (p_max, p_max * rng.uniform(1.0, 10.0)):
                params = ModelParams.good_bad(theta=theta, beta1=0.4, rho=0.1, lam=1.5,
                                              n0=n0, p_max=cap)
                table = finite._power_table(n_users, params)
                each = [k * finite.transmit_power(k, n_users, params) for k in range(n_users + 1)]
                assert np.isfinite(table).all()
                assert table.tobytes() == np.array(each).tobytes()
                assert finite.transmit_power(n_users, n_users, params) < cap
                for k in (-1, n_users + 1):
                    with pytest.raises(Infeasible, match=rf"k={k} outside \[0, N={n_users}\]"):
                        finite.transmit_power(k, n_users, params)

    @pytest.mark.parametrize("k", [2.5, np.array([0, 2.5])], ids=["scalar", "array"])
    def test_not_a_whole_number_raises(self, sec4, k):
        with pytest.raises(Infeasible, match="is not a whole number"):
            finite.transmit_power(k, 5, sec4)

    def test_infeasible_saturation(self):
        p = ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.9,
                        n0=0.01, lam=1.5, p_max=1000.0, q_max=1)
        with pytest.raises(Infeasible):
            # theta*(k-1)/N = 0.9*10/9 > 1 has no finite solution
            finite.transmit_power(11, 9, p)


class TestStageCost:
    def test_idle_empty(self, sec4):
        assert finite.stage_cost((10, 0, 0, 0), 0, 10, sec4) == 0.0

    def test_composite(self, sec4):
        assert finite.stage_cost((2, 2, 3, 3), 3, 10, sec4) == pytest.approx(8.125)

    def test_idle_full(self, sec4):
        assert finite.stage_cost((0, 5, 0, 5), 0, 10, sec4) == pytest.approx(15.0)

    @pytest.mark.parametrize("k", [3, -2])
    def test_action_outside_zero_to_n4_raises(self, sec4, k):
        # no class-4 user to serve: these once priced to 0.625 and -0.377
        with pytest.raises(Infeasible, match=rf"k={k} outside \[0, n4=0\]") as refused:
            finite.stage_cost((10, 0, 0, 0), k, 10, sec4)
        assert refused.value.k == k

    @pytest.mark.parametrize("k", [2.5, float("nan")])
    def test_action_not_a_whole_number_raises(self, sec4, k):
        # 2.5 was once priced as is, to 5.0319...
        with pytest.raises(Infeasible, match=rf"k={k} is not a whole number"):
            finite.stage_cost((0, 0, 0, 3), k, 5, sec4)


class TestTransitionDistribution:
    def test_single_user_success_row(self, sec4):
        dist = oracles.transition_distribution((0, 0, 0, 1), 1, sec4)
        expected = {(1, 0, 0, 0): 0.54, (0, 1, 0, 0): 0.06,
                    (0, 0, 1, 0): 0.36, (0, 0, 0, 1): 0.04}
        assert set(dist) == set(expected)
        for key, val in expected.items():
            assert dist[key] == pytest.approx(val)

    def test_mass_one(self, sec4):
        rng = np.random.default_rng(40)
        space = oracles.AggregateSpace(6)
        for _ in range(20):
            counts = space.states[rng.integers(len(space))]
            k = int(rng.integers(counts[3] + 1))
            dist = oracles.transition_distribution(counts, k, sec4)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_two_user_convolution(self, sec4):
        dist = oracles.transition_distribution((0, 0, 0, 2), 0, sec4)
        # brute force over the 4x4 joint outcomes of two independent users
        row = oracles.build_tables(sec4).gamma0[3]
        expected = {}
        for a, b in itertools.product(range(4), range(4)):
            key = [0, 0, 0, 0]
            key[a] += 1
            key[b] += 1
            expected[tuple(key)] = expected.get(tuple(key), 0.0) + row[a] * row[b]
        expected = {k: v for k, v in expected.items() if v > 0}
        assert set(dist) == set(expected)
        for key, val in expected.items():
            assert dist[key] == pytest.approx(val, abs=1e-14)

    def test_marginals_match_rows(self, sec4):
        # brute-force joint enumeration for three users, mixed classes
        tabs = oracles.build_tables(sec4)
        counts, k = (1, 1, 0, 1), 1
        dist = oracles.transition_distribution(counts, k, sec4)
        rows = [tabs.gamma0[0], tabs.gamma0[1], tabs.gamma1[3]]
        expected = {}
        for dests in itertools.product(range(4), repeat=3):
            key = [0, 0, 0, 0]
            prob = 1.0
            for row, d in zip(rows, dests):
                key[d] += 1
                prob *= row[d]
            key = tuple(key)
            expected[key] = expected.get(key, 0.0) + prob
        for key, val in expected.items():
            if val > 0:
                assert dist[key] == pytest.approx(val, abs=1e-14)


class TestBinomialTable:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_rows_sum_to_one_at_five_thousand(self, p):
        table = finite._binomial_table(5000, p)
        assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_rows_match_comb(self, p):
        table = finite._binomial_table(50, p)
        exact = np.zeros((51, 51))
        for m in range(51):
            exact[m, : m + 1] = [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)]
        assert np.array_equal(table == 0.0, exact == 0.0)
        ratio = table[exact > 0.0] / exact[exact > 0.0]
        assert np.abs(ratio - 1.0).max() <= 1e-14


def stationary_of(matrix):
    """Stationary law by direct linear solve (independent of power iteration)."""
    n = matrix.shape[0]
    a = np.vstack([matrix.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


MARKOV = ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.2, n0=1.0,
                     lam=1.5, p_max=10.0, q_max=1, channel_matrix=((0.7, 0.3), (0.2, 0.8)))


# a policy picking k = -1 or k = n4 + 1 in every state
OUT_OF_RANGE = {"k=-1": lambda c: -1, "k=n4+1": lambda c: int(c[3]) + 1}


def full_row(space, counts, k, params, channel_model="iid"):
    """Dense next-state row of the unreduced chain, built user by user from the
    kernel rows: gamma0 for classes 1-3 and unserved class-4 users, gamma1[3]
    for the k served ones, each user's move added to a dense (N+1)^4 count array."""
    tabs = oracles.build_tables(params, channel_model)
    rows = [tabs.gamma0[c] for c in range(4) for _ in range(int(counts[c]) - k * (c == 3))]
    rows += [tabs.gamma1[3]] * k
    n = space.n_users
    dist = np.zeros((n + 1,) * 4)
    dist[0, 0, 0, 0] = 1.0
    for row in rows:
        moved = np.zeros_like(dist)
        for dest in range(4):
            src, dst = [slice(None)] * 4, [slice(None)] * 4
            src[dest], dst[dest] = slice(0, n), slice(1, n + 1)
            moved[tuple(dst)] += row[dest] * dist[tuple(src)]
        dist = moved
    return dist[tuple(space.states.T)]


def recurrent_classes(matrix):
    """Number of recurrent classes of a stochastic matrix, read off its support:
    reachability closed by boolean squaring, each squaring doubling the path
    length covered. A state is recurrent when every state it reaches reaches it
    back; its reachable set is then its class, named by its first member."""
    n = len(matrix)
    reach = (matrix > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach) > 0.0
    recurrent = ~(reach & ~reach.T).any(axis=1)
    return np.unique(reach[recurrent].argmax(axis=1)).size


def full_chain_rvi(params, n_users, tol=1e-9):
    """Relative VI on the full S x S chain, every (state, k) row built separately."""
    space = oracles.AggregateSpace(n_users)
    pairs = [
        [(k, finite.stage_cost(c, k, n_users, params), full_row(space, c, k, params))
         for k in range(int(c[3]) + 1)]
        for c in space.states
    ]
    h = np.zeros(len(space))
    for it in range(1, 10**4):
        q = [[cost + row @ h for _, cost, row in acts] for acts in pairs]
        th = np.array([min(qs) for qs in q])
        delta = th - h
        if delta.max() - delta.min() < tol:
            g = 0.5 * (delta.max() + delta.min())
            h = th - th[0]
            q = [[cost + row @ h for _, cost, row in acts] for acts in pairs]
            pol = [acts[int(np.argmax(np.array(qs) <= min(qs) + 1e-12))][0]
                   for acts, qs in zip(pairs, q)]
            return g, h, np.array(pol), it
        h = th - th[0]
    raise AssertionError("full-chain RVI did not converge")


class TestValueIteration:
    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_sweep_budget_exhausted(self, sec4, max_iter):
        with pytest.raises(NoConvergence, match=f"after {max_iter} iterations") as exc:
            finite.relative_value_iteration(sec4, 5, max_iter=max_iter)
        assert exc.value.iterations == max_iter
        assert exc.value.span > 1e-9
        assert f"span {exc.value.span:.3e} above tolerance 1e-09" in str(exc.value)

    def test_zero_queue_weight_never_transmits(self):
        p = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=0.1, lam=0.0, n0=1.0)
        res = finite.relative_value_iteration(p, 1)
        assert res.g == pytest.approx(0.0, abs=1e-12)
        assert np.all(res.policy == 0)

    def test_single_user_matches_stationary_solve(self, sec4):
        res = finite.relative_value_iteration(sec4, 1)
        space = oracles.AggregateSpace(1)
        tabs = oracles.build_tables(sec4)
        rows = []
        costs = []
        for i, counts in enumerate(space.states):
            k = res.policy[i]
            cls = int(np.argmax(counts))
            rows.append(tabs.gamma1[cls] if k == 1 else tabs.gamma0[cls])
            costs.append(finite.stage_cost(counts, k, 1, sec4))
        # destination class c maps to the aggregate state with that count
        perm = [space.index_of(tuple(np.eye(4, dtype=int)[c])) for c in range(4)]
        chain = np.zeros((4, 4))
        for i in range(4):
            for c in range(4):
                chain[i, perm[c]] = rows[i][c]
        mu = stationary_of(chain)
        g_ref = float(mu @ np.array(costs))
        assert res.g == pytest.approx(g_ref, abs=1e-8)

    def test_optimality_dominance(self, sec4):
        res = finite.relative_value_iteration(sec4, 10)
        tp = policy.make_policy(sec4)
        g_threshold = finite.evaluate_policy_exact(
            lambda c: policy.apply_finite(tp, c, 10), sec4, 10
        )
        assert res.g <= g_threshold + 1e-9

    @pytest.mark.parametrize("n_users,rho", [(1, 0.1), (4, 0.3), (6, 0.1), (6, 0.05)])
    def test_matches_full_chain_rvi(self, n_users, rho):
        params = sec4_at(rho)
        g, h, pol, iterations = full_chain_rvi(params, n_users)
        res = finite.relative_value_iteration(params, n_users)
        assert res.g == pytest.approx(g, abs=1e-12)
        assert np.allclose(finite._per_count_vector(res.values), h, atol=1e-10)
        assert np.array_equal(res.policy, pol)
        assert res.iterations == iterations

    def test_recorded_optimum_at_twelve_users(self, sec4):
        res = finite.relative_value_iteration(sec4, 12)
        assert len(res.policy) == 455
        assert abs(res.g - 4.125173984377067) <= 1e-9

    def test_dominates_random_policies(self, sec4):
        res = finite.relative_value_iteration(sec4, 5)
        space = oracles.AggregateSpace(5)
        rng = np.random.default_rng(41)
        for _ in range(5):
            table = {tuple(s): int(rng.integers(s[3] + 1)) for s in space.states}
            g = finite.evaluate_policy_exact(lambda c: table[tuple(c)], sec4, 5)
            assert res.g <= g + 1e-9


def per_state(table, space):
    """A (Q, n4) k table read off per count vector, as a dict for evaluate_policy_exact."""
    return {tuple(c): int(table[c[1] + c[3], c[3]]) for c in space.states}


def random_table(rng, n_users):
    """A seeded k table over (Q, n4), each k drawn from 0..n4."""
    return np.array([[rng.integers(n4 + 1) for n4 in range(n_users + 1)]
                     for _ in range(n_users + 1)])


# (rho, N): g and iterations of the count-vector solver these replaced, recorded before
RECORDED_VI = {(0.1, 10): (3.4376010629336653, 41), (0.1, 12): (4.125173984377078, 41),
               (0.1, 30): (10.313325583730963, 42), (0.05, 30): (5.514176635687145, 46)}
# (rho, N): g of the bench threshold from evaluate_policy_exact, recorded the same way
RECORDED_BENCH = {(0.1, 10): 3.437601062732495, (0.1, 30): 10.313325583405,
                  (0.05, 30): 6.556968234314587}


class TestBacklogSolvers:
    """The VI and the k-table evaluator on the N + 1 backlogs against oracles."""

    @pytest.mark.parametrize("n_users,rho", [(8, 0.1), (8, 0.2), (7, 0.05)])
    def test_vi_matches_full_chain_rvi(self, n_users, rho):
        params = sec4_at(rho)
        g, _, pol, iterations = full_chain_rvi(params, n_users)
        res = finite.relative_value_iteration(params, n_users)
        assert res.g == pytest.approx(g, abs=1e-12)
        assert np.array_equal(res.policy, pol)
        assert res.iterations == iterations
        space = oracles.AggregateSpace(n_users)
        assert np.array_equal(res.policy, list(per_state(res.table, space).values()))

    @pytest.mark.parametrize("n_users,rho", [(3, 0.2), (6, 0.1), (8, 0.3)])
    def test_evaluator_matches_full_chain_stationary_solve(self, n_users, rho):
        params = sec4_at(rho)
        space = oracles.AggregateSpace(n_users)
        rng = np.random.default_rng(70 + n_users)
        for _ in range(3):
            table = random_table(rng, n_users)
            pick = per_state(table, space)
            chain = np.array([full_row(space, s, pick[tuple(s)], params) for s in space.states])
            costs = np.array([finite.stage_cost(s, pick[tuple(s)], n_users, params)
                              for s in space.states])
            g = finite.evaluate_table_exact(table, params, n_users)
            assert g == pytest.approx(float(stationary_of(chain) @ costs), abs=1e-12)
            assert g == pytest.approx(
                finite.evaluate_policy_exact(lambda c: pick[tuple(c)], params, n_users), abs=1e-12
            )

    @pytest.mark.parametrize("key", RECORDED_VI, ids=str)
    def test_recorded_vi(self, key):
        rho, n_users = key
        res = finite.relative_value_iteration(sec4_at(rho), n_users)
        g, iterations = RECORDED_VI[key]
        assert res.g == pytest.approx(g, abs=1e-12)
        assert res.iterations == iterations

    @pytest.mark.parametrize("delta,k", [(1e-12, 0), (1e-8, 1)])
    def test_tie_rule_takes_the_first_k_within_1e_12(self, monkeypatch, delta, k):
        # at N = 1 with lam = 0, a transmission earns delta (power -delta) and a held
        # packet is worth less than that, so at (Q, n4) = (1, 1) serving beats idling
        # by a fixed fraction of delta: inside the 1e-12 tie band for delta = 1e-12
        # (the smaller k is kept), outside it for delta = 1e-8
        monkeypatch.setattr(finite, "_power_table", lambda n, params: np.array([0.0, -delta]))
        params = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=0.1, lam=0.0, n0=1.0)
        assert finite.relative_value_iteration(params, 1).table[1, 1] == k

    @pytest.mark.parametrize("key", RECORDED_BENCH, ids=str)
    def test_recorded_bench_threshold(self, key):
        rho, n_users = key
        params = sec4_at(rho)
        bench = policy.make_bench_policy(params)
        table = policy.finite_table(bench, n_users)
        assert finite.evaluate_table_exact(table, params, n_users) == pytest.approx(
            RECORDED_BENCH[key], abs=1e-12
        )
        pick = lambda c: policy.apply_finite(bench, c, n_users)
        assert finite.evaluate_policy_exact(pick, params, n_users) == pytest.approx(
            RECORDED_BENCH[key], abs=1e-12
        )

    def test_two_hundred_users(self, sec4):
        n_users = 200
        res = finite.relative_value_iteration(sec4, n_users)
        assert abs(finite.evaluate_table_exact(res.table, sec4, n_users) - res.g) <= 1e-9 * n_users
        # always-transmit is within the VI's tolerance of the optimum here
        bench = policy.finite_table(policy.make_bench_policy(sec4), n_users)
        assert res.g <= finite.evaluate_table_exact(bench, sec4, n_users) + 1e-9

    @pytest.mark.parametrize("pi", [0.0, 0.05, 0.3, 1.0])
    def test_threshold_table_is_apply_finite(self, sec4, pi):
        tp = policy.ThresholdPolicy(pi=pi, regime="test", pairing="test")
        space = oracles.AggregateSpace(10)
        table = per_state(policy.finite_table(tp, 10), space)
        assert all(table[tuple(c)] == policy.apply_finite(tp, c, 10) for c in space.states)

    @pytest.mark.parametrize("pick", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_table_raises_on_the_same_k(self, pick):
        table = np.array([[pick((0, q - n4, 3 - q, n4)) for n4 in range(4)] for q in range(4)])
        with pytest.raises(Infeasible) as by_table:
            finite.evaluate_table_exact(table, sec4_at(0.1), 3)
        with pytest.raises(Infeasible) as by_callable:
            finite.evaluate_policy_exact(pick, sec4_at(0.1), 3)
        assert by_table.value.k == by_callable.value.k


    def test_table_not_of_whole_numbers_raises_on_the_same_k(self, sec4):
        # a table of 0.7 n4 was once truncated to int64 and evaluated; one of 1.0 n4
        # is the table of n4
        n4 = np.arange(6)
        with pytest.raises(Infeasible, match="is not a whole number") as by_table:
            finite.evaluate_table_exact(np.tile(0.7 * n4, (6, 1)), sec4, 5)
        with pytest.raises(Infeasible) as by_callable:
            finite.evaluate_policy_exact(lambda c: c[3] * 0.7, sec4, 5)
        assert by_table.value.k == by_callable.value.k == 3.5  # (0, 0, 0, 5) comes first
        whole = finite.evaluate_table_exact(np.tile(1.0 * n4, (6, 1)), sec4, 5)
        assert whole == finite.evaluate_table_exact(np.tile(n4, (6, 1)), sec4, 5)


class TestPolicyEvaluation:
    def test_recorded_markov_bench_threshold(self):
        # the Markov law and key chain, pinned to the last bit of a recorded g
        bench = policy.make_bench_policy(MARKOV)
        pick = lambda c: policy.apply_finite(bench, c, 10)
        g = finite.evaluate_policy_exact(pick, MARKOV, 10, channel_model="markov")
        assert g == 3.140803997721875

    def test_memoryless_peak_memory_at_sixty_users(self, sec4):
        # 39,711 count vectors: a dense (N + 1) x S law alone would take 19 MB
        bench = policy.make_bench_policy(sec4)
        tracemalloc.start()
        try:
            finite.evaluate_policy_exact(lambda c: policy.apply_finite(bench, c, 60), sec4, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_idle_policy_saturates(self, sec4):
        g = finite.evaluate_policy_exact(lambda c: 0, sec4, 10)
        assert g == pytest.approx(15.0, abs=1e-9)

    def test_single_user_fixed_policy(self, sec4):
        # always transmit in class 4: compare against the direct linear solve
        g = finite.evaluate_policy_exact(lambda c: int(c[3]), sec4, 1)
        tabs = oracles.build_tables(sec4)
        space = oracles.AggregateSpace(1)
        perm = [space.index_of(tuple(np.eye(4, dtype=int)[c])) for c in range(4)]
        chain = np.zeros((4, 4))
        costs = np.zeros(4)
        for i, counts in enumerate(space.states):
            cls = int(np.argmax(counts))
            k = 1 if cls == 3 else 0
            row = tabs.gamma1[cls] if k else tabs.gamma0[cls]
            for c in range(4):
                chain[i, perm[c]] = row[c]
            costs[i] = finite.stage_cost(counts, k, 1, sec4)
        mu = stationary_of(chain)
        assert g == pytest.approx(float(mu @ costs), abs=1e-10)

    def test_greedy_policy_reproduces_g(self, sec4):
        res = finite.relative_value_iteration(sec4, 10, tol=1e-10)
        space = oracles.AggregateSpace(10)
        g = finite.evaluate_policy_exact(
            lambda c: res.policy[space.index_of(c)], sec4, 10
        )
        assert g == pytest.approx(res.g, abs=2e-10)

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    @pytest.mark.parametrize("n_users", [2, 4, 6])
    def test_matches_full_chain_stationary_solve(self, channel_model, n_users):
        params = sec4_at(0.2) if channel_model == "iid" else MARKOV
        space = oracles.AggregateSpace(n_users)
        rng = np.random.default_rng(50 + n_users)
        for _ in range(3):
            # the table reads all four counts, not only (n2 + n4, n4)
            table = {tuple(s): int(rng.integers(s[3] + 1)) for s in space.states}
            chain = np.array([full_row(space, s, table[tuple(s)], params, channel_model)
                              for s in space.states])
            costs = np.array([finite.stage_cost(s, table[tuple(s)], n_users, params)
                              for s in space.states])
            g = finite.evaluate_policy_exact(lambda c: table[tuple(c)], params, n_users,
                                             channel_model=channel_model)
            assert g == pytest.approx(float(stationary_of(chain) @ costs), abs=1e-12)

    @pytest.mark.parametrize("n_users", [3, 6])
    def test_markov_rows_match_full_chain(self, n_users):
        # every count vector as a post-service key: a served user moves like a class-3 one
        space = oracles.AggregateSpace(n_users)
        law = finite._markov_next_law(space.states, space.states, MARKOV)
        full = np.array([full_row(space, s, 0, MARKOV, "markov") for s in space.states])
        assert np.abs(law - full).max() <= 1e-15

    @pytest.mark.parametrize("rho", [0.1, 0.3])
    @pytest.mark.parametrize("beta1", [0.4, 0.7, 1.0])
    def test_markov_with_equal_rows_is_the_memoryless_chain(self, beta1, rho):
        # a Markov channel whose rows are both (1 - beta1, beta1) redraws every level
        # afresh, so its engine and the memoryless one solve the same chain
        row = (1.0 - beta1, beta1)
        params = dataclasses.replace(MARKOV, beta=row, rho=rho, channel_matrix=(row, row))
        picks = (lambda c: c[3], lambda c: c[3] // 2, lambda c: 0, lambda c: min(c[3], c[0]))
        for n_users in (1, 3, 6, 10):
            for pick in picks:
                iid = finite.evaluate_policy_exact(pick, params, n_users)
                markov = finite.evaluate_policy_exact(pick, params, n_users, channel_model="markov")
                assert markov == pytest.approx(iid, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    @pytest.mark.parametrize("pick", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_action_raises(self, channel_model, pick):
        params = sec4_at(0.1) if channel_model == "iid" else MARKOV
        with pytest.raises(Infeasible):
            finite.evaluate_policy_exact(pick, params, 3, channel_model=channel_model)

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_action_not_a_whole_number_raises(self, channel_model):
        # c[3] * 0.7 was once truncated by int(): 3.686028647286367 at N = 5 (iid);
        # a float holding a whole number is that number
        params = sec4_at(0.1) if channel_model == "iid" else MARKOV
        with pytest.raises(Infeasible, match="k=3.5 is not a whole number"):
            finite.evaluate_policy_exact(lambda c: c[3] * 0.7, params, 5, channel_model)
        by_float = finite.evaluate_policy_exact(lambda c: float(c[3]), params, 5, channel_model)
        assert by_float == finite.evaluate_policy_exact(lambda c: int(c[3]), params, 5,
                                                        channel_model)
        if channel_model == "iid":
            assert by_float == 1.7186659510870583

    def test_multichain_detected(self):
        # a frozen Markov channel never mixes levels, so each level split
        # is its own recurrent class
        p = ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.2,
                        n0=1.0, lam=1.5, p_max=10.0, q_max=1,
                        channel_matrix=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(MultichainDetected):
            finite.evaluate_policy_exact(lambda c: 0, p, 2, channel_model="markov")


class TestUnichainCertificate:
    """The single-class rule of the exact evaluators against the reachability
    oracle, run on the full chain of a random policy: always one class under
    the memoryless channel, several exactly for the frozen Markov channel
    (c0, c1) = (0, 1) and for the alternating one (1, 0) at N >= 2."""

    @pytest.mark.parametrize("beta1", [0.0, 0.4, 1.0])
    def test_memoryless_chain_has_one_class(self, beta1):
        params = ModelParams.good_bad(theta=0.2, beta1=beta1, rho=0.1, lam=1.5, n0=1.0)
        rng = np.random.default_rng(80)
        for n_users in range(1, 5):
            space = oracles.AggregateSpace(n_users)
            for _ in range(3):
                table = random_table(rng, n_users)
                pick = per_state(table, space)
                chain = np.array([full_row(space, s, pick[tuple(s)], params)
                                  for s in space.states])
                assert recurrent_classes(chain) == 1
                costs = np.array([finite.stage_cost(s, pick[tuple(s)], n_users, params)
                                  for s in space.states])
                g = finite.evaluate_table_exact(table, params, n_users)
                assert g == pytest.approx(float(stationary_of(chain) @ costs), abs=1e-12)

    @pytest.mark.parametrize("c1", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("c0", [0.0, 0.3, 1.0])
    def test_markov_rule_matches_the_oracle(self, c0, c1):
        params = dataclasses.replace(MARKOV, channel_matrix=((1.0 - c0, c0), (1.0 - c1, c1)))
        rng = np.random.default_rng(81)
        for n_users in range(1, 5):
            multichain = (c0, c1) == (0.0, 1.0) or ((c0, c1) == (1.0, 0.0) and n_users >= 2)
            space = oracles.AggregateSpace(n_users)
            for _ in range(3):
                table = {tuple(s): int(rng.integers(s[3] + 1)) for s in space.states}
                chain = np.array([full_row(space, s, table[tuple(s)], params, "markov")
                                  for s in space.states])
                assert (recurrent_classes(chain) > 1) == multichain
                pick = lambda c: table[tuple(c)]
                if multichain:
                    with pytest.raises(MultichainDetected):
                        finite.evaluate_policy_exact(pick, params, n_users, channel_model="markov")
                    continue
                costs = np.array([finite.stage_cost(s, table[tuple(s)], n_users, params)
                                  for s in space.states])
                g = finite.evaluate_policy_exact(pick, params, n_users, channel_model="markov")
                assert g == pytest.approx(float(stationary_of(chain) @ costs), abs=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_arrival_probability_outside_the_open_interval_raises(self, rho):
        # rho = 0 leaves every backlog closed, where a solve would return some g
        # silently: such parameters are refused before any evaluator sees them
        with pytest.raises(AssumptionViolation, match="arrival probability"):
            dataclasses.replace(sec4_at(0.1), rho=rho)


# channel models each solver must refuse, with require_channel_model's message
BAD_CHANNELS = {
    "unknown": (MARKOV, "gilbert", "unknown channel model"),
    "no-matrix": (ModelParams.good_bad(theta=0.2, beta1=0.4, rho=0.1, lam=1.5, n0=1.0),
                  "markov", "channel_matrix"),
}


@pytest.mark.parametrize("params,channel_model,message", BAD_CHANNELS.values(),
                         ids=BAD_CHANNELS.keys())
class TestChannelModelChecks:
    def test_simulate(self, params, channel_model, message):
        with pytest.raises(ValueError, match=message):
            finite.simulate(lambda c: 0, params, 3, 10, seed=1, channel_model=channel_model)

    def test_evaluate_policy_exact(self, params, channel_model, message):
        with pytest.raises(ValueError, match=message):
            finite.evaluate_policy_exact(lambda c: 0, params, 3, channel_model=channel_model)


# name -> (threshold policy maker, run on sec4_at(0.1); params, N, slots, seed,
# channel) and the recorded (mean_cost, ci95, sha256 of measures, actions and
# costs, sha256 of to_csv)
SIM_CASES = {
    "iid-n10": (policy.make_policy, sec4_at(0.1), 10, 20_000, 11, "iid"),
    "iid-n1000": (policy.make_policy, sec4_at(0.1), 1000, 3_000, 12, "iid"),
    "markov-n10": (policy.make_bench_policy, MARKOV, 10, 20_000, 13, "markov"),
}
SIM_RECORDED = {
    "iid-n10": (3.4540786484128034, 0.028566801923275934,
                "c416fe602e50b37eb3fd82b04991a2f12c52a2649e2537379ef183526cc7b855",
                "df901b87bdbe911cc7d80a394a002751bbb1bec1e0044f08d0e5e5a542e38036"),
    "iid-n1000": (388.2882894845215, 1.9884632372110616,
                  "ebcafb6fe250e6fe93d67191bdaadc3956181fb82f1b4645a0aa7f86168f2a68",
                  "0ab866ee34f7674cc6c36c9d026d121ef6fe561cbd9c464bb9cf331d9d44e42b"),
    "markov-n10": (3.164267309102179, 0.0551013245936356,
                   "cd65d974364b3bf3289c1a9e3ab4652dabcb419fec16e55f071ad666ae69bb4c",
                   "0ded28b033875d217fca43704d3b67b3360a98c245e7baeed8f968724d2dbc4e"),
}


def count_code(counts, n_users):
    """The int code (n1 * (N + 1) + n2) * (N + 1) + n3 of count vectors."""
    return (counts[0] * (n_users + 1) + counts[1]) * (n_users + 1) + counts[2]


def pop_codes(stocks, refill, keys, rounds):
    """Next-state codes popped from ``_transition_stock`` as ``simulate`` pops
    them, from each key in turn for the given number of rounds."""
    codes = []
    for _ in range(rounds):
        for key in keys:
            pending = stocks.get(key)
            codes.append(pending.pop() if pending else refill(key))
    return codes


class TestSimulate:
    def test_deterministic(self, sec4):
        tp = policy.make_policy(sec4)
        runs = [
            finite.simulate(lambda c: policy.apply_finite(tp, c, 10), sec4, 10, 2000,
                            seed=9)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].costs, runs[1].costs)
        assert np.array_equal(runs[0].measures, runs[1].measures)

    def test_idle_policy_approaches_saturation(self, sec4):
        sim = finite.simulate(lambda c: 0, sec4, 10, 60_000, seed=2)
        assert sim.mean_cost == pytest.approx(15.0, abs=0.05)

    def test_threshold_matches_exact_evaluation(self, sec4):
        tp = policy.make_policy(sec4)
        g = finite.evaluate_policy_exact(
            lambda c: policy.apply_finite(tp, c, 10), sec4, 10
        )
        sim = finite.simulate(
            lambda c: policy.apply_finite(tp, c, 10), sec4, 10, 200_000, seed=3
        )
        assert abs(sim.mean_cost - g) <= 3 * sim.ci95 + 1e-6

    @pytest.mark.parametrize("pick,k", zip(OUT_OF_RANGE.values(), (-1, 1)), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_action_raises(self, pick, k):
        for params, channel_model in ((sec4_at(0.1), "iid"), (MARKOV, "markov")):
            with pytest.raises(Infeasible) as refused:
                finite.simulate(pick, params, 3, 500, seed=4, channel_model=channel_model)
            assert refused.value.k == k

    def test_action_not_a_whole_number_raises(self):
        # c[3] * 0.7 was once truncated by int(); a float holding a whole number is that
        # number, drawing the same path
        for params, channel_model in ((sec4_at(0.1), "iid"), (MARKOV, "markov")):
            with pytest.raises(Infeasible, match="is not a whole number"):
                finite.simulate(lambda c: c[3] * 0.7, params, 5, 500, seed=4,
                                channel_model=channel_model)
            runs = [finite.simulate(pick, params, 5, 500, seed=4, channel_model=channel_model)
                    for pick in (lambda c: float(c[3]), lambda c: int(c[3]))]
            assert runs[0].costs.tobytes() == runs[1].costs.tobytes()
            assert np.array_equal(runs[0].actions, runs[1].actions)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_no_slot_to_average_raises(self, sec4, horizon):
        with pytest.raises(ValueError, match="no slot to average"):
            finite.simulate(lambda c: 0, sec4, 3, horizon, seed=1)

    @pytest.mark.parametrize("name", SIM_RECORDED)
    def test_recorded_results(self, name, tmp_path):
        # recorded from the simulator that pops each next state from a stock per
        # post-decision key (its first 32 composed from scalar binomial calls, then
        # blocks of whole transitions): a change to the draws, the block sizes, the
        # order of the draws or the stage-cost arithmetic moves some bit here
        make, params, n_users, horizon, seed, channel_model = SIM_CASES[name]
        tp = make(sec4_at(0.1))
        sim = finite.simulate(lambda c: policy.apply_finite(tp, c, n_users), params, n_users,
                              horizon, seed=seed, channel_model=channel_model)
        oracles.sim_to_csv(sim, tmp_path / "sim.csv")
        arrays = (sim.measures.astype("<i8"), sim.actions.astype("<i8"), sim.costs.astype("<f8"))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        csv_digest = hashlib.sha256((tmp_path / "sim.csv").read_bytes()).hexdigest()
        assert (sim.mean_cost, sim.ci95, digest, csv_digest) == SIM_RECORDED[name]

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_a_run_is_the_prefix_of_a_longer_one(self, channel_model):
        # the stock's block sizes do not depend on the horizon, so doubling it
        # leaves the first slots as they were
        params = sec4_at(0.1) if channel_model == "iid" else MARKOV
        tp = policy.make_policy(sec4_at(0.1))
        short, long = (finite.simulate(lambda c: policy.apply_finite(tp, c, 10), params, 10,
                                       horizon, seed=6, channel_model=channel_model)
                       for horizon in (5000, 10_000))
        assert np.array_equal(short.measures, long.measures[:5000])
        assert np.array_equal(short.actions, long.actions[:5000])
        assert np.array_equal(short.costs, long.costs[:5000])

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_policy_once_per_count_vector_and_power_once_per_k(self, monkeypatch,
                                                                channel_model):
        params = sec4_at(0.1) if channel_model == "iid" else MARKOV
        tp = policy.make_policy(sec4_at(0.1))
        asked, priced = [], []

        def pick(counts):
            asked.append(counts)
            return policy.apply_finite(tp, counts, 10)

        power = finite.transmit_power
        monkeypatch.setattr(finite, "transmit_power",
                            lambda k, n, p: priced.append(k) or power(k, n, p))
        sim = finite.simulate(pick, params, 10, 5000, seed=5, channel_model=channel_model)
        visited = np.unique(sim.measures, axis=0)
        assert len(asked) == len(visited) < 5000
        assert all(isinstance(c, np.ndarray) and c.dtype == np.int64 for c in asked)
        assert np.array_equal(np.unique(asked, axis=0), visited)
        assert sorted(priced) == np.unique(sim.actions).tolist()

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_transition_stock_block_sizes(self, channel_model):
        # 20,000 next states of one key: 32 composed from scalar binomial calls, three
        # per draw on the memoryless channel and six on the Markov one, then blocks of
        # whole transitions of 64, 128, ..., 4096 and then 4096 at a time, each as many
        # calls with that size
        params = sec4_at(0.2) if channel_model == "iid" else MARKOV
        _, draw_next = finite._channel_step(params, 3, channel_model)
        calls = 3 if channel_model == "iid" else 6
        rng = np.random.default_rng(23)
        sizes = []

        def binomial(m, p, size=None):
            sizes.append(size)
            return rng.binomial(m, p, size)

        stocks, refill = finite._transition_stock(binomial, draw_next)
        key = 2 if channel_model == "iid" else count_code((1, 0, 1, 1), 3)  # backlog 2, or counts
        pop_codes(stocks, refill, [key], 20_000)
        blocks = [2**j for j in range(6, 13)] + [4096] * 3
        assert sizes == [None] * (32 * calls) + [size for size in blocks for _ in range(calls)]

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_transition_stock_law_per_key(self, channel_model):
        # two hot keys popped in turn, 20,000 next states each, composed and from
        # blocks: each key's empirical law against its exact next-state row
        params = sec4_at(0.2) if channel_model == "iid" else MARKOV
        n_users = 3
        space = oracles.AggregateSpace(n_users)
        post, draw_next = finite._channel_step(params, n_users, channel_model)
        rng = np.random.default_rng(24)
        stocks, refill = finite._transition_stock(rng.binomial, draw_next)
        # (counts, k) whose post-decision keys differ: (0, 1, 0, 2) serving 1, (1, 0, 1, 1) idle
        served = [((0, 1, 0, 2), 1), ((1, 0, 1, 1), 0)]
        keys = [post(count_code(counts, n_users), counts[1] + counts[3], k) for counts, k in served]
        assert len(set(keys)) == 2
        drawn = np.array(pop_codes(stocks, refill, keys, 20_000)).reshape(-1, 2)
        codes = count_code(space.states.T, n_users)
        for (counts, k), column in zip(served, drawn.T):
            if channel_model == "iid":
                law = oracles.transition_distribution(counts, k, params)
                row = np.array([law.get(tuple(s), 0.0) for s in space.states.tolist()])
            else:
                row = full_row(space, counts, k, params, channel_model)
            assert np.isin(column, codes).all()
            freqs = np.array([np.mean(column == c) for c in codes])
            bound = 4.0 * np.sqrt(row * (1.0 - row) / len(column))
            assert np.all(np.abs(freqs - row) <= bound + 1e-12), (counts, k)

    @pytest.mark.parametrize("n_users", [2**21 - 1, 2**21], ids=["int64-edge", "wide"])
    def test_codes_at_the_int64_edge(self, n_users):
        # (N + 1)^3 reaches 2^63 at N = 2^21 - 1, whose codes still fit int64 and are
        # stocked in blocks; from N = 2^21 on they are Python ints and every draw is
        # composed. Always-transmit at a tiny arrival rate keeps the backlog at 0, so
        # that key is hot, and its next states have n1 near 0.6 N, codes near the top
        params = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=1e-9, lam=1.5, n0=1.0)
        sim = finite.simulate(lambda c: int(c[3]), params, n_users, 300, seed=25)
        n1, n2, n3, n4 = sim.measures.T
        assert (sim.measures >= 0).all() and (sim.measures.sum(axis=1) == n_users).all()
        assert np.count_nonzero(n2) <= 5
        good = params.beta[1]
        assert np.all(np.abs(n3 / n_users - good) <= 5.0 * np.sqrt(good * (1 - good) / n_users))
        assert n1.max() * (n_users + 1) ** 2 > 2**62

    @pytest.mark.parametrize("n0", [1.0, 5.0], ids=["default", "interior"])
    def test_bench_threshold_matches_exact_at_a_thousand_users(self, n0):
        # seed fixed before the first run; seeds 0-19 all pass on both configs,
        # the largest gap being 2.2 standard errors
        params = sec4_at(0.1, n0=n0)
        bench = policy.make_bench_policy(params)
        g = finite.evaluate_table_exact(policy.finite_table(bench, 1000), params, 1000)
        sim = finite.simulate(lambda c: policy.apply_finite(bench, c, 1000), params, 1000,
                              20_000, seed=1)
        assert abs(sim.mean_cost - g) <= 4 * sim.ci95

    @pytest.mark.parametrize("counts", [(4, -1, 0, 0), (1, 1, 0, 0), (3, 0, 0, 0, 0), (1.0, 1, 1, 0)],
                             ids=["negative", "wrong-sum", "five", "float"])
    def test_bad_initial_counts_raise(self, sec4, counts):
        with pytest.raises(ValueError, match="initial counts"):
            finite.simulate(lambda c: 0, sec4, 3, 10, seed=1, initial_counts=counts)

    def test_default_start_has_empty_queues(self, sec4):
        # n3 ~ Bin(N, beta1) good-channel users, every queue empty
        n, good = 10**6, sec4.beta[1]
        n1, n2, n3, n4 = finite.simulate(lambda c: 0, sec4, n, 1, seed=8).measures[0]
        assert (n2, n4, n1 + n3) == (0, 0, n)
        assert abs(n3 / n - good) <= 4.0 * np.sqrt(good * (1.0 - good) / n)

    @pytest.mark.parametrize("channel_model", ["iid", "markov"])
    def test_one_slot_law_matches_full_chain(self, channel_model):
        # the empirical next-state law of every well-visited state against the
        # user-by-user oracle row, under a fixed table serving k in n4 // 2..n4
        # (a table idling in every full state would trap the chain there), as one
        # pooled chi-square: a per-cell bound over about 300 cells breaks on some
        # seeds of a correct simulator. Cells expected fewer than 5 times are pooled
        # per state, and the Wilson-Hilferty z of the total must stay at most 3.72
        # (one-sided alpha = 1e-4); no count may fall on a zero-probability cell
        params = sec4_at(0.2) if channel_model == "iid" else MARKOV
        n_users = 3
        space = oracles.AggregateSpace(n_users)
        rng = np.random.default_rng(60)
        table = {tuple(s): int(rng.integers(s[3] // 2, s[3] + 1)) for s in space.states}
        sim = finite.simulate(lambda c: table[tuple(c)], params, n_users, 150_000, seed=1,
                              channel_model=channel_model)
        # the states are in lexicographic order, so their base-4 codes are sorted
        code = lambda counts: counts[:, :3] @ [16, 4, 1]
        now = np.searchsorted(code(space.states), code(sim.measures))
        checked, chi2, df = 0, 0.0, 0
        for i, counts in enumerate(space.states):
            visits = np.flatnonzero(now[:-1] == i)
            if len(visits) <= 1000:
                continue
            row = full_row(space, counts, table[tuple(counts)], params, channel_model)
            seen = np.bincount(now[visits + 1], minlength=len(space))
            assert not seen[row == 0.0].any(), tuple(counts)
            expected = row * len(visits)
            large, small = expected >= 5.0, (row > 0.0) & (expected < 5.0)
            observed = [*seen[large], *([seen[small].sum()] if small.any() else [])]
            wanted = [*expected[large], *([expected[small].sum()] if small.any() else [])]
            chi2 += sum((o - e) ** 2 / e for o, e in zip(observed, wanted))
            df += len(wanted) - 1
            checked += 1
        assert checked >= 15
        z = ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
        assert z <= 3.72, (chi2, df)

    def test_markov_matches_exact_evaluation(self, sec4):
        # the benchmark's Markov channel with the default config's bench policy
        bench = policy.make_bench_policy(sec4)
        pick = lambda c: policy.apply_finite(bench, c, 10)
        g = finite.evaluate_policy_exact(pick, MARKOV, 10, channel_model="markov")
        assert g == pytest.approx(3.14080399772, abs=1e-10)
        sim = finite.simulate(pick, MARKOV, 10, 200_000, seed=1, channel_model="markov")
        assert abs(sim.mean_cost - g) <= 4 * sim.ci95

    def test_large_population_follows_fluid(self, sec4):
        # always-transmit from m0: the mean sup-norm gap to the fluid path
        # shrinks like 1/sqrt(N), which only a count-level simulator can reach
        m0, horizon = np.array([0.3, 0.2, 0.3, 0.2]), 300
        path = [m0]
        for _ in range(horizon - 1):
            path.append(fluid.discrete_step(path[-1], 1.0, sec4))
        path = np.array(path)
        gaps = {}
        for n in (10**4, 10**6):
            counts0 = np.rint(m0 * n).astype(np.int64)
            gaps[n] = np.mean([
                np.abs(finite.simulate(lambda c: int(c[3]), sec4, n, horizon, seed=seed,
                                       initial_counts=counts0).measures / n - path).max()
                for seed in range(20)
            ])
        assert gaps[10**6] <= 5e-3
        assert gaps[10**4] >= 5.0 * gaps[10**6]

    def test_csv_export(self, sec4, tmp_path):
        sim = finite.simulate(lambda c: 0, sec4, 10, 50, seed=1)
        path = tmp_path / "sim.csv"
        oracles.sim_to_csv(sim, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,n1,n2,n3,n4,action,cost"
        assert len(lines) == 51


def test_import_leaves_scipy_out():
    src_dir = str(Path(powerctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, powerctl; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
