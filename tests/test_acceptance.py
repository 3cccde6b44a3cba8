"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

import oracles
from conftest import random_good_bad, sec4_at
from powerctl import equilibrium, finite, fluid, kernel, policy
from powerctl.model import ModelParams

BENCH_RHOS = (0.05, 0.1, 0.2, 0.3)


def report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_benchmark_reproduction():
    t0 = time.time()
    rows = []
    for rho in BENCH_RHOS:
        params = sec4_at(rho)
        bench = policy.make_bench_policy(params)
        g_mf = finite.evaluate_policy_exact(
            lambda c: policy.apply_finite(bench, c, 10), params, 10
        )
        vi = finite.relative_value_iteration(params, 10, tol=1e-9)
        rows.append((rho, g_mf, vi.g, abs(g_mf - vi.g) * 100.0 / g_mf))
    elapsed = time.time() - t0
    detail = "; ".join(
        f"rho={rho}: g_mf={g_mf:.6f} g_vi={g_vi:.6f} rel={rel:.3g}%"
        for rho, g_mf, g_vi, rel in rows
    )
    ok = all(rel <= 3.0 for *_, rel in rows)
    ok = ok and all(g_vi <= g_mf + 1e-9 for _, g_mf, g_vi, _r in rows)
    ok = ok and elapsed < 120.0
    report(1, ok, f"{detail}; elapsed {elapsed:.1f}s")


def test_criterion_2_equilibrium_exactness():
    rng = np.random.default_rng(101)
    worst_residual = 0.0
    worst_builder_gap = 0.0
    for _ in range(100):
        params = random_good_bad(rng)
        for s4 in np.arange(0.0, 1.0001, 0.1):
            m = equilibrium.equilibrium_measure(s4, params)
            u = kernel.drift_matrix_4state(s4, params)
            worst_residual = max(worst_residual, np.abs(u @ m).max())
            u_general = oracles.drift_matrix(np.array([0, 0, 0, s4]), params)
            worst_builder_gap = max(worst_builder_gap, np.abs(u_general - u).max())
    ok = worst_residual < 1e-12 and worst_builder_gap < 1e-14
    report(
        2,
        ok,
        f"max |U m| = {worst_residual:.2e} (<1e-12), "
        f"max builder gap = {worst_builder_gap:.2e} (<1e-14)",
    )


def test_criterion_3_regime_constants():
    params = sec4_at(0.1)
    n0_0, n0_1 = equilibrium.n0_thresholds(params)
    checks = [
        ("n0_0 = 24.84 +- 1e-9", abs(n0_0 - 24.84) <= 1e-9),
        ("n0_1 = 1.2714 +- 1e-3", abs(n0_1 - 1.2714) <= 1e-3),
    ]
    # sign of the derivative flips at the constants
    for n0_val, s4 in ((n0_0, 0.0), (n0_1, 1.0)):
        lo = equilibrium.equilibrium_cost_derivative(
            s4, sec4_at(0.1, n0=n0_val * (1 - 1e-7), p_max=1e4)
        )
        hi = equilibrium.equilibrium_cost_derivative(
            s4, sec4_at(0.1, n0=n0_val * (1 + 1e-7), p_max=1e4)
        )
        checks.append((f"derivative sign flip at s4={s4}", lo < 0.0 < hi))
    m4_active = policy.m4_active(params)
    checks.append(
        (
            "identity at passive equilibrium",
            abs(equilibrium.n0_from_m4(params.beta1, params) - n0_0) <= 1e-10,
        )
    )
    checks.append(
        (
            "identity at active equilibrium",
            abs(equilibrium.n0_from_m4(m4_active, params) - n0_1) <= 1e-10,
        )
    )
    ok = all(flag for _, flag in checks)
    report(3, ok, "; ".join(f"{name}: {'ok' if flag else 'BAD'}" for name, flag in checks))


def test_criterion_4_convexity_property():
    rng = np.random.default_rng(102)
    grid = np.arange(0.0, 1.0001, 0.01)
    worst = np.inf
    n_checked = 0
    param_sets = [sec4_at(rho) for rho in BENCH_RHOS]
    while n_checked < 25:
        params = param_sets.pop(0) if param_sets else random_good_bad(rng)
        _, certified = equilibrium.convexity_bound(params)
        if not certified:
            continue
        vals = np.array([equilibrium.equilibrium_cost(s, params) for s in grid])
        worst = min(worst, float(np.diff(vals, 2).min()))
        n_checked += 1
    ok = worst >= -1e-8
    report(4, ok, f"min second difference over {n_checked} certified sets: {worst:.2e} (>=-1e-8)")


def test_criterion_5_fluid_integrator_oracle():
    params = sec4_at(0.1)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        m0 = rng.dirichlet(np.ones(4))
        traj = fluid.integrate(m0, 0.0, 5.0, params, dt=0.01)
        for t_ref in (0.5, 1.0, 2.0, 5.0):
            i = int(np.argmin(np.abs(traj.t - t_ref)))
            ref = oracles.passive_trajectory_closed_form(m0, traj.t[i], params)
            worst = max(worst, float(np.abs(traj.m[i] - ref).max()))
    m0 = np.array([0.4, 0.3, 0.2, 0.1])
    ref = oracles.passive_trajectory_closed_form(m0, 2.0, params)
    errs = [
        np.abs(oracles.rk4_integrate(m0, 0.0, 2.0, params, dt=dt).m[-1] - ref).max()
        for dt in (0.2, 0.1, 0.05)
    ]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = worst < 1e-6 and min(orders) >= 3.5
    report(
        5,
        ok,
        f"max closed-form gap {worst:.2e} (<1e-6), observed orders "
        f"{orders[0]:.2f}, {orders[1]:.2f} (>=3.5)",
    )


def test_criterion_6_bias_optimality_surrogate():
    # interior regime: the grid argmin must sit within one step of the policy
    params = sec4_at(0.05)
    rng = np.random.default_rng(104)
    starts = [rng.dirichlet(np.ones(4)) for _ in range(5)]
    rep = policy.bias_optimality_check(params, m0_set=starts, grid_step=0.005)
    gaps = [abs(a - rep.policy_pi) for a in rep.argmins]
    interior_ok = rep.passed and max(gaps) <= 0.005 + 1e-12
    # boundary regimes: the check must name the winning pairing
    active_rep = policy.bias_optimality_check(
        sec4_at(0.1), m0_set=[np.array([0.25] * 4)], grid_step=0.01
    )
    passive_rep = policy.bias_optimality_check(
        sec4_at(0.1, n0=100.0, p_max=1e4), m0_set=[np.array([0.25] * 4)], grid_step=0.01
    )
    verdicts_ok = (
        active_rep.pairing_verdict is not None
        and passive_rep.pairing_verdict is not None
    )
    ok = interior_ok and verdicts_ok
    report(
        6,
        ok,
        f"interior argmin gaps {[f'{g:.4f}' for g in gaps]} (<=0.005); "
        f"pairing verdicts: active regime -> {active_rep.pairing_verdict}, "
        f"passive regime -> {passive_rep.pairing_verdict}",
    )


def test_criterion_7_mean_field_convergence():
    params = sec4_at(0.1)
    tp = policy.make_policy(params)
    m0 = np.array([0.3, 0.2, 0.3, 0.2])
    horizon = 60
    reference = [m0]
    for _ in range(horizon - 1):
        reference.append(
            fluid.discrete_step(reference[-1], oracles.apply_fluid(tp, reference[-1]), params)
        )
    reference = np.array(reference)
    mean_gaps = []
    for n in (10, 40, 160):
        counts0 = (m0 * n).astype(int)
        gaps = []
        for seed in range(100):
            sim = finite.simulate(
                lambda c: policy.apply_finite(tp, c, n),
                params,
                n,
                horizon,
                seed=seed,
                initial_counts=counts0,
            )
            gaps.append(float(np.abs(sim.measures / n - reference).max()))
        mean_gaps.append(float(np.mean(gaps)))
    ok = mean_gaps[0] > mean_gaps[1] > mean_gaps[2]
    report(
        7,
        ok,
        "mean sup-norm gap to the fluid path: "
        + ", ".join(f"N={n}: {g:.4f}" for n, g in zip((10, 40, 160), mean_gaps)),
    )


def _sample_row_frequencies(params, level, queue, success, channel_model, rng, n):
    if success and queue > 0:
        after = queue - 1
    else:
        after = queue
    arrivals = rng.random(n) < params.rho
    next_q = np.minimum(after + arrivals, params.q_max)
    if channel_model == "iid":
        next_lvl = rng.random(n) < params.beta[1]
    else:
        next_lvl = rng.random(n) < params.channel_matrix[level][1]
    cls = 2 * next_lvl.astype(int) + next_q.astype(int)
    return np.bincount(cls, minlength=4) / n


def test_criterion_8_kernel_fidelity():
    n = 10**6
    base = sec4_at(0.1)
    markov = ModelParams(
        k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1, theta=0.2, n0=1.0,
        lam=1.5, p_max=10.0, q_max=1, channel_matrix=((0.7, 0.3), (0.2, 0.8)),
    )
    rng = np.random.default_rng(105)
    worst_sigma = 0.0
    for channel_model, params in (("iid", base), ("markov", markov)):
        tables = oracles.build_tables(params, channel_model)
        for i in range(4):
            level, queue = divmod(i, 2)
            for success, gamma in ((0, tables.gamma0), (1, tables.gamma1)):
                freqs = _sample_row_frequencies(
                    params, level, queue, success, channel_model, rng, n
                )
                row = gamma[i]
                sigma = np.sqrt(np.maximum(row * (1 - row), 1e-30) / n)
                ratio = np.abs(freqs - row) / np.maximum(sigma, 1e-30)
                ratio[row == 0.0] = 0.0
                worst_sigma = max(worst_sigma, float(ratio.max()))
                if np.any(row == 0.0):
                    assert np.all(freqs[row == 0.0] == 0.0)
    ok = worst_sigma <= 3.0
    report(8, ok, f"worst cell deviation {worst_sigma:.2f} sigma (<=3) at 1e6 samples")
