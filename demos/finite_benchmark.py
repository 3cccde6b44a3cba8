"""Mean-field policy vs the exact optimum of the ten-user system.

For each arrival probability, evaluates the mean-field operating-point
policy exactly on the 11 post-decision backlogs of the ten-user chain,
solves the chain to optimality with relative value iteration on its
66 (Q, n4) = (n2 + n4, n4) pairs (the 286 count vectors need not be
enumerated), and prints the relative gap. A seeded simulation
cross-checks the exact number at rho = 0.1, which is computed again over
all 286 count vectors by ``evaluate_policy_exact``.

Run:  python demos/finite_benchmark.py
"""

import time

from powerctl import finite, policy
from powerctl.model import ModelParams


def params_at(rho):
    return ModelParams.good_bad(theta=0.2, beta1=0.4, rho=rho, lam=1.5, n0=1.0)


def main():
    n_users = 10
    print(f"{'rho':>6} {'regime':<9} {'g_mf':>12} {'g_vi':>12} {'rel err %':>12}")
    t0 = time.time()
    for rho in (0.05, 0.1, 0.2, 0.3):
        params = params_at(rho)
        bench = policy.make_bench_policy(params)
        g_mf = finite.evaluate_table_exact(policy.finite_table(bench, n_users), params, n_users)
        vi = finite.relative_value_iteration(params, n_users)
        rel = abs(g_mf - vi.g) * 100.0 / g_mf
        print(f"{rho:6.2f} {bench.regime:<9} {g_mf:12.6f} {vi.g:12.6f} {rel:12.3g}")
    print(f"\nfour points solved exactly in {time.time() - t0:.3f}s")

    params = params_at(0.1)
    bench = policy.make_bench_policy(params)
    g_exact = finite.evaluate_policy_exact(
        lambda counts: policy.apply_finite(bench, counts, n_users), params, n_users
    )
    sim = finite.simulate(
        lambda counts: policy.apply_finite(bench, counts, n_users),
        params,
        n_users,
        horizon=200_000,
        seed=7,
    )
    print(
        f"simulation cross-check at rho=0.1: {sim.mean_cost:.4f} "
        f"+- {sim.ci95:.4f} vs exact {g_exact:.4f}"
    )


if __name__ == "__main__":
    main()
