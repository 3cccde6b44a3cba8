"""Closed-loop fluid dynamics under the threshold controller.

Starts the population measure away from equilibrium, runs the
threshold-on-m4 controller, and shows the three phases of the closed loop:
a pure arc toward the switching surface, the crossing (the first root of
m4 - pi on that arc), and the sliding approach to the optimal operating
point, where the control settles at the optimal duty cycle.

Writes the trajectory to threshold_closed_loop.csv.

Run:  python demos/threshold_closed_loop.py
"""

import numpy as np

from powerctl import equilibrium, fluid, policy
from powerctl.model import ModelParams


def main():
    params = ModelParams.good_bad(theta=0.2, beta1=0.4, rho=0.05, lam=1.5, n0=1.0)
    rep = equilibrium.optimal_equilibrium(params)
    controller = policy.make_policy(params)
    print(f"regime: {rep.regime}, threshold pi = {controller.pi:.6f}")
    print(f"optimal duty cycle s4* = {rep.s4_star:.6f}, cost E* = {rep.E_star:.6f}\n")

    m0 = np.array([0.55, 0.25, 0.15, 0.05])
    traj = fluid.integrate(m0, controller, 120.0, params, dt=0.01)
    traj.to_csv("threshold_closed_loop.csv")

    print(f"{'t':>7} {'m4':>10} {'s4':>10} {'cost':>10}")
    for t_mark in (0.0, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0):
        i = int(np.argmin(np.abs(traj.t - t_mark)))
        print(
            f"{traj.t[i]:7.2f} {traj.m[i, 3]:10.6f} {traj.s4[i]:10.6f} "
            f"{traj.inst_cost[i]:10.6f}"
        )

    gap = np.abs(traj.m[-1] - np.array(rep.m_star)).sum()
    print(f"\nfinal distance to the optimal point: {gap:.2e}")
    print(f"final control vs optimal duty cycle: {traj.s4[-1]:.9f} vs {rep.s4_star:.9f}")

    # the transient premium of starting far from the operating point
    bias = fluid.bias_cost(m0, controller, rep.E_star, params)
    print(f"bias (transient cost premium) from the start above: {bias:+.6f}")
    print("trajectory written to threshold_closed_loop.csv")


if __name__ == "__main__":
    main()
