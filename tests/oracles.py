"""Independent oracles for the GOOD/BAD unit-buffer model, written for any number of
channel levels and any buffer size.

The package hard-codes the two-level, one-packet case (``kernel.drift_matrix_4state``,
the finite chain's binomial laws, ``finite.transmit_power``). These builders assemble
the same quantities from first principles instead, class by class: ``build_tables``
gives the per-class transition tables, ``drift_matrix`` the mean-field drift they
imply, and ``finite_sinr`` one user's SINR in a finite population.

Classes are laid out channel-major: the user at channel level ``l`` (0-based) with
queue length ``r`` sits at position ``l * (q_max + 1) + r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from powerctl.kernel import IID, require_channel_model
from powerctl.model import ModelParams


def queue_kernel(q: int, success: int, rho: float, q_max: int) -> np.ndarray:
    """Distribution of the next queue length given the current one.

    A successful slot removes one packet when there is one to send; an
    arrival then lands with probability rho, dropped if the buffer is
    already full. Returns a length q_max+1 probability vector.
    """
    if not 0 <= q <= q_max:
        raise IndexError(f"queue length {q} outside [0, {q_max}]")
    after_service = q - 1 if (success and q > 0) else q
    dist = np.zeros(q_max + 1)
    dist[min(after_service + 1, q_max)] += rho
    dist[after_service] += 1.0 - rho
    return dist


@dataclass(frozen=True)
class KernelTables:
    """Class-to-class transition matrices under failure (gamma0) and success (gamma1)."""

    gamma0: np.ndarray
    gamma1: np.ndarray


def build_tables(params: ModelParams, channel_model: str = IID) -> KernelTables:
    """Assemble gamma0/gamma1 as (channel factor) x (queue move).

    The channel factor is the level law beta for the memoryless model, or
    the row of the level transition matrix for the Markov model.
    """
    require_channel_model(params, channel_model)
    q_dim = params.q_max + 1
    s_dim = params.k * q_dim
    beta = np.asarray(params.beta, dtype=float)
    tables = []
    for success in (0, 1):
        gamma = np.zeros((s_dim, s_dim))
        for i in range(s_dim):
            lvl_i, q_i = divmod(i, q_dim)
            qdist = queue_kernel(q_i, success, params.rho, params.q_max)
            if channel_model == IID:
                chan = beta
            else:
                chan = np.asarray(params.channel_matrix[lvl_i], dtype=float)
            gamma[i] = np.kron(chan, qdist)
        tables.append(gamma)
    return KernelTables(gamma0=tables[0], gamma1=tables[1])


def drift_matrix(g, params: ModelParams, tables: KernelTables | None = None) -> np.ndarray:
    """Drift of the population measure when a fraction g_i of class i succeeds.

    Row i of the one-step kernel is g_i * gamma1[i] + (1 - g_i) * gamma0[i];
    the drift is its transpose minus the identity, so I + U maps the simplex
    to itself and columns of U sum to zero.
    """
    g = np.asarray(g, dtype=float)
    if tables is None:
        tables = build_tables(params)
    nu = g[:, None] * tables.gamma1 + (1.0 - g)[:, None] * tables.gamma0
    return nu.T - np.eye(len(tables.gamma0))


def finite_sinr(n: int, h, p, big_n: int, params: ModelParams) -> float:
    """SINR of user ``n`` in a population of ``big_n`` users.

    Interference is averaged with weight 1/big_n per interferer.
    """
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    other = float(np.dot(h, p)) - h[n] * p[n]
    return h[n] * p[n] / (other / big_n + params.n0)
