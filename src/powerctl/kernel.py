"""Per-class transition tables and the controlled mean-field drift.

The per-slot evolution of one user factors into an independent channel
redraw and a queue move driven by the success/failure of its transmission.
``gamma1`` collects the class-to-class probabilities when the user's SINR
clears the threshold, ``gamma0`` when it does not. Mixing the two by the
per-class success fraction gives the drift matrix U of the population
measure: dm/dt = U m, columns summing to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .model import ModelParams, require_good_bad

IID = "iid"
MARKOV = "markov"


def queue_kernel(q: int, success: int, rho: float, q_max: int) -> np.ndarray:
    """Distribution of the next queue length given the current one.

    A successful slot removes one packet when there is one to send; an
    arrival then lands with probability rho, dropped if the buffer is
    already full. Returns a length q_max+1 probability vector.
    """
    if not 0 <= q <= q_max:
        raise OutOfRange(f"queue length {q} outside [0, {q_max}]")
    after_service = q - 1 if (success and q > 0) else q
    dist = np.zeros(q_max + 1)
    dist[min(after_service + 1, q_max)] += rho
    dist[after_service] += 1.0 - rho
    return dist


def require_channel_model(params: ModelParams, channel_model: str) -> None:
    """Raise ValueError unless channel_model is IID, or MARKOV with a channel matrix."""
    if channel_model not in (IID, MARKOV):
        raise ValueError(f"unknown channel model {channel_model!r}")
    if channel_model == MARKOV and params.channel_matrix is None:
        raise ValueError("Markov tables need params.channel_matrix")


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
    s_dim = params.n_states
    q_dim = params.q_max + 1
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
    return nu.T - np.eye(params.n_states)


def drift_matrix_4state(s4: float, params: ModelParams) -> np.ndarray:
    """Explicit drift matrix of the GOOD/BAD unit-buffer system.

    Only the full-queue good-channel class (label 4) is controlled, with
    activation fraction s4.
    """
    require_good_bad(params)
    b0, b1 = params.beta
    rho = params.rho
    return np.array(
        [
            [-b1 - b0 * rho, 0.0, b0 * (1.0 - rho), s4 * b0 * (1.0 - rho)],
            [b0 * rho, -b1, b0 * rho, s4 * b0 * rho + (1.0 - s4) * b0],
            [b1 * (1.0 - rho), 0.0, -b1 * rho - b0, s4 * b1 * (1.0 - rho)],
            [b1 * rho, b1, b1 * rho, -s4 * b1 * (1.0 - rho) - b0],
        ]
    )
