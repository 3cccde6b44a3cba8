"""The controlled mean-field drift of the GOOD/BAD unit-buffer system.

The per-slot evolution of one user factors into an independent channel
redraw and a queue move driven by the success/failure of its transmission.
Mixing the two by the per-class success fraction gives the drift matrix U
of the population measure: dm/dt = U m, columns summing to zero.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams

IID = "iid"
MARKOV = "markov"


def require_channel_model(params: ModelParams, channel_model: str) -> None:
    """Raise ValueError unless channel_model is IID, or MARKOV with a channel matrix."""
    if channel_model not in (IID, MARKOV):
        raise ValueError(f"unknown channel model {channel_model!r}")
    if channel_model == MARKOV and params.channel_matrix is None:
        raise ValueError("Markov tables need params.channel_matrix")


def drift_matrix_4state(s4: float, params: ModelParams) -> np.ndarray:
    """Explicit drift matrix of the GOOD/BAD unit-buffer system.

    Only the full-queue good-channel class (label 4) is controlled, with
    activation fraction s4.
    """
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
