"""Queue-aware power control for slotted SINR networks.

Library layout:

- ``model``: parameters and their validation, bisection, CSV/JSON writers
- ``kernel``: the mean-field drift matrix and the channel-model names
- ``fluid``: fluid dynamics (discrete map, the closed-form flow, bias integrals)
- ``equilibrium``: controlled equilibria, regimes, optimal operating point
- ``policy``: threshold controllers and their optimality audit
- ``finite``: the finite-population chain, value iteration, simulation
- ``cli``: the ``powerctl`` command-line front end (``python -m powerctl.cli``),
  imported on demand so that running it as ``__main__`` loads it only once
"""

from . import equilibrium, finite, fluid, kernel, model, policy
from .model import ModelParams

__all__ = [
    "ModelParams",
    "equilibrium",
    "finite",
    "fluid",
    "kernel",
    "model",
    "policy",
]
