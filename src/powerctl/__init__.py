"""Queue-aware power control for slotted SINR networks.

Library layout:

- ``model``: parameters, state indexing, SINR/rate/power formulas
- ``kernel``: per-class transition tables and the mean-field drift
- ``fluid``: fluid dynamics (discrete map, RK4 flow, bias integrals)
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
