"""Controlled equilibria of the fluid system and the optimal operating point.

For a constant activation fraction s4 of the full-queue good-channel class,
the fluid has a unique equilibrium measure with closed form, and the cost
at equilibrium is a scalar function E(s4). When the noise power is below
the convexity certificate, E is convex and the optimizer falls into one of
three regimes (never transmit, always transmit, or an interior duty cycle)
separated by two explicit noise constants.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvexityUnverified, DegenerateRegime, DomainError
from .model import ModelParams, bisect, write_json

PASSIVE = "Passive"
ACTIVE = "Active"
INTERIOR = "Interior"

_BISECT_TOL = 1e-12


def equilibrium_measure(s4_bar: float, params: ModelParams) -> np.ndarray:
    """Stationary measure of the fluid under constant activation s4_bar."""
    b0, b1 = params.beta
    rho = params.rho
    d = rho + b1 * s4_bar * (1.0 - rho)
    return np.array(
        [
            b0 * b1 * (1.0 - rho) * s4_bar,
            b0 * rho,
            b1 * b1 * (1.0 - rho) * s4_bar,
            b1 * rho,
        ]
    ) / d


def m4_passive(params: ModelParams) -> float:
    """Queue-good mass at the never-transmit equilibrium."""
    return params.beta1


def m4_active(params: ModelParams) -> float:
    """Queue-good mass at the always-transmit equilibrium."""
    b1, rho = params.beta1, params.rho
    return b1 * rho / (rho + b1 * (1.0 - rho))


def instantaneous_cost(m, s4, params: ModelParams):
    """Cost rate theta n0 s4 / (1 - theta m4) + lam (m2 + m4) of the fluid at measure
    m (classes on its first axis) under activation fraction s4 (time-sharing form)."""
    m = np.asarray(m, dtype=float)
    power = params.theta * params.n0 * s4 / (1.0 - params.theta * m[3])
    return power + params.lam * (m[1] + m[3])


def equilibrium_cost(s4_bar: float, params: ModelParams) -> float:
    """Long-run cost per slot at the s4_bar equilibrium: the cost rate there."""
    return instantaneous_cost(equilibrium_measure(s4_bar, params), s4_bar, params)


def equilibrium_cost_derivative(s4_bar: float, params: ModelParams) -> float:
    """Closed-form dE/ds4_bar of the equilibrium cost."""
    b1 = params.beta1
    rho, theta = params.rho, params.theta
    d = rho + b1 * s4_bar * (1.0 - rho)
    num = (
        2.0 * b1 * rho * s4_bar * (1.0 - rho) * (1.0 - theta * b1)
        + rho * rho * (1.0 - theta * b1)
        + s4_bar * s4_bar * b1 * b1 * (1.0 - rho) ** 2
    )
    power_term = params.theta * params.n0 * num / (d - theta * b1 * rho) ** 2
    queue_term = params.lam * rho * b1 * (1.0 - rho) / (d * d)
    return power_term - queue_term


def convexity_bound(params: ModelParams):
    """Noise ceiling certifying convexity of E; returns (bound, n0 <= bound)."""
    b1 = params.beta1
    f0 = (
        params.lam
        * (1.0 - params.rho)
        * (1.0 - b1 * params.theta) ** 2
        / (params.rho * params.theta**2)
    )
    return f0, params.n0 <= f0


def n0_thresholds(params: ModelParams):
    """Noise constants (n0_0, n0_1) separating the three regimes.

    n0_0 zeroes dE/ds4 at s4=0, n0_1 zeroes it at s4=1. Raises
    DegenerateRegime if they are not strictly ordered.
    """
    b1 = params.beta1
    rho, theta, lam = params.rho, params.theta, params.lam
    n0_0 = lam * b1 * (1.0 - rho) * (1.0 - theta * b1) / (rho * theta)
    num = (
        lam * b1 * (1.0 - rho) * rho
        * (rho + b1 - b1 * rho * (1.0 + theta)) ** 2
        / (b1 + rho - b1 * rho) ** 2
    )
    den = theta * (
        2.0 * b1 * (1.0 - rho) * rho * (1.0 - theta * b1)
        + rho * rho * (1.0 - theta * b1)
        + b1 * b1 * (1.0 - rho) ** 2
    )
    n0_1 = num / den
    if not n0_1 < n0_0:
        raise DegenerateRegime(f"regime constants out of order: n0_1={n0_1} >= n0_0={n0_0}")
    return n0_0, n0_1


def n0_from_m4(m4_bar: float, params: ModelParams) -> float:
    """Noise power whose interior optimum sits at queue-good mass m4_bar.

    Valid on (0, beta1]; evaluates the stationarity identity of the interior
    optimum. At m4_bar = beta1 it returns n0_0, at the always-transmit
    equilibrium mass it returns n0_1.
    """
    b1 = params.beta1
    rho, theta, lam = params.rho, params.theta, params.lam
    if not 0.0 < m4_bar <= b1:
        raise DomainError(f"m4_bar={m4_bar} outside (0, {b1}]")
    den = theta * rho * (theta * m4_bar * (m4_bar - 2.0 * b1) + b1)
    if den <= 0.0:
        raise DomainError(f"nonpositive denominator at m4_bar={m4_bar}")
    return lam * (1.0 - rho) * m4_bar**2 * (1.0 - theta * m4_bar) ** 2 / den


@dataclass
class EquilibriumReport:
    """Regime classification and the optimal equilibrium of the fluid."""

    regime: str
    s4_star: float
    m_star: list
    E_star: float
    n0_0: float
    n0_1: float
    convexity_ok: bool

    def to_json(self, path=None) -> str:
        return write_json({f.name: getattr(self, f.name) for f in fields(self)}, path)


def optimal_equilibrium(params: ModelParams) -> EquilibriumReport:
    """Classify the regime and return the cost-minimizing equilibrium.

    Requires the convexity certificate (the trichotomy relies on it);
    interior optima are located by bisection on the monotone derivative, to an
    absolute width of ``_BISECT_TOL``, or to that width relative to s4* when
    s4* lies below it.
    """
    f0, ok = convexity_bound(params)
    if not ok:
        raise ConvexityUnverified(
            f"n0={params.n0} exceeds the convexity bound {f0}; cannot classify"
        )
    n0_0, n0_1 = n0_thresholds(params)
    if params.n0 >= n0_0:
        regime, s4_star = PASSIVE, 0.0
    elif params.n0 <= n0_1:
        regime, s4_star = ACTIVE, 1.0
    else:
        regime = INTERIOR
        # dE/ds4 < 0 at 0 and > 0 at 1 strictly between the constants; NaN counts as rising
        rising = lambda s4: not equilibrium_cost_derivative(s4, params) < 0.0
        lo, hi = bisect(rising, 0.0, 1.0, _BISECT_TOL)
        if lo == 0.0:
            # s4* lies below the absolute width (near sqrt(rho) for a tiny rho): halve hi
            # until it is under twice s4*, then bisect to a width relative to hi; the
            # halving stops at the least normal float, where hi * _BISECT_TOL still moves
            while hi > sys.float_info.min and rising(0.5 * hi):
                hi *= 0.5
            lo, hi = bisect(rising, 0.5 * hi, hi, _BISECT_TOL * hi)
        s4_star = 0.5 * (lo + hi)
    m_star = equilibrium_measure(s4_star, params)
    return EquilibriumReport(
        regime=regime,
        s4_star=s4_star,
        m_star=m_star.tolist(),
        E_star=equilibrium_cost(s4_star, params),
        n0_0=n0_0,
        n0_1=n0_1,
        convexity_ok=ok,
    )
