"""Model parameters, state indexing, and the SINR/power formulas.

A population of transmitters shares a slotted channel. Each user carries a
two-part state (channel level, queue length). Packets succeed when the
receiver SINR clears a threshold ``theta``; arrivals are Bernoulli(``rho``)
per slot; the buffer holds at most ``q_max`` packets and drops on overflow.

State classes are laid out channel-major: the class of a user at channel
level ``l`` (0-based) with queue length ``r`` carries the 1-based flat label

    flat = l * (q_max + 1) + r + 1

so arrays indexed by class use position ``flat - 1``. For the analyzed
two-level unit-buffer case the labels are 1=(BAD,0), 2=(BAD,1), 3=(GOOD,0),
4=(GOOD,1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, NotADistribution, OutOfRange, WrongDimensions

_DIST_TOL = 1e-12
_MEASURE_TOL = 1e-9  # how far a measure's entries and sum may stray from the simplex


@dataclass(frozen=True)
class ModelParams:
    """Physical and statistical constants of the network model.

    Fields
    ------
    k:
        Number of channel levels.
    gains:
        The k channel gains, sorted ascending (worst first). Dimensionless.
    beta:
        Level probabilities of the memoryless channel law (length k).
    rho:
        Per-slot packet arrival probability, in (0, 1).
    theta:
        SINR threshold a transmission must clear.
    n0:
        Receiver noise power, same units as received power.
    lam:
        Queue-holding cost weight (cost per packet per slot).
    p_max:
        Per-user transmit power cap.
    q_max:
        Buffer capacity in packets.
    channel_matrix:
        Optional k-by-k row-stochastic matrix for a Markov channel law;
        entry [i, j] is the probability of moving from level i to level j.
        ``beta`` is still required (used by the memoryless tables).
    """

    k: int
    gains: tuple
    beta: tuple
    rho: float
    theta: float
    n0: float
    lam: float
    p_max: float
    q_max: int
    channel_matrix: tuple | None = None

    @property
    def n_states(self) -> int:
        return self.k * (self.q_max + 1)

    @property
    def beta1(self) -> float:
        """Probability of the best channel level."""
        return self.beta[-1]

    @classmethod
    def good_bad(cls, theta, beta1, rho, lam, n0, p_max=10.0):
        """Validated parameters for the GOOD/BAD channel with a one-packet buffer."""
        params = cls(
            k=2,
            gains=(0.0, 1.0),
            beta=(1.0 - beta1, beta1),
            rho=rho,
            theta=theta,
            n0=n0,
            lam=lam,
            p_max=p_max,
            q_max=1,
        )
        return validate_params(params)


def _check_distribution(vec, what):
    arr = np.asarray(vec, dtype=float)
    if not np.isfinite(arr).all():
        raise NotADistribution(f"{what} has non-finite entries: {arr.tolist()}")
    if np.any(arr < 0.0):
        raise NotADistribution(f"{what} has negative entries: {arr.tolist()}")
    total = float(arr.sum())
    if abs(total - 1.0) > _DIST_TOL:
        raise NotADistribution(f"{what} sums to {total!r}, not 1")


def validate_params(raw: ModelParams) -> ModelParams:
    """Check every model invariant; return the parameters unchanged.

    Raises AssumptionViolation naming the failed condition, or
    NotADistribution for a bad probability vector.
    """
    if raw.k < 1 or len(raw.gains) != raw.k or len(raw.beta) != raw.k:
        raise AssumptionViolation(
            f"need k gains and k level probabilities, got k={raw.k}, "
            f"{len(raw.gains)} gains, {len(raw.beta)} probabilities"
        )
    for name in ("gains", "rho", "theta", "n0", "lam", "p_max"):
        value = getattr(raw, name)
        if not np.isfinite(value).all():
            raise AssumptionViolation(f"{name} must be finite, got {value}")
    if any(g < 0 for g in raw.gains):
        raise AssumptionViolation(f"gains must be nonnegative: {raw.gains}")
    if list(raw.gains) != sorted(raw.gains):
        raise AssumptionViolation(f"gains must be sorted ascending: {raw.gains}")
    _check_distribution(raw.beta, "channel level law")
    if raw.channel_matrix is not None:
        mat = np.asarray(raw.channel_matrix, dtype=float)
        if mat.shape != (raw.k, raw.k):
            raise AssumptionViolation(
                f"channel matrix must be {raw.k}x{raw.k}, got {mat.shape}"
            )
        for i in range(raw.k):
            _check_distribution(mat[i], f"channel matrix row {i}")
    if not 0.0 < raw.theta < 1.0:
        raise AssumptionViolation(
            f"Assumption 1 violated: need 0 < theta < 1, got theta={raw.theta}"
        )
    if raw.n0 <= 0.0:
        raise AssumptionViolation(f"noise power must be positive, got {raw.n0}")
    for g in raw.gains:
        if g > 0.0:
            cap = raw.p_max * g / (raw.n0 + raw.p_max * g)
            if raw.theta > cap:
                raise AssumptionViolation(
                    "Assumption 2 violated: need theta <= p_max*c/(n0 + p_max*c) "
                    f"for gain c={g}; theta={raw.theta} > {cap}"
                )
    require_arrival_probability(raw)
    if raw.lam < 0.0:
        raise AssumptionViolation(f"queue weight must be nonnegative, got {raw.lam}")
    if raw.q_max < 1:
        raise AssumptionViolation(f"buffer capacity must be >= 1, got {raw.q_max}")
    return raw


def require_arrival_probability(params: ModelParams):
    """Raise AssumptionViolation unless the arrival probability rho lies in (0, 1)."""
    if not 0.0 < params.rho < 1.0:
        raise AssumptionViolation(f"arrival probability must lie in (0,1), got {params.rho}")


def require_good_bad(params: ModelParams):
    """Guard for operations specialized to the two-level unit-buffer case."""
    if params.k != 2 or params.q_max != 1:
        raise WrongDimensions(
            f"operation requires k=2 channel levels and q_max=1, "
            f"got k={params.k}, q_max={params.q_max}"
        )
    if tuple(params.gains) != (0.0, 1.0):
        raise AssumptionViolation(
            f"analysis requires GOOD/BAD gains (0, 1), got {params.gains}"
        )


@dataclass(frozen=True)
class StateIndex:
    """One user class: channel level, queue length, and its 1-based flat label."""

    level: int
    queue: int
    flat: int


def state_index(level: int, queue: int, params: ModelParams) -> StateIndex:
    """Map (channel level, queue length) to its flat label."""
    if not 0 <= level < params.k:
        raise OutOfRange(f"channel level {level} outside [0, {params.k})")
    if not 0 <= queue <= params.q_max:
        raise OutOfRange(f"queue length {queue} outside [0, {params.q_max}]")
    return StateIndex(level=level, queue=queue, flat=level * (params.q_max + 1) + queue + 1)


def state_from_flat(flat: int, params: ModelParams) -> StateIndex:
    """Inverse of state_index; accepts 1-based flat labels."""
    if not 1 <= flat <= params.n_states:
        raise OutOfRange(f"flat label {flat} outside [1, {params.n_states}]")
    level, queue = divmod(flat - 1, params.q_max + 1)
    return StateIndex(level=level, queue=queue, flat=flat)


def sigma(flat: int, params: ModelParams) -> int:
    """Queue length of the class with the given flat label."""
    return state_from_flat(flat, params).queue


def class_gains(params: ModelParams) -> np.ndarray:
    """Gain of each class, in array order (length n_states)."""
    return np.repeat(np.asarray(params.gains, dtype=float), params.q_max + 1)


def class_queues(params: ModelParams) -> np.ndarray:
    """Queue length of each class, in array order."""
    return np.tile(np.arange(params.q_max + 1), params.k)


def control_support_ok(s, params: ModelParams) -> bool:
    """Check the activation support rule: only useful classes transmit.

    Classes with zero gain can never clear the SINR threshold and classes
    with an empty queue have nothing to send, so their activation must be
    zero.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0) or np.any(s > 1.0):
        return False
    blocked = (class_gains(params) == 0.0) | (class_queues(params) == 0)
    return bool(np.all(s[blocked] == 0.0))


def validate_measure(m) -> np.ndarray:
    """Check a population measure, or each row of a stack of them, lies on the
    probability simplex to _MEASURE_TOL; a NaN entry fails the range check. The
    error shows the first row that fails."""
    m = np.asarray(m, dtype=float)
    rows = np.atleast_2d(m)
    inside = ((rows >= -_MEASURE_TOL) & (rows <= 1.0 + _MEASURE_TOL)).all(axis=1)
    if not inside.all():
        bad = rows[np.argmin(inside)].tolist()
        raise NotADistribution(f"measure entries outside [0, 1]: {bad}")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > _MEASURE_TOL
    if off.any():
        raise NotADistribution(f"measure sums to {float(sums[np.argmax(off)])!r}, not 1")
    return m


def power_star(s, m, params: ModelParams) -> np.ndarray:
    """Per-class average power that pins the class SINR at theta * s_i.

    ``s`` is the activation profile (fraction of each class transmitting)
    and ``m`` the population measure over classes. Classes with zero gain
    get zero power. Under Assumptions 1 and 2 the result lies in [0, p_max].
    """
    s = np.asarray(s, dtype=float)
    m = np.asarray(m, dtype=float)
    gains = class_gains(params)
    load = float(np.dot(s, m))
    denom = 1.0 - params.theta * load
    p = np.zeros_like(s)
    active = gains > 0.0
    p[active] = params.theta * params.n0 * s[active] / (gains[active] * denom)
    return p


def mean_field_sinr(i: int, p, m, params: ModelParams) -> float:
    """SINR of class ``i`` (0-based position) under measure-weighted interference."""
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    gains = class_gains(params)
    interference = float(np.dot(p * gains, m))
    return gains[i] * p[i] / (interference + params.n0)


def finite_sinr(n: int, h, p, big_n: int, params: ModelParams) -> float:
    """SINR of user ``n`` in a population of ``big_n`` users.

    Interference is averaged with weight 1/big_n per interferer.
    """
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    other = float(np.dot(h, p)) - h[n] * p[n]
    return h[n] * p[n] / (other / big_n + params.n0)


def rate(n: int, h, p, big_n: int, params: ModelParams) -> int:
    """1 if user n's packet gets through this slot, else 0."""
    return int(finite_sinr(n, h, p, big_n, params) >= params.theta)


def bisect(crossed, lo: float, hi: float, tol: float):
    """Halve [lo, hi] until it is at most tol wide: hi moves to each midpoint where
    ``crossed(mid)`` holds, lo to the others. Returns (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    return lo, hi


_CSV_BLOCK = 4096  # rows formatted per write


def write_csv(path, header: str, formats, columns) -> None:
    """Write equal-length columns (else ValueError) as CSV under a header line, value
    v of column j as ``formats[j] % v`` (one format per column, else ValueError),
    commas between and a newline after each row, a block of rows at a time: within
    a block each distinct value of a column, told apart by its bits (0.0 and -0.0
    are two), is formatted once."""
    if len(formats) != len(columns):
        raise ValueError(f"{len(formats)} formats for {len(columns)} columns")
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    pieces = [fmt + "," for fmt in formats[:-1]] + [formats[-1] + "\n"]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK):
            texts = []
            for piece, col in zip(pieces, columns):
                block = col[i : i + _CSV_BLOCK]
                bits = block.view(f"u{block.dtype.itemsize}")  # TypeError for other widths
                _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
                distinct = np.array([piece % (v,) for v in block[first].tolist()], dtype=object)
                texts.append(distinct[inverse])
            fh.write("".join(np.stack(texts, axis=1).ravel().tolist()))


def write_json(payload, path=None) -> str:
    """``payload`` as indented JSON with sorted keys; also written to ``path``,
    with a trailing newline, when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
