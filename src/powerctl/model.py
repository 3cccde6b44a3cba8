"""Model parameters and their validation, and the helpers the other modules share:
one interval bisection and the CSV and JSON writers.

A population of transmitters shares a slotted channel. Each user carries a
two-part state: a GOOD or BAD channel and a queue of 0 or 1 packets.
Packets succeed when the receiver SINR clears a threshold ``theta``;
arrivals are Bernoulli(``rho``) per slot and a full buffer drops them.
Arrays indexed by class use the labels 1=(BAD,0), 2=(BAD,1), 3=(GOOD,0),
4=(GOOD,1) at positions 0 to 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, NotADistribution

_DIST_TOL = 1e-12
_MEASURE_TOL = 1e-9  # how far a measure's entries and sum may stray from the simplex
_RATE_FLOOR = 2.0**-511  # least rho * theta: its square is the least normal float, 2^-1022


@dataclass(frozen=True)
class ModelParams:
    """Physical and statistical constants of the network model, checked on
    construction: ``__post_init__`` runs ``validate_params``, so the raw
    constructor, ``good_bad`` and ``dataclasses.replace`` all refuse what it
    refuses. The fields k, gains and q_max are fixed at 2, (0, 1) and 1.

    Fields
    ------
    k:
        Number of channel levels, 2.
    gains:
        The channel gains (BAD, GOOD), fixed at (0, 1). Dimensionless.
    beta:
        Probabilities (BAD, GOOD) of the memoryless channel law.
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
        Buffer capacity in packets, 1.
    channel_matrix:
        Optional 2-by-2 row-stochastic matrix for a Markov channel law;
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

    def __post_init__(self):
        validate_params(self)

    @property
    def beta1(self) -> float:
        """Probability of the GOOD channel level."""
        return self.beta[-1]

    @classmethod
    def good_bad(cls, theta, beta1, rho, lam, n0, p_max=10.0):
        """Parameters for the GOOD/BAD channel with a one-packet buffer."""
        return cls(
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
    ``ModelParams`` runs it on construction.

    Raises AssumptionViolation naming the failed condition, or
    NotADistribution for a bad probability vector.
    """
    if (raw.k, tuple(raw.gains), len(raw.beta), raw.q_max) != (2, (0.0, 1.0), 2, 1):
        raise AssumptionViolation(
            "the model is GOOD/BAD channels with a one-packet buffer: need k=2, gains "
            f"(0, 1), 2 level probabilities and q_max=1, got k={raw.k}, gains "
            f"{raw.gains}, {len(raw.beta)} probabilities, q_max={raw.q_max}"
        )
    for name in ("rho", "theta", "n0", "lam", "p_max"):
        value = getattr(raw, name)
        if not np.isfinite(value):
            raise AssumptionViolation(f"{name} must be finite, got {value}")
    _check_distribution(raw.beta, "channel level law")
    if raw.channel_matrix is not None:
        mat = np.asarray(raw.channel_matrix, dtype=float)
        if mat.shape != (2, 2):
            raise AssumptionViolation(f"channel matrix must be 2x2, got {mat.shape}")
        for i in range(2):
            _check_distribution(mat[i], f"channel matrix row {i}")
    if not 0.0 < raw.theta < 1.0:
        raise AssumptionViolation(
            f"Assumption 1 violated: need 0 < theta < 1, got theta={raw.theta}"
        )
    if raw.n0 <= 0.0:
        raise AssumptionViolation(f"noise power must be positive, got {raw.n0}")
    cap = raw.p_max / (raw.n0 + raw.p_max)
    if raw.theta > cap:
        raise AssumptionViolation(
            f"Assumption 2 violated: need theta <= p_max/(n0 + p_max); theta={raw.theta} > {cap}"
        )
    if not 0.0 < raw.rho < 1.0:
        raise AssumptionViolation(f"arrival probability must lie in (0,1), got {raw.rho}")
    if raw.rho * raw.theta < _RATE_FLOOR:
        raise AssumptionViolation(
            "need rho * theta >= 2^-511 (about 1.49e-154): the convexity bound divides by "
            "rho theta^2, the regime constants by rho theta and the fluid's passive arc "
            "twice by rho, and (rho theta)^2, the least of these, must be a normal float; "
            f"got rho={raw.rho}, theta={raw.theta}"
        )
    if raw.lam < 0.0:
        raise AssumptionViolation(f"queue weight must be nonnegative, got {raw.lam}")
    return raw


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
    commas between and a newline after each row. A row whose columns after the first
    hold the bits of the row above (0.0 and -0.0 are two) starts no new run: each run
    formats its tail, the columns after the first, once, and the rows of a block are
    written by one ``%`` over the first column's values and their runs' tails. A column
    with no unsigned view of its width (complex128, object) raises TypeError; nothing is
    written before these checks."""
    if len(formats) != len(columns):
        raise ValueError(f"{len(formats)} formats for {len(columns)} columns")
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    bits = [col.view(f"u{col.dtype.itemsize}") for col in columns]  # TypeError for other widths
    n_rows = len(columns[0])
    starts = np.zeros(n_rows, dtype=bool)
    starts[::_CSV_BLOCK] = True  # each block opens a run
    for col in bits[1:]:
        starts[1:] |= col[1:] != col[:-1]
    tail = "".join("," + fmt for fmt in formats[1:]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, n_rows, _CSV_BLOCK):
            first = columns[0][i : i + _CSV_BLOCK].tolist()
            runs = np.flatnonzero(starts[i : i + _CSV_BLOCK]) + i
            if len(columns) > 1:
                tails = [tail % row for row in zip(*(col[runs].tolist() for col in columns[1:]))]
            else:
                tails = [tail]
            lengths = np.diff(runs, append=i + len(first))
            cells = [None] * (2 * len(first))
            cells[::2] = first
            cells[1::2] = np.repeat(np.array(tails, dtype=object), lengths).tolist()
            fh.write(((formats[0] + "%s") * len(first)) % tuple(cells))


def write_json(payload, path=None) -> str:
    """``payload`` as indented JSON with sorted keys; also written to ``path``,
    with a trailing newline, when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
