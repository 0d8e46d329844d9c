"""Channel rates through the distortion formalism.

Take d(x, xhat) = -ln W(x | xhat) as the distortion a codeword xhat pays for
output x, let the source law be the channel's output marginal, and set the
budget to the conditional entropy H(X | Xhat).  The Legendre rate at that
budget is exactly the mutual information, attained at unit force magnitude;
the two routes are independent enough to cross-check each other to machine
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelDegenerateError, ValidationError
from .tilting import PROB_TOL, _at_origin, _frozen, _law, _legendre

__all__ = ["Channel", "CapacityPoint", "capacity_point", "mutual_information"]


@dataclass(frozen=True, eq=False)
class Channel:
    """Transition matrix (row = input letter, column = output letter) plus an input law."""

    transition: np.ndarray
    input_probs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.transition, dtype=float)
        q = np.asarray(self.input_probs, dtype=float).ravel()
        if w.ndim != 2 or w.shape[0] != q.size:
            raise ValidationError(
                f"transition must have one row per input letter (shape {w.shape}, {q.size} inputs)"
            )
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("transition entries must be finite and nonnegative")
        row_sums = w.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > PROB_TOL):
            raise ValidationError("each transition row must sum to 1")
        _frozen(self, transition=w, input_probs=_law(q, "input_probs"))


@dataclass(frozen=True)
class CapacityPoint:
    rate: float
    s_star: float
    delta: float


def _output_marginal(channel: Channel) -> np.ndarray:
    return channel.input_probs @ channel.transition


def mutual_information(channel: Channel) -> float:
    """I(Xhat; X) in nats for the given input law, summed over positive entries."""
    w = channel.transition
    q = channel.input_probs
    p_out = _output_marginal(channel)
    mask = (w > 0.0) & (q[:, None] > 0.0)
    ratio = np.ones_like(w)
    np.divide(w, p_out[None, :], out=ratio, where=mask)
    terms = np.zeros_like(w)
    np.log(ratio, out=terms, where=mask)
    return float((q[:, None] * w * terms)[mask].sum())


def capacity_point(channel: Channel) -> CapacityPoint:
    """Mutual information recovered as a Legendre rate.

    Builds the rate-distortion instance with source = output marginal,
    coding law = input law, d = -ln W; the distortion budget is
    H(X | Xhat).  Zero transition entries get -inf log-weights, so they
    never carry tilted mass (an infinite distortion at negative force), and
    their missing mass enters the rate through each output letter's
    log-partition.  The force is solved by a bracketed Newton iteration run
    to machine width; it lands at -1 whenever the channel is nondegenerate,
    and is reported as 0 when the budget sits at an end (a degenerate channel).
    """
    w = channel.transition
    q = channel.input_probs
    p_out = _output_marginal(channel)
    if np.any(p_out <= 0.0):
        dead = int(np.argmin(p_out))
        raise ChannelDegenerateError(
            f"output letter {dead} has zero probability under (input_probs, transition)"
        )

    # conditional entropy H(X | Xhat), with 0 ln 0 = 0
    mask = (w > 0.0) & (q[:, None] > 0.0)
    logs = np.zeros_like(w)
    np.log(w, out=logs, where=mask)
    delta = float(-(q[:, None] * w * logs)[mask].sum())

    # one row per output letter x, one column per input letter xhat
    support = mask.T
    dist = -logs.T
    log_w = np.full(support.shape, -math.inf)
    np.log(np.broadcast_to(q, support.shape), out=log_w, where=support)

    # The budget on the rows at origin: every term is nonnegative, so no digit is lost to the
    # difference delta - sum_x p_x start_x, two nearly equal terms when the rows nearly agree.
    table = _at_origin(p_out, log_w, dist)
    level = float((q[:, None] * w * (-logs - table.starts))[mask].sum())
    # tol = 0 runs the iteration to machine width so the force itself is pinned
    s, rate, _ = _legendre(table._replace(starts=np.zeros_like(table.starts)), level, 0.0, nonpositive=True)
    # at an end each output row is constant on its support: the rate is the pure mass cost
    return CapacityPoint(rate=rate, s_star=0.0 if math.isinf(s) else float(s), delta=delta)
