"""Channel rates through the distortion formalism.

Take d(x, xhat) = -ln W(x | xhat) as the distortion a codeword xhat pays for
output x, let the source law be the channel's output marginal, and let the
coding law be the input law: one table (``_table``), a row per output letter
and a column per input letter.  At force -1 each row's tilted law is the
posterior q(xhat | x), so the kernel's row-weighted tilted mean there is the
budget, the conditional entropy H(X | Xhat), and the Legendre rate there,
with no root solve, is exactly the mutual information, cross-checked against
the direct sum to machine accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelDegenerateError, ValidationError
from .tilting import PROB_TOL, _at_origin, _floats, _floored, _frozen, _law, _Table

__all__ = ["Channel", "CapacityPoint", "capacity_point", "mutual_information"]


@dataclass(frozen=True, eq=False)
class Channel:
    """Transition matrix (row = input letter, column = output letter) plus an input law."""

    transition: np.ndarray
    input_probs: np.ndarray

    def __post_init__(self):
        w, q = _floats(self.transition, "transition"), _floats(self.input_probs, "input_probs").ravel()
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


def mutual_information(channel: Channel) -> float:
    """I(Xhat; X) in nats for the given input law: the direct sum over positive entries, apart from the kernel."""
    w, q = channel.transition, channel.input_probs
    p_out, mask = q @ w, (w > 0.0) & (q[:, None] > 0.0)
    ratio = np.ones_like(w)
    np.divide(w, p_out[None, :], out=ratio, where=mask)
    terms = np.zeros_like(w)
    np.log(ratio, out=terms, where=mask)
    return _floored((q[:, None] * w * terms)[mask].sum())


def _table(channel: Channel) -> _Table:
    """The ``tilting._Table`` of d = -ln W, weighted by the output marginal qW: a row per output letter
    x and a column per input letter xhat, its values -ln W(x | xhat) and its log-weights ln q(xhat)
    where both carry mass (-inf, with the value 0, elsewhere), each written into a fresh C-ordered
    array.  ``ChannelDegenerateError`` for an output letter that no input reaches."""
    w, q = channel.transition, channel.input_probs
    p_out = q @ w
    if np.any(p_out <= 0.0):
        raise ChannelDegenerateError(f"output letter {int(np.argmin(p_out))} has zero probability under "
                                     "(input_probs, transition)")
    support = (w.T > 0.0) & (q > 0.0)
    dist = np.log(w.T, out=np.zeros(support.shape), where=support)
    log_w = np.log(np.broadcast_to(q, support.shape), out=np.full(support.shape, -math.inf), where=support)
    return _at_origin(p_out, log_w, np.negative(dist, out=dist))


def capacity_point(channel: Channel) -> CapacityPoint:
    """Mutual information recovered as a Legendre rate, from one order-1 kernel call on ``_table``.

    The rate-distortion instance has source = output marginal, coding law = input law and
    d = -ln W.  Zero transition entries get -inf log-weights, so they never carry tilted mass (an
    infinite distortion at negative force), and their missing mass enters the rate through each
    output letter's log-partition.  At the kernel force for -1 each row's tilted law is the
    posterior q(xhat | x), so the row-weighted tilted mean is the budget H(X | Xhat): at origin and
    in units it is the rate's level, and moved back by ``means_from_origin`` it is ``delta``.  The
    rate needs no solve; where every output row is one value on its support (the identity channel)
    it does not depend on the force, and s_star is reported as 0.
    """
    table = _table(channel)
    s = table.force(-1.0)
    log_z, means = table.grid(s, 1)
    delta = _floored(np.dot(table.row_weights, table.means_from_origin(means)))
    rate = table.rate(s, float(np.dot(table.row_weights, means)), log_z)
    return CapacityPoint(rate=rate, s_star=0.0 if table.one_valued else -1.0, delta=delta)
