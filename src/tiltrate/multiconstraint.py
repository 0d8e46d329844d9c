"""Joint rate function for two simultaneous distortion ceilings.

The exponent of the event that one random codebook satisfies both budgets is
a two-dimensional Legendre transform: maximize
s1*D1 + s2*D2 - sum_x P(x) ln sum_xhat Q(xhat) e^{s1 d1 + s2 d2}
over nonpositive forces (s1, s2).  The objective is concave with Hessian
minus the source-averaged tilted covariance of (d1, d2), so a damped
projected Newton ascent converges fast; a plain projected gradient step
covers the rank-deficient cases (duplicated or affinely dependent tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InfeasiblePairError, NumericalError
from .ratedistortion import _clean_tables
from .tilting import _at_origin, _tilted_pair

__all__ = ["RdProblem2", "rate_two_distortions"]

_MAX_ITER = 200
_ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class RdProblem2:
    """Source law, coding law, and two distortion tables over the same letters."""

    source_probs: np.ndarray
    coding_probs: np.ndarray
    distortion_1: np.ndarray
    distortion_2: np.ndarray

    def __post_init__(self):
        _clean_tables(self, "distortion_1", "distortion_2")


def _stats(problem: RdProblem2, s: np.ndarray, delta1: float, delta2: float):
    """Objective value, gradient, and tilted covariance at force pair s."""
    p = problem.source_probs
    log_q = np.log(problem.coding_probs)[None, :]
    phi, m1, m2, *rows = _tilted_pair(log_q, problem.distortion_1, problem.distortion_2, s[0], s[1])
    cov11, cov22, cov12 = (float(np.dot(p, row)) for row in rows)
    value = s[0] * delta1 + s[1] * delta2 - float(np.dot(p, phi))
    grad = np.array([delta1 - float(np.dot(p, m1)), delta2 - float(np.dot(p, m2))])
    return value, grad, np.array([[cov11, cov12], [cov12, cov22]])


def _closing_step(s: np.ndarray, free: np.ndarray, grad: np.ndarray, cov: np.ndarray, last: float) -> np.ndarray:
    """s moved by one Newton step on the free set, as ``solvers.invert_monotone`` ends.

    The plateau test accepts a projected gradient up to ~5e-8, which leaves
    the forces wrong from about their 8th digit; the Newton step from there
    squares that error.  It is taken only when the free covariance block
    solves and the step is shorter than ``last``, the last accepted step.
    """
    try:
        step = np.linalg.solve(cov[np.ix_(free, free)], grad[free])
    except np.linalg.LinAlgError:
        return s
    if not (np.all(np.isfinite(step)) and float(np.linalg.norm(step)) < last):
        return s
    closed = s.copy()
    closed[free] += step
    return np.minimum(closed, 0.0)


def rate_two_distortions(
    problem: RdProblem2, delta1: float, delta2: float, tol: float = 1e-10
) -> tuple[float, float, float]:
    """Rate in nats for the joint budget pair, plus the maximizing forces.

    Returns (rate, s1, s2) with s_i <= 0; a force of exactly 0 means that
    constraint is slack at the optimum.  Pairs below the per-table floors,
    or jointly unsatisfiable ones (detected when the concave objective
    climbs past the log cost any satisfiable event can have), raise
    InfeasiblePairError.  ``tol`` bounds the projected gradient in units of
    each table's P-weighted range, so the answer does not depend on the
    tables' scale.
    """
    p, q = problem.source_probs, problem.coding_probs
    # The ascent's stopping tests are absolute, so it runs on each table at
    # origin (rows start at 0) divided by its P-weighted range: the rate is
    # unchanged, and each force comes back divided by that range.
    tables, budgets, scales = [], [], []
    for name, d, target in (
        ("delta1", problem.distortion_1, delta1),
        ("delta2", problem.distortion_2, delta2),
    ):
        _, _, table, low, ranges = _at_origin(p, np.log(q)[None, :], d)
        floor = float(np.dot(p, low))
        if not math.isfinite(target) or target <= floor:
            raise InfeasiblePairError(
                f"{name} = {target!r} does not exceed the minimum achievable {floor!r}"
            )
        scales.append(float(np.dot(p, ranges)) or 1.0)
        tables.append(table / scales[-1])
        budgets.append((target - floor) / scales[-1])
    # _stats reads only these four arrays; an RdProblem2 would copy both tables
    scaled = SimpleNamespace(source_probs=p, coding_probs=q, distortion_1=tables[0], distortion_2=tables[1])
    # Any satisfiable pair has rate at most the cost of forcing the single
    # cheapest reproduction letter everywhere.
    ceiling = -math.log(float(q.min())) + 0.5

    s = np.zeros(2)
    value, grad, cov = _stats(scaled, s, *budgets)
    eps = float(np.finfo(float).eps)
    last = 0.0  # length of the last accepted step: no closing step before one

    def done():
        # the rate in hand, and the forces closed by one Newton step, each divided by its scale
        closed = _closing_step(s, ~pinned, grad, cov, last)
        return float(max(value, 0.0)), float(closed[0] / scales[0]), float(closed[1] / scales[1])

    for _ in range(_MAX_ITER):
        pinned = (s >= 0.0) & (grad > 0.0)
        projected_grad = np.where(pinned, 0.0, grad)
        pg_norm = float(np.linalg.norm(projected_grad))
        # Second test: the best improvement any step can still predict,
        # ~|pg|^2 / curvature, has fallen below the resolution of the
        # objective value itself, so the iterate sits on the flat plateau
        # around the maximizer and further ascent is numerically meaningless.
        if pg_norm <= tol or pg_norm * pg_norm <= 8.0 * eps * (1.0 + abs(value)):
            return done()
        if value > ceiling:
            raise InfeasiblePairError(
                f"budget pair ({delta1!r}, {delta2!r}) is jointly unsatisfiable"
            )
        free = ~pinned
        sub = cov[np.ix_(free, free)]
        g_free = grad[free]
        # A Newton or pseudoinverse step must climb at a rate commensurate
        # with the gradient itself; a singular covariance (affinely dependent
        # tables) otherwise yields a vanishing step along the null ray that
        # passes a bare positivity test while the gradient still points off
        # the ray.  Plain ascent always stays on the menu as the backstop.
        ascent_floor = 1e-12 * float(np.dot(g_free, g_free))
        directions = []
        try:
            cand = np.linalg.solve(sub, g_free)
            if np.all(np.isfinite(cand)) and float(np.dot(cand, g_free)) > ascent_floor:
                directions.append(cand)
        except np.linalg.LinAlgError:
            pass
        if not directions:
            cand = np.linalg.pinv(sub) @ g_free
            if np.all(np.isfinite(cand)) and float(np.dot(cand, g_free)) > ascent_floor:
                directions.append(cand)
        directions.append(g_free)

        accepted = False
        for index, direction in enumerate(directions):
            step = np.zeros(2)
            step[free] = direction
            alpha = 1.0
            if index == len(directions) - 1:
                # Plain-ascent backstop: open the line search wide enough to
                # reach the nearest upper bound, so a coordinate headed for
                # zero force pins there in one step instead of crawling (on a
                # degenerate table the gradient is constant along its own
                # direction, so fixed unit steps crawl).  Newton steps keep
                # their natural unit scale.
                rising = (step > 0.0) & (s < 0.0)
                if np.any(rising):
                    crossing = float(np.min(-s[rising] / step[rising]))
                    alpha = max(1.0, min(crossing, 1e8))
            for _ in range(60):
                trial = np.minimum(s + alpha * step, 0.0)
                if np.array_equal(trial, s):
                    break
                t_value, t_grad, t_cov = _stats(scaled, trial, *budgets)
                if t_value >= value + _ARMIJO * float(np.dot(grad, trial - s)):
                    last = float(np.linalg.norm(trial - s))
                    s, value, grad, cov = trial, t_value, t_grad, t_cov
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                break
        if not accepted:
            # No direction produced a representable gain, so the line search
            # has proven the plateau directly; accept if the optimality
            # residual is small on the value's own scale.
            if pg_norm <= max(tol, 1e-9) or pg_norm * pg_norm <= 64.0 * eps * (1.0 + abs(value)):
                return done()
            raise NumericalError("two-force ascent stalled before reaching tolerance")
    raise NumericalError(f"two-force ascent did not converge in {_MAX_ITER} iterations")
