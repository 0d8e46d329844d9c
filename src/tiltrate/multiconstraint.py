"""Joint rate function for two simultaneous distortion ceilings.

The exponent of the event that one random codebook satisfies both budgets is
a two-dimensional Legendre transform: maximize
s1*D1 + s2*D2 - sum_x P(x) ln sum_xhat Q(xhat) e^{s1 d1 + s2 d2}
over nonpositive forces (s1, s2).  A budget on its floor holds its table
rigid (s = -inf) on each row's cheapest letters, leaving the other table a
one-table transform on those letters.  Otherwise the objective is concave
with Hessian minus the source-averaged tilted covariance of (d1, d2), so a
damped projected Newton ascent converges fast.  On affinely dependent tables
no Newton step climbs: the objective is linear along the dependence, and
its maximum (if any) sits on a face s1 = 0 or s2 = 0, a one-table transform
solved by ``tilting._legendre``.  Weak duality bounds every satisfiable
pair's rate by -ln min Q, so an ascent that climbs past that, or dependent
tables whose faces both break the Kuhn-Tucker conditions, prove the pair
jointly unsatisfiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePairError, NumericalError, ValidationError
from .ratedistortion import _clean_tables
from .tilting import _at_origin, _end_band, _floored, _legendre, _record, _tilted_pair

__all__ = ["RdProblem2", "rate_two_distortions"]

_MAX_ITER = 200
_ARMIJO = 1e-4
# the duality gap, or the Newton decrement with a looser gap, a return needs, times 1 + |value|
_GAP, _DECREMENT, _DECREMENT_GAP = 1e-9, 1e-12, 1e-6


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


def rate_two_distortions(
    problem: RdProblem2, delta1: float, delta2: float, tol: float = 1e-10
) -> tuple[float, float, float]:
    """Rate in nats for the joint budget pair, plus the maximizing forces.

    Returns (rate, s1, s2) with s_i <= 0: a force of exactly 0 means that
    constraint is slack at the optimum, and -inf that its budget sits on its
    table's floor.  Pairs below the per-table floors, and jointly
    unsatisfiable ones, raise InfeasiblePairError; an ascent that stalls on
    independent tables raises NumericalError.  ``tol`` bounds the projected
    gradient in units of each table's P-weighted range, so the answer does
    not depend on the tables' scale.  That test, or the plateau test, returns only
    once the duality gap |s . (delta - m(s))| backs the value (``_GAP``), or the Newton
    decrement g' cov^-1 g / 2 does with a looser gap: at forces near 1e10 the decrement
    alone trusts a covariance of rounding noise, and on the plateau at |s| ~ 1 the gap
    alone stays near 2e-8 while the value is right to second order.  A face answer
    holds no gap yet, and at stiff forces it can come back about 2e-8 low.
    """
    p, q = problem.source_probs, problem.coding_probs
    unsatisfiable = f"budget pair ({delta1!r}, {delta2!r}) is jointly unsatisfiable"
    # The ascent's stopping tests are absolute, so it runs on each table at
    # origin (rows start at 0) divided by its P-weighted range: the rate is
    # unchanged, and each force comes back divided by that range.
    origins, tables, budgets, scales, floored = [], [], [], [], []
    for name, d, target in (
        ("delta1", problem.distortion_1, delta1),
        ("delta2", problem.distortion_2, delta2),
    ):
        origins.append(_at_origin(p, np.log(q)[None, :], d))
        floor, span = float(np.dot(p, origins[-1].starts)), float(np.dot(p, origins[-1].ranges))
        # _legendre's lower end band decides the floor and refuses nan or a budget below it;
        # a budget past the widest band (span >= D(0) - floor) makes no kernel call
        try:
            floored.append(not target - floor > _end_band(span, floor) and (
                _legendre(origins[-1], target, tol, nonpositive=True, force_only=True)[0] == -math.inf))
        except ValidationError:
            raise InfeasiblePairError(
                f"{name} = {target!r} does not exceed the minimum achievable {floor!r}"
            ) from None
        scales.append(span or 1.0)
        tables.append(origins[-1].values / scales[-1])
        # a budget at or above the table's largest achievable mean never binds, +inf included
        budgets.append(min(target - floor, span) / scales[-1])
    if any(floored):
        # The other table's solve on the floor letters keeps its whole table's end band:
        # restricted to one letter a row, it has no span to give a budget rounded below.
        i, j = floored.index(True), 1 - floored.index(True)
        other = _at_origin(p, origins[i].at_end(-1.0), (problem.distortion_1, problem.distortion_2)[j])
        span = float(np.dot(p, origins[j].ranges))
        try:
            force, rate, _ = _legendre(other, (delta1, delta2)[j], tol, nonpositive=True, band_span=span)
        except ValidationError:
            raise InfeasiblePairError(unsatisfiable) from None
        return (rate, -math.inf, force) if i == 0 else (rate, force, -math.inf)
    # built as a record: the constructor would check and copy both tables again
    scaled = _record(RdProblem2, source_probs=p, coding_probs=q, distortion_1=tables[0], distortion_2=tables[1])
    # Weak duality: every ascent value is at most the rate, and a satisfiable
    # pair's rate is at most the cost -ln min Q of forcing the cheapest
    # reproduction letter everywhere; the margin covers the value's rounding.
    ceiling = -math.log(float(q.min()))
    ceiling += 1e-9 * (1.0 + ceiling)

    s = np.zeros(2)
    value, grad, cov = _stats(scaled, s, *budgets)
    eps = float(np.finfo(float).eps)
    # Every letter carries mass at zero force, so the covariance there is
    # singular exactly when the tables are affinely dependent.
    dependent = cov[0, 1] ** 2 >= (1.0 - 64.0 * eps) * cov[0, 0] * cov[1, 1]
    last = 0.0  # length of the last accepted step: no closing step before one
    for _ in range(_MAX_ITER):
        if value > ceiling:
            raise InfeasiblePairError(unsatisfiable)
        free = ~((s >= 0.0) & (grad > 0.0))
        g_free = grad[free]
        pg_norm = float(np.linalg.norm(g_free))
        try:
            newton = np.linalg.solve(cov[np.ix_(free, free)], g_free)
        except np.linalg.LinAlgError:
            newton = np.full(g_free.shape, math.nan)
        # Second test: the best improvement any step can still predict,
        # ~|pg|^2 / curvature, has fallen below the resolution of the
        # objective value itself, so the iterate sits on the flat plateau
        # around the maximizer and further ascent is numerically meaningless.
        size = 1.0 + abs(value)
        if (pg_norm <= tol or pg_norm * pg_norm <= 8.0 * eps * size) and (
                (gap := abs(float(np.dot(s, grad)))) <= _GAP * size
                or (0.5 * float(np.dot(g_free, newton)) <= _DECREMENT * size and gap <= _DECREMENT_GAP * size)):
            # The plateau leaves the forces wrong from about their 8th digit;
            # one more Newton step squares that error, as
            # ``solvers.invert_monotone`` ends.  It is taken only when it
            # solves and is shorter than the last accepted step.
            if np.all(np.isfinite(newton)) and float(np.linalg.norm(newton)) < last:
                s[free] = np.minimum(s[free] + newton, 0.0)
            return _floored(value), float(s[0] / scales[0]), float(s[1] / scales[1])
        # A Newton step must climb at a rate commensurate with the gradient:
        # on a singular covariance it is infinite, nan, or a vanishing step
        # along the null ray while the gradient points off it.  Dependent
        # tables take none: LAPACK can solve their singular covariance by
        # rounding, into a huge step that backtracking then halves ~40 times.
        climbed = False
        if (not dependent and np.all(np.isfinite(newton))
                and float(np.dot(newton, g_free)) > 1e-12 * float(np.dot(g_free, g_free))):
            step = np.zeros(2)
            step[free] = newton
            alpha = 1.0
            for _ in range(60):
                trial = np.minimum(s + alpha * step, 0.0)
                if np.array_equal(trial, s):
                    break
                t_value, t_grad, t_cov = _stats(scaled, trial, *budgets)
                if t_value >= value + _ARMIJO * float(np.dot(grad, trial - s)):
                    last = float(np.linalg.norm(trial - s))
                    s, value, grad, cov = trial, t_value, t_grad, t_cov
                    climbed = True
                    break
                alpha *= 0.5
        if climbed:
            continue
        # No Newton step climbs.  On affinely dependent tables the objective
        # is linear along the dependence, so its maximum, if any, sits on a
        # face where one force is 0; that face's point is the one-table
        # solve, and it is the maximum when the other budget holds there (its
        # gradient is not below -tol: Kuhn-Tucker).  With neither face a
        # maximum, the objective rises without bound along the dependence.
        # On independent tables it proves nothing: the ascent stalled (at
        # stiff forces the tilted law can sit on two letters per row, where
        # any two tables look dependent).
        for i in (0, 1):
            force, rate, _ = _legendre(origins[i], (delta1, delta2)[i], tol, nonpositive=True)
            at = np.zeros(2)
            at[i] = force * scales[i]
            if _stats(scaled, at, *budgets)[1][1 - i] >= -tol:
                return (rate, force, 0.0) if i == 0 else (rate, 0.0, force)
        if dependent:
            raise InfeasiblePairError(unsatisfiable)
        raise NumericalError("two-force ascent stalled off both faces before reaching tolerance")
    raise NumericalError(f"two-force ascent did not converge in {_MAX_ITER} iterations")
