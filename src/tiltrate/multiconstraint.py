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
solved by ``tilting._legendre``.  A pair is jointly unsatisfiable exactly
when some mix a*d1 + (1 - a)*d2 has its budget a*D1 + (1 - a)*D2 below its
floor, and the forces run off along a.  So an ascent that stops without an
answer refuses the pair when that slack, at its least over a in [0, 1], is
below minus the mixed table's end band (``tilting._end_band``), as no
frontier pair's is; else it stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePairError, NumericalError, ValidationError
from .ratedistortion import _clean_tables
from .tilting import _HOLD, _at_origin, _check_number, _check_tol, _end_band, _floored, _legendre

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


def _evaluate(p: np.ndarray, t1, t2, s1: float, s2: float, delta1: float, delta2: float):
    """Objective value, gradient and tilted covariance at forces (s1, s2) from one kernel call
    (``tilting._Table.pair``), as six floats (value, g1, g2, c11, c22, c12), for source law ``p``
    and the ``tilting._Table``s ``t1`` and ``t2``, which share their log-weights.  The six per-row
    outputs are reduced by the source law in one ``np.vecdot``, the ``ddot`` of ``np.dot`` on each."""
    phi, m1, m2, c11, c22, c12 = np.vecdot(np.array(t1.pair(t2, s1, s2)), p).tolist()
    return s1 * delta1 + s2 * delta2 - phi, delta1 - m1, delta2 - m2, c11, c22, c12


def rate_two_distortions(
    problem: RdProblem2, delta1: float, delta2: float, tol: float = 1e-10
) -> tuple[float, float, float]:
    """Rate in nats for the joint budget pair, plus the maximizing forces.

    Returns (rate, s1, s2) with s_i <= 0: a force of exactly 0 means that
    constraint is slack at the optimum, and -inf that its budget sits on its
    table's floor.  A nan budget, or one below its table's floor, raises InfeasiblePairError,
    and so does an ascent that stops without an answer where the least slack
    over the mixes of the two tables is below the band (module docstring); any
    other stop raises NumericalError.  ``tol`` bounds the projected
    gradient in units of each table's P-weighted range, so the answer does
    not depend on the tables' scale.  That test, or the plateau test, returns only
    once the duality gap |s . (delta - m(s))| backs the value (``_GAP``), or the Newton
    decrement g' cov^-1 g / 2 does with a looser gap: at forces near 1e10 the decrement
    alone trusts a covariance of rounding noise, and on the plateau at |s| ~ 1 the gap
    alone stays near 2e-8 while the value is right to second order.  The plateau test
    never returns a force held at 0 whose mean exceeds its budget, as the gap has no
    term for it.  A nan, negative or infinite ``tol`` raises ValidationError
    (``tilting._check_tol``).

    At k = 2 about half of a call is the kernel (``_evaluate``), and numpy's fixed cost
    per call on 2-vectors once outweighed it, so the loop keeps its forces, gradient and
    covariance as floats.  A step with both forces free still takes LAPACK's 2x2 solve,
    whose bits the answers keep; with one free, g_i / c_ii is LAPACK's 1x1 solve.  A
    closed form would save about a fifth of a k = 2 call, but it changes outcomes, not
    just bits: on the stiff recipe Cramer's rule stalls on two more draws of 3,000, and
    elimination with partial pivoting also answers a frontier pair low.
    """
    _check_tol(tol)  # before the floor test, which reads a ValidationError as a budget below the floor
    for name, target in (("delta1", delta1), ("delta2", delta2)):
        _check_number(target, name, InfeasiblePairError)
    p = problem.source_probs
    unsatisfiable = f"budget pair ({delta1!r}, {delta2!r}) is jointly unsatisfiable"
    # The ascent's stopping tests are absolute, so it runs on each table lowered (``_at_origin``):
    # at origin (rows start at 0) and in its units, where the rate is unchanged, each force leaves by
    # ``force_from_unit``, and a gradient over the table's ``extent`` is in its P-weighted range.
    log_q = np.log(problem.coding_probs)[None, :]  # ln Q as one row, taken once per solve
    tables, budgets, floored = [], [], []
    for name, d, target in (
        ("delta1", problem.distortion_1, delta1),
        ("delta2", problem.distortion_2, delta2),
    ):
        tables.append(_at_origin(p, log_q, d))
        span, floor = tables[-1].span, tables[-1].floor()
        # _legendre's lower end band decides the floor and refuses a budget below it;
        # a budget past the widest band (span >= D(0) - floor) makes no kernel call
        try:
            floored.append(not target - floor > _end_band(span, floor) and (
                _legendre(tables[-1], target, tol, nonpositive=True, force_only=True)[0] == -math.inf))
        except ValidationError:
            raise InfeasiblePairError(
                f"{name} = {target!r} does not exceed the minimum achievable {floor!r}"
            ) from None
        # a budget at or above the table's largest achievable mean never binds, +inf included
        budgets.append(tables[-1].in_units(min(target - floor, span)))
    if any(floored):
        # The other table's solve on the floor letters keeps its whole table's end band:
        # restricted to one letter a row, it has no span to give a budget rounded below.
        i, j = floored.index(True), 1 - floored.index(True)
        other = _at_origin(p, tables[i].at_end(-1.0), (problem.distortion_1, problem.distortion_2)[j])
        try:
            force, rate, _ = _legendre(other, (delta1, delta2)[j], tol, nonpositive=True, band_span=tables[j].span)
        except ValidationError:
            raise InfeasiblePairError(unsatisfiable) from None
        force = other.force_from_unit(force)
        return (rate, -math.inf, force) if i == 0 else (rate, force, -math.inf)
    # a step stops at the kernel's hold (``_Table.forces``), where each product of a force and a value is finite
    (extent1, hold1), (extent2, hold2) = ((table.extent, -_HOLD / max(table.widest, 1.0)) for table in tables)
    s1 = s2 = 0.0
    value, g1, g2, c11, c22, c12 = _evaluate(p, *tables, s1, s2, *budgets)
    eps = float(np.finfo(float).eps)
    # Every letter carries mass at zero force, so the covariance there is
    # singular exactly when the tables are affinely dependent.
    dependent = c12 ** 2 >= (1.0 - 64.0 * eps) * c11 * c22
    last = 0.0  # length of the last accepted step: no closing step before one
    stop = f"did not converge in {_MAX_ITER} iterations"
    for _ in range(_MAX_ITER):
        # A force at 0 whose gradient pushes it up is held there: its gradient and Newton entries are 0.
        free1, free2 = not (s1 >= 0.0 and g1 > 0.0), not (s2 >= 0.0 and g2 > 0.0)
        h1, h2 = g1 if free1 else 0.0, g2 if free2 else 0.0
        if free1 and free2:
            try:
                n1, n2 = np.linalg.solve(np.array([[c11, c12], [c12, c22]]), np.array([g1, g2])).tolist()
            except np.linalg.LinAlgError:
                n1 = n2 = math.nan
        else:  # LAPACK's 1x1 solve, bit for bit, which refuses a zero variance
            n1 = (g1 / c11 if c11 != 0.0 else math.nan) if free1 else 0.0
            n2 = (g2 / c22 if c22 != 0.0 else math.nan) if free2 else 0.0
        k1, k2 = h1 / extent1, h2 / extent2  # in units of each table's span, which the stopping tests read
        pg_norm = math.sqrt(k1 * k1 + k2 * k2)
        # Second test: the best improvement any step can still predict,
        # ~|pg|^2 / curvature, is below the resolution of the value, so the
        # iterate sits on the flat plateau around the maximizer, unless a
        # force held at 0 has its mean over budget (the gap cannot see it).
        size = 1.0 + abs(value)
        plateau = pg_norm * pg_norm <= 8.0 * eps * size and not (s1 == 0.0 > g1 or s2 == 0.0 > g2)
        if (pg_norm <= tol or plateau) and (
                (gap := abs(s1 * g1 + s2 * g2)) <= _GAP * size
                or (0.5 * (h1 * n1 + h2 * n2) <= _DECREMENT * size and gap <= _DECREMENT_GAP * size)):
            # The plateau leaves the forces wrong from about their 8th digit;
            # one more Newton step squares that error, as
            # ``solvers.invert_monotone`` ends.  It is taken only when it
            # solves and is shorter than the last accepted step.
            if math.isfinite(n1) and math.isfinite(n2) and math.sqrt(n1 * n1 + n2 * n2) < last:
                s1, s2 = min(s1 + n1, 0.0), min(s2 + n2, 0.0)
            return _floored(value), tables[0].force_from_unit(s1), tables[1].force_from_unit(s2)
        # A Newton step must climb at a rate commensurate with the gradient:
        # on a singular covariance it is infinite, nan, or a vanishing step
        # along the null ray while the gradient points off it.  Dependent
        # tables take none: LAPACK can solve their singular covariance by
        # rounding, into a huge step that backtracking then halves ~40 times.
        climbed = False
        if (not dependent and math.isfinite(n1) and math.isfinite(n2)
                and n1 * h1 + n2 * h2 > 1e-12 * (k1 * k1 + k2 * k2)):
            alpha = 1.0
            for _ in range(60):
                t1, t2 = min(max(s1 + alpha * n1, hold1), 0.0), min(max(s2 + alpha * n2, hold2), 0.0)
                if t1 == s1 and t2 == s2:
                    break
                trial = _evaluate(p, *tables, t1, t2, *budgets)
                if trial[0] >= value + _ARMIJO * (g1 * (t1 - s1) + g2 * (t2 - s2)):
                    last = math.sqrt((t1 - s1) * (t1 - s1) + (t2 - s2) * (t2 - s2))
                    s1, s2, (value, g1, g2, c11, c22, c12) = t1, t2, trial
                    climbed = True
                    break
                alpha *= 0.5
        if climbed:
            continue
        # No Newton step climbs.  On affinely dependent tables the objective
        # is linear along the dependence, so its maximum, if any, sits on a
        # face where one force is 0; that face's point is the one-table
        # solve, and it is the maximum when the other budget holds there (its
        # gradient is not below -tol: Kuhn-Tucker).  On independent tables
        # the ascent stalled (at stiff forces the tilted law can sit on two
        # letters per row, where any two tables look dependent), and the
        # better face point, if it beats the iterate, is the next iterate.
        faces = []
        for i in (0, 1):
            force, rate, _ = _legendre(tables[i], (delta1, delta2)[i], tol, nonpositive=True)
            at = [0.0, 0.0]
            at[i] = force
            faces.append((*at, *_evaluate(p, *tables, *at, *budgets)))  # (s1, s2, value, g1, g2, ...)
            if faces[-1][4 - i] >= -tol * tables[1 - i].extent:  # the other budget's gradient
                force = tables[i].force_from_unit(force)
                return (rate, force, 0.0) if i == 0 else (rate, 0.0, force)
        best = max(faces, key=lambda face: face[2])
        if not dependent and best[2] > value:
            (s1, s2, value, g1, g2, c11, c22, c12), last = best, math.inf
            continue
        stop = "stalled off both faces before reaching tolerance"
        break
    # No answer: the pair is unsatisfiable if its least slack is past the band (module docstring).  The
    # slack is convex in a, so 60 halvings on the sign of its subgradient find where it is least.
    d1, d2 = (table.values for table in tables)
    lo, hi, e, rows = 0.0, 1.0, d1 - d2, np.arange(len(p))
    for _ in range(60):
        a = 0.5 * (lo + hi)
        rising = budgets[0] - budgets[1] > float(np.dot(p, e[rows, np.argmin(d2 + a * e, axis=1)]))
        lo, hi = (lo, a) if rising else (a, hi)
    mixed = _at_origin(p, log_q, a * d1 + (1.0 - a) * d2)
    floor = mixed.floor()
    if a * budgets[0] + (1.0 - a) * budgets[1] - floor < -_end_band(mixed.span, floor):
        raise InfeasiblePairError(unsatisfiable)
    raise NumericalError(f"two-force ascent {stop}")
