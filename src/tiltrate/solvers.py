"""Shared numerics: a safeguarded Newton root solve and adaptive Simpson quadrature.

The root solve takes Newton steps on the slope the caller computes alongside
each value.  Until the target is crossed its bracket is open on the target's
side, and each step toward it is capped at a doubling reach; once the target
is bracketed, a step that would leave the bracket, or a slope that is not
positive, falls back to bisection, so a vanishing derivative cannot throw it
off.  The Simpson rule subdivides a
whole level at a time and hands the integrand that level's abscissae in one
array, so a batched kernel takes each level in one call; its subdivision
and summation order are fixed, so repeated runs give bit-identical answers.
The rule's own bookkeeping runs on Python floats, cheaper than numpy on the
few-interval levels the routes make; each level crosses to numpy once.  Its
evaluation budget is a constant, ``_MAX_EVALS`` (a million nodes per
integral), and its only client is ``tilting``: every quadrature route reaches
it through the cut of ``tilting._pieces``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = ["BracketError", "invert_monotone", "adaptive_simpson"]

# Relative width (of the bracket, or of a Newton step) at which a root is pinned.
_X_REL_TOL = 1e-13
# Below this relative size a Newton step converges quadratically unless the
# values are down to their rounding noise: one that fails to halve the step
# before it, or to lower the residual, ends the iteration at the best point.
_NOISE_STEP = 1e-8
# Open-side steps that the reach cut short or that had no usable slope, and
# steps in all, before giving up.
_MAX_EXPAND = 60
_MAX_ITER = 240
# Subdivision levels below the root interval, abscissae per integrand call, and
# evaluations per integral.
_MAX_DEPTH = 60
_MAX_CALL = 1024
_MAX_EVALS = 1_000_000
# The least |end| the Simpson rule refuses: below it every sum of two of its nodes, a midpoint's or a
# quarter point's, stays finite.  The kernel's held forces (``tilting._Table.forces``: 2^1022 over a
# widest row that rounding may leave a hair under 1) sit below it.
_END_LIMIT = 2.0**1023


class BracketError(NumericalError):
    """Bracket expansion never enclosed the target value."""


def invert_monotone(
    f,
    target: float,
    *,
    f_tol: float,
    reach: float = 1.0,
    hi_limit: float = math.inf,
) -> float:
    """Solve value(s) = target for a nondecreasing scalar map.

    ``f(s)`` returns ``(value, slope)``.  The solve starts at 0 (at
    ``hi_limit`` if that is below 0), and its bracket stays open on the
    target's side until a point crosses the target.  Each step toward an
    open side is the Newton step from the latest point, no longer than a
    reach that starts at ``|reach|`` and doubles with each such step, or the
    whole reach where the slope is not positive and finite; the upper end is
    clipped to ``hi_limit``.  A point short of the target at ``hi_limit``,
    60 steps that the reach cut short or that had no usable slope, or a step
    that is not finite raise BracketError; a Newton run closing in on the
    root from the open side has all 240 steps.  Inside a closed bracket each
    step is a Newton step from the latest point; a step that leaves the
    bracket, or a slope <= 0, is replaced by bisection.  Iteration stops once
    ``|value - target| <= f_tol`` (returning that point moved by one last
    Newton step when the step stays inside the bracket, an open side
    included), or once the bracket or the Newton step is down to 1e-13 of
    the abscissa, so ``f_tol = 0`` pins the root itself to that relative
    width at any scale.  A Newton step below 1e-8 of the abscissa that
    stalls (fails to halve the step before it, or to lower the residual)
    means the values are down to their rounding noise, and the point with
    the least residual is returned.  Running out of its 240 steps raises
    NumericalError.
    """
    x = min(0.0, hi_limit)
    fx, dfx = f(x)
    # f(lo) < target <= f(hi), an end the target has not crossed yet being infinite
    lo, hi = (x, math.inf) if fx < target else (-math.inf, x)
    best_x, best_resid = x, abs(fx - target)
    reach, dx, expansions = abs(reach) or 1.0, math.inf, 0
    for _ in range(_MAX_ITER):
        resid = fx - target
        newton_x = x - resid / dfx if dfx > 0.0 else math.nan
        inside = lo < newton_x < hi and newton_x <= hi_limit
        if abs(resid) <= f_tol:
            # the Newton step from a point this close costs nothing and
            # squares the remaining error, so it is taken without checking
            return newton_x if inside else x
        if math.isinf(hi - lo):
            # the open side: a Newton step capped at the reach, or the reach without a usable slope
            newton = 0.0 < dfx < math.inf
            if not newton:
                newton_x = x + reach if hi == math.inf else x - reach
            step_x = min(max(newton_x, x - reach), x + reach, hi_limit)
            if expansions == _MAX_EXPAND or hi == math.inf and x >= hi_limit or not math.isfinite(step_x):
                raise BracketError(f"could not bracket target {target!r} past {x!r}")
            expansions += not newton or step_x != newton_x
            dx, x, reach = x - step_x, step_x, 2.0 * reach
        else:
            # rtsafe: bisect when Newton would leave the bracket or would not
            # at least halve the step before last
            dx_old = dx
            newton = inside and abs(2.0 * resid) <= abs(dx_old * dfx)
            if inside and not newton and abs(x - newton_x) <= _NOISE_STEP * abs(x):
                return best_x  # too small a step to stall unless rounding stalls it
            if newton:
                dx = x - newton_x
                x = newton_x
            else:
                dx = 0.5 * (hi - lo)
                x = lo + dx
                if x in (lo, hi):
                    return x
        if abs(dx) <= _X_REL_TOL * abs(x):
            return x
        fx, dfx = f(x)
        if newton and abs(dx) <= _NOISE_STEP * abs(x) and abs(fx - target) >= best_resid:
            return best_x  # likewise, a step this small that does not lower the residual
        if abs(fx - target) < best_resid:
            best_x, best_resid = x, abs(fx - target)
        if fx < target:
            lo = x
        else:
            hi = x
        if hi - lo <= _X_REL_TOL * abs(x):
            return x
    raise NumericalError(f"root solve short of tolerance after {_MAX_ITER} steps: bracket [{lo!r}, {hi!r}]")


def _finite(x, name: str) -> bool:
    """Whether ``x``, one real number (a Python or numpy scalar, or a 0-d array), is finite; anything
    else raises ``ValidationError`` naming it ``name``: the one such test of every scalar check."""
    if not (isinstance(x, np.ndarray) and x.ndim):
        try:
            return math.isfinite(x)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be one number (got {_kind(x)})")


def _count(x, name: str) -> int:
    """``x``, one whole number as ``operator.index`` reads it (a Python or numpy integer, or a 0-d
    integer array), as an int; anything else, a bool or a float of whole value included, raises
    ``ValidationError`` naming it ``name``: the one test of every count argument."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be one whole number (got {_kind(x)})")


def _kind(x) -> str:
    """What ``x`` is, for the refusals of ``_finite`` and ``_count``: an array's shape, else its type."""
    return f"an array of shape {x.shape}" if isinstance(x, np.ndarray) else f"a {type(x).__name__}"


def _check_quadrature_tol(tol) -> None:
    """Refuse a quadrature tolerance that is not one finite number > 0."""
    if not (_finite(tol, "tol") and tol > 0.0):
        raise ValidationError(f"tol must be finite and > 0 (got {tol!r})")


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to the absolute tolerance tol, which must be finite and > 0.

    ``f`` maps a 1-D array of abscissae to their values, and gets a whole
    subdivision level at once, at most ``_MAX_CALL`` abscissae per call.
    Simpson's rule on each interval meets the standard 15x Richardson test
    against its halves, the tolerance halving on each split; the root is
    always split.  The pieces are summed in the recursive rule's tree order,
    so equal node values give a bit-identical answer.  A level that would
    pass ``_MAX_EVALS`` (a million) evaluations, or a 61st level, raises NumericalError, and so
    does a ``tol`` below half an ulp of the root level's estimate, which rounding alone keeps the
    rule from meeting, at once, before it subdivides.  Before ``f`` sees a node, an end that is not
    one finite number raises ValidationError, and an end at or past 2^1023 (``_END_LIMIT``) in size,
    where the sum behind a midpoint or quarter point can overflow, raises NumericalError.
    """
    _check_quadrature_tol(tol)
    for end in (a, b):
        if not _finite(end, "an end of the interval"):
            raise ValidationError(f"the ends of the interval must be finite (got {a!r} and {b!r})")
        if abs(end) >= _END_LIMIT:
            raise NumericalError(f"the end {end!r} is 2^1023 or more in size: its midpoints can overflow")
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol)
    a, b, tol, spent = float(a), float(b), float(tol), 0

    def feval(x: list) -> list:
        nonlocal spent
        spent += len(x)
        if spent > _MAX_EVALS:
            raise NumericalError(f"adaptive Simpson short of tolerance near {x[0]!r}: out of evaluations")
        if len(x) <= _MAX_CALL:
            return f(np.array(x)).tolist()
        return np.concatenate([f(np.array(x[i : i + _MAX_CALL])) for i in range(0, len(x), _MAX_CALL)]).tolist()

    m = 0.5 * (a + b)
    x = [a, 0.5 * (a + m), m, 0.5 * (m + b), b]
    # each interval as its ends, midpoint and quarter points, and as their values; the root has
    # no coarser estimate to meet, and its nan one always splits it
    xs, fs, wholes, levels = [x], [feval(x)], [math.nan], []
    for depth in range(_MAX_DEPTH, -1, -1):
        limit, values, split, quarters, halves, next_xs, kept = 15.0 * tol, [], [], [], [], [], []
        for (x0, x1, x2, x3, x4), (f0, f1, f2, f3, f4), whole in zip(xs, fs, wholes):
            left = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
            right = (x4 - x2) / 6.0 * (f2 + 4.0 * f3 + f4)
            delta = left + right - whole
            if not abs(delta) <= limit:
                # its halves, whose quarter points are the next level's nodes
                split.append(len(values))
                q = (0.5 * (x0 + x1), 0.5 * (x1 + x2), 0.5 * (x2 + x3), 0.5 * (x3 + x4))
                quarters += q
                next_xs += (x0, q[0], x1, q[1], x2), (x2, q[2], x3, q[3], x4)
                kept.append((f0, f1, f2, f3, f4))
                halves += left, right
            values.append(left + right + delta / 15.0)
        levels.append((values, split))
        if depth == _MAX_DEPTH and tol < 0.5 * math.ulp(halves[0] + halves[1]):  # the root's two halves
            size = abs(halves[0] + halves[1])
            raise NumericalError(
                f"adaptive Simpson tolerance {tol!r} is below the rounding of the integral's size {size!r}")
        if not split:
            break
        if depth == 0:
            near = xs[split[0]][2]
            raise NumericalError(f"adaptive Simpson short of tolerance near {near!r}: {_MAX_DEPTH} subdivisions deep")
        fq, fs = iter(feval(quarters)), []
        for (f0, f1, f2, f3, f4), g0, g1, g2, g3 in zip(kept, fq, fq, fq, fq):
            fs += (f0, g0, f1, g1, f2), (f2, g2, f3, g3, f4)
        xs, wholes, tol = next_xs, halves, 0.5 * tol
    # a split interval's value is the sum of its halves', which sit side by side a level down
    total = levels.pop()[0]
    for values, split in reversed(levels):
        sums = iter(total)
        for i, left, right in zip(split, sums, sums):
            values[i] = left + right
        total = values
    return total[0]
