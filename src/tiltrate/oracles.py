"""Independent checks on the Legendre machinery.

Nothing here reuses the solvers under test: event probabilities come from an
exact convolution over a value lattice, allocation optimality from a brute
product-grid search, the Legendre maximum from a dense scan, and the optimal
coding law from Blahut-Arimoto alternation at a fixed slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetTooLargeError,
    CompositionNotIntegralError,
    NumericalError,
    ValidationError,
)
from .ratedistortion import RdProblem
from .tilting import _check_entries, _check_number, _law, force_at_level

__all__ = [
    "exact_ld_probability",
    "brute_allocation_min",
    "legendre_grid_max",
    "BaResult",
    "blahut_arimoto",
]

_LATTICE_REL = 1e-9  # lattice bin width relative to the distortion value range
_COMPOSITION_TOL = 1e-9
_GRID_PASSES = 3  # legendre_grid_max's coarse scan and its two refinements


def exact_ld_probability(problem: RdProblem, n: int, delta: float) -> tuple[float, float]:
    """Exact probability that an n-letter block lands within total distortion n*delta.

    The source composition must be integral (n * P(x) whole counts).  Each
    row is keyed from its least value, and the budget moved by the counted
    starts, so a row shift costs no digits; sums are convolved on an integer
    lattice of bin width 1e-9 times the largest row range, so distinct
    reachable totals never alias at desk scales.  Returns (probability,
    -ln(probability)/n) as floats; a nan ``delta`` raises ValidationError.
    """
    if n <= 0:
        raise ValidationError("block length n must be positive")
    _check_number(delta, "delta")
    counts = problem.source_probs * n
    rounded = np.rint(counts)
    if np.any(np.abs(counts - rounded) > _COMPOSITION_TOL * max(1.0, n)):
        raise CompositionNotIntegralError(
            f"n = {n} does not split source_probs into whole letter counts (got {counts.tolist()})"
        )

    dists = problem.delta_dists
    starts = np.array([d.min_value for d in dists])
    base = float(np.dot(rounded, starts))  # sum_x c_x start_x, the least total
    span = max(d.max_value - d.min_value for d in dists)
    if span == 0.0:  # every block totals base
        return (1.0, 0.0) if base <= n * delta + 1e-12 * max(1.0, abs(base)) else (0.0, math.inf)
    width = _LATTICE_REL * span
    if width == 0.0:
        raise NumericalError(f"the lattice width {_LATTICE_REL!r} times the largest row range {span!r} rounds to 0")

    acc: dict[int, float] = {0: 1.0}
    for x, c in enumerate(rounded.astype(int)):
        keys = np.rint((dists[x].values - starts[x]) / width).astype(np.int64)
        probs = dists[x].probs
        for _ in range(c):
            nxt: dict[int, float] = {}
            for k, pr in acc.items():
                for kv, pv in zip(keys, probs):
                    key = k + int(kv)
                    nxt[key] = nxt.get(key, 0.0) + pr * pv
            acc = nxt

    cutoff = n * delta - base + 0.5 * width
    prob = min(float(sum(pr for k, pr in acc.items() if k * width <= cutoff)), 1.0)
    # 0.0 - x: a certain event costs 0.0, not -0.0
    exponent = math.inf if prob <= 0.0 else 0.0 - math.log(prob) / n
    return prob, exponent


def brute_allocation_min(problem: RdProblem, delta: float, grid_points_per_symbol: int) -> float:
    """Minimum source-averaged per-letter rate over a gridded budget split.

    Exhausts a per-letter grid between each letter's floor and zero-force
    distortion, subject to the averaged budget; with enough grid points this
    crowds the equal-force rate from above.  Only alphabets of at most three
    source letters are enumerated.
    """
    k = problem.num_source_letters
    if k > 3:
        raise AlphabetTooLargeError(f"brute-force allocation handles at most 3 source letters (got {k})")
    if grid_points_per_symbol < 2:
        raise ValidationError("grid_points_per_symbol must be at least 2")
    _check_number(delta, "delta")
    p = problem.source_probs
    dists = problem.delta_dists

    grids = [np.linspace(d.min_value, d.mean, grid_points_per_symbol) for d in dists]
    rates = [np.array([force_at_level(d, float(v), tol=1e-9).rate for v in g]) for d, g in zip(dists, grids)]

    # the first letter's budgets outermost, the other letters' as one product grid
    slack = 1e-12 * max(1.0, abs(delta))
    inner_load = sum(np.ix_(*(p[x] * grids[x] for x in range(1, k))))
    inner_cost = sum(np.ix_(*(p[x] * rates[x] for x in range(1, k))))
    best = math.inf
    for g0, r0 in zip(grids[0], rates[0]):
        cost = np.where(p[0] * g0 + inner_load <= delta + slack, p[0] * r0 + inner_cost, np.inf)
        best = min(best, float(cost.min()))
    if not math.isfinite(best):
        raise ValidationError("no grid point satisfies the distortion budget")
    return best


def legendre_grid_max(problem: RdProblem, delta: float, s_min: float = -50.0, points: int = 1001) -> float:
    """Dense-grid maximization of s*delta - averaged log-MGF over [s_min, 0].

    The scan runs on the rows at origin, against delta less sum_x P(x)
    start_x, so a row shift costs no digits.  A coarse scan followed by two
    local refinement passes around the argmax; agrees with the root-solve
    route to ~1e-6 for budgets whose maximizer lies inside the scanned range.
    """
    if points < 3:
        raise ValidationError("points must be at least 3")
    if not s_min < 0.0:
        raise ValidationError("s_min must be negative")
    if not math.isfinite(s_min):
        raise ValidationError(f"s_min must be finite (got {s_min!r})")
    _check_number(delta, "delta")
    if math.isinf(delta):
        # s * delta is -inf (+inf for delta = -inf) at every s < 0 and 0 at s = 0
        return 0.0 if delta > 0.0 else math.inf
    p = problem.source_probs
    dists = problem.delta_dists
    level = delta - float(np.dot(p, [d.min_value for d in dists]))

    def objective(svals: np.ndarray) -> np.ndarray:
        phi = np.zeros_like(svals)
        for weight, d in zip(p, dists):
            expo = svals[:, None] * (d.values - d.min_value)[None, :] + np.log(d.probs)[None, :]
            shift = expo.max(axis=1)
            phi += weight * (shift + np.log(np.exp(expo - shift[:, None]).sum(axis=1)))
        return svals * level - phi

    lo, hi = s_min, 0.0
    best = -math.inf
    for _ in range(_GRID_PASSES):
        grid = np.linspace(lo, hi, points)
        vals = objective(grid)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, points - 1)]
    return max(best, 0.0)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """ln sum e^a along ``axis`` (kept) for finite ``a``, with the largest terms taken
    out of the sum as scipy.special.logsumexp does: log1p(rest / ties) + ln(ties) + max."""
    top = a.max(axis=axis, keepdims=True)
    ties = a == top
    count = ties.sum(axis=axis, keepdims=True, dtype=float)
    rest = np.exp(np.where(ties, -math.inf, a) - top).sum(axis=axis, keepdims=True)
    return np.log1p(rest / count) + np.log(count) + top


@dataclass(frozen=True, eq=False)
class BaResult:
    """Outcome of the alternating minimization at a fixed slope."""

    coding_probs: np.ndarray
    rate: float
    distortion: float
    converged: bool
    iterations: int
    objectives: tuple[float, ...]


def blahut_arimoto(
    source_probs,
    distortion,
    s: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> BaResult:
    """Optimal coding law at slope s <= 0 by Blahut-Arimoto alternation.

    Alternates the tilted conditional against its output marginal in the log
    domain; the Lagrangian rate - s * distortion is nonincreasing across
    iterations.  Stops when the rate moves less than ``tol`` between
    iterations, else returns the last iterate with ``converged=False``.
    """
    p = _law(source_probs, "source_probs")
    d = np.asarray(distortion, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.size:
        raise ValidationError("distortion must have one row per source letter")
    if d.size == 0:
        raise ValidationError("distortion must have at least one column")
    _check_entries(d, "distortion", "distortion entries must all be finite")
    if not (math.isfinite(s) and s <= 0.0):
        raise ValidationError(f"slope s must be <= 0 (got {s!r})")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    keep = p > 0.0  # a source letter of probability 0 carries no mass; RdProblem drops it too
    p, d = p[keep], d[keep]

    n_out = d.shape[1]
    log_p = np.log(p)
    # rows moved to start at 0: the conditional is unchanged, and s * d keeps d's own resolution
    sd = s * (d - d.min(axis=1)[:, None])
    log_q = np.full(n_out, -math.log(n_out))

    rate = math.inf
    dist_out = math.nan
    objectives: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        log_cond = log_q[None, :] + sd
        log_cond = log_cond - _logsumexp(log_cond, axis=1)
        cond = np.exp(log_cond)
        log_q_next = _logsumexp(log_p[:, None] + log_cond, axis=0)[0]
        new_rate = float(np.dot(p, (cond * (log_cond - log_q_next[None, :])).sum(axis=1)))
        dist_out = float(np.dot(p, (cond * d).sum(axis=1)))
        objectives.append(new_rate - s * dist_out)
        log_q = log_q_next
        if math.isfinite(rate) and abs(new_rate - rate) < tol:
            rate = new_rate
            converged = True
            break
        rate = new_rate

    return BaResult(
        coding_probs=np.exp(log_q),
        rate=max(rate, 0.0),
        distortion=dist_out,
        converged=converged,
        iterations=iterations,
        objectives=tuple(objectives),
    )
