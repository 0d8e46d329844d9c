"""Fixed-coding-law rate-distortion: every route to the constrained curve.

An instance fixes a source law P over letters x, a coding law Q over
reproduction letters, and a distortion table d(x, xhat).  For a nonpositive
force s the per-letter distortion distributions are tilted jointly, and the
curve (distortion(s), rate(s)) traces the exponent of the event that a
random codeword lands within a distortion budget.  The force solved for a
target distortion also yields the per-letter budget split that equalizes
forces across source letters, which is what makes the constrained exponent
tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DistortionTooLowError, LevelInfeasibleError, ValidationError
from .tilting import (
    FiniteDistribution,
    _at_origin,
    _check_entries,
    _check_partition,
    _floats,
    _floored,
    _force_grid,
    _frozen,
    _law,
    _legendre,
    _record,
    _riemann_sums,
    _set_laws,
    _sweep,
    _Table,
    _work_integral,
    tilt,
)

__all__ = [
    "RdProblem",
    "RdPoint",
    "Allocation",
    "distortion_at_force",
    "force_at_distortion",
    "rate_legendre",
    "equal_force_allocation",
    "mmse",
    "rate_mmse_integral",
    "distortion_mmse_integral",
    "sandwich_bounds",
    "tilted_conditional",
    "observable_expectation",
    "observable_sweep",
    "rd_curve",
]


def _kept_letters(source_probs: np.ndarray, coding_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source letters (rows) and reproduction letters (columns) that ``RdProblem`` keeps: those
    of nonzero probability.  A table of the full alphabets is cut to them by ``np.ix_``."""
    return source_probs > 0.0, coding_probs > 0.0


def _clean_tables(problem, *names: str) -> None:
    """Check a problem's two laws and its named tables, drop zero-probability
    source letters (rows) and reproduction letters (columns), and store them
    read-only on the (frozen) problem, each table one C-contiguous copy: ``_floats``'
    conversion, the ``np.ix_`` gather of a table that drops a letter, or else
    ``_frozen``'s copy of the caller's C-ordered table."""
    p = _law(problem.source_probs, "source_probs")
    q = _law(problem.coding_probs, "coding_probs")
    rows, cols = _kept_letters(p, q)
    whole = bool(rows.all() and cols.all())
    kept = {"source_probs": p[rows], "coding_probs": q[cols]}
    for name in names:
        d = _floats(getattr(problem, name), name)
        if d.ndim != 2 or d.shape != (p.size, q.size):
            raise ValidationError(f"{name} must be a {p.size}x{q.size} matrix (got shape {d.shape})")
        _check_entries(d, name, f"{name} entries must all be finite")
        kept[name] = d if whole else d[np.ix_(rows, cols)]
    _frozen(problem, **kept)


@dataclass(frozen=True, eq=False)
class RdProblem:
    """Source law, coding law, and a finite distortion table.

    Zero-probability source letters (rows) and reproduction letters
    (columns) are dropped at construction; the stored arrays are read-only.
    """

    source_probs: np.ndarray
    coding_probs: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        _clean_tables(self, "distortion")

    @property
    def delta_dists(self) -> tuple[FiniteDistribution, ...]:
        """Per source letter, the distribution of its distortion under the coding law, all rows at once by
        ``tilting._set_laws``: each equals ``FiniteDistribution(row, coding_probs)`` bit for bit.  Built
        on each read and not kept, so each read is a fresh tuple: a caller that reads it more than once
        keeps the tuple."""
        return _set_laws(self.distortion, self.coding_probs)

    @property
    def num_source_letters(self) -> int:
        return int(self.source_probs.size)


@dataclass(frozen=True, eq=False)
class RdPoint:
    """One point of the curve, carried with its per-letter moments.

    ``boundary`` is None for interior points, "min_distortion" when the
    request was pinned at the smallest achievable distortion (force -inf),
    and "above_zero_force" when the request exceeded the zero-force
    distortion and was answered with the zero-rate point.  ``per_symbol_var``
    and ``mmse`` leave the table's units when read, raising ``NumericalError``
    if they cannot be represented (``tilting._Table.variances``).
    """

    s: float
    distortion: float
    rate: float
    per_symbol_mean: np.ndarray
    boundary: str | None = None
    _table: _Table | None = field(default=None, repr=False)
    _variances: np.ndarray | None = field(default=None, repr=False)

    @property
    def per_symbol_var(self) -> np.ndarray:
        return self._table.variances(self._variances, "per_symbol_var")

    @property
    def mmse(self) -> float:
        return float(self._table.variances(float(np.dot(self._table.row_weights, self._variances)), "mmse"))


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-source-letter distortion budgets."""

    per_symbol_distortion: np.ndarray

    def total(self, problem: RdProblem) -> float:
        return float(np.dot(problem.source_probs, self.per_symbol_distortion))


def _table(problem: RdProblem):
    """The ``tilting._Table`` of the distortion under the coding law, weighted by the source law,
    with each row moved to start at 0: lowered once per public call, not kept on the problem."""
    return _at_origin(problem.source_probs, np.log(problem.coding_probs)[None, :], problem.distortion)


def distortion_at_force(problem: RdProblem, s: float) -> RdPoint:
    """Evaluate the curve parametrically at a finite force s (s <= 0 on the useful branch)."""
    return _at_force(problem, s)[0]


def _at_force(problem: RdProblem, s: float):
    """``distortion_at_force``'s point and the kernel force and per-letter moments that gave it."""
    table = _table(problem)
    kernel_s = table.force(s)
    moments = table.grid(kernel_s)
    return _point(table, s, kernel_s, *moments), (kernel_s, moments)


def _point(table, s: float, kernel_s: float, log_z, means, variances) -> RdPoint:
    """The curve point at force s from the per-letter moments at kernel force ``kernel_s``, a ``tilting._record``."""
    p = table.row_weights
    shifted = table.means_from_origin(means)
    return _record(
        RdPoint,
        s=float(s),
        distortion=float(np.dot(p, shifted)),
        rate=table.rate(kernel_s, float(np.dot(p, means)), log_z),
        per_symbol_mean=shifted,
        boundary=None,
        _table=table,
        _variances=variances,
    )


def _points(table, forces: np.ndarray, kernel_forces: np.ndarray, log_z, means, variances) -> list[RdPoint]:
    """``_point`` at each of ``forces``, bit for bit, from the per-letter moments there at origin,
    one row per force: each row-weighted sum is one ``np.vecdot`` over every force
    (``tilting._Table.averaged``), and each point is a ``tilting._record``.  One force keeps
    ``_point``: ``np.vecdot`` on a single row costs more than the four ``np.dot`` calls it
    replaces."""
    p = table.row_weights
    rates = table.rate(kernel_forces, np.vecdot(means, p), log_z)
    means = table.means_from_origin(means)
    sums = zip(forces.tolist(), np.vecdot(means, p).tolist(), rates.tolist())
    return [
        _record(RdPoint, s=s, distortion=d, rate=r, per_symbol_mean=m, boundary=None, _table=table, _variances=v)
        for (s, d, r), m, v in zip(sums, means, variances)
    ]


def force_at_distortion(problem: RdProblem, delta: float, tol: float = 1e-10) -> RdPoint:
    """Solve for the nonpositive force whose mean distortion hits ``delta``.

    ``tilting._legendre``'s Newton iteration on the logit of the mean,
    safeguarded by bisection, guarantees |distortion(s) - delta| <= tol *
    (D0 - Dmin) for interior targets; it works in the table's own force
    scale, so the number of steps does not depend on the scale of the table.  delta == D0
    returns the zero-force point exactly; delta > D0 returns it flagged
    "above_zero_force" (the event is typical, rate 0).  delta at the
    minimum achievable distortion returns the infinite-force endpoint whose
    rate is the log cost of every source letter drawing its cheapest
    reproduction; below that it raises.  The ends are decided as in
    ``tilting._legendre``.
    """
    return _solve(problem, delta, tol)[0]


def _solve(problem: RdProblem, delta: float, tol: float):
    """``force_at_distortion``'s point and its kernel force and per-letter moments (None at force -inf)."""
    table = _table(problem)
    try:
        s, rate, moments = _legendre(table, delta, tol, nonpositive=True)
    except LevelInfeasibleError:
        raise DistortionTooLowError(f"distortion {delta!r} is below the minimum achievable {table.floor()!r}") from None
    if s == -math.inf:
        least = table.least
        return RdPoint(s=s, distortion=table.floor(), rate=rate, per_symbol_mean=least,
                       boundary="min_distortion", _table=table, _variances=np.zeros_like(least)), None
    point = _point(table, table.force_from_unit(s), s, *moments)
    if s == 0.0 and delta > point.distortion:
        point = replace(point, boundary="above_zero_force")
    return point, (s, moments)


def rate_legendre(problem: RdProblem, delta: float, tol: float = 1e-10) -> float:
    """Rate in nats at distortion ``delta`` (Legendre route)."""
    return force_at_distortion(problem, delta, tol).rate


def equal_force_allocation(problem: RdProblem, delta: float, tol: float = 1e-10) -> tuple[Allocation, float]:
    """Split the distortion budget so every source letter works at one force.

    Returns the per-letter budgets (the tilted means at the common force)
    and the rate they cost, which matches the joint Legendre rate: the
    equal-force split is exactly the one no other split can beat.
    """
    return _allocation(problem, *_solve(problem, delta, tol))


def _allocation(problem: RdProblem, point: RdPoint, solved) -> tuple[Allocation, float]:
    """``equal_force_allocation`` from the point, kernel force and moments that ``_solve`` returned."""
    allocation = Allocation(per_symbol_distortion=point.per_symbol_mean)
    if point.boundary == "min_distortion":
        return allocation, point.rate
    s, (log_z, means, _) = solved  # the per-letter sum, not the point's rate: the two routes check each other
    return allocation, _floored(float(np.dot(problem.source_probs, s * means - log_z)))


def mmse(problem: RdProblem, s):
    """Source-averaged tilted variance of the distortion at force s, or at each force of a 1-D array
    s as an array (``tilting._force_grid``): ``RdPoint.mmse`` bit for bit, the kernel's variances
    reduced in the table's units (``tilting._Table.averaged``) and moved out once, so one that cannot
    be represented raises ``NumericalError``."""
    grid, one = _force_grid(s)
    table = _table(problem)
    averaged = table.variances(table.averaged(table.forces(grid), 2), "mmse")
    return float(averaged[0]) if one else averaged


def rate_mmse_integral(problem: RdProblem, s: float, tol: float = 1e-9) -> float:
    """Rate recovered as the work integral of u * mmse(u) from 0 to s, to ``tol`` in nats
    (``tilting._work_integral``).  Each Simpson level's nodes, u = 0 among them, go to one ``tilt`` per
    source letter, on its law built by one ``tilting._set_laws`` pass over the rows of the table integrated
    on, at origin and in units, so no variance leaves them; the forces x letters variances (C-contiguous)
    are reduced by ``np.vecdot``."""
    table, p = _table(problem), problem.source_probs
    letters = _set_laws(table.values, problem.coding_probs)
    return _work_integral(table, s, tol, lambda us: np.vecdot(np.stack([tilt(d, us).variance for d in letters], -1), p))


def distortion_mmse_integral(problem: RdProblem, s: float, tol: float = 1e-9) -> float:
    """Distortion recovered as D0 plus the integrated mmse from 0 to s, to ``tol`` times D's span
    (``tilting._pieces``), as ``force_at_distortion`` meets its budget."""
    table = _table(problem)
    means, integral = _sweep(table, table.grid, s, tol, table, mean=1, slope=2)
    return float(np.dot(table.row_weights, means)) + integral


def sandwich_bounds(problem: RdProblem, partition) -> tuple[float, float]:
    """Riemann sums over a force grid that bracket the rate at its endpoint."""
    return _riemann_sums(_table(problem), _check_partition(partition))


def tilted_conditional(problem: RdProblem, s: float) -> np.ndarray:
    """Matrix of tilted reproduction laws Q_s(xhat | x) proportional to Q(xhat) e^{s d}."""
    return _table(problem).law(s)[0]


def _observable_tables(problem: RdProblem, observable):
    """The problem's table (``_table``) and an observable t of the letter pair, checked against the
    table's shape and for finite entries, before any force is."""
    t = _floats(observable, "observable")
    d = problem.distortion
    if t.shape != d.shape:
        raise ValidationError(f"observable must match the distortion table shape {d.shape}")
    _check_entries(t, "observable", "observable entries must all be finite")
    return _table(problem), t


def observable_expectation(problem: RdProblem, observable, s: float) -> float:
    """Direct expectation of a letter-pair observable: t averaged against the tilted law Q_s(xhat | x)
    of ``tilted_conditional`` (``tilting._Table.law``, which checks s), then against the source law."""
    table, t = _observable_tables(problem, observable)
    return float(np.dot(problem.source_probs, np.einsum("ij,ij->i", table.law(s)[0], t)))


def observable_sweep(problem: RdProblem, observable, s: float, tol: float = 1e-9) -> float:
    """Tilted expectation of an observable, built by integrating its covariance
    with the distortion along the force sweep from 0 to s.

    Agrees with :func:`observable_expectation` at the endpoint to within the
    quadrature tolerance, ``tol`` times the observable's source-weighted span
    (``tilting._pieces``), so it answers alike at every scale of either table;
    the integral form shows how the force drags any observable, not just the
    distortion itself.
    """
    table, t = _observable_tables(problem, observable)
    observed = _at_origin(problem.source_probs, table.log_weights, t)  # the observable in its own units
    means, integral = _sweep(table, lambda us: table.pair(observed, us, 0.0), s, tol, observed, mean=2, slope=5)
    return float(np.dot(problem.source_probs, means)) + integral


def rd_curve(problem: RdProblem, force_grid) -> list[RdPoint]:
    """Evaluate the curve on a grid of nonpositive forces, ordered s descending."""
    grid = _floats(force_grid, "force_grid").ravel()
    if grid.size == 0:
        raise ValidationError("force_grid must be nonempty")
    if not np.isfinite(grid).all() or (grid > 0.0).any():
        raise ValidationError("force_grid values must be finite and <= 0")
    forces = grid[np.argsort(-grid, kind="stable")]
    table = _table(problem)
    kernel_forces = table.forces(forces)
    return _points(table, forces, kernel_forces, *table.grid(kernel_forces))
