"""Exponential tilting of finite distributions and the scalar rate function.

A tilt parameter s reweights outcome y by e^{s*y}, dragging the mean along
the exponential family; the Legendre rate function prices that displacement
in nats.  The same number is reachable by several routes -- direct Legendre
evaluation, a work integral over the tilted variance, Riemann sums that
sandwich it -- and all of them are exposed so they can cross-check each
other.

Conventions: natural logarithms throughout, so every rate and divergence is
in nats.  All sums of exponentials are max-shifted, so no finite tilt
overflows them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
# np.einsum(..., optimize=False) forwards its operands to this C function after about 1 us of
# Python dispatch, half of a 2 x 2 table's einsum: the kernel calls it directly, same bits
from numpy._core.multiarray import c_einsum

from .errors import (
    LevelInfeasibleError,
    NumericalError,
    PartitionInvalidError,
    SupportMismatchError,
    ValidationError,
)
from .solvers import _check_quadrature_tol, _finite, adaptive_simpson, invert_monotone

__all__ = [
    "PROB_TOL",
    "VALUE_MERGE_TOL",
    "FiniteDistribution",
    "TiltReport",
    "RateResult",
    "log_mgf",
    "tilt",
    "rate_at_force",
    "force_at_level",
    "rate_work_integral",
    "mean_via_integral",
    "riemann_sandwich",
    "kl_free_energy_gap",
]

PROB_TOL = 1e-12  # how far from 1 the sum of a probability law (``_law``) may be
VALUE_MERGE_TOL = 1e-12  # outcome values closer than this times the value span are one outcome


def _floats(x, name: str, error=ValidationError) -> np.ndarray:
    """``x`` as a C-ordered float array, or ``error`` naming it ``name`` where numpy cannot read it as one
    (a non-number entry, or ragged rows): every array argument's conversion and its one layout rule."""
    try:
        return np.asarray(x, dtype=float, order="C")
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers (got a {type(x).__name__} that numpy cannot read)") from None


def _law(vec, name: str) -> np.ndarray:
    """``vec`` as a flat float array, checked as a probability law: nonempty,
    finite, nonnegative and summing to 1 within ``PROB_TOL``."""
    v = _floats(vec, name).ravel()
    if v.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be finite and nonnegative")
    total = float(v.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{name} must sum to 1 within {PROB_TOL} (got {total!r})")
    return v


def _check_entries(t: np.ndarray, name: str, unfinite: str) -> None:
    """Refuse with ``ValidationError`` a nonempty table ``t`` (2-D, or one row) with an entry that is
    not finite (the message ``unfinite``) or a row whose range overflows, naming it: the one check of
    every table's entries.  The kernel moves each row to start at 0, so such a row has no tilted law.
    The whole table's range, in Python floats, which do not warn, passes a sound table at the cost of
    ``np.isfinite`` and with no temporary array; rows are searched only where it is not finite."""
    if not math.isfinite(float(t.max()) - float(t.min())):
        if not np.isfinite(t).all():
            raise ValidationError(unfinite)
        for x, row in enumerate(t if t.ndim == 2 else [t]):
            lo, hi = float(row.min()), float(row.max())
            if not math.isfinite(hi - lo):
                where = f"row {x} of {name}" if t.ndim == 2 else name
                raise ValidationError(f"the range of {where}, {lo!r} to {hi!r}, overflows")


def _frozen(obj, **arrays) -> None:
    """Set each array on the frozen dataclass ``obj`` as a read-only copy of its own,
    so no caller's array can change it and the caller's stays writable."""
    for name, value in arrays.items():
        value = np.array(value)
        value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _record(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields``, which must name every field,
    defaults included, in order: one update of its instance dict, where the generated
    ``__init__`` calls ``object.__setattr__`` once per field.  No ``__post_init__`` runs, so it
    is for records whose fields need no checking; the public constructor stays as it is."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A finite-support distribution over real outcome values.

    Construction sorts the support, drops zero-probability outcomes, and
    stores read-only arrays.  A run of values each within 1e-12 of the value
    span from the next is merged into one outcome, at the run's least value.
    The probabilities must arrive summing to 1 within 1e-12 and are
    renormalized exactly after cleanup.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values, probs = _floats(self.values, "values").ravel(), _floats(self.probs, "probs").ravel()
        if values.size == 0 or values.size != probs.size:
            raise ValidationError("values and probs must be nonempty and equally long")
        _check_entries(values, "values", "values must all be finite")
        keep = _law(probs, "probs") > 0.0
        self.__dict__.update(vars(_set_laws(values[keep][None, :], probs[keep])[0]))

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    @property
    def variance(self) -> float:
        """The variance at force 0, taken by the kernel and moved out of units by ``_Table.variances``."""
        return float(self._table.variances(self._table.moments(0.0)[2], "variance")[0])

    @cached_property
    def _table(self) -> _Table:
        """The support as a one-row table lowered by ``_at_origin``, built on first use (sorted, all with mass)."""
        return _at_origin(np.ones(1), np.log(self.probs)[None, :], self.values[None, :])


def _set_laws(values: np.ndarray, probs: np.ndarray) -> tuple[FiniteDistribution, ...]:
    """A fresh ``FiniteDistribution`` per row of ``values`` under the law ``probs`` (all positive), set through
    ``_frozen``, unchecked: sorted, runs within ``VALUE_MERGE_TOL`` of the row's span merged at their least value,
    over the row's sum.  The one sort-and-merge, in row blocks of about ``_BLOCK_ENTRIES`` entries."""
    dists = tuple(object.__new__(FiniteDistribution) for _ in range(values.shape[0]))
    step = max(_BLOCK_ENTRIES // values.shape[1], 1)
    for j in range(0, values.shape[0], step):
        block = values[j : j + step]
        order = np.argsort(block, axis=1)
        v = np.take_along_axis(block, order, 1)
        runs = np.ones(v.shape, dtype=bool)
        runs[:, 1:] = np.diff(v, axis=1) > VALUE_MERGE_TOL * (v[:, -1:] - v[:, :1])
        p = probs[order]
        p /= p.sum(axis=1, keepdims=True)
        rows = zip(v, p)
        if not runs.all():  # each merging row by the one-row rule (reduceat over its run heads, then ndarray.sum),
            # all sorted stably in one call, since the order of equal values sets their merged mass's bits
            rows, merged = list(rows), np.flatnonzero(~runs.all(axis=1))
            stable = np.argsort(block[merged], axis=1, kind="stable")
            sorted_rows = zip(merged, np.take_along_axis(block[merged], stable, 1), probs[stable], runs[merged])
            for x, row, mass, heads in sorted_rows:
                heads = np.flatnonzero(heads)
                mass = np.add.reduceat(mass, heads)
                rows[x] = row[heads], mass / mass.sum()
        for dist, (row_values, row_probs) in zip(dists[j : j + step], rows):
            _frozen(dist, values=row_values, probs=row_probs)
    return dists


@dataclass(frozen=True, eq=False)
class TiltReport:
    """Snapshot of the exponential family of ``dist`` at one tilt value, or at each force of a grid,
    every number field then an array with one entry per force; ``tilted`` is built on read, at one
    force only."""

    s: float | np.ndarray
    log_mgf: float | np.ndarray
    mean: float | np.ndarray
    variance: float | np.ndarray
    dist: FiniteDistribution = field(repr=False)

    @cached_property
    def tilted(self) -> FiniteDistribution:
        if isinstance(self.s, np.ndarray):
            raise ValidationError(f"tilted needs a report at one force s (this one holds {self.s.size} forces)")
        return FiniteDistribution(self.dist.values, self.dist._table.law(self.s)[0][0])


@dataclass(frozen=True)
class RateResult:
    """A point on the rate curve: achieved level, the force behind it, cost in nats.

    ``force`` is +/-inf when the level sits on an endpoint of the support;
    the rate there is the log cost of the endpoint's own probability.
    """

    level: float
    force: float
    rate: float


# Forces and rows per block of the kernel keep each of its temporaries near this many entries.
_BLOCK_ENTRIES = 1 << 15
# The kernel calls made in this process: "block" counts each exponential of ``_tilted_weights``, one
# per row block, and "table" each call of ``_Table.grid``, ``.pair`` or ``.law``, the kernel's entries.
# Read by ``_kernel_calls``; a reader takes the difference across the calls it counts.
_TALLY = {"block": 0, "table": 0}
# The least normal float: a variance at or above it that leaves its units as 0 has lost every digit.
_TINY = float(np.finfo(float).tiny)
# The least share of its squared mean a variance may be before ``_moments`` corrects it for the mean's
# rounding: above it a mean off by 2^10 units in its last place moves it by under half of its own.
_CLOSE = 2.0**-30
# The largest exponent |s| * value the kernel takes (``_Table.forces``): its products, and the sum
# of two such forces that a quadrature's midpoint takes, stay below the largest float.
_HOLD = 2.0**1022
# The widest exponent s * range at which a positive force's rate keeps a digit (``_Table.rate``).
_REACH = 2.0**52
# The most units a table's widest row spans (``_at_origin``): its tilted variance in units stays below 2^128.
_WIDEST_UNITS = 2.0**64


def _check_force(s, name: str = "force s") -> None:
    """Refuse a force that is not one finite number, naming it ``name``: every one-force route's check."""
    if not _finite(s, name):
        raise ValidationError(f"{name} must be finite (got {s!r})")


def _force_grid(s) -> tuple[np.ndarray, bool]:
    """The forces of ``s`` as a fresh 1-D float array, and whether ``s`` is one force: the check of
    the two routes that take a force grid, ``tilt`` and ``ratedistortion.mmse``.  One force goes
    through ``_check_force``; a list, tuple or array must hold finite numbers (``_floats``) in one
    dimension."""
    if not (isinstance(s, (list, tuple)) or isinstance(s, np.ndarray) and s.ndim):
        _check_force(s)
        return np.array([float(s)]), True
    grid = np.array(_floats(s, "force s"))
    if grid.ndim != 1:
        raise ValidationError(f"force s must be one number or a 1-D array (got an array of shape {grid.shape})")
    bad = ~np.isfinite(grid)
    if bad.any():
        raise ValidationError(f"force s must be finite (got {float(grid[bad][0])!r})")
    return grid, False


def _largest(x) -> float:
    """The largest |entry| of one number or a nonempty array, in Python floats below 16 entries, where
    they cost less than numpy's reductions."""
    if isinstance(x, np.ndarray) and x.size >= 16:
        return float(np.abs(x).max())
    listed = x.ravel().tolist() if isinstance(x, np.ndarray) else [float(x)]
    return max(max(listed), -min(listed))


def _check_tol(tol) -> None:
    """Refuse a root solve's tolerance that is nan, negative, infinite or no number; 0 asks for machine width."""
    if not (_finite(tol, "tol") and tol >= 0.0):
        raise ValidationError(f"tol must be finite and >= 0 (got {tol!r})")


def _check_number(x, name: str, error=ValidationError) -> None:
    """Refuse a nan level or budget ``x`` with ``error``, or no number by ``_finite``, naming it ``name``:
    every budget route's check."""
    if not _finite(x, name) and math.isnan(x):
        raise error(f"{name} must be a number, not nan")


def _floored(x):
    """``x`` (or an array) floored at +0.0, one value as a builtin float: the one floor of every result
    the mathematics makes nonnegative (a rate, the quasistatic work and its Riemann bounds, D(q || p),
    I and H(X | Xhat)), so rounding below 0 and -0.0 both come back as 0.0."""
    return (np.maximum(x, 0.0) if isinstance(x, np.ndarray) else float(max(x, 0.0))) + 0.0


def _tilted(body, log_weights: np.ndarray, tables: tuple, s, *args):
    """``body(log_weights, *tables, s, *args)``'s per-row outputs at force ``s`` or, for a 1-D array
    ``s``, at each force, stacked forces first: the one block loop of the kernel, behind
    ``_Table.grid`` and ``_Table.pair``.  Blocks hold about ``_BLOCK_ENTRIES`` forces x rows x
    columns: whole tables at several forces, as (forces, 1, 1), or one force and a slice of rows
    once a table is larger.  One block is the body's own outputs; several are each written into
    outputs allocated once, so the peak is the outputs plus one block."""
    if not isinstance(s, np.ndarray) and tables[0].size <= _BLOCK_ENTRIES:  # one force, one block
        return body(log_weights, *tables, s, *args)
    grid = isinstance(s, np.ndarray) and s.ndim == 1
    (rows, cols), n = tables[0].shape, s.size if grid else 1
    forces, step = max(_BLOCK_ENTRIES // (rows * cols), 1), max(_BLOCK_ENTRIES // cols, 1)
    s = s[:, None, None] if grid else s
    if n <= forces and rows <= step:
        return body(log_weights, *tables, s, *args)
    shared, lead, outs = log_weights.shape[0] == 1, (n, rows) if grid else (rows,), None
    for i in range(0, n, forces):
        for j in range(0, rows, step):
            block = slice(j, j + step)
            parts = body(log_weights if shared else log_weights[block], *(t[block] for t in tables),
                         s[i : i + forces] if grid else s, *args)
            outs = outs or tuple(np.empty(lead + part.shape[len(lead):]) for part in parts)
            for out, part in zip(outs, parts):
                out[(slice(i, i + forces), block) if grid else block] = part
    return outs


def _moments(log_weights: np.ndarray, values: np.ndarray, s, order: int):
    """``_Table.grid`` on one block."""
    # dividing the sums by z, not the weights by z, is the cheaper order
    w, shift = _tilted_weights(log_weights, values * s)
    z = w.sum(axis=-1)
    mean = c_einsum("...j,...j->...", w, values)
    mean /= z
    if order == 1:
        return np.log(z) + shift, mean
    centered = values - mean[..., None]
    var = c_einsum("...j,...j,...j->...", w, centered, centered)
    var /= z
    # A variance taken about a mean off by m by rounding is too large by m^2.  Only where the variance
    # is below _CLOSE times the squared mean, a law on values close together far from origin (a stiff
    # positive force on a row whose top values nearly tie), can m^2 reach half its last place; there
    # the corrected two-pass formula takes it back: the mean of the centred values, exact near the
    # mean, is -m, and its square comes off (Chan, Golub & LeVeque, Am. Stat. 37, 1983).
    close = var < _CLOSE * mean * mean
    if np.count_nonzero(close):  # on a small table's few rows, cheaper than close.any()
        m = c_einsum("ij,ij->i", w[close], centered[close]) / z[close]
        var[close] -= m * m
    return np.log(z) + shift, mean, var


def _pair(log_weights: np.ndarray, a: np.ndarray, b: np.ndarray, s_a, s_b):
    """``_Table.pair`` on one block."""
    # s_a * a + s_b * b formed once, in the weights' buffer; b at zero force would add signed zeros only
    exponent = a * s_a
    if s_b != 0.0:
        exponent += b * s_b
    law, log_z = _normalised(*_tilted_weights(log_weights, exponent))
    mean_a, mean_b = (c_einsum("...j,...j->...", law, t) for t in (a, b))
    ca, cb = a - mean_a[..., None], b - mean_b[..., None]
    covariances = (c_einsum("...j,...j,...j->...", law, x, y) for x, y in ((ca, ca), (cb, cb), (ca, cb)))
    return log_z, mean_a, mean_b, *covariances


def _tilted_weights(log_weights: np.ndarray, w: np.ndarray):
    """Per-row weights e^{log_weights + w - shift}, written over the fresh exponent ``w``, and the shifts,
    each row's largest exponent: the one exponential behind every tilted quantity."""
    _TALLY["block"] += 1
    w += log_weights
    shift = w.max(axis=-1)
    w -= shift[..., None]
    np.exp(w, out=w)
    return w, shift


def _normalised(w: np.ndarray, shift: np.ndarray):
    """``_tilted_weights``' output as the per-row law, each row over its sum z, in place, and the
    per-row log-partition shift + ln z."""
    z = w.sum(axis=-1)
    w /= z[..., None]
    return w, np.log(z) + shift


def _row_ends(log_weights: np.ndarray, values: np.ndarray):
    """Per-row least and greatest value among the entries that carry mass, and those entries (or None)."""
    if np.isfinite(log_weights).all():  # every entry carries mass: the plain reductions are faster
        return values.min(axis=1), values.max(axis=1), None
    live = np.broadcast_to(np.isfinite(log_weights), values.shape)
    ends = values.min(axis=1, where=live, initial=math.inf), values.max(axis=1, where=live, initial=-math.inf)
    return *ends, live


class _Table(NamedTuple):
    """A table lowered for the kernel by ``_at_origin``: each row moved to start at 0 and put in units
    of ``unit``, which leaves every tilted law, and every rate at force s * unit, unchanged.

    Every kernel call is a method, at kernel forces: ``grid`` (the moments at one force or a force
    grid, and ``moments`` and ``averaged`` on it), ``pair`` (a second table tilted along) and
    ``law``.  Row x carries the weights e^{log_weights[x] + s * values[x]}; ``log_weights`` has one
    row per row of ``values``, or a single row shared by all, and a ragged table is padded with -inf
    log-weights, which carry no mass.  Sums are max-shifted per row, so no finite tilt overflows them.

    The round trip lives here, and no other module reads ``starts``, ``ranges`` (both in the
    table's own scale), ``unit``, ``widest`` (the largest range in units) or ``far`` (the largest
    |start|).  A force enters by ``force`` and leaves by ``force_from_unit``; a budget moves to
    origin by ``floor``, is capped by ``span`` and enters by ``in_units``; means, variances and
    log-partitions leave by ``means_from_origin``, ``variances`` and ``log_z_from_origin``, each
    raising ``NumericalError`` for a value it cannot represent."""

    row_weights: np.ndarray
    log_weights: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    ranges: np.ndarray
    span: float
    unit: float
    widest: float
    far: float

    def floor(self) -> float:
        """sum_x w_x start_x, the row-weighted start: where the table's origin sits, so a budget
        moves to origin by subtracting it.  The one place a row-weighted start is summed.

        Where sum_x w_x |start_x| exceeds the span, rows sit far from 0 and their starts may
        cancel, and ``np.dot``'s rounding, times the force, could outweigh the span's own
        resolution: there the floor is rounded once from its exact value (``_exact_dot``).
        Elsewhere that rounding is within the span's, and ``np.dot`` costs less.  One row's
        single product is rounded once by ``np.dot`` itself, so it needs no test."""
        w, starts = self.row_weights, self.starts
        if w.size > 1 and np.dot(w, np.abs(starts)) > self.span:
            return _exact_dot(w, starts)
        return float(np.dot(w, starts))

    @property
    def extent(self) -> float:
        """The span in units, below 1 only where the widest row sets the unit (``_at_origin``), else 1."""
        return min(self.span / self.unit, 1.0) or 1.0

    @property
    def least(self) -> np.ndarray:
        """Each row's least value among the entries that carry mass, its mean at force -inf: the
        starts themselves, signed zeros kept."""
        return self.starts

    def force(self, s) -> float:
        """The kernel's force for one force s, checked by ``_check_force``: ``forces`` of it alone."""
        _check_force(s)
        return float(self.forces(np.array([s], dtype=float))[0])

    def forces(self, s: np.ndarray) -> np.ndarray:
        """The kernel's forces s * unit for finite forces s, each exponent s * value within ``_HOLD``.
        A negative force past it is held at the kernel force -``_HOLD`` / ``widest``, where every
        letter above its row's start weighs e^-1500 of its start or less, so 0, and the law, the
        log-partition at origin and the rate are the limit s -> -inf's bit for bit.  ``NumericalError``
        where that hold is not exact (a letter less than about 1e-305 of ``widest`` above its start),
        and for a positive force past it, whose log-partition is near the largest float."""
        unit, widest = self.unit, self.widest
        if not s.size or _largest(s) * unit * widest <= _HOLD:
            return s * unit
        listed = s.tolist()
        if max(listed) * unit * widest > _HOLD:
            raise NumericalError(f"at force {max(listed)!r} the exponent s * value passes 2^1022 on a range of "
                                 f"{widest * unit!r}: its log-partition is near the largest float")
        held = -_HOLD / widest
        finest = float(self.values[self.values > 0.0].min())
        if held * finest > -1500.0:
            raise NumericalError(f"at force {min(listed)!r} no kernel force holds the letters {finest * unit!r} to "
                                 f"{widest * unit!r} above their rows' starts at their limit")
        return np.maximum(s, held / unit) * unit

    def force_from_unit(self, s: float) -> float:
        """A kernel force s / unit; an end's +-inf stays, and a finite one past the largest float raises."""
        out = s / self.unit
        if math.isinf(out) and not math.isinf(s):
            raise NumericalError(f"the force {s!r} in units of {self.unit!r} is past the largest float")
        return out

    def in_units(self, level):
        """A level at origin (a budget less the floor), or an array of values at origin, in units."""
        return level / self.unit

    def means_from_origin(self, means: np.ndarray) -> np.ndarray:
        """Per-row means at origin in units moved back; a force grid's rows, one per force, alike."""
        return means * self.unit + self.starts

    def log_z_from_origin(self, s, log_z: np.ndarray) -> np.ndarray:
        """Per-row log-partitions at origin at force s moved back: a row at origin has ln Z lower by
        s * start (s one number, or an array that broadcasts against the starts).  The kernel's are
        within 2^1022 at the forces ``forces`` gives, so the sum is checked only where |s * start|
        may pass 2^1021."""
        if not self.far or _largest(s) * self.far <= 2.0**1021:
            return log_z + s * self.starts
        with np.errstate(over="ignore", invalid="ignore"):
            moved = log_z + s * self.starts
        if not np.isfinite(moved).all():
            raise NumericalError(f"the log-partition at force {s!r} is past the largest float")
        return moved

    def variances(self, v, name: str):
        """Variances in units (an array, or one number) times unit, twice; ``name`` names them in the
        error for one that overflows or, normal, underflows to 0.  The kernel's own 0 or subnormal,
        at a stiff force, stays.  A variance is at most the widest range squared, so only a unit below
        1e-7, or a range past 1e154, in units or out, needs the extremes checked, in Python floats."""
        unit, widest = self.unit, self.widest
        if unit < 1e-7 or not max(widest, widest * unit) < 1e154:
            listed = v.ravel().tolist() if isinstance(v, np.ndarray) else [v]
            top, least = max(listed), min((x for x in listed if x >= _TINY), default=math.inf)
            if not top * unit * unit < math.inf or least * unit * unit == 0.0:  # nan fails the first
                raise NumericalError(f"{name} is not representable: {top!r} or {least!r} in units of {unit!r}, squared")
        return v * unit * unit

    def grid(self, s, order: int = 2):
        """Per-row (log-partition, mean, variance) at origin at kernel force ``s``, or at each force
        of a 1-D array ``s``, stacked forces first, by ``_tilted``; ``order`` 1 stops after the mean.
        The forces are unchecked."""
        _TALLY["table"] += 1
        return _tilted(_moments, self.log_weights, (self.values,), s, order)

    def moments(self, s, order: int = 2):
        """``grid`` at the kernel force for one force s (``force``)."""
        return self.grid(self.force(s), order)

    def pair(self, other: _Table, s_a, s_b):
        """Per-row (log-partition, mean of the values a, mean of ``other``'s values b, variance of a,
        variance of b, covariance) of the two tables tilted together by e^{s_a * a + s_b * b}, by
        ``_tilted`` over ``s_a``.  ``other`` is lowered by ``_at_origin`` on the same log-weights.

        Its two callers read the covariances: the two-budget ascent (``multiconstraint._evaluate``)
        and ``observable_sweep``, an observable's table held at ``s_b`` = 0; a mean alone reads
        ``law``.  ``s_b`` is a finite scalar.  The forces are kernel forces, unchecked."""
        _TALLY["table"] += 1
        return _tilted(_pair, self.log_weights, (self.values, other.values), s_a, s_b)

    def law(self, s):
        """Per-row tilted law (each row summing to 1) and log-partition at the kernel force for one
        force s (``force``): one call, since the law is as large as its table and row blocks would
        only add a copy."""
        _TALLY["table"] += 1
        return _normalised(*_tilted_weights(self.log_weights, self.values * self.force(s)))

    def averaged(self, forces: np.ndarray, moment: int) -> np.ndarray:
        """The row-weighted mean (moment 1) or variance (2) at origin, in units, at each of the
        kernel ``forces``, the kernel taken to that moment only.

        ``np.vecdot`` reduces every force's row in one call by the same ``ddot`` that ``np.dot``
        runs at a single force, so a batched route equals its one-force loop bit for bit.
        ``rows @ w`` (and ``np.inner``) would run gemv, which orders its sums differently, and
        so would rows that are not C-contiguous; the kernel's outputs are.
        """
        return np.vecdot(self.grid(forces, moment)[moment], self.row_weights)

    def rate(self, s, level, log_z):
        """The Legendre rate s * level - sum_x w_x ln Z_x(s) at origin, at a kernel force s and a level
        in units, floored (``_floored``).  A 1-D array ``s``, with one ``level`` and one row of
        ``log_z`` per force, gives an array, summed by ``np.vecdot`` as in ``averaged``, so each entry
        equals its one-force call bit for bit.  A positive force one s whose exponent s * range
        passes 2^52 raises ``NumericalError``: the rate, a difference of terms near it, keeps no digit."""
        w = self.row_weights
        if not isinstance(s, np.ndarray) and s * self.widest > _REACH:
            raise NumericalError(f"at force {s / self.unit!r} the rate, a difference of terms near s * range "
                                 f"{s * self.widest * self.unit!r}, keeps no digit")
        return _floored(s * level - (np.vecdot(log_z, w) if isinstance(s, np.ndarray) else float(np.dot(w, log_z))))

    def at_end(self, sign: float) -> np.ndarray:
        """The log-weights of each row's letters at its lower (``sign`` -1) or upper (+1) end, -inf elsewhere."""
        ranges = self.ranges[:, None] / self.unit
        at_end = sign * (self.values - (ranges if sign > 0.0 else 0.0)) >= -VALUE_MERGE_TOL * ranges
        return np.where(at_end, self.log_weights, -math.inf)


def _kernel_calls() -> dict[str, int]:
    """A copy of the kernel's call tally (``_TALLY``): its row blocks and its table calls, each
    counted since import."""
    return dict(_TALLY)


def _exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i rounded once from its exact value: each product as its rounded value and its
    exact error (Dekker's TwoProduct, on Veltkamp's split of each factor into two halves of at most
    26 bits), all summed by ``math.fsum`` (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005).
    Exact while no nonzero product falls below about 1e-290, so that no part of a product underflows.
    In Python floats, which at a few rows cost less than numpy's per-call overhead; 512 rows take
    about 0.2 ms, a seventh of one kernel call.  A factor past about 1e300 overflows its split, and
    the sum comes out nan: there it is summed in exact rationals (``Fraction``) instead, rounded once
    to the same float."""
    terms = []
    for x, y in zip(a.tolist(), b.tolist()):
        product = x * y
        c = 134217729.0 * x  # 2^27 + 1
        x1 = c - (c - x)
        c = 134217729.0 * y
        y1 = c - (c - y)
        x2, y2 = x - x1, y - y1
        terms += (product, x2 * y2 - (((product - x1 * y1) - x2 * y1) - x1 * y2))
    total = math.fsum(terms)
    if math.isfinite(total):
        return total
    from fractions import Fraction  # imported on this rare path alone, off the command line's cold start

    return float(sum(Fraction(x) * Fraction(y) for x, y in zip(a.tolist(), b.tolist())))


def _at_origin(weights, log_weights: np.ndarray, values: np.ndarray) -> _Table:
    """The table with each row of ``values`` moved to start at 0, its starts and ranges taken over the
    entries that carry mass (``_row_ends``; an entry with none is set to 0), and put in units of its
    ``span`` in place, or of 1 where that is 0 or not finite, or of the widest range over
    ``_WIDEST_UNITS`` where that is wider still and a normal float (a light row that carries the whole
    range spans 1 / weight spans).  A row shift leaves every tilted law unchanged, and s * value keeps
    the table's own resolution however far its rows sit from 0; in units every table spans at most 1
    and no row more than 2^64, so no tilted variance under- or overflows for its scale alone."""
    starts, ends, live = _row_ends(log_weights, values)
    at_origin, ranges = values - starts[:, None], ends - starts
    if live is not None:
        at_origin[~live] = 0.0
    span, widest = float(np.dot(weights, ranges)), max(ranges.tolist())
    unit = span if 0.0 < span < math.inf else 1.0
    if widest > unit * _WIDEST_UNITS and widest / _WIDEST_UNITS >= _TINY:
        unit = widest / _WIDEST_UNITS
    if unit != 1.0:
        at_origin /= unit
    return _Table(weights, log_weights, at_origin, starts, ranges, span, unit, widest / unit, _largest(starts))


# An end also claims targets within this fraction of its own size, a few
# units in its last place: a point mass, or a useless channel, has no span.
_END_REL = 4.0 * float(np.finfo(float).eps)


def _end_band(span: float, end: float) -> float:
    """How far past ``end`` a level still sits on it: ``VALUE_MERGE_TOL`` of the span plus ``_END_REL``."""
    return VALUE_MERGE_TOL * span + _END_REL * abs(end)


def _legendre(table: _Table, target: float, tol: float, *, nonpositive=False, force_only=False, band_span=0.0):
    """(s, rate, moments): the kernel force at which the row-weighted tilted mean D(s) of the table
    hits ``target``, the rate there, and the kernel's per-row moments at s (None at an end), each
    force evaluated once, force 0 first.

    All three are taken on the table at origin and in units (``_at_origin``), with the target moved
    there by the table's ``floor``, sum_x w_x start_x, rounded once from its exact value where the
    rows sit far from 0.  D runs from that floor (s -> -inf) to its ceiling, the floor plus the
    table's ``span`` (s -> +inf), or with ``nonpositive`` to D(0), and a target at or above D(0)
    gets s = 0.  A target within ``_end_band`` of an end gets s = -inf or +inf and the rate
    -sum_x w_x ln(mass of row x at that end); beyond an end it raises
    ``LevelInfeasibleError``.  Otherwise Newton runs on the logit log((D - Dmin) / (Dmax - D)),
    exactly linear in s for one row of two values and close to linear far out in either tail, to
    ``|D(s) - target| <= tol * span``, or raises ``BracketError`` where it cannot bracket the
    target.  Every rate, an end's included, is ``_Table.rate``'s.  ``force_only`` returns s alone
    (rate nan, moments None), without the kernel call the rate needs.  ``band_span`` widens the end
    bands to that span's, for a table restricted from a wider one.  A nan target, or a ``tol`` that
    ``_check_tol`` refuses, raises ``ValidationError``.
    """
    _check_tol(tol)
    _check_number(target, "the target level")
    row_weights, unit, span = table.row_weights, table.unit, table.span
    base = table.floor()
    level = table.in_units(target - base)
    ceiling, ranges = span / unit, table.ranges / unit
    visited = {0.0: table.grid(0.0)}  # force -> moments: each force evaluated once
    top = min(float(np.dot(row_weights, visited[0.0][1])), ceiling) if nonpositive else ceiling
    # ranges that weigh to a span of 0 (subnormal ones): the floor, D(0) and the ceiling are one
    # float, and a budget on the floor is on its end
    if nonpositive and level >= top and (level > 0.0 or ceiling > 0.0 or not ranges.any()):
        return 0.0, table.rate(0.0, top, visited[0.0][0]), visited[0.0]
    for end, sign in [(0.0, -1.0)] + ([] if nonpositive else [(ceiling, 1.0)]):
        band = _end_band(max(top * unit, band_span), base + end * unit) / unit
        if sign * (level - end) > band:
            raise LevelInfeasibleError(f"level {target!r} outside the achievable range [{base!r}, {base + span!r}]")
        if sign * (level - end) >= -band:
            # the mass cost is the zero-force rate of the table restricted to that end
            log_mass = table._replace(log_weights=table.at_end(sign)).law(0.0)[1]
            return sign * math.inf, table.rate(0.0, 0.0, log_mass), None

    def logit_and_slope(u: float):
        _, means, variances = visited[u] = visited.get(u) or table.grid(u)
        a = float(np.dot(row_weights, means))
        b = float(np.dot(row_weights, ranges - means))
        if a <= 0.0 or b <= 0.0:  # rounding far out in a tail
            return (-math.inf if a <= 0.0 else math.inf), 0.0
        return math.log(a / b), float(np.dot(row_weights, variances)) * (1.0 / a + 1.0 / b)

    # The solve's first point is the Newton step from 0, exact for one row of two values, and
    # twice that step, the problem's own force scale, caps how far it expands.  Without a slope at
    # 0 (the weights underflow there) the cap starts at 1, the force scale of a table in units.
    origin = logit_and_slope(0.0)
    gap = ceiling - level
    goal = math.log(level / gap)
    s = invert_monotone(
        logit_and_slope,
        goal,
        f_tol=math.log1p(tol * top / level) + math.log1p(tol * top / gap),
        reach=2.0 * (goal - origin[0]) / origin[1] if origin[1] > 0.0 else 1.0,
        hi_limit=0.0 if nonpositive else math.inf,
    )
    if force_only:
        return s, math.nan, None
    moments = visited.get(s) or table.grid(s)
    return s, table.rate(s, level, moments[0]), moments


def log_mgf(dist: FiniteDistribution, s: float) -> float:
    """ln E[e^{s*y}], max-shifted so large |s| never overflows."""
    table = dist._table
    return float(table.log_z_from_origin(s, table.moments(s, 1)[0])[0])


def tilt(dist: FiniteDistribution, s) -> TiltReport:
    """Reweight the distribution by e^{s*y} and report its exact moments, at one force s or at each
    force of a 1-D array s (``_force_grid``).

    The moments are the kernel's (``_Table.grid``), in row blocks of about ``_BLOCK_ENTRIES``
    entries, so each entry is ``log_mgf``'s, ``rate_at_force``'s level and, at force 0,
    ``FiniteDistribution.variance`` bit for bit, and each entry of a grid's report is its force's
    report.  A grid's report holds arrays; one force's holds floats."""
    grid, one = _force_grid(s)
    table = dist._table
    log_z, mean, variance = (out[:, 0] for out in table.grid(table.forces(grid)))
    fields = {"s": grid, "log_mgf": table.log_z_from_origin(grid, log_z), "mean": table.means_from_origin(mean),
              "variance": table.variances(variance, "tilt's variance")}
    if one:
        fields = {name: float(value[0]) for name, value in fields.items()}
    return _record(TiltReport, **fields, dist=dist)


def rate_at_force(dist: FiniteDistribution, s: float) -> RateResult:
    """Rate function evaluated parametrically at tilt s (Legendre route)."""
    table = dist._table
    kernel_s = table.force(s)
    log_z, mean = table.grid(kernel_s, 1)  # at origin: the start cancels in the rate
    return RateResult(float(table.means_from_origin(mean)[0]), float(s), table.rate(kernel_s, mean[0], log_z))


def force_at_level(dist: FiniteDistribution, level: float, tol: float = 1e-10) -> RateResult:
    """Invert the mean map: find the force whose tilted mean hits ``level``.

    Interior levels are solved by a bracketed, safeguarded Newton iteration
    on the tilted variance (the slope of the mean; see ``_legendre``)
    to ``|mean - level| <= tol * (max - min)``.  A level on an endpoint of the
    support returns the signed-infinite force sentinel with rate equal to
    -ln(prob of that endpoint); levels outside the support raise.
    """
    table = dist._table
    try:
        s, rate, _ = _legendre(table, level, tol)
    except LevelInfeasibleError:
        if dist.size > 1:
            raise
        raise LevelInfeasibleError(
            f"level {level!r} unreachable: distribution is a point mass at {dist.min_value!r}"
        ) from None
    if math.isinf(s):
        level = dist.min_value if s < 0.0 else dist.max_value
    return RateResult(level=float(level), force=float(table.force_from_unit(s)), rate=rate)


def rate_work_integral(dist: FiniteDistribution, s: float, tol: float = 1e-9) -> float:
    """Work route to the rate: integral of u * Var_u(y) for u from 0 to s, to ``tol`` in nats
    (``_work_integral``)."""
    return _work_integral(dist._table, s, tol)


# The quadratures cut their interval from 0 at this many force scales, and at each doubling of it.
_CUT_SCALES = 64.0


def _pieces(f, table: _Table, s: float, tol: float, extent: float = 1.0) -> float:
    """The integral of ``f`` from 0 to the kernel force s by ``adaptive_simpson``: the one front of the
    quadrature routes, whose integrands are a tilted variance or covariance on ``table``, or u times one.

    Before any node it refuses a ``tol`` that is not one finite number > 0.  The integral of a slope,
    the displacement of a mean in its table's units, runs to ``tol`` times that table's ``extent``,
    which is ``tol`` times its span, as ``_legendre`` meets its budget; a rate's, in nats, keeps ``tol``.

    The integrands fall off exponentially within a few force scales (one over the widest row range)
    of 0, and one piece from 0 to 250 scales or more puts no node there, its first nodes an eighth
    and a quarter of the way out: a work integral came out about 0.  So [0, s] is cut at 64, 128,
    256, ... scales, each piece run to its share of ``tol`` and summed from 0 outward.  Within 64
    scales it is one piece, the rule's own call, bit for bit; where every row is one value, none."""
    _check_quadrature_tol(tol)
    if not table.widest:  # every integrand is 0 at any force: the rule's signed 0 (nodes near 1e308 overflowed)
        return -0.0 if s < 0.0 else 0.0
    ends, edge = [0.0], _CUT_SCALES / table.widest
    while edge < abs(s):
        ends.append(math.copysign(edge, s))
        edge *= 2.0
    ends.append(s)
    share, total = tol * extent / (len(ends) - 1), -0.0  # -0.0 + x is x: one piece is the rule's own call, bit for bit
    for a, b in zip(ends, ends[1:]):
        total += adaptive_simpson(f, a, b, share)
    return total


def _work_integral(table: _Table, s: float, tol: float, variance=None) -> float:
    """The integral from 0 to s of u times ``variance(u)``, the row-weighted tilted variance at an
    array of kernel forces u (``table.averaged(u, 2)`` by default), to ``tol`` in nats by ``_pieces``,
    floored (``_floored``): the one quadrature of the work routes, each at the kernel's own force s.
    Like every quadrature on ``_pieces``, its integrand is taken at every node, u = +-0 included."""
    variance = variance or (lambda us: table.averaged(us, 2))
    return _floored(_pieces(lambda us: us * variance(us), table, table.force(s), tol))


def _sweep(table: _Table, outputs_at, s: float, tol: float, mean_of: _Table, *, mean: int, slope: int):
    """(per-row means at force 0, integral from 0 to s of the row-weighted slope), ``mean`` and
    ``slope`` indexing the kernel outputs ``outputs_at`` gives at a kernel force or array of them on
    ``table``: the quadrature of the routes that add a slope's integral to a mean at force 0, by
    ``_pieces`` in the units of ``mean_of``, the table whose mean moves, to ``tol`` times its span,
    and moved out of them.  The means are read off the first piece's root level, which ends at force
    0 (at s = 0 no node is taken); each level's slopes are reduced by the row weights in one
    ``np.vecdot``, as ``_Table.averaged`` does."""
    at_zero, p = [], table.row_weights

    def integrand(us):
        outputs = outputs_at(us)
        if not at_zero:
            at_zero.append(outputs[mean][-1 if s < 0.0 else 0])
        return np.vecdot(outputs[slope], p)

    integral = _pieces(integrand, table, table.force(s), tol, mean_of.extent)
    means = at_zero[0] if at_zero else outputs_at(0.0)[mean]
    return mean_of.means_from_origin(means), integral * mean_of.unit


def mean_via_integral(dist: FiniteDistribution, s: float, tol: float = 1e-9) -> float:
    """Tilted mean recovered as mean(0) plus the integrated tilted variance, to ``tol`` times the
    support's span (``_pieces``), as ``force_at_level`` meets its level."""
    table = dist._table
    return dist.mean + _pieces(lambda u: table.averaged(u, 2), table, table.force(s), tol) * table.unit


def riemann_sandwich(dist: FiniteDistribution, partition) -> tuple[float, float]:
    """Left- and right-labelled Riemann sums for the work integral.

    ``partition`` is a monotone grid of forces starting at 0 (``_check_partition``); its
    last entry is the endpoint.  The true rate at that endpoint lies between
    the two returned sums, and the gap shrinks linearly under refinement.
    """
    return _riemann_sums(dist._table, _check_partition(partition))


def _check_partition(points, name: str = "partition", error=PartitionInvalidError) -> np.ndarray:
    """``points`` as a float array of forces, nonempty, finite, from 0 and monotone, or ``error``
    naming them ``name``: the one check of Riemann partitions and protocol schedules.  A repeated
    force adds nothing to either sum and is dropped, so the sums equal those without it bit for bit."""
    pts = _floats(points, name, error).ravel()
    if pts.size == 0:
        raise error(f"{name} must be nonempty")
    if not np.all(np.isfinite(pts)) or pts[0] != 0.0:
        raise error(f"{name} must be finite and start at 0")
    steps = np.diff(pts)
    if not (np.all(steps >= 0.0) or np.all(steps <= 0.0)):
        raise error(f"{name} must be monotone")
    return pts[np.concatenate(([True], steps != 0.0))]


def _riemann_sums(table: _Table, points: np.ndarray, scale: float = 1.0) -> tuple[float, float]:
    """Left- and right-labelled Riemann sums of the integral of x dm(x) over the checked ``points``, m
    the table's row-weighted mean at force scale * x, floored, or ``NumericalError`` for a sum past
    the largest float.  The means are taken at origin in units, where the starts cancel in every
    difference, and the sums leave the units once."""
    dm = np.diff(table.averaged(table.forces(scale * points), 1))
    sums = float(np.dot(points[:-1], dm)) * table.unit, float(np.dot(points[1:], dm)) * table.unit
    if not (math.isfinite(sums[0]) and math.isfinite(sums[1])):
        raise NumericalError(f"the Riemann sums to force {float(points[-1])!r} are past the largest float")
    return _floored(sums[0]), _floored(sums[1])


def kl_free_energy_gap(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """D(q || p) in nats, matching each value of q to the nearest value of p
    within 1e-12 of the span of both supports.

    This is the free-energy excess of running weights q against the
    equilibrium weights p; it prices q's deviation per sample.
    """
    right = np.minimum(np.searchsorted(p.values, q.values), p.size - 1)
    left = np.maximum(right - 1, 0)
    # two supports together may span past the largest float: scale each end, and an overflowing gap is unmatched
    hi, lo = max(p.max_value, q.max_value), min(p.min_value, q.min_value)
    band = VALUE_MERGE_TOL * (hi - lo) if hi - lo < math.inf else VALUE_MERGE_TOL * hi - VALUE_MERGE_TOL * lo
    with np.errstate(over="ignore"):
        to_left, to_right = np.abs(p.values[left] - q.values), np.abs(p.values[right] - q.values)
    match = np.where(to_left <= to_right, left, right)
    unmatched = np.minimum(to_left, to_right) > band
    if unmatched.any():
        v = q.values[np.argmax(unmatched)]
        raise SupportMismatchError(f"value {v!r} carried by q has no matching outcome in p")
    return _floored(np.dot(q.probs, np.log(q.probs / p.probs[match])))
