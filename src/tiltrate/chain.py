"""A chain of independent multi-state elements pulled by a force.

Each array holds a fraction of the chain's elements; an element of array x
occupies one of a few states, state j having rest energy eps_j and length
y_j.  Under force lam at inverse temperature beta the states are Boltzmann
weighted by e^{-beta (eps - lam y)}.  The mechanical story mirrors the
rate-distortion one exactly: map a coding law to state energies
-ln Q / beta and distortion rows to state lengths, and the force needed to
stretch the chain, the quasistatic work, and the stepwise protocol bounds
all reproduce the information quantities at s = beta * lam.

Units: energies and work are plain numbers with k*T0 = 1/beta; entropy is
reported in units of k (nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnergyInfeasibleError,
    LengthInfeasibleError,
    LevelInfeasibleError,
    ScheduleInvalidError,
    ValidationError,
)
from .ratedistortion import RdProblem
from .tilting import (
    FiniteDistribution,
    _at_origin,
    _check_entries,
    _check_force,
    _check_partition,
    _end_band,
    _finite,
    _floats,
    _frozen,
    _law,
    _legendre,
    _riemann_sums,
    _work_integral,
)

__all__ = [
    "ElementArray",
    "ChainSystem",
    "gibbs_free_energy",
    "array_lengths",
    "expected_length",
    "length_variance",
    "equilibrium_force",
    "quasistatic_work",
    "protocol_work",
    "protocol_work_bounds",
    "from_rd_problem",
    "entropy_at_energy",
]


@dataclass(frozen=True, eq=False)
class ElementArray:
    """States of one element type: lengths, rest energies, and the population fraction."""

    state_lengths: np.ndarray
    state_energies: np.ndarray
    fraction: float

    def __post_init__(self):
        y = _floats(self.state_lengths, "state_lengths").ravel()
        e = _floats(self.state_energies, "state_energies").ravel()
        if y.size == 0 or y.size != e.size:
            raise ValidationError("state_lengths and state_energies must be nonempty and equally long")
        # the energies' two ends, which ChainSystem checks as the ends of the log-weights -beta * energies
        ends = float(e.min()), float(e.max())
        if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise ValidationError("state_lengths and state_energies must be finite")
        _check_entries(y, "state_lengths", "state_lengths and state_energies must be finite")
        if not (_finite(self.fraction, "fraction") and self.fraction >= 0.0):
            raise ValidationError("fraction must be a nonnegative real")
        _frozen(self, state_lengths=y, state_energies=e)
        object.__setattr__(self, "_energy_ends", ends)
        object.__setattr__(self, "fraction", float(self.fraction))


@dataclass(frozen=True, eq=False)
class ChainSystem:
    """Element arrays at inverse temperature ``beta``.  A system keeps, read-only, its kernel's row weights (k floats)
    and log-weights -beta * energies: one row of m floats where every array's energies are the first's byte for byte
    (every ``from_rd_problem`` chain), else the k x m table padded with -inf (2 MB at k = m = 512)."""

    arrays: tuple[ElementArray, ...]
    beta: float = 1.0
    boltzmann_k: float = 1.0

    def __post_init__(self):
        arrays = tuple(self.arrays)
        if not arrays:
            raise ValidationError("a chain needs at least one element array")
        if not (_finite(self.beta, "beta") and self.beta > 0.0):
            raise ValidationError("beta must be a positive real")
        if not (_finite(self.boltzmann_k, "boltzmann_k") and self.boltzmann_k > 0.0):
            raise ValidationError("boltzmann_k must be a positive real")
        weights = _law([a.fraction for a in arrays], "array fractions")
        # the two ends of each array's log-weights, a row per array: an overflow to inf is refused, not warned of
        with np.errstate(over="ignore"):
            ends = -self.beta * np.array([a._energy_ends for a in arrays])
        _check_entries(ends, "-beta * state_energies", "-beta * state_energies must be finite")
        # each array's energies against the first's, byte by byte: no k x m temporary
        energies = [a.state_energies for a in arrays]
        first = energies[0].tobytes()
        shared = all(e.tobytes() == first for e in energies[1:])
        log_weights = -self.beta * (energies[0][None, :] if shared else _rows(energies, math.inf))
        object.__setattr__(self, "arrays", arrays)
        _frozen(self, _row_weights=weights, _log_weights=log_weights)

    @property
    def temperature(self) -> float:
        return 1.0 / (self.boltzmann_k * self.beta)


def _rows(rows, fill: float) -> np.ndarray:
    """The 1-D arrays ``rows`` stacked as the rows of a table, each shorter one padded at its end with ``fill``."""
    width = max(r.size for r in rows)
    return np.array([np.append(r, np.full(width - r.size, fill)) if r.size < width else r for r in rows])


def _table(system: ChainSystem):
    """The ``tilting._Table`` of the stacked lengths (zero-padded) under the system's kept weights and log-weights."""
    return _at_origin(system._row_weights, system._log_weights, _rows([a.state_lengths for a in system.arrays], 0.0))


def _force(system: ChainSystem, lam, name: str = "lam") -> float:
    """The kernel's force s = beta * lam, or ``ValidationError`` naming ``name`` where lam is not one
    finite number (``_check_force``) or the product is not finite: every force route's one check,
    before any kernel call."""
    _check_force(lam, name)
    s = system.beta * lam
    if not math.isfinite(s):
        raise ValidationError(f"{name} times beta must be finite (got {lam!r} * {system.beta!r})")
    return s


def gibbs_free_energy(system: ChainSystem, lam: float) -> float:
    """Per-element Gibbs free energy -(1/beta) sum_x p_x ln Z_x(lam)."""
    s = _force(system, lam)
    table = _table(system)
    return -float(np.dot(table.row_weights, table.log_z_from_origin(s, table.moments(s, 1)[0]))) / system.beta


def array_lengths(system: ChainSystem, lam: float) -> np.ndarray:
    """Boltzmann mean length of each array at force lam."""
    s = _force(system, lam)
    table = _table(system)
    return table.means_from_origin(table.moments(s, 1)[1])


def expected_length(system: ChainSystem, lam: float) -> float:
    return float(np.dot(system._row_weights, array_lengths(system, lam)))


def length_variance(system: ChainSystem, lam: float) -> float:
    """Population-averaged per-element length variance; beta times this is dY/dlam."""
    s = _force(system, lam)
    table = _table(system)
    return float(table.variances(float(np.dot(table.row_weights, table.moments(s)[2])), "length_variance"))


def equilibrium_force(system: ChainSystem, target_length: float, tol: float = 1e-10) -> float:
    """Force at which the chain's mean per-element length equals the target.

    Solved for s = beta * lam by ``tilting._legendre``, in the lengths' own
    force scale.  A length on an end of the achievable range, as that solve
    decides the ends, would need an infinite force, and a length beyond one
    has none: both raise ``LengthInfeasibleError``, whose message names the end
    band when the length lies strictly inside the range.
    """
    table = _table(system)
    try:
        s = _legendre(table, target_length, tol, force_only=True)[0]
    except LevelInfeasibleError:
        s = math.inf
    if math.isinf(s):
        lo, hi = (sum(a.fraction * float(end(a.state_lengths)) for a in system.arrays) for end in (np.min, np.max))
        reach = f"the achievable range ({lo!r}, {hi!r})"
        if lo < target_length < hi:
            raise LengthInfeasibleError(
                f"length {target_length!r} lies within the end band of {reach} and needs an infinite force")
        raise LengthInfeasibleError(f"length {target_length!r} is not strictly inside {reach}")
    return table.force_from_unit(s) / system.beta


def quasistatic_work(system: ChainSystem, lam_final: float, tol: float = 1e-9) -> float:
    """Reversible work of sweeping the force from 0 to lam_final.

    The work is (1/beta) times the rate function at s = beta * lam_final, which must be finite: the
    rate's work integral of u times the row-weighted length variance from 0 to s
    (``tilting._work_integral``), taken to ``tol`` in nats, over beta.
    """
    return _work_integral(_table(system), _force(system, lam_final, "lam_final"), tol) / system.beta


def protocol_work_bounds(system: ChainSystem, schedule) -> tuple[float, float]:
    """(pre-jump, post-jump) work sums of a stepwise force protocol.

    The post-jump sum is the work actually spent jumping the force and
    letting the chain re-equilibrate; the pre-jump sum is its mirror.  The
    quasistatic work lies between them for every monotone schedule.
    """
    return _riemann_sums(_table(system), _check_partition(schedule, "schedule", ScheduleInvalidError), system.beta)


def protocol_work(system: ChainSystem, schedule) -> float:
    """Work of the stepwise protocol (post-jump accounting); >= the quasistatic work."""
    return protocol_work_bounds(system, schedule)[1]


def from_rd_problem(problem: RdProblem, beta: float = 1.0) -> ChainSystem:
    """Map a rate-distortion instance onto a chain.

    Source letters become element arrays with fractions P(x), the distortion
    row d(x, .) becomes the state lengths, and the coding law sets the state
    energies -ln Q(xhat) / beta, making the zero-force Boltzmann weights
    reproduce Q exactly.
    """
    if not (_finite(beta, "beta") and beta > 0.0):
        raise ValidationError("beta must be a positive real")
    # the largest energy, in Python floats, which do not warn: a tiny beta would overflow in numpy first
    if not math.isfinite(-math.log(float(problem.coding_probs.min())) / beta):
        raise ValidationError(f"beta is too small: the energies -ln Q / beta overflow (got beta = {beta!r})")
    energies = -np.log(problem.coding_probs) / beta
    arrays = tuple(
        ElementArray(
            state_lengths=problem.distortion[i],
            state_energies=energies,
            fraction=float(problem.source_probs[i]),
        )
        for i in range(problem.num_source_letters)
    )
    return ChainSystem(arrays=arrays, beta=beta)


def entropy_at_energy(energy_dist: FiniteDistribution, energy: float, tol: float = 1e-10) -> float:
    """Microcanonical entropy per element at a target mean energy, in units of k.

    The distribution lists the energy levels with weights read as
    multiplicity fractions; the least-weighted level is taken to occur once,
    which sets the absolute state count.  The entropy is the minimum over
    beta >= 0 of beta * E + ln(sum of weighted e^{-beta * eps}); energies at
    the ground level return its log multiplicity (the beta -> infinity
    limit), and energies above the flat-weight mean sit at beta = 0; the
    ends are decided as in ``tilting._legendre``.
    """
    _finite(energy, "energy")  # what is no number is refused by name; nan goes on to _legendre's check
    vmin, vmax = energy_dist.min_value, energy_dist.max_value
    message = f"energy {energy!r} outside the spectrum [{vmin!r}, {vmax!r}]"
    if energy > vmax + _end_band(vmax - vmin, vmax):
        raise EnergyInfeasibleError(message)
    try:
        rate = _legendre(energy_dist._table, energy, tol, nonpositive=True)[1]
    except LevelInfeasibleError:
        raise EnergyInfeasibleError(message) from None
    return -math.log(float(energy_dist.probs.min())) - rate
