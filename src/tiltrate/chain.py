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
        y = np.asarray(self.state_lengths, dtype=float).ravel()
        e = np.asarray(self.state_energies, dtype=float).ravel()
        if y.size == 0 or y.size != e.size:
            raise ValidationError("state_lengths and state_energies must be nonempty and equally long")
        # the energies' two ends, which ChainSystem checks as the ends of the log-weights -beta * energies
        ends = float(e.min()), float(e.max())
        if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise ValidationError("state_lengths and state_energies must be finite")
        _check_entries(y, "state_lengths", "state_lengths and state_energies must be finite")
        if not (math.isfinite(self.fraction) and self.fraction >= 0.0):
            raise ValidationError("fraction must be a nonnegative real")
        _frozen(self, state_lengths=y, state_energies=e)
        object.__setattr__(self, "_energy_ends", ends)
        object.__setattr__(self, "fraction", float(self.fraction))


@dataclass(frozen=True, eq=False)
class ChainSystem:
    arrays: tuple[ElementArray, ...]
    beta: float = 1.0
    boltzmann_k: float = 1.0

    def __post_init__(self):
        arrays = tuple(self.arrays)
        if not arrays:
            raise ValidationError("a chain needs at least one element array")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError("beta must be a positive real")
        if not (math.isfinite(self.boltzmann_k) and self.boltzmann_k > 0.0):
            raise ValidationError("boltzmann_k must be a positive real")
        _law([a.fraction for a in arrays], "array fractions")
        # the two ends of each array's log-weights, a row per array: an overflow to inf is refused, not warned of
        with np.errstate(over="ignore"):
            ends = -self.beta * np.array([a._energy_ends for a in arrays])
        _check_entries(ends, "-beta * state_energies", "-beta * state_energies must be finite")
        object.__setattr__(self, "arrays", arrays)

    @property
    def temperature(self) -> float:
        return 1.0 / (self.boltzmann_k * self.beta)


def _table(system: ChainSystem):
    """The ``tilting._Table`` of the lengths under the log-weights -beta * energies, one row per
    array weighted by its fraction, with each row moved to start at 0.

    Arrays with fewer states are padded with -inf log-weights, which carry
    no Boltzmann mass, and zero lengths.  Built once per public call, not
    kept on the system: 512 arrays of 512 states take 4 MB.
    """
    arrays, beta = system.arrays, system.beta
    sizes = [a.state_lengths.size for a in arrays]
    if min(sizes) == max(sizes):  # every array has the full width: the rows stack as they are
        lengths = np.array([a.state_lengths for a in arrays])
        log_w = -beta * np.array([a.state_energies for a in arrays])
    else:  # row x's states fill its leading sizes[x] entries, in the order they are concatenated
        live = np.arange(max(sizes)) < np.array(sizes)[:, None]
        lengths, log_w = np.zeros(live.shape), np.full(live.shape, -math.inf)
        lengths[live] = np.concatenate([a.state_lengths for a in arrays])
        log_w[live] = -beta * np.concatenate([a.state_energies for a in arrays])
    return _at_origin(np.array([a.fraction for a in arrays]), log_w, lengths)


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
    return float(np.dot([a.fraction for a in system.arrays], array_lengths(system, lam)))


def length_variance(system: ChainSystem, lam: float) -> float:
    """Population-averaged per-element length variance; beta times this is dY/dlam."""
    s = _force(system, lam)
    table = _table(system)
    return float(np.dot(table.row_weights, table.moments(s)[2]))


def equilibrium_force(system: ChainSystem, target_length: float, tol: float = 1e-10) -> float:
    """Force at which the chain's mean per-element length equals the target.

    Solved for s = beta * lam by ``tilting._legendre``, in the lengths' own
    force scale.  A length on an end of the achievable range, as that solve
    decides the ends, would need an infinite force, and a length beyond one
    has none: both raise ``LengthInfeasibleError``, whose message names the end
    band when the length lies strictly inside the range.
    """
    try:
        s = _legendre(_table(system), target_length, tol, force_only=True)[0]
    except LevelInfeasibleError:
        s = math.inf
    if math.isinf(s):
        lo, hi = (sum(a.fraction * float(end(a.state_lengths)) for a in system.arrays) for end in (np.min, np.max))
        reach = f"the achievable range ({lo!r}, {hi!r})"
        if lo < target_length < hi:
            raise LengthInfeasibleError(
                f"length {target_length!r} lies within the end band of {reach} and needs an infinite force")
        raise LengthInfeasibleError(f"length {target_length!r} is not strictly inside {reach}")
    return s / system.beta


def quasistatic_work(system: ChainSystem, lam_final: float, tol: float = 1e-9) -> float:
    """Reversible work of sweeping the force from 0 to lam_final.

    The work is (1/beta) times the rate function at s = beta * lam_final, which must be finite: the
    rate's work integral of u times the row-weighted length variance from 0 to s
    (``tilting._work_integral``), taken to ``tol`` in nats, divided by beta.
    """
    return _work_integral(_table(system), _force(system, lam_final, "lam_final"), tol) / system.beta


def protocol_work_bounds(system: ChainSystem, schedule) -> tuple[float, float]:
    """(pre-jump, post-jump) work sums of a stepwise force protocol.

    The post-jump sum is the work actually spent jumping the force and
    letting the chain re-equilibrate; the pre-jump sum is its mirror.  The
    quasistatic work lies between them for every monotone schedule.
    """
    # at origin: the starts cancel in every difference of the sums
    table, schedule = _table(system), _check_partition(schedule, "schedule", ScheduleInvalidError)
    return _riemann_sums(schedule, lambda lams: table.averaged(system.beta * lams, 1))


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
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValidationError("beta must be a positive real")
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
    vmin, vmax = energy_dist.min_value, energy_dist.max_value
    message = f"energy {energy!r} outside the spectrum [{vmin!r}, {vmax!r}]"
    if energy > vmax + _end_band(vmax - vmin, vmax):
        raise EnergyInfeasibleError(message)
    try:
        rate = _legendre(energy_dist._table, energy, tol, nonpositive=True)[1]
    except LevelInfeasibleError:
        raise EnergyInfeasibleError(message) from None
    return -math.log(float(energy_dist.probs.min())) - rate
