"""Rate functions of finite alphabets by exponential tilting.

The core objects are finite distributions of a real additive quantity
(distortion, energy, length) whose large-block statistics are captured by a
one-parameter exponential family.  On top of that the package builds:

* per-letter rate/level conversions and the thermodynamic-style integral
  identities connecting them (:mod:`tiltrate.tilting`);
* fixed-coding-law rate--distortion curves with optimal budget allocation
  across source letters (:mod:`tiltrate.ratedistortion`);
* the channel-capacity mapping of the same machinery (:mod:`tiltrate.capacity`);
* two simultaneous budget constraints (:mod:`tiltrate.multiconstraint`);
* a mechanical pulled-chain analogue sharing the identical mathematics
  (:mod:`tiltrate.chain`);
* independent brute-force and iterative cross-checking oracles
  (:mod:`tiltrate.oracles`).

All rates and entropies are in nats.
"""

from .capacity import capacity_point, CapacityPoint, Channel, mutual_information
from .chain import (
    array_lengths,
    ChainSystem,
    ElementArray,
    entropy_at_energy,
    equilibrium_force,
    expected_length,
    from_rd_problem,
    gibbs_free_energy,
    length_variance,
    protocol_work,
    protocol_work_bounds,
    quasistatic_work,
)
from .config import load_config, ProblemConfig
from .errors import (
    NumericalError,
    TiltrateError,
    ValidationError,
)
from .multiconstraint import rate_two_distortions, RdProblem2
from .oracles import (
    BaResult,
    blahut_arimoto,
    brute_allocation_min,
    exact_ld_probability,
    legendre_grid_max,
)
from .ratedistortion import (
    Allocation,
    distortion_at_force,
    distortion_mmse_integral,
    equal_force_allocation,
    force_at_distortion,
    mmse,
    observable_expectation,
    observable_sweep,
    rate_legendre,
    rate_mmse_integral,
    rd_curve,
    RdPoint,
    RdProblem,
    sandwich_bounds,
    tilted_conditional,
)
from .tilting import (
    FiniteDistribution,
    force_at_level,
    kl_free_energy_gap,
    log_mgf,
    mean_via_integral,
    rate_at_force,
    rate_work_integral,
    RateResult,
    riemann_sandwich,
    tilt,
    TiltReport,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BaResult",
    "CapacityPoint",
    "ChainSystem",
    "Channel",
    "ElementArray",
    "FiniteDistribution",
    "NumericalError",
    "ProblemConfig",
    "RateResult",
    "RdPoint",
    "RdProblem",
    "RdProblem2",
    "TiltReport",
    "TiltrateError",
    "ValidationError",
    "array_lengths",
    "blahut_arimoto",
    "brute_allocation_min",
    "capacity_point",
    "distortion_at_force",
    "distortion_mmse_integral",
    "entropy_at_energy",
    "equal_force_allocation",
    "equilibrium_force",
    "exact_ld_probability",
    "expected_length",
    "force_at_distortion",
    "force_at_level",
    "from_rd_problem",
    "gibbs_free_energy",
    "kl_free_energy_gap",
    "legendre_grid_max",
    "length_variance",
    "load_config",
    "log_mgf",
    "mean_via_integral",
    "mmse",
    "mutual_information",
    "observable_expectation",
    "observable_sweep",
    "protocol_work",
    "protocol_work_bounds",
    "quasistatic_work",
    "rate_at_force",
    "rate_legendre",
    "rate_mmse_integral",
    "rate_two_distortions",
    "rate_work_integral",
    "rd_curve",
    "riemann_sandwich",
    "sandwich_bounds",
    "tilt",
    "tilted_conditional",
]
