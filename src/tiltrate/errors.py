"""Exception hierarchy.

Everything raised on purpose derives from TiltrateError.  ValidationError
covers bad inputs and infeasible requests (CLI exit status 1);
NumericalError covers solver breakdowns (CLI exit status 2).
"""


class TiltrateError(Exception):
    """Base class for all package errors."""


class ValidationError(TiltrateError, ValueError):
    """Malformed or infeasible input."""


class LevelInfeasibleError(ValidationError):
    """Requested level lies outside the achievable range of the distribution."""


class SupportMismatchError(ValidationError):
    """Divergence requested between distributions whose supports do not nest."""


class PartitionInvalidError(ValidationError):
    """Force partition is not a monotone grid anchored at zero."""


class DistortionTooLowError(ValidationError):
    """Requested distortion sits below the minimum any coding law can reach."""


class InfeasiblePairError(ValidationError):
    """No reproduction law can satisfy the requested pair of distortion ceilings."""


class ChannelDegenerateError(ValidationError):
    """Some channel output never occurs under the given input distribution."""


class ScheduleInvalidError(ValidationError):
    """Force schedule is not a monotone path starting at zero."""


class LengthInfeasibleError(ValidationError):
    """Target mean length lies outside what any applied force can reach."""


class EnergyInfeasibleError(ValidationError):
    """Target per-element energy lies outside the spectrum."""


class CompositionNotIntegralError(ValidationError):
    """Block length does not split the source probabilities into whole counts."""


class AlphabetTooLargeError(ValidationError):
    """Brute-force search requested on an alphabet it cannot enumerate."""


class ConfigError(ValidationError):
    """Problem-definition document is missing, malformed, or inconsistent."""


class NumericalError(TiltrateError, RuntimeError):
    """An iterative routine failed to converge."""
