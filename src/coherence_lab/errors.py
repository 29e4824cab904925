"""Exception hierarchy.

Two branches matter for the CLI exit codes: ``ValidationError`` (bad
parameters or preconditions, exit code 2) and ``NumericalError`` (a
computation that could not be carried out reliably, exit code 3).
"""


class CoherenceLabError(Exception):
    """Base class for all library errors."""


class ValidationError(CoherenceLabError):
    """A precondition or parameter check failed."""


class NumericalError(CoherenceLabError):
    """A numerical procedure failed or lost too much accuracy."""


class SpaceMismatch(ValidationError):
    """Operands live on different Hilbert spaces."""


class NotComposite(ValidationError):
    """Operation requires a state on a tensor-product space."""


class NotUnit(ValidationError):
    """A direction vector is not normalized."""


class NotTwoQubit(ValidationError):
    """Operation requires a state on two dimension-2 factors."""


class InvalidWeight(ValidationError):
    """Magnetic quantum number outside -j..j or not matching j's parity."""


class WeightConditionViolated(ValidationError):
    """Subsystem spins do not add up to the system spin."""


class TruncationTooSmall(ValidationError):
    """Fock cutoff too small for the requested coherent amplitude."""


class StrategyUnavailable(ValidationError):
    """Requested maximization strategy does not apply to this state."""


class ConfigError(ValidationError):
    """Unparseable or inconsistent CLI configuration."""


class ZeroVector(NumericalError):
    """Normalization of an all-zero vector was requested."""


class NonFinite(NumericalError):
    """Matrix or vector contains NaN or infinity."""


class StepSizeTooLarge(NumericalError):
    """Time stepping drifted off the unit sphere."""
