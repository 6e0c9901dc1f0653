"""Exception types shared across the package.

Every error the library raises on purpose derives from SwarmError, so
callers can catch one base class at the boundary. The command line tool
maps ParseError/ValidationError to exit code 2 and everything else to 1.
"""


class SwarmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SwarmError):
    """An input lies outside the mathematical domain of an operation."""


class GimbalLockError(DomainError):
    """Pitch angle too close to +-pi/2 for the Euler-rate map to exist."""


class ConvergenceError(SwarmError):
    """An iterative routine exhausted its iteration budget."""


class PolicyError(SwarmError):
    """A weight policy was used with an operation that does not support it."""


class DimensionError(SwarmError):
    """Array shapes disagree with the network or trajectory they describe."""


class DisconnectedError(SwarmError):
    """The communication graph is not connected."""


class SaturationError(SwarmError):
    """A commanded rotor speed is negative or exceeds the allowed maximum."""


class InfeasibleError(SwarmError):
    """No schedule within the rotor limits realizes the requested maneuver."""


class ScheduleGapError(SwarmError):
    """A control schedule was sampled outside the interval it covers."""


class ParseError(SwarmError):
    """A mission config file could not be parsed."""


class ValidationError(SwarmError):
    """A mission config parsed but violates a structural invariant."""


class DivergenceError(SwarmError):
    """A run produced non-finite numbers, so it has no result to report."""


class IoError(SwarmError):
    """Reading or writing mission artifacts failed."""
