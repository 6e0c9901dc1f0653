"""Exception types shared across the package.

Every error the library raises on purpose derives from SwarmError, so
callers can catch one base class at the boundary. The command line tool
maps ParseError/ValidationError to exit code 2 and everything else to 1.
"""


class SwarmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SwarmError):
    """An input lies outside the domain of an operation: a value out of
    range, an array shape that disagrees with the network, a weight
    policy the operation does not support, or a time or step count a
    control schedule cannot cover."""


class GimbalLockError(DomainError):
    """Pitch angle too close to +-pi/2 for the Euler-rate map to exist."""


class ConvergenceError(SwarmError):
    """LAPACK's symmetric eigensolver (eigh) did not converge."""


class DisconnectedError(SwarmError):
    """The communication graph is not connected."""


class SaturationError(SwarmError):
    """A commanded rotor speed is negative or exceeds the allowed maximum."""


class InfeasibleError(SwarmError):
    """No schedule within the rotor limits realizes the requested maneuver."""


class ParseError(SwarmError):
    """A mission config file could not be parsed."""


class ValidationError(SwarmError):
    """A mission config parsed but violates a structural invariant."""


class DivergenceError(SwarmError):
    """A run produced non-finite numbers, so it has no result to report."""


class IoError(SwarmError):
    """Reading or writing mission artifacts failed."""
