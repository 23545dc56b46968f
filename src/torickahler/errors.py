"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ToricError, ValueError):
    """An operation was asked to work in an unsupported dimension."""


class DomainError(ToricError, ValueError):
    """An evaluation point lies outside the domain of a function."""


class SingularPointError(DomainError):
    """Series division by a jet whose constant term vanishes."""


class InsufficientOrderError(ToricError, ValueError):
    """A derivative of higher order than the jet carries was requested."""


class NearBoundaryError(DomainError):
    """A point is too close to the polytope boundary for log-type terms."""


class NonAdmissibleError(ToricError, ValueError):
    """A potential fails the positivity conditions for a Kähler metric."""


class BracketRangeError(ToricError, ValueError):
    """Bracket expansion for a monotone inversion was exhausted."""


class DegeneratePotentialError(ToricError, ValueError):
    """A numerically singular Hessian where a metric was expected."""


class AccuracyError(ToricError, RuntimeError):
    """A quadrature or fit did not reach the requested accuracy."""


class DecayFitError(ToricError, RuntimeError):
    """Too few usable samples to fit a decay slope."""
