"""Exception hierarchy shared by all modules."""


class UltradynError(Exception):
    """Base class for library errors."""


class DivisionByZero(UltradynError):
    """Division by an exact zero."""


class PrecisionExhausted(UltradynError):
    """A result's honest precision fell below the configured floor, or a
    computation needed more digits than were available."""


class RankUncertified(UltradynError):
    """A pivot candidate is indistinguishable from zero at working precision,
    so the rank (and hence a kernel/image dimension) cannot be certified."""


class PreconditionViolated(UltradynError):
    """A documented precondition of an operation does not hold."""


class NotAFixedPoint(PreconditionViolated):
    """The supplied point is not fixed by the map."""


class JacobianSingular(PreconditionViolated):
    """An operation required an invertible derivative."""


class RadiusNotFound(UltradynError):
    """No admissible ball radius was found (no longer raised: radii are uncapped)."""


class ResonanceDetected(UltradynError):
    """A degree-k coefficient system of the invariance equation is singular."""


class SchemaError(UltradynError):
    """A problem file does not match the published input schema."""
