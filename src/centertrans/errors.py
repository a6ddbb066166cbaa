"""Error taxonomy shared by all modules."""


class DomainError(ValueError):
    """Input violates an operation's precondition (dimension mismatch, bad index, ...)."""


class DegeneracyError(DomainError):
    """Geometric input is degenerate where nondegeneracy is required."""


class OriginNotInteriorError(DegeneracyError):
    """The origin is not in the relative interior of the vertex hull."""


class SurrogateUnavailableError(DegeneracyError):
    """The sector-barycenter vertex surrogate failed for every sector offset."""


class InternalConsistencyError(RuntimeError):
    """A condition the algorithms guarantee was violated; indicates a bug."""
