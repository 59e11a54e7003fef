"""Exception hierarchy for domain errors.

Every malformed data argument and every violated precondition or invariant
raises a ``ToposError`` (README, "The boundary contract"), so callers (notably
the CLI) can map domain failures to a single exit status.
"""


class ToposError(Exception):
    """Base class for all domain errors raised by this package."""


class NotSelfAdjoint(ToposError):
    """A matrix expected to be self-adjoint is not, within tolerance."""


class NotProjector(ToposError):
    """A matrix expected to be an orthogonal projection is not."""


class DimensionMismatch(ToposError):
    """Operands live on Hilbert spaces of different dimensions."""


class NotUnitVector(ToposError):
    """A state vector does not have norm one within tolerance."""


class NonCommutingGenerators(ToposError):
    """Projections fed to a context constructor do not commute."""


class TrivialAlgebra(ToposError):
    """The generated algebra is the scalars, which carry no context."""


class EmptySeed(ToposError):
    """A poset was requested from an empty seed collection."""


class UnknownContext(ToposError):
    """A context is not a member of the poset under consideration."""


class NotASubcontext(ToposError):
    """A restriction was requested along a non-inclusion."""


class NotInAlgebra(ToposError):
    """An operator is not a member of the given abelian algebra."""


class UnknownCharacter(ToposError):
    """A character does not belong to the spectrum of the given context."""


class IncompleteAssignment(ToposError):
    """A per-context mapping is not defined on exactly the poset's contexts."""


class BaseMismatch(ToposError):
    """Sieve connectives require both operands to share a base context."""


class EnumerationLimitExceeded(ToposError):
    """A down-set is too large for exhaustive sieve enumeration."""


class SearchBudgetExceeded(ToposError):
    """The global-section search exceeded its node budget."""


class ParseError(ToposError):
    """A problem file, or the path given for one, cannot be read as JSON of the expected shape."""


class ValidationError(ToposError):
    """An argument, or a value of a problem file, is malformed or violates a
    declared invariant, and no more specific error names the fault."""
