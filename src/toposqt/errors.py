"""Exception hierarchy for domain errors.

Every error raised on a violated precondition or invariant derives from
``ToposError`` so callers (notably the CLI) can map domain failures to a
single exit status.
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
    """A per-context assignment does not cover every context of the poset,
    or assigns a context outside it."""


class BaseMismatch(ToposError):
    """Sieve connectives require both operands to share a base context."""


class EnumerationLimitExceeded(ToposError):
    """A down-set is too large for exhaustive sieve enumeration."""


class SearchBudgetExceeded(ToposError):
    """The global-section search exceeded its node budget."""


class ParseError(ToposError):
    """A problem file is not syntactically valid JSON of the expected shape."""


class ValidationError(ToposError):
    """A problem file parsed but violates a declared invariant."""
