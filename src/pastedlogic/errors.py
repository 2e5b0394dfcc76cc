"""Exception hierarchy for the package.

Every failure raised on purpose derives from :class:`PastedLogicError`.
Input problems (malformed structures, weights, scores, count documents)
derive from :class:`ValidationError`, so front ends can map "bad input"
to one exit path while tests pin the specific condition.
"""

from __future__ import annotations


class PastedLogicError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PastedLogicError, ValueError):
    """Invalid input: malformed structure, weight, scores, or document."""


# ---------------------------------------------------------------- structures


class DuplicateAtomError(ValidationError):
    """An atom name occurs twice, in the atom list or inside one context."""


class EmptyContextError(ValidationError):
    """A context with no atoms."""


class UnknownAtomError(ValidationError):
    """A name that is not a declared atom of the structure."""


class DuplicateContextError(ValidationError):
    """Two contexts with the same atom set or the same name."""


class InvalidCycleLengthError(ValidationError):
    """Cycle length must be an integer n >= 3."""


class NotACycleStructureError(ValidationError):
    """The structure is not an n-cycle of three-atom contexts."""


# -------------------------------------------------------------------- weights


class MissingAtomValueError(ValidationError):
    """A weight or score assignment does not cover a required atom."""


class NegativePathParameterError(ValidationError):
    """The boundary-path parameter r must be nonnegative."""


class NotAdmissibleError(PastedLogicError):
    """A weight required to be admissible is not; carries the report."""

    def __init__(self, report):
        super().__init__("weight is not admissible")
        self.report = report


# --------------------------------------------------------------------- states


class EnumerationLimitError(PastedLogicError):
    """More two-valued states than the configured enumeration limit."""


class NoTwoValuedStatesError(PastedLogicError):
    """The structure admits no two-valued state, so the classical
    polytope is empty and there is no state to maximise over or to
    return.  Membership is still decided: no weight is classical."""


# -------------------------------------------------------------------- softmax


class ScoreOutOfDomainError(ValidationError):
    """A link refuses a score or a coordinate: the score is outside its
    domain or its value is not a positive finite float, or the
    coordinate is outside the range (0, inf), its float is 0 or past the
    float range, or it has no score the link evaluates."""


class NotGluedError(PastedLogicError):
    """Context distributions do not agree on shared atoms; carries the
    gluing report."""

    def __init__(self, report):
        super().__init__("context distributions do not glue to a single weight")
        self.report = report


class NotStrictlyPositiveError(PastedLogicError):
    """A strictly positive weight was required but some atoms carry zero.

    Zero atoms are listed in ``zero_atoms``.  Weights on the boundary are
    reachable as limits of strictly positive ones; on an n-cycle,
    ``boundary_path`` gives such a limit.
    """

    def __init__(self, zero_atoms):
        atoms = tuple(zero_atoms)
        super().__init__(
            "weight vanishes on %s; boundary weights are limits of strictly "
            "positive ones (on an n-cycle, see boundary_path)" % (", ".join(atoms),)
        )
        self.zero_atoms = atoms


class AlphaOutOfRangeError(ValidationError):
    """The scale alpha must be positive with alpha*p(a) inside the link's
    range for every atom."""


class NotAComponentError(ValidationError):
    """The given atom set is not a connected component of the structure."""


class TargetOutOfRangeError(ValidationError):
    """The target mean must lie strictly between the extreme scores."""


class DegenerateScoresError(ValidationError):
    """All scores equal: the mean does not depend on the temperature."""


# ------------------------------------------------------------------ empirical


class SchemaError(ValidationError):
    """A JSON or CSV document does not match the expected schema."""


class NegativeCountError(ValidationError):
    """Counts must be nonnegative integers."""


class EmptyContextSampleError(ValidationError):
    """Every context needs at least one observation."""


class SingularSystemError(PastedLogicError):
    """An exact linear system is singular, or its constraints are inconsistent."""
