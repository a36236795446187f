"""Exception hierarchy shared by all macc modules.

Everything raised for a domain reason derives from MaccError so the CLI can
map it to exit code 1; malformed input files derive from ParseError and map
to exit code 2 together with argparse usage errors.
"""


class MaccError(Exception):
    """Base class for domain-level failures."""


class ParseError(MaccError):
    """Input file or literal could not be parsed."""


class MalformedPda(MaccError, ValueError):
    """An array's cells disagree with its declared shape, Z or S."""


class DimensionMismatch(MaccError):
    """Array shapes or derived dimensions are inconsistent."""


class ConditionViolation(MaccError):
    """A named regularity condition failed while assembling a scheme."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class C4Violation(ConditionViolation):
    """Array does not have the uniform per-row star count C4 requires."""

    def __init__(self, detail: str = ""):
        super().__init__("C4", detail)


class C3ViolationInQ(ConditionViolation):
    """The lifted delivery array breaks the crossing rule, so C5 fails."""

    def __init__(self, detail: str = ""):
        super().__init__("C5", detail)


class DemandOutOfRange(MaccError):
    """Demand vector has the wrong length or an entry outside [1, N]."""


class UndecodablePacket(MaccError):
    """A user could not recover a packet from its view and the log."""


class FieldTooSmall(MaccError):
    """The finite field cannot host the requested coding matrix."""


class NotApplicable(MaccError):
    """No user sees any delivery round whole; on the paper's arrays, some lambda_h <= 0 or t = 0."""


class SingularSystem(MaccError):
    """A linear system over the field has no unique solution."""


class OutOfRange(MaccError):
    """A parameter violates its stated constraint."""


class EmptyInput(MaccError):
    """An operation that needs at least one element got none."""


class DuplicateRatio(MaccError, ValueError):
    """Two corner points of an envelope share one memory ratio."""
