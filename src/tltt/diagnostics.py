"""Machine-readable diagnostics with stable codes."""

from __future__ import annotations

from typing import NamedTuple, Optional

from tltt.syntax import Span, TermSpan

UNBOUND_VARIABLE = "UnboundVariable"
SYNTAX_ERROR = "SyntaxError"
CONVERSION_FAILURE = "ConversionFailure"
UNIVERSE_ERROR = "UniverseError"
FIBRANCY_VIOLATION = "FibrancyViolation"
NON_FIBRANT_MOTIVE = "NonFibrantMotive"
NON_FIBRANT_EQUALITY_FORMATION = "NonFibrantEqualityFormation"
INFERENCE_FAILURE = "InferenceFailure"
DUPLICATE_NAME = "DuplicateName"
# input too deep to check, or a spent unfold budget: not ill-typed
RESOURCE_EXHAUSTED = "ResourceExhausted"

# The frame budget `tltt check` runs with.  Parsing and structural recursion
# over terms go deeper than CPython's default on nested input; input deeper
# than this is reported as RESOURCE_EXHAUSTED.
RECURSION_LIMIT = 40000

ALL_CODES = frozenset({
    UNBOUND_VARIABLE, SYNTAX_ERROR, CONVERSION_FAILURE, UNIVERSE_ERROR,
    FIBRANCY_VIOLATION, NON_FIBRANT_MOTIVE, NON_FIBRANT_EQUALITY_FORMATION,
    INFERENCE_FAILURE, DUPLICATE_NAME, RESOURCE_EXHAUSTED,
})


class Diagnostic(NamedTuple):
    code: str
    message: str
    span: Optional[Span] = None
    expected: Optional[str] = None
    actual: Optional[str] = None

    def __str__(self) -> str:
        where = str(self.span) if self.span else "<unknown>"
        text = f"{where}: error[{self.code}]: {self.message}"
        if self.expected is not None:
            text += f"\n  expected: {self.expected}"
        if self.actual is not None:
            text += f"\n  actual:   {self.actual}"
        return text


class CheckError(Exception):
    """Carrier for a Diagnostic raised during parsing or checking."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def fail(code: str, message: str, span: Optional[Span | TermSpan] = None, *,
         expected: Optional[str] = None, actual: Optional[str] = None) -> "CheckError":
    """The error for a new diagnostic; a term's span is made the `Span` it
    stands for."""
    if type(span) is tuple:
        span = Span._make(span)
    return CheckError(Diagnostic(code, message, span,
                                 expected=expected, actual=actual))
