"""Exception types shared across the package."""


class TrierankError(Exception):
    """Base class for all package errors."""


class UncoverableText(TrierankError):
    """No vocabulary token matches the input at some position."""

    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(
            f"no vocabulary token matches {text!r} at position {position}"
        )


class MalformedSpec(TrierankError):
    """Mock-model description is invalid (negative weight, missing default, ...)."""


class BackendUnavailable(TrierankError):
    """Remote transport failure."""


class ContextTooLong(TrierankError):
    """Backend context window exceeded."""


class DuplicateCandidate(TrierankError):
    """Candidate identifier occurs more than once."""


class NotASharedPrefix(TrierankError):
    """Split requested for a token that is not a shared prefix of >= 2 children."""


class EmptyMask(TrierankError):
    """Allowed set would be empty; the decode must stop instead."""


class MissingChildProbability(TrierankError):
    """Distribution does not cover some child edge of the current node."""


class EmptyCandidateList(TrierankError):
    """Ranking requested with no candidates."""


class EmptyInput(TrierankError):
    """A required input is empty: a metric or evaluation collection, a candidate
    identifier, a model context."""


class ZeroGenerated(TrierankError):
    """Token efficiency requested with zero generated steps."""


class ParseError(TrierankError):
    """A line of an input file could not be parsed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SchemaError(TrierankError):
    """A record field is missing or has the wrong type."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field {field!r}: {message}")
