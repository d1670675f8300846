"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error this package raises deliberately."""


class ArityError(Error):
    """A field list or builder ran out of positions, or has leftovers."""

    def __init__(self, op: str, remaining: int, message: str | None = None):
        self.op = op
        self.remaining = remaining
        super().__init__(message or f"{op}: {remaining} field(s) remaining")


class FieldTypeError(Error):
    """A value of the wrong kind was applied to a builder field."""


class IntOverflowError(Error):
    """An integer left the 64-bit signed range during pipeline arithmetic."""


class UnknownTypeError(Error):
    """A record type id that is not in the registry."""


class EmptyInputError(Error):
    """An aggregate operation received no records."""


class ContinuationShapeError(Error):
    """A continuation-passing value was fed the wrong number of arguments.

    Distinct from ArityError: this signals mis-nesting of the CPS state,
    not an exhausted field list.
    """

    def __init__(self, expected: int, actual: int, message: str):
        self.expected = expected
        self.actual = actual
        super().__init__(message)


class ExhaustedError(Error):
    """plug() called on an instance with no open ports."""


class OpenPortsError(Error):
    """run_instance() called while ports are still open."""


class PieceKindError(Error):
    """A plugged piece does not conform to the instance's piece kind."""


class CodecError(Error):
    """Base class for parse/encode/decode failures."""


class ParseError(CodecError):
    """A lexeme did not match the expected form."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at lexeme {position})")


class TrailingInputError(CodecError):
    """Lexemes were left over after a strict parse."""


class TruncatedError(CodecError):
    """A binary image ended before a field was complete."""


class InvalidBoolError(CodecError):
    """A boolean wire byte other than 0x00 or 0x01."""


class TrailingBytesError(CodecError):
    """Bytes were left over after a strict binary decode."""


class MalformedJsonError(CodecError):
    """Input text is not a flat object of the JSON subset."""


class MissingKeyError(CodecError):
    """A schema field name is absent from the object."""


class ExtraKeyError(CodecError):
    """The object carries keys the schema does not name."""


class WrongValueKindError(CodecError):
    """A named value has a kind other than the schema's."""
