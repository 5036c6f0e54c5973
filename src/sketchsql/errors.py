"""Exception hierarchy for the sketchsql package.

Every error raised deliberately by this package derives from
:class:`SketchSqlError`, so callers can catch one base class at pipeline
boundaries while tests can assert on precise subclasses.
"""


class SketchSqlError(Exception):
    """Base class for all errors raised by this package."""


class SchemaLoadError(SketchSqlError):
    """A schema source (dataset record or database file) is malformed."""


class IndexResolutionError(SketchSqlError):
    """An index token (t<i> / t<i>.c<j>) does not resolve against the schema."""


class DatabaseAccessError(SketchSqlError):
    """A live database could not be opened or scanned."""


class SqlParseError(SketchSqlError):
    """SQL text could not be parsed in the supported dialect.

    ``position`` is the character offset of the failure when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SchemaMismatchError(SketchSqlError):
    """A SQL identifier does not name any table or column in the schema."""


class PredicateNotFoundError(SketchSqlError):
    """The predicate targeted by a rewrite does not occur in the query."""


class EmptyValueError(SketchSqlError):
    """A similarity operand is empty after trimming."""


class EmptyCandidateError(SketchSqlError):
    """A candidate list that must be non-empty is empty."""


class EncoderUnavailableError(SketchSqlError):
    """The sentence-encoder endpoint failed or returned garbage."""


class ProviderUnavailableError(SketchSqlError):
    """The sketch-provider or aligner endpoint failed after retries."""


class CompleterUnavailableError(SketchSqlError):
    """The completer endpoint failed after retries."""


class ProtocolError(SketchSqlError):
    """An endpoint answered with a malformed or out-of-contract response."""


class StubScriptError(SketchSqlError):
    """A stub script has no response for a request fingerprint."""


class DatasetIntegrityError(SketchSqlError):
    """A dataset root is missing required files or databases."""
