"""Exception hierarchy shared across the workbench.

The CLI maps these onto stable exit codes: usage problems exit 1 (handled
by argparse), DataError and subclasses exit 2, NumericalError exits 3.
"""


class DriftbenchError(Exception):
    """Base class for all workbench errors."""


class DataError(DriftbenchError):
    """Invalid or inconsistent input data."""


class EncodingError(DataError):
    """Input bytes are not valid UTF-8."""

    def __init__(self, source: str, byte_offset: int):
        self.source = source
        self.byte_offset = byte_offset
        super().__init__(f"{source}: invalid UTF-8 at byte offset {byte_offset}")


class EmptyVocabularyError(DataError):
    """No token survived vocabulary filtering."""


class UnknownWordError(DataError):
    """A queried word is not in the vocabulary."""

    def __init__(self, word: str, where: str = "vocabulary"):
        self.word = word
        super().__init__(f"unknown word {word!r}: not in {where}")


class DimensionMismatchError(DataError):
    """Two vectors or spaces have incompatible dimensions."""


class ZeroVectorError(DataError):
    """A similarity was requested against an all-zero vector."""

    def __init__(self, word: str | None = None):
        self.word = word
        label = f" for {word!r}" if word else ""
        super().__init__(
            f"zero vector{label}: similarity undefined (degenerate vocabulary entry)"
        )


class FormatError(DataError):
    """A model or report file does not match its declared format."""


class MissingInputError(DataError):
    """Input files named on the command line do not exist."""

    def __init__(self, expected: list[str]):
        self.expected = expected
        listing = "\n  ".join(expected)
        super().__init__(f"missing required input file(s); expected:\n  {listing}")


class NumericalError(DriftbenchError):
    """Training diverged or a computation produced non-finite values."""
