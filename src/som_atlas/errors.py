"""Exception types shared across the package."""


class SomAtlasError(Exception):
    """Base class for all package-specific errors."""


class CsvFormatError(SomAtlasError):
    """Malformed CSV input (ragged row, bad cell, missing header, bytes not UTF-8).

    Messages carry the 1-based physical line on which the offending record
    starts, except for input that is not UTF-8 text: the text layer decodes
    ahead of the reader, so no line is named.
    """


class ModelFormatError(SomAtlasError):
    """Corrupt or unreadable model file; message names the first bad line."""


class SchemaMismatchError(SomAtlasError):
    """Input columns do not match the schema a model was trained with."""


class RangeOverflowError(SomAtlasError, ValueError):
    """An attribute's range is wider than float64 can hold; a ``ValueError`` too."""


class CurveError(SomAtlasError, ValueError):
    """Samples that form no pulse curve or miss its windows; a ``ValueError`` too."""
