"""Exception types shared across the library."""


class MsglenError(Exception):
    """Base class for every error raised by this library."""

    index = None  # the dataset item a per-row error is about (values.map_items)


class InvalidDatumError(MsglenError):
    """A datum violates its invariants (non-finite value, non-positive AoM)."""


class DomainError(MsglenError):
    """A value lies outside the domain or data space it is used in."""


class DegenerateTransformError(MsglenError):
    """A transform collapses measure: zero derivative or singular Jacobian."""


class NotInvertibleError(MsglenError):
    """The function declares no inverse."""


class SchemaError(MsglenError):
    """A dataset schema is malformed or inconsistent with the CSV header."""


class CsvError(MsglenError):
    """A CSV row failed to parse.  Carries the 1-based data row index."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ParameterError(MsglenError):
    """Statistical or problem-defining parameters are malformed."""


class EstimationError(MsglenError):
    """An estimator cannot produce a fit (e.g. empty dataset, wrong data kind)."""


class TransformError(MsglenError):
    """A model cannot be transformed by the given function."""


class ModelExprError(MsglenError):
    """A textual model expression failed to parse.  The command line also
    raises it for every other usage mistake (a bad flag or argument, a
    parameterised model given to ``fit``), which exits with code 1."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at column {pos})"
        super().__init__(message)
        self.pos = pos
