"""Exception types shared across the package."""


class AmpwatchError(Exception):
    """Base class for all ampwatch errors."""


class InvalidInputError(AmpwatchError, ValueError):
    """An operation received a value outside its documented domain;
    ``column`` is where the refused value is written: its log column for
    a ``LogRecord``, its model-text line for a ``ModelParams``."""

    def __init__(self, message, column=None):
        self.column = column
        super().__init__(message)


class StreamOrderError(AmpwatchError):
    """A record stream violated its monotonic-timestamp contract."""


class LogParseError(AmpwatchError):
    """A log line could not be parsed; carries line/column context."""

    def __init__(self, message, line_number=None, column=None):
        self.line_number = line_number
        self.column = column
        loc = ""
        if line_number is not None:
            loc = f" (line {line_number}"
            if column is not None:
                loc += f", column {column}"
            loc += ")"
        super().__init__(message + loc)


class InsufficientTrainingError(AmpwatchError):
    """The stream ended before enough cycles were seen to train the model."""


class InvalidScenarioError(AmpwatchError, ValueError):
    """A simulation scenario list is malformed (overlap, out of range, ...)."""


class UsageError(AmpwatchError):
    """Bad command-line usage or configuration."""
