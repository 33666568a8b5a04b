"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical self-check failures with 3.
"""


class CsbmLabError(Exception):
    """Base class for all package errors."""


class ParameterError(CsbmLabError, ValueError):
    """A model or operation parameter is outside its documented domain."""


class ScheduleError(CsbmLabError, ValueError):
    """A layer schedule is empty or cannot be constructed for the given parameters."""


class NumericalConsistencyError(CsbmLabError):
    """An internal numerical self-check failed (e.g. a variance evaluated negative)."""


class ConfigError(CsbmLabError, ValueError):
    """Bad experiment configuration (file, flags, or derived values)."""


class PlotDataError(ConfigError):
    """A CSV handed to the plot emitter is malformed; carries the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"{message} (line {line_number})"
        super().__init__(message)
