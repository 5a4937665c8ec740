"""Exception hierarchy shared across the package.

Each class carries the CLI's process exit code, so library code should raise
the most specific class that applies rather than bare ValueError.
"""


class TextdaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(TextdaError):
    """Bad configuration value, unknown variant, malformed config file.
    field names the config key a bad value belongs to, if there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DataError(TextdaError):
    """Bad corpus/embedding/checkpoint input: missing path, malformed line,
    out-of-range rating, vocab hash mismatch."""

    exit_code = 2


class NumericalError(TextdaError):
    """Non-finite or diverging values, failed gradient check, invalid
    numeric arguments to an operation."""

    exit_code = 3


class ShapeError(NumericalError):
    """Dimension mismatch between operands; message names both shapes."""
