"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and usage
problems exit 1, data and checkpoint problems exit 2, numeric failures
exit 3.
"""


class GrowRbmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GrowRbmError):
    """Bad run configuration or usage: unknown key, unparsable value, bad
    combination, an output path that cannot be written."""


class DimensionError(GrowRbmError):
    """An array argument does not match the model dimensions."""


class StructureError(GrowRbmError):
    """A structural edit would leave the model in an invalid state."""


class DataFormatError(GrowRbmError):
    """A dataset file could not be parsed; message carries the line number."""


class CheckpointError(GrowRbmError):
    """Base class for checkpoint read failures."""


class CheckpointVersionError(CheckpointError):
    """Bad magic or unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the arrays promised by the header."""


class CheckpointDimensionError(CheckpointError):
    """Header dimensions and stored arrays disagree."""


class NumericError(GrowRbmError):
    """Training produced non-finite parameters."""
