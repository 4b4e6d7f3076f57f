"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""

import numbers


class HrnnlmError(Exception):
    """Base class for all package errors."""


class ConfigError(HrnnlmError):
    """Bad arguments, inconsistent specs, unknown config keys, missing paths."""


class DimensionError(ConfigError):
    """Array shapes inconsistent with the declared layer dimensions."""


class DataError(HrnnlmError):
    """Malformed input data or on-disk artifacts."""


class EmptyCorpusError(DataError):
    """Corpus contains no usable text."""


class OovError(DataError):
    """Character outside the vocabulary (char mode only)."""


class CheckpointError(DataError):
    """Checkpoint file is corrupt or has an unsupported layout."""


class PosteriorFormatError(DataError):
    """Frame-posterior file violates its declared format."""


class NumericError(HrnnlmError):
    """Non-finite values where finite ones are required."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


def check_count(key: str, value, minimum: int) -> None:
    """ConfigError unless value is an integer (Python or numpy, not bool) of
    at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}")


def check_real(key: str, value) -> None:
    """ConfigError unless value is a real number, Python or numpy (no bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
