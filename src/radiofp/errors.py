"""Exception taxonomy shared across the package."""


class RadioFpError(Exception):
    """Base class for all package errors."""


class NonFiniteInputError(RadioFpError):
    """Input contains NaN or infinite samples."""


class DegenerateSequenceError(RadioFpError):
    """Sequence is shorter than the fluctuation parameters need."""


class InvalidEtalonError(RadioFpError, ValueError):
    """Reference waveform shorter than the minimum length or without energy."""


class SyncNotFoundError(RadioFpError):
    """Correlation peak too weak to synchronize against the reference."""


class StatsError(RadioFpError):
    """Base class for statistics errors."""


class ConstantInputError(StatsError):
    """Correlation is undefined for a constant column."""


class SingleClassError(StatsError):
    """Operation needs both classes present."""


class EmptyInputError(StatsError):
    """Empty data where at least one value is required."""


class EmptyDatasetError(RadioFpError):
    """Training data is empty."""


class TooFewSamplesError(RadioFpError):
    """Not enough samples per class for the requested fold count."""


class NoSplitsError(RadioFpError):
    """Every tree is a single leaf; importances are undefined."""


class SingularFitError(RadioFpError):
    """Local surrogate fit received non-finite inputs, or its ridge
    system is singular."""


class DataFormatError(RadioFpError, ValueError):
    """On-disk data does not match the documented binary/CSV/model layout."""
