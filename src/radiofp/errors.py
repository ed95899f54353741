"""Exception taxonomy shared across the package."""


class RadioFpError(Exception):
    """Base class for all package errors."""


class FeatureError(RadioFpError):
    """A sequence is not valid input for the fluctuation parameters."""


class NonFiniteInputError(FeatureError):
    """Input contains NaN or infinite samples."""


class DegenerateSequenceError(FeatureError):
    """Sequence is shorter than the fluctuation parameters need."""


class DigitTableExhaustedError(RadioFpError):
    """Requested more digits than the embedded table provides."""


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


class ClassifyError(RadioFpError):
    """Base class for classifier errors."""


class EmptyDatasetError(ClassifyError):
    """Training data is empty."""


class TooFewSamplesError(ClassifyError):
    """Not enough samples per class for the requested fold count."""


class UntrainedModelError(ClassifyError):
    """Model has no trees / weights yet."""


class NoSplitsError(ClassifyError):
    """Every tree is a single leaf; importances are undefined."""


class SingularFitError(RadioFpError):
    """Local surrogate fit received non-finite inputs."""


class DataFormatError(RadioFpError, ValueError):
    """On-disk data does not match the documented binary/CSV/model layout."""
