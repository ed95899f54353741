"""Exception taxonomy shared across the package.

Feature extraction failures carry the name of the parameter that could not be
computed (``parameter`` attribute) so batch callers can report which of the
ten quantities rejected a frame.
"""


class RadioFpError(Exception):
    """Base class for all package errors."""


class FeatureError(RadioFpError):
    """A fluctuation parameter cannot be computed for this sequence."""

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class NonFiniteInputError(FeatureError):
    """Input contains NaN or infinite samples."""


class DegenerateSequenceError(FeatureError):
    """Sequence is constant, too short, or otherwise has no usable range."""


class OneSidedSequenceError(FeatureError):
    """All deviations from the mean share one sign."""


class DegenerateAsymmetryError(FeatureError):
    """Vertical asymmetry ratio is undefined (mean equals the minimum)."""


class InsufficientRootsError(FeatureError):
    """Fewer than two zero crossings; no root line can be fitted."""


class DegenerateFitError(FeatureError):
    """Root-line fit produced a non-positive slope."""


class DigitTableExhaustedError(RadioFpError):
    """Requested more digits than the embedded table provides."""


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
