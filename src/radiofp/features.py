"""Ten fluctuation parameters of a trendless sequence.

A trendless sequence (TLS) is an ordered block of real samples that
fluctuates around its mean without a systematic trend.  The first eight
parameters compare its positive and negative deviations; the last two come
from a straight-line fit to the positions of its zero crossings, which yields
a mean oscillation frequency and phase.

All functions are pure; `feature_matrix` computes the parameters of every
row of a matrix in one pass, and the one-sequence functions are views of it
on a single row.  Deviations are always taken from the arithmetic mean, so
every parameter except P1 is shift-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAsymmetryError,
    DegenerateFitError,
    DegenerateSequenceError,
    FeatureError,
    InsufficientRootsError,
    NonFiniteInputError,
    OneSidedSequenceError,
)

FEATURE_NAMES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10")

MIN_SEQUENCE_LENGTH = 8

# error a one-sequence view raises for an undefined parameter, by index
_UNDEFINED = {1: DegenerateSequenceError, 2: OneSidedSequenceError,
              4: DegenerateAsymmetryError, 5: OneSidedSequenceError,
              7: DegenerateSequenceError}


@dataclass(frozen=True)
class FeatureVector:
    """The ten fluctuation parameters of one sequence."""

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    p6: float
    p7: float
    p8: float
    p9: float
    p10: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.p1, self.p2, self.p3, self.p4, self.p5,
             self.p6, self.p7, self.p8, self.p9, self.p10]
        )


@dataclass(frozen=True)
class RootLineFit:
    """Least-squares line through the zero-crossing positions.

    ``a`` is the spacing between successive crossings (samples per root
    index), ``b`` the intercept, ``residual_rms`` the RMS deviation of the
    crossings from the fitted line (useful to spot noisy root sets).
    """

    a: float
    b: float
    residual_rms: float


def _as_sequence(seq, min_len: int = 1, ndim: int = 1) -> np.ndarray:
    y = np.asarray(seq, dtype=float)
    if y.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {y.shape}")
    if y.shape[-1] < min_len:
        raise DegenerateSequenceError(
            f"sequence has {y.shape[-1]} samples, need at least {min_len}"
        )
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError("sequence contains NaN or infinite samples")
    return y


def center(seq) -> np.ndarray:
    """Subtract the arithmetic mean, returning the deviation sequence."""
    y = _as_sequence(seq)
    return y - y.mean()


def _walk_range(steps: np.ndarray) -> np.ndarray:
    """Range of each row's running sum, the walk starting at 0."""
    walk = np.cumsum(steps, axis=1)
    return np.maximum(walk.max(axis=1), 0.0) - np.minimum(walk.min(axis=1), 0.0)


def _roots(dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero crossings of each row of a centered matrix: (positions, rows).

    A column holds at most one root, since an exactly zero sample never
    starts a sign change, so the positions come out row by row and in
    increasing order within each row.
    """
    zero = dy == 0.0
    first = zero.copy()
    first[:, 1:] &= ~zero[:, :-1]
    cross = np.zeros_like(zero)
    cross[:, :-1] = dy[:, :-1] * dy[:, 1:] < 0
    rows, cols = np.nonzero(first | cross)
    pos = cols.astype(float)
    at = cross[rows, cols]
    r, c = rows[at], cols[at]
    pos[at] += dy[r, c] / (dy[r, c] - dy[r, c + 1])
    return pos, rows


def _features(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`feature_matrix` of an already validated matrix."""
    mean = y.mean(axis=1)
    dy = y - mean[:, None]
    y_max, y_min = y.max(axis=1), y.min(axis=1)
    hi, lo = dy.max(axis=1), dy.min(axis=1)
    y_range = y_max - y_min
    one_sided = (hi <= 0) | (lo >= 0)
    bell = np.cumsum(np.sort(dy, axis=1)[:, ::-1], axis=1)
    # distance of the last negative deviation from the end, minus that of
    # the last positive one: the difference of their 1-based indices
    backwards = dy[:, ::-1]
    horizontal = (np.argmax(backwards < 0, axis=1)
                  - np.argmax(backwards > 0, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.column_stack([
            mean, hi - lo, np.where(one_sided, np.nan, hi - np.abs(lo)),
            _walk_range(dy),
            np.where(mean > y_min, (y_max - mean) / (mean - y_min), np.nan),
            np.where(one_sided, np.nan, horizontal),
            np.maximum(bell.max(axis=1), 0.0),
            np.where(y_range == 0, np.nan, _walk_range(dy / y_range[:, None])),
            np.full((len(y), 2), np.nan),
        ])

    roots, rows = _roots(dy)
    bounds = np.searchsorted(rows, np.arange(len(y) + 1))
    for i in range(len(y)):
        try:
            fit = fit_root_line(roots[bounds[i]:bounds[i + 1]])
        except FeatureError:
            continue  # P9 and P10 stay NaN
        values[i, 8:] = p9_p10_from_fit(fit)

    undefined = np.isnan(values)
    undefined[:, 1] = values[:, 1] == 0
    return values, np.where(undefined.any(axis=1), undefined.argmax(axis=1), -1)


def feature_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """All ten parameters of each row of a finite ``(n, L)`` matrix, L >= 8.

    Returns ``(values, failed)``.  ``values`` is ``(n, 10)``, NaN where a
    parameter is undefined: P3 and P6 without deviations of both signs, P5
    if the mean equals the minimum, P8 for a constant row, P9 and P10 if no
    root line can be fitted.  ``failed[i]`` is the index of the first
    parameter that makes `extract_features` reject row ``i`` (1, i.e. P2,
    for a constant row), or -1.
    """
    return _features(_as_sequence(rows, MIN_SEQUENCE_LENGTH, ndim=2))


def _raise_undefined(j: int, y: np.ndarray):
    if j == 8:
        fit_root_line(find_roots(center(y)))  # raises the fit's own error
    cls, name = _UNDEFINED[j], FEATURE_NAMES[j]
    raise cls(f"{name} undefined: {cls.__doc__}", parameter=name)


def _parameter(seq, j: int, min_len: int = 2) -> float:
    """Parameter ``j`` of one sequence, raising its error when undefined."""
    y = _as_sequence(seq, min_len)
    value = _features(y[None])[0][0, j]
    if np.isnan(value):
        _raise_undefined(j, y)
    return float(value)


def p1_mean(seq) -> float:
    """P1: arithmetic mean of the sequence."""
    return _parameter(seq, 0, min_len=1)


def p2_range(seq) -> float:
    """P2: range between the positive and negative deviation extremes.

    Equals ``max(y) - min(y)``; 0.0 for a constant sequence.
    """
    return _parameter(seq, 1)


def p3_relative_intensity(seq) -> float:
    """P3: relative intensity of positive versus negative deviations.

    ``max(Dy) - |min(Dy)|`` on the deviations ``Dy = y - mean(y)``.  Positive
    when upward spikes dominate, negative when downward ones do.
    """
    return _parameter(seq, 2)


def p4_cumulative_range(seq) -> float:
    """P4: range of the running sum of deviations.

    The walk starts at 0, so the reported range always straddles zero.
    """
    return _parameter(seq, 3)


def p5_asymmetry(seq) -> float:
    """P5: vertical asymmetry ``(max - mean) / (mean - min)``.

    1.0 marks a sequence whose extremes sit symmetrically about the mean.
    """
    return _parameter(seq, 4)


def p6_horizontal_asymmetry(seq) -> float:
    """P6: horizontal asymmetry of the deviation signs.

    Difference between the largest 1-based sample index with a positive
    deviation and the largest with a negative one.
    """
    return _parameter(seq, 5)


def p7_bell_max(seq) -> float:
    """P7: maximum of the bell curve built from the ordered deviations.

    Deviations sorted in descending order are accumulated; the running sum
    rises while the deviations are positive and falls afterwards, so its
    maximum (with the empty prefix counting as 0) separates the positive
    branch from the negative one.
    """
    return _parameter(seq, 6)


def p8_normalized_integral_range(seq) -> float:
    """P8: range of the running sum of range-normalized deviations.

    The sequence is rescaled to unit range before the walk, which makes the
    result comparable across sequences of different amplitude; identical to
    ``p4 / p2``.
    """
    return _parameter(seq, 7)


def find_roots(seq) -> np.ndarray:
    """Zero-crossing positions of a deviation sequence.

    The input is taken as already centered (``Dy = y - mean(y)``); its sign
    changes between neighbours are located by linear interpolation, and
    samples that are exactly zero are roots themselves, with runs of
    consecutive zeros collapsed to their first index.  Returns fractional
    0-based positions in increasing order (possibly empty).
    """
    return _roots(_as_sequence(seq, min_len=2)[None])[0]


def fit_root_line(roots) -> RootLineFit:
    """Ordinary least squares of root positions against their 1-based index."""
    r = np.asarray(roots, dtype=float)
    if r.size < 2:
        raise InsufficientRootsError(
            f"need at least 2 roots, got {r.size}", parameter="P9"
        )
    k = np.arange(1, r.size + 1, dtype=float)
    k_mean, r_mean = k.mean(), r.mean()
    sxx = float(((k - k_mean) ** 2).sum())
    sxy = float(((k - k_mean) * (r - r_mean)).sum())
    a = sxy / sxx
    b = r_mean - a * k_mean
    if a <= 0:
        raise DegenerateFitError(
            f"root-line slope {a} is not positive", parameter="P9"
        )
    resid = r - (a * k + b)
    return RootLineFit(a=a, b=b, residual_rms=float(np.sqrt(np.mean(resid**2))))


def p9_p10_from_fit(fit: RootLineFit) -> tuple[float, float]:
    """P9 and P10: mean angular frequency and phase of the oscillation.

    Successive crossings of ``cos(w*t - phi)`` are ``pi/a`` apart in angle,
    so ``w = pi / a``; matching the constant terms gives
    ``phi = pi*b/a - pi/2``, reported modulo pi in ``[0, pi)`` because the
    choice of which crossing counts as the first shifts the phase by pi.
    """
    if fit.a <= 0:
        raise DegenerateFitError(
            f"root-line slope {fit.a} is not positive", parameter="P9"
        )
    p9 = np.pi / fit.a
    p10 = (np.pi * fit.b / fit.a - np.pi / 2.0) % np.pi
    if p10 >= np.pi:  # float wrap guard
        p10 -= np.pi
    return float(p9), float(p10)


def extract_features(seq) -> FeatureVector:
    """Compute all ten parameters for one sequence.

    Needs at least 8 samples, deviations of both signs, and at least two
    zero crossings.  Failures identify the parameter that could not be
    computed via the exception's ``parameter`` attribute.
    """
    y = _as_sequence(seq, min_len=MIN_SEQUENCE_LENGTH)
    values, failed = _features(y[None])
    if failed[0] >= 0:
        _raise_undefined(int(failed[0]), y)
    return FeatureVector(*values[0].tolist())
