"""Ten fluctuation parameters of trendless sequences.

A trendless sequence (TLS) is an ordered block of real samples that
fluctuates around its mean without a systematic trend.  The first eight
parameters compare its positive and negative deviations; the last two come
from a straight-line fit to the positions of its zero crossings, which yields
a mean oscillation frequency and phase.

`feature_matrix` is the one entry point: it computes the parameters of every
row of a matrix in one pass and marks the rows on which one is undefined.
Deviations are always taken from the arithmetic mean, so every parameter
except P1 is shift-invariant.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSequenceError, NonFiniteInputError

FEATURE_NAMES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10")

MIN_SEQUENCE_LENGTH = 8


def _as_sequence(rows) -> np.ndarray:
    y = np.asarray(rows, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {y.shape}")
    if y.shape[-1] < MIN_SEQUENCE_LENGTH:
        raise DegenerateSequenceError(
            f"sequence has {y.shape[-1]} samples, "
            f"need at least {MIN_SEQUENCE_LENGTH}"
        )
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError("sequence contains NaN or infinite samples")
    return y


def _roots(dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero crossings of each row of a centered matrix: (positions, rows).

    Sign changes between neighbours are located by linear interpolation, and
    samples that are exactly zero are roots themselves, with runs of
    consecutive zeros collapsed to their first index.  A column holds at most
    one root, since an exactly zero sample never starts a sign change, so the
    fractional 0-based positions come out row by row and in increasing order
    within each row.
    """
    n, width = dy.shape
    flat = dy.ravel()
    zero = flat == 0.0
    # the masks are built on the raveled block, so each row's first column
    # gets its own zero flag back (no carry from the row before), and its
    # last column starts no crossing
    mark = np.empty_like(zero)
    np.greater(zero[1:], zero[:-1], out=mark[1:])  # a zero after a non-zero
    mark[::width] = zero[::width]
    cross = np.empty_like(zero)
    np.less(flat[:-1] * flat[1:], 0, out=cross[:-1])
    cross[width - 1::width] = False
    mark |= cross
    # flat gathers: a crossing's right neighbour is the next flat index.
    # The roots come in flat order, so a search finds each row's first,
    # and their rows and columns need no division
    idx = np.flatnonzero(mark)
    counts = np.diff(np.searchsorted(idx, np.arange(n + 1) * width))
    rows = np.repeat(np.arange(n), counts)
    pos = (idx - rows * width).astype(float)
    # every root's step to its right neighbour, added at the crossings
    # alone: a zero root may have a zero or no right neighbour
    y0, y1 = flat.take(idx), flat.take(idx + 1, mode="clip")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(pos, y0 / (y0 - y1), out=pos, where=cross.take(idx))
    return pos, rows


def _root_lines(pos: np.ndarray, rows: np.ndarray,
                shape: tuple[int, int]) -> np.ndarray:
    """P9 and P10 of each row from the least-squares line through its roots.

    ``pos`` and ``rows`` are `_roots` of a ``shape`` matrix; the result is
    ``(n, 2)``.  Each row's root positions are fitted against their 1-based
    index k, giving the spacing ``a`` between successive crossings and the
    intercept ``b``.  Successive crossings of ``cos(w*t - phi)`` are
    ``pi/a`` apart in angle, so ``w = pi / a``; matching the constant terms
    gives ``phi = pi*b/a - pi/2``, reported modulo pi in ``[0, pi)`` because
    the choice of which crossing counts as the first shifts the phase by pi.
    NaN when a row has fewer than 2 roots or its slope is not positive.
    """
    # rows ascend, so a search finds each row's first root, and each
    # per-row value reaches its roots by np.repeat, not a gather
    start = np.searchsorted(rows, np.arange(shape[0] + 1))
    counts = np.diff(start)
    start = start[:-1]
    # each root's 0-based index within its row, k - 1; a row holds at most
    # L roots, so they go left-aligned into an (n, L) matrix of zeros, and
    # each row's two sums are numpy's pairwise sums along it, which depend
    # on the row and L alone
    k0 = np.arange(rows.size) - np.repeat(start, counts)
    # both scatters go through flat indices of the matrix, row * L + k0:
    # the same elements in the same order as a 2-D scatter, which numpy
    # runs several times slower
    at = k0 + np.repeat(np.arange(shape[0]) * shape[1], counts)
    padded = np.zeros(shape)
    flat = padded.reshape(-1)
    flat[at] = pos
    # k = 1..n has mean (n+1)/2 and sum((k - mean)^2) = n(n^2-1)/12, exact
    # while n(n^2-1) < 2^53, and so only the sums over the roots stay
    k_mean = (counts + 1) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        r_mean = np.add.reduce(padded, axis=1) / counts
        # k - k_mean is an exact half-integer
        flat[at] = ((pos - np.repeat(r_mean, counts))
                    * (k0 + 1 - np.repeat(k_mean, counts)))
        a = np.add.reduce(padded, axis=1) / (counts * (counts**2 - 1) / 12)
        b = r_mean - a * k_mean
        p10 = (np.pi * b / a - np.pi / 2.0) % np.pi
        p10[p10 >= np.pi] -= np.pi  # float wrap guard
        p9 = np.pi / a
    return np.where((a > 0)[:, None], np.column_stack([p9, p10]), np.nan)


def _features(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`feature_matrix` of an already validated matrix."""
    mean = y.mean(axis=1)
    dy = y - mean[:, None]
    y_max, y_min = y.max(axis=1), y.min(axis=1)
    # the extremes of dy: rounding y - mean never decreases as y grows
    hi, lo = y_max - mean, y_min - mean
    y_range = y_max - y_min
    one_sided = (hi <= 0) | (lo >= 0)
    # distance of the last negative deviation from the end, minus that of
    # the last positive one: the difference of their 1-based indices
    backwards = dy[:, ::-1]
    horizontal = (np.argmax(backwards < 0, axis=1)
                  - np.argmax(backwards > 0, axis=1))
    walk = np.cumsum(dy, axis=1)  # P4's walk, starting at 0
    p4 = np.maximum(walk.max(axis=1), 0.0) - np.minimum(walk.min(axis=1), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.column_stack([
            mean, hi - lo, np.where(one_sided, np.nan, hi - np.abs(lo)), p4,
            np.where(mean > y_min, (y_max - mean) / (mean - y_min), np.nan),
            np.where(one_sided, np.nan, horizontal),
            np.add.reduce(np.maximum(dy, 0.0), axis=1),
            np.where(y_range == 0, np.nan, p4 / y_range),
            _root_lines(*_roots(dy), dy.shape),
        ])

    undefined = np.isnan(values)
    undefined[:, 1] = values[:, 1] == 0
    return values, np.where(undefined.any(axis=1), undefined.argmax(axis=1), -1)


def feature_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """All ten parameters of each row of a finite ``(n, L)`` matrix, L >= 8.

    Returns ``(values, failed)``.  ``values`` is ``(n, 10)``:

    - P1 the mean and P2 the range ``max - min`` of the row;
    - P3 ``max(Dy) - |min(Dy)|`` of the deviations ``Dy`` from the mean;
    - P4 the range of the running sum of ``Dy``, the walk starting at 0;
    - P5 the vertical asymmetry ``(max - mean) / (mean - min)``;
    - P6 the largest 1-based index of a positive deviation minus the
      largest of a negative one;
    - P7 the sum of the positive deviations, which is the peak of the
      running sum of ``Dy`` sorted in descending order;
    - P8 ``P4 / P2``, which is P4 of the row rescaled to unit range;
    - P9 and P10 the mean angular frequency and the phase in ``[0, pi)``
      of the line through the zero crossings of ``Dy``.

    A parameter is NaN where it is undefined: P3 and P6 without deviations
    of both signs, P5 if the mean equals the minimum, P8 for a constant row,
    P9 and P10 with fewer than two crossings or a non-positive fitted
    spacing.  ``failed[i]`` is the index of the first undefined parameter of
    row ``i``, counting P2 = 0 (a constant row) as undefined, or -1; a row
    that is not constant has deviations of both signs, so its only possible
    failure is P9 (8).

    Raises `DegenerateSequenceError` when L < 8 and `NonFiniteInputError`
    when a sample is NaN or infinite.
    """
    return _features(_as_sequence(rows))
