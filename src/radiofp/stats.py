"""Feature statistics: correlations, significance tests, histograms.

The two-sided p-value of a correlation coefficient uses the exact Student-t
tail through the regularized incomplete beta function, evaluated with a
modified-Lentz continued fraction, so the tiny tail probabilities that show
up at tens of thousands of samples are computed without a normal
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledFeatureSet, is_constant
from .errors import (
    ConstantInputError,
    EmptyInputError,
    SingleClassError,
    StatsError,
)

SIGNIFICANCE_ALPHA = 0.05


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two equal-length columns.

    Against 0/1 labels it is the point-biserial coefficient (PBCC)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D and of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    # two roots, as the product of the sums can overflow where each is
    # finite; scale == 0 is a division guard, for deviations whose squares
    # underflow
    scale = math.sqrt(float(dx @ dx)) * math.sqrt(float(dy @ dy))
    if is_constant(x) or is_constant(y) or scale == 0:
        raise ConstantInputError("correlation undefined for a constant input")
    return min(1.0, max(-1.0, float(dx @ dy) / scale))


# --- Student-t tail via the regularized incomplete beta ---------------------

_LENTZ_EPS = 3e-16
_LENTZ_FPMIN = 1e-300
_LENTZ_MAX_ITER = 300


def _clamp(v: float) -> float:
    """``v``, or ``_LENTZ_FPMIN`` if it is nearer zero, so no division by
    it overflows."""
    return _LENTZ_FPMIN if abs(v) < _LENTZ_FPMIN else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz; Press et
    al., *Numerical Recipes*, 6.4).  Step m takes the even then the odd
    coefficient, and converges when its odd half-step changes h by less
    than ``_LENTZ_EPS``."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _clamp(1.0 + aa * d)
            c = _clamp(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def p_value_two_sided(r: float, n: int) -> float:
    """Two-sided p-value of a correlation under the zero-correlation null.

    ``t = r * sqrt((n-2) / (1-r^2))`` against Student's t with ``n - 2``
    degrees of freedom.  ``|r| = 1`` is degenerate and maps to p = 0.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if abs(r) > 1.0:
        raise ValueError("|r| must not exceed 1")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t2))


def histogram(xs, bins: int):
    """Equal-width histogram over [min, max] with a right-closed final bin.

    Returns ``(edges, counts)`` with ``len(edges) == bins + 1`` and counts
    summing to ``len(xs)``.  A constant column gets a unit-width window
    centered on its value.
    """
    x = np.asarray(xs, dtype=float)
    if x.size == 0:
        raise EmptyInputError("cannot histogram an empty column")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(x, bins=bins)
    return edges, counts


def pearson_matrix(dataset: LabeledFeatureSet) -> np.ndarray:
    """Symmetric unit-diagonal ``(f, f)`` correlation matrix of the features,
    NaN off the diagonal where `pearson` is undefined, as for a constant
    column.  Pairs go through `pearson`: ``np.corrcoef`` rounds differently
    and moves report bytes."""
    feats = dataset.features
    if dataset.n < 2:
        raise ValueError("need at least 2 rows")
    f = feats.shape[1]
    values = np.eye(f)
    for i in range(f):
        for j in range(i + 1, f):
            try:
                r = pearson(feats[:, i], feats[:, j])
            except ConstantInputError:
                r = np.nan
            values[i, j] = values[j, i] = r
    return values


@dataclass(frozen=True)
class FeatureSignificance:
    """One report row; ``pbcc is None`` marks an undefined correlation."""

    feature: str
    pbcc: float | None
    p_value: float | None
    significant: bool | None


def significance_report(dataset: LabeledFeatureSet
                        ) -> tuple[FeatureSignificance, ...]:
    """Point-biserial coefficient, `pearson` against the 0/1 labels, and
    p-value per feature, |pbcc| descending.

    Needs binary labels and at least 3 rows.  Features with a constant
    column are reported as undefined and sort after every defined row.
    """
    if np.count_nonzero(dataset.class_counts()) < 2:
        raise SingleClassError("dataset has a single class")
    if dataset.n_classes > 2:
        raise StatsError("point-biserial significance needs binary labels")
    if dataset.n < 3:
        raise StatsError(f"p-values need at least 3 rows, not {dataset.n}")
    rows = []
    for name, xs in zip(dataset.feature_names, dataset.features.T):
        try:
            r = pearson(xs, dataset.labels)
        except ConstantInputError:
            rows.append(FeatureSignificance(name, None, None, None))
            continue
        p = p_value_two_sided(r, dataset.n)
        rows.append(FeatureSignificance(name, r, p, p < SIGNIFICANCE_ALPHA))
    rows.sort(key=lambda fr: -1.0 if fr.pbcc is None else abs(fr.pbcc),
              reverse=True)
    return tuple(rows)
