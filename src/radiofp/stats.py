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

from .dataset import LabeledFeatureSet
from .errors import (
    ConstantInputError,
    EmptyInputError,
    SingleClassError,
    StatsError,
)

SIGNIFICANCE_ALPHA = 0.05


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two equal-length columns."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D and of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0 or syy == 0:
        raise ConstantInputError("correlation undefined for a constant input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def point_biserial(xs, labels) -> float:
    """Correlation of a continuous column against 0/1 labels.

    ``((M1 - M0) / s) * sqrt(n1*n0 / n^2)`` with ``s`` the population
    (divide-by-n) standard deviation, which makes the result identical to
    ``pearson(xs, labels)``.
    """
    x = np.asarray(xs, dtype=float)
    lab = np.asarray(labels)
    if x.shape != lab.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D and of equal length")
    ones = lab == 1
    zeros = lab == 0
    if not np.all(ones | zeros):
        raise ValueError("labels must be 0 or 1")
    n1 = int(ones.sum())
    n0 = int(zeros.sum())
    if n1 == 0 or n0 == 0:
        raise SingleClassError("both classes must be present")
    s = float(x.std())  # population std
    if s == 0:
        raise ConstantInputError("correlation undefined for a constant input")
    n = x.size
    r = (x[ones].mean() - x[zeros].mean()) / s * math.sqrt(n1 * n0 / n**2)
    return min(1.0, max(-1.0, float(r)))


# --- Student-t tail via the regularized incomplete beta ---------------------

_LENTZ_EPS = 3e-16
_LENTZ_FPMIN = 1e-300
_LENTZ_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_FPMIN:
        d = _LENTZ_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_FPMIN:
            d = _LENTZ_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_FPMIN:
            c = _LENTZ_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_FPMIN:
            d = _LENTZ_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_FPMIN:
            c = _LENTZ_FPMIN
        d = 1.0 / d
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
    NaN off the diagonal where either column is constant.  Pairs go through
    `pearson`: ``np.corrcoef`` rounds differently and moves report bytes."""
    feats = dataset.features
    if dataset.n < 2:
        raise ValueError("need at least 2 rows")
    f = feats.shape[1]
    values = np.eye(f)
    constant = feats.std(axis=0) == 0
    for i in range(f):
        for j in range(i + 1, f):
            values[i, j] = values[j, i] = (
                np.nan if constant[i] or constant[j]
                else pearson(feats[:, i], feats[:, j]))
    return values


@dataclass(frozen=True)
class FeatureSignificance:
    """One report row; ``pbcc is None`` marks an undefined correlation."""

    feature: str
    pbcc: float | None
    p_value: float | None
    significant: bool | None


@dataclass(frozen=True)
class SignificanceReport:
    rows: tuple[FeatureSignificance, ...]
    n: int
    alpha: float = SIGNIFICANCE_ALPHA

    def significant_features(self) -> tuple[str, ...]:
        return tuple(r.feature for r in self.rows if r.significant)

    def insignificant_features(self) -> tuple[str, ...]:
        return tuple(r.feature for r in self.rows if r.significant is False)


def significance_report(dataset: LabeledFeatureSet) -> SignificanceReport:
    """Point-biserial coefficient and p-value per feature, |pbcc| descending.

    Needs binary labels.  Features with a constant column are reported as
    undefined and sort after every defined row.
    """
    if dataset.n_classes < 2:
        raise SingleClassError("dataset has a single class")
    if dataset.n_classes > 2:
        raise StatsError("point-biserial significance needs binary labels")
    labels01 = dataset.labels
    rows = []
    for i, name in enumerate(dataset.feature_names):
        xs = dataset.features[:, i]
        try:
            r = point_biserial(xs, labels01)
        except ConstantInputError:
            rows.append(FeatureSignificance(name, None, None, None))
            continue
        p = p_value_two_sided(r, dataset.n)
        rows.append(
            FeatureSignificance(name, r, p, p < SIGNIFICANCE_ALPHA)
        )
    rows.sort(key=lambda fr: -1.0 if fr.pbcc is None else abs(fr.pbcc),
              reverse=True)
    return SignificanceReport(rows=tuple(rows), n=dataset.n)
