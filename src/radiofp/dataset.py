"""Labeled feature dataset shared by the statistics and classifier layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES


@dataclass(frozen=True)
class LabeledFeatureSet:
    """Rows of (device label, feature vector).

    ``labels`` holds integer class indices into ``label_names`` so the ML
    code never has to care about the original device identifiers.
    """

    features: np.ndarray  # (n, n_features) float
    labels: np.ndarray  # (n,) int indices into label_names
    label_names: tuple[str, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        if feats.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match columns")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def select_features(self, columns) -> "LabeledFeatureSet":
        """Restrict to a subset of feature columns (indices)."""
        cols = list(columns)
        return LabeledFeatureSet(
            features=self.features[:, cols],
            labels=self.labels,
            label_names=self.label_names,
            feature_names=tuple(self.feature_names[c] for c in cols),
        )

    @classmethod
    def from_rows(cls, labels, features, feature_names=None):
        """Build from raw label values (any hashable) and feature rows."""
        feats = np.asarray(features, dtype=float)
        if feature_names is None:
            if feats.ndim == 2 and feats.shape[1] == len(FEATURE_NAMES):
                feature_names = FEATURE_NAMES
            else:
                feature_names = tuple(f"F{i+1}" for i in range(feats.shape[1]))
        names = sorted({str(v) for v in labels})
        index = {name: i for i, name in enumerate(names)}
        labs = np.array([index[str(v)] for v in labels], dtype=int)
        return cls(
            features=feats,
            labels=labs,
            label_names=tuple(names),
            feature_names=tuple(feature_names),
        )


def is_constant(values) -> np.ndarray:
    """Whether each column of a 2-D array, or a 1-D array itself, holds a
    single value: its maximum equals its minimum.  The one rule for a
    feature without spread; a computed std or sum of squares is not exact
    zero for a constant column whose mean rounds, such as 100 rows of 0.1."""
    values = np.asarray(values, dtype=float)
    return values.max(axis=0) == values.min(axis=0)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and population standard deviation; a constant
    column (`is_constant`) has its own value as mean and std 0."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_features(cls, features) -> "FeatureStats":
        feats = np.asarray(features, dtype=float)
        constant = is_constant(feats)
        return cls(mean=np.where(constant, feats[0], feats.mean(axis=0)),
                   std=np.where(constant, 0.0, feats.std(axis=0)))

    def standardize(self, features) -> np.ndarray:
        """Z-score; a constant column maps to exactly 0."""
        # division guard: a column whose deviations underflow when squared
        # has std 0 without being constant
        std = np.where(self.std > 0, self.std, 1.0)
        return (np.asarray(features, dtype=float) - self.mean) / std
