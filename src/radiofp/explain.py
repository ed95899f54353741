"""Local surrogate explanations of individual predictions.

A cloud of Gaussian perturbations is drawn around the instance (per-feature
training standard deviations), the model's probability for its predicted
class is evaluated on each sample, and a proximity-weighted ridge regression
in standardized feature space produces signed per-feature contributions:
positive weights push toward the predicted class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureStats
from .errors import SingularFitError


@dataclass(frozen=True)
class ExplainConfig:
    """Surrogate settings; ``kernel_width=None`` means 0.75*sqrt(n_features)."""

    n_perturbations: int = 5000
    kernel_width: float | None = None
    ridge_lambda: float = 1e-3

    def __post_init__(self):
        if self.n_perturbations < 100:
            raise ValueError("need at least 100 perturbations")
        # the surrogate's kernel divides by the width's square
        width = self.kernel_width
        if width is not None and not (
                width > 0 and 0 < width * width < math.inf):
            raise ValueError("kernel_width must be > 0 with a finite, non-zero "
                             f"square, not {width}")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise ValueError("ridge_lambda must be finite and >= 0, "
                             f"not {self.ridge_lambda}")


@dataclass(frozen=True)
class Explanation:
    weights: np.ndarray
    local_fidelity: float
    predicted_class: int
    n_perturbations: int
    seed: int


def perturb(instance, training_stats: FeatureStats, n: int,
            seed: int) -> np.ndarray:
    """n samples around the instance; sample 0 is the instance itself.

    Each feature is drawn from a Gaussian centered on the instance with the
    training-set standard deviation; zero-spread features stay fixed.
    """
    x = np.asarray(instance, dtype=float)
    if n < 1:
        raise ValueError("need at least one sample")
    out = np.empty((n, x.size))
    out[0] = x
    if n > 1:
        rng = np.random.default_rng(seed)
        out[1:] = rng.normal(loc=x, scale=training_stats.std,
                             size=(n - 1, x.size))
    return out


def _fit_local_linear(z_samples, target, kernel_width, ridge_lambda):
    """Proximity-weighted ridge fit around sample 0, the instance; returns
    (weights, fidelity).

    The intercept is unpenalized; fidelity is the weighted R^2, defined as 0
    when the target carries no weighted variance.
    """
    n, n_features = z_samples.shape
    d2 = np.sum((z_samples - z_samples[0]) ** 2, axis=1)
    with np.errstate(over="ignore"):  # a far sample's weight is then 0
        sample_w = np.exp(-d2 / kernel_width**2)

    design = np.column_stack([np.ones(n), z_samples])
    weighted = design * sample_w[:, None]
    gram = design.T @ weighted
    gram[1:, 1:] += ridge_lambda * np.eye(n_features)
    rhs = weighted.T @ target
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError("local surrogate fit is singular: a constant "
                               "feature column needs ridge_lambda > 0") from exc

    fitted = design @ beta
    w_sum = sample_w.sum()
    mean_w = float((sample_w @ target) / w_sum)
    ss_tot = float(sample_w @ (target - mean_w) ** 2)
    # a constant target leaves only rounding noise in ss_tot; report 0
    if ss_tot <= 1e-20 * max(1.0, float(sample_w @ target**2)):
        fidelity = 0.0
    else:
        ss_res = float(sample_w @ (target - fitted) ** 2)
        fidelity = 1.0 - ss_res / ss_tot
    return beta[1:], fidelity


def explain_instance(model, instance, config: ExplainConfig,
                     training_stats: FeatureStats, seed: int = 0) -> Explanation:
    """Fit a local linear surrogate around one prediction.

    ``model`` must expose ``predict_proba`` over feature rows; its predicted
    class is the most probable one at the instance.  The surrogate regresses
    the probability of that class on standardized features, so positive
    weights read as pushing toward it.
    """
    x = np.asarray(instance, dtype=float)
    if not np.all(np.isfinite(x)):
        raise SingularFitError("instance contains non-finite values")

    samples = perturb(x, training_stats, config.n_perturbations, seed)
    proba = np.asarray(model.predict_proba(samples), dtype=float)
    # sample 0 is the instance itself
    predicted_class = int(np.argmax(proba[0]))
    target = proba[:, predicted_class]
    if not np.all(np.isfinite(target)):
        raise SingularFitError("model produced non-finite probabilities")

    weights, fidelity = _fit_local_linear(
        training_stats.standardize(samples), target,
        config.kernel_width or 0.75 * math.sqrt(x.size), config.ridge_lambda,
    )
    return Explanation(
        weights=weights,
        local_fidelity=fidelity,
        predicted_class=predicted_class,
        n_perturbations=config.n_perturbations,
        seed=seed,
    )
