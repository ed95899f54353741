import numpy as np
import pytest

from radiofp import explain
from radiofp.dataset import FeatureStats
from radiofp.explain import ExplainConfig, explain_instance, perturb


class LinearStub:
    """Synthetic model whose class-1 output is one standardized feature."""

    def __init__(self, stats, feature=2):
        self.stats = stats
        self.feature = feature

    def predict_proba(self, rows):
        z = self.stats.standardize(np.atleast_2d(rows))
        v = z[:, self.feature]
        return np.column_stack([1.0 - v, v])


class ConstantStub:
    def predict_proba(self, rows):
        n = np.atleast_2d(rows).shape[0]
        return np.tile([0.7, 0.3], (n, 1))


def make_stats(seed=0, n_features=10):
    rng = np.random.default_rng(seed)
    feats = rng.normal(3.0, 2.0, size=(500, n_features))
    return FeatureStats.from_features(feats), feats


def test_perturb_first_sample_is_instance():
    stats, feats = make_stats()
    x = feats[0]
    out = perturb(x, stats, 1, seed=5)
    np.testing.assert_array_equal(out, x[None, :])
    out = perturb(x, stats, 200, seed=5)
    np.testing.assert_array_equal(out[0], x)


def test_perturb_matches_training_spread():
    stats, feats = make_stats(1)
    out = perturb(feats[3], stats, 5000, seed=2)
    sample_std = out[1:].std(axis=0)
    np.testing.assert_allclose(sample_std, stats.std, rtol=0.05)


def test_perturb_zero_spread_feature_fixed():
    stats, feats = make_stats(2)
    std = stats.std.copy()
    std[4] = 0.0
    frozen = FeatureStats(mean=stats.mean, std=std)
    out = perturb(feats[0], frozen, 500, seed=3)
    np.testing.assert_array_equal(out[:, 4], np.full(500, feats[0, 4]))


def test_feature_stats_constant_column_of_rounding_mean():
    # 100 rows of 0.1 have a mean that rounds and a computed std of 2.8e-17
    stats, feats = make_stats(2)
    feats[:100, 4] = 0.1
    feats = feats[:100]
    assert feats[:, 4].std() > 0
    fstats = FeatureStats.from_features(feats)
    assert fstats.std[4] == 0.0 and fstats.mean[4] == 0.1
    assert np.all(fstats.standardize(feats)[:, 4] == 0.0)
    out = perturb(feats[0], fstats, 500, seed=3)
    np.testing.assert_array_equal(out[:, 4], np.full(500, 0.1))


def test_perturb_deterministic():
    stats, feats = make_stats(3)
    a = perturb(feats[1], stats, 300, seed=11)
    b = perturb(feats[1], stats, 300, seed=11)
    np.testing.assert_array_equal(a, b)


def test_constant_model_zero_weights():
    stats, feats = make_stats(4)
    exp = explain_instance(ConstantStub(), feats[0],
                           ExplainConfig(n_perturbations=500), stats, seed=0)
    np.testing.assert_allclose(exp.weights, 0.0, atol=1e-9)
    assert exp.local_fidelity == 0.0


def test_linear_model_recovers_dominant_feature():
    stats, feats = make_stats(5)
    model = LinearStub(stats, feature=2)
    exp = explain_instance(model, feats[7], ExplainConfig(), stats, seed=1)
    mags = np.abs(exp.weights)
    assert np.argmax(mags) == 2
    others = np.delete(mags, 2)
    assert np.all(others < 0.05 * mags[2])
    assert exp.local_fidelity >= 0.99
    # feature 2's z-score is below 0.5 at this instance, so class 0 is the
    # more probable, and raising the feature pushes away from it
    assert exp.predicted_class == 0 and exp.weights[2] < 0


def test_explains_a_model_without_predict():
    # the predicted class is the most probable one at sample 0, the
    # instance, so `predict_proba` is all a model needs
    stats, feats = make_stats(5)
    model = LinearStub(stats)
    assert not hasattr(model, "predict")
    classes = set()
    for row in range(20):
        [proba] = model.predict_proba(feats[row])
        exp = explain_instance(model, feats[row],
                               ExplainConfig(n_perturbations=200), stats,
                               seed=row)
        assert exp.predicted_class == int(np.argmax(proba))
        classes.add(exp.predicted_class)
    assert classes == {0, 1}


def test_weights_invariant_to_sample_order():
    stats, feats = make_stats(6)
    model = LinearStub(stats)
    samples = perturb(feats[0], stats, 2000, seed=4)
    z = stats.standardize(samples)
    target = model.predict_proba(samples)[:, 1]
    w1, f1 = explain._fit_local_linear(z, target, 0.75 * np.sqrt(10), 1e-3)
    # sample 0, the instance, stays first
    order = np.append(0, 1 + np.random.default_rng(9).permutation(1999))
    w2, f2 = explain._fit_local_linear(z[order], target[order],
                                       0.75 * np.sqrt(10), 1e-3)
    np.testing.assert_allclose(w1, w2, atol=1e-9)
    assert f1 == pytest.approx(f2, abs=1e-9)


class TwoFeatureStub:
    """Uses only features 0 and 5; every other feature is ignored."""

    def __init__(self, stats):
        self.stats = stats

    def predict_proba(self, rows):
        z = self.stats.standardize(np.atleast_2d(rows))
        v = 1.0 / (1.0 + np.exp(-(0.7 * z[:, 0] - 0.4 * z[:, 5])))
        return np.column_stack([1.0 - v, v])


def test_ignored_feature_gets_negligible_weight():
    stats, feats = make_stats(7)
    model = TwoFeatureStub(stats)
    ratios = []
    for seed in range(10):
        exp = explain_instance(model, feats[11], ExplainConfig(), stats, seed=seed)
        mags = np.abs(exp.weights)
        ratios.append(mags[3] / mags.max())  # feature 3 plays no role
    assert np.mean(ratios) < 0.02


def test_ridge_lambda_shrinks_weights_monotonically():
    stats, feats = make_stats(8)
    model = LinearStub(stats)
    norms = []
    for lam in (1e-3, 1.0, 1e3, 1e6):
        exp = explain_instance(model, feats[2],
                               ExplainConfig(ridge_lambda=lam), stats, seed=2)
        norms.append(np.linalg.norm(exp.weights))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.01 * norms[0]


def test_explain_deterministic_per_seed():
    stats, feats = make_stats(9)
    model = LinearStub(stats)
    a = explain_instance(model, feats[0], ExplainConfig(), stats, seed=3)
    b = explain_instance(model, feats[0], ExplainConfig(), stats, seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.seed == 3


def test_config_validation():
    with pytest.raises(ValueError):
        ExplainConfig(n_perturbations=10)
    # 1e-300 and 1e200 square to 0 and to inf
    for width in (-1.0, 0.0, float("nan"), float("inf"), 1e-300, 1e200):
        with pytest.raises(ValueError):
            ExplainConfig(kernel_width=width)


def test_tiny_kernel_width_weights_the_instance_alone():
    # the width squares to a subnormal: every other sample's d2 / width^2
    # overflows, and its weight is 0 without a warning
    stats, feats = make_stats(9)
    exp = explain_instance(LinearStub(stats), feats[0],
                           ExplainConfig(kernel_width=1e-160), stats, seed=3)
    assert exp.local_fidelity == 0.0
    assert np.all(np.isfinite(exp.weights))
