import os

import numpy as np
import pytest

from radiofp import classify
from radiofp.classify import (
    CVResult,
    ForestParams,
    HyperparamGrid,
    derive_seed,
    evaluate,
    feature_importances,
    knn_classify,
    load_model,
    logistic_loss,
    logistic_regression_train,
    model_from_text,
    model_to_text,
    random_grid_search,
    save_model,
    stratified_kfold,
    train_forest,
    train_knn,
    train_tree,
)
from radiofp.dataset import LabeledFeatureSet
from radiofp.errors import (
    EmptyDatasetError,
    NoSplitsError,
    SingleClassError,
    TooFewSamplesError,
)


def blobs(n_per_class=100, spread=0.3, centers=((0.0, 0.0), (3.0, 3.0)),
          seed=0, n_features=2):
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for cls, center in enumerate(centers):
        c = np.zeros(n_features)
        c[: len(center)] = center
        rows.append(rng.normal(c, spread, size=(n_per_class, n_features)))
        labels.extend([cls] * n_per_class)
    return LabeledFeatureSet.from_rows(labels, np.vstack(rows))


def test_tree_one_perfect_split():
    x = np.concatenate([np.linspace(-2, -0.1, 10), np.linspace(0.1, 2, 10)])
    ds = LabeledFeatureSet.from_rows((x > 0).astype(int), x[:, None])
    model = train_tree(ds)
    tree = model.trees[0]
    assert tree.feature[0] >= 0  # the root splits
    assert np.all(tree.feature[[tree.left[0], tree.right[0]]] == -1)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_tree_single_class_is_leaf():
    ds = LabeledFeatureSet.from_rows([1] * 10, np.random.default_rng(0).normal(size=(10, 3)))
    model = train_tree(ds)
    tree = model.trees[0]
    assert tree.n_nodes == 1 and tree.feature[0] == -1
    assert np.all(model.predict(ds.features) == 0)


def test_tree_solves_xor():
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    feats = np.tile(base, (25, 1))
    labels = np.tile([0, 1, 1, 0], 25)
    ds = LabeledFeatureSet.from_rows(labels, feats)
    model = train_tree(ds, max_depth=2)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_tree_training_accuracy_on_conflict_free_data():
    ds = blobs(seed=3, spread=1.5)  # overlapping but no duplicate rows
    model = train_tree(ds)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_forest_reduces_to_tree():
    ds = blobs(seed=1)
    params = ForestParams(n_trees=1, bootstrap=False,
                          features_per_split=ds.n_features)
    forest = train_forest(ds, params, seed=7)
    tree = train_tree(ds, seed=7)
    grid = np.random.default_rng(2).normal(1.5, 2.0, size=(200, 2))
    np.testing.assert_array_equal(forest.predict(grid), tree.predict(grid))


def test_forest_separable_blobs_cv():
    ds = blobs(n_per_class=150, spread=0.2, seed=4)
    res = evaluate(ds, lambda d, s: train_forest(d, ForestParams(n_trees=20), s),
                   k=4, seed=0)
    assert res.mean_accuracy >= 0.99


def test_forest_deterministic():
    ds = blobs(seed=5)
    a = train_forest(ds, ForestParams(n_trees=5), seed=42)
    b = train_forest(ds, ForestParams(n_trees=5), seed=42)
    assert model_to_text(a) == model_to_text(b)
    c = train_forest(ds, ForestParams(n_trees=5), seed=43)
    assert model_to_text(a) != model_to_text(c)


def test_forest_empty_dataset():
    ds = LabeledFeatureSet(np.empty((0, 2)), np.empty(0, dtype=int), ("0",),
                           ("F1", "F2"))
    with pytest.raises(EmptyDatasetError):
        train_forest(ds)


def test_predict_proba_agreement_and_ties():
    ds = blobs(seed=6)
    model = train_forest(ds, ForestParams(n_trees=7), seed=1)
    queries = np.random.default_rng(3).normal(1.5, 2.5, size=(100, 2))
    proba = model.predict_proba(queries)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(model.predict(queries),
                                  np.argmax(proba, axis=1))


def _row_walk_proba(model, rows):
    """Reference: one row at a time, leaf distributions summed in tree order."""
    out = np.zeros((len(rows), model.n_classes))
    for i, row in enumerate(rows):
        acc = np.zeros(model.n_classes)
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            acc += tree.counts[node] / tree.counts[node].sum()
        out[i] = acc / len(model.trees)
    return out


def test_predict_proba_matches_row_walk():
    # integer features put thresholds on the half-integer query grid, so
    # some queries land exactly on a threshold and must go left
    base = blobs(n_per_class=80, spread=1.2, seed=11, n_features=3)
    ds = LabeledFeatureSet.from_rows(base.labels, np.round(base.features))
    model = train_forest(ds, ForestParams(n_trees=6), seed=2)
    rng = np.random.default_rng(12)
    queries = np.round(rng.normal(1.5, 2.0, size=(300, 3)) * 2) / 2
    np.testing.assert_array_equal(model.predict_proba(queries),
                                  _row_walk_proba(model, queries))


def _node_walk_importances(model):
    """Reference: mean decrease in impurity accumulated node by node."""
    def gini(counts):
        p = counts / counts.sum()
        return 1.0 - p @ p

    total = np.zeros(len(model.feature_names))
    for tree in model.trees:
        n_root = tree.counts[0].sum()
        for nid in np.flatnonzero(tree.feature >= 0):
            lo, hi = tree.left[nid], tree.right[nid]
            n, n_l, n_r = tree.counts[[nid, lo, hi]].sum(axis=1)
            child = (n_l * gini(tree.counts[lo])
                     + n_r * gini(tree.counts[hi])) / n
            total[tree.feature[nid]] += (
                (n / n_root) * (gini(tree.counts[nid]) - child))
    return total / total.sum()


def test_importances_match_node_walk():
    ds = blobs(n_per_class=80, spread=1.2, seed=13, n_features=4)
    model = train_forest(ds, ForestParams(n_trees=6), seed=3)
    # only the summation order differs from the reference
    np.testing.assert_allclose(feature_importances(model),
                               _node_walk_importances(model),
                               rtol=1e-12, atol=0)


def test_two_tree_tie_breaks_to_lowest_label():
    # hand-built forest: two pure single-leaf trees voting 1-1
    from radiofp.classify import RandomForestModel, Tree

    def leaf(counts):
        return Tree(feature=np.array([-1]), threshold=np.array([np.nan]),
                    left=np.array([-1]), right=np.array([-1]),
                    counts=np.array([counts]))

    t0 = leaf([5, 0])
    t1 = leaf([0, 5])
    model = RandomForestModel(trees=[t0, t1], label_names=("a", "b"),
                              feature_names=("F1",), params=ForestParams(),
                              seed=0)
    proba = model.predict_proba(np.array([[0.0]]))
    np.testing.assert_allclose(proba, [[0.5, 0.5]])
    assert model.predict(np.array([[0.0]]))[0] == 0


def test_importances_single_split():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(40, 10))
    labels = (feats[:, 3] > 0).astype(int)
    feats[:, 3] = np.where(labels, feats[:, 3] + 5, feats[:, 3] - 5)
    ds = LabeledFeatureSet.from_rows(labels, feats)
    model = train_tree(ds)
    imp = feature_importances(model)
    expected = np.zeros(10)
    expected[3] = 1.0
    np.testing.assert_allclose(imp, expected, atol=1e-12)


def test_importances_sum_to_one_and_noise_feature_low():
    rng = np.random.default_rng(8)
    totals = []
    for seed in range(10):
        feats = rng.normal(size=(200, 10))
        labels = (feats[:, 0] + feats[:, 1] > 0).astype(int)
        feats[:, 7] = rng.normal(size=200)  # pure noise column
        ds = LabeledFeatureSet.from_rows(labels, feats)
        model = train_forest(ds, ForestParams(n_trees=10), seed=seed)
        imp = feature_importances(model)
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)
        totals.append(imp[7])
    assert np.mean(totals) < 0.05


def test_importances_no_splits():
    ds = LabeledFeatureSet.from_rows([0] * 5, np.zeros((5, 3)))
    model = train_forest(ds, ForestParams(n_trees=3), seed=0)
    assert model.importances is None
    with pytest.raises(NoSplitsError):
        feature_importances(model)


def test_knn_examples():
    ds = blobs(n_per_class=20, seed=9)
    # query equal to a training point, k=1
    assert knn_classify(ds, ds.features[5], 1) == ds.labels[5]
    assert knn_classify(ds, ds.features[25], 1) == ds.labels[25]
    # k=n on a balanced set: tie -> label index 0
    assert knn_classify(ds, [10.0, 10.0], ds.n) == 0


def test_knn_blobs_cv():
    ds = blobs(n_per_class=100, spread=0.2, seed=10)
    res = evaluate(ds, lambda d, s: train_knn(d, 5), k=4, seed=1)
    assert res.mean_accuracy >= 0.99


def test_logreg_separable():
    x = np.concatenate([np.linspace(-3, -0.5, 20), np.linspace(0.5, 3, 20)])
    ds = LabeledFeatureSet.from_rows((x > 0).astype(int), x[:, None])
    model = logistic_regression_train(ds, epochs=800)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_logreg_large_l2_collapses_to_prior():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(90, 4))
    labels = np.array([0] * 30 + [1] * 60)
    ds = LabeledFeatureSet.from_rows(labels, feats)
    model = logistic_regression_train(ds, l2=1e6, epochs=2000, lr=0.5)
    assert np.max(np.abs(model.weights)) < 1e-6
    proba = model.predict_proba(ds.features)[:, 1]
    np.testing.assert_allclose(proba, 2 / 3, atol=0.02)


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(30, 5))
    labels = rng.integers(0, 2, size=30).astype(float)
    w = rng.normal(size=5)
    b = 0.3
    l2 = 0.01
    grad_w, grad_b = classify._logistic_gradient(w, b, feats, labels, l2)
    eps = 1e-6
    for i in range(5):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd = (logistic_loss(wp, b, feats, labels, l2)
              - logistic_loss(wm, b, feats, labels, l2)) / (2 * eps)
        assert grad_w[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)
    fd_b = (logistic_loss(w, b + eps, feats, labels, l2)
            - logistic_loss(w, b - eps, feats, labels, l2)) / (2 * eps)
    assert grad_b == pytest.approx(fd_b, rel=1e-5, abs=1e-9)


def test_logreg_single_class():
    ds = LabeledFeatureSet.from_rows([1] * 10, np.zeros((10, 2)))
    with pytest.raises(SingleClassError):
        logistic_regression_train(ds)


def test_stratified_kfold_exact_divisibility():
    ds = LabeledFeatureSet.from_rows([0, 0, 0, 0, 1, 1, 1, 1],
                                     np.arange(16.0).reshape(8, 2))
    folds = stratified_kfold(ds, 4, seed=0)
    for fold in folds:
        assert fold.size == 2
        assert set(ds.labels[fold]) == {0, 1}


def test_stratified_kfold_partition_and_balance():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 3, size=101)
    ds = LabeledFeatureSet.from_rows(labels, rng.normal(size=(101, 2)))
    folds = stratified_kfold(ds, 4, seed=3)
    joined = np.concatenate(folds)
    assert joined.size == 101
    assert np.array_equal(np.sort(joined), np.arange(101))
    for cls in range(3):
        per_fold = [int(np.sum(ds.labels[f] == cls)) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_deterministic():
    ds = blobs(n_per_class=50, seed=14)
    a = stratified_kfold(ds, 4, seed=5)
    b = stratified_kfold(ds, 4, seed=5)
    c = stratified_kfold(ds, 4, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_stratified_kfold_too_few():
    ds = LabeledFeatureSet.from_rows([0, 0, 0, 1], np.zeros((4, 2)))
    with pytest.raises(TooFewSamplesError):
        stratified_kfold(ds, 4, seed=0)


def test_evaluate_confusion_conservation():
    ds = blobs(n_per_class=60, spread=1.0, seed=15)
    res = evaluate(ds, lambda d, s: train_forest(d, ForestParams(n_trees=5), s),
                   k=4, seed=2)
    assert res.confusion.sum() == ds.n
    assert res.mean_accuracy == pytest.approx(np.mean(res.fold_accuracies))
    assert np.trace(res.confusion) / ds.n == pytest.approx(
        np.mean(res.fold_accuracies), abs=0.02
    )


def test_evaluate_shuffled_labels_near_prior():
    rng = np.random.default_rng(16)
    feats = rng.normal(size=(2000, 4))
    labels = rng.integers(0, 2, size=2000)
    ds = LabeledFeatureSet.from_rows(labels, feats)
    res = evaluate(ds, lambda d, s: train_forest(d, ForestParams(n_trees=10, max_depth=6), s),
                   k=4, seed=3)
    prior = max(np.mean(labels), 1 - np.mean(labels))
    assert abs(res.mean_accuracy - prior) < 0.05


def test_grid_search_single_combination():
    ds = blobs(n_per_class=40, seed=17)
    grid = HyperparamGrid(n_trees=(5,), max_depth=(4,),
                          min_samples_split=(2,), features_per_split=(2,),
                          iterations=40)
    params, result = random_grid_search(ds, grid, k=4, seed=0)
    assert params == ForestParams(n_trees=5, max_depth=4,
                                  min_samples_split=2, features_per_split=2)
    assert isinstance(result, CVResult)


def test_grid_search_prefers_dominant_configuration():
    ds = blobs(n_per_class=40, spread=0.2, seed=18)
    # depth-0 stubs cannot split at all; the single working config must win
    grid = HyperparamGrid(n_trees=(5,), max_depth=(0, 8),
                          min_samples_split=(2,), features_per_split=(2,),
                          iterations=40)
    params, result = random_grid_search(ds, grid, k=4, seed=1)
    assert params.max_depth == 8
    assert result.mean_accuracy >= 0.95


def test_grid_search_best_is_argmax():
    ds = blobs(n_per_class=30, spread=1.2, seed=19)
    grid = HyperparamGrid(n_trees=(2, 5), max_depth=(2, 4),
                          min_samples_split=(2,), features_per_split=(1, 2),
                          iterations=6)
    best_params, best_result = random_grid_search(ds, grid, k=3, seed=7)
    # re-evaluate every grid point the search could have touched
    scores = []
    for params in grid.combinations():
        res = evaluate(ds, lambda d, s, p=params: train_forest(d, p, s),
                       k=3, seed=7)
        scores.append(res.mean_accuracy)
    assert best_result.mean_accuracy <= max(scores) + 1e-12
    assert best_result.mean_accuracy == pytest.approx(
        evaluate(ds, lambda d, s: train_forest(d, best_params, s),
                 k=3, seed=7).mean_accuracy
    )


def test_forest_not_worse_than_tree_on_average():
    diffs = []
    for seed in range(10):
        ds = blobs(n_per_class=80, spread=1.1, seed=100 + seed)
        forest_acc = evaluate(
            ds, lambda d, s: train_forest(d, ForestParams(n_trees=25), s),
            k=4, seed=seed).mean_accuracy
        tree_acc = evaluate(ds, lambda d, s: train_tree(d, seed=s),
                            k=4, seed=seed).mean_accuracy
        diffs.append(forest_acc - tree_acc)
    assert np.mean(diffs) >= 0.0


def test_serialization_round_trip(tmp_path):
    ds = blobs(n_per_class=60, spread=0.8, seed=20, n_features=4)
    model = train_forest(ds, ForestParams(n_trees=12), seed=9)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    queries = np.random.default_rng(21).normal(1.5, 2.0, size=(1000, 4))
    np.testing.assert_array_equal(model.predict(queries), loaded.predict(queries))
    np.testing.assert_array_equal(model.predict_proba(queries),
                                  loaded.predict_proba(queries))
    assert model_to_text(loaded) == model_to_text(model)
    np.testing.assert_array_equal(loaded.importances, model.importances)


def test_save_model_failed_rename_keeps_old_file(tmp_path, monkeypatch):
    ds = blobs(n_per_class=20, seed=22)
    path = tmp_path / "model.txt"
    save_model(train_forest(ds, ForestParams(n_trees=2), seed=1), path)
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_model(train_forest(ds, ForestParams(n_trees=3), seed=2), path)
    assert path.read_bytes() == old


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        model_from_text("not a model\n")


def test_derive_seed_spread():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 5) == derive_seed(42, 5)
    assert derive_seed(42, 5) != derive_seed(43, 5)
