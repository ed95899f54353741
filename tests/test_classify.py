import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import radiofp
from radiofp import classify, parallel
from radiofp.classify import (
    CVResult,
    ForestParams,
    HyperparamGrid,
    derive_seed,
    evaluate,
    feature_importances,
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
from radiofp.dataset import FeatureStats, LabeledFeatureSet
from radiofp.errors import (
    DataFormatError,
    EmptyDatasetError,
    NoSplitsError,
    SingleClassError,
    TooFewSamplesError,
)

from oracles import oracle_logistic_fit, oracle_model_trees


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


def _trees(model):
    """Each tree of ``model`` as its own arrays, node and child ids counted
    from its root and -1 for a leaf's children: the form the references
    below build."""
    nodes, bounds = model.nodes, model.start.tolist()
    trees = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        leaf = nodes.feature[a:b] < 0
        trees.append(classify.Tree(
            nodes.feature[a:b], nodes.threshold[a:b],
            np.where(leaf, -1, nodes.left[a:b] - a),
            np.where(leaf, -1, nodes.right[a:b] - a), nodes.counts[a:b]))
    return trees


def _table(trees):
    """The node table of trees in the form ``_trees`` gives."""
    tables = []
    for tree in trees:
        own = np.arange(tree.feature.size)
        leaf = tree.feature < 0
        tables.append((replace(tree, left=np.where(leaf, own, tree.left),
                               right=np.where(leaf, own, tree.right)),
                       [0, own.size]))
    return classify._node_table(tables)


def test_tree_one_perfect_split():
    x = np.concatenate([np.linspace(-2, -0.1, 10), np.linspace(0.1, 2, 10)])
    ds = LabeledFeatureSet.from_rows((x > 0).astype(int), x[:, None])
    model = train_tree(ds)
    tree = _trees(model)[0]
    assert tree.feature[0] >= 0  # the root splits
    assert np.all(tree.feature[[tree.left[0], tree.right[0]]] == -1)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_tree_single_class_is_leaf():
    ds = LabeledFeatureSet.from_rows([1] * 10, np.random.default_rng(0).normal(size=(10, 3)))
    model = train_tree(ds)
    tree = _trees(model)[0]
    assert tree.feature.size == 1 and tree.feature[0] == -1
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


def test_forest_features_per_split_range():
    ds = blobs(seed=1, n_features=3)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="features_per_split"):
            train_forest(ds, ForestParams(n_trees=1, features_per_split=bad))
    # a request above n_features takes every feature, as n_features does
    full, over = (train_forest(ds, ForestParams(n_trees=3, features_per_split=f),
                               seed=4) for f in (3, 7))
    for a, b in zip(_trees(full), _trees(over)):
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)


def test_forest_max_depth_range():
    ds = blobs(seed=1)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_depth"):
            train_forest(ds, ForestParams(n_trees=1, max_depth=bad))
        with pytest.raises(ValueError, match="max_depth"):
            train_tree(ds, max_depth=bad)
    stumps = train_forest(ds, ForestParams(n_trees=3, max_depth=1), seed=0)
    assert all(tree.feature.size == 3 for tree in _trees(stumps))


def _best_split_reference(x_node, y_node, feature_ids, n_classes,
                          parent_counts):
    """One feature at a time: sort, cumulate class counts, strict '>'."""
    def gini(counts):
        p = counts / counts.sum()
        return float(1.0 - (p @ p))

    n = y_node.size
    onehot = (y_node[:, None] == np.arange(n_classes)).astype(np.float64)
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    best, best_gain = None, -1.0
    for f in feature_ids:
        order = np.argsort(x_node[:, f], kind="stable")
        xs = x_node[order, f]
        if xs[0] == xs[-1]:
            continue
        left = np.cumsum(onehot[order], axis=0)[:-1]
        right = parent_counts - left
        gini_l = 1.0 - np.einsum("ij,ij->i", left, left) / n_left**2
        gini_r = 1.0 - np.einsum("ij,ij->i", right, right) / n_right**2
        gains = gini(parent_counts) - (n_left * gini_l + n_right * gini_r) / n
        gains[~(xs[:-1] < xs[1:])] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            thr = (xs[i] + xs[i + 1]) / 2.0
            if thr >= xs[i + 1]:
                thr = xs[i]
            best_gain = float(gains[i])
            best = (int(f), float(thr), best_gain)
    return best


def _pre_order_tree(nodes):
    """Tree from nodes [counts, feature, threshold, left, right] in any
    order with the root first, renumbered to pre-order, left child first."""
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        if nodes[v][1] >= 0:
            stack += [nodes[v][4], nodes[v][3]]
    pre = {v: i for i, v in enumerate(order)}
    rows = [nodes[v] for v in order]
    return classify.Tree(
        np.array([r[1] for r in rows]), np.array([r[2] for r in rows]),
        np.array([pre[r[3]] if r[1] >= 0 else -1 for r in rows]),
        np.array([pre[r[4]] if r[1] >= 0 else -1 for r in rows]),
        np.array([r[0] for r in rows]))


def _is_open(counts, depth, max_depth, min_samples_split):
    n = counts.sum()
    return (n >= min_samples_split and counts.max() < n
            and (max_depth is None or depth < max_depth))


def _split(features, labels, idx, feats, n_classes, counts):
    best = _best_split_reference(features[idx], labels[idx], feats,
                                 n_classes, counts.astype(np.float64))
    if best is None:
        return None
    f, thr, _ = best
    mask = features[idx, f] <= thr
    return f, thr, idx[mask], idx[~mask]


def _grow_level_order(features, labels, rows, max_depth, min_samples_split,
                      per_split, rng, n_classes):
    """Reference: the nodes of a level split one by one, in level order,
    each on the features of its row of one per-level draw."""
    nodes = [[np.bincount(labels[rows], minlength=n_classes), -1, np.nan,
              -1, -1]]
    level, depth = [(0, rows)], 0
    while level:
        open_ = [(v, idx) for v, idx in level
                 if _is_open(nodes[v][0], depth, max_depth, min_samples_split)]
        if not open_:
            break
        draw = rng.random((len(open_), features.shape[1]))
        level = []
        for (v, idx), u in zip(open_, draw):
            feats = np.sort(np.argsort(u, kind="stable")[:per_split])
            found = _split(features, labels, idx, feats, n_classes,
                           nodes[v][0])
            if found is None:
                continue
            f, thr, lo, hi = found
            nodes[v][1:] = [f, thr, len(nodes), len(nodes) + 1]
            for child in (lo, hi):
                level.append((len(nodes), child))
                nodes.append([np.bincount(labels[child], minlength=n_classes),
                              -1, np.nan, -1, -1])
        depth += 1
    return _pre_order_tree(nodes)


def _grow_depth_first(features, labels, rows, max_depth, min_samples_split,
                      n_classes):
    """Reference for trees on every feature: depth-first, left child first."""
    feats = np.arange(features.shape[1])
    nodes = []
    stack = [(rows, 0, None)]  # (samples, depth, (parent, link slot))
    while stack:
        idx, depth, link = stack.pop()
        if link is not None:
            nodes[link[0]][link[1]] = len(nodes)
        v = len(nodes)
        nodes.append([np.bincount(labels[idx], minlength=n_classes), -1,
                      np.nan, -1, -1])
        if not _is_open(nodes[v][0], depth, max_depth, min_samples_split):
            continue
        found = _split(features, labels, idx, feats, n_classes, nodes[v][0])
        if found is None:
            continue
        f, thr, lo, hi = found
        nodes[v][1:3] = [f, thr]
        stack += [(hi, depth + 1, (v, 4)), (lo, depth + 1, (v, 3))]
    return _pre_order_tree(nodes)


def _assert_same_tree(got, want):
    for name in ("feature", "threshold", "left", "right", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _random_dataset(rng, trial):
    """Small tables whose values tie, repeat or sit one float apart."""
    n, n_feat, n_classes = (int(rng.integers(2, 50)), int(rng.integers(1, 7)),
                            int(rng.integers(2, 4)))
    kind = trial % 4
    if kind == 0:  # few distinct values: ties within and across features
        x = rng.integers(0, 3, size=(n, n_feat)).astype(float)
    elif kind == 1:  # one constant column among continuous ones
        x = rng.normal(size=(n, n_feat))
        x[:, rng.integers(n_feat)] = 0.25
    elif kind == 2:  # adjacent floats, whose midpoint rounds up
        base = rng.normal()
        x = base + rng.integers(0, 3, size=(n, n_feat)) * np.spacing(base)
    else:
        x = rng.normal(size=(n, n_feat)).round(1)
    y = rng.integers(0, n_classes, size=n)
    return LabeledFeatureSet(x, y, tuple("abc"[:n_classes]),
                             tuple(f"F{i}" for i in range(n_feat)))


def test_forest_trees_match_level_order_reference():
    rng = np.random.default_rng(31)
    splits = 0
    for trial in range(600):
        ds = _random_dataset(rng, trial)
        params = ForestParams(
            n_trees=int(rng.integers(1, 4)),
            max_depth=[None, None, 1, 2, 4][trial % 5],
            min_samples_split=int(rng.integers(2, 7)),
            features_per_split=int(rng.integers(1, ds.n_features + 1)),
            bootstrap=bool(trial % 3),
        )
        model = train_forest(ds, params, seed=trial)
        for t, tree in enumerate(_trees(model)):
            tree_rng = np.random.default_rng(derive_seed(trial, t))
            rows = (tree_rng.integers(0, ds.n, ds.n) if params.bootstrap
                    else np.arange(ds.n))
            want = _grow_level_order(
                ds.features, ds.labels, rows, params.max_depth,
                params.min_samples_split, params.features_per_split,
                tree_rng, ds.n_classes)
            _assert_same_tree(tree, want)
            splits += int(np.sum(tree.feature >= 0))
    assert splits > 3000


def _assert_forest_matches_level_order(ds, params, seed):
    """Each tree of the forest equals the level-order reference; returns the
    number of splits."""
    model = train_forest(ds, params, seed=seed)
    splits = 0
    for t, tree in enumerate(_trees(model)):
        tree_rng = np.random.default_rng(derive_seed(seed, t))
        rows = (tree_rng.integers(0, ds.n, ds.n) if params.bootstrap
                else np.arange(ds.n))
        want = _grow_level_order(
            ds.features, ds.labels, rows, params.max_depth,
            params.min_samples_split, params.features_per_split,
            tree_rng, ds.n_classes)
        _assert_same_tree(tree, want)
        splits += int(np.sum(tree.feature >= 0))
    return splits


def _run_table(rng, trial):
    """200-600 rows whose classes follow a noisy score of two columns, so a
    sorted column holds long single-class runs; rounded tables also hold
    values of two classes where runs meet."""
    n, n_feat = int(rng.integers(200, 601)), int(rng.integers(2, 7))
    n_classes = 2 + trial % 2
    x = rng.normal(size=(n, n_feat))
    score = x[:, 0] + 0.5 * x[:, 1] + rng.normal(scale=0.3, size=n)
    edges = np.quantile(score, np.arange(1, n_classes) / n_classes)
    y = np.searchsorted(edges, score)
    if trial % 4 >= 2:
        x = x.round(1)
    return LabeledFeatureSet(x, y, tuple("abc"[:n_classes]),
                             tuple(f"F{i}" for i in range(n_feat)))


def _runs_and_mixed_edges(ds):
    """Longest run of one-class distinct values in a sorted column, and the
    count of two-class values next to a one-class value."""
    longest = edges = 0
    for col in ds.features.T:
        _, group = np.unique(col, return_inverse=True)
        lo = np.full(group.max() + 1, ds.n_classes)
        hi = np.full(group.max() + 1, -1)
        np.minimum.at(lo, group, ds.labels)
        np.maximum.at(hi, group, ds.labels)
        pure = lo == hi
        edges += int(np.sum(~pure[1:] & pure[:-1])
                     + np.sum(~pure[:-1] & pure[1:]))
        run = 1
        for same in pure[1:] & pure[:-1] & (lo[1:] == lo[:-1]):
            run = run + 1 if same else 1
            longest = max(longest, run)
    return longest, edges


def test_boundary_cuts_match_reference_on_larger_tables():
    # the split search scores only class-boundary cuts; these tables have
    # the long one-class runs whose inner cuts it skips
    rng = np.random.default_rng(33)
    splits = longest = edges = 0
    for trial in range(20):
        ds = _run_table(rng, trial)
        params = ForestParams(
            n_trees=2,
            max_depth=[None, None, None, 3][trial % 4],
            min_samples_split=int(rng.integers(2, 5)),
            features_per_split=int(rng.integers(1, ds.n_features + 1)),
            bootstrap=bool(trial % 5 % 2),
        )
        splits += _assert_forest_matches_level_order(ds, params, trial)
        run, edge = _runs_and_mixed_edges(ds)
        longest, edges = max(longest, run), edges + edge
    assert splits > 1500 and longest >= 50 and edges >= 200


def _group_table():
    """150 rows of 3 classes whose rounded values tie, so trees reach
    different depths and drop out of their group at different levels."""
    rng = np.random.default_rng(34)
    x = rng.normal(size=(150, 4))
    score = x[:, 0] - x[:, 2] + rng.normal(scale=0.8, size=150)
    y = np.searchsorted(np.quantile(score, [1 / 3, 2 / 3]), score)
    return LabeledFeatureSet(x.round(1), y, tuple("abc"),
                             tuple(f"F{i}" for i in range(4)))


def test_tree_groups_match_level_order_reference(monkeypatch):
    # groups of 1, 2 and 3 trees (7 trees leave a remainder group) and one
    # group of all 7 grow the same trees, each the level-order reference's
    ds = _group_table()
    per_split = 2
    one_tree = ds.n * per_split  # a tree's root-level keys
    splits = 0
    for bootstrap in (True, False):
        for max_depth in (None, 1, 3):
            params = ForestParams(n_trees=7, max_depth=max_depth,
                                  features_per_split=per_split,
                                  bootstrap=bootstrap)
            texts = set()
            for budget in (one_tree, 2 * one_tree, 3 * one_tree + 1, 1 << 40):
                monkeypatch.setattr(classify, "_GROUP_KEYS", budget)
                model = train_forest(ds, params, seed=5)
                texts.add(model_to_text(model))
            assert len(texts) == 1, (bootstrap, max_depth)
            splits += _assert_forest_matches_level_order(ds, params, seed=5)
    assert splits > 500


def _distinct_row_groups(n, n_trees, seed, per_split, budget):
    """[trees, root-level keys] of each group train_forest makes: a group
    takes trees while per_split keys per distinct bootstrap row fit in the
    budget, and at least one tree."""
    groups = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        keys = np.unique(rng.integers(0, n, n)).size * per_split
        if groups and groups[-1][1] + keys <= budget:
            groups[-1][0] += 1
            groups[-1][1] += keys
        else:
            groups.append([1, keys])
    return groups


def test_level_pass_keys_within_budget(monkeypatch):
    # the keys one level pass sorts, and so the size of its work arrays,
    # stay within the budget unless one tree's root level alone exceeds it.
    # The passes are counted in this process, so the groups grow on one
    # core; a run on two cores hands fork_map the same tree ranges
    assert classify._GROUP_KEYS <= 1 << 16  # the peak RSS rests on it
    ds = _group_table()
    per_split = 2
    one_tree = ds.n * per_split
    seen, roots, handed = [], [], []
    real, real_fork_map = classify._level_splits, classify.fork_map

    def level_splits(ranks, values, labels, rows, weight, owner, counts,
                     per_split, *rest):
        seen.append(rows.size * per_split)
        if np.all(counts.sum(axis=1) == ds.n):  # only a root holds every draw
            roots.append(counts.shape[0])
        return real(ranks, values, labels, rows, weight, owner, counts,
                    per_split, *rest)

    def fork_map(fn, items):
        handed.append(list(items))
        return real_fork_map(fn, items)

    monkeypatch.setattr(classify, "_level_splits", level_splits)
    monkeypatch.setattr(classify, "fork_map", fork_map)
    params = ForestParams(n_trees=10, features_per_split=per_split)
    for budget in (5 * one_tree - 1, one_tree // 3):  # then one-tree groups
        monkeypatch.setattr(classify, "_GROUP_KEYS", budget)
        seen.clear()
        roots.clear()
        handed.clear()
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        train_forest(ds, params, seed=3)
        groups = _distinct_row_groups(ds.n, 10, 3, per_split, budget)
        assert roots == [trees for trees, _ in groups], budget
        # a group's root level is its largest
        assert max(seen) == max(keys for _, keys in groups), budget
        assert all(keys <= max(budget, one_tree) for keys in seen)
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        train_forest(ds, params, seed=3)
        assert handed[0] == handed[1], budget
        assert [len(trees) for trees in handed[0]] == [
            trees for trees, _ in groups], budget


def test_weighted_pass_matches_level_order_reference(monkeypatch):
    # trees grow on their distinct bootstrap rows with the multiplicity in
    # the low key bits; in these small tables some row is drawn 6 times or
    # more, so the weight fills 3 bits or more.  Forcing int64 keys in every
    # pass changes no byte.
    rng = np.random.default_rng(35)
    splits = most = 0
    for trial in range(12):
        n, n_feat, n_classes = int(rng.integers(12, 41)), 3, 2 + trial % 2
        x = (rng.normal(size=(n, n_feat)) * 2).round() / 2  # values tie
        y = rng.integers(0, n_classes, size=n)
        ds = LabeledFeatureSet(x, y, tuple("abc"[:n_classes]),
                               tuple(f"F{i}" for i in range(n_feat)))
        params = ForestParams(
            n_trees=40,
            max_depth=[None, None, 3][trial % 3],
            min_samples_split=int(rng.integers(2, 5)),
            features_per_split=int(rng.integers(1, n_feat + 1)),
        )
        splits += _assert_forest_matches_level_order(ds, params, trial)
        for t in range(params.n_trees):
            drawn = np.random.default_rng(derive_seed(trial, t)).integers(
                0, n, n)
            most = max(most, int(np.bincount(drawn).max()))
        text = model_to_text(train_forest(ds, params, seed=trial))
        with monkeypatch.context() as m:
            m.setattr(classify, "_INT32_KEYS", 0)
            assert model_to_text(train_forest(ds, params, seed=trial)) == text
    assert most >= 6 and splits > 2000


def test_full_feature_trees_match_depth_first_reference():
    rng = np.random.default_rng(32)
    splits = 0
    for trial in range(300):
        ds = _random_dataset(rng, trial)
        max_depth = [None, None, 1, 3][trial % 4]
        min_samples_split = int(rng.integers(2, 5))
        model = train_tree(ds, max_depth=max_depth,
                           min_samples_split=min_samples_split, seed=trial)
        want = _grow_depth_first(ds.features, ds.labels, np.arange(ds.n),
                                 max_depth, min_samples_split, ds.n_classes)
        _assert_same_tree(_trees(model)[0], want)
        splits += int(np.sum(want.feature >= 0))
    assert splits > 1500


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


# the digests of _cut_gains' gains on 200000 random 2-class nodes, each cut
# sending one class left and the other right, so that both children are
# pure and a node's gain is its Gini; then of a forest fit on random
# labels, its predict_proba and its importances
_BLAS_KERNEL_SCRIPT = """
import hashlib
import numpy as np
from radiofp import classify
from radiofp.dataset import LabeledFeatureSet

def digest(a):
    print(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())

rng = np.random.default_rng(7)
n = 200_000
counts = rng.integers(1, 1000, size=(n, 2))
cls = np.tile(np.arange(2, dtype=np.int32), n)
first = 2 * np.arange(n)
digest(classify._cut_gains(cls, counts.ravel().astype(np.int32), first,
                           first, np.arange(n), counts,
                           classify._LevelWork(2 * n)))
x = rng.normal(size=(3000, 4))
ds = LabeledFeatureSet(x, rng.integers(0, 3, 3000), ("a", "b", "c"),
                        ("F1", "F2", "F3", "F4"))
model = classify.train_forest(ds, classify.ForestParams(n_trees=20,
                                                        max_depth=4), 3)
print(hashlib.sha256(classify.model_to_text(model).encode()).hexdigest())
digest(model.predict_proba(rng.normal(size=(5000, 4))))
digest(model.importances)
"""


def test_gini_and_leaf_shares_do_not_depend_on_the_blas_kernel():
    """A node's Gini and a leaf's class shares have the same bits under
    the oldest OpenBLAS x86-64 kernel as under the native one: they are
    numpy's own reductions, not BLAS.  (A stacked ``p @ p`` Gini changed
    the bits of thousands of these rows.)  OpenBLAS reads the core type
    when numpy loads it, hence a process for each."""
    src = str(Path(radiofp.__file__).resolve().parents[1])
    runs = []
    for coretype in (None, "Nehalem"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        runs.append(subprocess.run(
            [sys.executable, "-c", _BLAS_KERNEL_SCRIPT], env=env,
            capture_output=True, text=True, check=True).stdout.split())
    assert len(runs[0]) == 4
    assert runs[1] == runs[0]


def test_forest_seed_range():
    # a negative seed would write a model file that model_from_text refuses
    ds = blobs(seed=5)
    params = ForestParams(n_trees=2)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        train_forest(ds, params, seed=-1)
    text = model_to_text(train_forest(ds, params, seed=0))
    assert model_to_text(model_from_text(text)) == text


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
    trees = _trees(model)
    for i, row in enumerate(rows):
        acc = np.zeros(model.n_classes)
        for tree in trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            acc += tree.counts[node] / tree.counts[node].sum()
        out[i] = acc / len(trees)
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


def _mixed_forest():
    """Trees of different sizes and depths in one forest: deep ones, stumps,
    and a single leaf."""
    base = blobs(n_per_class=60, spread=1.2, seed=11, n_features=3)
    ds = LabeledFeatureSet.from_rows(base.labels, np.round(base.features))
    deep = train_forest(ds, ForestParams(n_trees=4), seed=2)
    stumps = train_forest(ds, ForestParams(n_trees=2, max_depth=1), seed=3)
    shallow = train_forest(ds, ForestParams(n_trees=2, max_depth=3), seed=4)
    single = classify.Tree(np.array([-1]), np.array([np.nan]),
                           np.array([-1]), np.array([-1]),
                           np.array([[3, 1]]))
    deep, stumps = _trees(deep), _trees(stumps)
    trees = [deep[0], stumps[0], single, *_trees(shallow), *deep[1:],
             stumps[1]]
    assert len({tree.feature.size for tree in trees}) >= 5
    nodes, start = _table(trees)
    return classify.RandomForestModel(
        nodes=nodes, start=start, label_names=ds.label_names,
        feature_names=ds.feature_names, params=ForestParams(), seed=0)


@pytest.mark.parametrize("steps", [1, 3, 4])
def test_predict_proba_chunks_match_row_walk(monkeypatch, steps):
    # chunks of 5 rows; every row count around and across a chunk boundary
    model = _mixed_forest()
    n_trees = model.start.size - 1
    monkeypatch.setattr(classify, "_PREDICT_PAIRS", 5 * n_trees + 1)
    monkeypatch.setattr(classify, "_PREDICT_STEPS", steps)
    rng = np.random.default_rng(12)
    # half-integer queries land on thresholds, which go left; NaN goes right
    queries = np.round(rng.normal(1.5, 2.0, size=(23, 3)) * 2) / 2
    queries[[2, 19], [0, 2]] = np.nan
    for n_rows in (1, 4, 5, 6, 23):
        rows = queries[:n_rows]
        np.testing.assert_array_equal(model.predict_proba(rows),
                                      _row_walk_proba(model, rows))


def test_predict_proba_default_chunk_matches_row_walk():
    model = _mixed_forest()
    chunk = classify._PREDICT_PAIRS // (model.start.size - 1)
    rows = np.random.default_rng(13).normal(1.5, 2.0, size=(2 * chunk + 3, 3))
    np.testing.assert_array_equal(model.predict_proba(rows),
                                  _row_walk_proba(model, rows))


def test_predict_proba_rejects_rows_without_a_split_feature():
    model = _mixed_forest()
    used = int(model.nodes.feature.max())
    rows = np.zeros((4, used))
    with pytest.raises(ValueError, match=f"rows of {used} features"):
        model.predict_proba(rows)


def test_predict_proba_memory_bounded_by_chunk():
    # the descent's arrays hold one chunk of (tree, row) pairs whatever the
    # row count: the peak is about 0.8 MB at 2^13 pairs, where the 5000
    # rows in one chunk take some 33 MB
    ds = blobs(n_per_class=100, spread=1.0, seed=14)
    model = train_forest(ds, ForestParams(n_trees=100), seed=1)
    rows = np.random.default_rng(15).normal(1.5, 2.0, size=(5000, 2))
    tracemalloc.start()
    try:
        model.predict_proba(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def _node_walk_importances(model):
    """Reference: mean decrease in impurity accumulated node by node."""
    def gini(counts):
        p = counts / counts.sum()
        return 1.0 - p @ p

    total = np.zeros(len(model.feature_names))
    for tree in _trees(model):
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

    nodes, start = _table([leaf([5, 0]), leaf([0, 5])])
    model = RandomForestModel(nodes=nodes, start=start, label_names=("a", "b"),
                              feature_names=("F1",), params=ForestParams(),
                              seed=0)
    proba = model.predict_proba(np.array([[0.0]]))
    np.testing.assert_allclose(proba, [[0.5, 0.5]])
    assert model.predict(np.array([[0.0]]))[0] == 0
    rows = np.array([[0.0], [np.nan], [-3.0]])
    np.testing.assert_array_equal(model.predict_proba(rows),
                                  _row_walk_proba(model, rows))


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
    nearest = train_knn(ds, 1).predict(ds.features[[5, 25]])
    assert nearest.tolist() == ds.labels[[5, 25]].tolist()
    # k=n on a balanced set: tie -> label index 0
    assert train_knn(ds, ds.n).predict([[10.0, 10.0]]).tolist() == [0]


def _knn_row_loop(model, features):
    """Reference: one row at a time, a stable sort of all distances."""
    out = []
    for row in np.atleast_2d(model.stats.standardize(features)):
        d2 = np.sum((model.features_std - row) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[: model.k]
        votes = np.bincount(model.labels[nearest],
                            minlength=len(model.label_names))
        out.append(int(np.argmax(votes)))
    return np.array(out)


def test_knn_predict_matches_row_loop(monkeypatch):
    rng = np.random.default_rng(23)
    for trial in range(40):
        n, n_classes = int(rng.integers(3, 60)), int(rng.integers(2, 4))
        # integer features: many rows tie at the k-th distance
        feats = rng.integers(0, 3, size=(n + 25, 3)).astype(float)
        if trial % 2:
            feats += rng.normal(size=feats.shape)
        labels = rng.integers(0, n_classes, size=n)
        ds = LabeledFeatureSet(feats[:n], labels, tuple("abc"[:n_classes]),
                               ("F1", "F2", "F3"))
        model = train_knn(ds, int(rng.integers(1, n + 1)))
        # chunks of one, a few, and all query rows
        chunk_rows = [1, 7, 1000][trial % 3]
        monkeypatch.setattr(classify, "_KNN_BLOCK_MADDS",
                            chunk_rows * model.features_std.size)
        np.testing.assert_array_equal(model.predict(feats),
                                      _knn_row_loop(model, feats))


def test_knn_predict_matches_row_loop_near_ties(monkeypatch):
    # distances that tie or differ in their last bits, where the rounding of
    # |q|^2 + |x|^2 - 2 q.x is as large as the gaps the shortlist must keep
    rng = np.random.default_rng(24)
    for trial in range(48):
        n, n_feat = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        kind = trial % 4
        if kind == 0:  # duplicated training rows
            pool = rng.normal(size=(n // 4 + 1, n_feat))
            x = pool[rng.integers(0, len(pool), n)]
        elif kind == 1:  # rows one ulp apart
            base = rng.normal(size=n_feat)
            x = base + rng.integers(-1, 2, size=(n, n_feat)) * np.spacing(base)
        elif kind == 2:  # far from the origin, where the expansion cancels
            x = 300.0 + rng.integers(0, 3, size=(n, n_feat)) * 1e-9
        else:  # an integer grid: many exact ties
            x = rng.integers(0, 2, size=(n, n_feat)).astype(float)
        k = [1, n, int(rng.integers(1, n + 1))][trial % 3]
        model = classify.KnnModel(
            features_std=x, labels=rng.integers(0, 3, size=n), k=k,
            stats=FeatureStats(np.zeros(n_feat), np.ones(n_feat)),
            label_names=("a", "b", "c"))
        # each training row is a query too: its approximate distance to
        # itself can come out below 0
        near = x[rng.integers(0, n, 20)]
        near += rng.integers(-1, 2, size=near.shape) * np.spacing(near)
        queries = np.vstack([x, near])
        chunk_rows = [1, 7, 1000][trial // 3 % 3]
        monkeypatch.setattr(classify, "_KNN_BLOCK_MADDS", chunk_rows * x.size)
        np.testing.assert_array_equal(model.predict(queries),
                                      _knn_row_loop(model, queries))


def test_knn_blobs_cv():
    ds = blobs(n_per_class=100, spread=0.2, seed=10)
    res = evaluate(ds, lambda d, s: train_knn(d, 5), k=4, seed=1)
    assert res.mean_accuracy >= 0.99


def _separable():
    x = np.concatenate([np.linspace(-3, -0.5, 20), np.linspace(0.5, 3, 20)])
    return LabeledFeatureSet.from_rows((x > 0).astype(int), x[:, None])


def test_logreg_separable():
    ds = _separable()
    model = logistic_regression_train(ds)
    assert np.mean(model.predict(ds.features) == ds.labels) == 1.0


def test_logreg_large_l2_collapses_to_prior():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(90, 4))
    labels = np.array([0] * 30 + [1] * 60)
    ds = LabeledFeatureSet.from_rows(labels, feats)
    model = logistic_regression_train(ds, l2=1e6)
    assert np.max(np.abs(model.weights)) < 1e-6
    proba = model.predict_proba(ds.features)[:, 1]
    np.testing.assert_allclose(proba, 2 / 3, atol=0.02)


def _constant_column():
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(30, 5))
    feats[:, 2] = 0.1
    return LabeledFeatureSet.from_rows(rng.integers(0, 2, size=30), feats)


@pytest.fixture(scope="module")
def table_10db(tmp_path_factory):
    """The 10 dB test-scale feature table: 2 devices x 2000 frames, L=1024,
    seed 1."""
    from radiofp import dataio
    from radiofp.cli import main

    root = tmp_path_factory.mktemp("table_10db")
    assert main(["gen-dataset", "--out-dir", str(root / "raw"),
                 "--frames-per-device", "2000", "--snr-db", "10",
                 "--seed", "1", "--no-timestamp"]) == 0
    assert main(["extract", "--input", str(root / "raw/manifest.csv"),
                 "--etalon", str(root / "raw/etalon.iq"),
                 "--out", str(root / "features.csv"), "--no-timestamp"]) == 0
    return dataio.read_feature_csv(root / "features.csv")


@pytest.mark.parametrize("table", ["separable", "constant_column", "10db"])
def test_logreg_fit_is_stationary(table, request):
    # the penalized gradient at the fit, by central differences of
    # logistic_loss, is below 1e-8 in every component.  The differences
    # themselves err by about eps * loss / h, near 1e-10 here
    ds = {"separable": _separable, "constant_column": _constant_column,
          "10db": lambda: request.getfixturevalue("table_10db")}[table]()
    l2 = 1e-4
    model = logistic_regression_train(ds, l2=l2)
    feats = model.stats.standardize(ds.features)
    labels = ds.labels.astype(float)
    theta = np.append(model.weights, model.bias)
    h = 1e-6

    def loss(t):
        return logistic_loss(t[:-1], t[-1], feats, labels, l2)

    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        assert abs(loss(up) - loss(down)) / (2 * h) < 1e-8, i


def test_logreg_matches_mpmath_newton():
    # a small seeded table with overlapping classes; the 50-digit Newton
    # solve of the same objective, on the same z-scored floats, is the
    # reference.  The fit agrees to 1e-9 in every weight and the bias (500
    # epochs of gradient descent stopped 0.78 away)
    rng = np.random.default_rng(13)
    labels = np.arange(24) % 2
    feats = rng.normal(size=(24, 3)) + 1.5 * labels[:, None]
    ds = LabeledFeatureSet.from_rows(labels, feats)
    model = logistic_regression_train(ds)
    weights, bias = oracle_logistic_fit(
        model.stats.standardize(ds.features), labels, 1e-4)
    np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-9)
    assert model.bias == pytest.approx(bias, rel=0, abs=1e-9)


def test_logreg_singular_hessian_ends_the_fit():
    # at l2 = 1e-300 every probability rounds to 0 or 1 near the optimum,
    # and the Hessian of the penalized loss is singular there; the suite
    # turns any warning into an error
    x = np.repeat([-1.0, 1.0], 20)
    ds = LabeledFeatureSet.from_rows((x > 0).astype(int), x[:, None])
    model = logistic_regression_train(ds, l2=1e-300)
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert np.all(model.predict(ds.features) == ds.labels)


@pytest.mark.parametrize("l2", [0.0, -1e-4, np.nan, np.inf])
def test_logreg_rejects_l2_not_finite_and_positive(l2):
    with pytest.raises(ValueError, match="l2 must be finite and above 0"):
        logistic_regression_train(_separable(), l2=l2)


def test_logreg_10db_cv_accuracy(table_10db):
    # 4-fold CV with the seed of the benchmark's train_explain: 0.94775 by
    # the Newton fit and by the 500 epochs of gradient descent before it
    res = evaluate(table_10db, lambda d, s: logistic_regression_train(d),
                   k=4, seed=1)
    assert res.mean_accuracy >= 0.945


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


def test_stratified_kfold_matches_per_sample_assignment():
    rng = np.random.default_rng(16)
    labels = rng.integers(0, 3, size=103)
    ds = LabeledFeatureSet.from_rows(labels, rng.normal(size=(103, 2)))
    # reference: shuffle each class, deal its samples to folds 0, 1, ..., k-1
    ref_rng = np.random.default_rng(8)
    want = [[] for _ in range(5)]
    for cls in range(ds.n_classes):
        idx = np.nonzero(ds.labels == cls)[0]
        ref_rng.shuffle(idx)
        for i, sample in enumerate(idx):
            want[i % 5].append(int(sample))
    got = stratified_kfold(ds, 5, seed=8)
    assert [f.tolist() for f in got] == [sorted(f) for f in want]


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


def test_evaluate_drops_each_fold_model_before_the_next_fit(monkeypatch):
    # the fits run in the calling process and in a forked child, each
    # process one fit after another: a process's previous fold model must
    # be gone before its next fit.  A failing check in the child comes back
    # as the AssertionError that evaluate raises
    ds = blobs(n_per_class=40, seed=15)
    for cores in (2, 1):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        models = {}  # process id -> weak references to its fold models

        def trainer(d, s):
            mine = models.setdefault(os.getpid(), [])
            assert all(ref() is None for ref in mine)
            model = train_forest(d, ForestParams(n_trees=3), s)
            mine.append(weakref.ref(model))
            return model

        evaluate(ds, trainer, k=4, seed=2)
        mine = models[os.getpid()]
        assert len(mine) == 4 // cores and mine[-1]() is None, cores


# the serial loops that cross-validated before the job table: the
# references for cross_validate and random_grid_search


def serial_evaluate(dataset, trainer, k, seed):
    folds = stratified_kfold(dataset, k, seed)
    n_classes = dataset.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    accuracies = []
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        train_set = LabeledFeatureSet(
            features=dataset.features[train_idx],
            labels=dataset.labels[train_idx],
            label_names=dataset.label_names,
            feature_names=dataset.feature_names,
        )
        model = trainer(train_set, derive_seed(seed, i + 1))
        predicted = model.predict(dataset.features[test_idx])
        del model, train_set
        truth = dataset.labels[test_idx]
        accuracies.append(float(np.mean(predicted == truth)))
        np.add.at(confusion, (truth, predicted), 1)
    return CVResult(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
    )


def serial_grid_search(dataset, grid, k, seed):
    combos = grid.combinations()
    n_eval = min(grid.iterations, len(combos))
    rng = np.random.default_rng(derive_seed(seed, 0xC0))
    chosen = rng.choice(len(combos), size=n_eval, replace=False)
    best = None
    for pos in chosen:
        params = combos[int(pos)]
        result = serial_evaluate(
            dataset, lambda ds, s, p=params: train_forest(ds, p, s), k, seed)
        if best is None or result.mean_accuracy > best[1].mean_accuracy:
            best = (params, result)
    return best


def assert_same_cv(got, want):
    # floats bit for bit, the confusion counts and their dtype equal
    assert [a.hex() for a in got.fold_accuracies] == \
        [a.hex() for a in want.fold_accuracies]
    assert got.mean_accuracy.hex() == want.mean_accuracy.hex()
    assert got.confusion.dtype == want.confusion.dtype
    np.testing.assert_array_equal(got.confusion, want.confusion)


MIXED_TRAINERS = {
    "forest": lambda d, s: train_forest(d, ForestParams(n_trees=7), s),
    "tree": lambda d, s: train_tree(d, max_depth=4, seed=s),
    "knn": lambda d, s: train_knn(d, 3),
    "logreg": lambda d, s: logistic_regression_train(d),
    "forest_deep": lambda d, s: train_forest(
        d, ForestParams(n_trees=4, features_per_split=3, bootstrap=False), s),
}


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("k", [3, 5])
def test_cross_validate_equals_serial_loop(n_classes, k, monkeypatch):
    # k = 3 and 5 folds of 4 or 5 trainers cut into uneven fold-major
    # shares on 2 cores
    centers = ((0.0, 0.0, 0.0), (1.5, 1.0, 0.0), (0.0, 1.5, 1.0))
    ds = blobs(n_per_class=31, spread=0.9, centers=centers[:n_classes],
               seed=40 + n_classes, n_features=3)
    names = [n for n in MIXED_TRAINERS if n_classes == 2 or n != "logreg"]
    trainers = [MIXED_TRAINERS[n] for n in names]
    want = [serial_evaluate(ds, t, k, seed=5) for t in trainers]
    assert min(w.mean_accuracy for w in want) < 1.0
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        got = classify.cross_validate(ds, trainers, k, seed=5)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_cv(g, w)
        assert_same_cv(evaluate(ds, trainers[-1], k, seed=5), want[-1])


@pytest.mark.parametrize("spread", [0.2, 1.2])
def test_grid_search_equals_serial_loop(spread, monkeypatch):
    # at spread 0.2 sampled points tie at 1.0, and the first of them wins
    ds = blobs(n_per_class=25, spread=spread, seed=21, n_features=3)
    grid = HyperparamGrid(n_trees=(2, 5), max_depth=(2, None),
                          min_samples_split=(2, 10),
                          features_per_split=(1, 3), iterations=7)
    want_params, want_result = serial_grid_search(ds, grid, k=3, seed=4)
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        params, result = random_grid_search(ds, grid, k=3, seed=4)
        assert params == want_params, cores
        assert_same_cv(result, want_result)


def test_cross_validate_raises_the_serial_loops_first_error(monkeypatch):
    # trainer 0 fails on fold 3 and trainer 1 on fold 0: fold 0 comes first
    # in the job table, but the loop over trainers, then folds, meets
    # trainer 0's error first
    ds = blobs(n_per_class=20, seed=22)

    def failing(name, fold):
        def trainer(d, s):
            if s == derive_seed(6, fold + 1):
                raise ValueError(f"{name} fails on fold {fold}")
            return train_knn(d, 1)
        return trainer

    for cores in (1, 2):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        with pytest.raises(ValueError, match="^first fails on fold 3$"):
            classify.cross_validate(
                ds, [failing("first", 3), failing("second", 0)], 4, seed=6)


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
    # no node holds 1000 samples, so those trees cannot split at all; the
    # single working config must win
    grid = HyperparamGrid(n_trees=(5,), max_depth=(8,),
                          min_samples_split=(2, 1000), features_per_split=(2,),
                          iterations=40)
    params, result = random_grid_search(ds, grid, k=4, seed=1)
    assert params.min_samples_split == 2
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


def _assert_node_table(nodes, start):
    """The layout of a node table: start rises from 0 to the node count,
    each split's children lie above it inside its tree, every node but a
    root has exactly one parent, and a leaf is its own left and right
    child."""
    n = nodes.feature.size
    assert start[0] == 0 and start[-1] == n and np.all(np.diff(start) > 0)
    ids = np.arange(n)
    end = start[np.searchsorted(start, ids, side="right")]  # of its tree
    split = nodes.feature >= 0
    for child in (nodes.left, nodes.right):
        assert np.array_equal(child[~split], ids[~split])
        assert np.all((ids[split] < child[split]) & (child[split] < end[split]))
    children = np.concatenate((nodes.left[split], nodes.right[split]))
    assert np.array_equal(np.sort(children), np.setdiff1d(ids, start[:-1]))


def test_node_table_layout():
    # trained forests of 2 and 3 classes, with and without bootstrap and a
    # depth cap, their reloaded copies, and a hand-built table
    for n_classes in (2, 3):
        centers = ((0.0, 0.0), (2.0, 2.0), (0.0, 2.5))[:n_classes]
        ds = blobs(n_per_class=50, spread=1.2, centers=centers, seed=20,
                   n_features=4)
        for bootstrap, max_depth in ((True, None), (False, None), (True, 2)):
            model = train_forest(ds, ForestParams(n_trees=12,
                                                  max_depth=max_depth,
                                                  bootstrap=bootstrap), seed=9)
            assert model.start.size == 13
            for forest in (model, model_from_text(model_to_text(model))):
                _assert_node_table(forest.nodes, forest.start)
    # a stump, a leaf, then a split whose right child splits
    nodes = classify.Tree(
        feature=np.array([0, -1, -1, -1, 1, -1, 0, -1, -1]),
        threshold=np.array([0.5, np.nan, np.nan, np.nan, 1.5, np.nan, 2.5,
                            np.nan, np.nan]),
        left=np.array([1, 1, 2, 3, 5, 5, 7, 7, 8]),
        right=np.array([2, 1, 2, 3, 6, 5, 8, 7, 8]),
        counts=np.ones((9, 2), dtype=np.int64))
    start = np.array([0, 3, 4, 9])
    _assert_node_table(nodes, start)
    # each rule, broken once: a leaf's -1 child, a child in the next tree,
    # a child below its parent, two parents of one node, an empty tree
    for name, at, value in (("left", 1, -1), ("right", 0, 3),
                            ("left", 6, 5), ("right", 6, 7)):
        column = getattr(nodes, name).copy()
        column[at] = value
        with pytest.raises(AssertionError):
            _assert_node_table(replace(nodes, **{name: column}), start)
    with pytest.raises(AssertionError):
        _assert_node_table(nodes, np.array([0, 3, 3, 4, 9]))


@pytest.mark.parametrize("budget", [None, 600])
def test_forest_prefix_is_node_table_prefix(monkeypatch, budget):
    # the first t trees of a forest are its first start[t] nodes, whatever
    # groups the trees grow in, and predict as the forest of t trees does
    ds = blobs(n_per_class=50, spread=1.2, seed=30, n_features=3)
    if budget is not None:  # groups of two or three trees
        monkeypatch.setattr(classify, "_GROUP_KEYS", budget)
    rows = np.random.default_rng(31).normal(1.5, 2.0, size=(200, 3))
    for params in (ForestParams(n_trees=7),
                   ForestParams(n_trees=7, max_depth=3, bootstrap=False,
                                features_per_split=2)):
        whole = train_forest(ds, params, seed=12)
        for t in range(1, params.n_trees):
            forest = train_forest(ds, replace(params, n_trees=t), seed=12)
            end = whole.start[t]
            prefix = classify.Tree(*(getattr(whole.nodes, name)[:end]
                                     for name in classify._TREE_FIELDS))
            for name in classify._TREE_FIELDS:
                got, want = getattr(forest.nodes, name), getattr(prefix, name)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), (t, name)
            np.testing.assert_array_equal(forest.start, whole.start[:t + 1])
            cut = replace(whole, nodes=prefix, start=whole.start[:t + 1])
            assert (forest.predict_proba(rows).tobytes()
                    == cut.predict_proba(rows).tobytes()), t


@pytest.mark.parametrize("kind", ["forest", "tree"])
def test_model_text_round_trip_and_rebuilt_counts(kind):
    # a 100-tree forest of some 30 nodes a tree, and a one-tree "tree" model
    ds = blobs(n_per_class=150, spread=1.5, seed=24, n_features=3)
    model = (train_forest(ds, ForestParams(n_trees=100), seed=5)
             if kind == "forest" else train_tree(ds, seed=5))
    text = model_to_text(model)
    loaded = model_from_text(text)
    assert loaded.kind == kind and loaded.start.size == model.start.size
    assert model_to_text(loaded) == text
    # the loader sums the split nodes' counts from the leaves' counts
    for name in ("feature", "threshold", "left", "right", "counts"):
        got, want = getattr(loaded.nodes, name), getattr(model.nodes, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(loaded.start, model.start)


def _node_line_at(lines, tree, nid):
    """Index in ``lines`` of node ``nid`` of tree ``tree``."""
    return lines.index(next(ln for ln in lines
                            if ln.startswith(f"tree {tree} "))) + 1 + nid


def test_model_load_reports_first_malformed_line():
    ds = blobs(n_per_class=40, spread=1.0, seed=25)
    model = train_forest(ds, ForestParams(n_trees=3), seed=6)
    assert np.diff(model.start).min() >= 3
    lines = model_to_text(model).splitlines()
    # the last node line of the last tree, a leaf in pre-order
    last = len(lines) - 1
    fields = lines[last].split()
    assert fields[1] == "leaf"
    bad = lines[:last] + [" ".join(fields[:2] + ["-1", "2"])]
    with pytest.raises(DataFormatError,
                       match=rf"^bad model file: line {last + 1}: "
                             rf"node {fields[0]}: a leaf needs 2 "
                             r"non-negative counts, not all zero$"):
        model_from_text("\n".join(bad) + "\n")
    # a defect in tree 1 is reported ahead of one in tree 2, whatever the
    # node ids, and ahead of a malformed line "tree 2 ..."
    for nid_1, edit_2 in ((2, 1), (1, 0), (1, "head")):
        bad = list(lines)
        if edit_2 == "head":
            at = _node_line_at(bad, 2, -1)
            bad[at] = "tree 2 x"
        else:
            at = _node_line_at(bad, 2, edit_2)
            bad[at] = bad[at].replace(str(edit_2), "x", 1)
        at = _node_line_at(bad, 1, nid_1)
        bad[at] = bad[at].replace(str(nid_1), "x", 1)
        with pytest.raises(DataFormatError,
                           match=rf"^bad model file: line {at + 1}: "
                                 rf"node {nid_1}: expected '{nid_1} leaf"):
            model_from_text("\n".join(bad) + "\n")


# the meta params of a hand-written model file of 2 trees
PARAMS_2 = ('{"n_trees": 2, "max_depth": null, "min_samples_split": 2, '
            '"features_per_split": null, "bootstrap": true}')


# (node line edit, message after "line <n>: node <id>: "); each message is
# the one a line-by-line read gives
NODE_LINE_DEFECTS = [
    ("0 leaf 3", "a leaf needs 2 non-negative counts, not all zero"),
    ("0 leaf 3 1 1", "a leaf needs 2 non-negative counts, not all zero"),
    ("0 leaf 0 0", "a leaf needs 2 non-negative counts, not all zero"),
    ("0 leaf -1 4", "a leaf needs 2 non-negative counts, not all zero"),
    ("0 leaf", "a leaf needs 2 non-negative counts, not all zero"),
    ("1 leaf 3 1", "expected '0 leaf ...' or '0 split ...'"),
    ("0 stem 3 1", "expected '0 leaf ...' or '0 split ...'"),
    ("0", "expected '0 leaf ...' or '0 split ...'"),
    ("", "expected '0 leaf ...' or '0 split ...'"),
    ("0 split 0 0.5 1", "expected '0 leaf ...' or '0 split ...'"),
    ("0 split 7 0.5 1 2", "feature 7 out of range"),
    ("0 split -1 0.5 1 2", "feature -1 out of range"),
    ("0 split 0 0.5 0 2", "child ids must lie in (0, 3)"),
    ("0 split 0 0.5 1 3", "child ids must lie in (0, 3)"),
    ("0 split 0 inf 1 2", "threshold inf is not finite"),
    # a number that int or float rejects, or that int64 cannot hold, breaks
    # the rule of its field; the first field's rule comes first
    ("0 leaf x 1", "a leaf needs 2 non-negative counts, not all zero"),
    ("0 leaf 1 99999999999999999999",
     "a leaf needs 2 non-negative counts, not all zero"),
    ("0 split x 0.5 1 2", "feature x out of range"),
    ("0 split 1.0 0.5 1 2", "feature 1.0 out of range"),
    ("0 split 99999999999999999999 0.5 1 2",
     "feature 99999999999999999999 out of range"),
    ("0 split 7 0.5 x 2", "feature 7 out of range"),
    ("0 split 0 0.5 x 2", "child ids must lie in (0, 3)"),
    ("0 split 0 abc 1 2.0", "child ids must lie in (0, 3)"),
    ("0 split 0 abc 1 2", "threshold abc is not finite"),
]


@pytest.mark.parametrize(
    "line, message", NODE_LINE_DEFECTS,
    ids=[line or "empty" for line, _ in NODE_LINE_DEFECTS])
def test_model_load_node_line_messages(line, message):
    # tree 0 is a stump, tree 1 a leaf; tree 0's root line is replaced
    lines = ["radiofp-model v1", "kind forest",
             'meta {"label_names": ["a", "b"], "feature_names": ["F1", "F2"], '
             '"seed": 0, "params": ' + PARAMS_2 + ', "importances": null}',
             "trees 2", "tree 0 3", "0 split 1 0.5 1 2", "1 leaf 2 0",
             "2 leaf 0 2", "tree 1 1", "0 leaf 1 1"]
    model_from_text("\n".join(lines) + "\n")  # valid as it stands
    lines[5] = line
    with pytest.raises(DataFormatError,
                       match=f"^bad model file: line 6: node 0: "
                             f"{re.escape(message)}$"):
        model_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["x", "1.5", "9" * 20])
def test_model_load_bad_leaf_count_messages(token):
    # a count that int rejects or int64 cannot hold breaks the leaf rule
    ds = blobs(n_per_class=20, seed=26)
    lines = model_to_text(train_forest(ds, ForestParams(n_trees=2),
                                       seed=4)).splitlines()
    at = next(i for i, line in enumerate(lines) if " leaf " in line)
    fields = lines[at].split()
    lines[at] = " ".join(fields[:2] + [token] + fields[3:])
    with pytest.raises(DataFormatError,
                       match=rf"^bad model file: line {at + 1}: "
                             rf"node {fields[0]}: a leaf needs 2 "
                             r"non-negative counts, not all zero$"):
        model_from_text("\n".join(lines) + "\n")


def test_model_load_rejects_leaf_counts_beyond_int64():
    # a tree's counts are summed into its split nodes as int64: leaf counts
    # that sum to 2^63 would wrap there and in each leaf's own total
    lines = ["radiofp-model v1", "kind forest",
             'meta {"label_names": ["a", "b"], "feature_names": ["F1"], '
             '"seed": 0, "params": ' + PARAMS_2 + ', "importances": null}',
             "trees 2", "tree 0 1", "0 leaf 1 1", "tree 1 3",
             "0 split 0 0.5 1 2", f"1 leaf {2**62} {2**62}", "2 leaf 0 0"]
    with pytest.raises(DataFormatError, match=r"^bad model file: line 10: "
                       r"node 2: a leaf needs"):
        model_from_text("\n".join(lines) + "\n")
    lines[-1] = "2 leaf 0 1"
    with pytest.raises(DataFormatError,
                       match=r"^bad model file: line 7: tree 1: the leaf "
                             r"counts sum to 2\^63 or more$"):
        model_from_text("\n".join(lines) + "\n")
    lines[-2] = f"1 leaf {2**62} {2**62 - 2}"  # 2^63 - 1 in all
    model = model_from_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(model.nodes.counts[model.start[1]],
                                  [2**62, 2**62 - 1])
    np.testing.assert_array_equal(model.predict_proba([[0.0], [1.0]]),
                                  [[0.5, 0.5], [0.25, 0.75]])


# tokens a corruption puts in a line, besides small integers
CORRUPT_TOKENS = ["x", "1.5", "-1", "0", "+1", "01", "1_0", "1e3", "nan",
                  "inf", "abc", "leaf", "split", "tree", "9" * 20,
                  str(2**62), str(2**63 - 1)]


# a phrase of the message of each rule of a tree or node line
LOADER_RULES = ["<n_nodes>", "node lines, found", "leaf ...' or",
                "a leaf needs", "feature", "child ids", "threshold",
                "exactly one node", "2^63"]


def _corrupt(lines, rng):
    """One seeded edit of a model file's tree and node lines (from index 4):
    a token replaced, removed or inserted, a line rejoined with other
    spaces, swapped, deleted or duplicated, a tree line edited, or a leaf
    count set to 2^63 - 1."""
    lines = list(lines)
    at = int(rng.integers(4, len(lines)))
    edit = str(rng.choice(["replace"] * 5 + ["remove", "insert", "spaces",
                                             "tree", "swap", "delete",
                                             "duplicate", "count"]))
    if edit == "swap":
        other = int(rng.integers(4, len(lines)))
        lines[at], lines[other] = lines[other], lines[at]
        return lines
    if edit == "delete":
        del lines[at]
        return lines
    if edit == "duplicate":
        lines.insert(at, lines[at])
        return lines
    if edit in ("tree", "count"):
        kind = "tree " if edit == "tree" else " leaf "
        at = int(rng.choice([i for i, line in enumerate(lines)
                             if kind in f" {line}"]))
    fields = lines[at].split()
    if edit == "spaces":
        lines[at] = str(rng.choice(["  ", "\t", " \t "])).join(fields)
        return lines
    # "replace" edits one or two tokens of the line, so that it can break
    # two rules
    for _ in range(int(rng.integers(1, 3)) if edit == "replace" else 1):
        token = (str(int(rng.integers(-2, 12))) if rng.random() < 0.6
                 else str(rng.choice(CORRUPT_TOKENS)))
        where = int(rng.integers(len(fields) + 1))
        if edit == "count":  # a leaf count that the tree's counts sum past
            token, where = str(2**63 - 1), len(fields) - 1
        if edit == "insert":
            fields.insert(where, token)
        elif fields and edit == "remove":
            del fields[min(where, len(fields) - 1)]
        elif fields:
            fields[min(where, len(fields) - 1)] = token
    lines[at] = " ".join(fields)
    return lines


@pytest.mark.parametrize("n_classes", [2, 3])
def test_model_load_matches_line_by_line_reference(n_classes):
    # seeded corruptions of a trained model: the loader gives the model the
    # line-by-line reference reads, or exactly its message
    centers = ((0.0, 0.0), (2.0, 2.0), (0.0, 2.5))[:n_classes]
    ds = blobs(n_per_class=40, spread=1.5, centers=centers, seed=27)
    text = model_to_text(train_forest(ds, ForestParams(n_trees=4), seed=8))
    rng = np.random.default_rng(28 + n_classes)
    loaded, messages = 0, set()
    for case in range(400):
        lines = text.splitlines()
        for _ in range(int(rng.integers(1, 3))):
            lines = _corrupt(lines, rng)
        expected = oracle_model_trees(lines, 4, n_classes, 2)
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                model_from_text("\n".join(lines) + "\n")
            assert str(info.value) == f"bad model file: {expected}", case
            messages.add(expected)
        else:
            model = model_from_text("\n".join(lines) + "\n")
            assert model_to_text(model).splitlines()[4:] == expected[0], case
            assert model.nodes.counts.tolist() == expected[1], case
            loaded += 1
    # every rule is broken, and some files still load
    assert loaded >= 20, loaded
    assert not [rule for rule in LOADER_RULES
                if not any(rule in message for message in messages)]


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
    assert list(tmp_path.glob("*.tmp*")) == []


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        model_from_text("not a model\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_model_load_rejects_non_finite_threshold(bad):
    # training writes finite midpoints only; a nan threshold would send
    # every row right at its node
    ds = blobs(n_per_class=20, seed=23)
    lines = model_to_text(train_forest(ds, ForestParams(n_trees=2),
                                       seed=4)).splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.split()[1:2] == ["split"])
    fields = lines[at].split()
    fields[3] = bad
    lines[at] = " ".join(fields)
    with pytest.raises(DataFormatError,
                       match=rf"line {at + 1}: node {fields[0]}: threshold "
                             rf"{bad} is not finite$"):
        model_from_text("\n".join(lines) + "\n")


def test_derive_seed_spread():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 5) == derive_seed(42, 5)
    assert derive_seed(42, 5) != derive_seed(43, 5)
