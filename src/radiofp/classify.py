"""From-scratch classifiers and evaluation.

CART decision trees with Gini impurity, a bagged random forest with
mean-decrease-in-impurity feature importances, k-nearest-neighbours and
logistic regression baselines, stratified k-fold cross-validation and a
randomized hyperparameter search.  Everything is deterministic given a seed:
per-tree and per-fold generators are derived from the master seed with a
splitmix-style mixer so results are reproducible across runs and platforms.

Ties are always broken the same way: split candidates by lowest feature
index then lowest threshold, predicted classes by lowest label index.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import atomic_write_bytes
from .dataset import FeatureStats, LabeledFeatureSet
from .errors import (
    DataFormatError,
    EmptyDatasetError,
    NoSplitsError,
    SingleClassError,
    TooFewSamplesError,
    UntrainedModelError,
)

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, *indices: int) -> int:
    """Splitmix64-style child seed: mix(master, i1, i2, ...)."""
    z = master & _MASK64
    for idx in indices:
        z = (z + (idx + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


# --- CART ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tree:
    """One CART tree as parallel arrays indexed by pre-order node id.

    Node 0 is the root and every child has a larger id than its parent.
    ``feature`` is -1 at leaves, where ``threshold`` is NaN and ``left`` and
    ``right`` are -1.  ``counts[i]`` holds the class counts of the training
    samples that reach node i.
    """

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int
    right: np.ndarray  # (n_nodes,) int
    counts: np.ndarray  # (n_nodes, n_classes) int

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row; all rows descend one level per step."""
        node = np.zeros(rows.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = rows[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return node


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p @ p))


def _best_split(x_node, y_node, feature_ids, n_classes, parent_counts):
    """Best (feature, threshold, gain) over midpoints of distinct values.

    Returns None when no feature in the subset has two distinct values.
    Gains are compared strictly, so the first candidate in (feature asc,
    threshold asc) order wins ties.
    """
    n = y_node.size
    parent_gini = _gini(parent_counts)
    onehot = (y_node[:, None] == np.arange(n_classes)).astype(np.float64)
    best = None
    best_gain = -1.0
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    for f in feature_ids:
        x = x_node[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        valid = xs[:-1] < xs[1:]
        left = np.cumsum(onehot[order], axis=0)[:-1]
        right = parent_counts - left
        gini_l = 1.0 - np.einsum("ij,ij->i", left, left) / n_left**2
        gini_r = 1.0 - np.einsum("ij,ij->i", right, right) / n_right**2
        gains = parent_gini - (n_left * gini_l + n_right * gini_r) / n
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            thr = (xs[i] + xs[i + 1]) / 2.0
            if thr >= xs[i + 1]:  # adjacent floats can round the midpoint up
                thr = float(xs[i])
            best_gain = float(gains[i])
            best = (int(f), float(thr), best_gain)
    return best


def _grow_tree(features, labels, indices, max_depth, min_samples_split,
               features_per_split, rng, n_classes) -> Tree:
    """Grow depth-first, left child first, so ids and rng draws are pre-order."""
    n_features = features.shape[1]
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(indices, 0, -1, left)]  # (samples, depth, parent, parent's link)
    while stack:
        idx, depth, parent, link = stack.pop()
        nid = len(feature)
        if parent >= 0:
            link[parent] = nid
        node_counts = np.bincount(labels[idx], minlength=n_classes)
        counts.append(node_counts)
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        n = idx.size
        if (n < max(2, min_samples_split) or node_counts.max() == n
                or (max_depth is not None and depth >= max_depth)):
            continue
        if features_per_split >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, features_per_split,
                                       replace=False))
        best = _best_split(features[idx], labels[idx], feats,
                           n_classes, node_counts.astype(np.float64))
        if best is None:
            continue
        feature[nid], threshold[nid], _ = best
        mask = features[idx, feature[nid]] <= threshold[nid]
        stack.append((idx[~mask], depth + 1, nid, right))
        stack.append((idx[mask], depth + 1, nid, left))
    return Tree(np.array(feature), np.array(threshold), np.array(left),
                np.array(right), np.array(counts))


@dataclass
class ForestParams:
    """Forest hyperparameters; features_per_split None means ceil(sqrt(F))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None
    bootstrap: bool = True

    def resolved_features_per_split(self, n_features: int) -> int:
        if self.features_per_split is None:
            return math.ceil(math.sqrt(n_features))
        return self.features_per_split


@dataclass
class RandomForestModel:
    trees: list
    label_names: tuple
    feature_names: tuple
    params: ForestParams
    seed: int
    importances: np.ndarray | None = None
    kind: str = "forest"

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def predict_proba(self, features) -> np.ndarray:
        if not self.trees:
            raise UntrainedModelError("model has no trees")
        rows = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.zeros((rows.shape[0], self.n_classes))
        for tree in self.trees:
            proba = tree.counts / tree.counts.sum(axis=1, keepdims=True)
            out += proba[tree.apply(rows)]
        return out / len(self.trees)

    def predict(self, features) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)


def train_tree(dataset: LabeledFeatureSet, max_depth: int | None = None,
               min_samples_split: int = 2,
               features_per_split: int | None = None,
               seed: int = 0) -> RandomForestModel:
    """Single CART tree (a forest of one, grown on the full sample)."""
    params = ForestParams(
        n_trees=1,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        features_per_split=(features_per_split
                            if features_per_split is not None
                            else dataset.n_features),
        bootstrap=False,
    )
    model = train_forest(dataset, params, seed)
    return replace(model, kind="tree")


def train_forest(dataset: LabeledFeatureSet,
                 params: ForestParams | None = None,
                 seed: int = 0) -> RandomForestModel:
    """Bagged CART ensemble, deterministic for a given seed."""
    if dataset.n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    params = params or ForestParams()
    if params.n_trees < 1:
        raise ValueError("need at least one tree")
    feats = dataset.features
    labels = dataset.labels
    n_classes = dataset.n_classes
    per_split = params.resolved_features_per_split(dataset.n_features)

    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        if params.bootstrap:
            indices = rng.integers(0, dataset.n, dataset.n)
        else:
            indices = np.arange(dataset.n)
        trees.append(
            _grow_tree(feats, labels, indices, params.max_depth,
                       params.min_samples_split, per_split, rng, n_classes)
        )

    model = RandomForestModel(
        trees=trees,
        label_names=tuple(dataset.label_names),
        feature_names=tuple(dataset.feature_names),
        params=params,
        seed=seed,
    )
    try:
        model.importances = feature_importances(model)
    except NoSplitsError:
        model.importances = None
    return model


def feature_importances(model: RandomForestModel) -> np.ndarray:
    """Mean decrease in impurity per feature, normalized to sum 1.

    Each split contributes (samples reaching node / samples at root) times
    the Gini decrease it achieves; contributions are accumulated per feature
    within a tree, averaged over trees, then normalized.
    """
    if not model.trees:
        raise UntrainedModelError("model has no trees")
    n_features = len(model.feature_names)
    total = np.zeros(n_features)
    for tree in model.trees:
        n = tree.counts.sum(axis=1)
        p = tree.counts / n[:, None]
        gini = 1.0 - np.einsum("ij,ij->i", p, p)
        split = np.flatnonzero(tree.feature >= 0)
        lo, hi = tree.left[split], tree.right[split]
        child_gini = (n[lo] * gini[lo] + n[hi] * gini[hi]) / n[split]
        decrease = (n[split] / n[0]) * (gini[split] - child_gini)
        total += np.bincount(tree.feature[split], weights=decrease,
                             minlength=n_features)
    total /= len(model.trees)
    s = total.sum()
    if s == 0:
        raise NoSplitsError("no split in any tree; importances undefined")
    return total / s


# --- kNN and logistic regression ---------------------------------------------


@dataclass
class KnnModel:
    features_std: np.ndarray
    labels: np.ndarray
    k: int
    stats: FeatureStats
    label_names: tuple
    kind: str = "knn"

    def predict(self, features) -> np.ndarray:
        rows = np.atleast_2d(self.stats.standardize(features))
        n_classes = len(self.label_names)
        out = np.empty(rows.shape[0], dtype=int)
        for i, row in enumerate(rows):
            d2 = np.sum((self.features_std - row) ** 2, axis=1)
            nearest = np.argsort(d2, kind="stable")[: self.k]
            votes = np.bincount(self.labels[nearest], minlength=n_classes)
            out[i] = int(np.argmax(votes))
        return out


def train_knn(dataset: LabeledFeatureSet, k: int) -> KnnModel:
    if dataset.n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if not 1 <= k <= dataset.n:
        raise ValueError("k must be in [1, n]")
    stats = FeatureStats.from_features(dataset.features)
    return KnnModel(
        features_std=stats.standardize(dataset.features),
        labels=dataset.labels,
        k=k,
        stats=stats,
        label_names=tuple(dataset.label_names),
    )


def knn_classify(dataset: LabeledFeatureSet, query, k: int) -> int:
    """Majority vote among the k nearest (z-scored Euclidean) neighbours."""
    return int(train_knn(dataset, k).predict(np.atleast_2d(query))[0])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss(weights, bias, features_std, labels01, l2):
    """Regularized mean cross-entropy (bias unpenalized)."""
    z = features_std @ weights + bias
    # log(1 + exp(-|z|)) + max(z,0) - z*y, numerically stable
    loss = np.mean(np.logaddexp(0.0, z) - labels01 * z)
    return float(loss + 0.5 * l2 * (weights @ weights))


def _logistic_gradient(weights, bias, features_std, labels01, l2):
    p = _sigmoid(features_std @ weights + bias)
    resid = p - labels01
    grad_w = features_std.T @ resid / labels01.size + l2 * weights
    grad_b = float(resid.mean())
    return grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    stats: FeatureStats
    label_names: tuple
    kind: str = "logreg"

    def predict_proba(self, features) -> np.ndarray:
        z = np.atleast_2d(self.stats.standardize(features)) @ self.weights
        p1 = _sigmoid(z + self.bias)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)


def logistic_regression_train(dataset: LabeledFeatureSet, l2: float = 1e-4,
                              epochs: int = 500, lr: float = 0.5,
                              seed: int = 0) -> LogisticModel:
    """Full-batch gradient descent on z-scored features, binary labels.

    The quadratic penalty is applied as a proximal (implicit) step,
    ``w <- (w - lr*grad_data) / (1 + lr*l2)``, which stays stable for
    arbitrarily large ``l2``; the unpenalized bias takes plain steps.
    """
    if dataset.n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if dataset.n_classes != 2:
        raise SingleClassError("logistic regression needs exactly 2 classes")
    stats = FeatureStats.from_features(dataset.features)
    z = stats.standardize(dataset.features)
    y = dataset.labels.astype(float)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, dataset.n_features)
    b = 0.0
    for _ in range(epochs):
        grad_w, grad_b = _logistic_gradient(w, b, z, y, 0.0)
        w = (w - lr * grad_w) / (1.0 + lr * l2)
        b -= lr * grad_b
    return LogisticModel(weights=w, bias=b, stats=stats,
                         label_names=tuple(dataset.label_names))


# --- cross-validation and search ---------------------------------------------


def stratified_kfold(dataset: LabeledFeatureSet, k: int, seed: int) -> list:
    """k disjoint index folds with per-class counts differing by at most 1."""
    if k < 2:
        raise ValueError("need k >= 2 folds")
    counts = dataset.class_counts()
    if counts.min() < k:
        raise TooFewSamplesError(
            f"smallest class has {counts.min()} members, need >= {k}"
        )
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in range(dataset.n_classes):
        idx = np.nonzero(dataset.labels == cls)[0]
        rng.shuffle(idx)
        for i, sample in enumerate(idx):
            folds[i % k].append(int(sample))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


@dataclass
class CVResult:
    fold_accuracies: list
    mean_accuracy: float
    confusion: np.ndarray  # rows true class, columns predicted


def evaluate(dataset: LabeledFeatureSet, trainer, k: int, seed: int) -> CVResult:
    """Stratified k-fold CV of ``trainer(train_set, fold_seed) -> model``."""
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
        truth = dataset.labels[test_idx]
        accuracies.append(float(np.mean(predicted == truth)))
        np.add.at(confusion, (truth, predicted), 1)
    return CVResult(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
    )


@dataclass
class HyperparamGrid:
    """Candidate values for the forest search (values per D-defaults)."""

    n_trees: tuple = (50, 100, 200)
    max_depth: tuple = (4, 8, 16, None)
    min_samples_split: tuple = (2, 5, 10)
    features_per_split: tuple = (2, 3, 4)
    iterations: int = 40

    def combinations(self) -> list:
        return [
            ForestParams(n_trees=nt, max_depth=md, min_samples_split=ms,
                         features_per_split=fs)
            for nt, md, ms, fs in itertools.product(
                self.n_trees, self.max_depth,
                self.min_samples_split, self.features_per_split)
        ]


def random_grid_search(dataset: LabeledFeatureSet, grid: HyperparamGrid,
                       k: int, seed: int):
    """Uniform sample of distinct grid points, each scored by k-fold CV.

    Returns ``(best_params, best_cv_result)``; ties keep the first sampled
    combination.  Folds are identical across combinations so scores are
    comparable.
    """
    combos = grid.combinations()
    if not combos:
        raise ValueError("empty hyperparameter grid")
    n_eval = min(grid.iterations, len(combos))
    rng = np.random.default_rng(derive_seed(seed, 0xC0))
    chosen = rng.choice(len(combos), size=n_eval, replace=False)
    best = None
    for pos in chosen:
        params = combos[int(pos)]
        result = evaluate(
            dataset,
            lambda ds, s, p=params: train_forest(ds, p, s),
            k,
            seed,
        )
        if best is None or result.mean_accuracy > best[1].mean_accuracy:
            best = (params, result)
    return best


# --- serialization -----------------------------------------------------------

MODEL_FORMAT_HEADER = "radiofp-model v1"


def model_to_text(model: RandomForestModel) -> str:
    """Versioned plain-text serialization sufficient for bit-exact reload."""
    meta = {
        "label_names": list(model.label_names),
        "feature_names": list(model.feature_names),
        "seed": model.seed,
        "params": asdict(model.params),
        "importances": (None if model.importances is None
                        else list(model.importances)),
    }
    lines = [MODEL_FORMAT_HEADER, f"kind {model.kind}",
             "meta " + json.dumps(meta), f"trees {len(model.trees)}"]
    for i, tree in enumerate(model.trees):
        lines.append(f"tree {i} {tree.n_nodes}")
        nodes = zip(tree.feature.tolist(), tree.threshold.tolist(),
                    tree.left.tolist(), tree.right.tolist(),
                    tree.counts.tolist())
        for nid, (feature, threshold, left, right, counts) in enumerate(nodes):
            if feature < 0:
                lines.append(f"{nid} leaf " + " ".join(map(str, counts)))
            else:
                lines.append(
                    f"{nid} split {feature} {threshold!r} {left} {right}")
    return "\n".join(lines) + "\n"


def _tree_from_lines(lines: list, first_line: int, n_classes: int,
                     n_features: int) -> Tree:
    """Fill the arrays from node lines, then rebuild split-node counts."""
    n_nodes = len(lines)
    feature = np.full(n_nodes, -1)
    threshold = np.full(n_nodes, math.nan)
    left = np.full(n_nodes, -1)
    right = np.full(n_nodes, -1)
    counts = np.zeros((n_nodes, n_classes), dtype=int)
    for nid, line in enumerate(lines):
        where = f"line {first_line + nid}: node {nid}"
        parts = line.split()
        if parts[:2] == [str(nid), "leaf"]:
            leaf = [int(v) for v in parts[2:]]
            if len(leaf) != n_classes or min(leaf) < 0 or sum(leaf) == 0:
                raise DataFormatError(f"{where}: a leaf needs {n_classes} "
                                      "non-negative counts, not all zero")
            counts[nid] = leaf
            continue
        if parts[:2] != [str(nid), "split"] or len(parts) != 6:
            raise DataFormatError(
                f"{where}: expected '{nid} leaf ...' or '{nid} split ...'")
        f, lo, hi = int(parts[2]), int(parts[4]), int(parts[5])
        if not 0 <= f < n_features:
            raise DataFormatError(f"{where}: feature {f} out of range")
        if not (nid < lo < n_nodes and nid < hi < n_nodes):
            raise DataFormatError(
                f"{where}: child ids must lie in ({nid}, {n_nodes})")
        feature[nid], threshold[nid] = f, float(parts[3])
        left[nid], right[nid] = lo, hi
    split = feature >= 0
    children = np.sort(np.concatenate([left[split], right[split]]))
    if not np.array_equal(children, np.arange(1, n_nodes)):
        raise DataFormatError(f"line {first_line}: some node other than the "
                              "root is not the child of exactly one node")
    for nid in np.flatnonzero(split)[::-1]:
        counts[nid] = counts[left[nid]] + counts[right[nid]]
    return Tree(feature, threshold, left, right, counts)


def model_from_text(text: str) -> RandomForestModel:
    """Parse a model file; any malformed content raises DataFormatError.

    Node ids run 0..n_nodes-1 in order, each child id lies above its
    parent's, and every node but the root has exactly one parent.
    """
    lines = text.splitlines()
    try:
        if not lines or lines[0] != MODEL_FORMAT_HEADER:
            raise DataFormatError("not a radiofp model file")
        keyed = [line.partition(" ") for line in lines[1:4]]
        if [key for key, _, _ in keyed] != ["kind", "meta", "trees"]:
            raise DataFormatError("expected 'kind', 'meta', 'trees' lines")
        (_, _, kind), (_, _, meta_text), (_, _, n_trees) = keyed
        meta = json.loads(meta_text)
        n_classes = len(meta["label_names"])
        n_features = len(meta["feature_names"])
        trees, pos = [], 4
        for t in range(int(n_trees)):
            head = lines[pos].split() if pos < len(lines) else []
            if len(head) != 3 or head[:2] != ["tree", str(t)]:
                raise DataFormatError(
                    f"line {pos + 1}: expected 'tree {t} <n_nodes>'")
            body = lines[pos + 1:pos + 1 + int(head[2])]
            if not body or len(body) != int(head[2]):
                raise DataFormatError(f"tree {t}: expected {head[2]} node "
                                      f"lines, found {len(body)}")
            trees.append(_tree_from_lines(body, pos + 2, n_classes,
                                          n_features))
            pos += 1 + len(body)
        if pos != len(lines):
            raise DataFormatError(f"line {pos + 1}: text after the last tree")
        importances = meta["importances"]
        return RandomForestModel(
            trees=trees,
            label_names=tuple(meta["label_names"]),
            feature_names=tuple(meta["feature_names"]),
            params=ForestParams(**meta["params"]),
            seed=meta["seed"],
            importances=(None if importances is None
                         else np.array(importances, dtype=float)),
            kind=kind,
        )
    except KeyError as exc:
        raise DataFormatError(f"bad model file: meta lacks {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model file: {exc}") from None


def save_model(model: RandomForestModel, path) -> None:
    atomic_write_bytes(path, model_to_text(model).encode("ascii"))


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_text(fh.read())
