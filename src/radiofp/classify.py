"""From-scratch classifiers and evaluation.

CART decision trees with Gini impurity, a bagged random forest with
mean-decrease-in-impurity feature importances, k-nearest-neighbours and
logistic regression baselines, stratified k-fold cross-validation and a
randomized hyperparameter search.  Everything is deterministic given a seed:
per-tree and per-fold generators are derived from the master seed with a
splitmix-style mixer so results are reproducible across runs on one machine
and numpy build.

Ties are always broken the same way: split candidates by lowest feature
index then lowest threshold, predicted classes by lowest label index.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from operator import itemgetter

import numpy as np

from .dataio import atomic_write_bytes
from .dataset import FeatureStats, LabeledFeatureSet
from .errors import (
    DataFormatError,
    EmptyDatasetError,
    NoSplitsError,
    SingleClassError,
    TooFewSamplesError,
)
from .parallel import fork_map

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

# sort keys in one level pass of a tree group.  A forest grows as many
# trees at once as fit (at least one): the fewer passes, the less fixed
# numpy cost per level, while the pass's arrays, and so the peak RSS, grow
# with the keys.
_GROUP_KEYS = 1 << 16

# a level pass whose keys all lie below this sorts them as int32, which is
# twice as fast as int64 on AVX-512; any other pass sorts int64 keys
_INT32_KEYS = 1 << 31


@dataclass(frozen=True, eq=False)
class Tree:
    """The nodes of CART trees as parallel arrays, laid out as one node
    table: tree t takes nodes ``start[t]`` to ``start[t + 1]``, its root
    first (training numbers a tree's nodes in pre-order, left child first).

    ``left`` and ``right`` hold ids in the whole table, each child above
    its parent and inside its tree.  ``feature`` is -1 at leaves, where
    ``threshold`` is NaN and a leaf is its own left and right child, so a
    descent that reaches a leaf stays there.  ``counts[i]`` holds the class
    counts of the training samples that reach node i.
    """

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int
    right: np.ndarray  # (n_nodes,) int
    counts: np.ndarray  # (n_nodes, n_classes) int


_TREE_FIELDS = ("feature", "threshold", "left", "right", "counts")


def _node_table(tables) -> tuple:
    """Node tables ``(nodes, start)`` laid end to end as one: each table's
    child ids move with its nodes, and its tree starts follow the last
    table's nodes."""
    shift = np.cumsum([0] + [int(start[-1]) for _, start in tables[:-1]])
    moved = [replace(nodes, left=nodes.left + s, right=nodes.right + s)
             for (nodes, _), s in zip(tables, shift)]
    start = np.concatenate([[0]] + [np.asarray(start[1:]) + s
                                    for (_, start), s in zip(tables, shift)])
    return Tree(*(np.concatenate([getattr(nodes, name) for nodes in moved])
                  for name in _TREE_FIELDS)), start


def _class_shares(counts) -> tuple:
    """Each row's size as float64, its class shares and its Gini impurity
    ``1 - p.p``, for a table of class counts whose rows are not all zero.
    The dot products are numpy's own reduction, not BLAS, so their bits do
    not depend on the CPU's BLAS kernel; the sizes are exact int64 sums."""
    size = counts.sum(axis=1).astype(np.float64)
    p = counts / size[:, None]
    return size, p, 1.0 - np.einsum("ij,ij->i", p, p)


def _value_ranks(features):
    """Dense rank of every value within its column, laid out (feature,
    sample), and a table whose row f holds column f's sorted distinct
    values (padded with its largest).

    Equal values share a rank, so ``rank <= r`` selects exactly the samples
    whose value is at most the r-th distinct value.
    """
    columns = [np.unique(col, return_inverse=True) for col in features.T]
    width = max(values.size for values, _ in columns)
    table = np.array([np.pad(values, (0, width - values.size), mode="edge")
                      for values, _ in columns])
    ranks = np.array([inverse for _, inverse in columns])
    return ranks, table


def _cut_gains(cls, weight, cut, start, at, counts, work):
    """Gini gain of each cut, in the float expression of a per-node search.

    A cut sends its segment's sorted elements ``start..cut`` left; ``cls``
    and ``weight`` hold the class and the multiplicity of every sorted
    element, and ``counts[at]`` the class counts of the cut's node.  For
    each class k > 0 one int64 cumulative sum of
    ``weight * ((class == k) << 32 | 1)`` holds, below bit 32, the weight
    of the elements up to each and, from bit 32 up, their class k weight,
    so two classes take a single running sum.  Both halves are exact while
    the pass's total weight is below 2^31, which ``_level_splits`` asserts.
    Class 0 counts are what the others leave.  The per-cut counts are
    float64 rows of ``work``, exact below 2^53, so the gains equal those of
    int64 counts; they stay in ``work`` until the next call.
    """
    size, _, parent_gini = _class_shares(counts)
    n_left, l0, l_sq, r_sq, lk, rk = work.cuts[:6 * cut.size].reshape(6, -1)
    packed, spare = lk.view(np.int64), rk.view(np.int64)
    l_sq[:] = 0
    r_sq[:] = 0
    running = work.running[:cls.size + 1]
    running[0] = 0
    for k in range(1, counts.shape[1]):
        np.equal(cls, k, out=running[1:])
        running[1:] <<= 32
        running[1:] += 1
        running[1:] *= weight
        np.cumsum(running[1:], out=running[1:])
        # "clip": as in _level_splits
        np.take(running[1:], cut, out=packed, mode="clip")
        packed -= np.take(running, start, out=spare, mode="clip")
        if k == 1:  # the weight sent left, below bit 32
            np.bitwise_and(packed, 0xFFFFFFFF, out=spare)
            n_left[:] = spare
            l0[:] = n_left
        np.right_shift(packed, 32, out=spare)
        lk[:] = spare
        np.take(counts[:, k].astype(np.float64), at, out=rk, mode="clip")
        rk -= lk
        l0 -= lk
        lk *= lk
        l_sq += lk
        rk *= rk
        r_sq += rk
    # class 0 sent right: the node's class 0 count less the one sent left,
    # exact like every count here
    r0 = np.take(counts[:, 0].astype(np.float64), at, out=rk, mode="clip")
    r0 -= l0
    l0 *= l0
    l_sq += l0
    r0 *= r0
    r_sq += r0

    # parent_gini - (n_left * gini_l + n_right * gini_r) / n, in the rows
    # whose counts are spent
    n = np.take(size, at, out=lk, mode="clip")
    n_right = np.subtract(n, n_left, out=rk)
    gini_l = np.divide(l_sq, np.square(n_left, out=l0), out=l0)
    np.subtract(1.0, gini_l, out=gini_l)
    gini_r = np.divide(r_sq, np.square(n_right, out=l_sq), out=l_sq)
    np.subtract(1.0, gini_r, out=gini_r)
    gini_l *= n_left
    gini_r *= n_right
    gini_l += gini_r
    gini_l /= n
    return np.subtract(np.take(parent_gini, at, out=r_sq, mode="clip"),
                       gini_l, out=gini_l)


class _LevelWork:
    """The largest arrays of a level pass, allocated once per forest at the
    most keys any of its passes sorts, and reused by every pass.  Allocated
    and freed anew each level, they had glibc hand their pages back to the
    kernel after one level and fault them in again at the next.  A pass of
    int32 keys sorts an int32 view of ``key``."""

    def __init__(self, n_keys):
        # where each key's value rank sits in ranks, then the packed keys,
        # then their segment ranks
        self.key = np.empty(n_keys, dtype=np.int64)
        # the value ranks, then the running sums of _cut_gains
        self.running = np.empty(n_keys + 1, dtype=np.int64)
        self.cls = np.empty(n_keys, dtype=np.int32)
        self.weight = np.empty(n_keys, dtype=np.int32)
        self.edge = np.empty(n_keys, dtype=bool)
        self.keep = np.empty(n_keys, dtype=bool)
        # the 6 per-cut rows of _cut_gains, laid end to end at the front,
        # so a pass touches only as many pages as it scores cuts
        self.cuts = np.empty(6 * n_keys)


def _level_splits(ranks, values, labels, rows, weight, owner, counts,
                  per_split, draws, work):
    """Best split of every open node of one level, in one array pass.

    ``rows`` are the distinct samples of the open nodes, ``weight`` how
    often each was drawn, ``owner`` the open node of each and ``counts``
    the class counts of the open nodes, every draw counted.  Row i of
    ``draws`` (open nodes, features) picks open node i's features: the
    first ``per_split`` of its stable argsort, sorted.  Each (drawn
    feature, row) pair becomes one key,
    ``((segment * n_ranks + value rank) << bits | class) << wbits | weight``,
    with one segment per (open node, drawn feature) in that order, so one
    sort lays every segment out by value.  The keys are int32 when
    ``(segments * n_ranks) << (bits + wbits)`` is below ``_INT32_KEYS``,
    else int64.  A node takes the first maximum gain in key order (lowest
    feature, then lowest threshold) over the cuts between distinct values,
    and splits at the midpoint of the values either side.  The keys, their
    split into segment rank, class and weight, and the per-cut counts and
    gains are slices of ``work``.

    Only class-boundary cuts are scored: those with a different class on
    either side, or a value of two classes next to them.  Along a run of
    single-class values the gain is strictly convex in the number of
    samples sent left, so a cut inside the run is never a node's maximum
    (Fayyad & Irani, Machine Learning 8, 1992), and the winner is the one
    a search over every cut finds.

    Returns the open nodes that split, ascending, with each one's feature,
    the value rank at or below which a sample goes left, and threshold; or
    None when no node has a cut.
    """
    n_open, n_classes = counts.shape
    n_ranks = values.shape[1]
    n_samples = ranks.shape[1]
    size = counts.sum(axis=1)
    # the running sums of _cut_gains hold the pass's total weight in 31 bits
    assert per_split * int(size.sum()) < 1 << 31
    drawn = np.argsort(draws, axis=1, kind="stable")[:, :per_split]
    drawn.sort(axis=1)
    drawn = drawn.T.copy()  # (per_split, n_open)
    bits = (n_classes - 1).bit_length()
    wbits = int(weight.max()).bit_length()
    shift = bits + wbits
    narrow = (n_open * per_split * n_ranks) << shift < _INT32_KEYS
    width = np.int32 if narrow else np.int64
    n_keys = per_split * rows.size
    # where each key's value rank sits in ranks; the indices are in range,
    # and a mode other than "raise" writes straight to out instead of to a
    # copy
    flat = np.take(drawn * n_samples, owner, axis=1, mode="clip",
                   out=work.key[:n_keys].reshape(per_split, rows.size))
    flat += rows
    rank = ranks.take(flat, mode="clip",
                      out=work.running[:n_keys].reshape(per_split, rows.size))
    # the keys take the place of the indices, then their segment ranks do
    key = work.key.view(width)[:n_keys]
    key2d = key.reshape(per_split, rows.size)
    np.add(rank, (np.arange(per_split) * n_ranks)[:, None], out=key2d)
    key2d += owner * (per_split * n_ranks)
    key2d <<= shift
    key2d |= (labels[rows] << wbits) | weight
    key.sort()
    cls = np.right_shift(key, wbits, out=work.cls[:n_keys])
    cls &= (1 << bits) - 1
    w = np.bitwise_and(key, (1 << wbits) - 1, out=work.weight[:n_keys])
    seg_rank = np.right_shift(key, shift, out=key)  # segment * n_ranks + rank

    # value groups: equal keys but for the class and weight, which order
    # each group.  The cut after sorted element i is scored if a group ends
    # at i and the class changes at i or inside either group next to it.
    edge = np.not_equal(seg_rank[1:], seg_rank[:-1],
                        out=work.edge[:n_keys - 1])
    keep = np.not_equal(cls[1:], cls[:-1], out=work.keep[:n_keys - 1])
    inner = seg_rank[np.flatnonzero(keep > edge)]  # a group of two classes
    before = np.searchsorted(seg_rank, inner) - 1
    end = np.searchsorted(seg_rank, inner, side="right") - 1
    keep[before[before >= 0]] = True
    keep[end[end < n_keys - 1]] = True
    keep &= edge
    # a segment holds its node's distinct rows
    seg_start = np.concatenate(([0], np.cumsum(np.repeat(
        np.bincount(owner, minlength=n_open), per_split))))
    keep[seg_start[1:-1] - 1] = False  # no cut across segments
    cut = np.flatnonzero(keep)  # between sorted elements cut, cut+1
    if cut.size == 0:  # every drawn feature is constant in every node
        return None
    # intp once per pass: np.take copies narrower indices on every call
    seg = (seg_rank[cut] // n_ranks).astype(np.intp)
    at = seg // per_split  # open node of each cut
    gains = _cut_gains(cls, w, cut, seg_start[seg], at, counts, work)

    # each node's first maximum; a node without a cut does not split
    group = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
    best = np.maximum.reduceat(gains, group)
    hit = np.flatnonzero(gains == np.repeat(best, np.diff(
        np.append(group, cut.size))))
    win = hit[np.concatenate(([True], at[hit[1:]] != at[hit[:-1]]))]
    c = cut[win]
    f = drawn[seg[win] % per_split, at[win]]
    lo = seg_rank[c] % n_ranks
    x_lo, x_hi = values[f, lo], values[f, seg_rank[c + 1] % n_ranks]
    thr = (x_lo + x_hi) / 2.0
    thr = np.where(thr >= x_hi, x_lo, thr)  # adjacent floats round up
    return at[win], f, lo, thr


def _grow_trees(ranks, values, labels, rows, weights, max_depth,
                min_samples_split, per_split, rngs, n_classes, work) -> tuple:
    """Grow a group of trees level by level, one split pass per level.

    Tree t takes the distinct training rows ``rows[t]``, row ``rows[t][i]``
    drawn ``weights[t][i]`` times (a bootstrap sample repeats some), and
    generator ``rngs[t]``; a node's sample and class counts count every
    draw.  A node is open while it holds at least ``min_samples_split``
    samples, not all of one class, fewer than ``max_depth`` levels below
    the root.  Each level, every tree with an open node draws
    ``rng.random((its open nodes, features))``, and one ``_level_splits``
    call splits the open nodes of every tree.  Nodes are numbered level by
    level across the group, tree by tree within a level, then each tree's
    are renumbered to pre-order, left child first.  Returns the group's
    node table and the first node of each tree followed by the node count.
    """
    n_trees = len(rngs)
    n_features, n_samples = ranks.shape
    # each split leaves at least one distinct row on either side; a node is
    # filled in as a leaf when it is made, so the pages of nodes never made
    # stay untouched
    cap = sum(2 * r.size - 1 for r in rows)
    feature = np.empty(cap, dtype=np.intp)
    threshold = np.empty(cap)
    left = np.empty(cap, dtype=np.intp)
    right = np.empty(cap, dtype=np.intp)
    counts = np.empty((cap, n_classes), dtype=np.int64)
    tree = np.empty(cap, dtype=np.intp)  # the tree of each node

    def make_leaves(lo, hi, trees):  # each leaf its own child
        feature[lo:hi] = -1
        threshold[lo:hi] = math.nan
        left[lo:hi] = right[lo:hi] = np.arange(lo, hi)
        tree[lo:hi] = trees

    def class_counts(node, n_nodes):  # weighted, so exact float64 integers
        return np.bincount(node * n_classes + labels[rows], weights=weight,
                           minlength=n_nodes * n_classes).reshape(-1, n_classes)

    make_leaves(0, n_trees, np.arange(n_trees))
    # the node of each row still in play, numbered from its level's first
    node = np.repeat(np.arange(n_trees), [r.size for r in rows])
    rows, weight = np.concatenate(rows), np.concatenate(weights)
    counts[:n_trees] = class_counts(node, n_trees)
    levels = []  # the split nodes of each level
    first, n_nodes, depth = 0, n_trees, 0
    while max_depth is None or depth < max_depth:
        level_counts = counts[first:n_nodes]
        size = level_counts.sum(axis=1)
        is_open = (size >= min_samples_split) & (level_counts.max(axis=1) < size)
        n_open = int(np.count_nonzero(is_open))
        if n_open == 0:
            break
        per_tree = np.bincount(tree[first:n_nodes][is_open], minlength=n_trees)
        draws = np.concatenate([rng.random((k, n_features))
                                for rng, k in zip(rngs, per_tree) if k])
        slot = np.full(n_nodes - first, -1)
        slot[is_open] = np.arange(n_open)
        owner = slot[node]
        keep = owner >= 0
        rows, weight, owner = rows[keep], weight[keep], owner[keep]
        found = _level_splits(ranks, values, labels, rows, weight, owner,
                              level_counts[is_open], per_split, draws, work)
        if found is None:
            break
        won, f, lo, thr = found

        split = first + np.flatnonzero(is_open)[won]
        n_split = split.size
        feature[split], threshold[split] = f, thr
        left[split] = n_nodes + 2 * np.arange(n_split)
        right[split] = left[split] + 1
        make_leaves(n_nodes, n_nodes + 2 * n_split, np.repeat(tree[split], 2))
        levels.append(split)

        if n_split < n_open:  # some open node has no cut
            slot = np.full(n_open, -1)
            slot[won] = np.arange(n_split)
            owner = slot[owner]
            keep = owner >= 0
            rows, weight, owner = rows[keep], weight[keep], owner[keep]
        node = 2 * owner + (ranks.take(f[owner] * n_samples + rows)
                            > lo[owner])
        counts[n_nodes:n_nodes + 2 * n_split] = class_counts(node, 2 * n_split)
        first, n_nodes, depth = n_nodes, n_nodes + 2 * n_split, depth + 1

    # renumber level order to pre-order within each tree, trees laid out
    # in order: a left child follows its parent, a right child follows its
    # parent and the left child's subtree
    subtree = np.ones(n_nodes, dtype=np.intp)
    for split in reversed(levels):
        subtree[split] += subtree[left[split]] + subtree[right[split]]
    pre = np.zeros(n_nodes, dtype=np.intp)
    for split in levels:
        pre[left[split]] = pre[split] + 1
        pre[right[split]] = pre[split] + 1 + subtree[left[split]]
    start = np.concatenate(([0], np.cumsum(subtree[:n_trees])))
    pre += start[tree[:n_nodes]]
    order = np.empty(n_nodes, dtype=np.intp)
    order[pre] = np.arange(n_nodes)
    return Tree(feature[order], threshold[order], pre[left[order]],
                pre[right[order]], counts[order]), start


@dataclass(frozen=True)
class ForestParams:
    """Forest hyperparameters; features_per_split None means ceil(sqrt(F))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be at least 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


# (tree, row) pairs that descend together in predict_proba: a chunk of rows
# takes max(1, _PREDICT_PAIRS // n_trees) of them, which bounds the
# descent's arrays whatever the row count
_PREDICT_PAIRS = 1 << 13

# levels the pairs of a chunk descend between two gathers of those still
# at a split node
_PREDICT_STEPS = 4


@dataclass
class RandomForestModel:
    """A forest whose nodes exist once, in one node table (see ``Tree``):
    tree t takes nodes ``start[t]`` to ``start[t + 1]``."""

    nodes: Tree = field(repr=False)
    start: np.ndarray = field(repr=False)
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
        """Mean over the trees of the class distribution of the leaf each
        row reaches, a row going left where its value is at most the
        threshold.

        Every (tree, row) pair of a chunk of rows descends at once, one
        gather per level, and every ``_PREDICT_STEPS`` levels the pairs
        still at a split node are gathered anew.  The leaves'
        distributions, looked up in one table of every node's class shares
        (`_class_shares`), are then summed in tree order, as one tree at a
        time sums them.
        """
        rows = np.atleast_2d(np.asarray(features, dtype=float))
        nodes, start = self.nodes, self.start
        n_rows, n_features = rows.shape
        # a pair's value is read from the rows laid end to end, where a
        # column beyond a row would read the next row
        if nodes.feature.max() >= n_features:
            raise ValueError(f"rows of {n_features} features; the forest "
                             f"splits on feature {nodes.feature.max()}")
        n_trees = start.size - 1
        is_split = nodes.feature >= 0
        # node i's next node is step[2 i] if the row's value is above the
        # threshold, else step[2 i + 1]; both entries of a leaf are the
        # leaf, whatever value its feature -1 reads
        step = np.column_stack((nodes.right, nodes.left)).ravel()
        shares = _class_shares(nodes.counts)[1]  # every node's distribution
        out = np.empty((n_rows, self.n_classes))
        chunk = max(1, _PREDICT_PAIRS // n_trees)
        for lo in range(0, n_rows, chunk):
            x = rows[lo:lo + chunk].ravel()
            m = min(chunk, n_rows - lo)
            if lo == 0 or m < chunk:
                # pair p is tree p // m and row p % m: its root, and where
                # its row starts in x
                roots = np.repeat(start[:-1], m)
                offset = np.tile(np.arange(m) * n_features, n_trees)
                open_roots = np.flatnonzero(is_split.take(roots))
            node, active = roots.copy(), open_roots
            while active.size:
                at, row = node.take(active), offset.take(active)
                for _ in range(_PREDICT_STEPS):
                    go_left = (x.take(row + nodes.feature.take(at))
                               <= nodes.threshold.take(at))
                    at *= 2
                    at += go_left
                    at = step.take(at)
                node[active] = at
                active = active[is_split.take(at)]
            leaf = shares.take(node, axis=0).reshape(n_trees, m, -1)
            np.cumsum(leaf, axis=0, out=leaf)
            np.divide(leaf[-1], n_trees, out=out[lo:lo + m])
        return out

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
    """Bagged CART ensemble, deterministic for a given seed.  The seed must
    be at least 0, as `model_from_text` requires of a saved model's.  The
    trees grow on every usable core (`parallel.fork_map`), and the model
    does not depend on how many there are."""
    if seed < 0:
        raise ValueError("seed must be at least 0")
    if dataset.n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    params = params or ForestParams()
    feats = dataset.features
    labels = dataset.labels
    n_classes = dataset.n_classes
    per_split = (params.features_per_split
                 or math.ceil(math.sqrt(dataset.n_features)))
    if per_split < 1:  # a table with no feature columns
        raise ValueError("features_per_split must be at least 1")
    # a node cannot draw more than n_features; a full draw is every
    # feature, whatever the rng state
    per_split = min(per_split, dataset.n_features)

    ranks, values = _value_ranks(feats)
    n = dataset.n

    def bootstrap(t):  # tree t's rows, their draw counts, its generator
        rng = np.random.default_rng(derive_seed(seed, t))
        if not params.bootstrap:
            return np.arange(n), np.ones(n, dtype=np.intp), rng
        drawn = np.bincount(rng.integers(0, n, n), minlength=n)
        rows = np.flatnonzero(drawn)
        return rows, drawn[rows], rng

    # a group's root level is its largest: per_split keys per distinct row.
    # A group takes trees while their keys fit in _GROUP_KEYS, and at least
    # one tree, which has at most n distinct rows.  A group is a range of
    # tree indices; whoever grows it draws its trees' bootstraps again
    groups, first, keys = [], 0, 0
    for t in range(params.n_trees):
        tree_keys = bootstrap(t)[0].size * per_split
        if t > first and keys + tree_keys > _GROUP_KEYS:
            groups.append(range(first, t))
            first, keys = t, 0
        keys += tree_keys
    groups.append(range(first, params.n_trees))

    def grow(trees):
        rows, weights, rngs = zip(*map(bootstrap, trees))
        return _grow_trees(ranks, values, labels, rows, weights,
                           params.max_depth, params.min_samples_split,
                           per_split, rngs, n_classes, work)

    work = _LevelWork(min(max(_GROUP_KEYS, n * per_split),
                          params.n_trees * n * per_split))
    # a tree is the same whatever group and process grows it
    tables = fork_map(grow, groups)

    # the level pass's arrays go before the groups' tables are laid out in
    # one node table, and the groups' tables after
    work = None
    nodes, start = _node_table(tables)
    tables = None
    model = RandomForestModel(
        nodes=nodes,
        start=start,
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

    Each split contributes (samples reaching node / samples at its root)
    times the Gini decrease it achieves; contributions are accumulated per
    feature within a tree, in node order, summed over the trees in tree
    order, averaged, then normalized.
    """
    nodes, start = model.nodes, model.start
    n_trees, n_features = start.size - 1, len(model.feature_names)
    n, _, gini = _class_shares(nodes.counts)
    split = np.flatnonzero(nodes.feature >= 0)
    tree = np.searchsorted(start, split, side="right") - 1
    root = start[tree]
    lo, hi = nodes.left[split], nodes.right[split]
    child_gini = (n[lo] * gini[lo] + n[hi] * gini[hi]) / n[split]
    decrease = (n[split] / n[root]) * (gini[split] - child_gini)
    per_tree = np.bincount(tree * n_features + nodes.feature[split],
                           weights=decrease, minlength=n_trees * n_features)
    # float64 also when no tree splits, where bincount counts as int64
    total = np.cumsum(per_tree.reshape(n_trees, n_features), axis=0,
                      dtype=np.float64)[-1]
    total /= n_trees
    s = total.sum()
    if s == 0:
        raise NoSplitsError("no split in any tree; importances undefined")
    return total / s


# --- kNN and logistic regression ---------------------------------------------

# multiply-adds in one query block's matrix product.  OpenBLAS 0.3 runs a
# product of up to about 10^6 on the calling thread, so kNN stays on one
# core while blocks hold two rows or more.
_KNN_BLOCK_MADDS = 1 << 19


@dataclass
class KnnModel:
    features_std: np.ndarray
    labels: np.ndarray
    k: int
    stats: FeatureStats
    label_names: tuple

    def predict(self, features) -> np.ndarray:
        """Majority vote of the k nearest; ties go to the lowest label.

        The k nearest are the first k training rows in (squared distance,
        index) order, as a stable sort of ``sum((x - q)**2)`` puts them.
        Queries go in blocks of ``_KNN_BLOCK_MADDS // x.size`` rows.  A
        block's matrix product gives each distance less ``|q|^2`` as
        ``|x|^2 - 2 q.x``, within ``delta`` of the exact one; a training row
        can be among a query's k nearest only if that is at most the
        query's k-th smallest plus ``2 delta``.  The exact distances of
        those rows alone then decide.
        """
        rows = np.atleast_2d(self.stats.standardize(features))
        x = self.features_std
        n_train, n_features = x.shape
        n_classes = len(self.label_names)
        k = self.k
        xt = np.ascontiguousarray(x.T)
        x_sq = np.einsum("ij,ij->i", x, x)
        # |approx - exact| <= 2 (F + 2) u (|q| + max|x|)^2 for unit roundoff
        # u and any summation order (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., ch. 3); the eps = 2u below doubles
        # it to cover the rounding of the bound and of the shortlist limit,
        # and tiny covers underflow
        scale = 2 * (n_features + 2) * np.finfo(float).eps
        reach = np.sqrt(x_sq.max())
        out = np.empty(rows.shape[0], dtype=int)
        block = max(1, _KNN_BLOCK_MADDS // x.size)
        approx = np.empty((min(block, rows.shape[0]), n_train))
        for lo in range(0, rows.shape[0], block):
            q = rows[lo:lo + block]
            b = q.shape[0]
            a = np.matmul(-2.0 * q, xt, out=approx[:b])
            a += x_sq
            kth = np.partition(a, k - 1, axis=1)[:, k - 1]
            delta = (scale * (np.sqrt(np.einsum("ij,ij->i", q, q)) + reach)**2
                     + np.finfo(float).tiny)
            # the negation also shortlists NaNs, for the exact pass to order
            r, j = np.divmod(np.flatnonzero(
                ~(a > (kth + 2 * delta)[:, None])), n_train)
            d2 = np.sum(np.square(x[j] - q[r]), axis=1)
            order = np.lexsort((d2, r))  # r, j ascending already
            per_row = np.bincount(r, minlength=b)
            start = np.cumsum(per_row) - per_row
            near = order[np.arange(order.size) - start[r] < k]
            votes = np.bincount(r[near] * n_classes + self.labels[j[near]],
                                minlength=b * n_classes)
            out[lo:lo + b] = np.argmax(votes.reshape(b, n_classes), axis=1)
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss(weights, bias, features_std, labels01, l2):
    """L2-penalized mean cross-entropy (bias unpenalized), the objective
    `logistic_regression_train` minimizes."""
    z = np.einsum("ij,j->i", features_std, weights) + bias
    # log(1 + exp(-|z|)) + max(z,0) - z*y, numerically stable
    loss = np.mean(np.logaddexp(0.0, z) - labels01 * z)
    return float(loss + 0.5 * l2 * np.einsum("i,i->", weights, weights))


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    stats: FeatureStats
    label_names: tuple

    def predict_proba(self, features) -> np.ndarray:
        z = np.atleast_2d(self.stats.standardize(features)) @ self.weights
        p1 = _sigmoid(z + self.bias)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)


# the Newton fit ends once a step's largest component (in z-score units)
# falls below this
_NEWTON_TOL = 1e-10


def logistic_regression_train(dataset: LabeledFeatureSet,
                              l2: float = 1e-4) -> LogisticModel:
    """Minimize `logistic_loss` on z-scored features, binary labels, by
    Newton's method (iteratively reweighted least squares; Hastie,
    Tibshirani & Friedman, *The Elements of Statistical Learning*, 2nd ed.,
    4.4.1).

    The fit starts from zero.  Each step solves (Hessian) step = gradient
    and is halved until it lowers the loss; the fit ends when a step's
    largest component falls below `_NEWTON_TOL`, when no halving down to
    that lowers the loss, or when a step is not finite.  The loss falls at
    every step taken, and a float takes finitely many values, so the fit
    ends.  ``l2 > 0`` keeps the optimum finite on separable data.  An
    ``l2`` so small that every row's probability rounds to 0 or 1 near the
    optimum (below about 1e-17, on separable data) can leave the Hessian
    singular; the fit then ends at the last point taken.
    """
    if not (math.isfinite(l2) and l2 > 0):
        raise ValueError(f"l2 must be finite and above 0, got {l2}")
    if dataset.n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if dataset.n_classes != 2:
        raise SingleClassError("logistic regression needs exactly 2 classes")
    stats = FeatureStats.from_features(dataset.features)
    z, y = stats.standardize(dataset.features), dataset.labels
    # the design matrix, transposed: one row per weight and one of ones
    xt = np.vstack([z.T, np.ones(y.size)])
    penalty = np.append(np.full(z.shape[1], l2), 0.0)  # bias unpenalized
    # the first pass takes the zero step from an infinite loss: the start
    theta, step, loss = np.zeros(penalty.size), np.zeros(penalty.size), np.inf
    while loss == np.inf or _NEWTON_TOL <= np.max(np.abs(step)) < np.inf:
        trial = theta - step
        trial_loss = logistic_loss(trial[:-1], trial[-1], z, y, l2)
        if trial_loss < loss:
            theta, loss = trial, trial_loss
            p = _sigmoid(np.einsum("ji,j->i", xt, theta))
            grad = np.einsum("ji,i->j", xt, p - y) / y.size + penalty * theta
            hess = np.einsum("ji,ki->jk", xt * (p * (1.0 - p)), xt) / y.size
            try:
                step = np.linalg.solve(hess + np.diag(penalty), grad)
            except np.linalg.LinAlgError:  # a singular Hessian ends the fit
                break
        else:
            step /= 2
    return LogisticModel(weights=theta[:-1], bias=float(theta[-1]),
                         stats=stats, label_names=tuple(dataset.label_names))


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
    fold = np.full(dataset.n, -1)
    for cls in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(idx)
        fold[idx] = np.arange(idx.size) % k
    return [np.flatnonzero(fold == i) for i in range(k)]


@dataclass
class CVResult:
    fold_accuracies: list
    mean_accuracy: float
    confusion: np.ndarray  # rows true class, columns predicted


def cross_validate(dataset: LabeledFeatureSet, trainers, k: int,
                   seed: int) -> list:
    """Stratified k-fold CV of each ``trainer(train_set, fold_seed) ->
    model``, one `CVResult` per trainer.

    Fold i's fit takes the seed ``derive_seed(seed, i + 1)``.  The fits are
    one job table, fold-major (fold 0 of every trainer, then fold 1, ...),
    mapped by `parallel.fork_map`: its contiguous shares give each of 2
    cores half the folds of every trainer, whatever a fit costs.  A forest
    fit in a job grows its trees serially.  A job returns only its fold's
    predictions, so a process holds one model at a time, and no result
    depends on the number of cores.  A job returns a fit's exception
    instead of raising it; the first in trainer-then-fold order is raised,
    as a loop over the trainers, then the folds, would raise it."""
    folds = stratified_kfold(dataset, k, seed)
    trainers = list(trainers)

    def fit_and_predict(job):  # the held-out fold's predictions
        i, t = job
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        train_set = LabeledFeatureSet(
            features=dataset.features[train_idx],
            labels=dataset.labels[train_idx],
            label_names=dataset.label_names,
            feature_names=dataset.feature_names,
        )
        try:
            model = trainers[t](train_set, derive_seed(seed, i + 1))
            return model.predict(dataset.features[folds[i]])
        except Exception as exc:  # raised below, in the loop's order
            return exc

    jobs = [(i, t) for i in range(k) for t in range(len(trainers))]
    predictions = dict(zip(jobs, fork_map(fit_and_predict, jobs)))
    n_classes = dataset.n_classes
    results = []
    for t in range(len(trainers)):
        confusion = np.zeros((n_classes, n_classes), dtype=int)
        accuracies = []
        for i, test_idx in enumerate(folds):
            predicted = predictions[i, t]
            if isinstance(predicted, Exception):
                raise predicted
            truth = dataset.labels[test_idx]
            accuracies.append(float(np.mean(predicted == truth)))
            np.add.at(confusion, (truth, predicted), 1)
        results.append(CVResult(
            fold_accuracies=accuracies,
            mean_accuracy=float(np.mean(accuracies)),
            confusion=confusion,
        ))
    return results


def evaluate(dataset: LabeledFeatureSet, trainer, k: int, seed: int) -> CVResult:
    """Stratified k-fold CV of ``trainer(train_set, fold_seed) -> model``,
    `cross_validate` of one trainer.

    A process drops each fold's model and training set before its next
    fit, so two models are never alive together in one process."""
    return cross_validate(dataset, [trainer], k, seed)[0]


@dataclass
class HyperparamGrid:
    """Candidate values for the forest search (values per D-defaults)."""

    n_trees: tuple = (50, 100, 200)
    max_depth: tuple = (4, 8, 16, None)
    min_samples_split: tuple = (2, 5, 10)
    features_per_split: tuple = (2, 3, 4)
    iterations: int = 40

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one search iteration")

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
    comparable, and every combination's fits form one `cross_validate`
    job table.
    """
    combos = grid.combinations()
    if not combos:
        raise ValueError("empty hyperparameter grid")
    n_eval = min(grid.iterations, len(combos))
    rng = np.random.default_rng(derive_seed(seed, 0xC0))
    chosen = [combos[int(pos)] for pos in
              rng.choice(len(combos), size=n_eval, replace=False)]
    results = cross_validate(
        dataset,
        [lambda ds, s, p=params: train_forest(ds, p, s) for params in chosen],
        k,
        seed,
    )
    best = None
    for params, result in zip(chosen, results):
        if best is None or result.mean_accuracy > best[1].mean_accuracy:
            best = (params, result)
    return best


# --- serialization -----------------------------------------------------------

MODEL_FORMAT_HEADER = "radiofp-model v1"


def model_to_text(model: RandomForestModel) -> str:
    """Versioned plain-text serialization sufficient for bit-exact reload.

    The node lines of the whole table are formatted a column at a time,
    node and child ids counted from their tree's root as the file numbers
    them, and each tree's lines follow its ``tree <t> <n_nodes>`` line.
    """
    meta = {
        "label_names": list(model.label_names),
        "feature_names": list(model.feature_names),
        "seed": model.seed,
        "params": asdict(model.params),
        "importances": (None if model.importances is None
                        else list(model.importances)),
    }
    nodes, start = model.nodes, model.start
    size = np.diff(start)
    lines = [MODEL_FORMAT_HEADER, f"kind {model.kind}",
             "meta " + json.dumps(meta), f"trees {size.size}"]
    # ids are looked up in a table of their decimals, faster than str()
    decimal = list(map(str, range(max(int(size.max()),
                                      int(nodes.feature.max()) + 1))))

    def decimals(ids):
        return map(decimal.__getitem__, ids.tolist())

    root = np.repeat(start[:-1], size)  # the root of each node's tree
    nid = np.arange(root.size) - root
    split = nodes.feature >= 0
    base = root[split]
    node_lines = np.empty(root.size, dtype=object)
    node_lines[split] = list(map(" ".join, zip(
        decimals(nid[split]), itertools.repeat("split"),
        decimals(nodes.feature[split]),
        map(repr, nodes.threshold[split].tolist()),
        decimals(nodes.left[split] - base),
        decimals(nodes.right[split] - base))))
    node_lines[~split] = list(map(" ".join, zip(
        decimals(nid[~split]), itertools.repeat("leaf"),
        *(map(str, column) for column in nodes.counts[~split].T.tolist()))))
    lines += np.insert(node_lines, start[:-1], [
        f"tree {t} {n}" for t, n in enumerate(size.tolist())]).tolist()
    lines.append("")  # the final newline, without a copy of the text
    return "\n".join(lines)


def _read_numbers(tokens, read, missing) -> np.ndarray:
    """``tokens`` read by ``read`` into an array of the type of ``missing``,
    a token that ``read`` rejects or the type cannot hold reading as
    ``missing``.  A column is read whole; only one that fails is read token
    by token."""
    dtype = type(missing)
    try:
        return np.array(list(map(read, tokens)), dtype=dtype)
    except (OverflowError, ValueError):
        pass

    def one(token):
        try:
            return dtype(read(token))
        except (OverflowError, ValueError):
            return missing

    return np.array(list(map(one, tokens)), dtype=dtype)


# the kind code of a node line
_KINDS = {"leaf": 1, "split": 2}

# the types a model file's JSON gives each ForestParams annotation
_JSON_TYPES = {"int": (int,), "int | None": (int, type(None)),
               "bool": (bool,)}


def _read_tree(lines: list, head: int, t: int, n_classes: int,
               n_features: int, ids: list) -> Tree:
    """Tree t from its node lines, which follow line ``head`` of the file,
    as a one-tree node table, split-node counts 0.

    Each line is split once and the lines are read a column at a time.
    Each rule pairs the lines that break it with its message; the first
    line that breaks one raises the message of the first rule it breaks.
    A token that int or float rejects, or an integer beyond int64, reads as
    a value its field's rule rejects: -1, or NaN for a threshold.  ``ids``
    holds str(i) for every node id i of the tree, and more.
    """
    n = len(lines)
    parts = list(map(str.split, lines))
    width = np.fromiter(map(len, parts), dtype=np.intp, count=n)
    if width.min() < 2:  # such a line names no node
        parts = [fields if len(fields) > 1 else ["", ""] for fields in parts]
    heads = list(map(itemgetter(0), parts))
    named = heads == ids[:n] or np.array(list(map(str.__eq__, heads, ids)))
    kind = np.fromiter(map(_KINDS.get, map(itemgetter(1), parts),
                           itertools.repeat(0)), dtype=np.int8, count=n)
    is_leaf = named & (kind == 1)
    is_split = named & (kind == 2) & (width == 6)
    leaf = np.flatnonzero(is_leaf & (width == 2 + n_classes))
    split = np.flatnonzero(is_split)

    def columns(rows, n_columns):  # the fields after the kind of some lines
        return (list(zip(*map(parts.__getitem__, rows.tolist())))[2:]
                or [()] * n_columns)

    counts = np.array([_read_numbers(column, int, np.int64(-1))
                       for column in columns(leaf, n_classes)],
                      dtype=np.int64).reshape(n_classes, leaf.size).T
    f, thr, lo, hi = map(_read_numbers, columns(split, 4),
                         (int, float, int, int),
                         (np.int64(-1), np.float64(math.nan), np.int64(-1),
                          np.int64(-1)))
    rules = (
        (np.flatnonzero(~(is_leaf | is_split)),
         "expected '{i} leaf ...' or '{i} split ...'"),
        (np.concatenate((
            np.flatnonzero(is_leaf & (width != 2 + n_classes)),
            leaf[np.any(counts < 0, axis=1) | ~np.any(counts, axis=1)])),
         "a leaf needs {n_classes} non-negative counts, not all zero"),
        (split[(f < 0) | (f >= n_features)],
         "feature {fields[2]} out of range"),
        (split[(np.minimum(lo, hi) <= split) | (np.maximum(lo, hi) >= n)],
         "child ids must lie in ({i}, {n})"),
        # training writes finite midpoints only
        (split[~np.isfinite(thr)], "threshold {fields[3]} is not finite"),
    )
    broken = [(int(rows.min()), k) for k, (rows, _) in enumerate(rules)
              if rows.size]
    if broken:
        i, k = min(broken)
        raise DataFormatError(f"line {head + 1 + i}: node {i}: " + rules[k][1]
                              .format(i=i, n=n, n_classes=n_classes,
                                      fields=parts[i]))
    if not np.array_equal(np.sort(np.concatenate((lo, hi))), np.arange(1, n)):
        raise DataFormatError(f"line {head + 1}: some node other than the "
                              "root is not the child of exactly one node")
    # every node's counts, and their sums, then fit in int64
    if sum(counts.ravel().tolist()) >> 63:
        raise DataFormatError(f"line {head}: tree {t}: the leaf counts sum "
                              "to 2^63 or more")
    tree = Tree(np.full(n, -1, dtype=np.int64), np.full(n, math.nan),
                np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64),
                np.zeros((n, n_classes), dtype=np.int64))
    tree.feature[split], tree.threshold[split] = f, thr
    tree.left[split], tree.right[split] = lo, hi
    tree.counts[leaf] = counts
    return tree


def _sum_split_counts(nodes: Tree, start) -> None:
    """Set the class counts of every split node of a node table to the sum
    of its children's, children first: the split nodes of each depth,
    across every tree, in one round."""
    node = start[:-1]  # the roots
    levels = []
    while node.size:
        node = node[nodes.feature[node] >= 0]
        lo, hi = nodes.left[node], nodes.right[node]
        levels.append((node, lo, hi))
        node = np.concatenate((lo, hi))
    for node, lo, hi in reversed(levels):
        nodes.counts[node] = nodes.counts[lo] + nodes.counts[hi]


def model_from_text(text: str) -> RandomForestModel:
    """Parse a model file; any malformed content raises DataFormatError.

    The kind is forest or tree, with at least one tree; label and feature
    names are JSON lists of distinct strings, importances null or one
    finite number per feature, the seed a non-negative integer, and params
    an object of exactly the ForestParams fields that meets their types and
    minimums, its n_trees the file's tree count.  A tree's node ids run
    0..n_nodes-1 in order, each child id lies above its parent's, every
    node but the root has exactly one parent, split thresholds are finite,
    and a tree's leaf counts sum to less than 2^63.  The trees are read one
    at a time, so the first malformed line in the file raises; their ids
    then move into the one node table.
    """
    lines = text.splitlines()
    try:
        if not lines or lines[0] != MODEL_FORMAT_HEADER:
            raise DataFormatError("not a radiofp model file")
        keyed = [line.partition(" ") for line in lines[1:4]]
        if [key for key, _, _ in keyed] != ["kind", "meta", "trees"]:
            raise DataFormatError("expected 'kind', 'meta', 'trees' lines")
        (_, _, kind), (_, _, meta_text), (_, _, trees_text) = keyed
        meta = json.loads(meta_text)
        n_trees = int(_read_numbers([trees_text], int, np.int64(0))[0])
        if kind not in ("forest", "tree") or n_trees < 1:
            raise DataFormatError(f"kind {kind!r}, trees {trees_text}: need "
                                  "kind forest or tree and at least 1 tree")
        for key in ("label_names", "feature_names"):
            names = meta[key]
            if not (isinstance(names, list)
                    and all(isinstance(name, str) for name in names)):
                raise DataFormatError(f"{key} must be a JSON list of strings")
            if len(set(names)) != len(names):
                raise DataFormatError(f"{key} repeat a name: {names}")
        n_classes = len(meta["label_names"])
        n_features = len(meta["feature_names"])
        importances = meta["importances"]
        if importances is not None and not (
                isinstance(importances, list)
                and len(importances) == n_features
                and all(type(v) in (int, float) for v in importances)
                and np.isfinite(_read_numbers(importances, float,
                                              np.float64(math.nan))).all()):
            raise DataFormatError("importances must be null or one finite "
                                  f"number per feature ({n_features})")
        seed, params = meta["seed"], meta["params"]
        if type(seed) is not int or seed < 0:  # a bool is no int here
            raise DataFormatError("seed must be a non-negative JSON integer")
        # ForestParams' annotations are strings, as this module postpones
        # their evaluation
        spec = {f.name: f.type for f in fields(ForestParams)}
        if not (isinstance(params, dict) and params.keys() == spec.keys()
                and all(type(params[name]) in _JSON_TYPES[annotation]
                        for name, annotation in spec.items())):
            raise DataFormatError("params must be {" + ", ".join(
                f'"{name}": {annotation}' for name, annotation in spec.items())
                + "}")
        params = ForestParams(**params)  # its minimums
        if params.n_trees != n_trees:
            raise DataFormatError(f"params n_trees {params.n_trees} is not "
                                  f"the file's {n_trees} trees")
        tables, pos, ids = [], 4, []
        for t in range(n_trees):
            head = lines[pos].split() if pos < len(lines) else []
            size = (int(_read_numbers(head[2:], int, np.int64(0))[0])
                    if len(head) == 3 and head[:2] == ["tree", str(t)] else 0)
            if size < 1:
                raise DataFormatError(
                    f"line {pos + 1}: expected 'tree {t} <n_nodes>'")
            body = lines[pos + 1:pos + 1 + size]
            if len(body) != size:
                raise DataFormatError(f"tree {t}: expected {head[2]} "
                                      f"node lines, found {len(body)}")
            ids.extend(map(str, range(len(ids), size)))
            tables.append((_read_tree(body, pos + 1, t, n_classes,
                                      n_features, ids), (0, size)))
            pos += 1 + size
        if pos != len(lines):
            raise DataFormatError(f"line {pos + 1}: text after the last tree")
        del lines  # before the node table is made
        nodes, start = _node_table(tables)
        _sum_split_counts(nodes, start)
        return RandomForestModel(
            nodes=nodes,
            start=start,
            label_names=tuple(meta["label_names"]),
            feature_names=tuple(meta["feature_names"]),
            params=params,
            seed=seed,
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
