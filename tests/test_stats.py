import numpy as np
import pytest

from radiofp import stats
from radiofp.dataset import LabeledFeatureSet
from radiofp.errors import (
    ConstantInputError,
    EmptyInputError,
    SingleClassError,
)

from oracles import oracle_p_value


def make_set(features, labels, names=None):
    features = np.asarray(features, dtype=float)
    if names is None:
        names = tuple(f"P{i+1}" for i in range(features.shape[1]))
    return LabeledFeatureSet.from_rows(labels, features, names)


def test_pearson_examples():
    assert stats.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert stats.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert stats.pearson([1, 2, 3, 4], [0, 0, 1, 1]) == pytest.approx(
        0.8944, abs=1e-4
    )


def test_pearson_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        r = stats.pearson(x, y)
        assert stats.pearson(y, x) == pytest.approx(r, abs=1e-13)
        assert stats.pearson(2.5 * x + 3, y) == pytest.approx(r, abs=1e-10)
        assert stats.pearson(-x, y) == pytest.approx(-r, abs=1e-13)
        assert -1.0 <= r <= 1.0


def test_pearson_constant_input():
    with pytest.raises(ConstantInputError):
        stats.pearson([1, 1, 1], [1, 2, 3])


def test_point_biserial_examples():
    assert stats.point_biserial([1, 2, 3, 4], [0, 0, 1, 1]) == pytest.approx(
        0.8944, abs=1e-4
    )
    # identical per-class distribution: M1 = M0 -> 0
    assert stats.point_biserial([5, 7, 5, 7], [0, 0, 1, 1]) == pytest.approx(
        0.0, abs=1e-14
    )
    with pytest.raises(SingleClassError):
        stats.point_biserial([1, 2, 3], [1, 1, 1])


def test_point_biserial_equals_pearson():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        x = rng.normal(size=n)
        assert stats.point_biserial(x, labels) == pytest.approx(
            stats.pearson(x, labels.astype(float)), abs=1e-12
        )


def test_p_value_exact_cases():
    for n in (3, 10, 30000):
        assert stats.p_value_two_sided(0.0, n) == 1.0
    assert stats.p_value_two_sided(1.0, 10) == 0.0
    assert stats.p_value_two_sided(-1.0, 10) == 0.0
    with pytest.raises(ValueError):
        stats.p_value_two_sided(1.5, 10)
    with pytest.raises(ValueError):
        stats.p_value_two_sided(0.5, 2)


def test_p_value_against_quadrature_oracle():
    assert stats.p_value_two_sided(0.5, 27) == pytest.approx(0.0079, abs=1e-3)
    for r, n in [(0.5, 27), (0.1, 12), (0.9, 5), (0.02, 5000), (0.3, 100)]:
        assert stats.p_value_two_sided(r, n) == pytest.approx(
            oracle_p_value(r, n), abs=1e-8
        )
        assert stats.p_value_two_sided(-r, n) == stats.p_value_two_sided(r, n)


def test_p_value_published_anchor_points():
    # coefficient/p-value pairs reported for the 30000-row capture dataset
    assert stats.p_value_two_sided(0.0053, 30000) == pytest.approx(
        0.3602, abs=0.02
    )
    assert stats.p_value_two_sided(-0.0173, 30000) == pytest.approx(
        0.0027, abs=5e-4
    )
    assert stats.p_value_two_sided(-0.0163, 30000) == pytest.approx(
        0.0047, abs=5e-4
    )
    assert stats.p_value_two_sided(-0.0179, 30000) == pytest.approx(
        0.002, abs=5e-4
    )
    assert stats.p_value_two_sided(0.3025, 30000) == pytest.approx(0.0, abs=1e-12)


def test_p_value_monotonicity():
    # lattice kept inside the range where the tail stays representable,
    # so strict float comparisons are meaningful
    rs = np.linspace(0.01, 0.6, 20)
    ns = np.unique(np.logspace(np.log10(4), np.log10(1200), 20).astype(int))
    for n in ns:
        ps = [stats.p_value_two_sided(r, int(n)) for r in rs]
        assert all(a > b for a, b in zip(ps, ps[1:]))
    for r in rs:
        ps = [stats.p_value_two_sided(float(r), int(n)) for n in ns]
        assert all(a > b for a, b in zip(ps, ps[1:]))


def test_histogram_examples():
    edges, counts = stats.histogram([0, 1, 2, 3], bins=2)
    np.testing.assert_array_equal(counts, [2, 2])
    edges, counts = stats.histogram([7.5] * 11, bins=4)
    assert counts.sum() == 11
    assert (counts > 0).sum() == 1
    with pytest.raises(EmptyInputError):
        stats.histogram([], bins=3)


def test_histogram_conservation_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=rng.integers(1, 500))
        bins = int(rng.integers(1, 60))
        edges, counts = stats.histogram(x, bins)
        assert counts.sum() == x.size
        assert np.all(np.diff(edges) > 0)


def test_pearson_matrix_duplicated_column():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(50, 10))
    feats[:, 4] = feats[:, 0]  # P5 duplicates P1
    ds = make_set(feats, rng.integers(0, 2, size=50))
    mat = stats.pearson_matrix(ds)
    assert mat[0, 4] == pytest.approx(1.0)
    np.testing.assert_array_equal(mat, mat.T)
    np.testing.assert_allclose(np.diag(mat), 1.0)
    assert not np.isnan(mat).any()


def test_pearson_matrix_constant_column_marked_undefined():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(30, 10))
    feats[:, 6] = 2.0
    ds = make_set(feats, rng.integers(0, 2, size=30))
    mat = stats.pearson_matrix(ds)
    assert np.isnan(mat[6, 0])
    assert mat[6, 6] == 1.0  # self-correlation kept by convention


def test_significance_report_sorted_and_flagged():
    rng = np.random.default_rng(6)
    n = 400
    labels = rng.integers(0, 2, size=n)
    feats = rng.normal(size=(n, 10))
    feats[:, 2] = labels  # feature equal to label
    ds = make_set(feats, labels)
    rep = stats.significance_report(ds)
    assert rep.rows[0].feature == "P3"
    assert rep.rows[0].pbcc == pytest.approx(1.0)
    assert rep.rows[0].p_value == 0.0
    assert rep.rows[0].significant
    mags = [abs(r.pbcc) for r in rep.rows if r.pbcc is not None]
    assert mags == sorted(mags, reverse=True)


def test_significance_report_undefined_rows_last():
    rng = np.random.default_rng(7)
    n = 60
    labels = rng.integers(0, 2, size=n)
    feats = rng.normal(size=(n, 10))
    feats[:, 9] = -1.0
    ds = make_set(feats, labels)
    rep = stats.significance_report(ds)
    assert rep.rows[-1].feature == "P10"
    assert rep.rows[-1].pbcc is None
    assert rep.rows[-1].significant is None


def test_significance_report_single_class():
    feats = np.random.default_rng(8).normal(size=(10, 10))
    ds = make_set(feats, [1] * 10)
    with pytest.raises(SingleClassError):
        stats.significance_report(ds)


def test_significance_false_positive_rate_near_alpha():
    # random labels independent of features: ~5% of features flagged
    rng = np.random.default_rng(9)
    flags = 0
    total = 0
    for _ in range(60):
        n = 250
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        feats = rng.normal(size=(n, 10))
        rep = stats.significance_report(make_set(feats, labels))
        flags += len(rep.significant_features())
        total += 10
    rate = flags / total
    assert 0.02 < rate < 0.09
