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


def _betacf_reference(a, b, x):
    """`stats._betacf` before its Lentz step was written once, kept to
    show the loop computes the same bits."""
    fpmin, eps = 1e-300, 3e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


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


def test_pearson_against_labels_examples():
    assert stats.pearson([1, 2, 3, 4], [0, 0, 1, 1]) == pytest.approx(
        0.8944, abs=1e-4
    )
    # identical per-class distribution: M1 = M0 -> 0
    assert stats.pearson([5, 7, 5, 7], [0, 0, 1, 1]) == pytest.approx(
        0.0, abs=1e-14
    )
    with pytest.raises(ConstantInputError):
        stats.pearson([1, 2, 3], [1, 1, 1])


def test_pearson_against_labels_is_point_biserial():
    # ((M1 - M0) / s) * sqrt(n1*n0 / n^2), s the population std
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        x = rng.normal(size=n)
        ones = labels == 1
        n1 = int(ones.sum())
        pbcc = ((x[ones].mean() - x[~ones].mean()) / x.std()
                * np.sqrt(n1 * (n - n1) / n**2))
        assert stats.pearson(x, labels) == pytest.approx(pbcc, abs=1e-12)


def test_pearson_of_huge_columns():
    # each sum of squared deviations is finite at about +-1e100, their
    # product is not
    rng = np.random.default_rng(12)
    p1 = rng.choice([-1.0, 1.0], size=40) * 1e100 * rng.uniform(1, 2, 40)
    feats = np.column_stack([p1, 2 * p1, rng.normal(size=(40, 8))])
    ds = make_set(feats, np.arange(40) % 2)
    assert stats.pearson(feats[:, 0], feats[:, 1]) == pytest.approx(
        1.0, abs=1e-12)
    assert stats.pearson_matrix(ds)[0, 1] == pytest.approx(1.0, abs=1e-12)


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


def test_p_value_bitwise_equals_reference_betacf(monkeypatch):
    rs = np.concatenate([np.linspace(0.0, 0.999, 334), [1e-9, 1e-5, 0.9999],
                         np.random.default_rng(12).uniform(-1, 1, 200)])
    ns = [3, 4, 5, 7, 10, 30, 101, 1000, 4000, 30000, 123457, 200000]
    new = [stats.p_value_two_sided(float(r), n) for r in rs for n in ns]
    monkeypatch.setattr(stats, "_betacf", _betacf_reference)
    ref = [stats.p_value_two_sided(float(r), n) for r in rs for n in ns]
    assert np.array(new).tobytes() == np.array(ref).tobytes()


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
    assert rep[0].feature == "P3"
    assert rep[0].pbcc == pytest.approx(1.0)
    assert rep[0].p_value == 0.0
    assert rep[0].significant
    mags = [abs(r.pbcc) for r in rep if r.pbcc is not None]
    assert mags == sorted(mags, reverse=True)


def test_significance_report_undefined_rows_last():
    rng = np.random.default_rng(7)
    n = 60
    labels = rng.integers(0, 2, size=n)
    feats = rng.normal(size=(n, 10))
    feats[:, 9] = -1.0
    ds = make_set(feats, labels)
    rep = stats.significance_report(ds)
    assert rep[-1].feature == "P10"
    assert rep[-1].pbcc is None
    assert rep[-1].significant is None


def test_constant_column_of_rounding_mean_is_constant():
    # np.full(100, 0.1).std() is 2.8e-17, not 0: only max == min is exact
    rng = np.random.default_rng(10)
    labels = np.arange(100) % 2
    feats = rng.normal(size=(100, 10))
    feats[:, 0] = 0.1
    assert feats[:, 0].std() > 0
    with pytest.raises(ConstantInputError):
        stats.pearson(feats[:, 0], feats[:, 1])
    with pytest.raises(ConstantInputError):
        stats.pearson(feats[:, 1], feats[:, 0])
    with pytest.raises(ConstantInputError):
        stats.pearson(feats[:, 0], labels)
    ds = make_set(feats, labels)
    rep = stats.significance_report(ds)
    assert rep[-1] == stats.FeatureSignificance("P1", None, None, None)
    assert all(r.pbcc is not None for r in rep[:-1])
    mat = stats.pearson_matrix(ds)
    assert np.isnan(mat[0, 1:]).all() and np.isnan(mat[1:, 0]).all()
    assert mat[0, 0] == 1.0 and not np.isnan(mat[1:, 1:]).any()


def test_significance_report_single_class():
    feats = np.random.default_rng(8).normal(size=(10, 10))
    ds = make_set(feats, [1] * 10)
    with pytest.raises(SingleClassError):
        stats.significance_report(ds)
    # two label names, one of them without a row
    ds = LabeledFeatureSet(feats, np.zeros(10, dtype=int), ("a", "b"))
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
        flags += sum(bool(r.significant) for r in rep)
        total += 10
    rate = flags / total
    assert 0.02 < rate < 0.09
