import numpy as np
import pytest

from radiofp import features
from radiofp.errors import (
    DegenerateAsymmetryError,
    DegenerateFitError,
    DegenerateSequenceError,
    InsufficientRootsError,
    NonFiniteInputError,
    OneSidedSequenceError,
)

from oracles import oracle_features


def test_center_examples():
    np.testing.assert_allclose(
        features.center([1, 3, 2, 0]), [-0.5, 1.5, 0.5, -1.5]
    )
    np.testing.assert_array_equal(features.center([5, 5, 5, 5]), [0, 0, 0, 0])
    np.testing.assert_allclose(
        features.center([0, 0, 0, 1]), [-0.25, -0.25, -0.25, 0.75]
    )


def test_center_zero_mean_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = rng.normal(5.0, 3.0, size=rng.integers(1, 300))
        c = features.center(y)
        assert abs(c.mean()) <= 1e-12 * max(1.0, np.abs(y).max())


def test_center_rejects_non_finite():
    with pytest.raises(NonFiniteInputError):
        features.center([1.0, np.nan, 2.0])
    with pytest.raises(NonFiniteInputError):
        features.p1_mean([np.inf, 0.0])


def test_p1_examples():
    assert features.p1_mean([1, 3, 2, 0]) == 1.5
    assert features.p1_mean([0, 0, 0]) == 0.0
    assert features.p1_mean([-2, 2]) == 0.0


def test_p2_examples():
    assert features.p2_range([1, 3, 2, 0]) == 3.0
    assert features.p2_range([4.2, 4.2, 4.2]) == 0.0
    assert features.p2_range([-1, 1, -1, 1]) == 2.0


def test_p3_examples():
    assert features.p3_relative_intensity([1, 3, 2, 0]) == 0.0
    assert features.p3_relative_intensity([0, 4, 1, 1]) == 1.0
    with pytest.raises(OneSidedSequenceError):
        features.p3_relative_intensity([1, 1, 1])


def test_p3_mirror_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = rng.normal(size=64)
        mirrored = 2 * y.mean() - y
        assert features.p3_relative_intensity(mirrored) == pytest.approx(
            -features.p3_relative_intensity(y), abs=1e-12
        )


def test_p4_example_and_scaling():
    assert features.p4_cumulative_range([1, 3, 2, 0]) == 2.0
    assert features.p4_cumulative_range([3, 3, 3]) == 0.0
    rng = np.random.default_rng(3)
    y = rng.normal(size=128)
    for c in (0.5, 2.0, 117.0):
        assert features.p4_cumulative_range(c * y) == pytest.approx(
            c * features.p4_cumulative_range(y), rel=1e-12
        )


def test_p5_examples():
    assert features.p5_asymmetry([1, 3, 2, 0]) == 1.0
    assert features.p5_asymmetry([0, 0, 0, 4]) == 3.0
    with pytest.raises(DegenerateAsymmetryError):
        features.p5_asymmetry([2, 2, 2])


def test_p6_examples():
    assert features.p6_horizontal_asymmetry([1, 3, 2, 0]) == -1.0
    assert features.p6_horizontal_asymmetry([0, 3, 1, 1]) == -2.0
    with pytest.raises(OneSidedSequenceError):
        features.p6_horizontal_asymmetry([0, 0, 0])


def test_p6_reversal_mirror():
    # reversing maps 1-based index i -> N+1-i, so the reversed P6 equals the
    # difference of the *first* up/dn indices of the original, negated
    y = np.array([1.0, 3.0, 2.0, 0.0])
    dy = y - y.mean()
    first_up = min(i + 1 for i, v in enumerate(dy) if v > 0)
    first_dn = min(i + 1 for i, v in enumerate(dy) if v < 0)
    assert features.p6_horizontal_asymmetry(y[::-1]) == -(first_up - first_dn)


def test_p7_example_and_permutation_invariance():
    assert features.p7_bell_max([1, 3, 2, 0]) == 2.0
    assert features.p7_bell_max([9, 9, 9]) == 0.0
    rng = np.random.default_rng(5)
    y = rng.normal(size=200)
    shuffled = rng.permutation(y)
    assert features.p7_bell_max(shuffled) == pytest.approx(
        features.p7_bell_max(y), rel=1e-12
    )


def test_p7_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(200):
        y = rng.normal(size=rng.integers(2, 400))
        dy = y - y.mean()
        assert features.p7_bell_max(y) == pytest.approx(
            dy[dy > 0].sum(), rel=1e-9, abs=1e-12
        )


def test_p8_example_and_identity():
    assert features.p8_normalized_integral_range([1, 3, 2, 0]) == pytest.approx(
        2.0 / 3.0, rel=1e-12
    )
    with pytest.raises(DegenerateSequenceError):
        features.p8_normalized_integral_range([1, 1, 1])
    rng = np.random.default_rng(17)
    for _ in range(200):
        y = rng.normal(size=rng.integers(8, 500))
        p8 = features.p8_normalized_integral_range(y)
        ratio = features.p4_cumulative_range(y) / features.p2_range(y)
        assert p8 == pytest.approx(ratio, rel=1e-12)


def test_affine_invariance_p5_p8():
    rng = np.random.default_rng(23)
    for _ in range(200):
        y = rng.normal(size=64)
        c = float(rng.uniform(0.001, 1000.0))
        d = float(rng.normal(0, 100.0))
        z = c * y + d
        assert features.p5_asymmetry(z) == pytest.approx(
            features.p5_asymmetry(y), rel=1e-9
        )
        assert features.p8_normalized_integral_range(z) == pytest.approx(
            features.p8_normalized_integral_range(y), rel=1e-9
        )


def test_find_roots_examples():
    np.testing.assert_allclose(features.find_roots([-1, 1]), [0.5])
    np.testing.assert_allclose(features.find_roots([1, -1, 1]), [0.5, 1.5])
    np.testing.assert_allclose(features.find_roots([2, 0, -2]), [1.0])


def test_find_roots_zero_runs_collapse():
    np.testing.assert_allclose(features.find_roots([2, 0, 0, -2]), [1.0])
    np.testing.assert_allclose(
        features.find_roots([2, 0, 2, 0, -2, 0, 0, 0]), [1.0, 3.0, 5.0]
    )


def test_find_roots_empty_for_one_sided_walk():
    # deviations cross zero of the *centered* sequence, so any nonconstant
    # sequence has at least one root; an exactly antisymmetric pair has one
    roots = features.find_roots([-3, 3])
    np.testing.assert_allclose(roots, [0.5])


def test_fit_root_line_exact_and_two_point():
    fit = features.fit_root_line([8, 16, 24])
    assert fit.a == pytest.approx(8.0, rel=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    fit = features.fit_root_line([3, 5])
    assert fit.a == pytest.approx(2.0)
    assert fit.b == pytest.approx(1.0)


def test_fit_root_line_ols_values():
    # hand OLS: n=4, sum k=10, sum k^2=30, sum R=10, sum kR=29.9
    # -> a = 19.6/20 = 0.98, b = (10 - 9.8)/4 = 0.05
    fit = features.fit_root_line([1.0, 2.1, 2.9, 4.0])
    assert fit.a == pytest.approx(0.98, abs=1e-10)
    assert fit.b == pytest.approx(0.05, abs=1e-10)


def test_fit_root_line_errors():
    with pytest.raises(InsufficientRootsError):
        features.fit_root_line([4.0])
    with pytest.raises(DegenerateFitError):
        features.fit_root_line([10.0, 6.0, 2.0])


def test_p9_p10_examples():
    p9, p10 = features.p9_p10_from_fit(features.RootLineFit(8.0, 0.0, 0.0))
    assert p9 == pytest.approx(np.pi / 8)
    assert p10 == pytest.approx(np.pi / 2)
    p9, p10 = features.p9_p10_from_fit(
        features.RootLineFit(np.pi, np.pi / 2, 0.0)
    )
    assert p9 == pytest.approx(1.0)
    assert p10 == pytest.approx(0.0, abs=1e-12)


def test_p10_in_range():
    rng = np.random.default_rng(29)
    for _ in range(300):
        a = float(rng.uniform(0.5, 50))
        b = float(rng.normal(0, 30))
        _, p10 = features.p9_p10_from_fit(features.RootLineFit(a, b, 0.0))
        assert 0.0 <= p10 < np.pi


def test_extract_sinusoid():
    j = np.arange(256)
    y = np.sin(np.pi * (j + 0.5) / 8)
    fv = features.extract_features(y)
    assert abs(fv.p1) < 1e-12
    assert fv.p2 == pytest.approx(2 * np.abs(y).max(), rel=1e-12)
    assert fv.p5 == pytest.approx(1.0, rel=1e-9)
    assert fv.p9 == pytest.approx(np.pi / 8, rel=1e-6)


def test_extract_rejects_degenerate():
    with pytest.raises(DegenerateSequenceError):
        features.extract_features(np.full(32, 1.25))
    with pytest.raises(DegenerateSequenceError):
        features.extract_features(np.arange(4.0))


def test_extract_pure_function():
    rng = np.random.default_rng(31)
    y = rng.normal(size=512)
    a = features.extract_features(y).as_array()
    b = features.extract_features(y).as_array()
    np.testing.assert_array_equal(a, b)


def test_extract_tags_failing_parameter():
    with pytest.raises(DegenerateAsymmetryError) as exc:
        features.p5_asymmetry([1, 1, 1, 1])
    assert exc.value.parameter == "P5"

    one_crossing = np.concatenate([np.full(8, -1.0), np.full(8, 1.0)])
    with pytest.raises(InsufficientRootsError) as exc:
        features.extract_features(one_crossing)
    assert exc.value.parameter == "P9"


def test_permutation_sensitivity_regression():
    # fixed shuffled pair: order-free parameters agree, order-bound ones differ
    rng = np.random.default_rng(37)
    y = rng.normal(size=128)
    perm = rng.permutation(128)
    z = y[perm]
    fy = features.extract_features(y)
    fz = features.extract_features(z)
    for name in ("p1", "p2", "p3", "p5", "p7"):
        assert getattr(fy, name) == pytest.approx(getattr(fz, name), rel=1e-12)
    assert any(
        abs(getattr(fy, n) - getattr(fz, n)) > 1e-9
        for n in ("p4", "p6", "p8", "p9", "p10")
    )


def test_matches_oracle_smoke():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(64, 513))
        y = rng.normal(size=n) if rng.random() < 0.5 else rng.uniform(-1, 1, n)
        fv = features.extract_features(y)
        ref = oracle_features(y)
        got = dict(zip(features.FEATURE_NAMES, fv.as_array()))
        for name in features.FEATURE_NAMES:
            assert got[name] == pytest.approx(
                ref[name], rel=1e-9, abs=1e-12
            ), name


def test_feature_matrix_rows_match_extract_features():
    rng = np.random.default_rng(43)
    good = [rng.normal(size=256), rng.uniform(-1, 1, 256),
            np.sin(np.pi * (np.arange(256) + 0.5) / 8)]
    constant = np.full(256, 0.75)
    one_crossing = np.concatenate([np.full(128, -1.0), np.full(128, 1.0)])
    matrix = np.array([good[0], constant, good[1], one_crossing, good[2]])
    values, failed = features.feature_matrix(matrix)
    assert values.shape == (5, 10)
    assert failed.tolist() == [-1, 1, -1, 8, -1]
    assert np.isnan(values[3, 8:]).all()
    for row, seq in zip(values[[0, 2, 4]], good):
        expected = features.extract_features(seq).as_array()
        assert row.tobytes() == expected.tobytes()
