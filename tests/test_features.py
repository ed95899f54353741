import numpy as np
import pytest

from radiofp import features
from radiofp.errors import DegenerateSequenceError, NonFiniteInputError

from oracles import oracle_features

P = {name: j for j, name in enumerate(features.FEATURE_NAMES)}


def params(seq):
    """(values, failed) of one hand example, shorter than 8 samples or not.

    `feature_matrix` rejects rows under 8 samples, so the examples go
    straight to the one-pass computation it wraps.
    """
    values, failed = features._features(np.asarray(seq, dtype=float)[None])
    return values[0], int(failed[0])


def roots(dy):
    """Zero crossings of one already centered sequence."""
    return features._roots(np.asarray(dy, dtype=float)[None])[0]


def line(a, b, n):
    """``n`` roots on the exact line ``a*k + b``, k = 1..n."""
    return a * np.arange(1, n + 1, dtype=float) + b


def test_center_rejects_non_finite():
    with pytest.raises(NonFiniteInputError):
        features.feature_matrix([[1.0, np.nan, 2.0, 0, 0, 0, 0, 0]])
    with pytest.raises(NonFiniteInputError):
        features.feature_matrix([[np.inf, 0.0] * 4])


def test_p1_examples():
    assert params([1, 3, 2, 0])[0][P["P1"]] == 1.5
    assert params([0, 0, 0])[0][P["P1"]] == 0.0
    assert params([-2, 2])[0][P["P1"]] == 0.0


def test_p2_examples():
    assert params([1, 3, 2, 0])[0][P["P2"]] == 3.0
    assert params([4.2, 4.2, 4.2])[0][P["P2"]] == 0.0
    assert params([-1, 1, -1, 1])[0][P["P2"]] == 2.0


def test_p3_examples():
    assert params([1, 3, 2, 0])[0][P["P3"]] == 0.0
    assert params([0, 4, 1, 1])[0][P["P3"]] == 1.0
    values, failed = params([1, 1, 1])
    assert np.isnan(values[P["P3"]]) and failed == P["P2"]


def test_p3_mirror_antisymmetry():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(200, 64))
    mirrored = 2 * y.mean(axis=1, keepdims=True) - y
    fy = features.feature_matrix(y)[0][:, P["P3"]]
    fm = features.feature_matrix(mirrored)[0][:, P["P3"]]
    np.testing.assert_allclose(fm, -fy, rtol=0, atol=1e-12)


def test_deviation_extremes_are_extremes_minus_mean():
    """P2 and P3 take the largest and smallest deviation as ``y_max - mean``
    and ``y_min - mean``.  Rounding ``y - mean`` never decreases as y grows,
    so these equal the extremes of the rounded deviations bit for bit, the
    sign of a zero included."""
    rng = np.random.default_rng(21)
    n, length = 40, 16
    signed_zeros = rng.choice([0.0, -0.0], size=(n, length))
    one_nonzero = signed_zeros.copy()
    one_nonzero[np.arange(n), rng.integers(0, length, n)] = rng.normal(size=n)
    constant = np.repeat([[-2.5], [0.1], [7.0], [-0.0], [0.0], [1e150]],
                         length, axis=1)
    y = np.concatenate(
        [rng.normal(size=(n, length)) * scale
         for scale in (1e-150, 1e-9, 1.0, 1e6, 1e150)]
        + [np.round(rng.normal(size=(n, length)), 1),  # ties
           signed_zeros, one_nonzero, constant])
    mean = y.mean(axis=1)
    dy = y - mean[:, None]
    hi, lo = dy.max(axis=1), dy.min(axis=1)
    assert (y.max(axis=1) - mean).tobytes() == hi.tobytes()
    assert (y.min(axis=1) - mean).tobytes() == lo.tobytes()
    values, _ = features.feature_matrix(y)
    assert values[:, P["P2"]].tobytes() == (hi - lo).tobytes()
    p3 = np.where((hi <= 0) | (lo >= 0), np.nan, hi - np.abs(lo))
    assert values[:, P["P3"]].tobytes() == p3.tobytes()


def test_p4_example_and_scaling():
    assert params([1, 3, 2, 0])[0][P["P4"]] == 2.0
    assert params([3, 3, 3])[0][P["P4"]] == 0.0
    rng = np.random.default_rng(3)
    y = rng.normal(size=128)
    values, _ = features.feature_matrix([y, 0.5 * y, 2.0 * y, 117.0 * y])
    p4 = values[:, P["P4"]]
    np.testing.assert_allclose(p4[1:], np.array([0.5, 2.0, 117.0]) * p4[0],
                               rtol=1e-12)


def test_p5_examples():
    assert params([1, 3, 2, 0])[0][P["P5"]] == 1.0
    assert params([0, 0, 0, 4])[0][P["P5"]] == 3.0
    values, failed = params([2, 2, 2])
    assert np.isnan(values[P["P5"]]) and failed == P["P2"]


def test_p6_examples():
    assert params([1, 3, 2, 0])[0][P["P6"]] == -1.0
    assert params([0, 3, 1, 1])[0][P["P6"]] == -2.0
    values, failed = params([0, 0, 0])
    assert np.isnan(values[P["P6"]]) and failed == P["P2"]


def test_p6_reversal_mirror():
    # reversing maps 1-based index i -> N+1-i, so the reversed P6 equals the
    # difference of the *first* up/dn indices of the original, negated
    y = np.array([1.0, 3.0, 2.0, 0.0])
    dy = y - y.mean()
    first_up = min(i + 1 for i, v in enumerate(dy) if v > 0)
    first_dn = min(i + 1 for i, v in enumerate(dy) if v < 0)
    assert params(y[::-1])[0][P["P6"]] == -(first_up - first_dn)


def test_p7_example_and_permutation_invariance():
    assert params([1, 3, 2, 0])[0][P["P7"]] == 2.0
    assert params([9, 9, 9])[0][P["P7"]] == 0.0
    rng = np.random.default_rng(5)
    y = rng.normal(size=200)
    shuffled = rng.permutation(y)
    p7 = features.feature_matrix([y, shuffled])[0][:, P["P7"]]
    assert p7[1] == pytest.approx(p7[0], rel=1e-12)


def test_p7_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(200):
        y = rng.normal(size=rng.integers(2, 400))
        dy = y - y.mean()
        assert params(y)[0][P["P7"]] == pytest.approx(
            dy[dy > 0].sum(), rel=1e-9, abs=1e-12
        )


def test_p8_example_and_identity():
    assert params([1, 3, 2, 0])[0][P["P8"]] == pytest.approx(
        2.0 / 3.0, rel=1e-12
    )
    values, failed = params([1, 1, 1])
    assert np.isnan(values[P["P8"]]) and failed == P["P2"]
    rng = np.random.default_rng(17)
    for _ in range(200):
        y = rng.normal(size=rng.integers(8, 500))
        values = features.feature_matrix([y])[0][0]
        ratio = values[P["P4"]] / values[P["P2"]]
        assert values[P["P8"]] == pytest.approx(ratio, rel=1e-12)


def test_affine_invariance_p5_p8():
    rng = np.random.default_rng(23)
    y = np.empty((200, 64))
    z = np.empty_like(y)
    for i in range(200):
        y[i] = rng.normal(size=64)
        c = float(rng.uniform(0.001, 1000.0))
        d = float(rng.normal(0, 100.0))
        z[i] = c * y[i] + d
    fy, fz = features.feature_matrix(y)[0], features.feature_matrix(z)[0]
    for name in ("P5", "P8"):
        np.testing.assert_allclose(fz[:, P[name]], fy[:, P[name]], rtol=1e-9)


def test_find_roots_examples():
    np.testing.assert_allclose(roots([-1, 1]), [0.5])
    np.testing.assert_allclose(roots([1, -1, 1]), [0.5, 1.5])
    np.testing.assert_allclose(roots([2, 0, -2]), [1.0])


def test_find_roots_zero_runs_collapse():
    np.testing.assert_allclose(roots([2, 0, 0, -2]), [1.0])
    np.testing.assert_allclose(
        roots([2, 0, 2, 0, -2, 0, 0, 0]), [1.0, 3.0, 5.0]
    )


def test_find_roots_empty_for_one_sided_walk():
    # deviations cross zero of the *centered* sequence, so any nonconstant
    # sequence has at least one root; an exactly antisymmetric pair has one
    np.testing.assert_allclose(roots([-3, 3]), [0.5])


def root_lines(cases, width):
    """`_root_lines` of a block of ``width`` columns whose rows hold the
    given roots, ``(len(cases), 2)``."""
    pos = np.concatenate([np.asarray(r, dtype=float) for r in cases])
    rows = np.repeat(np.arange(len(cases)), [len(r) for r in cases])
    return features._root_lines(pos, rows, (len(cases), width))


def test_root_lines_exact_and_two_point():
    (p9, p10), (q9, q10) = root_lines([[8.0, 16.0, 24.0], [3.0, 5.0]], 8)
    # a = 8, b = 0: P9 = pi/8, P10 = (0 - pi/2) mod pi = pi/2
    assert p9 == pytest.approx(np.pi / 8, rel=1e-12)
    assert p10 == pytest.approx(np.pi / 2, rel=1e-12)
    # a = 2, b = 1: P9 = pi/2, P10 = (pi/2 - pi/2) mod pi = 0
    assert q9 == pytest.approx(np.pi / 2)
    assert q10 == pytest.approx(0.0, abs=1e-12)


def test_root_lines_ols_values():
    # hand OLS: n=4, sum k=10, sum k^2=30, sum R=10, sum kR=29.9
    # -> a = 19.6/20 = 0.98, b = (10 - 9.8)/4 = 0.05
    [(p9, p10)] = root_lines([[1.0, 2.1, 2.9, 4.0]], 8)
    assert p9 == pytest.approx(np.pi / 0.98, abs=1e-10)
    assert p10 == pytest.approx(
        (np.pi * 0.05 / 0.98 - np.pi / 2) % np.pi, abs=1e-10
    )


def test_root_lines_errors():
    assert np.isnan(root_lines([[], [4.0], [10.0, 6.0, 2.0]], 8)).all()


def test_p9_p10_examples():
    (p9, p10), (q9, q10) = root_lines([line(8.0, 0.0, 5),
                                       line(np.pi, np.pi / 2, 3)], 8)
    assert p9 == pytest.approx(np.pi / 8)
    assert p10 == pytest.approx(np.pi / 2)
    # P10 = 0 up to rounding, which the modulo may carry to just below pi
    assert q9 == pytest.approx(1.0)
    assert min(q10, np.pi - q10) == pytest.approx(0.0, abs=1e-12)


def test_p10_in_range():
    rng = np.random.default_rng(29)
    cases = [line(float(rng.uniform(0.5, 50)), float(rng.normal(0, 30)), 3)
             for _ in range(300)]
    p10 = root_lines(cases, 3)[:, 1]
    assert np.all((0.0 <= p10) & (p10 < np.pi))


def reference_roots(dy):
    """`_roots` by 2-D fancy indexing, its bitwise reference."""
    zero = dy == 0.0
    first = zero.copy()
    first[:, 1:] &= ~zero[:, :-1]
    cross = np.zeros_like(zero)
    cross[:, :-1] = dy[:, :-1] * dy[:, 1:] < 0
    rows, cols = np.nonzero(first | cross)
    pos = cols.astype(float)
    at = cross[rows, cols]
    r, c = rows[at], cols[at]
    pos[at] += dy[r, c] / (dy[r, c] - dy[r, c + 1])
    return pos, rows


def reference_root_line(roots):
    """One row's P9 and P10 by float sums over the unpadded roots and their
    indices, the reference of `_root_lines`; None where it gives NaN."""
    if roots.size < 2:
        return None
    k = np.arange(1, roots.size + 1, dtype=float)
    k_mean, r_mean = k.mean(), roots.mean()
    sxx = float(((k - k_mean) ** 2).sum())
    sxy = float(((k - k_mean) * (roots - r_mean)).sum())
    a = sxy / sxx
    if a <= 0:
        return None
    b = r_mean - a * k_mean
    p10 = (np.pi * b / a - np.pi / 2.0) % np.pi
    if p10 >= np.pi:
        p10 -= np.pi
    return float(np.pi / a), float(p10)


def root_line_cases():
    """Roots of 1-based rows: sorted crossings and any-slope rows of 0 to
    1100 roots, exact lines, and two-root edge cases."""
    rng = np.random.default_rng(53)
    cases = []
    for n in range(1101):
        cases.append(np.sort(rng.uniform(0.0, 1024.0, n)))  # crossings
        cases.append(rng.normal(size=n))  # any sign of slope
    cases += [line(a, b, n) for a in (0.5, 8.0, np.pi) for b in (0.0, -3.25)
              for n in (2, 3, 500)]
    cases += [np.array([3.0, 5.0]), np.array([5.0, 3.0]),
              np.array([2.0, 2.0]), line(-2.0, 100.0, 50)]
    return cases


def test_root_lines_rows_equal_rows_alone():
    # a row's bits depend on its roots and the block's width alone, not on
    # its neighbours: each row of a mixed block equals its one-row block
    cases = root_line_cases()
    width = 1100
    block = root_lines(cases, width)
    for r, got in zip(cases, block):
        assert got.tobytes() == root_lines([r], width)[0].tobytes(), r.size


def test_root_lines_agree_with_reference():
    # the padded pairwise sums round differently from the reference's
    # unpadded ones.  Measured worst over these cases: P9 rel 8.3e-14, and
    # the P10 difference (mod pi) 8.1e-14 of its angle's scale
    # P9*|mean root| + pi*(n+1)/2, both at rows whose fitted slope nearly
    # cancels; the bounds keep a 12x margin
    cases = root_line_cases()
    block = root_lines(cases, 1100)
    fitted = 0
    for r, (p9, p10) in zip(cases, block):
        expected = reference_root_line(r)
        assert np.isnan(p9) == np.isnan(p10) == (expected is None), r.size
        if expected is None:
            continue
        fitted += 1
        assert p9 == pytest.approx(expected[0], rel=1e-12, abs=0)
        d = (p10 - expected[1]) % np.pi
        scale = expected[0] * abs(r.mean()) + np.pi * (r.size + 1) / 2
        assert min(d, np.pi - d) <= 1e-12 * scale, r.size
    assert 1100 < fitted < len(cases) - 500


def test_root_line_closed_forms_equal_float_sums_up_to_300079():
    # n(n^2-1) < 3 * 2^53 holds up to n = 300079 and no further
    assert 300079 * (300079 ** 2 - 1) < 3 << 53 <= 300080 * (300080 ** 2 - 1)
    for n in (2, 3, 7, 8, 9, 128, 129, 1100, 65537, 300079):
        k = np.arange(1, n + 1, dtype=float)
        k_mean = k.mean()
        assert k_mean == (n + 1) / 2, n
        assert ((k - k_mean) ** 2).sum() == n * (n * n - 1) / 12, n
        assert (k - k_mean).tobytes() == \
            np.arange((1 - n) / 2, (n + 1) / 2).tobytes(), n


def test_roots_bitwise_equals_reference():
    rng = np.random.default_rng(59)
    rows = [
        np.array([1.0, 0.0, -2.0, 0.0, 0.0, 3.0, -1.0, 0.0, 0.0, 0.0,
                  2.0, -2.0, 0.5, 0.0, -0.5, 1.0]),  # zeros and zero runs
        np.array([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 1.0, 0.0, -1.0,
                  1.0, -1.0, 1.0, 0.0, 0.0, 0.0]),  # runs at both ends
        np.zeros(16),
        np.array([1e-200, -1e-200, 1.0, -1.0, 1e-200, -1e-200, -1.0, 0.0,
                  1.0, -1e-200, 1e-200, 2.0, -3.0, 1.0, 1.0, 0.0]),  # underflow
        np.tile([1.0, -1.0], 8),  # most roots
        np.repeat([-1.0, 1.0], 8),  # one root
        rng.normal(size=16),
    ]
    for matrix in (np.array(rows), np.array(rows[::-1]),
                   rng.normal(size=(64, 1024)),
                   np.round(rng.normal(size=(40, 100)))):  # many exact zeros
        pos, at_row = features._roots(matrix)
        ref_pos, ref_row = reference_roots(matrix)
        assert pos.tobytes() == ref_pos.tobytes()
        assert at_row.tobytes() == ref_row.tobytes()
    # a product that underflows to -0.0 is no crossing
    assert roots([1e-200, -1e-200]).size == 0


def test_extract_sinusoid():
    j = np.arange(256)
    y = np.sin(np.pi * (j + 0.5) / 8)
    values, failed = features.feature_matrix([y])
    fv = values[0]
    assert failed[0] == -1
    assert abs(fv[P["P1"]]) < 1e-12
    assert fv[P["P2"]] == pytest.approx(2 * np.abs(y).max(), rel=1e-12)
    assert fv[P["P5"]] == pytest.approx(1.0, rel=1e-9)
    assert fv[P["P9"]] == pytest.approx(np.pi / 8, rel=1e-6)


def test_extract_rejects_degenerate():
    values, failed = features.feature_matrix([np.full(32, 1.25)])
    assert failed[0] == P["P2"] and values[0, P["P2"]] == 0.0
    with pytest.raises(DegenerateSequenceError):
        features.feature_matrix([np.arange(4.0)])


def test_extract_pure_function():
    rng = np.random.default_rng(31)
    y = rng.normal(size=(3, 512))
    before = y.copy()
    a, fa = features.feature_matrix(y)
    b, fb = features.feature_matrix(y)
    assert a.tobytes() == b.tobytes()
    np.testing.assert_array_equal(fa, fb)
    np.testing.assert_array_equal(y, before)


def test_extract_tags_failing_parameter():
    values, failed = params([1, 1, 1, 1])
    assert np.isnan(values[P["P5"]]) and failed == P["P2"]

    one_crossing = np.concatenate([np.full(8, -1.0), np.full(8, 1.0)])
    values, failed = features.feature_matrix([one_crossing])
    assert failed[0] == P["P9"]
    assert np.isnan(values[0]).tolist() == [False] * 8 + [True] * 2


def test_permutation_sensitivity_regression():
    # fixed shuffled pair: order-free parameters agree, order-bound ones differ
    rng = np.random.default_rng(37)
    y = rng.normal(size=128)
    perm = rng.permutation(128)
    z = y[perm]
    (fy, fz), failed = features.feature_matrix([y, z])
    assert failed.tolist() == [-1, -1]
    for name in ("P1", "P2", "P3", "P5", "P7"):
        assert fy[P[name]] == pytest.approx(fz[P[name]], rel=1e-12)
    assert any(
        abs(fy[P[n]] - fz[P[n]]) > 1e-9 for n in ("P4", "P6", "P8", "P9", "P10")
    )


def test_matches_oracle_smoke():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(64, 513))
        y = rng.normal(size=n) if rng.random() < 0.5 else rng.uniform(-1, 1, n)
        values, failed = features.feature_matrix([y])
        assert failed[0] == -1
        ref = oracle_features(y)
        got = dict(zip(features.FEATURE_NAMES, values[0]))
        for name in features.FEATURE_NAMES:
            assert got[name] == pytest.approx(
                ref[name], rel=1e-9, abs=1e-12
            ), name


def test_feature_matrix_rows_match_single_rows():
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
    for row, seq in zip(values, matrix):
        expected, _ = features.feature_matrix(seq[None])
        assert row.tobytes() == expected[0].tobytes()


# each row kind: (failed, undefined parameters) of its one-row matrix, or the
# error `feature_matrix` raises; a constant row has P2 = 0, no deviations of
# either sign and a single root (its first, zero, sample)
FAILED_TABLE = [
    ("constant", np.full(8, 0.75), (1, ("P3", "P5", "P6", "P8", "P9", "P10"))),
    ("all_zero", np.zeros(64), (1, ("P3", "P5", "P6", "P8", "P9", "P10"))),
    ("one_crossing", np.repeat([-1.0, 1.0], 32), (8, ("P9", "P10"))),
    ("length_8", np.tile([1.0, -1.0], 4), (-1, ())),
    ("normal", np.random.default_rng(47).normal(size=256), (-1, ())),
    ("length_7", np.tile([1.0, -1.0], 4)[:7], DegenerateSequenceError),
    ("nan", np.array([0.0] * 7 + [np.nan]), NonFiniteInputError),
    ("inf", np.array([1.0, -np.inf] * 4), NonFiniteInputError),
]


@pytest.mark.parametrize("row, expected", [case[1:] for case in FAILED_TABLE],
                         ids=[case[0] for case in FAILED_TABLE])
def test_feature_matrix_failed_table(row, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            features.feature_matrix(row[None])
        return
    values, failed = features.feature_matrix(row[None])
    nan = [name for name, v in zip(features.FEATURE_NAMES, values[0])
           if np.isnan(v)]
    assert (failed.tolist(), nan) == ([expected[0]], list(expected[1]))
