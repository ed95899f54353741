"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines.  Criterion 7 needs the published capture dataset and is skipped
unless RADIOFP_DATASET points at a feature CSV derived from it.
"""

import dataclasses
import hashlib
import math
import os
import time

import numpy as np
import pytest

from radiofp import stats
from radiofp.classify import (
    ForestParams,
    derive_seed,
    evaluate,
    train_forest,
    train_tree,
)
from radiofp.cli import DEFAULT_PROFILES, main
from radiofp.dataset import FeatureStats, LabeledFeatureSet
from radiofp.explain import ExplainConfig, explain_instance
from radiofp.features import FEATURE_NAMES, feature_matrix
from radiofp.pipeline import (
    run_capture_pipeline,
    simulate_device,
    transnoise_etalon,
)

from oracles import oracle_features, oracle_p_value


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _params(y):
    """The ten parameters of one sequence, a one-row `feature_matrix`."""
    return feature_matrix([y])[0][0]


# --- criterion 1: feature oracle suite --------------------------------------


def test_criterion_1_feature_oracle_suite():
    rng = np.random.default_rng(2024)
    started = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(64, 4097))
        if rng.random() < 0.5:
            y = rng.normal(size=n)
        else:
            y = rng.uniform(-1.0, 1.0, size=n)
        got = _params(y)
        want = oracle_features(y)
        for name, value in zip(FEATURE_NAMES, got):
            ref = want[name]
            assert value == pytest.approx(ref, rel=1e-9, abs=1e-12), (
                f"{name}: {value} vs oracle {ref}"
            )
            worst = max(worst, abs(value - ref) / max(abs(ref), 1e-12))
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(1, f"1000 sequences, worst rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: sinusoid recovery ------------------------------------------


def test_criterion_2_sinusoid_recovery():
    rng = np.random.default_rng(2025)
    started = time.time()
    worst_p9 = worst_p10 = 0.0
    for _ in range(50):
        omega = float(rng.uniform(0.01, 1.0))
        # long record: the re-centering shift of interpolated roots scales
        # as 1/(omega*N)^2, so this N keeps it well below the 1e-6 budget
        n = int(math.ceil(6000.0 / omega))
        while True:
            delta = float(rng.uniform(0, 2 * math.pi / omega))
            k = math.ceil(omega * delta / math.pi)
            first_root = k * math.pi / omega - delta
            if first_root < 0:
                first_root += math.pi / omega
            if first_root >= 2.5:
                break
        # shift stays before the first crossing so no root enters or leaves
        s = int(rng.integers(1, max(2, int(first_root - 0.5))))
        y = np.sin(omega * (np.arange(n) + delta))
        fy = _params(y)
        fz = _params(y[s:])
        worst_p9 = max(worst_p9, abs(fy[8] - omega) / omega)
        expected = (fy[9] - omega * s) % math.pi
        d = (fz[9] - expected) % math.pi
        d = min(d, math.pi - d)
        worst_p10 = max(worst_p10, d)
        assert abs(fy[8] - omega) / omega < 1e-3
        assert d < 1e-6
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(2, f"50 pairs, worst P9 rel {worst_p9:.1e}, "
               f"worst P10 shift {worst_p10:.1e}, {elapsed:.1f}s")


# --- criterion 3: invariance suite -------------------------------------------


def test_criterion_3_invariance_suite():
    rng = np.random.default_rng(33)

    for _ in range(200):  # positive-affine invariance of p5, p8, p9, p10
        y = rng.normal(size=int(rng.integers(64, 512)))
        c = float(rng.uniform(1e-3, 1e3))
        d = float(rng.normal(0.0, 50.0))
        z = c * y + d
        fy, fz = _params(y), _params(z)
        assert fz[4] == pytest.approx(fy[4], rel=1e-9)
        assert fz[7] == pytest.approx(fy[7], rel=1e-9)
        assert fz[8] == pytest.approx(fy[8], rel=1e-9)
        assert fz[9] == pytest.approx(fy[9], rel=1e-9, abs=1e-9)

    for _ in range(200):  # p8 == p4 / p2 exactly
        y = rng.normal(size=int(rng.integers(8, 600)))
        fy = _params(y)
        assert fy[7] == pytest.approx(fy[3] / fy[1], rel=1e-12)

    for _ in range(200):  # histogram conservation
        x = rng.normal(size=int(rng.integers(1, 400)))
        _, counts = stats.histogram(x, int(rng.integers(1, 80)))
        assert counts.sum() == x.size

    for case in range(200):  # importances sum to 1
        feats = rng.normal(size=(40, 5))
        labels = (feats[:, case % 5] > 0).astype(int)
        ds = LabeledFeatureSet.from_rows(labels, feats)
        model = train_forest(ds, ForestParams(n_trees=3, max_depth=3),
                             seed=case)
        assert model.importances is not None
        assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.importances >= 0)

    _report(3, "4 invariants x 200 random cases")


# --- criterion 4: statistics oracle ------------------------------------------


def test_criterion_4_statistics_oracle():
    p = stats.p_value_two_sided(0.5, 27)
    assert p == pytest.approx(0.0079, abs=1e-3)
    assert p == pytest.approx(oracle_p_value(0.5, 27), abs=1e-8)
    for n in (3, 5, 30, 1000, 30000):
        assert stats.p_value_two_sided(0.0, n) == 1.0

    rs = np.linspace(0.01, 0.6, 20)
    ns = np.unique(np.logspace(np.log10(4), np.log10(1200), 20).astype(int))
    grid = [[stats.p_value_two_sided(float(r), int(n)) for r in rs]
            for n in ns]
    for row in grid:  # decreasing in |r| at fixed n
        assert all(a > b for a, b in zip(row, row[1:]))
    for col in range(len(rs)):  # decreasing in n at fixed r
        column = [grid[i][col] for i in range(len(ns))]
        assert all(a > b for a, b in zip(column, column[1:]))
    _report(4, f"p(0.5,27)={p:.6f} vs oracle, monotone on "
               f"{len(ns)}x{len(rs)} lattice")


# --- criteria 5 and 6: synthetic end-to-end experiment -----------------------


@pytest.fixture(scope="module")
def synthetic_experiment():
    """2 devices x 2000 frames at 20 dB SNR, L=1024 trans-noise etalon."""
    started = time.time()
    etalon = transnoise_etalon(1024)
    profiles = [dataclasses.replace(p, snr_db=20.0) for p in DEFAULT_PROFILES]
    labels, rows = [], []
    skipped = 0
    for dev, profile in enumerate(profiles):
        seeds = [derive_seed(0, dev, m) for m in range(2000)]
        stream = np.concatenate([
            simulate_device(etalon, profile, seeds[lo:lo + 250])
            for lo in range(0, 2000, 250)]).ravel()
        values, failed, dropped, _ = run_capture_pipeline(stream, etalon)
        skipped += int(dropped.sum()) + int((failed >= 0).sum())
        rows += list(values[failed < 0])
        labels += [str(dev)] * int((failed < 0).sum())
    dataset = LabeledFeatureSet.from_rows(labels, np.array(rows))
    return dataset, skipped, time.time() - started


def test_criterion_5_end_to_end_synthetic(synthetic_experiment):
    dataset, skipped, build_seconds = synthetic_experiment
    started = time.time()
    assert dataset.n + skipped == 4000

    forest = evaluate(dataset, lambda d, s: train_forest(d, ForestParams(), s),
                      k=4, seed=0)
    tree = evaluate(dataset, lambda d, s: train_tree(d, seed=s), k=4, seed=0)
    majority = float(dataset.class_counts().max()) / dataset.n

    assert forest.mean_accuracy >= 0.95
    assert forest.mean_accuracy >= tree.mean_accuracy >= majority
    elapsed = build_seconds + (time.time() - started)
    assert elapsed < 300.0
    _report(5, f"forest {forest.mean_accuracy:.4f} >= tree "
               f"{tree.mean_accuracy:.4f} >= majority {majority:.2f}, "
               f"{elapsed:.0f}s total")


def test_criterion_6_feature_subset(synthetic_experiment):
    dataset, _, _ = synthetic_experiment
    report = stats.significance_report(dataset)
    top3 = [row.feature for row in report[:3] if row.pbcc is not None]
    assert len(top3) == 3
    columns = [dataset.feature_names.index(name) for name in top3]

    full = evaluate(dataset, lambda d, s: train_forest(d, ForestParams(), s),
                    k=4, seed=0)
    reduced = evaluate(dataset.select_features(columns),
                       lambda d, s: train_forest(d, ForestParams(), s),
                       k=4, seed=0)
    assert full.mean_accuracy - reduced.mean_accuracy <= 0.03
    _report(6, f"top-3 by |PBCC| {top3}: {reduced.mean_accuracy:.4f} vs "
               f"all-10 {full.mean_accuracy:.4f}")


# --- criterion 7: published dataset (optional) --------------------------------


@pytest.mark.skipif(
    "RADIOFP_DATASET" not in os.environ,
    reason="published capture dataset not available; set RADIOFP_DATASET to "
           "a feature CSV converted from it",
)
def test_criterion_7_published_dataset():
    from radiofp.dataio import read_feature_csv

    dataset = read_feature_csv(os.environ["RADIOFP_DATASET"])
    report = stats.significance_report(dataset)
    top3 = {row.feature for row in report[:3]}
    assert top3 == {"P8", "P9", "P2"}
    insignificant = {row.feature for row in report if row.significant is False}
    assert insignificant == {"P4", "P3", "P10"}
    result = evaluate(dataset, lambda d, s: train_forest(d, ForestParams(), s),
                      k=4, seed=0)
    assert result.mean_accuracy >= 0.98
    _report(7, f"published dataset: RF {result.mean_accuracy:.4f}")


# --- criterion 8: explainer sanity --------------------------------------------


class _LocallyLinearModel:
    """Class-1 probability is an affine function of standardized features."""

    def __init__(self, stats_, coeffs, intercept=0.5):
        self.stats = stats_
        self.coeffs = coeffs
        self.intercept = intercept

    def predict_proba(self, rows):
        z = self.stats.standardize(np.atleast_2d(rows))
        v = z @ self.coeffs + self.intercept
        return np.column_stack([1.0 - v, v])


def test_criterion_8_explainer_sanity():
    rng = np.random.default_rng(88)
    started = time.time()
    feats = rng.normal(2.0, 1.5, size=(400, 10))
    fstats = FeatureStats.from_features(feats)
    coeffs = np.array([0.05, 0.02, 0.6, 0.04, 0.01,
                       0.03, 0.02, 0.05, 0.01, 0.03])
    model = _LocallyLinearModel(fstats, coeffs)
    config = ExplainConfig(n_perturbations=1000)

    hits = 0
    fidelities = []
    for seed in range(100):
        exp = explain_instance(model, feats[seed % 400], config, fstats,
                               seed=seed)
        fidelities.append(exp.local_fidelity)
        assert exp.local_fidelity >= 0.99
        if int(np.argmax(np.abs(exp.weights))) == 2:
            hits += 1
    elapsed = time.time() - started
    assert hits >= 95
    assert elapsed < 60.0
    _report(8, f"dominant feature {hits}/100, min fidelity "
               f"{min(fidelities):.4f}, {elapsed:.1f}s")


# --- criterion 9: reproducibility ---------------------------------------------


def _criterion_9_run(base):
    """The criterion-9 CLI run: every command, fixed seeds, no timestamps."""
    raw = base / "raw"
    assert main(["gen-dataset", "--out-dir", str(raw),
                 "--frames-per-device", "15", "--frame-len", "256",
                 "--seed", "21", "--no-timestamp"]) == 0
    features = base / "features.csv"
    assert main(["extract", "--input", str(raw / "manifest.csv"),
                 "--etalon", str(raw / "etalon.iq"),
                 "--out", str(features), "--no-timestamp"]) == 0
    assert main(["stats", "--input", str(features),
                 "--out-dir", str(base / "stats"), "--no-timestamp"]) == 0
    assert main(["train-eval", "--input", str(features),
                 "--out-dir", str(base / "ml"), "--trees", "8",
                 "--seed", "4", "--no-timestamp"]) == 0
    assert main(["explain", "--model", str(base / "ml" / "model.txt"),
                 "--input", str(features), "--row", "2", "--seed", "6",
                 "--n-perturbations", "300",
                 "--out", str(base / "explanation.csv"),
                 "--no-timestamp"]) == 0
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_criterion_9_reproducibility(tmp_path):
    first = _criterion_9_run(tmp_path / "a")
    second = _criterion_9_run(tmp_path / "b")
    assert first.keys() == second.keys()
    for name, blob in first.items():
        assert second[name] == blob, f"{name} differs between runs"
    _report(9, f"{len(first)} files byte-identical across two runs")


# sha256 of every file the criterion-9 run writes.  A deliberate change to
# any output updates its digest here, with the reason in CHANGES.md.
CRITERION_9_DIGESTS = {
    "explanation.csv": "eff9ceb61a6ad7c0f66c27926b39c8096f860d779c71636bff6f8c79db92fb3f",
    "features.csv": "3552b984bd18dc831fd570005c4c7870de62674e758c6a32e2ff84f4b8456c6a",
    "ml/confusion_forest.csv": "49cce5c05bc821cb7a8aba86a42c530bf28e0a1b00655335bd835d54ccb4d407",
    "ml/confusion_knn.csv": "9333eeafc1554ad3aa1f22001e6bb04065ffe0a56e6964ea5e50d547f3987f01",
    "ml/confusion_logreg.csv": "a686eaf3e6392fa08258caf333b1788e41d6b5113ee7ce2688f0511e270e635a",
    "ml/confusion_tree.csv": "a686eaf3e6392fa08258caf333b1788e41d6b5113ee7ce2688f0511e270e635a",
    "ml/importances.csv": "edbaa385899646465b0038d770a96a10d58d945910a10fb5b6ab62cc4247a0ee",
    "ml/metrics.csv": "9b0b4a3e9c0006bd173c43f700e4df4103befde75caf13a9604b407a7cb6ed88",
    "ml/model.txt": "cfc1179fb2b0fbef703ef517447575527e83b159e5f45a2fcbad8cc55a68e3b3",
    "raw/device_0.iq": "0b232c85c09c7f113d6d5b8041fe80bbd78467be3d4555cc52705496c479533b",
    "raw/device_1.iq": "ea2a68a250c3359a1919ca9ca45395a2459a185974f8d4004837c0a7dc166f99",
    "raw/etalon.iq": "893bdd227eae0046dd612de753403ec5f94752d84217424e4c322e8f01f0c1b8",
    "raw/manifest.csv": "3e5201d594e18ee00fbf00b1966a2bbd45df51f9e63be82f2475461a1a187182",
    "stats/hist_P1.csv": "695d2b8feb3f5897600425e466a9121dbc6533f6e014aa338e415349fe9a2e0d",
    "stats/hist_P10.csv": "e079f4a057ea62d18fa269e107243414882ba643df7eadf2cf23e4bdce58ed6d",
    "stats/hist_P2.csv": "c604a72371d61ec56f9aeac85c96b2ca916c1d4a572032bbff97c3ebeba453f7",
    "stats/hist_P3.csv": "5ae4e9ef32cc127184e9ab4f8769b5d4419eb23297a4c125a695b5f5dead1b03",
    "stats/hist_P4.csv": "08854c6efb57ea50e97283e02805ba0a650c4ff0d723e47d333289d18ee23c18",
    "stats/hist_P5.csv": "84bf6d97023261d4ee1761b65abe67779ec6e6eb73c59767835d7d4882b17138",
    "stats/hist_P6.csv": "64f88bbc5168c1c4297385f629b5ce0aeb83d7e0bc743c098aea492e11b7d623",
    "stats/hist_P7.csv": "e0c95615499e9f11c6ce23eb8c1ccf3d9c9d857b568d76ec69164915ec34fc03",
    "stats/hist_P8.csv": "d84205ae5f381de106a3c8162f91dcfef5f20aa9321f49de09dc71c52a682a60",
    "stats/hist_P9.csv": "e965d66460478633b76e0aad07755f1bc1c8e9335ac4da2ebc4da2df81bd0725",
    "stats/pearson_matrix.csv": "05a066de43258b5dcf89208f44cbd2880292da382b641023170637ba75d4ffde",
    "stats/significance.csv": "0c429213306ac44fa2c8c8f1255b27ea8409bdb426a4ab2541a5a7a657f27c67",
}


def test_criterion_9_golden_digests(tmp_path):
    files = _criterion_9_run(tmp_path)
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in files.items()}
    assert sorted(digests) == sorted(CRITERION_9_DIGESTS)
    changed = [f"{n}: {d}" for n, d in digests.items()
               if d != CRITERION_9_DIGESTS[n]]
    assert not changed, ("outputs differ from the golden digests; new "
                         "digests:\n" + "\n".join(changed))
