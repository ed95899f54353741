"""Command-line orchestration.

Subcommands cover the full experiment: ``gen-dataset`` simulates transmitter
captures, ``extract`` turns them into feature rows, ``stats`` writes the
significance/correlation/histogram reports, ``train-eval`` cross-validates
the classifiers and serializes the forest, ``explain`` produces a local
surrogate explanation for one row.

Exit codes: 0 success, 2 input/IO error, 3 empty result, 4 invalid config.
Every output is reproducible for a fixed seed once ``--no-timestamp`` is
passed (the only non-deterministic bytes are the generated-at comments).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .classify import (
    ForestParams,
    HyperparamGrid,
    derive_seed,
    evaluate,
    load_model,
    logistic_regression_train,
    random_grid_search,
    save_model,
    train_forest,
    train_knn,
    train_tree,
)
from .dataset import FeatureStats
from .errors import RadioFpError
from .explain import ExplainConfig, explain_instance
from .features import FEATURE_NAMES, feature_matrix
from .pi_digits import PI_DIGIT_COUNT
from .pipeline import (
    DEFAULT_FRAME_LEN,
    DEFAULT_SYNC_THRESHOLD,
    MIN_ETALON_LEN,
    ImpairmentProfile,
    run_capture_pipeline,
    simulate_device,
    transnoise_etalon,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_EMPTY = 3
EXIT_BAD_CONFIG = 4

# two stock transmitters with clearly distinct analog signatures; on a real
# etalon only nonlinearity, DC, phase noise and AWGN survive the gain
# normalization, so those carry the contrast
DEFAULT_PROFILES = (
    ImpairmentProfile(gain_imbalance=0.03, quadrature_error=0.03,
                      phase_noise_rms=0.02, cubic_nonlinearity=0.05,
                      dc_offset=0.010 + 0.005j),
    ImpairmentProfile(gain_imbalance=-0.05, quadrature_error=-0.05,
                      phase_noise_rms=0.12, cubic_nonlinearity=0.25,
                      dc_offset=-0.008 + 0.015j),
)


class ConfigError(Exception):
    """Bad flags or option values; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_feature_mask(text: str) -> list:
    """'2,8,9' -> zero-based column indices of P2, P8, P9."""
    try:
        numbers = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise ConfigError(f"bad --features mask {text!r}") from exc
    if not numbers or not all(1 <= p <= 10 for p in numbers):
        raise ConfigError("--features must list parameter numbers in 1..10")
    return [p - 1 for p in numbers]


def _load_profiles(path, n_devices: int) -> list:
    if path is None:
        if n_devices > len(DEFAULT_PROFILES):
            raise ConfigError(
                f"only {len(DEFAULT_PROFILES)} built-in device profiles; "
                "pass --profiles for more"
            )
        return list(DEFAULT_PROFILES[:n_devices])
    profiles = dataio.read_profiles(path)
    if len(profiles) < 2:
        raise ConfigError("need at least 2 device profiles")
    return profiles


def cmd_gen_dataset(args) -> int:
    if not MIN_ETALON_LEN <= args.frame_len <= PI_DIGIT_COUNT:
        raise ConfigError(f"--frame-len not in {MIN_ETALON_LEN}..{PI_DIGIT_COUNT}")
    profiles = _load_profiles(args.profiles, args.devices)
    profiles = [dataclasses.replace(p, snr_db=args.snr_db) for p in profiles]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    etalon = transnoise_etalon(args.frame_len)
    dataio.write_iq(out_dir / "etalon.iq", etalon)

    entries = []
    for dev, profile in enumerate(profiles):
        frames = [
            simulate_device(etalon, profile, derive_seed(args.seed, dev, m))
            for m in range(args.frames_per_device)
        ]
        stream = np.concatenate(frames)
        if args.lead_in:
            stream = np.concatenate([np.zeros(args.lead_in, dtype=complex),
                                     stream])
        name = f"device_{dev}.iq"
        dataio.write_iq(out_dir / name, stream)
        entries.append(dataio.ManifestEntry(
            label=str(dev), file=name,
            frames=args.frames_per_device, profile=profile,
        ))
    dataio.write_manifest(out_dir / "manifest.csv", entries,
                          timestamp=not args.no_timestamp, seed=args.seed)
    total = args.frames_per_device * len(profiles)
    print(f"wrote {len(profiles)} devices x {args.frames_per_device} frames "
          f"({total} total) to {out_dir}")
    return EXIT_OK


def cmd_extract(args) -> int:
    etalon = dataio.read_iq(args.etalon)
    input_path = Path(args.input)
    if input_path.suffix == ".csv":
        jobs = [(e.label, input_path.parent / e.file, e.frames)
                for e in dataio.read_manifest(input_path)]
    else:
        jobs = [(args.label, input_path, None)]

    labels, rows = [], []
    reasons = ("zero gain",) + FEATURE_NAMES
    skips = np.zeros(len(reasons), dtype=np.int64)
    for label, path, expected in jobs:
        phases, dropped, lags = run_capture_pipeline(
            dataio.read_iq(path), etalon, threshold=args.sync_threshold)
        if expected is not None and lags.size < expected:
            print(f"device {label}: sync found {lags.size} of {expected} "
                  f"frames, lost after sample {lags[-1] + etalon.size}",
                  file=sys.stderr)
        values, failed = feature_matrix(phases)
        rows.append(values[failed < 0])
        labels += [label] * len(rows[-1])
        skips[0] += dropped.sum()
        skips[1:] += np.bincount(failed[failed >= 0], minlength=10)

    detail = ", ".join(f"{r}: {n}" for r, n in zip(reasons, skips) if n)
    print(f"skipped {skips.sum()} of {len(labels) + skips.sum()} frames"
          + (f" ({detail})" if detail else ""), file=sys.stderr)
    if not labels:
        print("no extractable frames", file=sys.stderr)
        return EXIT_EMPTY
    dataio.write_feature_csv(args.out, labels, np.concatenate(rows),
                             timestamp=not args.no_timestamp)
    print(f"wrote {len(labels)} feature rows to {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    from .stats import histogram, pearson_matrix, significance_report

    dataset = dataio.read_feature_csv(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = not args.no_timestamp

    report = significance_report(dataset)
    dataio.write_significance_csv(out_dir / "significance.csv", report, stamp)
    dataio.write_matrix_csv(out_dir / "pearson_matrix.csv",
                            dataset.feature_names, pearson_matrix(dataset),
                            stamp)
    for i, name in enumerate(dataset.feature_names):
        edges, counts = histogram(dataset.features[:, i], args.bins)
        dataio.write_histogram_csv(out_dir / f"hist_{name}.csv",
                                   edges, counts, stamp)
    print(f"wrote reports for {dataset.n} rows to {out_dir}")
    return EXIT_OK


def _forest_params(args) -> ForestParams:
    return ForestParams(
        n_trees=args.trees,
        max_depth=args.max_depth,
        min_samples_split=args.min_samples_split,
        features_per_split=args.features_per_split,
    )


def _trainers(args, params):
    available = {
        "forest": lambda ds, s: train_forest(ds, params, s),
        "tree": lambda ds, s: train_tree(
            ds, max_depth=args.max_depth,
            min_samples_split=args.min_samples_split, seed=s),
        "knn": lambda ds, s: train_knn(ds, args.knn_k),
        "logreg": lambda ds, s: logistic_regression_train(ds, seed=s),
    }
    chosen = [c.strip() for c in args.classifiers.split(",") if c.strip()]
    bad = [c for c in chosen if c not in available]
    if bad:
        raise ConfigError(f"unknown classifiers: {', '.join(bad)}")
    return [(name, available[name]) for name in chosen]


def cmd_train_eval(args) -> int:
    dataset = dataio.read_feature_csv(args.input)
    if args.features_mask:
        dataset = dataset.select_features(_parse_feature_mask(args.features_mask))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = not args.no_timestamp
    params = _forest_params(args)

    metric_rows = []
    for name, trainer in _trainers(args, params):
        result = evaluate(dataset, trainer, args.folds, args.seed)
        for fold, acc in enumerate(result.fold_accuracies):
            metric_rows.append((name, fold, acc))
        metric_rows.append((name, "mean", result.mean_accuracy))
        dataio.write_confusion_csv(out_dir / f"confusion_{name}.csv",
                                   result.confusion, dataset.label_names,
                                   stamp)
        print(f"{name}: mean accuracy {result.mean_accuracy:.4f}")

    best_params = params
    if args.search:
        grid = HyperparamGrid(iterations=args.iterations)
        best_params, best_result = random_grid_search(
            dataset, grid, args.folds, args.seed)
        metric_rows.append(("forest_search", "mean", best_result.mean_accuracy))
        dataio.atomic_write_text(
            out_dir / "best_params.json",
            json.dumps(dataclasses.asdict(best_params), sort_keys=True) + "\n")
        print(f"search best: {best_params} "
              f"mean accuracy {best_result.mean_accuracy:.4f}")

    dataio.write_metrics_csv(out_dir / "metrics.csv", metric_rows, stamp,
                             seed=args.seed)
    model = train_forest(dataset, best_params, args.seed)
    save_model(model, out_dir / "model.txt")
    if model.importances is not None:
        dataio.write_importances_csv(out_dir / "importances.csv",
                                     dataset.feature_names,
                                     model.importances, stamp)
    return EXIT_OK


def cmd_explain(args) -> int:
    model = load_model(args.model)
    dataset = dataio.read_feature_csv(args.input)
    if tuple(model.feature_names) != tuple(dataset.feature_names):
        columns = [dataset.feature_names.index(n) for n in model.feature_names]
        dataset = dataset.select_features(columns)
    if not 0 <= args.row < dataset.n:
        raise ConfigError(
            f"--row {args.row} out of range for {dataset.n} rows")
    stats = FeatureStats.from_features(dataset.features)
    config = ExplainConfig(
        n_perturbations=args.n_perturbations,
        kernel_width=args.kernel_width,
        ridge_lambda=args.ridge_lambda,
    )
    explanation = explain_instance(model, dataset.features[args.row],
                                   config, stats, seed=args.seed)
    label_name = model.label_names[explanation.predicted_class]
    dataio.write_explanation_csv(args.out, explanation,
                                 dataset.feature_names, label_name,
                                 timestamp=not args.no_timestamp)
    print(f"row {args.row}: predicted {label_name} "
          f"fidelity {explanation.local_fidelity:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radiofp",
                     description="radiometric device identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dataset", help="simulate device captures")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--devices", type=int, default=2)
    g.add_argument("--frames-per-device", type=int, default=15000)
    g.add_argument("--frame-len", type=int, default=DEFAULT_FRAME_LEN)
    g.add_argument("--snr-db", type=float, default=20.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--profiles", help="JSON file with a list of profiles")
    g.add_argument("--lead-in", type=int, default=0,
                   help="zero samples before the first frame")
    g.add_argument("--no-timestamp", action="store_true")
    g.set_defaults(func=cmd_gen_dataset)

    e = sub.add_parser("extract", help="IQ capture -> feature CSV")
    e.add_argument("--input", required=True,
                   help="manifest.csv or a single .iq file")
    e.add_argument("--etalon", required=True)
    e.add_argument("--label", default="0",
                   help="device label for single-file input")
    e.add_argument("--sync-threshold", type=float,
                   default=DEFAULT_SYNC_THRESHOLD)
    e.add_argument("--out", required=True)
    e.add_argument("--no-timestamp", action="store_true")
    e.set_defaults(func=cmd_extract)

    s = sub.add_parser("stats", help="significance/correlation/histograms")
    s.add_argument("--input", required=True, help="feature CSV")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--bins", type=int, default=50)
    s.add_argument("--no-timestamp", action="store_true")
    s.set_defaults(func=cmd_stats)

    t = sub.add_parser("train-eval", help="cross-validate classifiers")
    t.add_argument("--input", required=True, help="feature CSV")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--folds", type=int, default=4)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--classifiers", default="forest,tree,knn,logreg")
    t.add_argument("--trees", type=int, default=100)
    t.add_argument("--max-depth", type=lambda v: None if v == "none" else int(v),
                   default=None)
    t.add_argument("--min-samples-split", type=int, default=2)
    t.add_argument("--features-per-split", type=int, default=None)
    t.add_argument("--knn-k", type=int, default=5)
    t.add_argument("--features", dest="features_mask", metavar="MASK",
                   default=None,
                   help="parameter numbers to keep, e.g. 2,8,9")
    t.add_argument("--search", action="store_true",
                   help="randomized hyperparameter search for the forest")
    t.add_argument("--iterations", type=int, default=40)
    t.add_argument("--no-timestamp", action="store_true")
    t.set_defaults(func=cmd_train_eval)

    x = sub.add_parser("explain", help="local surrogate for one row")
    x.add_argument("--model", required=True)
    x.add_argument("--input", required=True, help="feature CSV")
    x.add_argument("--row", type=int, required=True)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--n-perturbations", type=int, default=5000)
    x.add_argument("--kernel-width", type=float, default=None)
    x.add_argument("--ridge-lambda", type=float, default=1e-3)
    x.add_argument("--out", required=True)
    x.add_argument("--no-timestamp", action="store_true")
    x.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    # before ValueError: DataFormatError and UnicodeDecodeError subclass it
    except (OSError, RadioFpError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
