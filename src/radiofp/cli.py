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
    cross_validate,
    derive_seed,
    load_model,
    logistic_regression_train,
    random_grid_search,
    save_model,
    stratified_kfold,
    train_forest,
    train_knn,
    train_tree,
)
from .dataset import FeatureStats
from .errors import DataFormatError, RadioFpError
from .explain import ExplainConfig, explain_instance
from .features import FEATURE_NAMES
from .parallel import fork_map
from .pipeline import (
    DEFAULT_FRAME_LEN,
    DEFAULT_SYNC_THRESHOLD,
    MAX_FRAME_LEN,
    MIN_ETALON_LEN,
    ImpairmentProfile,
    frames_per_block,
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


def _max_depth(text: str):
    """``--max-depth``: an integer, or ``none`` for no limit; the forest
    checks that the integer is at least 1."""
    if text == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1 or 'none', not {text!r}") from None


def _at_least(args, **least) -> None:
    """Raise a `ConfigError` for the first flag below its least value; the
    keyword ``knn_k=1`` checks ``--knn-k``."""
    for name, n in least.items():
        if getattr(args, name) < n:
            raise ConfigError(
                f"--{name.replace('_', '-')} must be at least {n}")


def _check_out_file(path) -> None:
    """Raise an `OSError` (exit 2) naming ``--out`` unless its directory
    exists and it is not a directory itself; called before any input is
    read, so a bad path costs no work."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(
            f"--out {path}: {out.parent} is not an existing directory")


def _device_blocks(etalon, profile, seed: int, dev: int, frames: int,
                   lead_in: int):
    """The stream of device ``dev`` in blocks of `frames_per_block` frames:
    ``lead_in`` zeros, then frame m = `simulate_device` of the etalon with
    seed ``derive_seed(seed, dev, m)``, for m = 0 .. frames - 1, one
    `simulate_device` call per block.  The bytes are a function of the
    arguments alone, so a stream is the same in whichever process
    `cmd_gen_dataset` writes it."""
    per_block = frames_per_block(etalon.size)
    block = per_block * etalon.size
    zeros = np.zeros(min(lead_in, block), dtype=complex)
    for lo in range(0, lead_in, block):
        yield zeros[:lead_in - lo]
    for first in range(0, frames, per_block):
        yield simulate_device(etalon, profile, [
            derive_seed(seed, dev, m)
            for m in range(first, min(frames, first + per_block))])


def cmd_gen_dataset(args) -> int:
    if not MIN_ETALON_LEN <= args.frame_len <= MAX_FRAME_LEN:
        raise ConfigError(f"--frame-len not in {MIN_ETALON_LEN}..{MAX_FRAME_LEN}")
    # derive_seed would alias seed -1 to 2^64 - 1.  The --snr-db floor
    # keeps the noise finite: near -760 dB it overflows the float32
    # samples, below about -3080 dB its power overflows a float
    _at_least(args, frames_per_device=1, lead_in=0, seed=0, snr_db=-300)
    profiles = (DEFAULT_PROFILES if args.profiles is None
                else dataio.read_profiles(args.profiles))
    if len(profiles) < 2:
        raise ConfigError("need at least 2 device profiles (--profiles)")
    profiles = [dataclasses.replace(p, snr_db=args.snr_db) for p in profiles]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    etalon = transnoise_etalon(args.frame_len)
    names = [f"device_{dev}.iq" for dev in range(len(profiles))]
    entries = [dataio.ManifestEntry(label=str(dev), file=name,
                                    frames=args.frames_per_device,
                                    profile=profile)
               for dev, (name, profile) in enumerate(zip(names, profiles))]
    # the devices are independent, so write_iq_files writes their streams
    # on the cores of the affinity mask; the first failing device's error
    # is raised, as a loop would.  The etalon, last so that device 0 stays
    # the calling process's share, and the manifest, written before any
    # file is renamed, join the streams' all-or-none set
    dataio.write_iq_files(
        [out_dir / name for name in names + ["etalon.iq"]],
        lambda i: ([etalon] if i == len(names) else
                   _device_blocks(etalon, profiles[i], args.seed, i,
                                  args.frames_per_device, args.lead_in)),
        then=lambda: dataio.write_manifest(
            out_dir / "manifest.csv", entries,
            timestamp=not args.no_timestamp, seed=args.seed))
    total = args.frames_per_device * len(profiles)
    print(f"wrote {len(profiles)} devices x {args.frames_per_device} frames "
          f"({total} total) to {out_dir}")
    return EXIT_OK


def cmd_extract(args) -> int:
    _check_out_file(args.out)
    dataio.check_label(args.label, "--label")
    etalon = dataio.read_iq(args.etalon)
    input_path = Path(args.input)
    if input_path.suffix == ".csv":
        jobs = [(e.label, input_path.parent / e.file, e.frames)
                for e in dataio.read_manifest(input_path)]
    else:
        jobs = [(args.label, input_path, None)]

    def read_stream(job):
        """A stream's finished feature rows as text, with what the calling
        process prints: the row count, the skips by reason, and the frames
        sync found and the last one's sample offset."""
        label, path, _ = job
        values, failed, dropped, lags = run_capture_pipeline(
            dataio.IqFile(path), etalon, threshold=args.sync_threshold)
        kept = values[failed < 0]
        skips = np.bincount(failed[failed >= 0] + 1, minlength=11)
        skips[0] = dropped.sum()
        return (dataio.render_feature_rows(label, kept),
                len(kept), skips, lags.size, int(lags[-1]))

    # the streams are independent: fork_map runs their jobs on the cores
    # of the affinity mask and raises the first failing stream's error, as
    # a loop would.  Every stream is read before the first stderr line, so
    # an error stays the only line
    results = fork_map(read_stream, jobs)
    reasons = ("zero gain",) + FEATURE_NAMES
    n_rows, skips = 0, np.zeros(len(reasons), dtype=np.int64)
    for (label, _, expected), (_, rows, stream_skips, found, last) in zip(
            jobs, results):
        if expected is not None and found < expected:
            print(f"device {label}: sync found {found} of {expected} "
                  f"frames, lost after sample {last + etalon.size}",
                  file=sys.stderr)
        n_rows += rows
        skips += stream_skips

    detail = ", ".join(f"{r}: {n}" for r, n in zip(reasons, skips) if n)
    print(f"skipped {skips.sum()} of {n_rows + skips.sum()} frames"
          + (f" ({detail})" if detail else ""), file=sys.stderr)
    if not n_rows:
        print("no extractable frames", file=sys.stderr)
        return EXIT_EMPTY
    dataio.write_feature_csv(args.out, [text for text, *_ in results],
                             timestamp=not args.no_timestamp)
    print(f"wrote {n_rows} feature rows to {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    from .stats import histogram, pearson_matrix, significance_report

    _at_least(args, bins=1)
    dataset = dataio.read_feature_csv(args.input)
    # every report is computed before the first write
    report = significance_report(dataset)
    correlations = pearson_matrix(dataset)
    try:
        histograms = [histogram(column, args.bins)
                      for column in dataset.features.T]
    except (ValueError, MemoryError) as exc:  # numpy's array size limits
        raise ConfigError(f"--bins {args.bins} is too large: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = not args.no_timestamp
    names = dataset.feature_names

    dataio.write_csv(out_dir / "significance.csv", [
        ["feature", "pbcc", "p_value", "significant"],
        *map(dataclasses.astuple, report)], stamp)
    dataio.write_csv(out_dir / "pearson_matrix.csv", [["feature", *names], *(
        [name, *row] for name, row in zip(names, correlations))], stamp)
    for name, (edges, counts) in zip(names, histograms):
        dataio.write_csv(out_dir / f"hist_{name}.csv", [
            ["bin_left", "bin_right", "count"],
            *zip(edges[:-1], edges[1:], counts)], stamp)
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
        "logreg": lambda ds, s: logistic_regression_train(ds),
    }
    chosen = [c.strip() for c in args.classifiers.split(",") if c.strip()]
    bad = [c for c in chosen if c not in available]
    if bad:
        raise ConfigError(f"unknown classifiers: {', '.join(bad)}")
    if not chosen or len(set(chosen)) < len(chosen):
        raise ConfigError(f"--classifiers {args.classifiers!r} must name "
                          "one or more classifiers, each once")
    return [(name, available[name]) for name in chosen]


def cmd_train_eval(args) -> int:
    # numpy's generators take no negative seed
    _at_least(args, seed=0, folds=2, knn_k=1)
    params = _forest_params(args)
    trainers = _trainers(args, params)
    mask = (None if args.features_mask is None
            else _parse_feature_mask(args.features_mask))
    grid = HyperparamGrid(iterations=args.iterations) if args.search else None
    dataset = dataio.read_feature_csv(args.input)
    if mask is not None:
        dataset = dataset.select_features(mask)
    # the flags checked against the data, before any work or write
    folds = stratified_kfold(dataset, args.folds, args.seed)
    smallest_train = dataset.n - max(f.size for f in folds)
    if "knn" in dict(trainers) and args.knn_k > smallest_train:
        raise ConfigError(f"--knn-k {args.knn_k} exceeds the smallest "
                          f"training fold ({smallest_train} rows)")
    if "logreg" in dict(trainers) and dataset.n_classes != 2:
        raise ConfigError("logistic regression needs exactly 2 classes, "
                          f"the table has {dataset.n_classes}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = not args.no_timestamp
    # every cross-validation, the search's too, runs before the first
    # write, so a failing fit leaves no output file
    results = cross_validate(dataset, [trainer for _, trainer in trainers],
                             args.folds, args.seed)
    best_params = params
    if grid is not None:
        best_params, best_result = random_grid_search(
            dataset, grid, args.folds, args.seed)

    labels = dataset.label_names
    metric_rows = [["classifier", "fold", "accuracy"]]
    for (name, _), result in zip(trainers, results):
        for fold, acc in enumerate(result.fold_accuracies):
            metric_rows.append((name, fold, acc))
        metric_rows.append((name, "mean", result.mean_accuracy))
        dataio.write_csv(out_dir / f"confusion_{name}.csv", [
            ["true\\predicted", *labels],
            *([t, *row] for t, row in zip(labels, result.confusion))], stamp)
        print(f"{name}: mean accuracy {result.mean_accuracy:.4f}")

    if grid is not None:
        metric_rows.append(("forest_search", "mean", best_result.mean_accuracy))
        dataio.atomic_write_bytes(out_dir / "best_params.json", json.dumps(
            dataclasses.asdict(best_params), sort_keys=True).encode() + b"\n")
        print(f"search best: {best_params} "
              f"mean accuracy {best_result.mean_accuracy:.4f}")

    dataio.write_csv(out_dir / "metrics.csv", metric_rows, stamp,
                     [f"seed {args.seed}"])
    model = train_forest(dataset, best_params, args.seed)
    save_model(model, out_dir / "model.txt")
    if model.importances is not None:
        dataio.write_csv(out_dir / "importances.csv", [
            ["feature", "importance"],
            *zip(dataset.feature_names, model.importances)], stamp)
    return EXIT_OK


def cmd_explain(args) -> int:
    _at_least(args, seed=0)  # numpy's generators take no negative seed
    config = ExplainConfig(
        n_perturbations=args.n_perturbations,
        kernel_width=args.kernel_width,
        ridge_lambda=args.ridge_lambda,
    )
    _check_out_file(args.out)
    model = load_model(args.model)
    dataset = dataio.read_feature_csv(args.input)
    if tuple(model.feature_names) != tuple(dataset.feature_names):
        absent = [n for n in model.feature_names
                  if n not in dataset.feature_names]
        if absent:
            raise DataFormatError(f"{args.input} lacks the model's feature "
                                  f"column {absent[0]}")
        columns = [dataset.feature_names.index(n) for n in model.feature_names]
        dataset = dataset.select_features(columns)
    if not 0 <= args.row < dataset.n:
        raise ConfigError(
            f"--row {args.row} out of range for {dataset.n} rows")
    stats = FeatureStats.from_features(dataset.features)
    try:
        explanation = explain_instance(model, dataset.features[args.row],
                                       config, stats, seed=args.seed)
    except (ValueError, MemoryError) as exc:  # numpy's array size limits
        raise ConfigError(f"--n-perturbations {args.n_perturbations} is too "
                          f"large: {exc}") from exc
    label_name = model.label_names[explanation.predicted_class]
    summary = (f"predicted_class={label_name} fidelity="
               f"{explanation.local_fidelity!r} seed={explanation.seed}")
    # the feature,weight rows, |weight| descending
    order = np.argsort(-np.abs(explanation.weights), kind="stable")
    dataio.write_csv(args.out, [["feature", "weight"], *(
        [dataset.feature_names[i], explanation.weights[i]] for i in order)],
        not args.no_timestamp, [summary])
    print(f"row {args.row}: predicted {label_name} "
          f"fidelity {explanation.local_fidelity:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radiofp",
                     description="radiometric device identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dataset", help="simulate device captures")
    g.add_argument("--out-dir", required=True)
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
    t.add_argument("--max-depth", type=_max_depth, default=None)
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
