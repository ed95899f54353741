"""On-disk formats.

IQ binary: headerless little-endian 32-bit floats, interleaved I,Q,I,Q,...
(the file length must be a multiple of 8 bytes).  An etalon file is the same
format with exactly 2L floats.

CSV files use ``\\n`` line endings and shortest round-trip decimal floats, so
a given dataset and seed always produce byte-identical output.  `write_csv`
renders every CSV; readers skip its ``#`` comment lines.  Every output file,
``model.txt`` and ``best_params.json`` included, is written to a temp file
and renamed over the target, so a crash never leaves a torn file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dataset import LabeledFeatureSet
from .errors import DataFormatError
from .features import FEATURE_NAMES
from .pipeline import ImpairmentProfile

FEATURE_CSV_HEADER = ["label", *FEATURE_NAMES]


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_iq(path, samples) -> None:
    x = np.asarray(samples, dtype=complex)
    inter = np.empty(2 * x.size, dtype="<f4")
    inter[0::2] = x.real
    inter[1::2] = x.imag
    atomic_write_bytes(path, inter.tobytes())


def read_iq(path) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 2:
        raise DataFormatError(
            f"{path}: interleaved I/Q float count must be even, got {raw.size}"
        )
    return raw[0::2].astype(float) + 1j * raw[1::2].astype(float)


def _cell(value) -> str:
    """Float -> repr, NaN or None -> ``undefined``, bool -> lower case."""
    if value is None or isinstance(value, float) and math.isnan(value):
        return "undefined"
    if isinstance(value, float):
        return repr(float(value))  # np.float64's own repr names its type
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def write_csv(path, rows, timestamp: bool = False, comments=()) -> None:
    """Atomically write ``# generated <iso-utc>``, ``# <comment>``s, rows."""
    buf = io.StringIO()
    if timestamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        buf.write(f"# generated {now}\n")
    for comment in comments:
        buf.write(f"# {comment}\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [_cell(v) for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def _read_csv_rows(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def write_feature_csv(path, labels, features, timestamp: bool = False) -> None:
    feats = np.asarray(features, dtype=float).tolist()
    rows = [[label, *row] for label, row in zip(labels, feats)]
    write_csv(path, [FEATURE_CSV_HEADER, *rows], timestamp)


def read_feature_csv(path) -> LabeledFeatureSet:
    rows = _read_csv_rows(path)
    if not rows or rows[0] != FEATURE_CSV_HEADER:
        raise DataFormatError(f"{path}: missing feature CSV header")
    if len(rows) < 2:
        raise DataFormatError(f"{path}: no feature rows")
    for i, r in enumerate(rows[1:], start=1):
        if len(r) != len(FEATURE_CSV_HEADER):
            raise DataFormatError(f"{path}: data row {i} has {len(r)} fields, "
                                  f"expected {len(FEATURE_CSV_HEADER)}")
    labels = [r[0] for r in rows[1:]]
    try:
        feats = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad feature value ({exc})") from exc
    if not np.all(np.isfinite(feats)):
        raise DataFormatError(f"{path}: non-finite feature value")
    return LabeledFeatureSet.from_rows(labels, feats)


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    file: str
    frames: int
    profile: ImpairmentProfile


def write_manifest(path, entries, timestamp: bool = False,
                   seed: int | None = None) -> None:
    rows = [["label", "file", "frames", "profile"]]
    for e in entries:
        rows.append([e.label, e.file, e.frames,
                     json.dumps(e.profile.to_json_dict(), sort_keys=True)])
    write_csv(path, rows, timestamp, [] if seed is None else [f"seed {seed}"])


def _profile(value, where: str) -> ImpairmentProfile:
    if not isinstance(value, dict):
        raise DataFormatError(f"{where}: profile is not a JSON object")
    try:
        return ImpairmentProfile.from_json_dict(value)
    except (LookupError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: bad profile ({exc})") from exc


def read_profiles(path) -> list:
    """A JSON list of profile objects, as ``gen-dataset --profiles`` takes."""
    try:
        raw = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(raw, list):
        raise DataFormatError(f"{path}: expected a JSON list of profiles")
    return [_profile(d, f"{path}: profile {i}") for i, d in enumerate(raw)]


def read_manifest(path) -> list:
    rows = _read_csv_rows(path)
    if not rows or rows[0] != ["label", "file", "frames", "profile"]:
        raise DataFormatError(f"{path}: missing manifest header")
    entries = []
    for i, r in enumerate(rows[1:], start=1):
        where = f"{path}: manifest row {i}"
        if len(r) != 4:
            raise DataFormatError(f"{where} has {len(r)} fields, expected 4")
        if not r[2].isascii() or not r[2].isdigit():
            raise DataFormatError(
                f"{where}: frames {r[2]!r} is not a non-negative integer")
        try:
            profile = json.loads(r[3])
        except ValueError:
            profile = None
        entries.append(ManifestEntry(label=r[0], file=r[1], frames=int(r[2]),
                                     profile=_profile(profile, where)))
    return entries


def write_significance_csv(path, report, timestamp: bool = False) -> None:
    rows = [[r.feature, r.pbcc, r.p_value, r.significant] for r in report.rows]
    write_csv(path, [["feature", "pbcc", "p_value", "significant"], *rows],
              timestamp)


def write_matrix_csv(path, names, values, timestamp: bool = False) -> None:
    rows = [[name, *row] for name, row in zip(names, values)]
    write_csv(path, [["feature", *names], *rows], timestamp)


def write_histogram_csv(path, edges, counts, timestamp: bool = False) -> None:
    write_csv(path, [["bin_left", "bin_right", "count"],
                     *zip(edges[:-1], edges[1:], counts)], timestamp)


def write_metrics_csv(path, metric_rows, timestamp: bool = False,
                      seed: int | None = None) -> None:
    """metric_rows: iterable of (classifier, fold, accuracy)."""
    write_csv(path, [["classifier", "fold", "accuracy"], *metric_rows],
              timestamp, [] if seed is None else [f"seed {seed}"])


def write_confusion_csv(path, confusion, label_names,
                        timestamp: bool = False) -> None:
    rows = [[name, *counts] for name, counts in zip(label_names, confusion)]
    write_csv(path, [["true\\predicted", *label_names], *rows], timestamp)


def write_importances_csv(path, feature_names, importances,
                          timestamp: bool = False) -> None:
    write_csv(path, [["feature", "importance"],
                     *zip(feature_names, importances)], timestamp)


def write_explanation_csv(path, explanation, feature_names, label_name,
                          timestamp: bool = False) -> None:
    """feature,weight rows sorted by |weight| descending, after a summary."""
    summary = (f"predicted_class={label_name}"
               f" fidelity={explanation.local_fidelity!r}"
               f" seed={explanation.seed}")
    order = np.argsort(-np.abs(explanation.weights), kind="stable")
    rows = [[feature_names[i], explanation.weights[i]] for i in order]
    write_csv(path, [["feature", "weight"], *rows], timestamp, [summary])
