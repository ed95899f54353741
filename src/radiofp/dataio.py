"""On-disk formats.

IQ binary: headerless little-endian 32-bit floats, interleaved I,Q,I,Q,...
(the file length must be a multiple of 8 bytes).  An etalon file is the same
format with exactly 2L floats.

CSV files use ``\\n`` line endings and shortest round-trip decimal floats, so
a given dataset and seed always produce byte-identical output.  Report
writers can prepend a ``# generated <iso-utc>`` comment; readers skip any
``#`` lines.  All writes go through a temp file + rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dataset import LabeledFeatureSet
from .errors import DataFormatError
from .pipeline import ImpairmentProfile

FEATURE_CSV_HEADER = ["label", "P1", "P2", "P3", "P4", "P5",
                      "P6", "P7", "P8", "P9", "P10"]


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


def _timestamp_line() -> str:
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# generated {now}\n"


def _render_csv(rows, timestamp: bool, seed: int | None = None) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(_timestamp_line())
    if seed is not None:
        buf.write(f"# seed {seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_csv_rows(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def write_feature_csv(path, labels, features, timestamp: bool = False) -> None:
    feats = np.asarray(features, dtype=float)
    rows = [FEATURE_CSV_HEADER]
    for label, row in zip(labels, feats):
        rows.append([str(label)] + [repr(float(v)) for v in row])
    atomic_write_text(path, _render_csv(rows, timestamp))


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
        rows.append([e.label, e.file, str(e.frames),
                     json.dumps(e.profile.to_json_dict(), sort_keys=True)])
    atomic_write_text(path, _render_csv(rows, timestamp, seed))


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
        if not isinstance(profile, dict):
            raise DataFormatError(f"{where}: profile is not a JSON object")
        try:
            profile = ImpairmentProfile.from_json_dict(profile)
        except (TypeError, ValueError, IndexError) as exc:
            raise DataFormatError(f"{where}: bad profile ({exc})") from exc
        entries.append(ManifestEntry(label=r[0], file=r[1],
                                     frames=int(r[2]), profile=profile))
    return entries


def write_significance_csv(path, report, timestamp: bool = False) -> None:
    rows = [["feature", "pbcc", "p_value", "significant"]]
    for fr in report.rows:
        if fr.pbcc is None:
            rows.append([fr.feature, "undefined", "undefined", "undefined"])
        else:
            rows.append([fr.feature, repr(fr.pbcc), repr(fr.p_value),
                         str(fr.significant).lower()])
    atomic_write_text(path, _render_csv(rows, timestamp))


def write_matrix_csv(path, matrix, timestamp: bool = False) -> None:
    names = list(matrix.feature_names)
    rows = [["feature"] + names]
    for i, name in enumerate(names):
        row = [name]
        for j in range(len(names)):
            row.append(repr(float(matrix.values[i, j]))
                       if matrix.defined[i, j] else "undefined")
        rows.append(row)
    atomic_write_text(path, _render_csv(rows, timestamp))


def write_histogram_csv(path, edges, counts, timestamp: bool = False) -> None:
    rows = [["bin_left", "bin_right", "count"]]
    for i, count in enumerate(counts):
        rows.append([repr(float(edges[i])), repr(float(edges[i + 1])),
                     str(int(count))])
    atomic_write_text(path, _render_csv(rows, timestamp))


def write_metrics_csv(path, metric_rows, timestamp: bool = False,
                      seed: int | None = None) -> None:
    """metric_rows: iterable of (classifier, fold, accuracy)."""
    rows = [["classifier", "fold", "accuracy"]]
    for clf, fold, acc in metric_rows:
        rows.append([clf, str(fold), repr(float(acc))])
    atomic_write_text(path, _render_csv(rows, timestamp, seed))


def write_confusion_csv(path, confusion, label_names,
                        timestamp: bool = False) -> None:
    names = list(label_names)
    rows = [["true\\predicted"] + names]
    for i, name in enumerate(names):
        rows.append([name] + [str(int(v)) for v in confusion[i]])
    atomic_write_text(path, _render_csv(rows, timestamp))


def write_importances_csv(path, feature_names, importances,
                          timestamp: bool = False) -> None:
    rows = [["feature", "importance"]]
    for name, value in zip(feature_names, importances):
        rows.append([name, repr(float(value))])
    atomic_write_text(path, _render_csv(rows, timestamp))


def write_explanation_csv(path, explanation, feature_names, label_name,
                          timestamp: bool = False) -> None:
    """feature,weight rows sorted by |weight| descending, plus a summary."""
    header = (f"# predicted_class={label_name}"
              f" fidelity={explanation.local_fidelity!r}"
              f" seed={explanation.seed}\n")
    order = np.argsort(-np.abs(explanation.weights), kind="stable")
    rows = [["feature", "weight"]]
    for i in order:
        rows.append([feature_names[i], repr(float(explanation.weights[i]))])
    body = _render_csv(rows, timestamp)
    # summary comment goes after the optional timestamp, before the header
    if timestamp:
        first, rest = body.split("\n", 1)
        body = first + "\n" + header + rest
    else:
        body = header + body
    atomic_write_text(path, body)
