"""On-disk formats.

IQ binary: headerless little-endian 32-bit floats, interleaved I,Q,I,Q,...,
which is numpy's little-endian complex64 (``<c8``) read and written as is
(the file length must be a multiple of 8 bytes, and every float finite).  An
etalon file is the same format with exactly 2L floats.

CSV files use ``\\n`` line endings and shortest round-trip decimal floats, so
a given dataset and seed always produce byte-identical output.  A cell is
quoted, its quotes doubled, when it holds a comma, a quote, ``\\n`` or
``\\r`` (`_csv_field`).  This module holds the formats that are also read
back: IQ, the manifest and the feature table.  `render_feature_rows` turns
one stream's feature rows into the table's text, in the process that
computed them (`extract` renders each stream's rows in that stream's job),
and `write_feature_csv` writes the header and the rendered texts.  Each
report that a command writes is one `write_csv` call in that command.
Readers skip ``#`` comment lines, so `check_label` refuses a label that
starts with ``#``, and one with a line break.

Every output file, ``model.txt`` and ``best_params.json`` included, is
written through `_atomic_paths`: into a temp file as it is produced, then
renamed over the target, so a crash never leaves a torn file.
`write_iq_files` writes several ``.iq`` files that way at once, all or none,
on the cores of the affinity mask: each is written, possibly by a forked
child, into a temp file that the calling process names, and once every
write has ended the calling process renames them all, or removes them all
if one failed.  A file written atomically by its ``then`` callback, as
`gen-dataset` writes its manifest, joins that set.
"""

from __future__ import annotations

import array
import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dataset import LabeledFeatureSet
from .errors import DataFormatError
from .features import FEATURE_NAMES
from .parallel import fork_map
from .pipeline import ImpairmentProfile

FEATURE_CSV_HEADER = ["label", *FEATURE_NAMES]
_CSV_BLOCK_ROWS = 1 << 12  # feature rows turned into Python floats at once
_NEEDS_QUOTES = re.compile('[,"\n\r]').search


@contextmanager
def _atomic_paths(paths):
    """Yield ``<name>.tmp<pid>`` for each of ``paths``, with this process's
    pid; rename each over its path once the block ends, or remove every
    one left on any exception, so each path is either its whole new file
    or left as it was."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(p.name + f".tmp{os.getpid()}") for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    with _atomic_paths([path]) as (tmp,):
        tmp.write_bytes(data)


def _write_iq(fh, blocks, path) -> None:
    """Write the samples of each complex block to ``fh`` in turn, so only
    one block is held as ``<c8`` at a time.  A sample that is not finite as
    ``<c8`` (a finite complex beyond float32's range becomes inf) raises
    `DataFormatError` naming ``path``."""
    written = 0
    for block in blocks:
        with np.errstate(over="ignore"):  # the check below reports it
            samples = np.asarray(block, dtype="<c8")
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise DataFormatError(
                f"{path}: sample {written + bad[0]} is not finite as "
                "32-bit floats")
        fh.write(samples)
        written += samples.size


def write_iq_files(paths, blocks_of, then=None) -> None:
    """Write the samples of each complex block of ``blocks_of(i)`` in turn
    (`_write_iq`) to ``paths[i]``, for every i, all or none: on an error
    every path is left as it was.  `parallel.fork_map` maps the indices,
    so the files are written on the cores of the affinity mask, each call
    into its file's temp file, opened by path.  The temp files are renamed,
    or all removed if the map raises, only once it has returned or raised,
    and fork_map reaps or kills every child before that, so a file is never
    renamed or removed before its last write.  The first failing file's
    error, in order, is raised; it names the path, never a temp file.
    ``then()``, if given, runs after the map and before the renames, so
    an error it raises also leaves every path as it was."""
    with _atomic_paths(paths) as tmps:
        def write(i):
            with open(tmps[i], "wb") as fh:
                _write_iq(fh, blocks_of(i), paths[i])

        fork_map(write, range(len(tmps)))
        if then is not None:
            then()


def write_iq(path, samples) -> None:
    write_iq_files([path], lambda _: [samples])


class IqFile:
    """The samples of an ``.iq`` file, read on demand.

    ``size`` is the sample count, and ``f.read_into(start, out)`` fills a
    complex array with the samples from ``start`` on.  A file whose length
    is not a whole number of samples, a non-finite sample in a range read,
    or a file that ends before a range read, raises `DataFormatError`.
    """

    def __init__(self, path):
        self.path = path
        nbytes = os.path.getsize(path)
        if nbytes % 8:
            raise DataFormatError(
                f"{path}: {nbytes} bytes is not a whole number of 8-byte "
                "I/Q samples")
        self.size = nbytes // 8

    def read_into(self, start: int, out: np.ndarray) -> None:
        with open(self.path, "rb") as fh:
            fh.seek(8 * start)
            raw = np.fromfile(fh, dtype="<c8", count=out.size)
        if raw.size < out.size:
            raise DataFormatError(f"{self.path}: file ended at sample "
                                  f"{start + raw.size}, expected {self.size}")
        bad = np.flatnonzero(~np.isfinite(raw))
        if bad.size:
            raise DataFormatError(
                f"{self.path}: sample {start + bad[0]} is not finite")
        # I + 1j*Q without full-size temporaries; addition commutes, so
        # the bits, signed zeros included, are that expression's
        np.multiply(raw.imag, 1j, out=out)
        out += raw.real


def read_iq(path) -> np.ndarray:
    """Every sample of an ``.iq`` file, as `IqFile` reads them."""
    f = IqFile(path)
    out = np.empty(f.size, dtype=complex)
    f.read_into(0, out)
    return out


def _cell(value) -> str:
    """Float -> repr, NaN or None -> ``undefined``, bool -> lower case."""
    if value is None or isinstance(value, float) and math.isnan(value):
        return "undefined"
    if isinstance(value, float):
        return repr(float(value))  # np.float64's own repr names its type
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


@contextmanager
def _csv_file(path, timestamp: bool = False, comments=()):
    """Yield the atomic text file of a CSV table, after its ``# generated
    <iso-utc>`` and ``# <comment>`` lines."""
    with _atomic_paths([path]) as (tmp,), \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        if timestamp:
            now = datetime.now(timezone.utc).isoformat(timespec="seconds")
            fh.write(f"# generated {now}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        yield fh


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, its quotes doubled, if it holds a
    comma, a quote or a line break.  `csv.writer` under a ``\\n`` line
    terminator leaves a bare ``\\r`` unquoted, which `csv.reader` reads as
    the end of the row."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(cells) -> str:
    """One CSV line; a row of one empty cell is ``""``, as `csv.writer`
    writes it, so that it reads back as one field."""
    return (",".join(map(_csv_field, cells)) or '""') + "\n"


def write_csv(path, rows, timestamp: bool = False, comments=()) -> None:
    """Atomically write ``# generated <iso-utc>``, ``# <comment>``s, rows;
    each row goes to the file as ``rows`` yields it."""
    with _csv_file(path, timestamp, comments) as fh:
        for row in rows:
            fh.write(_csv_row(map(_cell, row)))


def check_label(label: str, where: str) -> None:
    """Raise `DataFormatError` if ``label`` cannot start a CSV row: a label
    is written into CSV rows and ``#`` comment lines, where a ``\\n`` or
    ``\\r`` would start a line of its own, and a row that starts with
    ``#`` is read as a comment."""
    if "\n" in label or "\r" in label:
        raise DataFormatError(f"{where} {label!r} holds a line break")
    if label.startswith("#"):
        raise DataFormatError(
            f"{where} {label!r} starts with '#', which marks a comment line")


def render_feature_rows(label, features) -> str:
    """The feature table's rows of one stream, every row labelled
    ``label``, as `write_csv` renders them: the label cell, rendered once,
    then the shortest round-trip ``repr`` of each value, NaN as
    ``undefined``.  The values become Python floats ``_CSV_BLOCK_ROWS``
    rows at a time."""
    feats = np.asarray(features, dtype=float)
    cell = _csv_field(_cell(label))
    blocks = []
    for lo in range(0, len(feats), _CSV_BLOCK_ROWS):
        lines = []
        for row in feats[lo:lo + _CSV_BLOCK_ROWS].tolist():
            # no other float repr holds "nan"
            values = ",".join(map(repr, row)).replace("nan", "undefined")
            lines.append(f"{cell},{values}\n")
        blocks.append("".join(lines))
    return "".join(blocks)


def write_feature_csv(path, texts, timestamp: bool = False) -> None:
    """Atomically write the feature table: its header, then each of
    ``texts``, rows that `render_feature_rows` rendered, as ``texts``
    yields it."""
    with _csv_file(path, timestamp) as fh:
        fh.write(_csv_row(FEATURE_CSV_HEADER))
        fh.writelines(texts)


def read_feature_csv(path) -> LabeledFeatureSet:
    """The table `write_feature_csv` writes, read in one pass: each value
    goes through `float` into one float64 buffer, and a run of rows of one
    label shares one label string, so no list per row is kept.

    The whole file is read before a check fails, and the checks keep the
    order of checking a table read whole: a missing header, no rows, the
    first row of other than 11 fields, the first value `float` rejects,
    the first label `check_label` refuses (run only where the label
    changes), the first non-finite value, then the first column
    whose statistics can overflow.  A value's row and column are found
    only once it fails."""
    width = len(FEATURE_CSV_HEADER)
    labels, values = [], array.array("d")
    label = short = bad = broken = None
    n_rows = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(ln for ln in fh if not ln.startswith("#"))
        try:
            header = next(rows, None)
            for n_rows, r in enumerate(rows, start=1):
                if len(r) != width:
                    short = short or (f"{path}: data row {n_rows} has "
                                      f"{len(r)} fields, expected {width}")
                elif short is None and bad is None:
                    try:
                        values.extend(map(float, r[1:]))
                    except ValueError:
                        bad = n_rows, r
                    if r[0] != label:
                        label = r[0]
                        try:
                            check_label(label,
                                        f"{path}: data row {n_rows}: label")
                        except DataFormatError as exc:
                            broken = broken or exc
                    labels.append(label)
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise DataFormatError(f"{path}: {exc}") from exc
    if header != FEATURE_CSV_HEADER:
        raise DataFormatError(f"{path}: missing feature CSV header")
    if n_rows == 0:
        raise DataFormatError(f"{path}: no feature rows")
    if short is not None:
        raise DataFormatError(short)
    if bad is not None:
        row, r = bad
        for col, value in enumerate(r[1:], 1):  # the first value it rejects
            try:
                float(value)
            except ValueError:
                break
        raise DataFormatError(f"{path}: data row {row}: {header[col]} value "
                              f"{r[col]!r} is not a number")
    if broken:
        raise broken
    feats = np.frombuffer(values).reshape(n_rows, width - 1)
    if not np.all(np.isfinite(feats)):
        row, col = divmod(int(np.argmin(np.isfinite(feats))), width - 1)
        raise DataFormatError(f"{path}: data row {row + 1}: "
                              f"{header[col + 1]} value is not finite")
    # every mean, variance and Pearson sum of a column, over any of its
    # rows, is at most n max|v| or n (max - min)^2 in size, and
    # `stats.pearson` multiplies two of the latter
    hi, lo = feats.max(axis=0), feats.min(axis=0)
    with np.errstate(over="ignore"):
        spread = n_rows * np.square(hi - lo)
        too_large = ~(np.isfinite(n_rows * np.maximum(hi, -lo))
                      & np.isfinite(spread * spread))
    if too_large.any():
        raise DataFormatError(
            f"{path}: {header[int(np.argmax(too_large)) + 1]} values are "
            "too large: the column's statistics overflow a float")
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # a "#" line is a comment only between rows: inside a quoted field
        # (a label's), after a line with an odd number of quotes, it is data
        lines, quoted = [], False
        for ln in fh:
            if quoted or not ln.startswith("#"):
                lines.append(ln)
                quoted ^= ln.count('"') % 2 == 1
    try:
        rows = list(csv.reader(lines))
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise DataFormatError(f"{path}: {exc}") from exc
    if not rows or rows[0] != ["label", "file", "frames", "profile"]:
        raise DataFormatError(f"{path}: missing manifest header")
    entries = []
    for i, r in enumerate(rows[1:], start=1):
        where = f"{path}: manifest row {i}"
        if len(r) != 4:
            raise DataFormatError(f"{where} has {len(r)} fields, expected 4")
        check_label(r[0], f"{where}: label")
        if not r[2].isascii() or not r[2].isdigit():
            raise DataFormatError(
                f"{where}: frames {r[2]!r} is not a non-negative integer")
        try:
            frames = int(r[2])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise DataFormatError(f"{where}: frames has {len(r[2])} digits, "
                                  "more than Python converts") from None
        try:
            profile = json.loads(r[3])
        except ValueError:
            profile = None
        entries.append(ManifestEntry(label=r[0], file=r[1], frames=frames,
                                     profile=_profile(profile, where)))
    if not entries:
        raise DataFormatError(f"{path}: manifest lists no devices")
    return entries
