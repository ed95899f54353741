import csv
import dataclasses
import io
import math
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from radiofp import dataio, stats
from radiofp.errors import DataFormatError
from radiofp.pipeline import ImpairmentProfile


def test_iq_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=257) + 1j * rng.normal(size=257)
    path = tmp_path / "x.iq"
    dataio.write_iq(path, x)
    assert path.stat().st_size == 257 * 2 * 4
    back = dataio.read_iq(path)
    np.testing.assert_allclose(back, x, atol=1e-6)  # float32 quantization


# a float64 value and the little-endian float32 bytes it rounds to (nearest,
# ties to even), written out by hand
_FLOAT32_BYTES = [
    (0.0, "00000000"),
    (-0.0, "00000080"),
    (2.0 ** -149, "01000000"),  # the smallest subnormal
    (-3 * 2.0 ** -149, "03000080"),
    (2.0 ** -126 - 2.0 ** -149, "ffff7f00"),  # the largest subnormal
    (1.5 * 2.0 ** -149, "02000000"),  # a subnormal tie, rounded up to even
    (2.0 ** -150, "00000000"),  # a tie rounded down to zero
    (-(2.0 ** -150), "00000080"),  # and to minus zero
    (0.1, "cdcccc3d"),
    (1 + 2.0 ** -24, "0000803f"),  # a tie, rounded down to even
    (1 + 3 * 2.0 ** -24, "0200803f"),  # a tie, rounded up to even
    (3.4028234663852886e38, "ffff7f7f"),  # the largest finite float32
    (-3.4028234663852886e38, "ffff7fff"),
]


def test_write_iq_bytes_equal_hand_interleaved_float32(tmp_path):
    values = [v for v, _ in _FLOAT32_BYTES]
    hexes = [h for _, h in _FLOAT32_BYTES]
    # every value as I, and as Q next to each other value as I
    i_vals = values + values[::-1]
    q_vals = values[::-1] + values
    expected = bytes.fromhex("".join(
        hi + hq for hi, hq in zip(hexes + hexes[::-1], hexes[::-1] + hexes)))
    samples = [complex(i, q) for i, q in zip(i_vals, q_vals)]
    path = tmp_path / "x.iq"
    dataio.write_iq(path, np.array(samples))
    assert path.read_bytes() == expected
    # blocks of a list, a complex array and a real array with Q all +0.0
    blocks = [samples[:5], np.array(samples[5:13]), np.array(values)]
    dataio.write_iq_files([path], lambda _: blocks)
    assert path.read_bytes() == expected[:8 * 13] + bytes.fromhex(
        "".join(h + "00000000" for h in hexes))


def test_iq_rejects_odd_float_count(tmp_path):
    path = tmp_path / "bad.iq"
    path.write_bytes(b"\x00" * 12)  # 3 floats
    with pytest.raises(DataFormatError):
        dataio.read_iq(path)


def _read(f, start, stop):
    """Samples ``start .. stop - 1`` of an `IqFile`, through read_into."""
    out = np.empty(stop - start, dtype=complex)
    f.read_into(start, out)
    return out


def _floats(*values) -> bytes:
    return np.array(values, dtype="<f4").tobytes()


@pytest.mark.parametrize("tail, message", [
    (bytes(2), "not a whole number"),
    (_floats(0.0, np.nan), "sample 257 is not finite"),
    (_floats(-np.inf, 1.0), "sample 257 is not finite"),
])
def test_iq_rejects_partial_and_non_finite_samples(tail, message, tmp_path):
    path = tmp_path / "bad.iq"
    dataio.write_iq(path, np.ones(257))
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(DataFormatError, match=message):
        dataio.read_iq(path)
    with pytest.raises(DataFormatError, match=message):
        f = dataio.IqFile(path)
        _read(f, 200, f.size)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1])
def test_iq_read_names_first_non_finite_sample_of_its_block(value, part,
                                                            tmp_path):
    """A read names the first non-finite sample of its range, in either
    part: as the range's first sample, its last, or the first of two; a
    range between the bad samples reads as written."""
    raw = np.ones((300, 2), dtype="<f4")
    raw[[40, 41, 200], part] = value
    path = tmp_path / "bad.iq"
    path.write_bytes(raw.tobytes())
    f = dataio.IqFile(path)
    for start, stop, bad in ((40, 60, 40), (41, 45, 41), (30, 41, 40),
                             (30, 42, 40), (100, 201, 200), (0, 300, 40)):
        with pytest.raises(DataFormatError,
                           match=f": sample {bad} is not finite$"):
            _read(f, start, stop)
    assert _read(f, 42, 200).tobytes() == np.full(158, 1 + 1j).tobytes()


def test_iq_file_truncated_after_open(tmp_path):
    """A file that shrinks after IqFile measured it raises DataFormatError
    where the read runs out, not numpy's broadcast error."""
    path = tmp_path / "x.iq"
    dataio.write_iq(path, np.arange(1000.0))
    f = dataio.IqFile(path)
    path.write_bytes(path.read_bytes()[:8 * 450 + 4])  # and half a sample
    assert _read(f, 100, 450).tobytes() == np.arange(100.0, 450.0).astype(
        complex).tobytes()
    for start, stop in ((0, 1000), (300, 460), (449, 451)):
        with pytest.raises(DataFormatError,
                           match="file ended at sample 450, expected 1000"):
            _read(f, start, stop)
    with pytest.raises(DataFormatError, match="ended at sample 450"):
        f.read_into(440, np.empty(20, dtype=complex))


def test_iq_file_blocks_equal_read_iq(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "x.iq"
    dataio.write_iq(path, rng.normal(size=1000) + 1j * rng.normal(size=1000))
    whole = dataio.read_iq(path)
    raw = np.fromfile(path, dtype="<f4")
    assert whole.tobytes() == (raw[0::2].astype(float)
                               + 1j * raw[1::2].astype(float)).tobytes()
    f = dataio.IqFile(path)
    assert f.size == 1000
    assert _read(f, 0, f.size).tobytes() == whole.tobytes()
    for start, stop in ((0, 1), (6, 8), (13, 700), (990, 1000), (500, 500)):
        assert _read(f, start, stop).tobytes() == whole[start:stop].tobytes()


def test_iq_file_signed_zeros_match_i_plus_1j_q(tmp_path):
    # every I/Q pairing of +-0.0 and +-1.5, read whole and in ranges
    values = np.array([0.0, -0.0, 1.5, -1.5], dtype="<f4")
    pairs = np.stack(np.meshgrid(values, values), axis=-1).reshape(-1)
    raw = np.concatenate([pairs, pairs[::-1]])
    path = tmp_path / "zeros.iq"
    path.write_bytes(raw.tobytes())
    expected = raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
    f = dataio.IqFile(path)
    assert f.size == 32
    for start, stop in ((0, 32), (3, 12), (5, 6), (4, 31)):
        np.testing.assert_array_equal(_read(f, start, stop).view(np.uint64),
                                      expected[start:stop].view(np.uint64))


def _label_runs(labels) -> list:
    """``(lo, hi)`` of each run of one label object in ``labels``."""
    starts = [i for i, label in enumerate(labels)
              if i == 0 or label is not labels[i - 1]]
    return list(zip(starts, starts[1:] + [len(labels)]))


def _write_table(path, labels, feats, timestamp=False):
    """The feature table of ``labels`` and ``feats``, rendered as extract
    renders it, one stream's rows per run of one label object."""
    dataio.write_feature_csv(path, [
        dataio.render_feature_rows(labels[lo], feats[lo:hi])
        for lo, hi in _label_runs(labels)], timestamp)


def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(20, 10))
    labels = [str(v) for v in rng.integers(0, 2, size=20)]
    path = tmp_path / "features.csv"
    _write_table(path, labels, feats)
    ds = dataio.read_feature_csv(path)
    # shortest round-trip decimals: bit-exact restoration
    np.testing.assert_array_equal(ds.features, feats)
    assert [ds.label_names[i] for i in ds.labels] == labels


def test_feature_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "features.csv"
    _write_table(path, ["0", "1"], np.ones((2, 10)), timestamp=True)
    text = path.read_text()
    assert text.startswith("# generated ")
    ds = dataio.read_feature_csv(path)
    assert ds.n == 2


def test_feature_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataFormatError):
        dataio.read_feature_csv(path)


def test_feature_csv_quoted_labels_and_comment_lines(tmp_path):
    """Labels that write_feature_csv quotes come back as written, and a
    ``#`` line anywhere is skipped."""
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(9, 10))
    labels = ["a,b", 'say "hi"', "plain"] * 3
    path = tmp_path / "features.csv"
    _write_table(path, labels, feats, timestamp=True)
    lines = path.read_text().splitlines(keepends=True)
    assert '"a,b"' in lines[2] and '"say ""hi"""' in lines[3]
    path.write_text("".join(lines[:5] + ["# a note\n"] + lines[5:]))
    ds = dataio.read_feature_csv(path)
    np.testing.assert_array_equal(ds.features, feats)
    assert [ds.label_names[i] for i in ds.labels] == labels


_ROW = "0," + ",".join(["1.5"] * 10) + "\n"
_HEADER = "label,P1,P2,P3,P4,P5,P6,P7,P8,P9,P10\n"


def _row_with(*values):
    """A data row of 1.5s but for ``values``, (parameter number, text)
    pairs."""
    fields = ["1.5"] * 10
    for number, text in values:
        fields[number - 1] = text
    return "0," + ",".join(fields) + "\n"


@pytest.mark.parametrize("text, message", [
    ("", "missing feature CSV header"),
    ("# only a comment\n" + _ROW, "missing feature CSV header"),
    ("label,P1\n" + _ROW, "missing feature CSV header"),
    (_HEADER, "no feature rows"),
    (_HEADER + _ROW + "0,1.5\n", "data row 2 has 2 fields, expected 11"),
    (_HEADER + _ROW + "\n", "data row 2 has 0 fields, expected 11"),
    (_HEADER + _ROW.replace("1.5", "x", 1),
     "data row 1: P1 value 'x' is not a number"),
    (_HEADER + _ROW + _ROW.replace("1.5", "nan", 1),
     "data row 2: P1 value is not finite"),
    (_HEADER + _ROW.replace("1.5", "-inf", 1),
     "data row 1: P1 value is not finite"),
    # every row's field count is checked before any value: a short row
    # after a bad value is what is reported
    (_HEADER + _ROW.replace("1.5", "x", 1) + _ROW + "0,1\n",
     "data row 3 has 2 fields, expected 11"),
    # the first bad value in row order, then the non-finite check
    (_HEADER + _ROW.replace("1.5", "inf", 1) + _ROW.replace("1.5", "y", 1)
     + _ROW.replace("1.5", "z", 1),
     "data row 2: P1 value 'y' is not a number"),
    # a comment line is no data row; the first failing value of a row is
    # named, and a value float rejects ahead of an earlier non-finite one
    (_HEADER + _ROW + "# a note\n" + _ROW + _row_with((10, "abc")),
     "data row 3: P10 value 'abc' is not a number"),
    (_HEADER + _ROW + "# a note\n" + _ROW + _row_with((10, "1e999")),
     "data row 3: P10 value is not finite"),
    (_HEADER + _row_with((4, "nan"), (7, "q"), (9, "r")),
     "data row 1: P7 value 'q' is not a number"),
    (_HEADER + _row_with((9, "inf")) + _row_with((2, "nan")),
     "data row 1: P9 value is not finite"),
    # a column whose mean, variance or Pearson sums can overflow: n max|v|
    # (2e308), n (max - min)^2 (2e600), that squared (6.4e309); the
    # non-finite check comes first
    (_HEADER + _row_with((3, "1e308")) + _row_with((3, "-1e308")),
     "P3 values are too large: the column's statistics overflow a float"),
    (_HEADER + _row_with((2, "1e300")) + _ROW,
     "P2 values are too large: the column's statistics overflow a float"),
    (_HEADER + _row_with((5, "1e77")) + _row_with((5, "-1e77"), (6, "1e77")),
     "P5 values are too large: the column's statistics overflow a float"),
    (_HEADER + _row_with((3, "1e308")) + _row_with((3, "1e308"), (4, "nan")),
     "data row 2: P4 value is not finite"),
])
def test_feature_csv_error_messages(text, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as caught:
        dataio.read_feature_csv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_feature_csv_large_columns_keep_exact_statistics(tmp_path):
    # under the overflow rule: n (max - min)^2 = 4e153 for P1's 40
    # rows, so stats.pearson's product of two such sums stays finite
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(40, 10))
    feats[:, 0] = np.where(np.arange(40) % 2, 5e75, -5e75)
    feats[:, 1] = feats[:, 0] / 2
    path = tmp_path / "large.csv"
    _write_table(path, [str(i % 2) for i in range(40)], feats)
    ds = dataio.read_feature_csv(path)
    assert stats.pearson(ds.features[:, 0], ds.features[:, 1]) == 1.0


def test_feature_csv_read_memory(tmp_path):
    """A 30000-row table is read without a Python object per row or per
    value held at once: 2.4 MB of float64 values, under 12 MB at the
    peak."""
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(30000, 10))
    labels = ["0"] * 15000 + ["1"] * 15000
    path = tmp_path / "features.csv"
    _write_table(path, labels, feats)
    tracemalloc.start()
    try:
        ds = dataio.read_feature_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ds.features, feats)
    assert peak < 12e6, peak


def test_manifest_round_trip(tmp_path):
    entries = [
        dataio.ManifestEntry(
            label="0", file="device_0.iq", frames=100,
            profile=ImpairmentProfile(cubic_nonlinearity=0.05, snr_db=20.0),
        ),
        dataio.ManifestEntry(
            label="1", file="device_1.iq", frames=100,
            profile=ImpairmentProfile(dc_offset=1 - 2j),
        ),
    ]
    path = tmp_path / "manifest.csv"
    dataio.write_manifest(path, entries)
    assert dataio.read_manifest(path) == entries


def test_manifest_comments_only_between_rows(tmp_path):
    """A ``#`` line between rows is skipped, with quoted fields around it; a
    ``#`` line inside a quoted label is the label's, which a line break
    makes an error naming the row."""
    profile = ImpairmentProfile()
    entries = [dataio.ManifestEntry(label=label, file=f"d{i}.iq", frames=1,
                                    profile=profile)
               for i, label in enumerate(['x "1"', "y,2"])]
    path = tmp_path / "manifest.csv"
    dataio.write_manifest(path, entries, timestamp=True, seed=3)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[3].startswith('"x ""1"""') and lines[4].startswith('"y,2"')
    path.write_text("".join(lines[:4] + ['# a "note\n'] + lines[4:]))
    assert dataio.read_manifest(path) == entries
    for label in ("a\n#b", "a\r\n#b"):
        entries[1] = dataclasses.replace(entries[1], label=label)
        dataio.write_manifest(path, entries)
        with pytest.raises(DataFormatError, match=(
                rf"manifest row 2: label {re.escape(repr(label))} holds a "
                "line break$")):
            dataio.read_manifest(path)


def test_feature_csv_label_line_break_names_the_row(tmp_path):
    path = tmp_path / "features.csv"
    _write_table(path, ["0", "0", "a\nb", "a\nb", "c"], np.ones((5, 10)))
    with pytest.raises(DataFormatError, match=(
            r"data row 3: label 'a\\nb' holds a line break$")):
        dataio.read_feature_csv(path)


def test_label_starting_with_hash_is_refused_as_read(tmp_path):
    """A row that starts with '#' is a comment, so a label that starts with
    one can only be read quoted; the manifest and the feature table refuse
    it, naming the row."""
    path = tmp_path / "manifest.csv"
    path.write_text('label,file,frames,profile\n0,d0.iq,1,{}\n'
                    '"#1",d1.iq,1,{}\n#1,d1.iq,1,{}\n')
    with pytest.raises(DataFormatError) as caught:
        dataio.read_manifest(path)
    assert str(caught.value) == (f"{path}: manifest row 2: label '#1' "
                                 "starts with '#', which marks a comment line")
    path = tmp_path / "features.csv"
    path.write_text(_HEADER + _ROW + _ROW.replace("0", '"#a"', 1)
                    + "#" + _ROW)
    with pytest.raises(DataFormatError) as caught:
        dataio.read_feature_csv(path)
    assert str(caught.value) == (f"{path}: data row 2: label '#a' starts "
                                 "with '#', which marks a comment line")


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    dataio.atomic_write_bytes(path, b"new")
    assert path.read_text() == "new"
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


def _render_csv_reference(rows, timestamp=False, comments=()) -> bytes:
    """The whole-table renderer: every row into one string, then encoded."""
    buf = io.StringIO()
    if timestamp:
        now = dataio.datetime.now(timezone.utc).isoformat(timespec="seconds")
        buf.write(f"# generated {now}\n")
    for comment in comments:
        buf.write(f"# {comment}\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [dataio._cell(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


class _FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)


@pytest.mark.parametrize("timestamp", [False, True])
def test_write_csv_matches_whole_table_renderer(timestamp, tmp_path,
                                                monkeypatch):
    monkeypatch.setattr(dataio, "datetime", _FrozenClock)
    rows = [["name", "value", "flag"],
            ["plain", 0.1, True],
            ["a,comma", float("nan"), False],
            ['a "quote"', None, None],
            ["new\nline", np.float64(-2.5e-310), 7],
            ["\u00b5s", math.inf, np.int64(-3)],
            ["", 1e22, "undefined"]]
    comments = ["seed 4", "predicted_class=1 fidelity=0.5"]
    path = tmp_path / "t.csv"
    dataio.write_csv(path, iter(rows), timestamp, comments)
    want = _render_csv_reference(rows, timestamp, comments)
    assert path.read_bytes() == want
    assert b"undefined" in want
    assert want.startswith(b"# generated 2026-01-02T03:04:05+00:00\n") \
        == timestamp


def test_write_feature_csv_blocks_match_whole_table(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_CSV_BLOCK_ROWS", 7)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(30, 10))
    feats[3, 4] = np.nan
    labels = [f"dev{i // 12}" for i in range(30)]  # runs cut into blocks
    path = tmp_path / "features.csv"
    _write_table(path, labels, feats)
    rows = [[label, *row] for label, row in zip(labels, feats.tolist())]
    assert path.read_bytes() == _render_csv_reference(
        [dataio.FEATURE_CSV_HEADER, *rows])


def test_write_feature_csv_matches_csv_writer_cells(tmp_path, monkeypatch):
    """Labels that csv quotes, an empty label, labels of other types, runs
    of labels and equal labels that are distinct objects; NaN, +-inf, -0.0
    and extreme floats: the rows are the csv.writer + _cell rendering, byte
    for byte, whether the table is rendered as extract's stream jobs
    render it, one text per run of one label object, or with each run cut
    into two streams, empty streams among them."""
    monkeypatch.setattr(dataio, "datetime", _FrozenClock)
    monkeypatch.setattr(dataio, "_CSV_BLOCK_ROWS", 4)
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
              1e22, 1 / 3, 1e16]
    labels = ["a,b", "a,b", "a,b", "".join(["a", ",b"]), '"q"', '"q"', "",
              "", "banana", "banana", "banana", "new\nline", "\u00b5", 1,
              True, 1.5, np.nan]
    rng = np.random.default_rng(3)
    feats = rng.choice(values, size=(len(labels), 10))
    feats[0] = values
    runs = _label_runs(labels)
    assert len(runs) == 11  # the first three labels are one object
    halves = [cut for lo, hi in runs
              for cut in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))]
    assert any(lo == hi for lo, hi in halves)
    tables = {name: [(labels[lo], feats[lo:hi]) for lo, hi in cuts]
              for name, cuts in (("stream jobs", runs),
                                 ("runs cut in two", halves))}
    rows = [[label, *row] for label, row in zip(labels, feats.tolist())]
    for timestamp in (False, True):
        want = _render_csv_reference([dataio.FEATURE_CSV_HEADER, *rows],
                                     timestamp)
        for name, texts in tables.items():
            path = tmp_path / "features.csv"
            dataio.write_feature_csv(path, [
                dataio.render_feature_rows(lab, f) for lab, f in texts],
                timestamp)
            assert path.read_bytes() == want, (name, timestamp)
    for cell in (b'\n"a,b",undefined,inf,-inf,-0.0,', b'\n"""q""",',
                 b'\n,', b'\nbanana,', b'\ntrue,', b'\nundefined,'):
        assert cell in want


def test_bare_carriage_return_cells_are_quoted(tmp_path):
    """csv.writer under a \\n line terminator leaves a bare \\r unquoted,
    and csv.reader ends a row there: write_csv and the feature rows quote
    such a cell, so every row reads back as written.  A cell without one
    is rendered as csv.writer renders it."""
    cells = ["a\rb", "\r", "x\r\ny", "end\r", "plain", ""]
    path = tmp_path / "t.csv"
    dataio.write_csv(path, [cells, ["\r", 1.5], [""]])
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [cells, ["\r", "1.5"], [""]]
    assert path.read_bytes().endswith(b'\n"\r",1.5\n""\n')
    labels = ["a\rb", "a\rb", "\r", "\ra"]
    feats = np.arange(40.0).reshape(4, 10)
    _write_table(path, labels, feats)
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [dataio.FEATURE_CSV_HEADER, *(
            [label, *map(repr, row)]
            for label, row in zip(labels, feats.tolist()))]


class _Boom(Exception):
    pass


def _failing_after(items, exc):
    yield from items
    raise exc


@pytest.mark.parametrize("exc", [_Boom("row 3"), KeyboardInterrupt()])
def test_failed_streamed_writes_keep_target(exc, tmp_path, monkeypatch):
    """An exception between the rows or blocks of a write leaves the old
    target and no temp file."""
    monkeypatch.setattr(dataio, "_CSV_BLOCK_ROWS", 2)
    target = tmp_path / "out"
    target.write_bytes(b"old")

    writes = [
        lambda: dataio.write_csv(target, _failing_after(
            [["a", 1.0], ["b", 2.0]], exc), comments=["c"]),
        lambda: dataio.write_iq_files([target], lambda _: _failing_after(
            [np.ones(5), np.zeros(3)], exc)),
        lambda: dataio.write_feature_csv(target, _failing_after(
            [dataio.render_feature_rows("0", np.ones((1, 10)))], exc)),
    ]
    for write in writes:
        with pytest.raises(type(exc)):
            write()
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]


def test_write_iq_blocks_equal_write_iq(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.normal(size=300) + 1j * rng.normal(size=300)
    x[7] = complex(-0.0, 0.0)
    dataio.write_iq(tmp_path / "whole.iq", x)
    dataio.write_iq_files([tmp_path / "blocks.iq"], lambda _: (
        x[i:i + 64] for i in range(0, 300, 64)))
    assert (tmp_path / "blocks.iq").read_bytes() == \
        (tmp_path / "whole.iq").read_bytes()
