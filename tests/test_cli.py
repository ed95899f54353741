import argparse
import csv
import dataclasses
import io
import json
import os
import shutil
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

from oracles import oracle_simulate_frame
from radiofp import dataio, explain as explain_module, parallel, pipeline
from radiofp import stats as stats_module
from radiofp.classify import HyperparamGrid, derive_seed, random_grid_search
from radiofp.cli import build_parser, main
from radiofp.pipeline import transnoise_etalon


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """2 devices x 40 frames at L=256, extracted to a feature CSV."""
    root = tmp_path_factory.mktemp("cli_data")
    raw = root / "raw"
    assert main([
        "gen-dataset", "--out-dir", str(raw),
        "--frames-per-device", "40", "--frame-len", "256",
        "--snr-db", "20", "--seed", "7", "--no-timestamp",
    ]) == 0
    features = root / "features.csv"
    assert main([
        "extract", "--input", str(raw / "manifest.csv"),
        "--etalon", str(raw / "etalon.iq"),
        "--out", str(features), "--no-timestamp",
    ]) == 0
    return root, raw, features


def test_gen_dataset_outputs(small_dataset):
    root, raw, features = small_dataset
    entries = dataio.read_manifest(raw / "manifest.csv")
    assert [e.label for e in entries] == ["0", "1"]
    assert all(e.frames == 40 for e in entries)
    etalon = dataio.read_iq(raw / "etalon.iq")
    assert etalon.size == 256
    np.testing.assert_allclose(etalon, transnoise_etalon(256), atol=1e-6)
    stream = dataio.read_iq(raw / "device_0.iq")
    assert stream.size == 40 * 256


def test_gen_dataset_deterministic(tmp_path):
    args = ["gen-dataset", "--frames-per-device", "5",
            "--frame-len", "256", "--seed", "3", "--no-timestamp"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("etalon.iq", "device_0.iq", "device_1.iq", "manifest.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("lead_in", [0, 1500])
@pytest.mark.parametrize("per_block", [1, 7, 20])
def test_gen_dataset_blocks_equal_whole_array_write(per_block, lead_in, cores,
                                                    tmp_path, monkeypatch):
    """Each stream, simulated and written per_block frames at a time (20 is
    all of them), has the bytes of the whole stream built in memory from
    the per-frame reference simulation and written at once; 1500 lead-in
    zeros span more than one block.  On 2 cores device 1 is written in a
    forked child, which inherits the patched block size."""
    monkeypatch.setattr(pipeline, "_FRAME_BLOCK_BYTES", per_block * 16 * 64)
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    out = tmp_path / "g"
    assert main(["gen-dataset", "--out-dir", str(out), "--frames-per-device",
                 "20", "--frame-len", "64", "--seed", "5", "--lead-in",
                 str(lead_in), "--no-timestamp"]) == 0
    etalon = transnoise_etalon(64)
    entries = dataio.read_manifest(out / "manifest.csv")
    assert len(entries) == 2
    for dev, entry in enumerate(entries):
        frames = [oracle_simulate_frame(etalon, entry.profile,
                                        derive_seed(5, dev, m))
                  for m in range(20)]
        stream = np.concatenate([np.zeros(lead_in, dtype=complex), *frames])
        dataio.write_iq(tmp_path / "whole.iq", stream)
        assert (out / entry.file).read_bytes() == \
            (tmp_path / "whole.iq").read_bytes(), entry.file


@pytest.mark.parametrize("snr_db", ["-800", "-4000"])
def test_gen_dataset_snr_overflow_exit_4(snr_db, tmp_path, capsys):
    # -800 dB overflowed the float32 samples to inf, -4000 dB the noise
    # power itself
    out = tmp_path / "g"
    assert main(["gen-dataset", "--out-dir", str(out), "--frames-per-device",
                 "2", "--frame-len", "64", "--no-timestamp",
                 f"--snr-db={snr_db}"]) == 4
    assert capsys.readouterr().err == "error: --snr-db must be at least -300\n"
    assert not out.exists()


def test_gen_dataset_float32_overflow_exit_2(tmp_path, capsys):
    # a finite profile whose samples overflow float32: the .iq format holds
    # finite floats only, so the stream is refused, not written as inf
    profiles = tmp_path / "profiles.json"
    profiles.write_text('[{"cubic_nonlinearity": 1e40}, {}]')
    out = tmp_path / "g"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["gen-dataset", "--out-dir", str(out), "--profiles",
                     str(profiles), "--frames-per-device", "2",
                     "--frame-len", "64", "--no-timestamp"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {out / 'device_0.iq'}: sample 0 is not finite as 32-bit "
        "floats\n")
    assert [str(w.message) for w in caught] == []
    assert list(out.iterdir()) == []  # the etalon neither


def test_gen_dataset_negative_seed_exit_4(tmp_path, capsys):
    # seeds are mixed modulo 2^64: -1 would write the streams of 2^64 - 1
    out = tmp_path / "g"
    assert main(["gen-dataset", "--out-dir", str(out), "--frames-per-device",
                 "2", "--frame-len", "64", "--no-timestamp",
                 "--seed", "-1"]) == 4
    assert capsys.readouterr().err == "error: --seed must be at least 0\n"
    assert not out.exists()


def test_extract_output(small_dataset):
    _, _, features = small_dataset
    ds = dataio.read_feature_csv(features)
    assert ds.n == 80  # every frame extractable at 20 dB
    assert set(ds.label_names) == {"0", "1"}
    header = features.read_text().splitlines()[0]
    assert header == "label,P1,P2,P3,P4,P5,P6,P7,P8,P9,P10"


def test_extract_clean_repetitions_all_skipped(tmp_path, capsys):
    etalon = transnoise_etalon(256)
    dataio.write_iq(tmp_path / "etalon.iq", etalon)
    dataio.write_iq(tmp_path / "stream.iq", np.tile(etalon, 6))
    code = main([
        "extract", "--input", str(tmp_path / "stream.iq"),
        "--etalon", str(tmp_path / "etalon.iq"),
        "--out", str(tmp_path / "f.csv"), "--no-timestamp",
    ])
    assert code == 3  # zero-error frames are degenerate: all skipped
    assert "skipped 6 of 6" in capsys.readouterr().err


def test_extract_reports_sync_loss(small_dataset, tmp_path, capsys):
    _, raw, _ = small_dataset
    data = tmp_path / "gap"
    shutil.copytree(raw, data)
    stream = dataio.read_iq(data / "device_0.iq")
    cut = 10 * 256  # a 300-sample gap after frame 10 of 40
    dataio.write_iq(data / "device_0.iq", np.concatenate(
        [stream[:cut], np.zeros(300, dtype=complex), stream[cut:]]))
    capsys.readouterr()
    assert main([
        "extract", "--input", str(data / "manifest.csv"),
        "--etalon", str(data / "etalon.iq"),
        "--out", str(tmp_path / "f.csv"), "--no-timestamp",
    ]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "device 0: sync found 10 of 40 frames, lost after sample 2560" \
        in err
    assert "skipped 0 of 50 frames" in err


def test_extract_error_after_sync_loss_one_line(small_dataset, tmp_path,
                                                capsys):
    _, raw, _ = small_dataset
    data = tmp_path / "gap_nan"
    shutil.copytree(raw, data)
    stream = dataio.read_iq(data / "device_0.iq")
    cut = 10 * 256  # device 0 loses sync after frame 10 of 40
    dataio.write_iq(data / "device_0.iq", np.concatenate(
        [stream[:cut], np.zeros(300, dtype=complex), stream[cut:]]))
    with open(data / "device_1.iq", "ab") as fh:  # a NaN after the last frame
        fh.write(np.array([np.nan, 0.0], dtype="<f4").tobytes())
    capsys.readouterr()
    assert main([
        "extract", "--input", str(data / "manifest.csv"),
        "--etalon", str(data / "etalon.iq"),
        "--out", str(tmp_path / "f.csv"), "--no-timestamp",
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "f.csv").exists()


def test_extract_reads_each_sample_once(tmp_path, monkeypatch):
    """A 2-device extract reads every sample of each stream once, and the
    etalon once: the correlation batches carry the samples they share, and
    the frames come from the batches.  Serially, and with the second
    stream in a forked child, whose reads the log file counts too."""
    from collections import Counter
    from pathlib import Path

    from radiofp import parallel

    raw = tmp_path / "raw"
    assert main(["gen-dataset", "--out-dir", str(raw), "--frames-per-device",
                 "30", "--frame-len", "64", "--snr-db", "20", "--seed", "2",
                 "--lead-in", "50", "--no-timestamp"]) == 0
    log = tmp_path / "reads.log"

    class CountingIqFile(dataio.IqFile):
        def read_into(self, start, out):
            # one write to an O_APPEND file: the lines of both processes
            # stay whole
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{Path(self.path).name} {out.size}\n".encode())
            finally:
                os.close(fd)
            super().read_into(start, out)

    # 65-lag correlation windows, one to a batch
    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", 128)
    monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES", 16 * 128)
    monkeypatch.setattr(dataio, "IqFile", CountingIqFile)
    sizes = {p.name: p.stat().st_size // 8 for p in raw.glob("*.iq")}
    assert sizes["device_0.iq"] == 50 + 30 * 64
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        log.write_bytes(b"")
        assert main(["extract", "--input", str(raw / "manifest.csv"),
                     "--etalon", str(raw / "etalon.iq"),
                     "--out", str(tmp_path / "f.csv"),
                     "--no-timestamp"]) == 0
        reads = Counter()
        for line in log.read_text().splitlines():
            name, size = line.split()
            reads[name] += int(size)
        assert reads == sizes, cores


def test_extract_stream_truncated_after_open_exit_2(small_dataset, tmp_path,
                                                    monkeypatch, capsys):
    """A stream that shrinks between IqFile measuring it and the read exits
    2 with one line naming where the file ended."""
    _, raw, _ = small_dataset
    data = tmp_path / "short"
    shutil.copytree(raw, data)
    device = data / "device_1.iq"
    size = device.stat().st_size // 8

    class ShrinkingIqFile(dataio.IqFile):
        def __init__(self, path):
            super().__init__(path)
            if path == device:
                device.write_bytes(device.read_bytes()[:8 * 3000])

    monkeypatch.setattr(dataio, "IqFile", ShrinkingIqFile)
    capsys.readouterr()
    assert main(["extract", "--input", str(data / "manifest.csv"),
                 "--etalon", str(data / "etalon.iq"),
                 "--out", str(tmp_path / "f.csv"), "--no-timestamp"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {device}: file ended at sample 3000, "
                   f"expected {size}"]
    assert not (tmp_path / "f.csv").exists()


def test_extract_missing_file_exit_2(tmp_path):
    code = main([
        "extract", "--input", str(tmp_path / "missing.iq"),
        "--etalon", str(tmp_path / "missing_etalon.iq"),
        "--out", str(tmp_path / "f.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("case", ["missing_dir", "is_dir"])
@pytest.mark.parametrize("command", ["extract", "explain"])
def test_bad_out_path_exit_2_before_reading(command, case, small_dataset,
                                            small_model, tmp_path, capsys,
                                            monkeypatch):
    _, raw, features = small_dataset

    def no_read(*args, **kwargs):
        raise AssertionError("an input was read before --out was checked")

    for name in ("read_iq", "read_manifest", "read_feature_csv"):
        monkeypatch.setattr(dataio, name, no_read)
    monkeypatch.setattr("radiofp.cli.load_model", no_read)
    out = tmp_path / "missing" / "f.csv" if case == "missing_dir" else tmp_path
    argv = {
        "extract": ["extract", "--input", str(raw / "manifest.csv"),
                    "--etalon", str(raw / "etalon.iq")],
        "explain": ["explain", "--model", str(small_model),
                    "--input", str(features), "--row", "0"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert f"--out {out}" in err
    assert not list(tmp_path.rglob("*.tmp*"))


def test_bad_flags_exit_4(small_dataset, tmp_path, capsys, monkeypatch):
    assert main(["train-eval", "--input", "x.csv"]) == 4  # missing --out-dir
    assert main(["no-such-command"]) == 4
    gen = ["gen-dataset", "--out-dir", str(tmp_path / "g"),
           "--frames-per-device", "1", "--no-timestamp"]
    one = tmp_path / "one_profile.json"
    one.write_text("[{}]")
    # the etalon needs 64 samples and is capped at 8192 pi digits; a dataset
    # needs 2 devices and a frame per device
    for flags in (["--frame-len", "10"], ["--frame-len", "63"],
                  ["--frame-len", "8193"], ["--frame-len", "9000"],
                  ["--profiles", str(one)],
                  ["--frames-per-device", "0"], ["--frames-per-device", "-3"],
                  ["--lead-in", "-1"]):
        capsys.readouterr()
        assert main(gen + flags) == 4, flags
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "g").exists()  # rejected before any write
    for frame_len in ("64", "8192"):
        assert main(gen + ["--frame-len", frame_len]) == 0, frame_len

    _, raw, features = small_dataset
    extract = ["extract", "--input", str(raw / "manifest.csv"),
               "--etalon", str(raw / "etalon.iq"),
               "--out", str(tmp_path / "f.csv"), "--sync-threshold"]
    train = ["train-eval", "--input", str(features), "--classifiers", "forest",
             "--trees", "2", "--no-timestamp", "--out-dir", str(tmp_path / "t")]
    stats = ["stats", "--input", str(features), "--out-dir",
             str(tmp_path / "s"), "--bins"]
    real_histogram = stats_module.histogram

    def histogram(xs, bins):  # an allocation that fails, without making it
        if bins == 3_000_000_000:
            raise MemoryError("Unable to allocate 22.4 GiB for an array")
        return real_histogram(xs, bins)

    monkeypatch.setattr(stats_module, "histogram", histogram)
    # no model file: the flags are checked before anything is read
    explain = ["explain", "--model", str(tmp_path / "no_model.txt"),
               "--input", str(features), "--row", "0",
               "--out", str(tmp_path / "e.csv")]
    # each is rejected before any work or write
    for argv in (extract + ["nan"], extract + ["-1"], extract + ["0"],
                 extract + ["inf"],
                 train + ["--features-per-split", "0"],
                 train + ["--features-per-split", "-1"],
                 train + ["--search", "--iterations", "0"],
                 train + ["--classifiers", "knn", "--features-per-split", "0"],
                 train + ["--classifiers", "knn,logreg", "--search",
                          "--iterations", "0"],
                 train + ["--classifiers", "forest,nope"],
                 train + ["--min-samples-split", "1"],
                 train + ["--min-samples-split", "-5"],
                 train + ["--knn-k", "0"], train + ["--trees", "0"],
                 train + ["--folds", "1"],
                 train + ["--max-depth", "0"], train + ["--max-depth", "-1"],
                 train + ["--max-depth", "abc"],
                 train + ["--seed", "-1"],
                 # 80 rows in 4 folds leave 60 training rows
                 train + ["--classifiers", "forest,knn", "--knn-k", "61"],
                 stats + ["0"], stats + ["-3"],
                 # numpy rejects this size before it allocates anything
                 stats + ["99999999999999999999"], stats + ["3000000000"],
                 explain + ["--kernel-width", "nan"],
                 explain + ["--kernel-width", "inf"],
                 explain + ["--kernel-width", "0"],
                 # squares to 0 and to inf
                 explain + ["--kernel-width", "1e-300"],
                 explain + ["--kernel-width", "1e200"],
                 explain + ["--ridge-lambda", "nan"],
                 explain + ["--ridge-lambda", "inf"],
                 explain + ["--ridge-lambda", "-1"],
                 explain + ["--n-perturbations", "99"],
                 explain + ["--seed", "-1"]):
        capsys.readouterr()
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err
        if "--seed" in argv:  # numpy's own message names no flag
            assert err == "error: --seed must be at least 0\n"
        if "abc" in argv:  # argparse's own message names the type's function
            assert err == ("error: argument --max-depth: expected an integer "
                           ">= 1 or 'none', not 'abc'\n"), err
    for out in ("f.csv", "t", "s", "e.csv"):
        assert not (tmp_path / out).exists(), out
    assert main(train + ["--classifiers", "knn", "--knn-k", "60"]) == 0


@pytest.mark.parametrize("classifiers", ["", ",", "forest,forest",
                                         "knn, tree,knn"])
def test_train_eval_classifiers_each_once_exit_4(classifiers, tmp_path,
                                                 capsys):
    # the input does not exist: the list is checked before it is read
    assert main(["train-eval", "--input", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "t"),
                 "--classifiers", classifiers]) == 4
    assert capsys.readouterr().err == (
        f"error: --classifiers {classifiers!r} must name one or more "
        "classifiers, each once\n")
    assert not (tmp_path / "t").exists()


def test_train_eval_logreg_needs_two_classes(small_dataset, tmp_path, capsys):
    # the default classifiers include logreg: a 3-device table is rejected
    # before the forest, tree and kNN are cross-validated or anything written
    _, _, features = small_dataset
    header, *rows = features.read_text().splitlines()
    three = tmp_path / "three.csv"
    three.write_text("\n".join(
        [header] + ["2," + row.split(",", 1)[1] if i % 3 == 0 else row
                    for i, row in enumerate(rows)]) + "\n")
    train = ["train-eval", "--input", str(three), "--trees", "2",
             "--no-timestamp"]
    capsys.readouterr()
    assert main(train + ["--out-dir", str(tmp_path / "t")]) == 4
    err = capsys.readouterr().err
    assert err == ("error: logistic regression needs exactly 2 classes, "
                   "the table has 3\n")
    assert not (tmp_path / "t").exists()
    assert main(train + ["--out-dir", str(tmp_path / "u"),
                         "--classifiers", "forest,tree,knn"]) == 0


# every numeric flag, and whether a huge value is rejected before any work
NUMERIC_FLAGS = {
    "gen-dataset": {"--frames-per-device": False, "--frame-len": True,
                    "--snr-db": False, "--seed": False, "--lead-in": False},
    "extract": {"--sync-threshold": False},
    "stats": {"--bins": True},
    "train-eval": {"--folds": True, "--seed": False, "--trees": False,
                   "--max-depth": False, "--min-samples-split": False,
                   "--features-per-split": False, "--knn-k": True,
                   "--iterations": False},
    "explain": {"--row": True, "--seed": False, "--n-perturbations": False,
                "--kernel-width": False, "--ridge-lambda": False},
}


def test_numeric_flags_table(small_dataset, small_model, tmp_path, capsys):
    # the table names every flag that takes a number
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {name: {a.option_strings[0] for a in sub._actions
                   if a.type not in (None, str)}
            for name, sub in commands.items()} == {
        name: set(flags) for name, flags in NUMERIC_FLAGS.items()}

    _, raw, features = small_dataset
    bases = {
        "gen-dataset": ["--frames-per-device", "2", "--frame-len", "64"],
        "extract": ["--input", raw / "manifest.csv",
                    "--etalon", raw / "etalon.iq"],
        "stats": ["--input", features],
        "train-eval": ["--input", features, "--classifiers", "forest,knn",
                       "--trees", "2"],
        "explain": ["--model", small_model, "--input", features,
                    "--row", "0", "--n-perturbations", "100"],
    }
    case = 0
    for command, flags in NUMERIC_FLAGS.items():
        for flag, huge_rejected in flags.items():
            for value in ["0", "-1"] + ["99999999999999999999"] * huge_rejected:
                case += 1
                out = tmp_path / f"case{case}"
                target = ["--out", out] if command in ("extract", "explain") \
                    else ["--out-dir", out]
                search = ["--search"] if flag == "--iterations" else []
                argv = [command, *bases[command], *target, *search,
                        "--no-timestamp", flag, value]
                capsys.readouterr()
                code = main([str(a) for a in argv])
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4), argv
                assert sum(ln.startswith("error:")
                           for ln in err.splitlines()) <= 1, err
                assert "Traceback" not in err, err
    assert case > 40


def test_stats_outputs(small_dataset, tmp_path):
    _, _, features = small_dataset
    out = tmp_path / "stats"
    assert main([
        "stats", "--input", str(features), "--out-dir", str(out),
        "--bins", "20", "--no-timestamp",
    ]) == 0
    sig = (out / "significance.csv").read_text().splitlines()
    assert sig[0] == "feature,pbcc,p_value,significant"
    assert len(sig) == 11
    pbccs = []
    for line in sig[1:]:
        _, pbcc, _, flag = line.split(",")
        assert flag in ("true", "false", "undefined")
        if pbcc != "undefined":
            pbccs.append(abs(float(pbcc)))
    assert pbccs == sorted(pbccs, reverse=True)

    matrix = (out / "pearson_matrix.csv").read_text().splitlines()
    assert matrix[0].startswith("feature,P1,")
    assert len(matrix) == 11

    hist = (out / "hist_P1.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    counts = [int(line.split(",")[2]) for line in hist[1:]]
    assert sum(counts) == 80


def test_train_eval_outputs(small_dataset, tmp_path):
    _, _, features = small_dataset
    out = tmp_path / "ml"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--folds", "4", "--seed", "1", "--trees", "10",
        "--classifiers", "forest,tree,knn,logreg", "--no-timestamp",
    ]) == 0
    metrics = [l for l in (out / "metrics.csv").read_text().splitlines()
               if not l.startswith("#")]
    assert metrics[0] == "classifier,fold,accuracy"
    names = {line.split(",")[0] for line in metrics[1:]}
    assert names == {"forest", "tree", "knn", "logreg"}
    for clf in names:
        rows = [l for l in metrics[1:] if l.startswith(clf + ",")]
        assert len(rows) == 5  # 4 folds + mean
        assert (out / f"confusion_{clf}.csv").exists()
    confusion = (out / "confusion_forest.csv").read_text().splitlines()
    total = sum(int(v) for line in confusion[1:] for v in line.split(",")[1:])
    assert total == 80

    imps = (out / "importances.csv").read_text().splitlines()
    assert imps[0] == "feature,importance"
    values = [float(l.split(",")[1]) for l in imps[1:]]
    assert sum(values) == pytest.approx(1.0, abs=1e-9)

    model_text = (out / "model.txt").read_text()
    assert model_text.startswith("radiofp-model v1\n")


def test_train_eval_reports_the_serial_loops_fit_error(small_dataset, tmp_path,
                                                      capsys, monkeypatch):
    # the tree fails on fold 3 and the forest on fold 1.  The fold-major
    # job table fits the forest's fold 1 first, but train-eval reports the
    # error that a loop over the classifiers, then the folds, meets first,
    # the tree's (exit 2, not the forest's 4), and writes no file
    from radiofp import classify, cli, parallel
    from radiofp.errors import NoSplitsError

    _, _, features = small_dataset

    def tree(ds, *, seed, **kwargs):
        if seed == derive_seed(1, 3 + 1):
            raise NoSplitsError("tree fails on fold 3")
        return classify.train_tree(ds, seed=seed, **kwargs)

    def forest(ds, params, seed):
        if seed == derive_seed(1, 1 + 1):
            raise ValueError("forest fails on fold 1")
        return classify.train_forest(ds, params, seed)

    monkeypatch.setattr(cli, "train_tree", tree)
    monkeypatch.setattr(cli, "train_forest", forest)
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        capsys.readouterr()
        assert main(["train-eval", "--input", str(features),
                     "--out-dir", str(out), "--folds", "4", "--seed", "1",
                     "--trees", "3", "--classifiers", "knn,tree,forest",
                     "--no-timestamp"]) == 2
        assert capsys.readouterr() == ("", "error: tree fails on fold 3\n")
        assert list(out.iterdir()) == []


def test_train_eval_search_outputs(small_dataset, tmp_path):
    """best_params.json is the search's best point as sorted-key JSON and a
    newline; metrics.csv ends with the search's forest_search mean row."""
    _, _, features = small_dataset
    out = tmp_path / "ml"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--search", "--iterations", "2", "--folds", "3", "--seed", "3",
        "--classifiers", "knn", "--no-timestamp",
    ]) == 0
    best, result = random_grid_search(dataio.read_feature_csv(features),
                                      HyperparamGrid(iterations=2), 3, 3)
    assert (out / "best_params.json").read_bytes() == (json.dumps(
        dataclasses.asdict(best), sort_keys=True) + "\n").encode()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "# seed 3"
    assert metrics[-1] == \
        f"forest_search,mean,{float(result.mean_accuracy)!r}"


def test_extract_label_line_break_exit_2_one_line(small_dataset, tmp_path,
                                                   capsys):
    """A label is written into CSV rows and explain's summary comment, where
    a line break would start a line of its own: --label refuses one before
    any input is read."""
    _, raw, _ = small_dataset
    capsys.readouterr()
    assert main(["extract", "--input", str(raw / "device_0.iq"),
                 "--etalon", str(tmp_path / "missing.iq"),
                 "--label", "a\nb", "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == \
        "error: --label 'a\\nb' holds a line break\n"
    assert not (tmp_path / "f.csv").exists()


def test_extract_label_starting_with_hash_exit_2_one_line(small_dataset,
                                                          tmp_path, capsys):
    """A row that starts with '#' is read as a comment: --label refuses a
    label that starts with one before any input is read."""
    _, raw, _ = small_dataset
    capsys.readouterr()
    assert main(["extract", "--input", str(raw / "device_0.iq"),
                 "--etalon", str(tmp_path / "missing.iq"),
                 "--label", "#x", "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == ("error: --label '#x' starts with '#', "
                                       "which marks a comment line\n")
    assert not (tmp_path / "f.csv").exists()


def test_train_eval_feature_mask(small_dataset, tmp_path):
    _, _, features = small_dataset
    out = tmp_path / "masked"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--folds", "4", "--seed", "1", "--trees", "10",
        "--classifiers", "forest", "--features", "2,8,9", "--no-timestamp",
    ]) == 0
    imps = (out / "importances.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in imps[1:]] == ["P2", "P8", "P9"]


def test_train_eval_bad_mask_exit_4(small_dataset, tmp_path):
    _, _, features = small_dataset
    assert main([
        "train-eval", "--input", str(features),
        "--out-dir", str(tmp_path / "x"), "--features", "0,11",
    ]) == 4


@pytest.mark.parametrize("mask", ["", " ", ","])
def test_train_eval_empty_mask_exit_4_before_reading(mask, tmp_path, capsys):
    # the input does not exist: the mask is checked before it is read
    assert main(["train-eval", "--input", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "t"), "--features", mask]) == 4
    assert capsys.readouterr().err == (
        "error: --features must list parameter numbers in 1..10\n")
    assert not (tmp_path / "t").exists()


def test_explain_singular_fit_exit_2_one_line(small_dataset, small_model,
                                              tmp_path, capsys):
    # P1 constant: the perturbations leave it fixed, so with no ridge
    # penalty the surrogate's normal equations are singular.  The mean of
    # a column of 0.1 rounds, so its computed std is not 0
    _, _, features = small_dataset
    header, *rows = features.read_text().splitlines()
    for value in ("0.5", "0.1"):
        table = tmp_path / f"constant_p1_{value}.csv"
        table.write_text("\n".join([header] + [
            ",".join([r.split(",")[0], value] + r.split(",")[2:])
            for r in rows]) + "\n")
        argv = ["explain", "--model", str(small_model), "--input", str(table),
                "--row", "0", "--n-perturbations", "100",
                "--out", str(tmp_path / "e.csv")]
        capsys.readouterr()
        assert main(argv + ["--ridge-lambda", "0"]) == 2, value
        err = capsys.readouterr().err
        assert err == ("error: local surrogate fit is singular: a constant "
                       "feature column needs ridge_lambda > 0\n"), err
        assert not (tmp_path / "e.csv").exists()
        assert main(argv) == 0
        weights = dict(line.split(",") for line in
                       (tmp_path / "e.csv").read_text().splitlines()
                       if not line.startswith("#"))
        assert float(weights["P1"]) == 0.0, value
        (tmp_path / "e.csv").unlink()


@pytest.mark.parametrize("command", ["stats", "train-eval", "explain"])
def test_overflowing_feature_column_exit_2_one_line(command, small_model,
                                                    tmp_path, capsys):
    # P1 at +-1e308: its mean and variance overflow, so the table is
    # refused as it is read, not turned into NaN statistics, scores of 0.5
    # or an explanation of fidelity nan
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(40, 10))
    feats[:, 0] = np.where(np.arange(40) % 3 == 0, -1e308, 1e308)
    table = tmp_path / "overflow.csv"
    dataio.write_feature_csv(table, [
        dataio.render_feature_rows(str(i % 2), feats[i:i + 1])
        for i in range(40)])
    out = tmp_path / "out"
    argv = {"stats": ["--out-dir", str(out)],
            "train-eval": ["--out-dir", str(out)],
            "explain": ["--model", str(small_model), "--row", "0",
                        "--out", str(out)]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", str(table)] + argv)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {table}: P1 values are too large: the column's statistics "
        "overflow a float\n")
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_explain_too_many_perturbations_exit_4(small_dataset, small_model,
                                               tmp_path, capsys, monkeypatch):
    _, _, features = small_dataset
    real_perturb = explain_module.perturb

    def perturb(instance, training_stats, n, seed):
        # an allocation that fails, without making it
        if n == 10**12:
            raise MemoryError("Unable to allocate 72.8 TiB for an array")
        return real_perturb(instance, training_stats, n, seed)

    monkeypatch.setattr(explain_module, "perturb", perturb)
    # numpy refuses 10^18 rows before it allocates anything
    for n in (10**12, 10**18):
        capsys.readouterr()
        assert main(["explain", "--model", str(small_model),
                     "--input", str(features), "--row", "0",
                     "--n-perturbations", str(n),
                     "--out", str(tmp_path / "e.csv")]) == 4, n
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: --n-perturbations {n} is too large: ")
        assert not (tmp_path / "e.csv").exists()


def test_explain_cli(small_dataset, tmp_path):
    _, _, features = small_dataset
    out = tmp_path / "ml2"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--folds", "4", "--seed", "1", "--trees", "10",
        "--classifiers", "forest", "--no-timestamp",
    ]) == 0
    exp_path = tmp_path / "explanation.csv"
    assert main([
        "explain", "--model", str(out / "model.txt"),
        "--input", str(features), "--row", "3", "--seed", "5",
        "--n-perturbations", "500", "--out", str(exp_path),
        "--no-timestamp",
    ]) == 0
    lines = exp_path.read_text().splitlines()
    assert lines[0].startswith("# predicted_class=")
    assert "seed=5" in lines[0]
    assert lines[1] == "feature,weight"
    weights = [abs(float(l.split(",")[1])) for l in lines[2:]]
    assert weights == sorted(weights, reverse=True)
    assert len(weights) == 10

    # deterministic per seed
    exp2 = tmp_path / "explanation2.csv"
    assert main([
        "explain", "--model", str(out / "model.txt"),
        "--input", str(features), "--row", "3", "--seed", "5",
        "--n-perturbations", "500", "--out", str(exp2), "--no-timestamp",
    ]) == 0
    assert exp2.read_bytes() == exp_path.read_bytes()


def test_explain_row_out_of_range(small_dataset, tmp_path):
    _, _, features = small_dataset
    out = tmp_path / "ml3"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--folds", "4", "--seed", "1", "--trees", "5",
        "--classifiers", "forest", "--no-timestamp",
    ]) == 0
    assert main([
        "explain", "--model", str(out / "model.txt"),
        "--input", str(features), "--row", "99999",
        "--out", str(tmp_path / "e.csv"),
    ]) == 4


def test_pipeline_reproducibility_end_to_end(tmp_path):
    """Same seed + --no-timestamp -> byte-identical outputs everywhere."""
    outputs = {}
    for run in ("r1", "r2"):
        base = tmp_path / run
        raw = base / "raw"
        main(["gen-dataset", "--out-dir", str(raw),
              "--frames-per-device", "12", "--frame-len", "256",
              "--seed", "11", "--no-timestamp"])
        features = base / "features.csv"
        main(["extract", "--input", str(raw / "manifest.csv"),
              "--etalon", str(raw / "etalon.iq"), "--out", str(features),
              "--no-timestamp"])
        stats_dir = base / "stats"
        main(["stats", "--input", str(features), "--out-dir", str(stats_dir),
              "--no-timestamp"])
        ml_dir = base / "ml"
        main(["train-eval", "--input", str(features), "--out-dir", str(ml_dir),
              "--trees", "5", "--classifiers", "forest", "--seed", "2",
              "--no-timestamp"])
        outputs[run] = {
            p.relative_to(base): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        }
    assert outputs["r1"].keys() == outputs["r2"].keys()
    for name in outputs["r1"]:
        assert outputs["r1"][name] == outputs["r2"][name], name


def test_timestamped_layout(small_dataset, tmp_path):
    """Line 1 is the UTC generated stamp, then any seed or summary comment;
    without line 1 each file equals its --no-timestamp twin byte for byte.
    Each run's extract and stats read that run's own outputs, so the
    stamped ones read stamped inputs."""
    _, _, features = small_dataset
    runs = {}
    for flags in ([], ["--no-timestamp"]):
        base = tmp_path / ("plain" if flags else "stamped")
        assert main(["gen-dataset", "--out-dir", str(base / "raw"),
                     "--frames-per-device", "2", "--frame-len", "256",
                     "--seed", "7"] + flags) == 0
        assert main(["extract", "--input", str(base / "raw" / "manifest.csv"),
                     "--etalon", str(base / "raw" / "etalon.iq"),
                     "--out", str(base / "features.csv")] + flags) == 0
        assert main(["stats", "--input", str(base / "features.csv"),
                     "--out-dir", str(base / "stats"), "--bins", "5"]
                    + flags) == 0
        assert main(["train-eval", "--input", str(features),
                     "--out-dir", str(base / "ml"), "--trees", "2",
                     "--classifiers", "forest", "--seed", "1"] + flags) == 0
        assert main(["explain", "--model", str(base / "ml" / "model.txt"),
                     "--input", str(features), "--row", "0",
                     "--n-perturbations", "100",
                     "--out", str(base / "explanation.csv")] + flags) == 0
        runs[base.name] = {p.relative_to(base).as_posix(): p.read_bytes()
                           for p in base.rglob("*.csv")}
    stamped, plain = runs["stamped"], runs["plain"]
    # manifest, features, significance, Pearson matrix, 10 histograms,
    # metrics, confusion, importances, explanation
    assert sorted(stamped) == sorted(plain) and len(stamped) == 18
    for name, blob in stamped.items():
        first, rest = blob.decode().split("\n", 1)
        assert first.startswith("# generated "), name
        when = datetime.fromisoformat(first[len("# generated "):])
        assert when.utcoffset() == timedelta(0), name
        assert rest.encode() == plain[name], name
    for name, comment in (("raw/manifest.csv", "# seed 7\n"),
                          ("ml/metrics.csv", "# seed 1\n"),
                          ("explanation.csv", "# predicted_class=")):
        assert stamped[name].decode().splitlines(True)[1].startswith(comment)


def test_default_dataset_size_is_30000_frames():
    from radiofp.cli import DEFAULT_PROFILES, build_parser

    args = build_parser().parse_args(["gen-dataset", "--out-dir", "x"])
    assert len(DEFAULT_PROFILES) * args.frames_per_device == 30000
    assert args.frame_len == 1024


def test_seed_recorded_in_outputs(small_dataset, tmp_path):
    _, raw, features = small_dataset
    assert "# seed 7" in (raw / "manifest.csv").read_text()
    out = tmp_path / "ml_seed"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--trees", "5", "--seed", "9", "--classifiers", "forest",
        "--no-timestamp",
    ]) == 0
    assert "# seed 9" in (out / "metrics.csv").read_text()


@pytest.fixture(scope="module")
def small_model(small_dataset):
    root, _, features = small_dataset
    out = root / "ml_small"
    assert main([
        "train-eval", "--input", str(features), "--out-dir", str(out),
        "--trees", "2", "--classifiers", "forest", "--no-timestamp",
    ]) == 0
    return out / "model.txt"


def _first_node(text, kind, edit):
    """Apply ``edit`` to the fields of the file's first ``kind`` node line."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.split()[1:2] == [kind])
    lines[at] = " ".join(edit(lines[at].split()))
    return "\n".join(lines) + "\n"


def _meta(text, edit):
    """Apply ``edit`` to the model file's meta object."""
    lines = text.splitlines()
    meta = json.loads(lines[2][len("meta "):])
    edit(meta)
    lines[2] = "meta " + json.dumps(meta)
    return "\n".join(lines) + "\n"


def _tree0_size(text):
    return next(line.split()[2] for line in text.splitlines()
                if line.startswith("tree 0 "))


def _first_row(text, edit):
    lines = text.splitlines()
    lines[1] = ",".join(edit(lines[1].split(",")))
    return "\n".join(lines) + "\n"


def _few_rows_of_label(text, label, n):
    """Keep the header, the rows of the other labels and n rows of label."""
    header, *rows = text.splitlines()
    others = [row for row in rows if row.split(",")[0] != label]
    mine = [row for row in rows if row.split(",")[0] == label]
    return "\n".join([header] + others + mine[:n]) + "\n"


def _manifest_row(text, edit):
    """Apply ``edit`` to the fields of the manifest's first data row."""
    lines = text.splitlines()
    at = lines.index("label,file,frames,profile") + 1
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(
        edit(next(csv.reader([lines[at]]))))
    lines[at] = out.getvalue()
    return "\n".join(lines) + "\n"


# (case, file corrupted, corruption of its text, or of its bytes for
#  "iq" and "etalon")
MALFORMED_INPUTS = [
    ("model_cut_inside_meta", "model",
     lambda t: t[:t.index("meta ") + 30]),
    ("model_cut_mid_tree", "model",
     lambda t: "\n".join(t.splitlines()[:6]) + "\n"),
    ("model_child_id_not_above_own_id", "model",
     lambda t: _first_node(t, "split", lambda f: f[:4] + [f[0]] + f[5:])),
    ("model_child_id_at_n_nodes", "model",
     lambda t: _first_node(t, "split", lambda f: f[:5] + [_tree0_size(t)])),
    ("model_wrong_leaf_width", "model",
     lambda t: _first_node(t, "leaf", lambda f: f + ["1"])),
    ("model_non_ascii", "model", lambda t: t.replace("forest", "f\u00f6rest")),
    ("model_max_depth_zero", "model",
     lambda t: t.replace('"max_depth": null', '"max_depth": 0')),
    ("model_threshold_nan", "model",
     lambda t: _first_node(t, "split", lambda f: f[:3] + ["nan"] + f[4:])),
    ("model_kind_unknown", "model",
     lambda t: t.replace("kind forest", "kind banana")),
    ("model_zero_trees", "model",
     lambda t: "\n".join(t.splitlines()[:3] + ["trees 0"]) + "\n"),
    ("model_trees_not_integer", "model",
     lambda t: t.replace("\ntrees 2\n", "\ntrees x\n")),
    ("model_feature_name_repeated", "model",
     lambda t: t.replace('"P2"', '"P1"')),
    ("model_label_name_repeated", "model",
     lambda t: t.replace('"label_names": ["0", "1"]',
                         '"label_names": ["0", "0"]')),
    ("model_feature_not_in_input", "model",
     lambda t: t.replace('"P1"', '"PX"')),
    ("model_label_names_string", "model",
     lambda t: _meta(t, lambda m: m.update(label_names="01"))),
    ("model_feature_names_object", "model",
     lambda t: _meta(t, lambda m: m.update(
         feature_names={name: 0 for name in m["feature_names"]}))),
    ("model_importances_wrong_count", "model",
     lambda t: _meta(t, lambda m: m.update(importances=[1, 2, 3]))),
    ("model_importances_nan", "model",
     lambda t: _meta(t, lambda m: m["importances"].__setitem__(
         0, float("nan")))),
    ("model_leaf_counts_beyond_int64", "model",
     lambda t: _first_node(t, "leaf", lambda f: f[:2] + [str(2**62)] * 2)),
    ("model_seed_string", "model",
     lambda t: _meta(t, lambda m: m.update(seed="abc"))),
    ("model_seed_negative", "model",
     lambda t: _meta(t, lambda m: m.update(seed=-5))),
    ("model_seed_boolean", "model",
     lambda t: _meta(t, lambda m: m.update(seed=True))),
    ("model_params_list", "model",
     lambda t: _meta(t, lambda m: m.update(params=[1, 2]))),
    ("model_params_bootstrap_string", "model",
     lambda t: _meta(t, lambda m: m["params"].update(bootstrap="no"))),
    ("model_params_n_trees_fraction", "model",
     lambda t: _meta(t, lambda m: m["params"].update(n_trees=2.5))),
    ("model_params_min_samples_split_boolean", "model",
     lambda t: _meta(t, lambda m: m["params"].update(min_samples_split=True))),
    ("model_params_max_depth_string", "model",
     lambda t: _meta(t, lambda m: m["params"].update(max_depth="x"))),
    ("model_params_field_missing", "model",
     lambda t: _meta(t, lambda m: m["params"].pop("bootstrap"))),
    ("model_params_field_extra", "model",
     lambda t: _meta(t, lambda m: m["params"].update(depth=3))),
    ("model_params_features_per_split_zero", "model",
     lambda t: _meta(t, lambda m: m["params"].update(features_per_split=0))),
    ("model_params_n_trees_not_tree_count", "model",
     lambda t: _meta(t, lambda m: m["params"].update(n_trees=100))),
    ("csv_nan", "csv", lambda t: _first_row(t, lambda r: [r[0], "nan"] + r[2:])),
    ("csv_label_line_break", "csv",
     lambda t: _first_row(t, lambda r: ['"a\nb"'] + r[1:])),
    ("csv_ragged", "csv", lambda t: _first_row(t, lambda r: r[:-1])),
    # a field longer than the csv module's field_size_limit (131072)
    ("csv_field_over_limit", "csv",
     lambda t: _first_row(t, lambda r: ["x" * 140000] + r[1:])),
    ("stats_three_classes", "csv",
     lambda t: _first_row(t, lambda r: ["2"] + r[1:])),
    ("stats_two_rows", "csv",  # one of each class: no p-value is defined
     lambda t: _few_rows_of_label(_few_rows_of_label(t, "0", 1), "1", 1)),
    ("train_class_smaller_than_folds", "train_csv",
     lambda t: _few_rows_of_label(t, "1", 3)),
    ("manifest_no_devices", "manifest",
     lambda t: "".join(t.partition("label,file,frames,profile\n")[:2])),
    ("manifest_short_row", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3])),
    ("manifest_label_line_break", "manifest",
     lambda t: t.replace("\n0,device_0.iq,", '\n"a\rb",device_0.iq,')),
    # the "#b" line is inside the quoted label, so not a comment
    ("manifest_label_line_break_hash", "manifest",
     lambda t: t.replace("\n0,device_0.iq,", '\n"a\n#b",device_0.iq,')),
    ("manifest_field_over_limit", "manifest",
     lambda t: _manifest_row(t, lambda f: ["x" * 140000] + f[1:])),
    ("manifest_frames_not_integer", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:2] + ["4.5"] + f[3:])),
    ("manifest_frames_over_int_str_limit", "manifest",  # int() refuses it
     lambda t: _manifest_row(t, lambda f: f[:2] + ["1" * 5000] + f[3:])),
    ("manifest_frames_negative", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:2] + ["-1"] + f[3:])),
    ("manifest_profile_not_object", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3] + ["[1, 2]"])),
    ("manifest_profile_field_misspelled", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3] + [
         f[3].replace("gain_imbalance", "gain_imbalence")])),
    ("manifest_dc_offset_three_numbers", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3] + [json.dumps(
         {**json.loads(f[3]), "dc_offset": [0.1, 0.2, 99]})])),
    ("manifest_gain_imbalance_boolean", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3] + [json.dumps(
         {**json.loads(f[3]), "gain_imbalance": True})])),
    ("iq_odd_float_count", "iq", lambda b: b[:-4]),
    ("etalon_too_short", "etalon", lambda b: b[:8 * 63]),
    ("etalon_zero_energy", "etalon", lambda b: bytes(len(b))),
    ("profiles_not_a_list", "profiles", lambda t: '{"a": 1}'),
    ("profiles_dc_offset_not_a_pair", "profiles",
     lambda t: '[{"dc_offset": 5}, {}]'),
    ("profiles_entry_not_object", "profiles", lambda t: '[{}, "x"]'),
    ("profiles_not_json", "profiles", lambda t: t[:-1]),
    ("profiles_gain_not_finite", "profiles",
     lambda t: '[{"gain_imbalance": 1e999}, {}]'),
    ("profiles_dc_offset_nan", "profiles",
     lambda t: '[{}, {"dc_offset": [0, NaN]}]'),
    ("profiles_field_misspelled", "profiles",
     lambda t: '[{"gain_imbalence": 0.5}, {}]'),
    ("profiles_dc_offset_three_numbers", "profiles",
     lambda t: '[{"dc_offset": [0.1, 0.2, 99]}, {}]'),
    ("profiles_gain_imbalance_boolean", "profiles",
     lambda t: '[{}, {"gain_imbalance": true}]'),
    ("iq_shorter_than_one_frame", "iq", lambda b: b[:8 * 10]),
    ("iq_trailing_bytes", "iq", lambda b: b + bytes(2)),
    ("iq_nan_sample", "iq",  # after the last frame
     lambda b: b + np.array([np.nan, 0.0], dtype="<f4").tobytes()),
    ("iq_inf_sample", "iq",  # inside frame 3
     lambda b: b[:8 * 1000] + np.array([np.inf], dtype="<f4").tobytes()
     + b[8 * 1000 + 4:]),
    ("iq_empty", "iq", lambda b: b""),
]


@pytest.mark.parametrize("case, target, corrupt", MALFORMED_INPUTS,
                         ids=[case for case, _, _ in MALFORMED_INPUTS])
def test_malformed_input_exit_2_one_line(case, target, corrupt, small_dataset,
                                         small_model, tmp_path, capsys):
    _, raw, features = small_dataset
    profiles = tmp_path / "profiles.json"
    profiles.write_text("[{}, {}]")
    source = {"model": small_model, "csv": features, "train_csv": features,
              "iq": raw / "device_0.iq",
              "manifest": raw / "manifest.csv", "etalon": raw / "etalon.iq",
              "profiles": profiles}[target]
    # a manifest names its streams relative to its own directory
    bad = (raw if target == "manifest" else tmp_path) / f"{case}{source.suffix}"
    if target in ("iq", "etalon"):
        bad.write_bytes(corrupt(source.read_bytes()))
    else:
        bad.write_text(corrupt(source.read_text()))
    if target == "model":
        argv = ["explain", "--model", str(bad), "--input", str(features),
                "--row", "0", "--out", str(tmp_path / "e.csv")]
    elif target == "csv":
        argv = ["stats", "--input", str(bad), "--out-dir", str(tmp_path / "s")]
    elif target == "train_csv":
        argv = ["train-eval", "--input", str(bad), "--out-dir",
                str(tmp_path / "t"), "--classifiers", "forest", "--trees", "2"]
    elif target == "profiles":
        argv = ["gen-dataset", "--out-dir", str(tmp_path / "g"),
                "--profiles", str(bad), "--frames-per-device", "1"]
    elif target == "etalon":
        argv = ["extract", "--input", str(raw / "manifest.csv"),
                "--etalon", str(bad), "--out", str(tmp_path / "f.csv")]
    else:
        argv = ["extract", "--input", str(bad),
                "--etalon", str(raw / "etalon.iq"),
                "--out", str(tmp_path / "f.csv")]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    assert err.count("bad model file:") <= 1, err
    if case == "model_feature_not_in_input":
        assert "PX" in err, err
    if case == "csv_label_line_break":
        assert err.endswith(": data row 1: label 'a\\nb' holds a line "
                            "break\n"), err
    if case.startswith("manifest_label_line_break"):
        label = "'a\\n#b'" if case.endswith("_hash") else "'a\\rb'"
        assert err.endswith(f": manifest row 1: label {label} holds a line "
                            "break\n"), err
    if case == "manifest_frames_over_int_str_limit":
        assert ": manifest row 1: frames has 5000 digits" in err, err
    for key in ("label_names", "feature_names", "importances"):
        if case.startswith(f"model_{key}_"):
            assert f"bad model file: {key} must be" in err, err
    if case == "model_trees_not_integer":
        assert "trees x: need kind forest or tree" in err, err
    if case == "model_leaf_counts_beyond_int64":
        assert ": tree 0: the leaf counts sum to 2^63 or more\n" in err, err
    if case.startswith("model_seed_"):
        assert err.endswith("bad model file: seed must be a non-negative "
                            "JSON integer\n"), err
    if case.startswith("model_params_"):
        assert err.endswith({
            "model_params_features_per_split_zero":
                "bad model file: features_per_split must be at least 1\n",
            "model_params_n_trees_not_tree_count":
                "bad model file: params n_trees 100 is not the file's 2 "
                "trees\n",
        }.get(case, 'bad model file: params must be {"n_trees": int, '
                    '"max_depth": int | None, "min_samples_split": int, '
                    '"features_per_split": int | None, "bootstrap": bool}\n'
              )), err
    if case == "manifest_no_devices":
        assert err == f"error: {bad}: manifest lists no devices\n", err
    if case.endswith("_field_over_limit"):
        assert f"{bad}: field larger than field limit" in err, err
    if case.endswith("_field_misspelled"):
        assert "gain_imbalence" in err, err
    for field in ("dc_offset", "gain_imbalance"):
        if case.endswith((f"{field}_three_numbers", f"{field}_boolean")):
            assert f"({field} must be" in err, err
    if case == "stats_two_rows":
        assert err == "error: p-values need at least 3 rows, not 2\n", err
    # rejected before any write
    assert not (tmp_path / "g").exists() and not (tmp_path / "t").exists()
