import csv
import io
import shutil
from datetime import datetime, timedelta

import numpy as np
import pytest

from radiofp import dataio
from radiofp.cli import main
from radiofp.pipeline import transnoise_etalon


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """2 devices x 40 frames at L=256, extracted to a feature CSV."""
    root = tmp_path_factory.mktemp("cli_data")
    raw = root / "raw"
    assert main([
        "gen-dataset", "--out-dir", str(raw), "--devices", "2",
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
    args = ["gen-dataset", "--devices", "2", "--frames-per-device", "5",
            "--frame-len", "256", "--seed", "3", "--no-timestamp"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("etalon.iq", "device_0.iq", "device_1.iq", "manifest.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


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


def test_extract_missing_file_exit_2(tmp_path):
    code = main([
        "extract", "--input", str(tmp_path / "missing.iq"),
        "--etalon", str(tmp_path / "missing_etalon.iq"),
        "--out", str(tmp_path / "f.csv"),
    ])
    assert code == 2


def test_bad_flags_exit_4(tmp_path):
    assert main(["train-eval", "--input", "x.csv"]) == 4  # missing --out-dir
    assert main(["no-such-command"]) == 4
    gen = ["gen-dataset", "--out-dir", str(tmp_path / "g"),
           "--frames-per-device", "1", "--no-timestamp"]
    # the etalon needs 64 samples; the pi table holds 8192 digits
    for frame_len in ("10", "63", "8193", "9000"):
        assert main(gen + ["--frame-len", frame_len]) == 4, frame_len
    one = tmp_path / "one_profile.json"
    one.write_text("[{}]")
    assert main(gen + ["--profiles", str(one)]) == 4
    assert not (tmp_path / "g").exists()  # rejected before any write
    for frame_len in ("64", "8192"):
        assert main(gen + ["--frame-len", frame_len]) == 0, frame_len


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
        main(["gen-dataset", "--out-dir", str(raw), "--devices", "2",
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
    without line 1 each file equals its --no-timestamp twin byte for byte."""
    _, _, features = small_dataset
    runs = {}
    for flags in ([], ["--no-timestamp"]):
        base = tmp_path / ("plain" if flags else "stamped")
        assert main(["gen-dataset", "--out-dir", str(base / "raw"),
                     "--frames-per-device", "2", "--frame-len", "256",
                     "--seed", "7"] + flags) == 0
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
    assert sorted(stamped) == sorted(plain) and len(stamped) == 5
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
    from radiofp.cli import build_parser

    args = build_parser().parse_args(["gen-dataset", "--out-dir", "x"])
    assert args.devices * args.frames_per_device == 30000
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


def _tree0_size(text):
    return next(line.split()[2] for line in text.splitlines()
                if line.startswith("tree 0 "))


def _first_row(text, edit):
    lines = text.splitlines()
    lines[1] = ",".join(edit(lines[1].split(",")))
    return "\n".join(lines) + "\n"


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
    ("csv_nan", "csv", lambda t: _first_row(t, lambda r: [r[0], "nan"] + r[2:])),
    ("csv_ragged", "csv", lambda t: _first_row(t, lambda r: r[:-1])),
    ("stats_three_classes", "csv",
     lambda t: _first_row(t, lambda r: ["2"] + r[1:])),
    ("manifest_short_row", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3])),
    ("manifest_frames_not_integer", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:2] + ["4.5"] + f[3:])),
    ("manifest_frames_negative", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:2] + ["-1"] + f[3:])),
    ("manifest_profile_not_object", "manifest",
     lambda t: _manifest_row(t, lambda f: f[:3] + ["[1, 2]"])),
    ("iq_odd_float_count", "iq", lambda b: b[:-4]),
    ("etalon_too_short", "etalon", lambda b: b[:8 * 63]),
    ("etalon_zero_energy", "etalon", lambda b: bytes(len(b))),
    ("profiles_not_a_list", "profiles", lambda t: '{"a": 1}'),
    ("profiles_dc_offset_not_a_pair", "profiles",
     lambda t: '[{"dc_offset": 5}, {}]'),
    ("profiles_entry_not_object", "profiles", lambda t: '[{}, "x"]'),
    ("profiles_not_json", "profiles", lambda t: t[:-1]),
]


@pytest.mark.parametrize("case, target, corrupt", MALFORMED_INPUTS,
                         ids=[case for case, _, _ in MALFORMED_INPUTS])
def test_malformed_input_exit_2_one_line(case, target, corrupt, small_dataset,
                                         small_model, tmp_path, capsys):
    _, raw, features = small_dataset
    profiles = tmp_path / "profiles.json"
    profiles.write_text("[{}, {}]")
    source = {"model": small_model, "csv": features, "iq": raw / "device_0.iq",
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
