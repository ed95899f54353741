import csv
import io
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import radiofp
from radiofp import classify, dataio, parallel
from radiofp.classify import ForestParams, train_forest
from radiofp.cli import main
from radiofp.dataio import IqFile
from radiofp.dataset import LabeledFeatureSet
from radiofp.errors import DataFormatError, NoSplitsError
from radiofp.features import FEATURE_NAMES
from radiofp.parallel import fork_map
from radiofp.pipeline import run_capture_pipeline


def _cores(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cores", lambda: n)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_results_in_order(monkeypatch):
    _cores(monkeypatch, 3)
    out = fork_map(lambda x: (x * x, os.getpid()), range(10))
    assert [square for square, _ in out] == [x * x for x in range(10)]
    pids = [pid for _, pid in out]
    # contiguous shares of 3, 3 and 4 items, the first in this process
    assert pids[:3] == [os.getpid()] * 3
    assert len(set(pids[3:6])) == len(set(pids[6:])) == 1
    assert len(set(pids)) == 3
    _assert_no_child_left()


def test_fork_map_runs_serially_on_one_core_or_item(monkeypatch):
    for cores, items in ((1, range(5)), (4, range(1)), (4, [])):
        _cores(monkeypatch, cores)
        pids = fork_map(lambda x: os.getpid(), items)
        assert pids == [os.getpid()] * len(items)


def test_usable_cores_is_the_affinity_mask(monkeypatch):
    assert parallel.usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.usable_cores() == 1


def test_nested_fork_map_runs_serially(monkeypatch):
    _cores(monkeypatch, 2)

    def inner(x):
        return x, fork_map(lambda y: os.getpid(), range(4))

    out = fork_map(inner, range(4))
    assert [x for x, _ in out] == [0, 1, 2, 3]
    # each call maps on one process: this one for the first share, the
    # child for the second
    assert out[0][1] == out[1][1] == [os.getpid()] * 4
    child = out[2][1][0]
    assert child != os.getpid()
    assert out[2][1] == out[3][1] == [child] * 4
    _assert_no_child_left()


def _fail_at(bad):
    def fn(x):
        if x in bad:
            raise DataFormatError(f"item {x} is bad")
        return x
    return fn


@pytest.mark.parametrize("bad, first", [({5}, 5), ({1, 5}, 1), ({5, 8}, 5)])
def test_first_failing_share_raises(monkeypatch, bad, first):
    # shares of items 0-2, 3-5 and 6-9; the exception is the one a serial
    # map raises, with its type and message
    _cores(monkeypatch, 3)
    with pytest.raises(DataFormatError, match=f"^item {first} is bad$"):
        fork_map(_fail_at(bad), range(10))
    _assert_no_child_left()


def test_no_child_left_after_keyboard_interrupt(monkeypatch):
    # the parent's share is interrupted while the child's is still running:
    # the child is killed and reaped at once
    _cores(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(2))
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_child_killed_mid_share_is_a_clear_error(monkeypatch):
    _cores(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError,
                       match=r"^worker process \d+ was killed by signal 9 "
                             r"before it sent its whole result \(0 bytes "
                             r"read\)$"):
        fork_map(fn, range(2))
    _assert_no_child_left()


def test_result_that_does_not_pickle_is_a_clear_error(monkeypatch):
    _cores(monkeypatch, 2)
    with pytest.raises(ChildProcessError,
                       match=r"^worker process \d+ exited with status 1 "
                             r"before it sent its whole result"):
        fork_map(lambda x: (lambda: x), range(2))
    _assert_no_child_left()


def test_fork_warning_of_threaded_process_is_ignored(monkeypatch):
    # Python 3.12 warns in the parent, after the fork, when the process
    # runs threads (OpenBLAS's pool counts); tests turn warnings into errors
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning,
                          stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    _cores(monkeypatch, 2)
    assert fork_map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
    _assert_no_child_left()


def _table(rng, n_classes):
    n, n_features = int(rng.integers(60, 160)), 4
    x = (rng.normal(size=(n, n_features)) * 2).round(1)  # values tie
    y = rng.integers(0, n_classes, size=n)
    x[:, 0] += y  # something to learn
    return LabeledFeatureSet(x, y, tuple("abc"[:n_classes]),
                             tuple(f"F{i}" for i in range(n_features)))


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forked_forest_equals_serial(monkeypatch, n_classes, bootstrap):
    # one group (the default budget), two groups, and one group per tree
    rng = np.random.default_rng(40 + n_classes + 2 * bootstrap)
    for trial in range(3):
        ds = _table(rng, n_classes)
        params = ForestParams(n_trees=7, bootstrap=bootstrap,
                              max_depth=[None, 4][trial % 2],
                              features_per_split=2)
        for budget in (1 << 16, 4 * ds.n * 2, 1):
            monkeypatch.setattr(classify, "_GROUP_KEYS", budget)
            models = []
            for cores in (1, 2, 3):
                _cores(monkeypatch, cores)
                models.append(train_forest(ds, params, seed=trial))
            serial = models[0]
            for model in models[1:]:
                for name in classify._TREE_FIELDS:
                    got = getattr(model.nodes, name)
                    want = getattr(serial.nodes, name)
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), (budget, name)
                assert model.start.tobytes() == serial.start.tobytes()
                assert (model.importances.tobytes()
                        == serial.importances.tobytes())
    _assert_no_child_left()


def _feature_csv(path):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(60, len(FEATURE_NAMES)))
    x[30:, 0] += 1.0
    dataio.write_feature_csv(
        path, [dataio.render_feature_rows("0", x[:30]),
               dataio.render_feature_rows("1", x[30:])])


@pytest.mark.parametrize("error, code", [
    (DataFormatError("a child's share failed"), 2),
    (NoSplitsError("a child's share failed"), 2),
    (ValueError("a child's share failed"), 4),
])
def test_child_error_through_cli(monkeypatch, tmp_path, capsys, error, code):
    # the trees of each fit grow one per group, the last two groups in a
    # child, which fails: train-eval exits with the error's code and one line
    features = tmp_path / "features.csv"
    _feature_csv(features)
    parent = os.getpid()
    real = classify._grow_trees

    def grow_trees(*args):
        if os.getpid() != parent:
            raise error
        return real(*args)

    monkeypatch.setattr(classify, "_grow_trees", grow_trees)
    monkeypatch.setattr(classify, "_GROUP_KEYS", 1)
    _cores(monkeypatch, 2)
    capsys.readouterr()
    assert main(["train-eval", "--input", str(features), "--out-dir",
                 str(tmp_path / "ml"), "--classifiers", "forest",
                 "--trees", "4"]) == code
    err = capsys.readouterr().err
    assert err == "error: a child's share failed\n", err
    _assert_no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable cores to compare with 1")
def test_train_eval_bytes_do_not_depend_on_core_count(tmp_path):
    # the 10 dB test-scale table; train-eval with the CLI defaults on one
    # core and on all of them
    raw, features = tmp_path / "raw", tmp_path / "features.csv"
    assert main(["gen-dataset", "--out-dir", str(raw),
                 "--frames-per-device", "2000", "--snr-db", "10",
                 "--seed", "3", "--no-timestamp"]) == 0
    assert main(["extract", "--input", str(raw / "manifest.csv"),
                 "--etalon", str(raw / "etalon.iq"), "--out", str(features),
                 "--no-timestamp"]) == 0
    src = str(Path(radiofp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for pin in (True, False):
        out = tmp_path / ("one_core" if pin else "all_cores")
        subprocess.run(
            [sys.executable, "-m", "radiofp.cli", "train-eval", "--input",
             str(features), "--out-dir", str(out), "--no-timestamp"],
            env=env, check=True, capture_output=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if pin else None)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "model.txt" in outputs[0]
    assert outputs[0] == outputs[1]


def _src_env():
    """This process's environment, with the radiofp under test first on
    PYTHONPATH."""
    src = str(Path(radiofp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="module")
def three_devices(tmp_path_factory):
    """3 devices x 40 frames at L=256, 20 dB: an extract maps device 0 in
    the calling process and devices 1 and 2 in a child, on 2 cores."""
    raw = tmp_path_factory.mktemp("three") / "raw"
    profiles = raw.parent / "profiles.json"
    profiles.write_text('[{}, {"phase_noise_rms": 0.1}, '
                        '{"cubic_nonlinearity": 0.2}]')
    assert main(["gen-dataset", "--out-dir", str(raw), "--profiles",
                 str(profiles), "--frames-per-device", "40", "--frame-len",
                 "256", "--snr-db", "20", "--seed", "5",
                 "--no-timestamp"]) == 0
    return raw


def _extract(data, out):
    return main(["extract", "--input", str(data / "manifest.csv"),
                 "--etalon", str(data / "etalon.iq"), "--out", str(out),
                 "--no-timestamp"])


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable cores to compare with 1")
def test_extract_bytes_do_not_depend_on_core_count(three_devices, tmp_path):
    # devices 0 and 2, one in each process, lose sync after frame 10 of 40:
    # their stderr notes keep the manifest order
    data = tmp_path / "data"
    shutil.copytree(three_devices, data)
    for name in ("device_0.iq", "device_2.iq"):
        stream = dataio.read_iq(data / name)
        cut = 10 * 256
        dataio.write_iq(data / name, np.concatenate(
            [stream[:cut], np.zeros(300, dtype=complex), stream[cut:]]))
    out = tmp_path / "features.csv"
    runs = []
    for pin in (True, False):
        done = subprocess.run(
            [sys.executable, "-m", "radiofp.cli", "extract", "--input",
             str(data / "manifest.csv"), "--etalon", str(data / "etalon.iq"),
             "--out", str(out), "--no-timestamp"],
            env=_src_env(), capture_output=True, text=True, timeout=300,
            preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if pin else None)
        runs.append((done.returncode, done.stdout, done.stderr,
                     out.read_bytes()))
        out.unlink()
    assert runs[0][:3] == (0, f"wrote 60 feature rows to {out}\n",
                           "device 0: sync found 10 of 40 frames, lost after "
                           "sample 2560\n"
                           "device 2: sync found 10 of 40 frames, lost after "
                           "sample 2560\n"
                           "skipped 0 of 60 frames\n")
    assert runs[0] == runs[1]
    _assert_no_child_left()


def test_extract_stream_jobs_render_the_same_table(three_devices, tmp_path,
                                                  monkeypatch, capsys):
    # device 1 loses sync after frame 10 of 40, and device 2's frames, at
    # 1e-14 of their amplitude, all have zero gain.  With usable cores
    # forced to 1, 2 and 3, every job runs in this process, devices 1 and
    # 2 run in one child, or each device runs in a process of its own;
    # each job renders its stream's rows.  The table, stdout, stderr and
    # exit code are the same, and the table is the csv.writer rendering of
    # each stream's kept rows, in manifest order
    data = tmp_path / "data"
    shutil.copytree(three_devices, data)
    stream = dataio.read_iq(data / "device_1.iq")
    cut = 10 * 256
    dataio.write_iq(data / "device_1.iq", np.concatenate(
        [stream[:cut], np.zeros(300, dtype=complex), stream[cut:]]))
    dataio.write_iq(data / "device_2.iq",
                    1e-14 * dataio.read_iq(data / "device_2.iq"))
    out = tmp_path / "features.csv"
    runs = []
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        code = _extract(data, out)
        runs.append((code, *capsys.readouterr(), out.read_bytes()))
        out.unlink()
        _assert_no_child_left()
    assert runs[0][:3] == (0, f"wrote 50 feature rows to {out}\n",
                           "device 1: sync found 10 of 40 frames, lost after "
                           "sample 2560\n"
                           "skipped 40 of 90 frames (zero gain: 40)\n")
    assert runs[1] == runs[0] and runs[2] == runs[0]
    etalon = dataio.read_iq(data / "etalon.iq")
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(dataio.FEATURE_CSV_HEADER)
    for dev in range(3):
        values, failed, _, _ = run_capture_pipeline(
            IqFile(data / f"device_{dev}.iq"), etalon)
        table.writerows([str(dev), *map(dataio._cell, row)]
                        for row in values[failed < 0].tolist())
    assert runs[0][3] == buf.getvalue().encode()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable cores to compare with 1")
def test_gen_dataset_bytes_do_not_depend_on_core_count(tmp_path):
    # 3 devices after 1500 lead-in zeros: on all cores devices 0 and 1 are
    # written in the calling process and device 2 and the etalon in a
    # child, on one core all four files in one process
    profiles = tmp_path / "profiles.json"
    profiles.write_text('[{}, {"phase_noise_rms": 0.1}, '
                        '{"cubic_nonlinearity": 0.2}]')
    runs = []
    for pin in (True, False):
        out = tmp_path / ("one_core" if pin else "all_cores")
        done = subprocess.run(
            [sys.executable, "-m", "radiofp.cli", "gen-dataset", "--out-dir",
             str(out), "--profiles", str(profiles), "--frames-per-device",
             "40", "--frame-len", "256", "--snr-db", "20", "--seed", "5",
             "--lead-in", "1500", "--no-timestamp"],
            env=_src_env(), capture_output=True, text=True, timeout=300,
            preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if pin else None)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"wrote 3 devices x 40 frames (120 total) to {out}\n", "")
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == ["device_0.iq", "device_1.iq", "device_2.iq",
                               "etalon.iq", "manifest.csv"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("failing, sample", [((0,), 100000),
                                             ((1, 2), 100001),
                                             ((2,), 100000)])
def test_gen_dataset_failing_device_leaves_no_stream(failing, sample,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    # 3 devices on 2 cores, devices 0 and 1 in this process, device 2 and
    # the etalon in a child.  Device 0's samples overflow float32 while the
    # child is still writing, devices 1 and 2 overflow in both processes,
    # or device 2's overflow in the child while devices 0 and 1 are
    # written whole: exit 2 with the first failing device's one line, as
    # on one core, and no file and no temp file is left, whoever wrote it.
    # Every stream starts with the lead-in zeros, so the child's first
    # file is open before device 0 fails
    lead_in = 100000
    profiles = tmp_path / "profiles.json"
    profiles.write_text("[" + ", ".join(
        '{"cubic_nonlinearity": 1e40}' if dev in failing else "{}"
        for dev in range(3)) + "]")
    out = tmp_path / "g"
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        code = main(["gen-dataset", "--out-dir", str(out), "--profiles",
                     str(profiles), "--frames-per-device", "400",
                     "--frame-len", "256", "--lead-in", str(lead_in),
                     "--no-timestamp"])
        assert (code,) + tuple(capsys.readouterr()) == (
            2, "", f"error: {out / f'device_{failing[0]}.iq'}: sample "
                   f"{sample} is not finite as 32-bit floats\n"), cores
        assert list(out.iterdir()) == [], cores
        _assert_no_child_left()


@pytest.mark.parametrize("pin", [False, True])
def test_gen_dataset_failing_rerun_keeps_the_dataset(pin, tmp_path):
    # a rerun into a 128-sample dataset whose device 1 overflows float32
    # (its signal power overflows a float first): exit 2 with the one
    # error line, numpy's overflow warning not printed, and the etalon,
    # both streams and the manifest keep their bytes, so extract still
    # reads one consistent dataset
    out = tmp_path / "g"
    profiles = tmp_path / "profiles.json"
    profiles.write_text('[{}, {"dc_offset": [1e300, 0]}]')

    def gen_dataset(*argv):
        return subprocess.run(
            [sys.executable, "-m", "radiofp.cli", "gen-dataset", "--out-dir",
             str(out), "--frames-per-device", "4", "--no-timestamp", *argv],
            env=_src_env(), capture_output=True, text=True, timeout=300,
            preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if pin else None)

    assert gen_dataset("--frame-len", "128").returncode == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["device_0.iq", "device_1.iq", "etalon.iq",
                              "manifest.csv"]
    done = gen_dataset("--frame-len", "256", "--profiles", str(profiles))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {out / 'device_1.iq'}: sample 0 is not finite as "
               "32-bit floats\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# each edit makes the stream at ``path`` fail in the read that extract
# makes of it
def _no_file(path, monkeypatch):
    path.unlink()


def _half_sample(path, monkeypatch):
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)


def _nan_sample(path, monkeypatch):
    with open(path, "r+b") as fh:
        fh.seek(8 * 1234)
        fh.write(np.array([0.0, np.nan], dtype="<f4").tobytes())


def _shrunk_after_open(path, monkeypatch):
    class ShrinkingIqFile(IqFile):  # not a subclass of an earlier run's
        def __init__(self, name):
            super().__init__(name)
            if Path(name) == path:
                path.write_bytes(path.read_bytes()[:8 * 3000])

    monkeypatch.setattr(dataio, "IqFile", ShrinkingIqFile)


def _run_each_way(monkeypatch, tmp_path, capsys, source, edits):
    """Extract a fresh copy of ``source``, each ``(edit, file name)`` of
    ``edits`` applied to it, serially and with devices 1 and 2 in a child:
    ``(exit code, stdout, stderr)`` of each run, the paths the same."""
    data, out = tmp_path / "data", tmp_path / "f.csv"
    runs = []
    for cores in (1, 2):
        shutil.rmtree(data, ignore_errors=True)
        shutil.copytree(source, data)
        for edit, name in edits:
            edit(data / name, monkeypatch)
        _cores(monkeypatch, cores)
        capsys.readouterr()
        code = _extract(data, out)
        runs.append((code,) + tuple(capsys.readouterr()))
        assert not out.exists()
        _assert_no_child_left()
    return runs


@pytest.mark.parametrize("edit", [_no_file, _half_sample, _nan_sample,
                                  _shrunk_after_open])
def test_extract_failing_device_in_child(three_devices, tmp_path,
                                         monkeypatch, capsys, edit):
    # device 1's stream is missing, not a whole number of 8-byte samples,
    # holds a non-finite sample, or shrinks between IqFile measuring it and
    # the read: the child's error is the serial run's one line, exit 2
    serial, forked = _run_each_way(monkeypatch, tmp_path, capsys,
                                   three_devices, [(edit, "device_1.iq")])
    code, out, err = serial
    assert code == 2 and out == "", serial
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "device_1.iq" in err
    assert forked == serial


def test_extract_first_failing_device_in_child_reported(
        three_devices, tmp_path, monkeypatch, capsys):
    # devices 1 and 2 both fail, one after the other in the child's share:
    # device 1's error is the one line, as in a serial run
    serial, forked = _run_each_way(
        monkeypatch, tmp_path, capsys, three_devices,
        [(_nan_sample, "device_1.iq"), (_no_file, "device_2.iq")])
    assert serial == (2, "", f"error: {tmp_path}/data/device_1.iq: sample "
                             "1234 is not finite\n")
    assert forked == serial


def test_fork_map_with_blas_in_child():
    # OpenBLAS's pool is awake in the parent at the fork, and each item
    # calls BLAS in the child, as extract's vdot and a cross-validation
    # job's kNN matmul and logistic solve do: the map neither hangs nor
    # changes a bit
    script = """
import numpy as np
from radiofp import parallel

parallel.usable_cores = lambda: 2
rng = np.random.default_rng(0)
big = rng.normal(size=(800, 800))
big @ big  # starts OpenBLAS's threads


def fn(i):
    a = np.random.default_rng(i).normal(size=(300, 300))
    z = a[0] + 1j * a[1]
    return ((a @ a).tobytes(), complex(np.vdot(z, a[2] - 1j * a[3])),
            np.matmul(a[:7], a.T).tobytes(),
            np.linalg.solve(a @ a.T + np.eye(300), a[4]).tobytes())


forked = parallel.fork_map(fn, range(6))
assert forked == [fn(i) for i in range(6)]
print("ok")
"""
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr
