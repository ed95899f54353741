"""The two workloads: how each sets up its inputs, what one op runs, and
how the op's outputs are checked.

Every op drives ``radiofp.cli.main`` in the calling process.  Set-up runs in
a child process (see ``run.py``) so that the parent's peak RSS belongs to
the ops alone; the child runs this file as a script:

    python3 perfbench/workloads.py <workload> <dir> <seed> <op> [<spans.json>]

All inputs derive from the benchmark seed; the program only sees the files
written here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import sys
from pathlib import Path

FRAMES_PER_DEVICE = 2000
FRAME_LEN = 1024
# train_explain only needs the 10 dB feature rows, not a long-stream sync:
# cutting each device stream into 250-frame parts at frame boundaries
# gives the same rows while keeping the quadratic sync out of its set-up
PART_FRAMES = 250
SAMPLE_BYTES = 8  # interleaved float32 I and Q


class CliFailure(Exception):
    pass


def cli(argv) -> str:
    """Run one CLI command in this process; return its stderr text."""
    from radiofp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    if rc != 0:
        raise CliFailure(f"radiofp {argv[0]} exited {rc}: "
                         f"{err.getvalue().strip()}")
    return err.getvalue()


def csv_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(ln for ln in fh if not ln.startswith("#")))


def _gen(out_dir: Path, snr_db: float, seed: int) -> None:
    cli(["gen-dataset", "--out-dir", out_dir,
         "--frames-per-device", FRAMES_PER_DEVICE, "--frame-len", FRAME_LEN,
         "--snr-db", snr_db, "--seed", seed, "--no-timestamp"])


def _split_streams(data: Path) -> Path:
    """Cut each manifest stream into PART_FRAMES-frame files; new manifest."""
    rows = csv_rows(data / "manifest.csv")
    header, parts = rows[0], []
    part_bytes = PART_FRAMES * FRAME_LEN * SAMPLE_BYTES
    for label, name, frames, profile in rows[1:]:
        src = data / name
        with open(src, "rb") as fh:
            for p in range(int(frames) // PART_FRAMES):
                part = f"{src.stem}_part{p}.iq"
                (data / part).write_bytes(fh.read(part_bytes))
                parts.append([label, part, PART_FRAMES, profile])
        src.unlink()
    manifest = data / "parts.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + parts)
    return manifest


def _features_10db(root: Path, seed: int) -> None:
    data = root / "data"
    _gen(data, 10.0, seed)
    manifest = _split_streams(data)
    cli(["extract", "--input", manifest, "--etalon", data / "etalon.iq",
         "--out", root / "features.csv", "--no-timestamp"])


class CaptureLong:
    """An op is one ``extract`` over 2 long 20 dB device streams."""

    @staticmethod
    def setup(root: Path, seed: int) -> None:
        _gen(root / "data", 20.0, seed)

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.expected_frames = sum(
            int(r[2]) for r in csv_rows(root / "data/manifest.csv")[1:])

    def run(self, out: Path) -> str:
        return cli(["extract", "--input", self.root / "data/manifest.csv",
                    "--etalon", self.root / "data/etalon.iq",
                    "--out", out / "features.csv", "--no-timestamp"])

    def check(self, out: Path, stderr: str):
        problems = []
        rows = csv_rows(out / "features.csv")[1:]
        if not all(len(r) == 11 and all(math.isfinite(float(v))
                                        for v in r[1:]) for r in rows):
            problems.append("feature rows are not 10 finite values")
        m = re.search(r"skipped (\d+) of (\d+) frames", stderr)
        if m is None:
            problems.append("no skip count reported")
        elif len(rows) + int(m.group(1)) != self.expected_frames:
            problems.append(f"{len(rows)} rows + {m.group(1)} skipped != "
                            f"{self.expected_frames} manifest frames")
        lost = (self.expected_frames - len(rows)) / self.expected_frames
        return problems, {"items": len(rows), "frames_lost_frac": lost}


class TrainExplain:
    """An op is ``stats``, ``train-eval`` with the CLI defaults, then one
    ``explain`` of a seeded row against the 100-tree model just written."""

    setup = staticmethod(_features_10db)

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        labels = [r[0] for r in csv_rows(root / "features.csv")[1:]]
        self.n_rows = len(labels)
        self.labels = set(labels)
        self.majority_share = max(map(labels.count, self.labels)) / len(labels)
        self.row = random.Random(seed).randrange(len(labels))

    def run(self, out: Path) -> str:
        features = self.root / "features.csv"
        return (cli(["stats", "--input", features, "--out-dir", out / "stats",
                     "--no-timestamp"])
                + cli(["train-eval", "--input", features,
                       "--out-dir", out / "ml", "--seed", self.seed,
                       "--no-timestamp"])
                + cli(["explain", "--model", out / "ml/model.txt",
                       "--input", features, "--row", self.row,
                       "--seed", self.seed, "--out", out / "explanation.csv",
                       "--no-timestamp"]))

    def check(self, out: Path, stderr: str):
        problems = []
        acc = {(r[0], r[1]): float(r[2])
               for r in csv_rows(out / "ml/metrics.csv")[1:]}
        forest, tree = acc.get(("forest", "mean")), acc.get(("tree", "mean"))
        if forest is None or tree is None:
            problems.append("metrics.csv lacks the forest or tree mean")
        elif not forest >= tree >= self.majority_share:
            problems.append(f"accuracy order broken: forest {forest} tree "
                            f"{tree} majority {self.majority_share}")
        if len(csv_rows(out / "stats/significance.csv")[1:]) != 10:
            problems.append("significance.csv does not list 10 features")

        path = out / "explanation.csv"
        with open(path, encoding="utf-8") as fh:
            summary = fh.readline()
        m = re.match(r"# predicted_class=(\S+) fidelity=(\S+) seed=", summary)
        fidelity = float(m.group(2)) if m else math.nan
        if not m or m.group(1) not in self.labels:
            problems.append(f"no valid predicted class in {summary!r}")
        if not fidelity <= 1.0:  # also rejects nan
            problems.append(f"fidelity {fidelity} not <= 1")
        weights = [float(r[1]) for r in csv_rows(path)[1:]]
        if len(weights) != 10 or not all(map(math.isfinite, weights)):
            problems.append("explanation does not have 10 finite weights")

        model = out / "ml/model.txt"
        return problems, {"items": self.n_rows, "cv_accuracy": forest,
                          "fidelity": fidelity,
                          "forest_nodes": forest_nodes(model),
                          "model_bytes": model.stat().st_size}


# name -> workload; each has setup(root, seed), and its instances, built on
# a finished set-up directory, have run(out) -> CLI stderr and
# check(out, stderr) -> (problems, facts)
WORKLOADS = {"capture_long": CaptureLong, "train_explain": TrainExplain}


def forest_nodes(model_path: Path) -> int:
    """Node count from the ``tree <i> <n_nodes>`` lines of a model file."""
    with open(model_path, encoding="ascii") as fh:
        return sum(int(ln.split()[2]) for ln in fh if ln.startswith("tree "))


def setup_child(workload: str, root: str, seed: int, op: str,
                spans_path: str | None) -> None:
    """Entry point of the set-up child process; traces when given a path."""
    tracer = None
    if spans_path is not None:
        import radiofp.cli  # noqa: F401  (load every module before wrapping)
        from tracing import Tracer

        tracer = Tracer()
        tracer.op = op
        tracer.install()
    try:
        WORKLOADS[workload].setup(Path(root), seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            Path(spans_path).write_text(json.dumps(
                [s.as_dict() for s in tracer.spans]), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload, root, seed, op = sys.argv[1:5]
    setup_child(workload, root, int(seed), op,
                sys.argv[5] if len(sys.argv) > 5 else None)
