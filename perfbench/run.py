"""radiofp benchmark: set up one workload, run its op in a closed loop, check
every output, and print the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload capture_long --seed 1 --seconds 30 \
        --trace 0

One client runs ops back to back in this process until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics.  The
last stdout line is the result JSON; the full record (environment, per-op
times and output digests) goes to ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads
from speed import SpeedProbe, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# no op starts if the longest op so far would end after this many seconds
# from process start, so a slowed-down program still ends a run in 3 minutes
RUN_DEADLINE_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# per-layer metric -> the layer_totals key it reads, where the names differ
ALIASES = {
    "pipeline.frames_synced": "pipeline.synchronize.frames",
    "pipeline.zero_gain_skips": "pipeline.error_phase.errors.ZeroGainError",
    "classify.predict_rows": "classify.predict_proba.rows",
    "explain.perturbations": "explain.explain_instance.perturbations",
}
# per-layer metric -> the op check fact it reads
FACTS = {
    "pipeline.frames_lost_frac": "frames_lost_frac",
    "classify.cv_accuracy": "cv_accuracy",
    "classify.forest_nodes": "forest_nodes",
    "classify.model_bytes": "model_bytes",
    "explain.fidelity_mean": "fidelity",
}
SETUP_METRICS = ("pipeline.simulate_device.s",)


class SetupError(Exception):
    pass


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def tree_digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def environment(caps: dict) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "radiofp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_caps": caps}


def run_setups(workload, seed, run_dir, traced):
    """SETUP_REPEATS identical set-ups, each in a fresh child process.

    Returns (seconds per set-up, spans per set-up, digest mismatch or None).
    The first set-up's directory is kept for the ops.
    """
    seconds, spans, first, mismatch = [], [], None, None
    for k in range(SETUP_REPEATS):
        root = run_dir / f"setup{k}"
        spans_path = run_dir / f"setup{k}.spans.json" if traced else None
        argv = [sys.executable, str(HERE / "workloads.py"), workload,
                str(root), str(seed), f"setup{k}"]
        if spans_path is not None:
            argv.append(str(spans_path))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        # a blocking wait sees the exit at once; Popen.wait(timeout) polls
        # at up to 50 ms steps, which would show in setup_s
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            exitcode = proc.wait()
        finally:
            # on every way out, the child is gone before we go on
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_TIMEOUT_S:
            raise SetupError(f"set-up {k} took over {SETUP_TIMEOUT_S} s")
        if exitcode != 0:
            raise SetupError(f"set-up {k} exited {exitcode}")
        seconds.append(elapsed)
        if spans_path is not None:
            spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        digests = tree_digests(root)
        if first is None:
            first = digests
        else:
            if digests != first and mismatch is None:
                mismatch = sorted(n for n in set(first) | set(digests)
                                  if first.get(n) != digests.get(n))
            shutil.rmtree(root)
    return seconds, spans, mismatch


def run_ops(op, run_dir, seconds, traced_mode, tracer, process_start):
    """Closed loop: untraced ops, or untraced and traced ops alternating."""
    ops = []
    probe = SpeedProbe()
    start = time.perf_counter()
    longest = 0.0
    while True:
        i = len(ops)
        traced = traced_mode and i % 2 == 1
        out = run_dir / f"op{i}"
        out.mkdir()
        gc.collect()
        if traced:
            tracer.op = i
            tracer.install()
            root_span = tracer.begin("op")
        else:
            probe.start()
        t0 = time.perf_counter()
        error, stderr = None, ""
        try:
            stderr = op.run(out)
        except Exception as exc:  # any program failure is a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end(root_span)
                tracer.uninstall()
                speed = {}
            else:
                speed = probe.stop()
                elapsed -= speed["probe_s"]
                speed["ref_seconds"] = reference_s(elapsed,
                                                   speed["probe_mean_s"])
        record = {"op": i, "traced": traced, "seconds": elapsed, **speed,
                  "error": error, "problems": [], "facts": {}, "digests": {}}
        if error is None:
            try:
                record["problems"], record["facts"] = op.check(out, stderr)
            except (OSError, ValueError, IndexError) as exc:
                record["problems"] = [f"unreadable output: {exc}"]
            record["digests"] = tree_digests(out)
        ops.append(record)
        longest = max(longest, elapsed)
        now = time.perf_counter()
        enough = now - start >= seconds and len(ops) >= (2 if traced_mode else 1)
        if enough or now + longest - process_start > RUN_DEADLINE_S:
            return ops


def median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def per_layer(spec, ops, tracer, setup_spans, op_p50):
    traced = [o for o in ops if o["traced"]]
    by_op = {o["op"]: [] for o in traced}
    for span in tracer.spans:
        by_op[span.op].append(span)
    op_totals = []
    for o in traced:
        spans = by_op[o["op"]]
        totals = tracing.layer_totals(spans)
        totals["features.errors"] = sum(
            v for k, v in totals.items()
            if k.startswith("features.extract_features.errors."))
        root = next(s for s in spans if s.name == "op")
        totals["trace.covered_s"] = sum(s.end - s.start for s in spans
                                        if s.parent == root.sid)
        op_totals.append(totals)
    setup_totals = [tracing.layer_totals([tracing.Span.from_dict(d)
                                          for d in spans])
                    for spans in setup_spans]

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in SETUP_METRICS:
            value = median([t.get(name, 0.0) for t in setup_totals])
        elif name in FACTS:
            value = median([o["facts"].get(FACTS[name]) for o in ops])
        elif name == "trace.overhead_frac":
            traced_p50 = median([o["seconds"] for o in traced])
            value = (traced_p50 - op_p50) / op_p50
        elif name == "trace.covered_frac":
            value = median([t["trace.covered_s"] for t in op_totals]) / op_p50
        else:
            key = ALIASES.get(name, name)
            value = median([t.get(key, 0.0) for t in op_totals])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def run(args, spec, run_dir, process_start):
    import radiofp.cli  # noqa: F401  (keep the import out of the first op)

    setup_s, setup_spans, setup_mismatch = run_setups(
        args.workload, args.seed, run_dir, args.trace)
    op = workloads.WORKLOADS[args.workload](run_dir / "setup0", args.seed)
    tracer = tracing.Tracer()
    ops = run_ops(op, run_dir, args.seconds, args.trace, tracer, process_start)

    failed = [o for o in ops if o["error"] or o["problems"]]
    reference = next((o["digests"] for o in ops if o["digests"]), None)
    nondeterministic = [o["op"] for o in ops
                        if o["digests"] and o["digests"] != reference]
    untraced = [o for o in ops if not o["traced"]]
    ok_untraced = [o for o in untraced if o not in failed] or untraced
    op_p50 = median([o["seconds"] for o in ok_untraced])
    op_ref_p50 = median([o["ref_seconds"] for o in ok_untraced])
    items = median([o["facts"].get("items") for o in ok_untraced])

    if args.trace:
        metrics = per_layer(spec, ops, tracer, setup_spans, op_p50)
    else:
        values = {
            "setup_s": median(setup_s),
            "items_per_ref_s": items / op_ref_p50,
            "op_ref_s.p50": op_ref_p50,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "correct": not failed and not nondeterministic
                   and setup_mismatch is None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    facts = {k: median([o["facts"].get(k) for o in ops], None)
             for k in ("frames_lost_frac", "cv_accuracy", "fidelity")}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.caps),
        "setup_s": setup_s, "setup_digest_mismatch": setup_mismatch,
        "fail_frac": len(failed) / len(ops), "quality": facts,
        "nondeterministic_ops": nondeterministic,
        "untraced_op_samples": len(untraced),
        "op_s.p50": op_p50, "op_ref_s.p50": op_ref_p50,
        "probe_mean_s.p50": median([o["probe_mean_s"] for o in untraced]),
        "missing_trace_targets": tracer.missing,
        "ops": ops, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.jsonl", tracer.spans, setup_spans)
    return record


def write_spans(path, op_spans, setup_spans):
    with open(path, "w", encoding="utf-8") as fh:
        for spans in [op_spans] + [[tracing.Span.from_dict(d) for d in s]
                                   for s in setup_spans]:
            own = tracing.self_times(spans)
            for s in spans:
                fh.write(json.dumps(s.as_dict(own[s.sid])) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    process_start = time.perf_counter()
    # a SIGTERM unwinds like an exception, so set-up children are killed
    # and waited for, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    args.caps = cap_threads()
    if not (SRC / "radiofp" / "cli.py").is_file():
        print(f"error: radiofp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = run(args, spec, run_dir, process_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = record["result"]
    q = record["quality"]
    print(f"{args.workload} seed {args.seed}: setup_s "
          f"{statistics.median(record['setup_s']):.3f} over "
          f"{len(record['setup_s'])}, {record['untraced_op_samples']} "
          f"untraced ops, op_s.p50 {record['op_s.p50']:.3f} at probe "
          f"{record['probe_mean_s.p50'] * 1e3:.3f} ms, fail_frac "
          f"{record['fail_frac']}, "
          f"frames_lost_frac {q['frames_lost_frac']}, "
          f"cv_accuracy {q['cv_accuracy']}, fidelity {q['fidelity']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
