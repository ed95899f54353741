"""In-memory span tracing of radiofp's public functions, applied from outside.

Nothing in the package changes: ``Tracer.install`` swaps each target's
module attribute (in every ``radiofp`` module that bound the same function
by name) or class attribute for a timing wrapper, and ``uninstall`` puts
the originals back.  A span records its name, start, end, parent span and
op id, plus optional counts taken from the call's arguments or result and
the class name of any exception the call raised.  Spans stay in a list
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


# (module, attribute, span name, counts taken from (args, kwargs, result))
TARGETS = (
    ("pipeline", "simulate_device", "pipeline.simulate_device", None),
    ("pipeline", "run_capture_pipeline", "pipeline.run_capture_pipeline", None),
    ("pipeline", "synchronize", "pipeline.synchronize",
     lambda a, k, r: {"frames": len(r)}),
    ("pipeline", "error_phase", "pipeline.error_phase", None),
    ("features", "extract_features", "features.extract_features", None),
    ("dataio", "read_iq", "dataio.read_iq",
     lambda a, k, r: {"bytes": 8 * r.size}),  # two float32 per sample
    ("dataio", "write_iq", "dataio.write_iq", None),
    ("dataio", "read_manifest", "dataio.read_manifest", None),
    ("dataio", "write_feature_csv", "dataio.write_feature_csv", None),
    ("dataio", "read_feature_csv", "dataio.read_feature_csv",
     lambda a, k, r: {"rows": r.n}),
    ("stats", "significance_report", "stats.significance_report", None),
    ("stats", "pearson_matrix", "stats.pearson_matrix", None),
    ("stats", "histogram", "stats.histogram", None),
    ("classify", "evaluate", "classify.evaluate", None),
    ("classify", "train_forest", "classify.train_forest", None),
    ("classify", "train_tree", "classify.train_tree", None),
    ("classify", "train_knn", "classify.train_knn", None),
    ("classify", "logistic_regression_train",
     "classify.logistic_regression_train", None),
    ("classify", "RandomForestModel.predict_proba", "classify.predict_proba",
     _rows),
    ("classify", "KnnModel.predict", "classify.knn_predict", _rows),
    ("classify", "save_model", "classify.save_model", None),
    ("classify", "load_model", "classify.load_model", None),
    ("explain", "explain_instance", "explain.explain_instance",
     lambda a, k, r: {"perturbations": r.n_perturbations}),
    ("cli", "cmd_gen_dataset", "cli.gen_dataset", None),
    ("cli", "cmd_extract", "cli.extract", None),
    ("cli", "cmd_stats", "cli.stats", None),
    ("cli", "cmd_train_eval", "cli.train_eval", None),
    ("cli", "cmd_explain", "cli.explain", None),
)


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "end", "counts",
                 "error")

    def __init__(self, sid, parent, op, name, start):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.counts = None
        self.error = None

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["id"], d["parent"], d["op"], d["name"], d["start"])
        span.end, span.counts, span.error = d["end"], d["counts"], d["error"]
        return span

    def as_dict(self, self_s=None) -> dict:
        return {"op": self.op, "id": self.sid, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self_s, "counts": self.counts, "error": self.error}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._undo: list = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self.op, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.end(span)
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for module_name, attr, span_name, measure in TARGETS:
            module = importlib.import_module(f"radiofp.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(fn_name) if owner else None
                holders = [owner]
            else:
                original = getattr(module, fn_name, None)
                holders = [m for n, m in list(sys.modules.items())
                           if n.split(".")[0] == "radiofp"]
            if not callable(original):
                if span_name not in self.missing:
                    self.missing.append(span_name)
                continue
            wrapped = self.wrap(span_name, original, measure)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def self_times(spans) -> dict:
    """span id -> duration minus the time its children cover.

    Calls on one thread nest and do not overlap, so the children's covered
    time is the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def layer_totals(spans) -> dict:
    """Per-name sums over one op's spans.

    Keys are ``<name>.s``, ``<name>.self_s``, ``<name>.calls``,
    ``<name>.<count>`` for each count a target records, and
    ``<name>.errors.<ExceptionClass>``.
    """
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += own[s.sid]
        out[f"{s.name}.calls"] += 1
        for key, value in (s.counts or {}).items():
            out[f"{s.name}.{key}"] += value
        if s.error:
            out[f"{s.name}.errors.{s.error}"] += 1
    return dict(out)
