"""Span recording around hdtcam's public functions, and per-layer metrics.

The recorder wraps module attributes from outside the program: every
``hdtcam`` module whose namespace holds the wrapped function object gets
the wrapper, so calls through ``from .core import majority_from_counts``
are recorded as well. Spans stay in memory and are written once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

# (module, function) pairs wrapped in the traced run; ``synth`` only
# generates inputs and is not measured.
TRACED = (
    ("hdtcam.encoders", "encode_text_ngram"),
    ("hdtcam.encoders", "load_hypervector_csv"),
    ("hdtcam.core", "majority_from_counts"),
    ("hdtcam.am", "train"),
    ("hdtcam.am", "save_model"),
    ("hdtcam.am", "load_model"),
    ("hdtcam.hwmodel", "default_catalog"),
    ("hdtcam.hwmodel", "confusion_from_latency"),
    ("hdtcam.explorer", "ideal_accuracy"),
    ("hdtcam.explorer", "evaluate"),
    ("hdtcam.explorer", "sweep"),
    ("hdtcam.explorer", "write_results_csv"),
)

CLI_COMMANDS = ("train", "eval", "sweep", "pareto")

# Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "encoders.encode_text_ngram.calls": "count",
    "encoders.encode_text_ngram.windows": "count",
    "encoders.encode_text_ngram.train.self_s": "s",
    "encoders.encode_text_ngram.query.self_s": "s",
    "encoders.load_hypervector_csv.self_s": "s",
    "encoders.load_hypervector_csv.bytes": "bytes",
    "core.majority_from_counts.calls": "count",
    "core.majority_from_counts.self_s": "s",
    "am.train.self_s": "s",
    "am.save_model.self_s": "s",
    "am.load_model.self_s": "s",
    "hwmodel.default_catalog.s": "s",
    "hwmodel.default_catalog.entries": "count",
    "hwmodel.confusion_from_latency.calls": "count",
    "explorer.ideal_accuracy.self_s": "s",
    "explorer.ideal_accuracy.bytes_compared": "bytes",
    "explorer.evaluate.calls": "count",
    "explorer.evaluate.self_s": "s",
    "explorer.evaluate.block_reads": "count",
    "explorer.evaluate.block_reads_per_s": "1/s",
    "explorer.evaluate.bytes_compared": "bytes",
    "explorer.sweep.self_s": "s",
    "explorer.write_results_csv.self_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """In-memory spans: [name, start, end, parent index, run id, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = "setup"
        self._t0 = time.perf_counter()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self._t0, None, parent, self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self._t0
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run, counts in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "run": run, "counts": counts}) + "\n")


def _counter(qualname: str, fn):
    """Work counts recorded with a span, computed from arguments and result."""
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def evaluate_counts(a, result):
        q, c, cfg = len(a["queries"]), len(a["am"]), a["cfg"]
        return {"block_reads": q * c * cfg.num_blocks * a["replicas"] * a["trials"],
                "bytes_compared": q * c * cfg.dimension}

    counters = {
        "encoders.load_hypervector_csv":
            lambda a, result: {"bytes": os.path.getsize(a["path"])},
        "core.majority_from_counts": lambda a, result: {"total": int(a["total"])},
        "hwmodel.default_catalog": lambda a, result: {"entries": len(result)},
        "explorer.ideal_accuracy": lambda a, result: {
            "bytes_compared": len(a["queries"]) * len(a["am"]) * a["am"].dimension},
        "explorer.evaluate": evaluate_counts,
    }
    count = counters.get(qualname)
    if count is None:
        return None
    return lambda args, kwargs, result: count(bound(args, kwargs), result)


def _wrap(rec: Recorder, qualname: str, fn):
    count = _counter(qualname, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            rec.spans[index][5] = count(args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Replace each traced function in every loaded hdtcam module's namespace."""
    for module_name, attr in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(rec, f"{module_name.split('.')[1]}.{attr}", original)
        for name, module in list(sys.modules.items()):
            if name.startswith("hdtcam") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# Derivation


def _layer_values(spans: list) -> dict:
    """Per-layer metrics of one run id's spans (all other metrics zero)."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    by_index = {s["index"]: s for s in spans}
    child_time = dict.fromkeys(by_index, 0.0)
    for s in spans:
        if s["parent"] in child_time:
            child_time[s["parent"]] += s["end"] - s["start"]

    def root_name(s):
        while s["parent"] in by_index:
            s = by_index[s["parent"]]
        return s["name"]

    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        self_s = dur - child_time[s["index"]]
        if name.startswith("cli."):
            out[f"{name}.s"] += dur
            out["cli.self_s"] += self_s
            continue
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        for key, value in (s["counts"] or {}).items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += value
        if name == "encoders.encode_text_ngram":
            phase = "train" if root_name(s) == "cli.train" else "query"
            out[f"encoders.encode_text_ngram.{phase}.self_s"] += self_s
        elif name == "core.majority_from_counts":
            parent = by_index.get(s["parent"])
            if parent is not None and parent["name"] == "encoders.encode_text_ngram":
                out["encoders.encode_text_ngram.windows"] += s["counts"]["total"]
        elif name == "hwmodel.default_catalog":
            out["hwmodel.default_catalog.s"] += dur
    return out


def load(path: str) -> list:
    spans = []
    with open(path, "r", encoding="utf-8") as f:
        for index, line in enumerate(f):
            span = json.loads(line)
            span["index"] = index
            if span["end"] is not None:  # else cut by the time budget
                spans.append(span)
    return spans


def layer_metrics(spans: list, overhead_s: float, reps: list) -> dict:
    """Set-up spans plus the median over the run ids ``reps``, as {name: value}."""
    setup = _layer_values([s for s in spans if s["run"] == "setup"])
    per_rep = [_layer_values([s for s in spans if s["run"] == r]) for r in reps]
    out = {
        name: setup[name] + (statistics.median_low(v[name] for v in per_rep) if per_rep else 0)
        for name in LAYER_METRICS
    }
    self_s = out["explorer.evaluate.self_s"]
    out["explorer.evaluate.block_reads_per_s"] = (
        out["explorer.evaluate.block_reads"] / self_s if self_s > 0 else 0.0
    )
    out["trace.overhead_s"] = overhead_s
    return out
