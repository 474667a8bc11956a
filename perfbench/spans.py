"""Spans recorded from outside the package, and the per-layer metrics.

``Tracer.wrap`` replaces a module attribute with a timing wrapper, so it
must be applied where the caller looks the name up: ``cli`` binds its stage
functions at import and is wrapped as ``gafecg.cli.<name>``; ``train_eval``
reaches the network through the module and is wrapped as
``gafecg.cnn.<name>``. Spans stay in memory and are written when the run
ends. A span's self time is its duration minus its direct children's.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

CLI_STAGES = ("ingest", "preprocess", "segment", "encode", "train", "eval")

# (metric, span name, statistic, unit). Statistics: "ms" / "s" per call,
# "ms_item" per item, "self_s" self seconds per call, "calls" and "items"
# per round.
LAYER_METRICS = [
    ("wfdb_ingest.scan_ms", "wfdb_ingest.scan", "ms", "ms"),
    ("wfdb_ingest.scan_calls", "wfdb_ingest.scan", "calls", "count"),
    ("wfdb_ingest.load_ms_per_record", "wfdb_ingest.load", "ms", "ms"),
    ("wfdb_ingest.load_calls", "wfdb_ingest.load", "calls", "count"),
    ("signal_prep.denoise_ms_per_record", "signal_prep.denoise", "ms", "ms"),
    ("signal_prep.denoise_calls", "signal_prep.denoise", "calls", "count"),
    ("qrs_segment.detect_ms_per_record", "qrs_segment.detect", "ms", "ms"),
    ("qrs_segment.detect_calls", "qrs_segment.detect", "calls", "count"),
    ("qrs_segment.segment_ms_per_record", "qrs_segment.segment", "ms", "ms"),
    ("qrs_segment.segment_calls", "qrs_segment.segment", "calls", "count"),
    ("gaf_encode.encode_ms_per_beat", "gaf_encode.encode", "ms_item", "ms"),
    ("gaf_encode.encode_beats", "gaf_encode.encode", "items", "count"),
    ("gaf_encode.write_ms_per_image", "gaf_encode.write", "ms_item", "ms"),
    ("gaf_encode.write_images", "gaf_encode.write", "items", "count"),
    ("png_io.write_ms_per_image", "png_io.write", "ms", "ms"),
    ("png_io.write_calls", "png_io.write", "calls", "count"),
    ("png_io.read_ms_per_image", "png_io.read", "ms", "ms"),
    ("png_io.read_calls", "png_io.read", "calls", "count"),
    ("cnn.forward_b8_ms_per_image", "cnn.forward_b8", "ms_item", "ms"),
    ("cnn.forward_b8_calls", "cnn.forward_b8", "calls", "count"),
    ("cnn.forward_b8_nocache_ms_per_image", "cnn.forward_b8_nocache", "ms_item", "ms"),
    ("cnn.forward_b8_nocache_calls", "cnn.forward_b8_nocache", "calls", "count"),
    ("cnn.forward_b1_ms", "cnn.forward_b1", "ms", "ms"),
    ("cnn.forward_b1_calls", "cnn.forward_b1", "calls", "count"),
    ("cnn.backward_ms_per_image", "cnn.backward", "ms_item", "ms"),
    ("cnn.backward_calls", "cnn.backward", "calls", "count"),
    ("cnn.adam_ms_per_step", "cnn.adam", "ms", "ms"),
    ("cnn.adam_calls", "cnn.adam", "calls", "count"),
    ("cnn.save_checkpoint_ms", "cnn.save_checkpoint", "ms", "ms"),
    ("cnn.save_checkpoint_calls", "cnn.save_checkpoint", "calls", "count"),
    ("cnn.load_checkpoint_ms", "cnn.load_checkpoint", "ms", "ms"),
    ("cnn.load_checkpoint_calls", "cnn.load_checkpoint", "calls", "count"),
    ("train_eval.fold_s", "train_eval.fold", "s", "s"),
    ("train_eval.fold_self_s", "train_eval.fold", "self_s", "s"),
    ("train_eval.fold_calls", "train_eval.fold", "calls", "count"),
    ("train_eval.score_ms_per_image", "train_eval.score", "ms_item", "ms"),
    ("train_eval.score_calls", "train_eval.score", "calls", "count"),
    ("train_eval.load_variant_s", "train_eval.load_variant", "s", "s"),
    ("train_eval.load_variant_calls", "train_eval.load_variant", "calls", "count"),
] + [
    (f"cli.{stage}{suffix}", f"cli.{stage}", stat, unit)
    for stage in CLI_STAGES
    for suffix, stat, unit in (("_s", "s", "s"), ("_self_s", "self_s", "s"), ("_calls", "calls", "count"))
]
# Per-layer values a workload measures itself rather than from spans.
EXTRA_METRICS = [("png_io.bytes_per_image", "B")]


def one(name):
    return lambda *args, **kwargs: (name, 1)


def sized(name, index):
    return lambda *args, **kwargs: (name, len(args[index]))


def classify_forward(model, images, with_caches=False):
    if images.ndim == 2:
        return "cnn.forward_b1", 1
    return ("cnn.forward_b8" if with_caches else "cnn.forward_b8_nocache"), len(images)


class Tracer:
    """Records (name, id, start ns, end ns, parent id, items) per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, classify) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            name, items = classify(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((name, span_id, start, end, parent, items))

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def write(self, path: Path) -> None:
        fields = ("name", "id", "start_ns", "end_ns", "parent", "items")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

    def layer_metrics(self, rounds: int, extras: dict[str, float]) -> dict:
        calls: dict[str, int] = defaultdict(int)
        items: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        children: dict[int, int] = defaultdict(int)
        for name, _, start, end, parent, n in self.spans:
            calls[name] += 1
            items[name] += n
            total[name] += end - start
            children[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for name, span_id, start, end, _, _ in self.spans:
            own[name] += end - start - children[span_id]
        out = {}
        for metric, span, stat, unit in LAYER_METRICS:
            c = calls[span]
            value = {
                "ms": total[span] / 1e6 / c if c else 0.0,
                "s": total[span] / 1e9 / c if c else 0.0,
                "ms_item": total[span] / 1e6 / items[span] if c else 0.0,
                "self_s": own[span] / 1e9 / c if c else 0.0,
                "calls": c / rounds,
                "items": items[span] / rounds,
            }[stat]
            out[metric] = {"value": value, "unit": unit}
        for metric, unit in EXTRA_METRICS:
            out[metric] = {"value": extras.get(metric, 0.0), "unit": unit}
        return out
