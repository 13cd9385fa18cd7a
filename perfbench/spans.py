"""Span tracing of netrad's layers from outside the program.

The tracer replaces public functions at the module attributes their
callers look up (``netrad.imaging.pair_images`` for the CLI,
``netrad.imaging.predicted_resolution`` for ``default_grid``,
``netrad.orchestrate.coverage_region`` for ``plan``) with wrappers that
record a span, and puts the originals back after the op. A traced op
therefore runs exactly the untraced code, and nothing under ``src/``
changes. Spans stay in memory and are written once, at the end of a run.

All wrapped calls happen on the op's own thread (back-projection threads
run only library code), so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from netrad import fusion, imaging, metrics, orchestrate, scene, synth, wavenumber

ROOT_SPAN = "cli"


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    def duration(self) -> float:
        return self.end - self.start


def _tile_samples(args, kwargs, region):
    return {"tile_samples": sum(len(t.samples) for t in region.tiles)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _pixel_channels(args, kwargs, result):
    records, grid = args[0], args[2]
    return {"pixch": grid.size[0] * grid.size[1] * len(records)}


def _records(args, kwargs, records):
    return {"channels": len(records), "samples_per_record": len(records[0].samples) if records else 0}


# (module, attribute, span name, counter of the call)
TARGETS = (
    (scene, "load_scenario", "scene.load", None),
    (scene, "validate", "scene.load", None),
    (wavenumber, "coverage_region", "wavenumber.coverage", _tile_samples),
    (imaging, "coverage_region", "wavenumber.coverage", _tile_samples),
    (orchestrate, "coverage_region", "wavenumber.coverage", _tile_samples),
    (wavenumber, "predicted_resolution", "wavenumber.predict", None),
    (imaging, "predicted_resolution", "wavenumber.predict", None),
    (orchestrate, "predicted_resolution", "wavenumber.predict", None),
    (wavenumber, "export_coverage_csv", "wavenumber.export", _bytes_written),
    (wavenumber, "export_hull_csv", "wavenumber.export", _bytes_written),
    (imaging, "default_grid", "imaging.grid", None),
    (imaging, "pair_images", "imaging.bp", _pixel_channels),
    (imaging, "export_image_csv", "imaging.export", None),
    (imaging, "export_image_pgm", "imaging.export", None),
    (synth, "suggest_window", "synth.window", None),
    (synth, "synthesize", "synth.synth", _records),
    (fusion, "fuse_coherent", "fusion.fuse", None),
    (metrics, "compute_metrics", "metrics.compute", None),
    (orchestrate, "plan", "orchestrate.plan", None),
)

# every span name; each is reported as a self time (see self_time_metric)
LAYERS = (ROOT_SPAN,) + tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def self_time_metric(layer: str) -> str:
    return "cli.self_s" if layer == ROOT_SPAN else f"{layer}_s"


class Tracer:
    """Records spans of traced ops; ``last_bp_call`` keeps the arguments
    of the latest back-projection so it can be repeated untraced."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = -1
        self.last_bp_call = None

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._op, self._open[-1], time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if name == "imaging.bp":
                self.last_bp_call = (fn, args, kwargs)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: install the wrappers, record the root span, and
        restore the original functions however the op ends."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        for (module, attr, name, counter), (_, _, fn) in zip(TARGETS, originals):
            setattr(module, attr, self._wrap(fn, name, counter))
        self._op = op_id
        root = Span(ROOT_SPAN, op_id, None, time.perf_counter())
        self._open = [len(self.spans)]
        self.spans.append(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._open = []
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def duration_of(self, op_id: int, name: str) -> float:
        """Total duration of the spans called ``name`` in one op."""
        return sum(s.duration() for s in self.spans if s.op == op_id and s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "op": span.op, "parent": span.parent,
                    "start": span.start, "end": span.end, **span.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration() - covered)
    return out


def per_op_layers(spans: list[Span]) -> dict[int, dict]:
    """Per traced op: self time of every layer, the op's own time, and
    the counts its spans recorded."""
    ops: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        rec = ops.setdefault(span.op, defaultdict(float))
        rec[f"{span.name}_s"] += own
        if span.name == ROOT_SPAN:
            rec["op_s"] = span.duration()
        for key, value in span.counts.items():
            rec[f"{span.name}.{key}"] += value
        if span.name == "wavenumber.coverage" and spans[span.parent].name == "orchestrate.plan":
            rec["orchestrate.candidates"] += 1
        if span.name == "orchestrate.plan":
            rec["orchestrate.plan_total_s"] += span.duration()
    return ops
