"""Layer tracing from outside the program.

`instrument` rebinds the public functions of each `segdial` module at the
places the package looks them up (for example `segdial.matching.mask_iou`,
which `build_cost_matrix` resolves through its module globals), so no file
of the package changes. Each call becomes a span: id, parent span, name,
start, end and run id. Spans stay in memory; `pass_metrics` turns them into
per-layer self times and counts once the pass has ended.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    run: int


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # A worker thread starts with an empty stack; its spans hang off the
        # span the tracing thread has open, which is waiting on the workers.
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.run))

    def wrap(self, name: str, fn, count=None):
        """`fn` traced as span `name`; `count(counts, result)` tallies its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return traced


def _iou_count(counts, iou):
    counts["iou_nonzero"] += iou > 0


def _len_into(key):
    def count(counts, result):
        counts[key] += len(result)

    return count


def _load_count(counts, dataset):
    counts["annotations_loaded"] += sum(len(img.annotations) for img in dataset.images)


def _filter_count(counts, result):
    counts["dropped"] += len(result.dropped)


def _jobs_count(counts, results):
    counts["attempts"] += sum(r.attempts for r in results)
    counts["failed"] += sum(r.error is not None for r in results)


def _parse_count(counts, result):
    counts["diagnostics"] += len(result.diagnostics)
    counts["records"] += result.record is not None


def _semantic_count(counts, result):
    counts["merged"] += len(result[1])


def _cells_count(counts, costs):
    counts["cost_cells"] += costs.size


def _targets(segdial):
    """(owner, attribute, span name, counter) for every rebinding site."""
    cur, dio, mat, met, tra, par, cli_ = (
        segdial.curation, segdial.dataset_io, segdial.matching, segdial.metrics,
        segdial.transforms, segdial.parsing, segdial.clients,
    )
    return [
        # mask: the names each caller imported from segdial.mask
        (cur, "rasterize", "mask.rasterize", None),
        (cur, "rle_decode", "mask.rle_decode", None),
        (cur, "bbox_of", "mask.bbox_of", None),
        (cur, "area", "mask.area", None),
        (cur, "mask_union", "mask.mask_union", None),
        (tra, "mask_union", "mask.mask_union", None),
        (segdial.mask, "mask_union", "mask.mask_union", None),
        (segdial.mask, "rle_encode", "mask.rle_encode", None),
        (mat, "mask_iou", "mask.mask_iou", _iou_count),
        (met, "mask_iou", "mask.mask_iou", _iou_count),
        # dataset_io
        (dio, "load_coco", "dataset_io.load_coco", _load_count),
        (dio, "read_predictions", "dataset_io.read_predictions", _len_into("predictions_read")),
        (dio, "read_records", "dataset_io.read_records", None),
        (dio, "write_records", "dataset_io.write_records", None),
        # curation
        (cur, "filter_dataset", "curation.filter_dataset", _filter_count),
        (cur, "build_qa_prompt", "curation.build_prompt", None),
        (cur, "build_instseg_prompt", "curation.build_prompt", None),
        (cur, "build_caption_prompt", "curation.build_prompt", None),
        # clients
        (cli_, "run_jobs", "clients.run_jobs", _jobs_count),
        # parsing
        (par, "parse_sid_response", "parsing.parse", _parse_count),
        (par, "parse_caption_response", "parsing.parse", _parse_count),
        (par, "to_training_record", "parsing.serialize", None),
        (par, "from_training_record", "parsing.serialize", None),
        # transforms
        (tra, "to_semantic", "transforms.to_semantic", _semantic_count),
        (tra, "to_pure_text", "transforms.text", None),
        (tra, "append_task_template", "transforms.text", None),
        # matching
        (mat, "build_cost_matrix", "matching.build_cost_matrix", _cells_count),
        (mat, "hungarian", "matching.hungarian", None),
        (mat, "linear_sum_assignment", "matching.linear_sum_assignment", None),
        # metrics
        (met, "evaluate_ap", "metrics.evaluate_ap", None),
        (met, "evaluate_semseg", "metrics.evaluate_semseg", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer, segdial):
    """Rebind every traced name for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, count in _targets(segdial):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        # a classmethod is rebound on the class every importer shares
        ann = segdial.curation.InstanceAnnotation
        original = ann.__dict__["from_geometry"]
        saved.append((ann, "from_geometry", original))
        ann.from_geometry = classmethod(tracer.wrap("curation.from_geometry", original.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- aggregation ------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


# metric -> span names whose self times it sums
TIME_METRICS = {
    "mask.decode_s": ("mask.rasterize", "mask.rle_decode"),
    "mask.bbox_s": ("mask.bbox_of", "mask.area"),
    "mask.iou_s": ("mask.mask_iou",),
    "mask.encode_s": ("mask.rle_encode",),
    "mask.union_s": ("mask.mask_union",),
    "dataset_io.load_coco_s": ("dataset_io.load_coco",),
    "dataset_io.read_predictions_s": ("dataset_io.read_predictions",),
    "dataset_io.records_io_s": ("dataset_io.read_records", "dataset_io.write_records"),
    "curation.from_geometry_s": ("curation.from_geometry",),
    "curation.filter_s": ("curation.filter_dataset",),
    "curation.prompts_s": ("curation.build_prompt",),
    "clients.run_jobs_s": ("clients.run_jobs",),
    "parsing.parse_s": ("parsing.parse",),
    "parsing.serialize_s": ("parsing.serialize",),
    "transforms.to_semantic_s": ("transforms.to_semantic",),
    "transforms.text_s": ("transforms.text",),
    "matching.cost_matrix_s": ("matching.build_cost_matrix",),
    "matching.hungarian_s": ("matching.hungarian",),
    "matching.lsa_s": ("matching.linear_sum_assignment",),
    "metrics.evaluate_ap_s": ("metrics.evaluate_ap",),
    "metrics.evaluate_semseg_s": ("metrics.evaluate_semseg",),
}

# metric -> span names whose calls it counts, or a result counter
COUNT_METRICS = {
    "mask.decode_calls": ("mask.rasterize", "mask.rle_decode"),
    "mask.iou_pairs": ("mask.mask_iou",),
    "mask.encode_calls": ("mask.rle_encode",),
    "dataset_io.annotations_loaded": "annotations_loaded",
    "dataset_io.predictions_read": "predictions_read",
    "curation.dropped": "dropped",
    "clients.attempts": "attempts",
    "clients.failed": "failed",
    "parsing.responses": ("parsing.parse",),
    "parsing.diagnostics": "diagnostics",
    "transforms.merged": "merged",
    "matching.cost_cells": "cost_cells",
    "matching.lsa_calls": ("matching.linear_sum_assignment",),
}

# subcommands every workload runs; each one's traced time (after the import)
# is a metric of its own
SUBCOMMANDS = ("curate", "parse", "transform_sem", "match", "evaluate_inst", "evaluate_sem")

# useful outcomes over attempts: IoU pairs above 0, records per response
RATIO_METRICS = ("mask.iou_nonzero_ratio", "parsing.record_yield")

# share metric -> (subcommand span, layer span names): the layers' self time
# inside that subcommand over the subcommand's traced time
SHARE_METRICS = {
    "share.matcher_of_match": ("cli.match", ("matching.hungarian", "matching.linear_sum_assignment")),
    "share.mask_io_of_evaluate_inst": (
        "cli.evaluate_inst",
        tuple(n for key in ("mask.decode_s", "mask.bbox_s", "mask.iou_s", "mask.encode_s", "mask.union_s")
              for n in TIME_METRICS[key]) + ("dataset_io.read_predictions",),
    ),
    "share.load_of_parse": (
        "cli.parse",
        ("dataset_io.load_coco", "curation.from_geometry")
        + tuple(n for key in ("mask.decode_s", "mask.bbox_s", "mask.union_s") for n in TIME_METRICS[key]),
    ),
}


def pass_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """(times and shares, counts) of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(float)
    calls = Counter()
    for s in spans:
        by_name[s.name] += own[s.id]
        calls[s.name] += 1

    times = {m: sum(by_name[n] for n in names) for m, names in TIME_METRICS.items()}
    times["cli.self_s"] = sum(t for n, t in by_name.items() if n.startswith("cli."))

    parent = {s.id: s.parent for s in spans}
    root: dict[int, int] = {}
    for sid in sorted(parent):
        root[sid] = sid if parent[sid] == 0 else root[parent[sid]]
    root_name = {s.id: s.name for s in spans if s.parent == 0}
    root_dur = {s.name: s.end - s.start for s in spans if s.parent == 0}
    within = defaultdict(float)  # (subcommand, span name) -> self time
    for s in spans:
        within[(root_name[root[s.id]], s.name)] += own[s.id]
    for metric, (cmd, names) in SHARE_METRICS.items():
        times[metric] = sum(within[(cmd, n)] for n in names) / root_dur[cmd]
    for cmd in SUBCOMMANDS:
        times[f"cli.{cmd}_s"] = root_dur[f"cli.{cmd}"]

    counts = {}
    for metric, source in COUNT_METRICS.items():
        counts[metric] = sum(calls[n] for n in source) if isinstance(source, tuple) else tracer.counts[source]
    counts[RATIO_METRICS[0]] = tracer.counts["iou_nonzero"] / max(1, calls["mask.mask_iou"])
    counts[RATIO_METRICS[1]] = tracer.counts["records"] / max(1, calls["parsing.parse"])
    return times, counts


def median_times(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
