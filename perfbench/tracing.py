"""Outside-in tracing of canontrack for the benchmark's traced runs.

`install` wraps each module's public entry points where the pipeline looks
them up, records a span (name, start, end, parent, operation) around every
call and counts work at the same boundaries.  Nothing is patched unless a
traced run asks for it, so untraced runs execute the program unchanged.
Spans are kept in memory; `Recorder.write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list = []  # [id, parent id, operation, name, t0_ns, t1_ns]
        self.counts: dict = defaultdict(float)
        self.samples: dict = defaultdict(list)
        self.operation = None  # set by the benchmark around each operation
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.operation, name, time.perf_counter_ns(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def total_ms(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == name) / 1e6

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[3] == name)

    def write(self, path) -> None:
        keys = ("id", "parent", "operation", "name", "start_ns", "end_ns")
        with open(path, "w") as f:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, f)


def _patch(owner, attr: str, make_wrapper) -> None:
    """Replace owner.attr by make_wrapper(original)."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(raw))


def _spanned(rec: Recorder, name: str, after=None, error=None):
    """Wrapper factory: a span around each call, then
    after(args, result, span milliseconds); error(exc) sees what it raised."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                span = rec.spans[-1]
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if error is not None:
                        error(exc)
                    raise
            if after is not None:
                after(args, out, (span[5] - span[4]) / 1e6)
            return out
        return wrapper
    return make


def _counted(rec: Recorder, name: str, within: str):
    """Wrapper factory: count calls made while a `within` span is open."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._stack and rec.spans[rec._stack[-1]][3] == within:
                rec.count(name)
            return fn(*args, **kwargs)
        return wrapper
    return make


def install(rec: Recorder) -> None:
    """Wrap the pipeline's layer entry points for the rest of the process."""
    from canontrack import (complete, detect, experiment, pipeline, pose,
                            synth, track)

    frame_ms = []  # the current frame's process_frame time until its step
    finish_sizes = []

    def after_grid(args, grid, ms):
        rec.count("voxel.grid_voxels", grid.values.size)

    def after_extract(args, surface, ms):
        rec.count("voxel.surface_voxels", len(surface))

    def after_meanshift(args, proposals, ms):
        fields = args[0]
        rec.count("detect.votes", int(np.count_nonzero(fields.objectness >= 0.5)))
        rec.count("detect.proposals", len(proposals))

    def after_solve(args, _, ms):
        rec.count("pose.points", len(args[0]))

    def degenerate(exc):
        if isinstance(exc, pose.DegenerateCorrespondences):
            rec.count("pose.degenerate")

    def after_frame(args, out, ms):
        records = out[1]
        matched = sum(1 for r in records if r.gt_object_id is not None)
        rec.count("pipeline.gt_matched", matched)
        rec.count("pipeline.canonical_bytes",
                  sum(r.canonical.nbytes for r in records))
        rec.count("pipeline.detections", len(records))
        frame_ms[:] = [ms]

    def after_step(args, result, ms):
        rec.count("track.births", len(result.unmatched_detections))
        rec.samples["pipeline.frame_ms"].append(frame_ms.pop() + ms)

    def before_finish(fn):
        @functools.wraps(fn)
        def wrapper(self):
            finish_sizes.append(len(self.tracklets))
            with rec.span("track.rescue"):
                out = fn(self)
            rec.count("track.rescue_merges", finish_sizes.pop() - len(out))
            return out
        return wrapper

    _patch(synth, "render_frame", _spanned(rec, "synth.render"))
    _patch(pipeline.DenseTsdfGrid, "for_bounds",
           _spanned(rec, "voxel.grid", after_grid))
    _patch(pipeline, "fuse_depth_frame", _spanned(rec, "voxel.fuse"))
    _patch(pipeline, "extract_surface",
           _spanned(rec, "voxel.extract", after_extract))
    _patch(pipeline, "build_sequence_data", _spanned(rec, "pipeline.build"))
    _patch(detect, "make_oracle_fields", _spanned(rec, "detect.fields"))
    _patch(detect, "mean_shift_proposals",
           _spanned(rec, "detect.meanshift", after_meanshift))
    _patch(complete, "oracle_complete",
           _spanned(rec, "complete.oracle_complete"))
    _patch(pose, "solve_pose",
           _spanned(rec, "pose.solve", after_solve, degenerate))
    _patch(pipeline, "process_frame",
           _spanned(rec, "pipeline.process_frame", after_frame))
    _patch(pipeline, "run_sequence", _spanned(rec, "pipeline.run_sequence"))
    _patch(track.Tracker, "step", _spanned(rec, "track.step", after_step))
    _patch(track, "associate_frame", _spanned(rec, "track.associate"))
    _patch(track, "box_iou_3d",
           _counted(rec, "track.iou_pairs", "track.associate"))
    _patch(track.Tracker, "finish", before_finish)
    _patch(track, "binarize",
           _counted(rec, "track.rescue_binarize_calls", "track.rescue"))
    _patch(track, "volumetric_iou",
           _counted(rec, "track.rescue_iou_pairs", "track.rescue"))
    _patch(experiment, "score_sequence", _spanned(rec, "metrics.score"))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it;
    50 (the median) when there are too few samples for a tail."""
    return max(50, int(np.floor(100.0 * (1.0 - 10.0 / n)))) if n else 50


def per_layer_metrics(rec: Recorder) -> tuple:
    """(metrics, tail percentile) of one traced run.  Metrics are normalised
    per rendered frame, tracked frame, call or tracked sequence so that run
    length cancels."""
    rendered = max(rec.calls("synth.render"), 1)
    built = max(rec.calls("voxel.fuse"), 1)
    frames = max(rec.calls("pipeline.process_frame"), 1)
    sequences = max(rec.calls("pipeline.run_sequence"), 1)
    completes = rec.calls("complete.oracle_complete")
    solves = rec.calls("pose.solve")
    proposals = rec.counts["detect.proposals"]
    matched = rec.counts["pipeline.gt_matched"]
    detections = rec.counts["pipeline.detections"]
    frame_ms = np.array(rec.samples["pipeline.frame_ms"])
    tail = tail_percentile(len(frame_ms))
    c = rec.counts

    def pct(q):
        return float(np.percentile(frame_ms, q)) if len(frame_ms) else 0.0

    values = {
        "synth.render_ms_per_frame": (rec.total_ms("synth.render") / rendered, "ms"),
        "voxel.fuse_ms_per_frame": (
            (rec.total_ms("voxel.grid") + rec.total_ms("voxel.fuse")
             + rec.total_ms("voxel.extract")) / built, "ms"),
        "voxel.grid_voxels_per_frame": (c["voxel.grid_voxels"] / built, "count"),
        "voxel.surface_voxels_per_frame": (c["voxel.surface_voxels"] / built, "count"),
        "detect.fields_ms_per_frame": (rec.total_ms("detect.fields") / frames, "ms"),
        "detect.meanshift_ms_per_frame": (
            rec.total_ms("detect.meanshift") / frames, "ms"),
        "detect.votes_per_frame": (c["detect.votes"] / frames, "count"),
        "detect.proposals_per_frame": (proposals / frames, "count"),
        "detect.proposal_gt_match_ratio": (
            matched / proposals if proposals else 0.0, "ratio"),
        "complete.ms_per_frame": (
            rec.total_ms("complete.oracle_complete") / frames, "ms"),
        "complete.ms_per_call": (
            rec.total_ms("complete.oracle_complete") / max(completes, 1), "ms"),
        "complete.calls_per_detection": (
            completes / matched if matched else 0.0, "ratio"),
        "pipeline.frame_ms_p50": (pct(50), "ms"),
        "pipeline.frame_ms_tail": (pct(tail), "ms"),
        "pipeline.canonical_bytes_per_detection": (
            c["pipeline.canonical_bytes"] / detections if detections else 0.0,
            "bytes"),
        "pose.ms_per_frame": (rec.total_ms("pose.solve") / frames, "ms"),
        "pose.points_per_solve": (c["pose.points"] / max(solves, 1), "count"),
        "pose.degenerate_solves": (c["pose.degenerate"] / sequences, "count"),
        "track.assoc_ms_per_frame": (rec.total_ms("track.associate") / frames, "ms"),
        "track.iou_pairs_per_frame": (c["track.iou_pairs"] / frames, "count"),
        "track.births": (c["track.births"] / sequences, "count"),
        "track.rescue_ms_per_sequence": (
            rec.total_ms("track.rescue") / sequences, "ms"),
        "track.rescue_binarize_calls": (
            c["track.rescue_binarize_calls"] / sequences, "count"),
        "track.rescue_iou_pairs": (c["track.rescue_iou_pairs"] / sequences, "count"),
        "track.rescue_merges": (c["track.rescue_merges"] / sequences, "count"),
        "metrics.score_ms_per_sequence": (
            rec.total_ms("metrics.score") / sequences, "ms"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}, tail
