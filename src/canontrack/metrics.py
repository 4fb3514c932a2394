"""Tracking and detection metrics: CLEAR-MOT accuracy with a 25 cm center
gate, median pose errors, and average precision scorers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pose import rotation_error
from .track import gated_assignment

MOTA_GATE = 0.25  # meters, center distance


@dataclass
class TrackRecord:
    """One object observation in one frame, from either side (prediction or
    ground truth)."""

    track_id: int
    center: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)


@dataclass
class MotaBreakdown:
    misses: list = field(default_factory=list)
    false_positives: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    gt_counts: list = field(default_factory=list)

    @property
    def total_errors(self) -> int:
        return sum(self.misses) + sum(self.false_positives) + sum(self.mismatches)

    @property
    def total_gt(self) -> int:
        return sum(self.gt_counts)

    @property
    def mota(self) -> float | None:
        """1 - errors / ground-truth count; None without ground truth, where
        CLEAR-MOT leaves it undefined."""
        if self.total_gt == 0:
            return None
        return 1.0 - self.total_errors / self.total_gt

    def to_dict(self) -> dict:
        return {
            "mota": self.mota,
            "misses": sum(self.misses),
            "false_positives": sum(self.false_positives),
            "mismatches": sum(self.mismatches),
            "gt": self.total_gt,
        }


def mota(pred_frames: dict, gt_frames: dict,
         gate: float = MOTA_GATE) -> MotaBreakdown:
    """CLEAR-MOT accuracy.

    `pred_frames` / `gt_frames` map frame index -> list of TrackRecord, each
    a track id and a centre: the centres are gated and matched, and the ids
    carry correspondences from frame to frame.
    Existing ground-truth/prediction correspondences persist while both are
    present and within the gate; remaining pairs are matched by Hungarian on
    center distance; unmatched ground truth counts as misses, unmatched
    predictions as false positives, and correspondence changes as
    mismatches.  An id that appears twice in one frame, on either side,
    raises ValueError: CLEAR-MOT takes one hypothesis per id per frame.
    """
    if set(pred_frames) - set(gt_frames):
        raise ValueError("prediction frames outside the ground-truth range")
    breakdown = MotaBreakdown()
    corr: dict = {}  # gt id -> pred id, persistent
    for f in sorted(gt_frames):
        gts = gt_frames[f]
        preds = sorted(pred_frames.get(f, []), key=lambda r: r.track_id)
        gts = sorted(gts, key=lambda r: r.track_id)
        for side, records in (("prediction", preds), ("ground truth", gts)):
            for a, b in zip(records, records[1:]):
                if a.track_id == b.track_id:
                    raise ValueError(f"frame {f}: {side} id {a.track_id} "
                                     "appears twice")
        pred_by_id = {p.track_id: p for p in preds}

        matched_gt, matched_pred = set(), set()
        # 1. carry over still-valid correspondences; a prediction is kept by
        # one object only, the one with the lowest id
        for g in gts:
            pid = corr.get(g.track_id)
            if pid is None or pid not in pred_by_id or pid in matched_pred:
                continue
            p = pred_by_id[pid]
            if np.linalg.norm(p.center - g.center) <= gate:
                matched_gt.add(g.track_id)
                matched_pred.add(pid)

        # 2. Hungarian on the rest, gated
        free_g = [g for g in gts if g.track_id not in matched_gt]
        free_p = [p for p in preds if p.track_id not in matched_pred]
        mme = 0
        dist = np.zeros((len(free_g), len(free_p)))
        for i, g in enumerate(free_g):
            for j, p in enumerate(free_p):
                dist[i, j] = np.linalg.norm(p.center - g.center)
        for i, j in gated_assignment(dist, dist <= gate):
            g, p = free_g[i], free_p[j]
            prev = corr.get(g.track_id)
            if prev is not None and prev != p.track_id:
                mme += 1
            corr[g.track_id] = p.track_id
            matched_gt.add(g.track_id)
            matched_pred.add(p.track_id)

        breakdown.misses.append(len(gts) - len(matched_gt))
        breakdown.false_positives.append(len(preds) - len(matched_pred))
        breakdown.mismatches.append(mme)
        breakdown.gt_counts.append(len(gts))
    return breakdown


def tracklet_dump_to_frames(dump: dict) -> dict:
    """Convert a tracklet dump (track.Tracker.dump) to frame records."""
    frames: dict = {}
    for t in dump["tracklets"]:
        for rec in t["frames"]:
            frames.setdefault(rec["frame"], []).append(
                TrackRecord(t["id"], np.array(rec["box"]["center"])))
    for f in range(dump.get("frame_count", 0)):
        frames.setdefault(f, [])
    return frames


def pose_error_stats(pairs) -> tuple:
    """Median (rotation error degrees, translation error meters) over matched
    (pred_pose, gt_pose, symmetry) triples; (None, None) without a triple."""
    pairs = list(pairs)
    if not pairs:
        return None, None
    rot = []
    trans = []
    for pred, gt, sym in pairs:
        rot.append(rotation_error(pred.rotation, gt.rotation, sym))
        trans.append(float(np.linalg.norm(pred.translation - gt.translation)))
    return float(np.median(rot)), float(np.median(trans))


def average_precision(detections, ground_truth, iou_fn,
                      iou_threshold: float) -> float:
    """Mean AP over the classes present in the ground truth (0.0 without
    any); each class's AP is by greedy highest-confidence matching and
    all-point interpolation.

    `detections` are (frame, class_id, score, payload) tuples and
    `ground_truth` (frame, class_id, payload) tuples; a payload is whatever
    iou_fn consumes (a box, a canonical grid, ...).  Detections are matched
    in order of falling score, ties by frame."""
    gt_by_class: dict = {}
    for g in ground_truth:
        gt_by_class.setdefault(g[1], []).append(g)
    aps = []
    for cls, gts in sorted(gt_by_class.items()):
        dets = sorted([d for d in detections if d[1] == cls],
                      key=lambda d: (-d[2], d[0]))
        matched = [False] * len(gts)
        tp = np.zeros(len(dets))
        for di, (frame, _, _, payload) in enumerate(dets):
            best, best_iou = -1, iou_threshold
            for gi, (gt_frame, _, gt_payload) in enumerate(gts):
                if matched[gi] or gt_frame != frame:
                    continue
                iou = iou_fn(payload, gt_payload)
                if iou >= best_iou:
                    best, best_iou = gi, iou
            if best >= 0:
                matched[best] = True
                tp[di] = 1
        ctp = np.cumsum(tp)
        cfp = np.cumsum(1.0 - tp)
        recall = ctp / len(gts)
        precision = ctp / np.maximum(ctp + cfp, 1e-12)
        # all-point interpolation: area under the precision envelope, the
        # running maximum of precision from the highest recall down
        r = np.concatenate([[0.0], recall, [1.0]])
        p = np.concatenate([[0.0], precision, [0.0]])
        p = np.maximum.accumulate(p[::-1])[::-1]
        idx = np.nonzero(r[1:] != r[:-1])[0]
        aps.append(float(np.sum((r[idx + 1] - r[idx]) * p[idx + 1])))
    return float(np.mean(aps)) if aps else 0.0
