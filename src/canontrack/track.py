"""Tracklet management: Hungarian association on box IoU, running-average
canonical reconstruction, and the second-pass canonical-IoU rescue matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geom import Box3, box_iou_3d, volumetric_iou

ASSOCIATION_IOU = 0.3
RESCUE_IOU = 0.3
BINARIZE_THRESHOLD = 0.5
RUNNING_AVERAGE_OLD_WEIGHT = 0.8  # the 4:1 running mean


@dataclass
class Tracklet:
    id: int
    canonical_avg: np.ndarray
    history: list  # pipeline.DetectionRecord per claimed detection, by frame

    @property
    def first_frame(self) -> int:
        return self.history[0].frame

    @property
    def last_box(self) -> Box3:
        return self.history[-1].proposal.box

    def frames(self) -> set:
        return {d.frame for d in self.history}


@dataclass
class AssignmentResult:
    matches: list  # (tracklet index, detection index)
    unmatched_detections: list  # detection indices


def hungarian(cost: np.ndarray) -> list:
    """Minimal-cost assignment over all maximal matchings of a rectangular
    cost matrix; returns (row, col) pairs sorted lexicographically, none
    when the matrix has no row or no column."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def gated_assignment(cost: np.ndarray, allowed: np.ndarray) -> list:
    """(row, col) pairs of the Hungarian assignment on `cost` that the bool
    mask `allowed` admits, sorted lexicographically."""
    return [(i, j) for i, j in hungarian(cost) if allowed[i, j]]


def associate_frame(tracklets: list, boxes: list) -> AssignmentResult:
    """Match detection boxes to tracklets by Hungarian on 1 - box IoU,
    rejecting matches under ASSOCIATION_IOU."""
    iou = np.zeros((len(tracklets), len(boxes)))
    for i, t in enumerate(tracklets):
        for j, box in enumerate(boxes):
            iou[i, j] = box_iou_3d(t.last_box, box)
    pairs = gated_assignment(1.0 - iou, iou >= ASSOCIATION_IOU)
    matched_d = {j for _, j in pairs}
    return AssignmentResult(
        matches=pairs,
        unmatched_detections=[j for j in range(len(boxes))
                              if j not in matched_d],
    )


def binarize(values: np.ndarray) -> np.ndarray:
    """bool grid, occupied where value >= BINARIZE_THRESHOLD (inclusive at
    the boundary)."""
    return values >= BINARIZE_THRESHOLD


def update_canonical(tracklet: Tracklet, new_canonical: np.ndarray) -> None:
    """Running mean, in place: avg <- w * avg + (1 - w) * new, with w the
    RUNNING_AVERAGE_OLD_WEIGHT."""
    w = RUNNING_AVERAGE_OLD_WEIGHT
    new_canonical = np.asarray(new_canonical)
    if new_canonical.shape != tracklet.canonical_avg.shape:
        raise ValueError("canonical grid dims mismatch")
    avg = tracklet.canonical_avg
    avg *= w
    avg += (1.0 - w) * new_canonical


class Tracker:
    """Sequential frame-by-frame tracker with a post-hoc rescue pass.

    Must be driven by a single owner; `step` per frame in order, then
    `finish` once.
    """

    def __init__(self, enable_rescue: bool = True):
        self.enable_rescue = enable_rescue
        self.tracklets: list = []
        self._next_id = 0
        self._frame = 0

    def _new_tracklet(self, det) -> Tracklet:
        t = Tracklet(
            id=self._next_id,
            canonical_avg=np.array(det.canonical, dtype=np.float64),
            history=[det],
        )
        self._next_id += 1
        self.tracklets.append(t)
        return t

    def step(self, detections: list) -> AssignmentResult:
        """Track one frame's pipeline.DetectionRecords.  Reads each record's
        `proposal.box` (association) and `canonical` (the running average);
        the history it keeps is read for `frame` (rescue and dump),
        `pred_pose` and `proposal.class_id` (dump)."""
        result = associate_frame(self.tracklets,
                                 [d.proposal.box for d in detections])
        for i, j in result.matches:
            t = self.tracklets[i]
            t.history.append(detections[j])
            update_canonical(t, detections[j].canonical)
        for j in result.unmatched_detections:
            self._new_tracklet(detections[j])
        self._frame += 1
        return result

    def finish(self) -> list:
        """Run the rescue pass (if enabled) and return the final tracklets.

        Tracklets born mid-sequence are treated as orphans and merged into
        temporally disjoint earlier tracklets when their canonical
        reconstructions, binarized at BINARIZE_THRESHOLD (inclusive),
        overlap with IoU at least RESCUE_IOU; merging rewrites the orphan's
        identity across its whole history.  The pass repeats until no merge
        applies.
        """
        if not self.enable_rescue:
            return self.tracklets
        while True:
            # Re-derive candidates each round: merges change the orphan set;
            # with none left the assignment is empty and the round returns.
            candidates = sorted(self.tracklets, key=lambda t: t.first_frame)
            orphans = [k for k, t in enumerate(candidates) if t.first_frame > 0]
            frames = [t.frames() for t in candidates]
            # Coexisting tracklets are distinct objects.
            eligible = [(i, j) for i, b in enumerate(candidates)
                        for j, k in enumerate(orphans)
                        if b.first_frame < candidates[k].first_frame
                        and not frames[i] & frames[k]]
            # Averages change only in _merge, after the IoU matrix is built,
            # so each tracklet is binarized once per round.
            bits = {k: binarize(candidates[k].canonical_avg)
                    for k in ({i for i, _ in eligible}
                              | {orphans[j] for _, j in eligible})}
            iou = np.zeros((len(candidates), len(orphans)))
            for i, j in eligible:
                iou[i, j] = volumetric_iou(bits[i], bits[orphans[j]])
            pairs = [(candidates[i], candidates[orphans[j]]) for i, j
                     in gated_assignment(1.0 - iou, iou >= RESCUE_IOU)]
            # Each orphan is one column of the one-to-one assignment, so it
            # meets at most one base; but a base may itself be an orphan
            # absorbed earlier in this round, and then it no longer exists.
            absorbed = set()
            for base, orphan in pairs:
                if id(base) in absorbed:
                    continue
                self._merge(base, orphan)
                absorbed.add(id(orphan))
            if not absorbed:
                return self.tracklets

    def _merge(self, base: Tracklet, orphan: Tracklet) -> None:
        # The two share no frame (coexisting tracklets never merge).
        base.history = sorted(base.history + orphan.history,
                              key=lambda d: d.frame)
        update_canonical(base, orphan.canonical_avg)
        self.tracklets.remove(orphan)

    def dump(self) -> dict:
        """Per-sequence tracklet dump: the interchange format for evaluation
        and plotting."""
        return {
            "version": 1,
            "frame_count": self._frame,
            "tracklets": [
                {
                    "id": t.id,
                    "class_id": t.history[0].proposal.class_id,
                    "frames": [
                        {
                            "frame": d.frame,
                            "box": d.proposal.box.to_dict(),
                            "pose": (d.pred_pose.to_dict()
                                     if d.pred_pose is not None else None),
                        }
                        for d in t.history
                    ],
                }
                for t in sorted(self.tracklets, key=lambda t: t.id)
            ],
        }
