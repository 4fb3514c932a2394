"""Tracklet management: Hungarian association on box IoU, running-average
canonical reconstruction, and the second-pass canonical-IoU rescue matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geom import Box3, SimilarityTransform, box_iou_3d, volumetric_iou
from .voxel import binarize

ASSOCIATION_IOU = 0.3
RESCUE_IOU = 0.3
BINARIZE_THRESHOLD = 0.5
RUNNING_AVERAGE_OLD_WEIGHT = 0.8  # the 4:1 running mean


@dataclass
class Detection:
    """One per-frame object proposal entering the tracker."""

    box: Box3
    class_id: int
    canonical: np.ndarray  # (R, R, R) canonical occupancy, bool or in [0, 1]
    pose: SimilarityTransform | None = None


@dataclass
class Tracklet:
    id: int
    class_id: int
    canonical_avg: np.ndarray
    history: list  # (frame, Box3, SimilarityTransform | None), by frame

    @property
    def first_frame(self) -> int:
        return self.history[0][0]

    @property
    def last_box(self) -> Box3:
        return self.history[-1][1]

    def frames(self) -> set:
        return {f for f, _, _ in self.history}


@dataclass
class AssignmentResult:
    matches: list  # (tracklet id, detection index, score)
    unmatched_detections: list  # detection indices


def hungarian(cost: np.ndarray) -> list:
    """Minimal-cost assignment over all maximal matchings of a rectangular
    cost matrix; returns (row, col) pairs sorted lexicographically."""
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


def associate_frame(tracklets: list, detections: list) -> AssignmentResult:
    """Match detections to tracklets by Hungarian on 1 - box IoU, rejecting
    matches under ASSOCIATION_IOU."""
    if not tracklets or not detections:
        return AssignmentResult([], list(range(len(detections))))
    iou = np.zeros((len(tracklets), len(detections)))
    for i, t in enumerate(tracklets):
        for j, d in enumerate(detections):
            iou[i, j] = box_iou_3d(t.last_box, d.box)
    pairs = gated_assignment(1.0 - iou, iou >= ASSOCIATION_IOU)
    matched_d = {j for _, j in pairs}
    return AssignmentResult(
        matches=[(tracklets[i].id, j, float(iou[i, j])) for i, j in pairs],
        unmatched_detections=[j for j in range(len(detections))
                              if j not in matched_d],
    )


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

    def _new_tracklet(self, det: Detection, frame: int) -> Tracklet:
        t = Tracklet(
            id=self._next_id,
            class_id=det.class_id,
            canonical_avg=np.array(det.canonical, dtype=np.float64),
            history=[(frame, det.box, det.pose)],
        )
        self._next_id += 1
        self.tracklets.append(t)
        return t

    def step(self, detections: list) -> AssignmentResult:
        frame = self._frame
        result = associate_frame(self.tracklets, detections)
        by_id = {t.id: t for t in self.tracklets}
        for tid, j, _ in result.matches:
            t = by_id[tid]
            det = detections[j]
            t.history.append((frame, det.box, det.pose))
            update_canonical(t, det.canonical)
        for j in result.unmatched_detections:
            self._new_tracklet(detections[j], frame)
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
            merged_any = False
            # Re-derive candidates each round: merges change the orphan set.
            candidates = sorted(self.tracklets, key=lambda t: t.first_frame)
            orphans = [k for k, t in enumerate(candidates) if t.first_frame > 0]
            if not orphans:
                break
            frames = [t.frames() for t in candidates]
            # Coexisting tracklets are distinct objects.
            eligible = [(i, j) for i, b in enumerate(candidates)
                        for j, k in enumerate(orphans)
                        if b.first_frame < candidates[k].first_frame
                        and not frames[i] & frames[k]]
            # Averages change only in _merge, after the IoU matrix is built,
            # so each tracklet is binarized once per round.
            bits = {k: binarize(candidates[k].canonical_avg, BINARIZE_THRESHOLD)
                    for k in ({i for i, _ in eligible}
                              | {orphans[j] for _, j in eligible})}
            iou = np.zeros((len(candidates), len(orphans)))
            for i, j in eligible:
                iou[i, j] = volumetric_iou(bits[i], bits[orphans[j]])
            pairs = [(candidates[i], candidates[orphans[j]]) for i, j
                     in gated_assignment(1.0 - iou, iou >= RESCUE_IOU)]
            # Apply non-conflicting merges (a base absorbed this round cannot
            # also be merged away).
            absorbed = set()
            for base, orphan in pairs:
                if id(base) in absorbed or id(orphan) in absorbed:
                    continue
                self._merge(base, orphan)
                absorbed.add(id(orphan))
                merged_any = True
            if not merged_any:
                break
        return self.tracklets

    def _merge(self, base: Tracklet, orphan: Tracklet) -> None:
        # The two share no frame (coexisting tracklets never merge).
        base.history = sorted(base.history + orphan.history,
                              key=lambda x: x[0])
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
                    "class_id": t.class_id,
                    "frames": [
                        {
                            "frame": f,
                            "box": box.to_dict(),
                            "pose": pose.to_dict() if pose is not None else None,
                        }
                        for f, box, pose in t.history
                    ],
                }
                for t in sorted(self.tracklets, key=lambda t: t.id)
            ],
        }
