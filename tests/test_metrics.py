import json

import numpy as np
import pytest

from canontrack.geom import (Box3, SimilarityTransform, box_iou_3d,
                             volumetric_iou, yaw_rotation)
from canontrack.metrics import (MotaBreakdown, TrackRecord, average_precision,
                                mota, pose_error_stats,
                                tracklet_dump_to_frames)


def rec(tid, x):
    return TrackRecord(tid, [x, 0.0, 0.0])


class TestMota:
    """Hand-computed CLEAR-MOT scenarios (also exercised by the acceptance
    suite)."""

    def test_perfect(self):
        gt = {f: [rec(0, 0.0), rec(1, 2.0)] for f in range(3)}
        pred = {f: [rec(10, 0.0), rec(11, 2.0)] for f in range(3)}
        b = mota(pred, gt)
        assert b.mota == 1.0
        assert b.total_errors == 0

    def test_all_missed(self):
        gt = {f: [rec(0, 0.0)] for f in range(3)}
        b = mota({}, gt)
        assert sum(b.misses) == 3
        assert b.mota == 0.0

    def test_id_switch(self):
        gt = {f: [rec(0, 0.0)] for f in range(3)}
        pred = {0: [rec(10, 0.0)], 1: [rec(10, 0.0)], 2: [rec(11, 0.0)]}
        b = mota(pred, gt)
        assert sum(b.mismatches) == 1
        assert b.mota == pytest.approx(1.0 - 1.0 / 3.0)

    def test_false_positive_each_frame(self):
        gt = {f: [rec(0, 0.0)] for f in range(3)}
        pred = {f: [rec(10, 0.0), rec(11, 50.0)] for f in range(3)}
        b = mota(pred, gt)
        assert sum(b.false_positives) == 3
        assert b.mota == 0.0

    def test_gate_boundary(self):
        gt = {0: [rec(0, 0.0)], 1: [rec(0, 0.0)]}
        inside = {f: [rec(10, 0.25 - 1e-6)] for f in range(2)}
        assert mota(inside, gt).mota == 1.0
        outside = {f: [rec(10, 0.25 + 1e-6)] for f in range(2)}
        b = mota(outside, gt)
        # each frame: one miss and one false positive
        assert (sum(b.misses), sum(b.false_positives)) == (2, 2)
        assert b.mota == -1.0

    def test_correspondence_persists_over_closer_newcomer(self):
        # pred 10 matched first; pred 11 is closer in frame 1 but the
        # existing in-gate correspondence is kept, so 11 stays a FP
        gt = {0: [rec(0, 0.0)], 1: [rec(0, 0.0)]}
        pred = {0: [rec(10, 0.05)],
                1: [rec(10, 0.2), rec(11, 0.01)]}
        b = mota(pred, gt)
        assert sum(b.mismatches) == 0
        assert sum(b.false_positives) == 1
        assert b.mota == pytest.approx(0.5)

    def test_crossing_objects_double_mismatch(self):
        gt = {0: [rec(0, 0.0), rec(1, 1.0)],
              1: [rec(0, 0.0), rec(1, 1.0)]}
        pred = {0: [rec(10, 0.0), rec(11, 1.0)],
                1: [rec(10, 1.0), rec(11, 0.0)]}  # predictions swap places
        b = mota(pred, gt)
        assert sum(b.mismatches) == 2
        assert b.mota == pytest.approx(0.5)

    def test_gap_without_switch(self):
        gt = {f: [rec(0, 0.0)] for f in range(3)}
        pred = {0: [rec(10, 0.0)], 2: [rec(10, 0.0)]}
        b = mota(pred, gt)
        assert sum(b.misses) == 1
        assert sum(b.mismatches) == 0
        assert b.mota == pytest.approx(1.0 - 1.0 / 3.0)

    def test_reacquire_new_id_after_gap(self):
        gt = {f: [rec(0, 0.0)] for f in range(4)}
        pred = {0: [rec(10, 0.0)], 1: [rec(10, 0.0)], 3: [rec(11, 0.0)]}
        b = mota(pred, gt)
        assert sum(b.misses) == 1  # frame 2
        assert sum(b.mismatches) == 1  # frame 3: correspondence changes
        assert b.mota == pytest.approx(0.5)

    def test_empty_gt_frames_counted(self):
        gt = {0: [rec(0, 0.0)], 1: []}
        pred = {0: [rec(10, 0.0)], 1: [rec(10, 0.0)]}
        b = mota(pred, gt)
        assert sum(b.false_positives) == 1
        assert b.mota == 0.0

    def test_hypothesis_kept_by_one_object_only(self):
        # objects 0 and 1 were both last matched to hypothesis 10; in frame 2
        # object 0 (the lower id) keeps it, so object 1 is a miss
        gt = {0: [rec(0, 0.0)], 1: [rec(1, 0.0)],
              2: [rec(0, 0.0), rec(1, 0.1)]}
        pred = {0: [rec(10, 0.0)], 1: [rec(10, 0.0)], 2: [rec(10, 0.05)]}
        b = mota(pred, gt)
        assert (sum(b.misses), sum(b.false_positives),
                sum(b.mismatches)) == (1, 0, 0)
        assert b.mota == pytest.approx(0.75)

    def test_undefined_without_ground_truth(self):
        b = MotaBreakdown([0], [2], [0], [0])
        assert b.mota is None
        dumped = json.dumps(b.to_dict(), allow_nan=False)
        assert json.loads(dumped)["mota"] is None

    def test_pred_frames_outside_gt_rejected(self):
        with pytest.raises(ValueError):
            mota({5: [rec(0, 0.0)]}, {0: [rec(0, 0.0)]})

    def test_repeated_id_in_a_frame_rejected(self):
        # Two tracklets with id 5, or one tracklet listing frame 0 twice,
        # over two objects: one hypothesis id would stand for two.
        gt = {0: [rec(0, 0.0), rec(1, 2.0)], 1: [rec(0, 0.0), rec(1, 2.0)]}
        box = {"center": [0.0, 0.0, 0.0]}
        other = {"center": [2.0, 0.0, 0.0]}
        dumps = [
            [{"id": 5, "frames": [{"frame": 0, "box": box}]},
             {"id": 5, "frames": [{"frame": 0, "box": other}]}],
            [{"id": 5, "frames": [{"frame": 0, "box": box},
                                  {"frame": 0, "box": other}]}],
        ]
        for tracklets in dumps:
            pred = tracklet_dump_to_frames({"tracklets": tracklets,
                                            "frame_count": 2})
            with pytest.raises(ValueError, match="frame 0: prediction id 5"):
                mota(pred, gt)
        with pytest.raises(ValueError, match="frame 1: ground truth id 0"):
            mota({}, {0: [rec(0, 0.0)], 1: [rec(0, 0.0), rec(0, 2.0)]})


class TestTrackletDumpToFrames:
    def test_conversion(self):
        dump = {
            "version": 1,
            "frame_count": 3,
            "tracklets": [
                {"id": 4, "class_id": 2, "frames": [
                    {"frame": 0,
                     "box": {"center": [1, 2, 3], "extents": [1, 1, 1]},
                     "pose": None},
                    {"frame": 2,
                     "box": {"center": [4, 5, 6], "extents": [1, 1, 1]},
                     "pose": None},
                ]}
            ],
        }
        frames = tracklet_dump_to_frames(dump)
        assert set(frames) == {0, 1, 2}
        assert frames[1] == []
        assert frames[0][0].track_id == 4
        assert np.allclose(frames[0][0].center, [1, 2, 3])


class TestPoseErrorStats:
    def test_medians(self):
        gt = SimilarityTransform(1.0, np.eye(3), np.zeros(3))
        preds = [
            SimilarityTransform(1.0, yaw_rotation(np.radians(a)), [t, 0, 0])
            for a, t in [(0.0, 0.0), (10.0, 0.1), (20.0, 0.4)]
        ]
        rot, trans = pose_error_stats([(p, gt, "none") for p in preds])
        assert rot == pytest.approx(10.0, abs=1e-9)
        assert trans == pytest.approx(0.1, abs=1e-12)

    def test_symmetry_applied(self):
        gt = SimilarityTransform(1.0, np.eye(3), np.zeros(3))
        pred = SimilarityTransform(1.0, yaw_rotation(np.pi), np.zeros(3))
        rot, _ = pose_error_stats([(pred, gt, "two_fold")])
        assert rot == pytest.approx(0.0, abs=1e-6)

    def test_empty_gives_none(self):
        assert pose_error_stats([]) == (None, None)


def box(x, side=1.0):
    return Box3([x, 0.0, 0.0], [side, side, side])


class TestAveragePrecision:
    def test_perfect_detections(self):
        gt = [(0, 0, box(0.0)), (0, 0, box(5.0))]
        dets = [(0, 0, 0.9, box(0.0)), (0, 0, 0.8, box(5.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r == 1.0

    def test_no_detections(self):
        gt = [(0, 0, box(0.0))]
        assert average_precision([], gt, box_iou_3d, 0.5) == 0.0

    def test_half_recall_known_ap(self):
        # 2 GT, one matched at high confidence, one FP after it:
        # precision-recall points (1.0, 0.5), (0.5, 0.5) -> AP = 0.5
        gt = [(0, 0, box(0.0)), (0, 0, box(5.0))]
        dets = [(0, 0, 0.9, box(0.0)), (0, 0, 0.8, box(50.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r == pytest.approx(0.5)

    def test_low_confidence_tp_after_fp(self):
        # FP at confidence 0.9, TP at 0.8: precision at recall 1 (1 gt) is 0.5
        gt = [(0, 0, box(0.0))]
        dets = [(0, 0, 0.9, box(50.0)), (0, 0, 0.8, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r == pytest.approx(0.5)

    def test_duplicate_detection_is_fp(self):
        gt = [(0, 0, box(0.0))]
        dets = [(0, 0, 0.9, box(0.0)), (0, 0, 0.8, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r == pytest.approx(1.0)  # dup only hurts precision tail

    def test_frame_mismatch_not_matched(self):
        # same box but a different frame: never a true positive
        gt = [(0, 0, box(0.0))]
        dets = [(1, 0, 0.9, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r == 0.0

    def test_mean_over_gt_classes(self):
        gt = [(0, 0, box(0.0)), (0, 1, box(5.0))]
        dets = [(0, 0, 0.9, box(0.0))]  # class 1 undetected
        assert average_precision(dets, gt[:1], box_iou_3d, 0.5) == 1.0
        assert average_precision(dets, gt[1:], box_iou_3d, 0.5) == 0.0
        assert average_precision(dets, gt, box_iou_3d, 0.5) == 0.5

    def test_volumetric_payloads(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        a[:2] = True
        gt = [(0, 0, a)]
        dets = [(0, 0, 0.9, a.copy())]
        r = average_precision(dets, gt, volumetric_iou, 0.25)
        assert r == 1.0


def reference_average_precision(detections, ground_truth, iou_fn,
                                iou_threshold):
    """The loop formula average_precision replaced, kept as it was but for
    reading tuples: a separate false-positive array filled in the matching
    loop, the no-detection case after it, and the precision envelope by a
    Python loop.  average_precision must reproduce it bit for bit."""
    gt_by_class = {}
    for g in ground_truth:
        gt_by_class.setdefault(g[1], []).append(g)
    per_class = {}
    for cls, gts in sorted(gt_by_class.items()):
        dets = sorted(
            [d for d in detections if d[1] == cls],
            key=lambda d: (-d[2], d[0]),
        )
        matched = [False] * len(gts)
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for di, d in enumerate(dets):
            best, best_iou = -1, iou_threshold
            for gi, g in enumerate(gts):
                if matched[gi] or g[0] != d[0]:
                    continue
                iou = iou_fn(d[3], g[2])
                if iou >= best_iou:
                    best, best_iou = gi, iou
            if best >= 0:
                matched[best] = True
                tp[di] = 1
            else:
                fp[di] = 1
        if len(dets) == 0:
            per_class[cls] = 0.0
            continue
        ctp = np.cumsum(tp)
        cfp = np.cumsum(fp)
        recall = ctp / len(gts)
        precision = ctp / np.maximum(ctp + cfp, 1e-12)
        r = np.concatenate([[0.0], recall, [1.0]])
        p = np.concatenate([[0.0], precision, [0.0]])
        for i in range(len(p) - 2, -1, -1):
            p[i] = max(p[i], p[i + 1])
        idx = np.nonzero(r[1:] != r[:-1])[0]
        per_class[cls] = float(np.sum((r[idx + 1] - r[idx]) * p[idx + 1]))
    ap_values = list(per_class.values())
    return {
        "per_class": per_class,
        "map": float(np.mean(ap_values)) if ap_values else 0.0,
    }


def random_box(rng, near=None):
    center = rng.uniform(-1.0, 1.0, 3) if near is None else (
        near.center + rng.normal(0.0, 0.15, 3))
    return Box3(center, rng.uniform(0.3, 0.6, 3))


def random_grid(rng, near=None):
    if near is None:
        return rng.random((4, 4, 4)) > 0.5
    return near ^ (rng.random((4, 4, 4)) > 0.8)


class TestAveragePrecisionMatchesLoopFormula:
    @pytest.mark.parametrize("kind", ["box", "grid"])
    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal(self, kind, seed):
        # Ground truth in classes 0-2 over three frames.  Detections fall in
        # classes 0, 1 and 3 only, so class 2 has none; scores come from
        # three values and frames from three, so (score, frame) ties are
        # common; some detections are exact copies of a ground truth or of
        # another detection.
        make, iou_fn, threshold = {
            "box": (random_box, box_iou_3d, 0.5),
            "grid": (random_grid, volumetric_iou, 0.25),
        }[kind]
        rng = np.random.default_rng(seed)
        gt = [(int(rng.integers(3)), int(rng.integers(3)), make(rng))
              for _ in range(12)]
        dets = []
        for _ in range(30):
            frame, cls, payload = gt[int(rng.integers(len(gt)))]
            roll = rng.random()
            if roll < 0.3:
                payload = make(rng)
            elif roll < 0.7:
                payload = make(rng, payload)
            if cls == 2:
                cls = 3
            dets.append((frame, cls, float(rng.choice([0.3, 0.6, 0.9])),
                         payload))
        dets += [dets[int(k)] for k in rng.integers(len(dets), size=5)]

        want = reference_average_precision(dets, gt, iou_fn, threshold)
        # each class scored alone is that class's AP; pooled, the mean
        for cls, ap in want["per_class"].items():
            alone = average_precision([d for d in dets if d[1] == cls],
                                      [g for g in gt if g[1] == cls],
                                      iou_fn, threshold)
            assert alone.hex() == ap.hex()
        assert want["per_class"][2] == 0.0
        got = average_precision(dets, gt, iou_fn, threshold)
        assert isinstance(got, float)
        assert got.hex() == want["map"].hex()
