import json

import numpy as np
import pytest

from canontrack.geom import Box3, SimilarityTransform, box_iou_3d, yaw_rotation
from canontrack.metrics import (GroundTruthInstance, MotaBreakdown,
                                ScoredDetection, TrackRecord,
                                average_precision, mota,
                                pose_error_stats, tracklet_dump_to_frames)


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
        gt = SimilarityTransform()
        preds = [
            SimilarityTransform(rotation=yaw_rotation(np.radians(a)),
                                translation=[t, 0, 0])
            for a, t in [(0.0, 0.0), (10.0, 0.1), (20.0, 0.4)]
        ]
        rot, trans = pose_error_stats([(p, gt, "none") for p in preds])
        assert rot == pytest.approx(10.0, abs=1e-9)
        assert trans == pytest.approx(0.1, abs=1e-12)

    def test_symmetry_applied(self):
        gt = SimilarityTransform()
        pred = SimilarityTransform(rotation=yaw_rotation(np.pi))
        rot, _ = pose_error_stats([(pred, gt, "two_fold")])
        assert rot == pytest.approx(0.0, abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pose_error_stats([])


def box(x, side=1.0):
    return Box3([x, 0.0, 0.0], [side, side, side])


class TestAveragePrecision:
    def test_perfect_detections(self):
        gt = [GroundTruthInstance(0, 0, box(0.0)),
              GroundTruthInstance(0, 0, box(5.0))]
        dets = [ScoredDetection(0, 0, 0.9, box(0.0)),
                ScoredDetection(0, 0, 0.8, box(5.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["map"] == 1.0

    def test_no_detections(self):
        gt = [GroundTruthInstance(0, 0, box(0.0))]
        assert average_precision([], gt, box_iou_3d, 0.5)["map"] == 0.0

    def test_half_recall_known_ap(self):
        # 2 GT, one matched at high confidence, one FP after it:
        # precision-recall points (1.0, 0.5), (0.5, 0.5) -> AP = 0.5
        gt = [GroundTruthInstance(0, 0, box(0.0)),
              GroundTruthInstance(0, 0, box(5.0))]
        dets = [ScoredDetection(0, 0, 0.9, box(0.0)),
                ScoredDetection(0, 0, 0.8, box(50.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["map"] == pytest.approx(0.5)

    def test_low_confidence_tp_after_fp(self):
        # FP at confidence 0.9, TP at 0.8: precision at recall 1 (1 gt) is 0.5
        gt = [GroundTruthInstance(0, 0, box(0.0))]
        dets = [ScoredDetection(0, 0, 0.9, box(50.0)),
                ScoredDetection(0, 0, 0.8, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["map"] == pytest.approx(0.5)

    def test_duplicate_detection_is_fp(self):
        gt = [GroundTruthInstance(0, 0, box(0.0))]
        dets = [ScoredDetection(0, 0, 0.9, box(0.0)),
                ScoredDetection(0, 0, 0.8, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["map"] == pytest.approx(1.0)  # dup only hurts precision tail

    def test_frame_mismatch_not_matched(self):
        # same box but a different frame: never a true positive
        gt = [GroundTruthInstance(0, 0, box(0.0))]
        dets = [ScoredDetection(1, 0, 0.9, box(0.0))]
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["map"] == 0.0

    def test_mean_over_gt_classes(self):
        gt = [GroundTruthInstance(0, 0, box(0.0)),
              GroundTruthInstance(0, 1, box(5.0))]
        dets = [ScoredDetection(0, 0, 0.9, box(0.0))]  # class 1 undetected
        r = average_precision(dets, gt, box_iou_3d, 0.5)
        assert r["per_class"] == {0: 1.0, 1: 0.0}
        assert r["map"] == pytest.approx(0.5)

    def test_volumetric_payloads(self):
        from canontrack.geom import volumetric_iou
        a = np.zeros((4, 4, 4), dtype=bool)
        a[:2] = True
        gt = [GroundTruthInstance(0, 0, a)]
        dets = [ScoredDetection(0, 0, 0.9, a.copy())]
        r = average_precision(dets, gt, volumetric_iou, 0.25)
        assert r["map"] == 1.0
