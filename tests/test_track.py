import itertools

import numpy as np
import pytest

from canontrack import track
from canontrack.detect import Proposal
from canontrack.geom import Box3
from canontrack.pipeline import DetectionRecord
from canontrack.track import (BINARIZE_THRESHOLD, RUNNING_AVERAGE_OLD_WEIGHT,
                              Tracker, Tracklet, associate_frame, binarize,
                              hungarian, update_canonical)
from canontrack.voxel import OBJECT_RESOLUTION


def brute_force_cost(cost):
    """Exhaustive minimum assignment cost over all maximal matchings."""
    cost = np.asarray(cost)
    r, c = cost.shape
    if r <= c:
        return min(
            sum(cost[i, p[i]] for i in range(r))
            for p in itertools.permutations(range(c), r)
        )
    return min(
        sum(cost[p[j], j] for j in range(c))
        for p in itertools.permutations(range(r), c)
    )


def grid(*on, res=8):
    g = np.zeros((res, res, res))
    for i, j, k in on:
        g[i, j, k] = 1.0
    return g


def box(center):
    return Box3(center, [1, 1, 1])


def det(frame, center, canonical=None):
    """The record pipeline.process_frame makes for a class-0 proposal with a
    unit box that matches no ground-truth object; `canonical` replaces its
    empty canonical grid."""
    if canonical is None:
        canonical = np.zeros((OBJECT_RESOLUTION,) * 3, dtype=bool)
    return DetectionRecord(
        frame=frame,
        proposal=Proposal(box(center), 0, 1.0, np.zeros(0, dtype=np.int64)),
        gt_object_id=None,
        pred_pose=None,
        completion_iou=None,
        canonical=canonical,
    )


class TestHungarian:
    def test_identity_best(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hungarian(cost) == [(0, 0), (1, 1)]

    def test_swap_best(self):
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hungarian(cost) == [(0, 1), (1, 0)]

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 9.0], [9.0, 5.0, 1.0]])
        assert hungarian(cost) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            cost = rng.random((r, c))
            pairs = hungarian(cost)
            assert len(pairs) == min(r, c)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_cost(cost), abs=1e-12)


class TestAssociateFrame:
    def tracklet(self, tid, center):
        return Tracklet(id=tid, canonical_avg=grid((0, 0, 0)),
                        history=[det(0, center)])

    def test_exact_matches(self):
        ts = [self.tracklet(0, [0, 0, 0]), self.tracklet(1, [5, 0, 0])]
        r = associate_frame(ts, [box([5, 0, 0]), box([0, 0, 0])])
        assert r.matches == [(0, 1), (1, 0)]
        assert r.unmatched_detections == []

    def test_low_iou_rejected(self):
        # shifted by 0.8 of the side: IoU = 0.2/1.8 = 0.111 < 0.3
        ts = [self.tracklet(0, [0, 0, 0])]
        r = associate_frame(ts, [box([0.8, 0, 0])])
        assert r.matches == []
        assert r.unmatched_detections == [0]

    def test_iou_threshold_boundary(self):
        # shift s gives IoU (1-s)/(1+s); s = 0.538 -> exactly just above 0.3
        ts = [self.tracklet(0, [0, 0, 0])]
        just_in = box([7.0 / 13.0 - 1e-6, 0, 0])  # IoU slightly > 0.3
        just_out = box([7.0 / 13.0 + 1e-3, 0, 0])  # IoU < 0.3
        assert associate_frame(ts, [just_in]).matches != []
        assert associate_frame(ts, [just_out]).matches == []

    def test_empty_inputs(self):
        r = associate_frame([], [box([0, 0, 0])])
        assert r.unmatched_detections == [0]
        r = associate_frame([self.tracklet(0, [0, 0, 0])], [])
        assert r.matches == [] and r.unmatched_detections == []

    def test_globally_optimal_not_greedy(self):
        # greedy would give t0 the center detection, forcing t1 below gate;
        # Hungarian takes the overall best pairing
        ts = [self.tracklet(0, [0, 0, 0]), self.tracklet(1, [0.5, 0, 0])]
        r = associate_frame(ts, [box([0.25, 0, 0]), box([-0.1, 0, 0])])
        assert dict(r.matches) == {0: 1, 1: 0}


class TestBinarize:
    def test_threshold_inclusive(self):
        assert BINARIZE_THRESHOLD == 0.5
        g = binarize(np.array([[[0.49, 0.5], [0.51, 0.0]],
                               [[1.0, 0.2], [0.5, 0.9]]]))
        assert g.tolist() == [[[False, True], [True, False]],
                              [[True, False], [True, True]]]


class TestUpdateCanonical:
    def test_four_to_one_weighting(self):
        t = Tracklet(id=0, canonical_avg=np.ones((2, 2, 2)), history=[])
        update_canonical(t, np.zeros((2, 2, 2)))
        assert np.allclose(t.canonical_avg, 0.8)
        update_canonical(t, np.zeros((2, 2, 2)))
        assert np.allclose(t.canonical_avg, 0.64)

    def test_geometric_series_limit(self):
        t = Tracklet(id=0, canonical_avg=np.zeros((2, 2, 2)), history=[])
        for _ in range(200):
            update_canonical(t, np.ones((2, 2, 2)))
        assert np.allclose(t.canonical_avg, 1.0, atol=1e-9)

    def test_bitwise_equal_to_the_copying_formula(self):
        # The average is updated in place; this is the form that converted
        # each bool grid to a float64 copy first.
        w = RUNNING_AVERAGE_OLD_WEIGHT

        def average(grids):
            avg = np.asarray(grids[0], dtype=np.float64).copy()
            for g in grids[1:]:
                avg = w * avg + (1.0 - w) * np.asarray(g, dtype=np.float64)
            return avg

        rng = np.random.default_rng(5)
        shape = rng.random((8, 8, 8)) < 0.5
        grids = [shape ^ (rng.random(shape.shape) < 0.05) for _ in range(8)]
        tracker = Tracker(enable_rescue=True)
        for f, g in enumerate(grids[:4]):  # frames 0-3
            tracker.step([det(f, [0, 0, 0], g)])
        tracker.step([])  # frame 4: lost
        for f, g in enumerate(grids[4:], start=5):  # frames 5-8, far away
            tracker.step([det(f, [10, 0, 0], g)])
        first, second = average(grids[:4]), average(grids[4:])
        assert [t.canonical_avg.tobytes() for t in tracker.tracklets] == [
            first.tobytes(), second.tobytes()]
        (merged,) = tracker.finish()
        assert merged.canonical_avg.dtype == np.float64
        assert merged.canonical_avg.tobytes() == average([first, second]).tobytes()


class TestRescueMatch:
    """The rescue pass of Tracker.finish on two temporally disjoint
    tracklets: one seen in frame 0, one reappearing far away in frame 2."""

    @staticmethod
    def merged(first, second):
        tracker = Tracker(enable_rescue=True)
        tracker.step([det(0, [0, 0, 0], first)])
        tracker.step([])
        tracker.step([det(2, [10, 0, 0], second)])
        return len(tracker.finish()) == 1

    def test_same_shape_matches(self):
        shape = grid(*[(i, j, 0) for i in range(4) for j in range(4)])
        assert self.merged(shape, shape)

    def test_different_shape_rejected(self):
        a = grid(*[(i, 0, 0) for i in range(8)])
        b = grid(*[(0, j, 4) for j in range(8)])
        assert not self.merged(a, b)

    def test_binarization_threshold(self):
        # running-average value 0.5 still counts as occupied (>= threshold)
        a = grid((1, 1, 1))
        assert self.merged(a, grid((1, 1, 1)) * 0.5)
        assert not self.merged(a, grid((1, 1, 1)) * 0.49)

    def test_iou_gate(self):
        # overlap 4 of 12 voxels: IoU = 1/3 >= 0.3 -> merged
        a = grid(*[(i, 0, 0) for i in range(8)])
        b = grid(*[(i, 0, 0) for i in range(4, 8)] +
                 [(i, 1, 0) for i in range(4)])
        assert self.merged(a, b)
        # overlap 2 of 14: IoU = 1/7 < 0.3 -> kept apart
        c = grid(*[(i, 0, 0) for i in range(6, 8)] +
                 [(i, 1, 0) for i in range(6)])
        assert not self.merged(a, c)


class TestTracker:
    def test_continuous_track_single_id(self):
        tracker = Tracker(enable_rescue=True)
        for f in range(5):
            tracker.step([det(f, [0.02 * f, 0, 0])])
        tracker.finish()
        assert len(tracker.tracklets) == 1
        assert tracker.tracklets[0].frames() == set(range(5))

    def test_new_object_new_id(self):
        tracker = Tracker(enable_rescue=True)
        tracker.step([det(0, [0, 0, 0])])
        tracker.step([det(1, [0, 0, 0]),
                      det(1, [10, 0, 0], canonical=grid((5, 5, 5)))])
        tracker.finish()
        assert sorted(t.id for t in tracker.tracklets) == [0, 1]

    def test_rescue_merges_reappearing_object(self):
        shape = grid(*[(i, j, 0) for i in range(4) for j in range(4)])
        tracker = Tracker(enable_rescue=True)
        tracker.step([det(0, [0, 0, 0], shape)])
        tracker.step([det(1, [0, 0, 0], shape)])
        tracker.step([])  # lost
        # reappears far away: box association fails, canonical rescue merges
        tracker.step([det(3, [10, 0, 0], shape)])
        tracker.finish()
        assert len(tracker.tracklets) == 1
        t = tracker.tracklets[0]
        assert t.id == 0
        assert t.frames() == {0, 1, 3}
        assert np.allclose(t.last_box.center, [10, 0, 0])

    def test_rescue_disabled(self):
        shape = grid(*[(i, j, 0) for i in range(4) for j in range(4)])
        tracker = Tracker(enable_rescue=False)
        tracker.step([det(0, [0, 0, 0], shape)])
        tracker.step([])
        tracker.step([det(2, [10, 0, 0], shape)])
        tracker.finish()
        assert len(tracker.tracklets) == 2

    def test_coexisting_tracklets_not_merged(self):
        # same canonical shape but temporally overlapping: distinct objects
        shape = grid(*[(i, j, 0) for i in range(4) for j in range(4)])
        tracker = Tracker(enable_rescue=True)
        tracker.step([det(0, [0, 0, 0], shape)])
        tracker.step([det(1, [0, 0, 0], shape), det(1, [10, 0, 0], shape)])
        tracker.finish()
        assert len(tracker.tracklets) == 2

    def test_rescue_chain_merges_to_fixpoint(self):
        # one object seen in three disjoint episodes collapses to one track
        shape = grid(*[(i, j, 0) for i in range(4) for j in range(4)])
        tracker = Tracker(enable_rescue=True)
        centers = {0: [0, 0, 0], 2: [10, 0, 0], 4: [20, 0, 0]}
        for f in range(6):
            tracker.step([det(f, centers[f], shape)] if f in centers else [])
        tracker.finish()
        assert len(tracker.tracklets) == 1
        assert tracker.tracklets[0].frames() == {0, 2, 4}
        (dumped,) = tracker.dump()["tracklets"]
        assert [(fr["frame"], fr["box"]["center"][0])
                for fr in dumped["frames"]] == [(0, 0.0), (2, 10.0), (4, 20.0)]

    def test_no_orphans_no_rescue_work(self, monkeypatch):
        # every tracklet is born at frame 0: the rescue round has no orphan
        # column, so it binarizes and compares nothing
        calls = []
        monkeypatch.setattr(track, "binarize",
                            lambda g: calls.append("binarize") or g)
        monkeypatch.setattr(track, "volumetric_iou",
                            lambda a, b: calls.append("iou") or 0.0)
        tracker = Tracker(enable_rescue=True)
        for f in range(3):
            tracker.step([det(f, [0, 0, 0]), det(f, [10, 0, 0])])
        assert [t.id for t in tracker.finish()] == [0, 1]
        assert calls == []

    def test_dump_round_trip_shape(self):
        tracker = Tracker(enable_rescue=True)
        tracker.step([det(0, [0, 0, 0])])
        tracker.step([det(1, [0, 0, 0])])
        tracker.finish()
        dump = tracker.dump()
        assert dump["version"] == 1
        assert dump["frame_count"] == 2
        assert len(dump["tracklets"]) == 1
        frames = dump["tracklets"][0]["frames"]
        assert [fr["frame"] for fr in frames] == [0, 1]
        assert frames[0]["box"]["center"] == [0.0, 0.0, 0.0]
        assert frames[0]["pose"] is None
