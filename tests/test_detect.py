import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from canontrack import detect, synth
from canontrack.detect import (PredictionFields, Proposal,
                               binary_cross_entropy, detection_losses,
                               make_oracle_fields, mean_shift_proposals,
                               smooth_l1)
from canontrack.pipeline import PipelineConfig
from canontrack.voxel import SparseSurfaceGrid

CLEAN = PipelineConfig()  # every degradation knob off


class TestLossPrimitives:
    def test_bce_at_half_is_ln2(self):
        assert abs(binary_cross_entropy(0.5, 1.0) - np.log(2.0)) < 1e-12
        assert abs(binary_cross_entropy(0.5, 0.0) - np.log(2.0)) < 1e-12

    def test_bce_perfect_prediction(self):
        assert binary_cross_entropy(np.array([1.0, 0.0]),
                                    np.array([1.0, 0.0])) < 1e-10

    def test_bce_clamps_extremes(self):
        # confidently-wrong predictions stay finite
        assert np.isfinite(binary_cross_entropy(0.0, 1.0))
        assert np.isfinite(binary_cross_entropy(1.0, 0.0))

    def test_smooth_l1_branch_values(self):
        assert smooth_l1(0.5) == 0.125  # quadratic branch: 0.5^2 / 2
        assert smooth_l1(2.0) == 1.5  # linear branch: 2 - 0.5
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(-0.5) == 0.125
        assert smooth_l1(-2.0) == 1.5

    @given(st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_smooth_l1_below_abs(self, x):
        v = float(smooth_l1(x))
        assert 0.0 <= v <= abs(x) + 1e-12


class TestDetectionLosses:
    def test_perfect_prediction_zero_loss(self):
        rng = np.random.default_rng(0)
        n = 40
        voxels = rng.integers(0, 30, (n, 3))
        offs = rng.normal(size=(n, 3))
        ext = rng.uniform(1, 10, (n, 3))
        cls = rng.integers(0, 3, n)
        pred = PredictionFields(voxels, np.ones(n), offs, ext, cls)
        from canontrack.detect import DetectionTargets
        target = DetectionTargets(np.zeros(n, dtype=int), offs, ext)
        l_o, l_c, l_d = detection_losses(pred, target)
        assert l_o < 1e-10 and l_c == 0.0 and l_d == 0.0

    def test_known_values(self):
        # 2 voxels: objectness 0.5 everywhere -> L_o = ln 2; center off by
        # 0.5 in one of three axes -> L_c = 0.125 / 3; extents off by 2 in
        # one axis -> L_d = 1.5 / 3
        from canontrack.detect import DetectionTargets
        voxels = np.array([[0, 0, 0], [1, 0, 0]])
        pred = PredictionFields(
            voxels=voxels,
            objectness=[0.5, 0.5],
            center_offset=[[0.5, 0, 0], [0.5, 0, 0]],
            extents=[[3, 1, 1], [3, 1, 1]],
            class_id=[0, 1],
        )
        target = DetectionTargets(
            owner=np.array([0, 1]),
            center_offset=np.zeros((2, 3)),
            extents=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        )
        l_o, l_c, l_d = detection_losses(pred, target)
        assert l_o == pytest.approx(np.log(2.0), abs=1e-12)
        assert l_c == pytest.approx(0.125 / 3, abs=1e-12)
        assert l_d == pytest.approx(1.5 / 3, abs=1e-12)

    def test_no_object_voxels(self):
        from canontrack.detect import DetectionTargets
        n = 5
        pred = PredictionFields(np.zeros((n, 3), int), np.zeros(n),
                                np.zeros((n, 3)), np.ones((n, 3)),
                                np.zeros(n, dtype=int))
        target = DetectionTargets(np.full(n, -1), np.zeros((n, 3)),
                                  np.ones((n, 3)))
        l_o, l_c, l_d = detection_losses(pred, target)
        assert l_o < 1e-10
        assert (l_c, l_d) == (0.0, 0.0)

    def test_empty_fields_zero_loss(self):
        # a frame without surface voxels: every term is a mean over nothing
        from canontrack.detect import DetectionTargets
        pred = PredictionFields(np.zeros((0, 3), int), np.zeros(0),
                                np.zeros((0, 3)), np.zeros((0, 3)),
                                np.zeros(0, dtype=int))
        target = DetectionTargets(np.zeros(0, dtype=int), np.zeros((0, 3)),
                                  np.zeros((0, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detection_losses(pred, target) == (0.0, 0.0, 0.0)


def blob_fields(center, n, rng, spread=3.0, class_id=0,
                extents=(10.0, 10.0, 10.0)):
    """Surface voxels scattered around a center, all voting for it exactly."""
    voxels = np.round(center + rng.normal(0, spread, (n, 3))).astype(int)
    offsets = np.asarray(center) - voxels
    ext = np.tile(extents, (n, 1))
    cls = np.full(n, class_id)
    return voxels, offsets, ext, cls


class TestMeanShift:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        voxels, offs, ext, cls = blob_fields([40.0, 40.0, 40.0], 80, rng)
        f = PredictionFields(voxels, np.ones(80), offs, ext, cls)
        props = mean_shift_proposals(f)
        assert len(props) == 1
        p = props[0]
        assert p.class_id == 0
        assert len(p.member_indices) == 80
        # fields use voxel units with identity geometry: center in world
        # space is the mode + half-voxel offset
        assert np.allclose(p.box.center, [40.5, 40.5, 40.5], atol=1e-6)
        assert np.allclose(p.box.extents, [10, 10, 10], atol=1e-9)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        va, oa, ea, ca = blob_fields([20.0, 20.0, 20.0], 70, rng, class_id=0)
        vb, ob, eb, cb = blob_fields([80.0, 80.0, 80.0], 60, rng, class_id=2,
                                     extents=(6.0, 6.0, 6.0))
        f = PredictionFields(np.vstack([va, vb]), np.ones(130),
                             np.vstack([oa, ob]), np.vstack([ea, eb]),
                             np.concatenate([ca, cb]))
        props = sorted(mean_shift_proposals(f), key=lambda p: p.box.center[0])
        assert len(props) == 2
        assert np.allclose(props[0].box.center, 20.5, atol=1e-6)
        assert np.allclose(props[1].box.center, 80.5, atol=1e-6)
        assert props[0].class_id == 0 and props[1].class_id == 2
        assert len(props[0].member_indices) == 70
        assert len(props[1].member_indices) == 60

    def test_class_tie_picks_smaller_id(self):
        rng = np.random.default_rng(8)
        voxels, offs, ext, _ = blob_fields([40.0, 40.0, 40.0], 80, rng)
        cls = np.repeat([5, 2], 40)  # the larger id comes first
        f = PredictionFields(voxels, np.ones(80), offs, ext, cls)
        props = mean_shift_proposals(f)
        assert len(props) == 1
        assert len(props[0].member_indices) == 80
        assert props[0].class_id == 2

    def test_small_cluster_dropped(self):
        rng = np.random.default_rng(2)
        voxels, offs, ext, cls = blob_fields([40.0, 40.0, 40.0], 30, rng)
        f = PredictionFields(voxels, np.ones(30), offs, ext, cls)
        assert mean_shift_proposals(f) == []  # 30 < 50 members
        with mock.patch.object(detect, "MIN_CLUSTER_SIZE", 30):
            assert len(mean_shift_proposals(f)) == 1

    def test_low_objectness_excluded(self):
        rng = np.random.default_rng(3)
        voxels, offs, ext, cls = blob_fields([40.0, 40.0, 40.0], 80, rng)
        objectness = np.full(80, 0.4)  # below the 0.5 vote threshold
        f = PredictionFields(voxels, objectness, offs, ext, cls)
        assert mean_shift_proposals(f) == []

    def test_nearby_modes_merge(self):
        # two blobs 4 voxels apart (within the kernel radius 8) merge
        rng = np.random.default_rng(4)
        va, oa, ea, ca = blob_fields([40.0, 40.0, 40.0], 60, rng, spread=1.0)
        vb, ob, eb, cb = blob_fields([44.0, 40.0, 40.0], 55, rng, spread=1.0)
        f = PredictionFields(np.vstack([va, vb]), np.ones(115),
                             np.vstack([oa, ob]), np.vstack([ea, eb]),
                             np.concatenate([ca, cb]))
        assert len(mean_shift_proposals(f)) == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        va, oa, ea, ca = blob_fields([20.0, 20.0, 20.0], 70, rng)
        vb, ob, eb, cb = blob_fields([80.0, 80.0, 80.0], 60, rng, class_id=1)
        voxels = np.vstack([va, vb])
        offs = np.vstack([oa, ob])
        ext = np.vstack([ea, eb])
        cls = np.concatenate([ca, cb])
        perm = rng.permutation(len(voxels))
        f1 = PredictionFields(voxels, np.ones(130), offs, ext, cls)
        f2 = PredictionFields(voxels[perm], np.ones(130), offs[perm],
                              ext[perm], cls[perm])
        p1 = sorted(mean_shift_proposals(f1), key=lambda p: p.box.center[0])
        p2 = sorted(mean_shift_proposals(f2), key=lambda p: p.box.center[0])
        assert len(p1) == len(p2) == 2
        for a, b in zip(p1, p2):
            assert np.allclose(a.box.center, b.box.center, atol=1e-9)
            assert np.allclose(a.box.extents, b.box.extents, atol=1e-9)
            assert a.class_id == b.class_id

    def test_members_are_disjoint(self):
        rng = np.random.default_rng(6)
        va, oa, ea, ca = blob_fields([20.0, 20.0, 20.0], 70, rng)
        vb, ob, eb, cb = blob_fields([60.0, 20.0, 20.0], 70, rng)
        f = PredictionFields(np.vstack([va, vb]), np.ones(140),
                             np.vstack([oa, ob]), np.vstack([ea, eb]),
                             np.concatenate([ca, cb]))
        props = mean_shift_proposals(f)
        assert len(props) == 2
        sets = [set(map(int, p.member_indices)) for p in props]
        assert not (sets[0] & sets[1])

    def test_world_geometry_respected(self):
        rng = np.random.default_rng(7)
        voxels, offs, ext, cls = blob_fields([40.0, 40.0, 40.0], 80, rng)
        f = PredictionFields(voxels, np.ones(80), offs, ext, cls,
                             origin=[1.0, 2.0, 3.0], voxel_size=0.05)
        p = mean_shift_proposals(f)[0]
        expected = np.array([1.0, 2.0, 3.0]) + (40.0 + 0.5) * 0.05
        assert np.allclose(p.box.center, expected, atol=1e-9)
        assert np.allclose(p.box.extents, 10 * 0.05, atol=1e-9)


def reference_mean_shift_modes(votes, radius, steps):
    """Every seed through every one of `steps` flat-kernel steps: the loop
    that _mean_shift_modes must reproduce bit for bit."""
    seeds = np.unique(np.round(votes), axis=0)
    tree = cKDTree(votes)
    pts = seeds.astype(np.float64)
    for _ in range(steps):
        neighborhoods = tree.query_ball_point(pts, radius)
        lens = np.array([len(nb) for nb in neighborhoods])
        keep = lens > 0
        if not keep.any():
            break
        flat = np.concatenate([neighborhoods[i] for i in np.nonzero(keep)[0]])
        starts = np.zeros(keep.sum(), dtype=np.int64)
        starts[1:] = np.cumsum(lens[keep])[:-1]
        sums = np.add.reduceat(votes[flat], starts, axis=0)
        pts[keep] = sums / lens[keep, None]
    return pts


@st.composite
def clustered_votes(draw):
    """Jittered clusters of votes, some votes repeated exactly, and one
    vote isolated from every cluster."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(20, 80))
        jitter = draw(st.sampled_from([0.0, 0.5, 2.0, 4.0]))
        parts.append(rng.uniform(10.0, 60.0, 3) + rng.normal(0.0, jitter, (n, 3)))
    votes = np.vstack(parts)
    repeated = rng.integers(0, len(votes), draw(st.integers(0, 20)))
    isolated = rng.uniform(100.0, 120.0, (1, 3))
    return np.vstack([votes, votes[repeated], isolated])


@st.composite
def lattice_votes(draw):
    """Votes on the integer lattice, so that many vote pairs lie exactly
    MEAN_SHIFT_RADIUS apart along an axis: the ties that a neighbour search
    with `<` instead of `<=` would drop."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = draw(st.integers(9, 20))
    n = draw(st.integers(30, 400))
    votes = rng.integers(0, side, (n, 3)).astype(np.float64)
    # A partner exactly one radius along an axis for a tenth of the votes.
    pick = rng.integers(0, n, n // 10 + 1)
    partners = votes[pick] + detect.MEAN_SHIFT_RADIUS * np.eye(3)[
        rng.integers(0, 3, len(pick))]
    return np.vstack([votes, partners, votes[rng.integers(0, n, n // 10)]])


def pairs_at_radius(votes):
    """Seed-vote pairs of the first mean-shift step at exactly the radius."""
    seeds = np.unique(np.round(votes), axis=0)
    d2 = ((seeds[:, None, :] - votes[None, :, :]) ** 2).sum(axis=2)
    return int(np.count_nonzero(d2 == detect.MEAN_SHIFT_RADIUS ** 2))


def noisy_votes(seed, spacing):
    """Votes of the size the `noisy` benchmark workload clusters (1,200 to
    1,700 per frame): three clusters of about 400 votes at centre jitter 2,
    `spacing` voxels apart, plus 300 votes scattered over the crop."""
    rng = np.random.default_rng(seed)
    centers = 32.0 + spacing * np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.0, 1.0, 0.5]])
    parts = [c + rng.normal(0.0, 2.0, (int(rng.integers(350, 450)), 3))
             for c in centers]
    parts.append(rng.uniform(0.0, 64.0, (300, 3)))
    return np.vstack(parts)


def check_modes_against_reference(votes):
    """_mean_shift_modes gives the reference's distinct rows, byte for byte;
    returns the reference's rows."""
    got = detect._mean_shift_modes(votes)
    want = reference_mean_shift_modes(votes, detect.MEAN_SHIFT_RADIUS,
                                      detect.MEAN_SHIFT_STEPS)
    assert got.tobytes() == np.unique(want, axis=0).tobytes()
    return want


def fields_voting_for(votes, seed):
    """Fields whose voxels lie about 3 voxels from their votes, with random
    extents and classes."""
    rng = np.random.default_rng(seed)
    n = len(votes)
    voxels = np.round(votes + rng.normal(0.0, 3.0, (n, 3))).astype(int)
    return PredictionFields(voxels, np.ones(n), votes - voxels,
                            rng.uniform(2.0, 12.0, (n, 3)),
                            rng.integers(0, 3, n))


def check_proposals_against_reference(f, reference_modes):
    """mean_shift_proposals gives the same boxes, classes and members with
    _mean_shift_modes as with `reference_modes` (called like
    reference_mean_shift_modes); returns how many."""
    got = mean_shift_proposals(f)

    def modes(votes):
        return reference_modes(votes, detect.MEAN_SHIFT_RADIUS,
                               detect.MEAN_SHIFT_STEPS)

    with mock.patch.object(detect, "_mean_shift_modes", modes):
        want = mean_shift_proposals(f)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.box.center.tobytes() == b.box.center.tobytes()
        assert a.box.extents.tobytes() == b.box.extents.tobytes()
        assert a.class_id == b.class_id
        assert np.array_equal(a.member_indices, b.member_indices)
    return len(got)


class CountingTree(cKDTree):
    calls = 0

    def sparse_distance_matrix(self, *args, **kwargs):
        CountingTree.calls += 1
        return super().sparse_distance_matrix(*args, **kwargs)


class TestMeanShiftMatchesReference:
    @given(clustered_votes())
    @settings(max_examples=40, deadline=None)
    def test_modes_bitwise_equal(self, votes):
        check_modes_against_reference(votes)

    @given(clustered_votes(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_proposals_equal(self, votes, seed):
        f = fields_voting_for(votes, seed)
        with mock.patch.object(detect, "MIN_CLUSTER_SIZE", 10):
            check_proposals_against_reference(f, reference_mean_shift_modes)

    @given(lattice_votes())
    # A 4-voxel lattice: every interior seed has six votes exactly
    # MEAN_SHIFT_RADIUS away, and symmetric neighbourhoods keep interior
    # positions on the lattice for later steps.
    @example(np.stack(np.meshgrid(*[np.arange(0.0, 40.0, 4.0)] * 3,
                                  indexing="ij"), axis=-1).reshape(-1, 3))
    @settings(max_examples=40, deadline=None)
    def test_modes_bitwise_equal_with_ties_at_the_radius(self, votes):
        assert pairs_at_radius(votes) > 0
        check_modes_against_reference(votes)

    @pytest.mark.parametrize("seed,spacing", [(0, 12.0), (1, 7.0), (2, 4.0)])
    def test_noisy_sized_vote_sets(self, seed, spacing):
        votes = noisy_votes(seed, spacing)
        assert 1200 <= len(votes) <= 1700
        want = check_modes_against_reference(votes)
        f = fields_voting_for(votes, seed)
        assert check_proposals_against_reference(f, lambda *args: want)

    @pytest.mark.parametrize("center", [[40.0, 40.0, 40.0],
                                        [33.3, 41.7, 25.1]])
    def test_noise_free_votes_stop_after_two_steps(self, center):
        votes = np.tile(center, (60, 1))
        CountingTree.calls = 0
        with mock.patch.object(detect, "cKDTree", CountingTree):
            got = detect._mean_shift_modes(votes)
        assert 1 <= CountingTree.calls <= 2
        want = reference_mean_shift_modes(votes, detect.MEAN_SHIFT_RADIUS,
                                          detect.MEAN_SHIFT_STEPS)
        assert got.tobytes() == want.tobytes()


class TestOracleFields:
    @staticmethod
    def scene_surface(seed=0):
        script = synth.make_random_script(
            seed=seed, n_objects=2, n_frames=1, motion="slow",
            intrinsics=synth.default_intrinsics(240, 180),
            jump_period=synth.JUMP_PERIOD)
        from canontrack.pipeline import build_sequence_data
        data = build_sequence_data(script, 0.05)
        return data.surfaces[0], data.gt_frames[0]

    def test_noise_free_targets(self):
        surface, gt = self.scene_surface()
        fields, targets = make_oracle_fields(
            surface, gt.objects, CLEAN, np.random.default_rng(0))
        # oracle without knobs: predictions equal targets
        assert np.array_equal(fields.objectness, targets.owner >= 0)
        assert np.array_equal(fields.center_offset, targets.center_offset)
        assert np.array_equal(fields.extents, targets.extents)
        losses = detection_losses(fields, targets)
        assert max(losses) < 1e-9

    def test_owned_voxels_vote_for_owner_center(self):
        surface, gt = self.scene_surface()
        fields, targets = make_oracle_fields(
            surface, gt.objects, CLEAN, np.random.default_rng(0))
        for oi, obj in enumerate(gt.objects):
            mine = targets.owner == oi
            if not mine.any():
                continue
            votes = surface.centers()[mine] + \
                fields.center_offset[mine] * surface.voxel_size
            assert np.abs(votes - obj.box.center).max() < 1e-9

    def test_class_is_owner_class_and_zero_elsewhere(self):
        surface, gt = self.scene_surface()
        fields, targets = make_oracle_fields(
            surface, gt.objects, CLEAN, np.random.default_rng(0))
        assert fields.class_id.shape == (len(surface),)
        want = np.zeros(len(surface), dtype=np.int64)
        for oi, obj in enumerate(gt.objects):
            want[targets.owner == oi] = obj.class_id
        assert (targets.owner >= 0).any()
        assert np.array_equal(fields.class_id, want)

    def test_proposals_recover_objects(self):
        surface, gt = self.scene_surface()
        fields, _ = make_oracle_fields(surface, gt.objects, CLEAN,
                                       np.random.default_rng(0))
        props = mean_shift_proposals(fields)
        assert len(props) == len(gt.objects)
        from canontrack.geom import box_iou_3d
        for obj in gt.objects:
            best = max(box_iou_3d(p.box, obj.box) for p in props)
            assert best > 0.5

    def test_knobs_are_reproducible(self):
        surface, gt = self.scene_surface()
        config = PipelineConfig(detector_flip_rate=0.1,
                                detector_center_jitter=0.5,
                                detector_extent_jitter=0.5)
        a, _ = make_oracle_fields(surface, gt.objects, config,
                                  np.random.default_rng(42))
        b, _ = make_oracle_fields(surface, gt.objects, config,
                                  np.random.default_rng(42))
        assert np.array_equal(a.objectness, b.objectness)
        assert np.array_equal(a.center_offset, b.center_offset)
        assert np.array_equal(a.class_id, b.class_id)

    def test_flip_rate_statistics(self):
        surface, gt = self.scene_surface()
        config = PipelineConfig(detector_flip_rate=0.25)
        fields, targets = make_oracle_fields(surface, gt.objects, config,
                                             np.random.default_rng(0))
        n = len(fields.objectness)
        flipped = int(np.sum(fields.objectness != (targets.owner >= 0)))
        # binomial(n, 0.25) within 4 sigma
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert abs(flipped - 0.25 * n) < 4 * sigma
