from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation
from scipy.stats import spearmanr

from canontrack import synth
from canontrack.complete import (CANDIDATE_SLACK, _candidate_rows,
                                 detection_rng, oracle_complete)
from canontrack.geom import Box3, SimilarityTransform, volumetric_iou
from canontrack.pipeline import PipelineConfig, _complete_detection
from canontrack.pose import solve_pose
from canontrack.voxel import OBJECT_RESOLUTION, nearest_voxel
from noc_reference import NocGrid, ground_truth_noc, lattice_centers


def rotation_x(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _visible_mask(visible_voxels: np.ndarray, resolution: int) -> np.ndarray:
    mask = np.zeros((resolution,) * 3, dtype=bool)
    if len(visible_voxels):
        vv = np.asarray(visible_voxels, dtype=np.int64)
        mask[vv[:, 0], vv[:, 1], vv[:, 2]] = True
    return mask


def reference_oracle_complete(
    detection_box: Box3,
    template,
    pose: SimilarityTransform,
    visible_voxels: np.ndarray,
    config: PipelineConfig,
    rng: np.random.Generator,
):
    """The full-grid oracle: every crop voxel is transformed and looked up.
    Returns the occupancy, the NOC grid, the (R, R, R, 3) world centers and
    the full occupancy."""
    cube = detection_box.cubified()
    bits = template.canonical_occupancy.bits
    shape = (OBJECT_RESOLUTION,) * 3

    centers = (cube.min_corner
               + lattice_centers(shape) / OBJECT_RESOLUTION * cube.extents)
    canon = pose.inverse().apply(centers.reshape(-1, 3))
    full = nearest_voxel(bits, canon)
    visible = nearest_voxel(_visible_mask(visible_voxels, bits.shape[0]),
                            canon) & full

    f = float(config.completion_fraction)
    if f >= 1.0:
        support = full
    elif f <= 0.0:
        support = visible
    else:
        hidden = full & ~visible
        support = visible | (hidden & (rng.random(len(canon)) < f))

    occ = support.copy()
    if config.occupancy_flip_rate > 0:
        flips = rng.random(len(canon)) < config.occupancy_flip_rate
        occ = occ ^ flips

    coords = np.clip(canon, 0.0, 1.0)
    if config.noc_noise > 0:
        coords = np.clip(coords + rng.normal(0.0, config.noc_noise, coords.shape),
                         0.0, 1.0)
    valid = occ & full  # NOC only where target geometry exists and is kept
    coords[~valid] = 0.0

    return SimpleNamespace(
        occupancy=occ.reshape(shape),
        noc=NocGrid(coords.reshape(shape + (3,)), valid.reshape(shape)),
        centers=centers,
        full=full.reshape(shape),
    )


CLEAN = PipelineConfig()  # every degradation knob off
KNOBS = PipelineConfig(completion_fraction=0.5, occupancy_flip_rate=0.02,
                       noc_noise=0.01)


def gen(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def posed_object(kind="l_shape", yaw=0.8, seed=0):
    template = synth.make_template(kind, [0.7, 0.5, 0.6])
    pose = synth.object_pose(template, [0.1, -0.2], yaw)
    box = synth.posed_bbox(template, pose)
    # treat the top half of the surface voxels as "visible"
    surf = template.surface_voxels
    visible = surf[surf[:, 2] >= np.median(surf[:, 2])]
    return template, pose, box, visible


def flat_object():
    """A flat box (0.8 x 0.8 x 0.1 m): its occupied box is a thin slab in
    the middle of its unit cube, at world z in [0, 0.1] inside a cube that
    spans z in [-0.35, 0.45]."""
    template = synth.make_template("box", [0.8, 0.8, 0.1])
    pose = synth.object_pose(template, [0.0, 0.0], 0.0)
    return template, pose, template.surface_voxels


def above_the_slab_case():
    """A 0.2 m detection box over the flat box: inside its unit cube, but
    every crop voxel lies above the occupied slab; every knob is on."""
    template, pose, visible = flat_object()
    box = Box3([0.0, 0.0, 0.3], [0.2, 0.2, 0.2])
    config = PipelineConfig(completion_fraction=0.5, occupancy_flip_rate=0.05,
                            noc_noise=0.02)
    return box, template, pose, visible, config, 11


def assert_completes_to_nothing(box, template, pose, visible, config, seed):
    """The crop reaches no occupied voxel: no ground truth and no
    correspondences, and the reference's occupancy (the flips)."""
    ref = reference_oracle_complete(box, template, pose, visible, config,
                                    gen(seed))
    out = oracle_complete(box, template, pose, visible, config, gen(seed))
    assert not ref.full.any() and not out.full.any()
    assert out.noc.shape == out.centers.shape == (0, 3)
    assert out.occupancy.tobytes() == ref.occupancy.tobytes()
    return out


def above_the_cube_case():
    """above_the_slab_case's box, raised over the unit cube too."""
    box, *rest = above_the_slab_case()
    return (Box3([0.0, 0.0, 0.6], box.extents), *rest)


class TestOracleComplete:
    def test_full_completion_matches_ground_truth(self):
        template, pose, box, visible = posed_object()
        out = oracle_complete(box, template, pose, visible, CLEAN, gen())
        gt_noc = ground_truth_noc(template, pose, box)
        assert np.array_equal(out.occupancy, gt_noc.valid)
        assert np.array_equal(out.full, gt_noc.valid)
        assert np.allclose(out.noc, gt_noc.coords[gt_noc.valid])

    def test_zero_completion_is_visible_only(self):
        template, pose, box, visible = posed_object()
        out = oracle_complete(box, template, pose, visible,
                              PipelineConfig(completion_fraction=0.0), gen())
        full = oracle_complete(box, template, pose, visible, CLEAN, gen())
        occ = out.occupancy
        assert occ.sum() < full.occupancy.sum()
        # every kept voxel maps into a visible template voxel
        res = template.canonical_occupancy.dims[0]
        vis = {tuple(v) for v in visible}
        kept = np.floor(out.noc * res).astype(int)
        assert all(tuple(k) in vis for k in kept)

    def test_intermediate_fraction_binomial(self):
        template, pose, box, visible = posed_object()
        full = oracle_complete(box, template, pose, visible, CLEAN,
                               gen()).occupancy
        vis_only = oracle_complete(
            box, template, pose, visible,
            PipelineConfig(completion_fraction=0.0), gen()).occupancy
        hidden = int(full.sum() - vis_only.sum())
        f = 0.5
        out = oracle_complete(box, template, pose, visible,
                              PipelineConfig(completion_fraction=f), gen(0))
        included = int(out.occupancy.sum() - vis_only.sum())
        sigma = np.sqrt(hidden * f * (1 - f))
        assert abs(included - f * hidden) < 4 * sigma
        # visible voxels always survive
        assert (out.occupancy & vis_only).sum() == vis_only.sum()

    def test_completion_iou_monotone_in_fraction(self):
        template, pose, box, visible = posed_object()
        gt = oracle_complete(box, template, pose, visible, CLEAN,
                             gen()).occupancy
        fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
        ious = []
        for f in fractions:
            out = oracle_complete(box, template, pose, visible,
                                  PipelineConfig(completion_fraction=f),
                                  gen(7))
            ious.append(volumetric_iou(out.occupancy, gt))
        rho = spearmanr(fractions, ious).statistic
        assert rho > 0.999
        assert ious[-1] == 1.0

    def test_occupancy_flips(self):
        template, pose, box, visible = posed_object()
        clean = oracle_complete(box, template, pose, visible, CLEAN,
                                gen()).occupancy
        rate = 0.1
        out = oracle_complete(box, template, pose, visible,
                              PipelineConfig(occupancy_flip_rate=rate),
                              gen(0))
        n = clean.size
        flipped = int((out.occupancy ^ clean).sum())
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(flipped - rate * n) < 4 * sigma

    def test_noc_noise_bounded_and_centered(self):
        template, pose, box, visible = posed_object()
        clean = oracle_complete(box, template, pose, visible, CLEAN, gen())
        noisy = oracle_complete(box, template, pose, visible,
                                PipelineConfig(noc_noise=0.02), gen(0))
        delta = noisy.noc - clean.noc
        assert noisy.noc.min() >= 0.0
        assert noisy.noc.max() <= 1.0
        assert abs(delta.mean()) < 0.005
        assert delta.std() == pytest.approx(0.02, abs=0.005)

    def test_pose_recovery_from_completion(self):
        template, pose, box, visible = posed_object(yaw=1.3)
        out = oracle_complete(box, template, pose, visible, CLEAN, gen())
        est = solve_pose(out.noc, out.centers)
        assert abs(est.scale - pose.scale) < 1e-9
        assert np.abs(est.rotation - pose.rotation).max() < 1e-9
        assert np.abs(est.translation - pose.translation).max() < 1e-9

    def test_detection_rng_reproducible_and_distinct(self):
        a = detection_rng(1, 2, 3, 4).random(5)
        b = detection_rng(1, 2, 3, 4).random(5)
        c = detection_rng(1, 2, 3, 5).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_non_overlapping_box_completes_to_nothing(self):
        template, pose, _, visible = posed_object()
        far = Box3([50.0, 50.0, 50.0], [1.0, 1.0, 1.0])
        for config in (CLEAN, KNOBS):
            assert_completes_to_nothing(far, template, pose, visible, config,
                                        5)

    def test_box_in_the_cube_but_off_the_occupied_box(self):
        box, template, pose, visible, config, seed = above_the_slab_case()
        out = assert_completes_to_nothing(box, template, pose, visible,
                                          config, seed)
        assert out.occupancy.any()  # the flips
        assert_completes_to_nothing(*above_the_cube_case())

    def test_transforms_fewer_rows_than_reach_the_unit_cube(self, monkeypatch):
        template, pose, visible = flat_object()
        pose = synth.object_pose(template, [0.0, 0.0], 0.5)
        box = synth.posed_bbox(template, pose)
        cube = box.cubified()
        shape = (OBJECT_RESOLUTION,) * 3
        canon = pose.inverse().apply(
            (cube.min_corner + lattice_centers(shape) / OBJECT_RESOLUTION
             * cube.extents).reshape(-1, 3))
        in_cube = int(nearest_voxel(np.ones(shape, dtype=bool), canon).sum())
        rows = []
        apply = SimilarityTransform.apply

        def counting_apply(self, points):
            rows.append(len(np.atleast_2d(points)))
            return apply(self, points)

        monkeypatch.setattr(SimilarityTransform, "apply", counting_apply)
        out = oracle_complete(box, template, pose, visible, CLEAN, gen())
        assert out.full.any()
        assert 0 < max(rows) < in_cube

    def test_transforms_only_rows_that_can_hold_the_object(self, monkeypatch):
        template, pose, box, visible = posed_object()
        loose = Box3(box.center, 2.0 * box.extents)  # the object fills half
        rows = []
        apply = SimilarityTransform.apply

        def counting_apply(self, points):
            rows.append(len(np.atleast_2d(points)))
            return apply(self, points)

        monkeypatch.setattr(SimilarityTransform, "apply", counting_apply)
        out = oracle_complete(loose, template, pose, visible, CLEAN, gen())
        assert out.full.any()
        assert 0 < max(rows) < OBJECT_RESOLUTION ** 3


@st.composite
def completion_cases(draw):
    """A posed template, a detection box around it (shifted and rescaled,
    so that it may only partly overlap the object), visible voxels, a config
    of degradation knobs and a seed."""
    kind = draw(st.sampled_from(sorted(synth.TEMPLATE_KINDS)))
    size = [draw(st.floats(0.3, 0.9)) for _ in range(3)]
    template = synth.make_template(kind, size)
    pose = synth.object_pose(template, [draw(st.floats(-1.0, 1.0)),
                                        draw(st.floats(-1.0, 1.0))],
                             draw(st.floats(0.0, 2 * np.pi)))
    tilt = draw(st.sampled_from([0.0, 1e-12, 0.3, np.pi / 2]))
    pose = SimilarityTransform(pose.scale, pose.rotation @ rotation_x(tilt),
                               pose.translation)
    box = synth.posed_bbox(template, pose)
    shift = np.array([draw(st.floats(-1.2, 1.2)) for _ in range(3)])
    stretch = np.array([draw(st.floats(0.3, 1.6)) for _ in range(3)])
    box = Box3(box.center + shift * box.extents, box.extents * stretch)
    surf = template.surface_voxels
    visible = surf[surf[:, draw(st.integers(0, 2))]
                   >= draw(st.integers(0, OBJECT_RESOLUTION))]
    config = PipelineConfig(
        completion_fraction=draw(st.sampled_from([0.0, 0.4, 1.0])),
        occupancy_flip_rate=draw(st.sampled_from([0.0, 0.05])),
        noc_noise=draw(st.sampled_from([0.0, 0.02])))
    return (box, template, pose, visible, config,
            draw(st.integers(0, 2 ** 32 - 1)))


def partial_overlap_case():
    """A table whose box is shifted by half its size, with every knob on."""
    template, pose, box, visible = posed_object(kind="table", yaw=0.4)
    part = Box3(box.center + 0.5 * box.extents, box.extents)
    config = PipelineConfig(completion_fraction=0.5, occupancy_flip_rate=0.03,
                            noc_noise=0.01)
    return part, template, pose, visible, config, 3


class TestAgainstFullGridReference:
    @given(completion_cases())
    @example(partial_overlap_case())
    @example(above_the_slab_case())
    @example(above_the_cube_case())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_full_grid_oracle(self, case):
        box, template, pose, visible, config, seed = case
        ref = reference_oracle_complete(box, template, pose, visible, config,
                                        gen(seed))
        out = oracle_complete(box, template, pose, visible, config, gen(seed))
        valid = ref.noc.valid
        assert np.array_equal(out.occupancy, ref.occupancy)
        assert np.array_equal(out.full, ref.full)
        assert out.noc.tobytes() == ref.noc.coords[valid].tobytes()
        assert out.centers.tobytes() == ref.centers[valid].tobytes()


def reference_candidate_rows(cube, inverse, res, lo, hi):
    """The per-axis loop that `_candidate_rows` replaced by geom.ray_box,
    kept as it was: a line with a zero step on an axis is in or out by a
    comparison, and the other axes divide by the step."""
    step = inverse.scale * inverse.rotation * (cube.extents / res)
    first = inverse.apply(cube.min_corner + 0.5 * cube.extents / res)
    n = np.arange(res)
    base = (first + n[:, None, None] * step[:, 0]
            + n[None, :, None] * step[:, 1])
    k_lo = np.full((res, res), -np.inf)
    k_hi = np.full((res, res), np.inf)
    for d in range(3):
        if step[d, 2] == 0.0:
            off = ((base[..., d] < lo[d] - CANDIDATE_SLACK)
                   | (base[..., d] > hi[d] + CANDIDATE_SLACK))
            k_hi[off] = -np.inf
            continue
        k0 = (lo[d] - CANDIDATE_SLACK - base[..., d]) / step[d, 2]
        k1 = (hi[d] + CANDIDATE_SLACK - base[..., d]) / step[d, 2]
        k_lo = np.maximum(k_lo, np.minimum(k0, k1))
        k_hi = np.minimum(k_hi, np.maximum(k0, k1))
    k_first = np.clip(np.ceil(k_lo) - 1, 0, res).astype(np.int64).ravel()
    k_last = np.clip(np.floor(k_hi) + 1, -1, res - 1).astype(np.int64).ravel()
    counts = np.maximum(k_last - k_first + 1, 0)
    starts = np.arange(res * res) * res + k_first
    ends = np.cumsum(counts)
    rows = np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
    return rows, counts


class TestCandidateRowsMatchLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_and_counts_equal(self, seed):
        # 60 cases a seed over every kind: yaw-only poses (two of the three
        # steps along k exactly 0) and general rotations, with the detection
        # box shifted and stretched around the object
        rng = np.random.default_rng(seed)
        kinds = sorted(synth.TEMPLATE_KINDS)
        yawed = 0
        for i in range(60):
            template = synth.make_template(kinds[i % len(kinds)],
                                           rng.uniform(0.3, 0.9, 3))
            pose = synth.object_pose(template, rng.uniform(-1.0, 1.0, 2),
                                     rng.uniform(0.0, 2 * np.pi))
            if i % 2:
                rotation = Rotation.random(random_state=rng).as_matrix()
                pose = SimilarityTransform(pose.scale, rotation,
                                           pose.translation)
            box = synth.posed_bbox(template, pose)
            box = Box3(box.center + rng.uniform(-0.6, 0.6, 3) * box.extents,
                       box.extents * rng.uniform(0.5, 1.5, 3))
            cube, inverse = box.cubified(), pose.inverse()
            if np.count_nonzero(inverse.rotation[:, 2] == 0.0) == 2:
                yawed += 1
            args = (cube, inverse, OBJECT_RESOLUTION,
                    *template.canonical_bbox)
            rows, counts = _candidate_rows(*args)
            want_rows, want_counts = reference_candidate_rows(*args)
            assert rows.tobytes() == want_rows.tobytes()
            assert counts.tobytes() == want_counts.tobytes()
        assert yawed == 30


class TestCompleteDetection:
    @pytest.mark.parametrize("config", [CLEAN, KNOBS], ids=["clean", "knobs"])
    @pytest.mark.parametrize("offset", [[5.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
                             ids=["five_meters_away", "above_the_object"])
    def test_box_off_its_object_measures_nothing(self, config, offset):
        template, pose, box, visible = posed_object()
        obj = SimpleNamespace(object_id=0, template=template, pose=pose,
                              visible_voxels=visible)
        proposal = SimpleNamespace(box=Box3(box.center + offset, box.extents))
        pred_pose, iou, canonical = _complete_detection(proposal, obj, 0,
                                                        config)
        assert pred_pose is None and iou == 0.0
        assert canonical.shape == (OBJECT_RESOLUTION,) * 3
        assert canonical.dtype == bool and not canonical.any()
