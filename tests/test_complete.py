import numpy as np
import pytest
from scipy.stats import spearmanr

from canontrack import synth
from canontrack.complete import (DegradationKnobs, detection_rng,
                                 oracle_complete)
from canontrack.geom import volumetric_iou
from canontrack.pose import solve_pose


def posed_object(kind="l_shape", yaw=0.8, seed=0):
    template = synth.make_template(kind, [0.7, 0.5, 0.6])
    pose = synth.object_pose(template, [0.1, -0.2], yaw)
    box = synth.posed_bbox(template, pose)
    # treat the top half of the surface voxels as "visible"
    surf = template.surface_voxels()
    visible = surf[surf[:, 2] >= np.median(surf[:, 2])]
    return template, pose, box, visible


class TestOracleComplete:
    def test_full_completion_matches_ground_truth(self):
        template, pose, box, visible = posed_object()
        out = oracle_complete(box, template, pose, visible)
        gt_noc = synth.ground_truth_noc(template, pose, box)
        assert np.array_equal(out.occupancy, gt_noc.valid)
        assert np.allclose(out.noc.coords[out.noc.valid],
                           gt_noc.coords[gt_noc.valid])

    def test_zero_completion_is_visible_only(self):
        template, pose, box, visible = posed_object()
        out = oracle_complete(box, template, pose, visible,
                              DegradationKnobs(completion_fraction=0.0))
        full = oracle_complete(box, template, pose, visible)
        occ = out.occupancy
        assert occ.sum() < full.occupancy.sum()
        # every kept voxel maps into a visible template voxel
        res = template.canonical_occupancy.dims[0]
        vis = {tuple(v) for v in visible}
        kept = np.floor(out.noc.coords[occ & out.noc.valid] * res).astype(int)
        assert all(tuple(k) in vis for k in kept)

    def test_intermediate_fraction_binomial(self):
        template, pose, box, visible = posed_object()
        full = oracle_complete(box, template, pose, visible).occupancy
        vis_only = oracle_complete(
            box, template, pose, visible,
            DegradationKnobs(completion_fraction=0.0)).occupancy
        hidden = int(full.sum() - vis_only.sum())
        f = 0.5
        out = oracle_complete(box, template, pose, visible,
                              DegradationKnobs(completion_fraction=f),
                              np.random.default_rng(0))
        included = int(out.occupancy.sum() - vis_only.sum())
        sigma = np.sqrt(hidden * f * (1 - f))
        assert abs(included - f * hidden) < 4 * sigma
        # visible voxels always survive
        assert (out.occupancy & vis_only).sum() == vis_only.sum()

    def test_completion_iou_monotone_in_fraction(self):
        template, pose, box, visible = posed_object()
        gt = oracle_complete(box, template, pose, visible).occupancy
        fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
        ious = []
        for f in fractions:
            out = oracle_complete(box, template, pose, visible,
                                  DegradationKnobs(completion_fraction=f),
                                  np.random.default_rng(7))
            ious.append(volumetric_iou(out.occupancy, gt))
        rho = spearmanr(fractions, ious).statistic
        assert rho > 0.999
        assert ious[-1] == 1.0

    def test_occupancy_flips(self):
        template, pose, box, visible = posed_object()
        clean = oracle_complete(box, template, pose, visible).occupancy
        rate = 0.1
        out = oracle_complete(box, template, pose, visible,
                              DegradationKnobs(occupancy_flip_rate=rate),
                              np.random.default_rng(0))
        n = clean.size
        flipped = int((out.occupancy ^ clean).sum())
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(flipped - rate * n) < 4 * sigma

    def test_noc_noise_bounded_and_centered(self):
        template, pose, box, visible = posed_object()
        clean = oracle_complete(box, template, pose, visible)
        noisy = oracle_complete(box, template, pose, visible,
                                DegradationKnobs(noc_noise=0.02),
                                np.random.default_rng(0))
        sel = noisy.noc.valid
        delta = noisy.noc.coords[sel] - clean.noc.coords[sel]
        assert noisy.noc.coords[sel].min() >= 0.0
        assert noisy.noc.coords[sel].max() <= 1.0
        assert abs(delta.mean()) < 0.005
        assert delta.std() == pytest.approx(0.02, abs=0.005)

    def test_pose_recovery_from_completion(self):
        template, pose, box, visible = posed_object(yaw=1.3)
        out = oracle_complete(box, template, pose, visible)
        sel = out.noc.valid
        est = solve_pose(out.noc.coords[sel], out.centers[sel])
        assert abs(est.scale - pose.scale) < 1e-9
        assert np.abs(est.rotation - pose.rotation).max() < 1e-9
        assert np.abs(est.translation - pose.translation).max() < 1e-9

    def test_detection_rng_reproducible_and_distinct(self):
        a = detection_rng(1, 2, 3, 4).random(5)
        b = detection_rng(1, 2, 3, 4).random(5)
        c = detection_rng(1, 2, 3, 5).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_non_overlapping_box_raises(self):
        template, pose, _, visible = posed_object()
        from canontrack.geom import Box3
        far = Box3([50.0, 50.0, 50.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            oracle_complete(far, template, pose, visible)
