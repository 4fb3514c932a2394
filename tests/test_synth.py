import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial.transform import Rotation

import render_reference
from canontrack import synth, voxel
from canontrack.geom import Box3, SimilarityTransform
from canontrack.pose import solve_pose
from canontrack.synth import (SceneScript, default_intrinsics, look_at,
                              make_random_script, make_template, object_pose,
                              posed_bbox, render_frame)
from noc_reference import ground_truth_noc

# ExperimentConfig's scene defaults, spelled out for the direct callers here.
SCENE = dict(n_objects=2, n_frames=24, motion="slow",
             intrinsics=default_intrinsics(240, 180),
             jump_period=synth.JUMP_PERIOD)

def single_object_script(kind="cube", size=(0.6, 0.6, 0.6), yaw=0.0,
                         eye=(0.0, -2.0, 0.3), n_frames=1,
                         include_floor=False):
    template = make_template(kind, size)
    pose = object_pose(template, [0.0, 0.0], yaw)
    cam = look_at(eye, [0.0, 0.0, 0.3])
    return SceneScript(
        templates=[template],
        object_poses=[[pose]] * n_frames,
        camera_poses=[cam] * n_frames,
        intrinsics=default_intrinsics(240, 180),
        scene_bounds=Box3([0, 0, 0.3], [2.0, 2.0, 1.2]),
        include_floor=include_floor,
    )


class TestTemplates:
    def test_all_kinds_build(self):
        for kind in synth.TEMPLATE_KINDS:
            t = make_template(kind, [0.6, 0.5, 0.4])
            assert t.canonical_occupancy.bits.any()

    def test_cube_fills_requested_extent(self):
        t = make_template("cube", [0.6, 0.6, 0.6])
        lo, hi = t.canonical_bbox
        # equal extents: occupied region spans the whole unit cube
        assert np.allclose(lo, 0.0, atol=2 / 64)
        assert np.allclose(hi, 1.0, atol=2 / 64)

    def test_nonuniform_box_occupies_fraction(self):
        t = make_template("box", [0.8, 0.4, 0.8])
        lo, hi = t.canonical_bbox
        # y extent is half the longest, centered in the unit cube
        assert hi[1] - lo[1] == pytest.approx(0.5, abs=2 / 64)
        assert hi[0] - lo[0] == pytest.approx(1.0, abs=2 / 64)

    def test_surface_voxels_are_thin(self):
        t = make_template("cube", [0.6, 0.6, 0.6])
        n_total = np.count_nonzero(t.canonical_occupancy.bits)
        n_surf = len(t.surface_voxels)
        assert 0 < n_surf < n_total
        # cube of side s voxels: surface is ~6 s^2 of s^3 voxels
        s = round(n_total ** (1 / 3))
        assert n_surf == s ** 3 - (s - 2) ** 3

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            make_template("sphere", [0.5, 0.5, 0.5])

    def test_dilation_follows_template_churn(self):
        # templates made and freed in one process reuse addresses; each
        # lookup must still see its own template's dilation
        rng = np.random.default_rng(0)
        kinds = list(synth.TEMPLATE_KINDS)
        for i in range(300):
            t = make_template(kinds[i % len(kinds)], rng.uniform(0.3, 0.9, 3))
            expected = ndimage.binary_dilation(
                t.canonical_occupancy.bits, iterations=2)
            assert np.array_equal(t.dilated_occupancy, expected)
            del t


    def test_box_and_surface_are_computed_once_and_read_only(self):
        t = make_template("chair", [0.6, 0.5, 0.7])
        lo, hi = t.canonical_bbox
        assert t.canonical_bbox[0] is lo and t.surface_voxels is t.surface_voxels
        for a in (lo, hi, t.surface_voxels, t.dilated_occupancy):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_never_builds_the_full_lattice(self):
        # One float64 lattice of R^3 voxel centers; the reference builder
        # allocates it, make_template must stay below it.
        lattice_bytes = voxel.OBJECT_RESOLUTION ** 3 * 3 * 8

        def peak_bytes(build, kind):
            tracemalloc.start()
            try:
                build(kind, [0.6, 0.5, 0.4])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(render_reference.make_template, "cube") > lattice_bytes
        for kind in synth.TEMPLATE_KINDS:
            assert peak_bytes(make_template, kind) < lattice_bytes


class TestTemplatesAgainstFullLattice:
    @pytest.mark.parametrize("kind", sorted(synth.TEMPLATE_KINDS))
    @given(size=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    @example(size=[0.05, 0.05, 0.05])
    @example(size=[0.05, 1.0, 0.05])
    @example(size=[1.0, 0.05, 1.0])
    @example(size=[0.05, 0.05, 1.0])
    @settings(max_examples=15, deadline=None)
    def test_bitwise_equal(self, kind, size):
        ref = render_reference.make_template(kind, size)
        t = make_template(kind, size)
        bits = t.canonical_occupancy.bits
        assert bits.dtype == ref.canonical_occupancy.bits.dtype
        assert bits.tobytes() == ref.canonical_occupancy.bits.tobytes()
        assert t.physical_scale.tobytes() == ref.physical_scale.tobytes()
        for a, b in zip(t.canonical_bbox,
                        render_reference.canonical_bbox(bits)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        surf = render_reference.surface_voxels(bits)
        assert t.surface_voxels.dtype == surf.dtype
        assert t.surface_voxels.tobytes() == surf.tobytes()


class TestObjectPose:
    def test_rests_on_floor(self):
        for kind in ("cube", "table", "cylinder"):
            t = make_template(kind, [0.6, 0.5, 0.7])
            pose = object_pose(t, [0.3, -0.2], 0.5)
            box = posed_bbox(t, pose)
            assert box.min_corner[2] == pytest.approx(0.0, abs=1e-9)
            assert box.center[:2] == pytest.approx([0.3, -0.2], abs=1e-9)

    def test_posed_bbox_matches_physical_scale(self):
        t = make_template("cube", [0.6, 0.6, 0.6])
        box = posed_bbox(t, object_pose(t, [0.0, 0.0], 0.0))
        assert np.allclose(box.extents, 0.6, atol=0.02)


class TestRenderFrame:
    def test_cube_front_face_depth_analytic(self):
        """The camera looks straight at a cube face; the central pixel's
        depth is exactly the distance to that face."""
        script = single_object_script()
        depth, gt = render_frame(script, 0, visibility_band=0.15)
        intr = script.intrinsics
        # cube spans y in [-0.3, 0.3]; camera at y=-2 -> face distance 1.7
        center = depth[intr.height // 2, intr.width // 2]
        assert center == pytest.approx(1.7, abs=1e-6)

    def test_empty_scene_renders_zero(self):
        script = single_object_script()
        script.object_poses = [[SimilarityTransform(
            1.0, np.eye(3), [50.0, 50.0, 0.0])]]
        depth, _ = render_frame(script, 0, visibility_band=0.15)
        assert not depth.any()

    def test_floor_depth_analytic(self):
        script = single_object_script(include_floor=True)
        script.object_poses = [[SimilarityTransform(
            1.0, np.eye(3), [50.0, 50.0, 0.0])]]
        cam = script.camera_poses[0]
        depth, _ = render_frame(script, 0, visibility_band=0.15)
        hit = depth > 0
        assert hit.any()
        # all floor hits reproject to z = 0
        intr = script.intrinsics
        vv, uu = np.nonzero(hit)
        dirs = np.stack([(uu + 0.5 - intr.cx) / intr.fx,
                         (vv + 0.5 - intr.cy) / intr.fy,
                         np.ones(len(uu))], axis=-1)
        world = cam.apply(dirs * depth[hit][:, None])
        assert np.abs(world[:, 2]).max() < 1e-6

    def test_occlusion(self):
        # the near cube hides the far one along the view axis
        t = make_template("cube", [0.6, 0.6, 0.6])
        near = object_pose(t, [0.0, 0.0], 0.0)
        far = object_pose(t, [0.0, 1.5], 0.0)
        cam = look_at([0.0, -2.0, 0.3], [0.0, 0.0, 0.3])
        script = SceneScript(
            templates=[t, t],
            object_poses=[[near, far]],
            camera_poses=[cam],
            intrinsics=default_intrinsics(240, 180),
            scene_bounds=Box3([0, 0.75, 0.3], [2.0, 3.5, 1.2]),
            include_floor=False,
        )
        depth, gt = render_frame(script, 0, visibility_band=0.15)
        intr = script.intrinsics
        assert depth[intr.height // 2, intr.width // 2] == \
            pytest.approx(1.7, abs=1e-6)
        # the far object has no visible voxels facing the camera
        assert len(gt.objects[0].visible_voxels) > 0
        assert len(gt.objects[1].visible_voxels) == 0

    @pytest.mark.parametrize("kind", sorted(synth.TEMPLATE_KINDS))
    def test_class_and_symmetry_from_kind_table(self, kind):
        _, gt = render_frame(single_object_script(kind), 0,
                             visibility_band=0.15)
        class_id, symmetry, _ = synth.TEMPLATE_KINDS[kind]
        (obj,) = gt.objects
        assert obj.template.kind == kind
        assert obj.class_id == class_id and obj.symmetry == symmetry

    def test_visible_voxels_subset_of_surface(self):
        script = single_object_script(yaw=0.4)
        _, gt = render_frame(script, 0, visibility_band=0.15)
        surf = {tuple(v) for v in gt.objects[0].template.surface_voxels}
        vis = {tuple(v) for v in gt.objects[0].visible_voxels}
        assert vis and vis <= surf

    def test_depth_matches_box_distance_everywhere(self):
        # every rendered object hit lies on the posed cube's boundary
        script = single_object_script(yaw=0.31)
        depth, gt = render_frame(script, 0, visibility_band=0.15)
        cam = script.camera_poses[0]
        intr = script.intrinsics
        vv, uu = np.nonzero(depth > 0)
        dirs = np.stack([(uu + 0.5 - intr.cx) / intr.fx,
                         (vv + 0.5 - intr.cy) / intr.fy,
                         np.ones(len(uu))], axis=-1)
        world = cam.apply(dirs * depth[depth > 0][:, None])
        canon = gt.objects[0].pose.inverse().apply(world)
        lo, hi = gt.objects[0].template.canonical_bbox
        # on the boundary: inside the AABB, near some face
        inside = np.all((canon > lo - 1e-6) & (canon < hi + 1e-6), axis=1)
        face = np.minimum(np.abs(canon - lo), np.abs(canon - hi)).min(axis=1)
        assert inside.all()
        assert face.max() < 1e-6

    def test_casts_only_pixels_the_box_can_cover(self, monkeypatch):
        script = single_object_script()
        rows = []
        ray_box = synth.ray_box

        def counting(o, d, lo, hi):
            rows.append(len(d))
            return ray_box(o, d, lo, hi)

        monkeypatch.setattr(synth, "ray_box", counting)
        depth, _ = render_frame(script, 0, visibility_band=0.15)
        assert depth.any()
        intr = script.intrinsics
        assert 0 < max(rows) < intr.width * intr.height


def reference_scene(objects, eye, target, width=48, height=36,
                    include_floor=False):
    """One frame of (kind, size, xy, yaw) objects seen from eye."""
    templates = [make_template(kind, size) for kind, size, *_ in objects]
    poses = [object_pose(t, xy, yaw)
             for t, (_, _, xy, yaw) in zip(templates, objects)]
    return SceneScript(
        templates=templates, object_poses=[poses],
        camera_poses=[look_at(eye, target)],
        intrinsics=default_intrinsics(width, height),
        scene_bounds=Box3([0, 0, 0.3], [4.0, 4.0, 2.0]),
        include_floor=include_floor,
    )


CUBE = ("cube", [0.6, 0.6, 0.6], [0.0, 0.0], 0.0)
# Odd image sizes put the center column and row on the optical axis, so
# their rays lie, up to rounding, in the cube's x = 0.3 face plane and
# z = 0.6 top plane.
GRAZING = reference_scene([CUBE], [0.3, -2.0, 0.6], [0.3, 0.0, 0.6],
                          width=49, height=37)
INSIDE = reference_scene([CUBE], [0.05, -0.1, 0.3], [1.0, 2.0, 0.0])
NEXT_TO = reference_scene([CUBE], [0.0, -0.301, 0.3], [0.0, 0.0, 0.3],
                          include_floor=True)
PARTLY_OFF_SCREEN = reference_scene(
    [CUBE, ("table", [0.8, 0.5, 0.5], [0.0, 1.2], 0.7)],
    [0.0, -2.5, 1.0], [1.4, 0.0, 0.3], include_floor=True)
WHOLLY_OFF_SCREEN = reference_scene([CUBE], [-2.0, -2.0, 0.5],
                                    [-1.0, -2.3, 0.5], include_floor=True)


@st.composite
def reference_scenes(draw):
    """One frame of 1-3 posed, possibly tilted and overlapping templates,
    seen by a small camera far away or next to or inside the first object's
    box, aimed anywhere, with or without the floor."""
    templates, poses = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(synth.TEMPLATE_KINDS)))
        t = make_template(kind, [draw(st.floats(0.1, 0.9)) for _ in range(3)])
        pose = object_pose(t, [draw(st.floats(-1.0, 1.0)),
                               draw(st.floats(-1.0, 1.0))],
                           draw(st.floats(0.0, 2 * np.pi)))
        tilt = Rotation.from_euler(
            "x", draw(st.sampled_from([0.0, 0.3, np.pi / 2]))).as_matrix()
        templates.append(t)
        poses.append(SimilarityTransform(pose.scale, pose.rotation @ tilt,
                                         pose.translation))
    if draw(st.booleans()):
        box = posed_bbox(templates[0], poses[0])
        eye = box.center + box.extents * np.array(
            [draw(st.floats(-0.8, 0.8)) for _ in range(3)])
    else:
        eye = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)),
                        draw(st.floats(0.2, 2.5))])
    target = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)])
    forward = target - eye
    # look_at needs a forward direction away from the vertical
    assume(np.linalg.norm(forward[:2])
           > 1e-3 * max(np.linalg.norm(forward), 0.1))
    width = draw(st.sampled_from([33, 48]))
    height = draw(st.sampled_from([25, 36]))
    f = width / (2.0 * np.tan(np.radians(draw(st.floats(40.0, 100.0))) / 2.0))
    return SceneScript(
        templates=templates, object_poses=[poses],
        camera_poses=[look_at(eye, target)],
        intrinsics=voxel.CameraIntrinsics(f, f, width / 2.0, height / 2.0,
                                          width, height),
        scene_bounds=Box3([0, 0, 0.3], [4.0, 4.0, 2.0]),
        include_floor=draw(st.booleans()),
    )


class TestRenderAgainstEveryPixelReference:
    @given(reference_scenes())
    @example(GRAZING)
    @example(INSIDE)
    @example(NEXT_TO)
    @example(PARTLY_OFF_SCREEN)
    @example(WHOLLY_OFF_SCREEN)
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, script):
        depth, gt = render_frame(script, 0, visibility_band=0.15)
        ref_depth, ref_gt = render_reference.render_frame(script, 0)
        assert depth.tobytes() == ref_depth.tobytes()
        for a, b in zip(gt.objects, ref_gt.objects):
            assert a.visible_voxels.shape == b.visible_voxels.shape
            assert a.visible_voxels.tobytes() == b.visible_voxels.tobytes()


class TestGroundTruthNoc:
    def test_pose_round_trip(self):
        """Solving the pose from the exact NOC correspondences recovers the
        generating pose to numerical precision."""
        t = make_template("l_shape", [0.7, 0.5, 0.6])
        pose = object_pose(t, [0.2, -0.1], 1.1)
        box = posed_bbox(t, pose)
        noc = ground_truth_noc(t, pose, box)
        cube = box.cubified()
        res = noc.dims[0]
        idx = np.stack(np.meshgrid(*[np.arange(res)] * 3, indexing="ij"),
                       axis=-1)
        centers = cube.min_corner + (idx + 0.5) / res * cube.extents
        sel = noc.valid
        est = solve_pose(noc.coords[sel], centers[sel])
        assert abs(est.scale - pose.scale) < 1e-9
        assert np.abs(est.rotation - pose.rotation).max() < 1e-9
        assert np.abs(est.translation - pose.translation).max() < 1e-9

    def test_valid_matches_template_occupancy(self):
        t = make_template("cube", [0.6, 0.6, 0.6])
        pose = object_pose(t, [0.0, 0.0], 0.0)
        noc = ground_truth_noc(t, pose)
        # crop of the posed cube: most voxels map into occupied space
        assert noc.valid.mean() > 0.9
        assert noc.coords[noc.valid].min() >= 0.0
        assert noc.coords[noc.valid].max() <= 1.0


class TestSceneScript:
    def test_deterministic_generation(self):
        a = make_random_script(seed=11, **SCENE | dict(n_frames=4)).to_dict()
        b = make_random_script(seed=11, **SCENE | dict(n_frames=4)).to_dict()
        assert a == b

    def test_seed_changes_scene(self):
        a = make_random_script(seed=1, **SCENE | dict(n_frames=2)).to_dict()
        b = make_random_script(seed=2, **SCENE | dict(n_frames=2)).to_dict()
        assert a != b

    def test_slow_motion_keeps_high_overlap(self):
        script = make_random_script(seed=0, **SCENE | dict(n_frames=8))
        boxes = [
            [posed_bbox(script.templates[i], script.object_poses[f][i])
             for i in range(2)]
            for f in range(script.frame_count)
        ]
        from canontrack.geom import box_iou_3d
        for prev, cur in zip(boxes, boxes[1:]):
            for a, b in zip(prev, cur):
                assert box_iou_3d(a, b) > 0.7
