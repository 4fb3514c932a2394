"""Synthetic dynamic desk-scale scenes: procedural voxel objects on scripted
planar trajectories, an orbiting depth camera, and full ground truth (boxes,
poses, visible-voxel sets).

Depth rendering casts one ray per pixel, intersects it with each object's
canonical occupancy (marched at half-voxel steps, then bisected to the
occupancy boundary) and z-buffers the results together with an optional
ground plane.  Each object is ray-cast only on the pixels of its projected
box's bounding rectangle.  Depth is the camera-frame z coordinate; 0 marks
invalid pixels.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .geom import Box3, SimilarityTransform, per_column, ray_box, yaw_rotation
from .voxel import (OBJECT_RESOLUTION, CameraIntrinsics, OccupancyGrid,
                    nearest_voxel, project, projective_sdf)

# Random scenes place objects within PLACEMENT_RADIUS of the origin, at least
# MIN_SEPARATION apart.  Over seeds 0-299, placement failed for 0 scenes of 3
# objects, 84 of 4, 284 of 5 and all of 6, so MAX_OBJECTS is 3.
PLACEMENT_RADIUS = 1.0  # meters
MIN_SEPARATION = 0.95  # meters
MAX_OBJECTS = 3
JUMP_PERIOD = 3  # frames between jumps in "fast" motion
REFINE_ITERS = 40  # bisection steps of a ray's first hit
FLOOR_HALF_EXTENT = 3.0  # meters: the floor is |x|, |y| <= this at z = 0

# kind -> (class id, symmetry, square footprint required)
TEMPLATE_KINDS = {
    "cube": (0, "four_fold", True),
    "box": (1, "two_fold", False),
    "l_shape": (2, "none", False),
    "table": (3, "two_fold", False),
    "chair": (4, "none", False),
    "cylinder": (5, "cylindrical", True),
    "u_shape": (6, "none", False),
    "tower": (7, "four_fold", True),
    "cross": (8, "four_fold", True),
    "ring": (9, "cylindrical", True),
}


@dataclass
class ObjectTemplate:
    """A rigid object normalized into [0,1]^3, longest extent spanning the
    unit cube; z is the canonical up axis."""

    kind: str
    canonical_occupancy: OccupancyGrid
    physical_scale: np.ndarray  # full extents, meters

    @functools.cached_property
    def dilated_occupancy(self) -> np.ndarray:
        """Canonical occupancy dilated by two voxels, computed once per
        template (the oracle detector's ownership test); read-only."""
        return _read_only(ndimage.binary_dilation(
            self.canonical_occupancy.bits, iterations=2))

    @property
    def pose_scale(self) -> float:
        """Similarity scale placing the canonical cube at physical size."""
        return float(self.physical_scale.max())

    @functools.cached_property
    def canonical_bbox(self) -> tuple:
        """(lo, hi) canonical-space AABB of the occupied voxels, computed
        once per template from the surface voxels, which hold every
        extreme index; read-only."""
        surf = self.surface_voxels
        res = self.canonical_occupancy.dims[0]
        return (_read_only(surf.min(axis=0) / res),
                _read_only((surf.max(axis=0) + 1) / res))

    @functools.cached_property
    def surface_voxels(self) -> np.ndarray:
        """Occupied voxels with at least one empty 6-neighbor (or on the
        grid border), computed once per template; read-only."""
        bits = self.canonical_occupancy.bits
        return _read_only(np.argwhere(bits & ~ndimage.binary_erosion(bits)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _shape_mask(kind: str, ux: np.ndarray, uy: np.ndarray,
                uz: np.ndarray) -> np.ndarray:
    """Occupancy predicate in shape-local coordinates (ux, uy, uz) in
    [-1,1]^3, given as arrays that broadcast together."""
    inside = (np.abs(ux) <= 1.0) & (np.abs(uy) <= 1.0) & (np.abs(uz) <= 1.0)
    if kind in ("cube", "box"):
        return inside
    if kind == "l_shape":
        return inside & ~((ux > 0.0) & (uy > 0.0))
    if kind == "table":
        top = uz > 0.5
        legs = (np.abs(ux) > 0.55) & (np.abs(uy) > 0.55)
        return inside & (top | legs)
    if kind == "chair":
        seat = (uz > -0.25) & (uz < 0.1)
        back = (uy > 0.55) & (uz >= 0.1)
        legs = (np.abs(ux) > 0.55) & (np.abs(uy) > 0.55) & (uz <= -0.25)
        return inside & (seat | back | legs)
    if kind == "cylinder":
        return inside & (ux ** 2 + uy ** 2 <= 1.0)
    if kind == "u_shape":
        slot = (np.abs(ux) < 0.4) & (uy > -0.2)
        return inside & ~slot
    if kind == "tower":
        base = uz <= 0.0
        top = (uz > 0.0) & (np.abs(ux) <= 0.5) & (np.abs(uy) <= 0.5)
        return inside & (base | top)
    if kind == "cross":
        return inside & ((np.abs(ux) <= 0.35) | (np.abs(uy) <= 0.35))
    if kind == "ring":
        r2 = ux ** 2 + uy ** 2
        return inside & (r2 <= 1.0) & (r2 >= 0.45 ** 2)
    raise ValueError(f"unknown template kind {kind!r}")


def make_template(kind: str, physical_scale) -> ObjectTemplate:
    """Build a procedural template of a TEMPLATE_KINDS kind and size."""
    _, _, square = TEMPLATE_KINDS[kind]
    scale = np.asarray(physical_scale, dtype=np.float64).reshape(3).copy()
    if square:
        scale[0] = scale[1] = max(scale[0], scale[1])
    frac = scale / scale.max()  # occupied fraction of the unit cube per axis

    # Voxel centers of one axis; the shape is evaluated on the broadcast of
    # the three axes' shape-local coordinates.
    c = (np.arange(OBJECT_RESOLUTION) + 0.5) / OBJECT_RESOLUTION
    ux, uy, uz = ((c - 0.5) / (0.5 * f) for f in frac)
    bits = _shape_mask(kind, ux[:, None, None], uy[None, :, None],
                       uz[None, None, :])
    return ObjectTemplate(kind, OccupancyGrid(bits), scale)


def object_pose(template: ObjectTemplate, center_xy,
                yaw: float) -> SimilarityTransform:
    """Pose placing the template at a planar position with its occupied
    geometry resting on the floor, z = 0."""
    lo, hi = template.canonical_bbox
    c = template.pose_scale
    rot = yaw_rotation(yaw)
    # canonical occupied center, mapped to (cx, cy, *) in world
    mid = 0.5 * (lo + hi)
    # the floor's height, 0, minus the occupied bottom; a bottom at lo 0
    # gives tz +0.0, not -0.0
    tz = 0.0 - c * lo[2]
    txy = np.asarray(center_xy, dtype=np.float64) - c * (rot @ mid)[:2]
    return SimilarityTransform(c, rot, np.array([txy[0], txy[1], tz]))


def _posed_corners(template: ObjectTemplate,
                   pose: SimilarityTransform) -> np.ndarray:
    """World-space (8, 3) corners of the posed canonical occupied box."""
    lo, hi = template.canonical_bbox
    corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    return pose.apply(corners)


def posed_bbox(template: ObjectTemplate, pose: SimilarityTransform) -> Box3:
    """World-space AABB of the posed canonical occupied region."""
    w = _posed_corners(template, pose)
    mn, mx = w.min(axis=0), w.max(axis=0)
    return Box3(0.5 * (mn + mx), np.maximum(mx - mn, 1e-6))


@dataclass
class GroundTruthObject:
    object_id: int
    class_id: int
    template: ObjectTemplate
    pose: SimilarityTransform
    box: Box3
    symmetry: str
    visible_voxels: np.ndarray  # (M, 3) int canonical indices


@dataclass
class GroundTruthFrame:
    index: int
    camera_pose: SimilarityTransform
    objects: list


@dataclass
class SceneScript:
    """Everything needed to render a sequence deterministically."""

    templates: list  # ObjectTemplate per object
    object_poses: list  # [frame][object] -> SimilarityTransform
    camera_poses: list  # [frame] -> SimilarityTransform (camera-to-world)
    intrinsics: CameraIntrinsics
    scene_bounds: Box3
    include_floor: bool = True

    @property
    def frame_count(self) -> int:
        return len(self.object_poses)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "intrinsics": asdict(self.intrinsics),
            "scene_bounds": self.scene_bounds.to_dict(),
            "include_floor": self.include_floor,
            "floor_half_extent": FLOOR_HALF_EXTENT,
            "camera_poses": [p.to_dict() for p in self.camera_poses],
            "objects": [
                {
                    "id": f"obj{i}_{t.kind}",
                    "kind": t.kind,
                    "physical_scale": t.physical_scale.tolist(),
                    "poses": [self.object_poses[f][i].to_dict()
                              for f in range(self.frame_count)],
                }
                for i, t in enumerate(self.templates)
            ],
        }


def look_at(eye, target) -> SimilarityTransform:
    """Camera-to-world pose: camera z forward, x right, y down, with world z
    up."""
    eye = np.asarray(eye, dtype=np.float64)
    f = np.asarray(target, dtype=np.float64) - eye
    f = f / np.linalg.norm(f)
    r = np.cross(f, np.array([0.0, 0.0, 1.0]))
    r = r / np.linalg.norm(r)
    d = np.cross(f, r)
    rot = np.stack([r, d, f], axis=1)
    return SimilarityTransform(1.0, rot, eye)


def default_intrinsics(width: int, height: int) -> CameraIntrinsics:
    """Square pixels, the principal point at the image center and a 60
    degree horizontal field of view."""
    f = width / (2.0 * np.tan(np.radians(60.0) / 2.0))
    return CameraIntrinsics(f, f, width / 2.0, height / 2.0, width, height)


def _pixel_rays(intrinsics: CameraIntrinsics, camera_pose: SimilarityTransform):
    u = np.arange(intrinsics.width) + 0.5
    v = np.arange(intrinsics.height) + 0.5
    uu, vv = np.meshgrid(u, v)
    dirs_cam = np.stack(
        [(uu - intrinsics.cx) / intrinsics.fx,
         (vv - intrinsics.cy) / intrinsics.fy,
         np.ones_like(uu)],
        axis=-1,
    )
    dirs_world = dirs_cam @ camera_pose.rotation.T
    return dirs_world.reshape(-1, 3)


def _covered_pixels(intrinsics: CameraIntrinsics,
                    corners_cam: np.ndarray) -> np.ndarray:
    """Flat indices of the pixels whose rays can enter a box, given its
    (8, 3) camera-frame corners: every pixel that overlaps the corners'
    projected bounding rectangle grown by one pixel, or every pixel when a
    corner is at or behind the camera."""
    width, height = intrinsics.width, intrinsics.height
    if np.any(corners_cam[:, 2] <= 0.0):
        return np.arange(width * height)
    u, v = project(intrinsics, corners_cam)
    # Clipped as floats: a corner just in front of the camera can project
    # arbitrarily far off the image.
    u0, u1 = np.clip([np.floor(u.min()) - 1, np.ceil(u.max()) + 1],
                     0, width).astype(np.int64)
    v0, v1 = np.clip([np.floor(v.min()) - 1, np.ceil(v.max()) + 1],
                     0, height).astype(np.int64)
    return (np.arange(v0, v1)[:, None] * width + np.arange(u0, u1)).ravel()


def _ray_points(origin, s, dirs) -> np.ndarray:
    """(N, 3) points origin + s[:, None] * dirs, computed per column."""
    points = per_column(np.multiply, s[:, None], dirs)
    return per_column(np.add, origin, points, out=points)


def _raycast_object(origin_c, dirs_c, bits, lo, hi) -> np.ndarray:
    """First-hit ray parameter against a canonical occupancy, inf for misses.

    The parameter is shared with the world-space ray, so the result is
    directly the camera z-depth.
    """
    step_c = 0.5 / bits.shape[0]
    n = len(dirs_c)
    hit = np.full(n, np.inf)
    s0, s1 = ray_box(origin_c, dirs_c, lo, hi)
    s0 = np.maximum(s0, 1e-9)
    cand = np.nonzero(s1 > s0)[0]
    if len(cand) == 0:
        return hit

    d_cand = dirs_c[cand]
    s0c, s1c = s0[cand], s1[cand]
    ds = step_c / np.linalg.norm(d_cand, axis=1)
    steps = np.ceil((s1c - s0c) / ds).astype(np.int64)
    active = np.arange(len(cand))
    found = np.full(len(cand), np.inf)
    for k in range(int(steps.max())):
        active = active[k < steps[active]]
        if len(active) == 0:
            break
        s = np.minimum(s0c[active] + (k + 0.5) * ds[active], s1c[active])
        occ = nearest_voxel(bits, _ray_points(origin_c, s, d_cand[active]))
        if occ.any():
            found[active[occ]] = s[occ]
            active = active[~occ]

    got = np.isfinite(found)
    if got.any():
        gi = np.nonzero(got)[0]
        lo_s = np.maximum(found[gi] - ds[gi], s0c[gi])
        hi_s = found[gi]
        d_g = d_cand[gi]
        for _ in range(REFINE_ITERS):
            mid = 0.5 * (lo_s + hi_s)
            occ = nearest_voxel(bits, _ray_points(origin_c, mid, d_g))
            hi_s = np.where(occ, mid, hi_s)
            lo_s = np.where(occ, lo_s, mid)
        hit[cand[gi]] = hi_s
    return hit


def render_frame(script: SceneScript, frame_idx: int,
                 visibility_band: float) -> tuple:
    """Render one frame: (depth image, GroundTruthFrame).

    Depth is camera-frame z in meters, 0 where nothing was hit.  Each
    ground-truth object carries the canonical indices of its template surface
    voxels whose depth agrees with the rendered depth within
    `visibility_band`.
    """
    intr = script.intrinsics
    cam = script.camera_poses[frame_idx]
    dirs = _pixel_rays(intr, cam)
    o = cam.translation
    n = len(dirs)

    zbuf = np.full(n, np.inf)
    if script.include_floor:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -o[2] / dz
        px = o[0] + s * dirs[:, 0]
        py = o[1] + s * dirs[:, 1]
        ok = (dz < -1e-12) & (s > 0) & (np.abs(px) <= FLOOR_HALF_EXTENT) \
            & (np.abs(py) <= FLOOR_HALF_EXTENT)
        zbuf[ok] = s[ok]

    cam_inv = cam.inverse()
    for oi, template in enumerate(script.templates):
        pose = script.object_poses[frame_idx][oi]
        rows = _covered_pixels(
            intr, cam_inv.apply(_posed_corners(template, pose)))
        inv = pose.inverse()
        o_c = inv.apply(o)
        d_c = (dirs @ (inv.scale * inv.rotation).T)[rows]
        lo, hi = template.canonical_bbox
        hit = _raycast_object(o_c, d_c, template.canonical_occupancy.bits,
                              lo, hi)
        closer = hit < zbuf[rows]
        zbuf[rows[closer]] = hit[closer]

    depth = np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(intr.height, intr.width)

    objects = []
    for oi, template in enumerate(script.templates):
        pose = script.object_poses[frame_idx][oi]
        surf = template.surface_voxels
        res = template.canonical_occupancy.dims[0]
        centers_c = (surf + 0.5) / res
        d, sdf = projective_sdf(depth, intr, cam_inv, pose.apply(centers_c))
        vis = (d > 0) & (np.abs(sdf) < visibility_band)
        class_id, symmetry, _ = TEMPLATE_KINDS[template.kind]
        objects.append(
            GroundTruthObject(
                object_id=oi,
                class_id=class_id,
                template=template,
                pose=pose,
                box=posed_bbox(template, pose),
                symmetry=symmetry,
                visible_voxels=surf[vis],
            )
        )
    return depth, GroundTruthFrame(frame_idx, cam, objects)


def make_random_script(
    seed: int,
    n_objects: int,
    n_frames: int,
    motion: str,
    intrinsics: CameraIntrinsics,
    jump_period: int,
) -> SceneScript:
    """Random desk-scale scene.

    motion="slow": small per-frame drift and yaw; motion="fast": every
    `jump_period` frames objects jump 0.6-0.9 m and yaw 90-180 degrees,
    which forces low inter-frame overlap of the visible geometry.
    """
    if motion not in ("slow", "fast"):
        raise ValueError("motion must be 'slow' or 'fast'")
    rng = np.random.default_rng(seed)

    kinds = list(TEMPLATE_KINDS)
    templates = []
    for _ in range(n_objects):
        kind = kinds[int(rng.integers(len(kinds)))]
        size = np.array([
            rng.uniform(0.5, 0.9),
            rng.uniform(0.5, 0.9),
            rng.uniform(0.45, 0.85),
        ])
        templates.append(make_template(kind, size))

    def placeable(p, others):
        return np.linalg.norm(p) <= PLACEMENT_RADIUS and all(
            np.linalg.norm(p - q) >= MIN_SEPARATION for q in others)

    def sample_position(others):
        for _ in range(200):
            p = rng.uniform(-PLACEMENT_RADIUS, PLACEMENT_RADIUS, 2)
            if placeable(p, others):
                return p
        raise RuntimeError("could not place object; scene too crowded")

    positions = []
    yaws = []
    for i in range(n_objects):
        positions.append(sample_position(positions[:i]))
        yaws.append(rng.uniform(0, 2 * np.pi))

    object_poses = []
    for f in range(n_frames):
        if f > 0:
            for i in range(n_objects):
                if motion == "fast" and f % jump_period == 0:
                    others = [positions[j] for j in range(n_objects) if j != i]
                    for _ in range(200):
                        ang = rng.uniform(0, 2 * np.pi)
                        dist = rng.uniform(0.6, 0.9)
                        p = positions[i] + dist * np.array([np.cos(ang), np.sin(ang)])
                        if placeable(p, others):
                            positions[i] = p
                            break
                    yaws[i] += rng.uniform(np.pi / 2, np.pi) * rng.choice([-1, 1])
                else:
                    step = 0.015 if motion == "slow" else 0.01
                    ang = rng.uniform(0, 2 * np.pi)
                    p = positions[i] + step * np.array([np.cos(ang), np.sin(ang)])
                    if np.linalg.norm(p) <= PLACEMENT_RADIUS:
                        positions[i] = p
                    yaws[i] += rng.uniform(-0.03, 0.03)
        object_poses.append([
            object_pose(templates[i], positions[i], yaws[i])
            for i in range(n_objects)
        ])

    camera_poses = []
    orbit_radius = rng.uniform(2.6, 3.0)
    height = rng.uniform(1.7, 2.1)
    phase = rng.uniform(0, 2 * np.pi)
    step = np.radians(1.0 if motion == "slow" else 6.0)
    for f in range(n_frames):
        a = phase + f * step
        eye = np.array([orbit_radius * np.cos(a), orbit_radius * np.sin(a), height])
        camera_poses.append(look_at(eye, np.array([0.0, 0.0, 0.35])))

    margin = 0.4
    all_boxes = [posed_bbox(templates[i], object_poses[f][i])
                 for f in range(n_frames) for i in range(n_objects)]
    mn = np.min([b.min_corner for b in all_boxes], axis=0) - margin
    mx = np.max([b.max_corner for b in all_boxes], axis=0) + margin
    mn[2] = min(mn[2], -0.05)
    scene_bounds = Box3(0.5 * (mn + mx), mx - mn)

    return SceneScript(
        templates=templates,
        object_poses=object_poses,
        camera_poses=camera_poses,
        intrinsics=intrinsics,
        scene_bounds=scene_bounds,
    )
