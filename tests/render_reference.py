"""Test reference for scene synthesis: the full-lattice template builder and
the renderer that ray-casts every pixel against every object, against which
`synth.make_template` and `synth.render_frame` are checked bit for bit."""

import numpy as np

from canontrack.synth import (FLOOR_HALF_EXTENT, REFINE_ITERS, TEMPLATE_KINDS,
                              GroundTruthFrame, GroundTruthObject,
                              ObjectTemplate, SceneScript, _pixel_rays,
                              _shape_mask, posed_bbox)
from canontrack.voxel import (OBJECT_RESOLUTION, OccupancyGrid, depth_at,
                              nearest_voxel)
from noc_reference import lattice_centers


def make_template(kind: str, physical_scale) -> ObjectTemplate:
    """The template built by evaluating the shape on every lattice center."""
    _, _, square = TEMPLATE_KINDS[kind]
    scale = np.asarray(physical_scale, dtype=np.float64).reshape(3).copy()
    if square:
        scale[0] = scale[1] = max(scale[0], scale[1])
    frac = scale / scale.max()

    cc = lattice_centers((OBJECT_RESOLUTION,) * 3) / OBJECT_RESOLUTION
    u = (cc - 0.5) / (0.5 * frac)
    bits = _shape_mask(kind, u[..., 0], u[..., 1], u[..., 2])
    return ObjectTemplate(kind=kind, canonical_occupancy=OccupancyGrid(bits),
                          physical_scale=scale)


def canonical_bbox(bits: np.ndarray) -> tuple:
    """(lo, hi) canonical AABB from the indices of every occupied voxel."""
    occ = np.argwhere(bits)
    res = bits.shape[0]
    return occ.min(axis=0) / res, (occ.max(axis=0) + 1) / res


def surface_voxels(bits: np.ndarray) -> np.ndarray:
    """(M, 3) indices of the occupied voxels with an empty 6-neighbor, the
    grid padded with empty voxels, in C order."""
    padded = np.pad(bits, 1, constant_values=False)
    inner = (slice(1, -1),) * 3
    empty_neighbor = np.zeros_like(bits)
    for axis in range(3):
        for shift in (-1, 1):
            empty_neighbor |= ~np.roll(padded, shift, axis)[inner]
    return np.argwhere(bits & empty_neighbor)


def _ray_box(o, d, lo, hi):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t0 = (lo - o) * inv
        t1 = (hi - o) * inv
    tmin = np.where(np.isnan(t0), -np.inf, np.minimum(t0, t1)).max(axis=-1)
    tmax = np.where(np.isnan(t1), np.inf, np.maximum(t0, t1)).min(axis=-1)
    par = np.abs(d) < 1e-15
    outside = par & ((o < lo) | (o > hi))
    tmax = np.where(outside.any(axis=-1), -np.inf, tmax)
    return tmin, tmax


def raycast_object(origin_c, dirs_c, bits, lo, hi) -> np.ndarray:
    """First-hit ray parameter of every ray, inf for misses."""
    step_c = 0.5 / bits.shape[0]
    n = len(dirs_c)
    hit = np.full(n, np.inf)
    norm = np.linalg.norm(dirs_c, axis=1)
    s0, s1 = _ray_box(origin_c, dirs_c, lo, hi)
    s0 = np.maximum(s0, 1e-9)
    cand = np.nonzero(s1 > s0)[0]
    if len(cand) == 0:
        return hit

    d_cand = dirs_c[cand]
    s0c, s1c = s0[cand], s1[cand]
    ds = step_c / norm[cand]
    steps = np.ceil((s1c - s0c) / ds).astype(np.int64)
    active = np.arange(len(cand))
    found = np.full(len(cand), np.inf)
    for k in range(int(steps.max())):
        active = active[k < steps[active]]
        if len(active) == 0:
            break
        s = np.minimum(s0c[active] + (k + 0.5) * ds[active], s1c[active])
        p = origin_c[None, :] + s[:, None] * d_cand[active]
        occ = nearest_voxel(bits, p)
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
            occ = nearest_voxel(bits, origin_c[None, :] + mid[:, None] * d_g)
            hi_s = np.where(occ, mid, hi_s)
            lo_s = np.where(occ, lo_s, mid)
        hit[cand[gi]] = hi_s
    return hit


def render_frame(script: SceneScript, frame_idx: int,
                 visibility_band: float = 0.15) -> tuple:
    """(depth image, GroundTruthFrame), every pixel cast against every
    object."""
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

    for oi, template in enumerate(script.templates):
        pose = script.object_poses[frame_idx][oi]
        inv = pose.inverse()
        o_c = inv.apply(o)
        d_c = dirs @ (inv.scale * inv.rotation).T
        lo, hi = template.canonical_bbox
        hit = raycast_object(o_c, d_c, template.canonical_occupancy.bits,
                             lo, hi)
        closer = hit < zbuf
        zbuf[closer] = hit[closer]

    depth = np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(intr.height, intr.width)

    objects = []
    for oi, template in enumerate(script.templates):
        pose = script.object_poses[frame_idx][oi]
        surf = template.surface_voxels
        res = template.canonical_occupancy.dims[0]
        centers_c = (surf + 0.5) / res
        w = pose.apply(centers_c)
        pc = cam.inverse().apply(w)
        d_px = depth_at(depth, intr, pc)
        vis = (d_px > 0) & (np.abs(d_px - pc[:, 2]) < visibility_band)
        objects.append(GroundTruthObject(
            object_id=oi, class_id=TEMPLATE_KINDS[template.kind][0],
            template=template, pose=pose, box=posed_bbox(template, pose),
            symmetry=TEMPLATE_KINDS[template.kind][1],
            visible_voxels=surf[vis]))
    return depth, GroundTruthFrame(frame_idx, cam, objects)
