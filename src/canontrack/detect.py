"""Object proposal extraction from per-voxel prediction fields.

The learned detection backbone is replaced by an oracle that derives the
prediction fields from ground truth, with degradation knobs (objectness
flips, center/extent jitter) to sweep detector quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from .geom import Box3, per_column
from .voxel import SparseSurfaceGrid, nearest_voxel

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

EPS = 1e-12
OBJECTNESS_THRESHOLD = 0.5  # voxels at or above it vote
MEAN_SHIFT_RADIUS = 8.0  # flat kernel radius and mode merge radius, voxels
MEAN_SHIFT_STEPS = 20
MIN_CLUSTER_SIZE = 50  # clusters of fewer votes are dropped


@dataclass
class PredictionFields:
    """Per-surface-voxel detector outputs, in voxel units."""

    voxels: np.ndarray  # (N, 3) int surface voxel coords
    objectness: np.ndarray  # (N,) in [0, 1]
    center_offset: np.ndarray  # (N, 3) offset to object center, voxels
    extents: np.ndarray  # (N, 3) full box extents, voxels
    class_id: np.ndarray  # (N,) int predicted class
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    voxel_size: float = 1.0

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.int64).reshape(-1, 3)
        n = len(self.voxels)
        self.objectness = np.asarray(self.objectness, dtype=np.float64).reshape(n)
        self.center_offset = np.asarray(self.center_offset, dtype=np.float64).reshape(n, 3)
        self.extents = np.asarray(self.extents, dtype=np.float64).reshape(n, 3)
        self.class_id = np.asarray(self.class_id, dtype=np.int64).reshape(n)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)


@dataclass
class DetectionTargets:
    """Ground-truth fields; a voxel is an object voxel where owner >= 0,
    and the center/extent targets are only meaningful there."""

    owner: np.ndarray  # (N,) index of owning ground-truth object, -1 if none
    center_offset: np.ndarray  # (N, 3) voxels
    extents: np.ndarray  # (N, 3) voxels


@dataclass
class Proposal:
    box: Box3
    class_id: int
    mean_objectness: float
    member_indices: np.ndarray  # (M,) indices into the input fields


def smooth_l1(x) -> np.ndarray:
    """Quadratic (x^2 / 2) for |x| <= 0.5, linear (|x| - 1/2) beyond."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    return np.where(a <= 0.5, 0.5 * a ** 2, a - 0.5)


def binary_cross_entropy(pred, target) -> float:
    p = np.clip(np.asarray(pred, dtype=np.float64), EPS, 1.0 - EPS)
    t = np.asarray(target, dtype=np.float64)
    return float(np.mean(-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)))


def detection_losses(pred: PredictionFields, target: DetectionTargets) -> tuple:
    """(L_o, L_c, L_d): objectness BCE over all surface voxels, and smooth-l1
    center and extent losses over target-object voxels.  All terms are means
    over their support, 0.0 over an empty one."""
    m = target.owner >= 0
    l_o = binary_cross_entropy(pred.objectness, m) if len(m) else 0.0
    if m.any():
        l_c = float(np.mean(smooth_l1(pred.center_offset[m] - target.center_offset[m])))
        l_d = float(np.mean(smooth_l1(pred.extents[m] - target.extents[m])))
    else:
        l_c = l_d = 0.0
    return l_o, l_c, l_d


def _mean_shift_modes(votes: np.ndarray) -> np.ndarray:
    """Distinct positions reached by at most MEAN_SHIFT_STEPS flat-kernel
    mean-shift steps from the seeds (the unique vote voxels): each mode once,
    in np.unique order.

    A step maps a position to the mean of the votes within MEAN_SHIFT_RADIUS
    of it, summed in ascending vote index, so seeds that reach the same
    position share every later step and a position the step leaves unchanged
    bit for bit never moves again.  Equal positions are therefore moved once,
    fixed points are not moved at all, and the loop ends when no position
    moves; the result equals moving every seed through every step.
    """
    seeds = np.unique(np.round(votes), axis=0)
    tree = cKDTree(votes)
    pts = seeds.astype(np.float64)  # distinct positions
    moving = np.ones(len(pts), dtype=bool)
    for _ in range(MEAN_SHIFT_STEPS):
        active = np.nonzero(moving)[0]
        if not len(active):
            break
        # Every (position, vote) pair within the radius, in no set order;
        # sorting by position * len(votes) + vote lists each neighbourhood
        # in ascending vote index, one position after another.
        pairs = cKDTree(pts[active]).sparse_distance_matrix(
            tree, MEAN_SHIFT_RADIUS, output_type="ndarray")
        lens = np.bincount(pairs["i"], minlength=len(active))
        keep = lens > 0
        moving[active[~keep]] = False
        if keep.any():
            rows = active[keep]
            key = pairs["i"].astype(np.int64) * len(votes)
            key += pairs["j"]
            key.sort()
            flat = key % len(votes)
            starts = np.zeros(len(rows), dtype=np.int64)
            starts[1:] = np.cumsum(lens[keep])[:-1]
            new = (np.add.reduceat(votes.take(flat, axis=0), starts, axis=0)
                   / lens[keep, None])
            moving[rows] = (new != pts[rows]).any(axis=1)
            pts[rows] = new
        pts, merged = np.unique(pts, axis=0, return_inverse=True)
        merged = merged.reshape(-1)
        # A row is final when any position merged into it was a fixed point.
        still = np.ones(len(pts), dtype=bool)
        still[merged[~moving]] = False
        moving = still
    return pts


def mean_shift_proposals(fields: PredictionFields) -> list:
    """Cluster center votes into box proposals.

    Voxels with objectness >= OBJECTNESS_THRESHOLD vote at voxel +
    center_offset.  After at most MEAN_SHIFT_STEPS flat-kernel mean-shift
    iterations, stopping once no mode moves, modes within the kernel radius
    of a stronger mode are merged into it; votes attach to the nearest
    surviving mode within the kernel radius; clusters smaller than
    MIN_CLUSTER_SIZE are dropped.  Extents are average-pooled over members,
    the class is a majority vote of per-voxel classes (the smallest id on a
    tie), and the box center is the converged mode.
    """
    radius = MEAN_SHIFT_RADIUS
    sel = fields.objectness >= OBJECTNESS_THRESHOLD
    if not sel.any():
        return []
    idx = np.nonzero(sel)[0]
    votes = fields.voxels[sel] + fields.center_offset[sel]
    modes = _mean_shift_modes(votes)

    # Support of each candidate mode = votes within the kernel radius.
    support = cKDTree(votes).query_ball_point(modes, radius, return_length=True)

    # Greedy merge: strongest mode absorbs everything within the radius.
    order = np.lexsort((modes[:, 2], modes[:, 1], modes[:, 0], -support))
    alive = np.ones(len(modes), dtype=bool)
    survivors = []
    for i in order:
        if not alive[i]:
            continue
        survivors.append(i)
        d = np.linalg.norm(modes - modes[i], axis=1)
        alive &= d > radius
    centers = modes[survivors]

    # Assign votes to the nearest surviving mode within the kernel radius.
    d = np.linalg.norm(votes[:, None, :] - centers[None, :, :], axis=2)
    nearest = np.argmin(d, axis=1)
    within = d[np.arange(len(votes)), nearest] <= radius

    proposals = []
    for mi in range(len(centers)):
        members = np.nonzero(within & (nearest == mi))[0]
        if len(members) < MIN_CLUSTER_SIZE:
            continue
        gi = idx[members]
        extents_vox = fields.extents[gi].mean(axis=0)
        class_id = int(np.bincount(fields.class_id[gi]).argmax())
        center_world = fields.origin + (centers[mi] + 0.5) * fields.voxel_size
        box = Box3(center_world, np.maximum(extents_vox, 1e-6) * fields.voxel_size)
        proposals.append(
            Proposal(
                box=box,
                class_id=class_id,
                mean_objectness=float(fields.objectness[gi].mean()),
                member_indices=gi,
            )
        )
    return proposals


def make_oracle_fields(surface: SparseSurfaceGrid, gt_objects,
                       config: PipelineConfig,
                       rng: np.random.Generator) -> tuple:
    """Build (PredictionFields, DetectionTargets) from ground truth.

    `gt_objects` is a sequence of objects with .box, .pose, .class_id and
    .template attributes (see synth.GroundTruthObject).  A surface voxel is
    owned by the first object whose dilated canonical occupancy
    (ObjectTemplate.dilated_occupancy) contains it and reports that
    object's class; unowned voxels report class 0.  The config's
    detector_flip_rate flips objectness, and detector_center_jitter and
    detector_extent_jitter are Gaussian sigmas in voxels.
    """
    centers = surface.centers()
    n = len(surface)
    owner = np.full(n, -1, dtype=np.int64)
    c_t = np.zeros((n, 3))
    d_t = np.ones((n, 3))
    class_t = np.zeros(n, dtype=np.int64)
    for oi, obj in enumerate(gt_objects):
        free = owner < 0
        if not free.any():
            break
        canon = obj.pose.inverse().apply(centers[free])
        hit = nearest_voxel(obj.template.dilated_occupancy, canon)
        gidx = np.nonzero(free)[0][hit]
        owner[gidx] = oi
        c_t[gidx] = (per_column(np.subtract, obj.box.center, centers[gidx])
                     / surface.voxel_size)
        d_t[gidx] = obj.box.extents / surface.voxel_size
        class_t[gidx] = obj.class_id

    o = (owner >= 0).astype(np.float64)
    flips = rng.random(n) < config.detector_flip_rate
    o[flips] = 1.0 - o[flips]
    c = c_t + (rng.normal(0.0, config.detector_center_jitter, (n, 3))
               if config.detector_center_jitter > 0 else 0.0)
    d = np.maximum(
        d_t + (rng.normal(0.0, config.detector_extent_jitter, (n, 3))
               if config.detector_extent_jitter > 0 else 0.0),
        0.1,
    )

    pred = PredictionFields(
        voxels=surface.coords,
        objectness=o,
        center_offset=c,
        extents=d,
        class_id=class_t,
        origin=surface.origin,
        voxel_size=surface.voxel_size,
    )
    return pred, DetectionTargets(owner=owner, center_offset=c_t, extents=d_t)
