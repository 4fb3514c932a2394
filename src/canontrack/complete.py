"""Completion and correspondence oracle.

Stands in for the learned completion network: produces each detection's
completed occupancy and NOC grid from ground truth under a visibility model,
with degradation knobs (completion fraction, occupancy flips, NOC noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Box3, SimilarityTransform
from .voxel import OBJECT_RESOLUTION, NocGrid, lattice_centers, nearest_voxel


@dataclass
class DegradationKnobs:
    """completion_fraction interpolates between the visible-only ablation
    (0.0) and the full completed geometry (1.0) by random inclusion of
    hidden voxels."""

    completion_fraction: float = 1.0
    occupancy_flip_rate: float = 0.0
    noc_noise: float = 0.0  # sigma, canonical units


@dataclass
class CompletionOutput:
    occupancy: np.ndarray  # (R, R, R) bool, the completed occupancy
    noc: NocGrid
    centers: np.ndarray  # (R, R, R, 3) world-space crop voxel centers
    full: np.ndarray  # (R, R, R) bool, the undegraded ground-truth occupancy


def detection_rng(base_seed: int, sequence_id: int, frame_id: int,
                  object_id: int) -> np.random.Generator:
    """Per-detection generator so degradation is reproducible regardless of
    processing order."""
    return np.random.default_rng(
        np.random.SeedSequence((base_seed, sequence_id, frame_id, object_id))
    )


def _visible_mask(visible_voxels: np.ndarray, resolution: int) -> np.ndarray:
    mask = np.zeros((resolution,) * 3, dtype=bool)
    if len(visible_voxels):
        vv = np.asarray(visible_voxels, dtype=np.int64)
        mask[vv[:, 0], vv[:, 1], vv[:, 2]] = True
    return mask


def oracle_complete(
    detection_box: Box3,
    template,
    pose: SimilarityTransform,
    visible_voxels: np.ndarray,
    knobs: DegradationKnobs = DegradationKnobs(),
    rng: np.random.Generator | None = None,
) -> CompletionOutput:
    """Completed occupancy and NOC grid for one detection.

    The grids cover the cubified detection box.  Occupancy support is the
    full posed ground-truth geometry at completion_fraction 1, the visible
    set at 0, and a random interpolation in between; NOC values are the
    ground-truth canonical coordinates with optional truncated Gaussian
    noise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cube = detection_box.cubified()
    bits = template.canonical_occupancy.bits
    shape = (OBJECT_RESOLUTION,) * 3

    centers = (cube.min_corner
               + lattice_centers(shape) / OBJECT_RESOLUTION * cube.extents)
    canon = pose.inverse().apply(centers.reshape(-1, 3))
    # Channels: template occupancy, visible voxels, and the template's cube.
    channels = np.stack([bits, _visible_mask(visible_voxels, bits.shape[0]),
                         np.ones_like(bits)], axis=-1)
    full, visible, inside = nearest_voxel(channels, canon).T
    if not inside.any():
        raise ValueError("detection box does not overlap the object")
    visible = visible & full

    f = float(knobs.completion_fraction)
    if f >= 1.0:
        support = full
    elif f <= 0.0:
        support = visible
    else:
        hidden = full & ~visible
        support = visible | (hidden & (rng.random(len(canon)) < f))

    occ = support.copy()
    if knobs.occupancy_flip_rate > 0:
        flips = rng.random(len(canon)) < knobs.occupancy_flip_rate
        occ = occ ^ flips

    coords = np.clip(canon, 0.0, 1.0)
    if knobs.noc_noise > 0:
        coords = np.clip(coords + rng.normal(0.0, knobs.noc_noise, coords.shape),
                         0.0, 1.0)
    valid = occ & full  # NOC only where target geometry exists and is kept
    coords[~valid] = 0.0

    return CompletionOutput(
        occupancy=occ.reshape(shape),
        noc=NocGrid(coords.reshape(shape + (3,)), valid.reshape(shape)),
        centers=centers,
        full=full.reshape(shape),
    )
