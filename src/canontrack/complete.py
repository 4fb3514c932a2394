"""Completion and correspondence oracle.

Stands in for the learned completion network: produces each detection's
completed occupancy and NOC correspondences from ground truth under a
visibility model, with degradation knobs (completion fraction, occupancy
flips, NOC noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geom import Box3, SimilarityTransform, ray_box
from .voxel import OBJECT_RESOLUTION, nearest_voxel

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

# Canonical-space slack of the candidate-row test, far above the rounding of
# a crop voxel's canonical coordinates.
CANDIDATE_SLACK = 1e-9


@dataclass
class CompletionOutput:
    """A detection's completion over the R^3 crop of its cubified box.

    `noc` and `centers` are the correspondences of the voxels held by both
    `occupancy` and `full`, in crop (C) order: canonical coordinates and
    world-space voxel centers.
    """

    occupancy: np.ndarray  # (R, R, R) bool, the completed occupancy
    full: np.ndarray  # (R, R, R) bool, the undegraded ground-truth occupancy
    noc: np.ndarray  # (M, 3) canonical coordinates in [0, 1]^3
    centers: np.ndarray  # (M, 3) world-space crop voxel centers


def _lookup_codes(bits: np.ndarray, visible_voxels: np.ndarray) -> np.ndarray:
    """uint8 grid read by the oracle's one lookup: bit 0 template occupancy,
    bit 1 the visible voxels, an (M, 3) integer array."""
    codes = bits.astype(np.uint8)
    codes[tuple(visible_voxels.T)] |= 2
    return codes


def _candidate_rows(cube: Box3, inverse: SimilarityTransform, res: int,
                    lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Ascending flat indices of the crop voxels whose center may map into
    the canonical box [lo, hi) under `inverse`, and their count on each
    (i, j) line: one k-interval per line (the slab test of `ray_box`),
    widened by a voxel and by CANDIDATE_SLACK.  Every voxel whose center
    lands in the box is among them."""
    # canonical step per crop index along each axis (columns), and the
    # canonical center of each line's k = 0 voxel
    step = inverse.scale * inverse.rotation * (cube.extents / res)
    first = inverse.apply(cube.min_corner + 0.5 * cube.extents / res)
    n = np.arange(res)
    base = (first + n[:, None, None] * step[:, 0]
            + n[None, :, None] * step[:, 1])
    k_lo, k_hi = ray_box(base, step[:, 2], lo - CANDIDATE_SLACK,
                         hi + CANDIDATE_SLACK)
    k_first = np.clip(np.ceil(k_lo) - 1, 0, res).astype(np.int64).ravel()
    k_last = np.clip(np.floor(k_hi) + 1, -1, res - 1).astype(np.int64).ravel()
    counts = np.maximum(k_last - k_first + 1, 0)
    starts = np.arange(res * res) * res + k_first
    ends = np.cumsum(counts)
    rows = np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
    return rows, counts


def _crop_centers(cube: Box3, rows: np.ndarray, counts: np.ndarray,
                  res: int) -> np.ndarray:
    """(M, 3) world-space centers of the crop voxels at flat indices `rows`,
    `counts` of them on each (i, j) line: min_corner + ((index + 0.5) / res)
    * extents, taken per axis from a table of the axis's `res` centers."""
    axes = (cube.min_corner[:, None]
            + ((np.arange(res) + 0.5) / res) * cube.extents[:, None])
    line_starts = np.arange(0, res ** 3, res)
    centers = np.empty((len(rows), 3))
    centers[:, 0] = np.repeat(np.repeat(axes[0], res), counts)
    centers[:, 1] = np.repeat(np.tile(axes[1], res), counts)
    centers[:, 2] = axes[2].take(rows - np.repeat(line_starts, counts))
    return centers


def oracle_complete(
    detection_box: Box3,
    template,
    pose: SimilarityTransform,
    visible_voxels: np.ndarray,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> CompletionOutput:
    """Completed occupancy and NOC correspondences for one detection.

    The grids cover the cubified detection box.  Occupancy support is the
    full posed ground-truth geometry at the config's completion_fraction 1,
    the visible set at 0, and a random inclusion of hidden voxels in between;
    occupancy_flip_rate flips crop voxels, and NOC values are the
    ground-truth canonical coordinates with truncated Gaussian noise of sigma
    noc_noise (canonical units).  Only crop voxels that can map into the
    template's occupied box (`canonical_bbox`) are transformed and looked up,
    since only there can a voxel be occupied or visible; random draws still
    cover the whole crop.  A crop that reaches no occupied voxel completes
    to nothing: no correspondences, and occupancy holds only the flips.
    """
    cube = detection_box.cubified()
    res = OBJECT_RESOLUTION
    shape = (res,) * 3
    n = res ** 3
    inverse = pose.inverse()

    lookup = _lookup_codes(template.canonical_occupancy.bits, visible_voxels)
    rows, counts = _candidate_rows(cube, inverse, res,
                                   *template.canonical_bbox)
    centers = _crop_centers(cube, rows, counts, res)
    canon = inverse.apply(centers)
    codes = nearest_voxel(lookup, canon)
    full = (codes & 1).astype(bool)
    visible = codes == 3

    f = float(config.completion_fraction)
    if f >= 1.0:
        support = full
    elif f <= 0.0:
        support = visible
    else:
        hidden = full & ~visible
        support = visible | (hidden & (rng.random(n)[rows] < f))

    # Outside the candidate rows support is empty, so occupancy is the flips.
    if config.occupancy_flip_rate > 0:
        occupancy = rng.random(n) < config.occupancy_flip_rate
        kept = occupancy[rows] ^ support
    else:
        occupancy = np.zeros(n, dtype=bool)
        kept = support
    occupancy[rows] = kept

    # NOC only where target geometry exists and is kept
    keep = np.flatnonzero(kept & full)
    coords = canon.take(keep, axis=0)
    np.clip(coords, 0.0, 1.0, out=coords)
    if config.noc_noise > 0:
        noise = rng.normal(0.0, config.noc_noise, (n, 3))
        coords += noise.take(rows[keep], axis=0)
        np.clip(coords, 0.0, 1.0, out=coords)

    full_grid = np.zeros(n, dtype=bool)
    full_grid[rows] = full
    return CompletionOutput(
        occupancy=occupancy.reshape(shape),
        full=full_grid.reshape(shape),
        noc=coords,
        centers=centers.take(keep, axis=0),
    )
