"""Test reference for canonical coordinates: the exact NOC grid of a posed
template over its cubified crop, against which the completion oracle and
the pose solver are checked."""

from dataclasses import dataclass

import numpy as np

from canontrack.geom import Box3, SimilarityTransform
from canontrack.synth import ObjectTemplate, posed_bbox
from canontrack.voxel import OBJECT_RESOLUTION, nearest_voxel


def lattice_centers(dims: tuple) -> np.ndarray:
    """Voxel-center offsets (index + 0.5) of a whole grid, shape dims + (3,):
    the full lattice the references scale and shift."""
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   axis=-1)
    return idx + 0.5


@dataclass
class NocGrid:
    """Per-voxel canonical coordinates in [0,1]^3 with a validity mask."""

    coords: np.ndarray  # (..., 3) float
    valid: np.ndarray  # (...) bool

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.coords.shape[:-1] != self.valid.shape or self.coords.shape[-1] != 3:
            raise ValueError("coords/valid shape mismatch")
        if self.valid.any():
            v = self.coords[self.valid]
            if v.min() < -1e-9 or v.max() > 1 + 1e-9:
                raise ValueError("valid canonical coordinates must lie in [0,1]^3")

    @property
    def dims(self) -> tuple:
        return self.valid.shape


def ground_truth_noc(template: ObjectTemplate, pose: SimilarityTransform,
                     box: Box3 | None = None) -> NocGrid:
    """Exact canonical coordinates over the cubified crop of the posed box.

    Each crop voxel center maps through the inverse pose; a voxel is valid
    where the template occupies the resulting canonical point.
    """
    if box is None:
        box = posed_bbox(template, pose)
    cube = box.cubified()
    shape = (OBJECT_RESOLUTION,) * 3
    centers = (cube.min_corner
               + lattice_centers(shape) / OBJECT_RESOLUTION * cube.extents)
    canon = pose.inverse().apply(centers.reshape(-1, 3))
    valid = nearest_voxel(template.canonical_occupancy.bits, canon)
    coords = np.clip(canon, 0.0, 1.0)
    coords[~valid] = 0.0
    return NocGrid(coords.reshape(shape + (3,)), valid.reshape(shape))
