"""Voxel grids and per-frame TSDF fusion from depth images.

Grid index (i, j, k) has its center at origin + (index + 0.5) * voxel_size.
TSDF sign convention: positive in free space (in front of the observed
surface), negative behind it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Box3, SimilarityTransform, per_column

# Side of every object-space grid: template occupancy, completion crop and
# canonical reconstruction.  The three must agree for their IoUs to be defined.
OBJECT_RESOLUTION = 64


def lattice_coords(points: np.ndarray, res: int) -> np.ndarray:
    """(3, ...) lattice coordinates floor(points[..., c] * res) of (..., 3)
    points in the unit cube, scaled one column at a time; floats, so that a
    point off the lattice or NaN is never cast."""
    idx = np.empty((3,) + points.shape[:-1])
    for c in range(3):
        np.multiply(points[..., c], res, out=idx[c, ...])
    return np.floor(idx, out=idx)


def flat_index(idx: np.ndarray, res: int) -> np.ndarray:
    """Flat C-order index (i * res + j) * res + k of (3, ...) lattice
    coordinates, as floats."""
    flat = idx[0] * res
    flat += idx[1]
    flat *= res
    flat += idx[2]
    return flat


def nearest_voxel(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Value of the voxel of `grid` that contains each point.

    `grid` spans the unit cube with shape (R, R, R); `points` has shape
    (..., 3).  Points outside the cube [0, 1)^3, and NaN points, read zero.
    Only the flat indices of the points whose three lattice coordinates lie
    in [0, R) are made integers.
    """
    res = grid.shape[0]
    idx = lattice_coords(points, res)
    inside = (idx >= 0) & (idx < res)
    sel = np.flatnonzero(inside[0] & inside[1] & inside[2])
    out = np.zeros(points.shape[:-1], dtype=grid.dtype)
    out.reshape(-1)[sel] = grid.reshape(-1).take(
        flat_index(idx, res).reshape(-1).take(sel).astype(np.int64))
    return out


@dataclass
class CameraIntrinsics:
    """Pinhole camera model, no distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int


@dataclass
class DenseTsdfGrid:
    origin: np.ndarray
    voxel_size: float
    values: np.ndarray  # truncated signed distances, meters
    weights: np.ndarray  # per-voxel observation weight, 0 = never observed

    @property
    def dims(self) -> tuple:
        return self.values.shape

    @property
    def truncation(self) -> float:
        """Distance, meters, at which signed distances are clipped: three
        voxels."""
        return 3.0 * self.voxel_size

    @classmethod
    def for_bounds(cls, bounds: Box3, voxel_size: float) -> "DenseTsdfGrid":
        """Unobserved grid whose voxels cover the box from its min corner."""
        dims = tuple(int(d) for d in np.ceil(bounds.extents / voxel_size))
        return cls(bounds.min_corner, voxel_size, np.zeros(dims),
                   np.zeros(dims))

    def voxel_centers(self) -> np.ndarray:
        """World-space voxel centers, shape dims + (3,): each axis's
        origin + (index + 0.5) * voxel_size, broadcast over the grid."""
        centers = np.empty(self.dims + (3,))
        for d, n in enumerate(self.dims):
            axis = self.origin[d] + (np.arange(n) + 0.5) * self.voxel_size
            centers[..., d] = axis.reshape([n if a == d else 1
                                            for a in range(3)])
        return centers


@dataclass
class SparseSurfaceGrid:
    """Integer coordinates of near-surface voxels, sharing the TSDF's frame."""

    coords: np.ndarray  # (N, 3) int
    origin: np.ndarray
    voxel_size: float

    def __len__(self) -> int:
        return self.coords.shape[0]

    def centers(self) -> np.ndarray:
        """(N, 3) world-space voxel centers: origin + (coords + 0.5) *
        voxel_size."""
        centers = self.coords + 0.5
        centers *= self.voxel_size
        return per_column(np.add, self.origin, centers, out=centers)


@dataclass
class OccupancyGrid:
    bits: np.ndarray  # (R, R, R) bool

    @property
    def dims(self) -> tuple:
        return self.bits.shape


def project(intrinsics: CameraIntrinsics, points_cam: np.ndarray) -> tuple:
    """Pinhole image coordinates (u, v) of (N, 3) camera-frame points in
    front of the camera; pixel (u, v) covers [u, u + 1) x [v, v + 1)."""
    z = points_cam[:, 2]
    return (intrinsics.fx * points_cam[:, 0] / z + intrinsics.cx,
            intrinsics.fy * points_cam[:, 1] / z + intrinsics.cy)


def depth_at(depth: np.ndarray, intrinsics: CameraIntrinsics,
             points_cam: np.ndarray) -> np.ndarray:
    """Depth of the pixel each (N, 3) camera-frame point projects into; 0 for
    points behind the camera or off the image."""
    front = np.nonzero(points_cam[:, 2] > 1e-6)[0]
    u, v = project(intrinsics, points_cam.take(front, axis=0))
    u = np.floor(u).astype(np.int64)
    v = np.floor(v).astype(np.int64)
    ok = (u >= 0) & (u < intrinsics.width) & (v >= 0) & (v < intrinsics.height)
    d = np.zeros(len(points_cam))
    d[front[ok]] = depth[v[ok], u[ok]]
    return d


def projective_sdf(depth: np.ndarray, intrinsics: CameraIntrinsics,
                   world_to_cam: SimilarityTransform,
                   points: np.ndarray) -> tuple:
    """(d, d - z) of (N, 3) world points: the depth d of the pixel each point
    projects into (0 behind the camera or off the image), and its projective
    signed distance, d minus the point's camera-frame z."""
    cam = world_to_cam.apply(points)
    d = depth_at(depth, intrinsics, cam)
    return d, d - cam[:, 2]


def fuse_depth_frame(
    depth: np.ndarray,
    intrinsics: CameraIntrinsics,
    camera_pose: SimilarityTransform,
    grid: DenseTsdfGrid,
) -> DenseTsdfGrid:
    """Integrate one depth frame into `grid` (running weighted average),
    writing its values and weights in place, and return it.

    `depth` is a float64 (height, width) array in meters, 0 marking invalid
    pixels; `camera_pose` is camera-to-world and must have unit scale.
    """
    d, sdf = projective_sdf(depth, intrinsics, camera_pose.inverse(),
                            grid.voxel_centers().reshape(-1, 3))
    tau = grid.truncation
    # Voxels more than tau behind the surface stay unobserved.  The mask is
    # 3-D so that the writes below reach the grid's own arrays.
    update = ((d > 0) & (sdf > -tau)).reshape(grid.dims)
    sdf = np.clip(sdf, -tau, tau).reshape(grid.dims)

    values, weights = grid.values, grid.weights
    w_old = weights[update]
    values[update] = (w_old * values[update] + sdf[update]) / (w_old + 1.0)
    weights[update] = w_old + 1.0
    return grid


def extract_surface(grid: DenseTsdfGrid, band: float) -> SparseSurfaceGrid:
    """Observed voxels with |tsdf| < band, meters."""
    mask = (grid.weights > 0) & (np.abs(grid.values) < band)
    coords = np.argwhere(mask)
    return SparseSurfaceGrid(coords, grid.origin, grid.voxel_size)
