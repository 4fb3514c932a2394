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

    `grid` spans the unit cube with shape (R, R, R) or (R, R, R, C);
    `points` has shape (..., 3).  Points outside the cube [0, 1)^3, and NaN
    points, read zero.  Only the flat indices of the points whose three
    lattice coordinates lie in [0, R) are made integers.
    """
    res = grid.shape[0]
    idx = lattice_coords(points, res)
    inside = (idx >= 0) & (idx < res)
    sel = np.flatnonzero(inside[0] & inside[1] & inside[2])
    cells = grid.reshape((res ** 3,) + grid.shape[3:])
    out = np.zeros(points.shape[:-1] + grid.shape[3:], dtype=grid.dtype)
    out.reshape((-1,) + grid.shape[3:])[sel] = cells.take(
        flat_index(idx, res).reshape(-1).take(sel).astype(np.int64), axis=0)
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

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.values.shape != self.weights.shape or self.values.ndim != 3:
            raise ValueError("values and weights must be matching 3D arrays")
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")

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
    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 3:
            raise ValueError("occupancy grid must be 3D")

    @property
    def dims(self) -> tuple:
        return self.bits.shape


def depth_at(depth: np.ndarray, intrinsics: CameraIntrinsics,
             points_cam: np.ndarray) -> np.ndarray:
    """Depth of the pixel each (N, 3) camera-frame point projects into; 0 for
    points behind the camera or off the image."""
    z = points_cam[:, 2]
    front = np.nonzero(z > 1e-6)[0]
    u = np.floor(intrinsics.fx * points_cam[front, 0] / z[front]
                 + intrinsics.cx).astype(np.int64)
    v = np.floor(intrinsics.fy * points_cam[front, 1] / z[front]
                 + intrinsics.cy).astype(np.int64)
    ok = (u >= 0) & (u < intrinsics.width) & (v >= 0) & (v < intrinsics.height)
    d = np.zeros(len(points_cam))
    d[front[ok]] = depth[v[ok], u[ok]]
    return d


def fuse_depth_frame(
    depth: np.ndarray,
    intrinsics: CameraIntrinsics,
    camera_pose: SimilarityTransform,
    grid: DenseTsdfGrid,
) -> DenseTsdfGrid:
    """Integrate one depth frame into the grid (running weighted average).

    `depth` is (height, width) in meters, 0 marking invalid pixels.
    `camera_pose` is camera-to-world and must have unit scale.
    Returns a new grid; the input is not modified.
    """
    if abs(camera_pose.scale - 1.0) > 1e-12:
        raise ValueError("camera pose must have unit scale")
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (intrinsics.height, intrinsics.width):
        raise ValueError("depth image shape does not match intrinsics")

    centers = grid.voxel_centers().reshape(-1, 3)
    world_to_cam = camera_pose.inverse()
    cam = world_to_cam.apply(centers)
    z = cam[:, 2]
    d = depth_at(depth, intrinsics, cam)
    valid = d > 0

    sdf = d - z
    tau = grid.truncation
    # Voxels more than tau behind the surface stay unobserved.
    update = valid & (sdf > -tau)
    sdf = np.clip(sdf, -tau, tau)

    values = grid.values.reshape(-1).copy()
    weights = grid.weights.reshape(-1).copy()
    w_old = weights[update]
    values[update] = (w_old * values[update] + sdf[update]) / (w_old + 1.0)
    weights[update] = w_old + 1.0

    return DenseTsdfGrid(
        origin=grid.origin,
        voxel_size=grid.voxel_size,
        values=values.reshape(grid.dims),
        weights=weights.reshape(grid.dims),
    )


def extract_surface(grid: DenseTsdfGrid, band: float) -> SparseSurfaceGrid:
    """Observed voxels with |tsdf| < band, meters."""
    mask = (grid.weights > 0) & (np.abs(grid.values) < band)
    coords = np.argwhere(mask)
    return SparseSurfaceGrid(coords, grid.origin, grid.voxel_size)
