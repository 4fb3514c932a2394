"""Core 3D math: similarity transforms, axis-aligned boxes and IoU measures."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(3)
    return v


@dataclass
class SimilarityTransform:
    """Maps canonical-space points into frame space: p -> scale * R @ p + t."""

    scale: float = 1.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.scale = float(self.scale)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = _as_vec3(self.translation)
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > 1e-8:
            raise ValueError(f"rotation is not orthonormal (max error {err:.2e})")
        det = np.linalg.det(self.rotation)
        if abs(det - 1.0) > 1e-8:
            raise ValueError(f"rotation must have determinant +1, got {det}")

    def apply(self, points) -> np.ndarray:
        """Apply to a single 3-vector or an (N, 3) array of points."""
        out = np.asarray(points, dtype=np.float64) @ self.rotation.T
        # The product is a new array: scale and shift it in place.
        out *= self.scale
        out += self.translation
        return out

    def inverse(self) -> "SimilarityTransform":
        inv_scale = 1.0 / self.scale
        inv_rot = self.rotation.T
        return SimilarityTransform(
            scale=inv_scale,
            rotation=inv_rot,
            translation=-inv_scale * (inv_rot @ self.translation),
        )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }


def yaw_rotation(angle_rad: float) -> np.ndarray:
    """Rotation about the +z (up) axis."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Box3:
    """Axis-aligned box given by center and full side lengths, in meters."""

    center: np.ndarray
    extents: np.ndarray

    def __post_init__(self):
        self.center = _as_vec3(self.center)
        self.extents = _as_vec3(self.extents)
        if not np.all(self.extents > 0):
            raise ValueError(f"box extents must be positive, got {self.extents}")

    @property
    def min_corner(self) -> np.ndarray:
        return self.center - 0.5 * self.extents

    @property
    def max_corner(self) -> np.ndarray:
        return self.center + 0.5 * self.extents

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    def cubified(self) -> "Box3":
        """Bounding cube with side = max extent, same center."""
        return Box3(self.center, np.full(3, float(self.extents.max())))

    def contains(self, points) -> np.ndarray:
        """Whether each point lies in the box, faces included; compared per
        column, which makes no (N, 3) temporaries."""
        p = np.asarray(points, dtype=np.float64)
        lo, hi = self.min_corner, self.max_corner
        inside = (p[..., 0] >= lo[0]) & (p[..., 0] <= hi[0])
        for d in (1, 2):
            inside &= (p[..., d] >= lo[d]) & (p[..., d] <= hi[d])
        return inside

    def to_dict(self) -> dict:
        return {"center": self.center.tolist(), "extents": self.extents.tolist()}


def box_iou_3d(a: Box3, b: Box3) -> float:
    """Intersection-over-union of two axis-aligned boxes; 0 when disjoint."""
    lo = np.maximum(a.min_corner, b.min_corner)
    hi = np.minimum(a.max_corner, b.max_corner)
    overlap = np.clip(hi - lo, 0.0, None)
    inter = float(np.prod(overlap))
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return inter / union


def volumetric_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two bool voxel grids of equal dims; 0 when both are empty."""
    if a.dtype != bool or b.dtype != bool:
        raise ValueError(f"grids must be bool, got {a.dtype} and {b.dtype}")
    if a.shape != b.shape:
        raise ValueError(f"grid dims mismatch: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    inter = np.count_nonzero(a & b)
    return inter / union
