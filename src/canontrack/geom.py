"""Core 3D math: similarity transforms, axis-aligned boxes and IoU measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(3)
    return v


# Per-point arithmetic on (N, 3) arrays, one column at a time.  numpy runs
# (N, 3) combined with a 3-vector, and a reduction over axis 0, as an inner
# loop three elements long; a column is one loop N elements long.  Each helper
# gives the broadcast's or the reduction's result bit for bit.

def per_column(ufunc, a, b, out=None) -> np.ndarray:
    """`ufunc(a, b)` for an elementwise arithmetic ufunc (add, subtract,
    multiply) and operands that broadcast to (..., 3): an (N, 3) array and
    a 3-vector in either order, or (N, 1) against (N, 3)."""
    a, b = np.asarray(a), np.asarray(b)
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    for c in range(out.shape[-1]):
        # an operand one wide in its last axis is broadcast along it
        ufunc(a[..., c % a.shape[-1]], b[..., c % b.shape[-1]],
              out=out[..., c])
    return out


def column_means(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=0)` of a C-ordered (N, 3) array with N > 0.

    numpy reduces axis 0 of such an array by adding its rows in order,
    starting from +0.0; so does a running sum (cumsum) of each column, up to
    the sign of an all −0.0 column's sum, which adding +0.0 sets.  A pairwise
    `x[:, c].sum()` adds in another order and differs in the last bits
    (tests/test_columns.py holds an input where it does).
    """
    n = len(x)
    run = np.empty(n)
    sums = np.array([np.cumsum(x[:, c], out=run)[-1]
                     for c in range(x.shape[1])])
    sums += 0.0
    return sums / n


def ray_box(o, d, lo, hi) -> tuple:
    """(t_enter, t_exit) of the lines o + t * d through the box [lo, hi],
    with t_exit < t_enter where a line misses: the slab test (Kay & Kajiya
    1986) in IEEE-infinity form (Williams et al. 2005).  `o` broadcasts
    against `d` over the last axis.

    Where d is 0 on an axis the line is parallel to that slab: off it, both
    bounds are infinities of one sign and the line misses; within it, they
    have opposite signs; on a face plane 0 * inf is NaN, read as (-inf, inf),
    so a line in a face plane counts as inside.
    """
    shape = np.broadcast_shapes(np.shape(o), np.shape(d))[:-1]
    t_enter = np.full(shape, -np.inf)
    t_exit = np.full(shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        for c in range(3):  # one axis at a time, as in per_column
            t0 = (lo[c] - o[..., c]) * inv[..., c]
            t1 = (hi[c] - o[..., c]) * inv[..., c]
            # fmax and fmin skip the NaN of a face plane
            np.fmax(t_enter, np.minimum(t0, t1), out=t_enter)
            np.fmin(t_exit, np.maximum(t0, t1), out=t_exit)
    return t_enter, t_exit


@dataclass
class SimilarityTransform:
    """Maps canonical-space points into frame space: p -> scale * R @ p + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.scale = float(self.scale)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = _as_vec3(self.translation)

    def apply(self, points) -> np.ndarray:
        """Apply to a single 3-vector or an (N, 3) array of points."""
        out = np.asarray(points, dtype=np.float64) @ self.rotation.T
        # The product is a new array: scale and shift it in place.
        out *= self.scale
        return per_column(np.add, out, self.translation, out=out)

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
