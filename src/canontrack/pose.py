"""Closed-form similarity alignment of corresponded point sets, plus
symmetry-aware rotation error."""

from __future__ import annotations

import numpy as np

from .geom import SimilarityTransform, column_means, per_column, yaw_rotation

# Discrete rotations about the canonical up axis (+z) that leave the shape
# of each symmetry kind invariant.  Cylindrical symmetry is continuous and
# handled analytically by rotation_error.
SYMMETRY_GROUPS = {
    "none": [np.eye(3)],
    "two_fold": [yaw_rotation(0.0), yaw_rotation(np.pi)],
    "four_fold": [yaw_rotation(k * np.pi / 2) for k in range(4)],
    "cylindrical": None,
}


class DegenerateCorrespondences(ValueError):
    """Raised when correspondences are collinear/coincident; the caller is
    expected to fall back (e.g. to the previous-frame pose)."""


def solve_pose(canonical: np.ndarray, observed: np.ndarray) -> SimilarityTransform:
    """Least-squares scale/rotation/translation mapping canonical points onto
    observed points (Umeyama 1991); both are read as (N, 3) float64.

    Uses the SVD of the cross-covariance with the determinant correction
    diag(1, 1, det(UV^T)), so the returned rotation is always proper.
    Point lists of different lengths, or of fewer than 3 points, raise
    ValueError.  Planar point sets are fine; collinear or coincident ones
    raise DegenerateCorrespondences.

    The means add each column's points in order (geom.column_means) and the
    centring subtracts them per column (geom.per_column), which reproduces
    `mean(axis=0)` and the broadcast subtraction bit for bit; TestColumnMeans
    and TestUmeyama in tests/test_columns.py pin that order.  The
    variance is numpy's pairwise sum over the centred canonical points, and
    the cross-covariance one BLAS product.
    """
    eps = 1e-9  # variance, singular value and scale below this are degenerate
    pn = np.asarray(canonical, dtype=np.float64).reshape(-1, 3)
    po = np.asarray(observed, dtype=np.float64).reshape(-1, 3)
    n = len(pn)
    if n != len(po):
        raise ValueError("point lists must have equal length")
    if n < 3:
        raise ValueError("need at least 3 correspondences")

    mu_n = column_means(pn)
    mu_o = column_means(po)
    qn = per_column(np.subtract, pn, mu_n)
    qo = per_column(np.subtract, po, mu_o)

    var_n = (qn ** 2).sum() / n
    if var_n <= eps:
        raise DegenerateCorrespondences("canonical points are coincident")

    cov = qo.T @ qn / n
    u, d, vt = np.linalg.svd(cov)
    if d[1] <= eps:
        raise DegenerateCorrespondences("correspondences are collinear")

    s = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2] = -1.0

    rot = u @ np.diag(s) @ vt
    scale = float((d * s).sum() / var_n)
    if scale <= eps:
        raise DegenerateCorrespondences("non-positive recovered scale")
    trans = mu_o - scale * rot @ mu_n
    return SimilarityTransform(scale, rot, trans)


def _geodesic_angle_deg(relative: np.ndarray) -> float:
    cos = np.clip((np.trace(relative) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


def _best_cylindrical_trace(m: np.ndarray) -> float:
    """max over yaw theta of trace(Rz(-theta) @ m)."""
    a = m[0, 0] + m[1, 1]
    b = m[1, 0] - m[0, 1]
    return float(np.hypot(a, b) + m[2, 2])


def rotation_error(pred: np.ndarray, target: np.ndarray,
                   sym: str = "none") -> float:
    """Geodesic rotation error in degrees, minimized over the symmetry group
    of the SYMMETRY_GROUPS kind `sym`."""
    if sym not in SYMMETRY_GROUPS:
        raise ValueError(f"unknown symmetry kind {sym!r}")
    if sym == "cylindrical":
        # angle(pred, target @ Rz(theta)) minimized analytically over theta
        m = target.T @ pred
        cos = np.clip((_best_cylindrical_trace(m) - 1.0) / 2.0, -1.0, 1.0)
        return float(np.degrees(np.arccos(cos)))
    return min(_geodesic_angle_deg((target @ g).T @ pred)
               for g in SYMMETRY_GROUPS[sym])

