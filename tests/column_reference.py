"""Test reference for the per-point (N, 3) arithmetic: the broadcast and
axis-0 formulas that the column-by-column code replaced, kept verbatim.  The
package must reproduce each of them bit for bit."""

import numpy as np

from canontrack.geom import SimilarityTransform
from canontrack.pose import DegenerateCorrespondences
from canontrack.voxel import OBJECT_RESOLUTION


def umeyama_solve(canonical: np.ndarray,
                  observed: np.ndarray) -> SimilarityTransform:
    """pose.solve_pose with `mean(axis=0)` means and broadcast centring."""
    eps = 1e-9
    pn = np.asarray(canonical, dtype=np.float64).reshape(-1, 3)
    po = np.asarray(observed, dtype=np.float64).reshape(-1, 3)
    n = len(pn)

    mu_n = pn.mean(axis=0)
    mu_o = po.mean(axis=0)
    qn = pn - mu_n
    qo = po - mu_o

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


def nearest_voxel(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """voxel.nearest_voxel masking the floored (..., 3) coordinates."""
    res = grid.shape[0]
    idx = points * res
    np.floor(idx, out=idx)
    i, j, k = idx[..., 0], idx[..., 1], idx[..., 2]
    ok = (i >= 0) & (i < res) & (j >= 0) & (j < res) & (k >= 0) & (k < res)
    flat = ((i * res + j) * res + k)[ok].astype(np.int64)
    out = np.zeros(points.shape[:-1] + grid.shape[3:], dtype=grid.dtype)
    out[ok] = grid.reshape((res ** 3,) + grid.shape[3:]).take(flat, axis=0)
    return out


def scatter_canonical(coords: np.ndarray) -> np.ndarray:
    """pipeline._scatter_canonical by three fancy-index arrays."""
    grid = np.zeros((OBJECT_RESOLUTION,) * 3, dtype=bool)
    idx = np.clip(np.floor(coords * OBJECT_RESOLUTION).astype(np.int64),
                  0, OBJECT_RESOLUTION - 1)
    grid[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return grid


def apply(transform: SimilarityTransform, points) -> np.ndarray:
    """SimilarityTransform.apply with a broadcast translation."""
    out = np.asarray(points, dtype=np.float64) @ transform.rotation.T
    out *= transform.scale
    out += transform.translation
    return out


def surface_centers(origin: np.ndarray, coords: np.ndarray,
                    voxel_size: float) -> np.ndarray:
    """voxel.SparseSurfaceGrid.centers."""
    return origin + (coords + 0.5) * voxel_size


def center_offset(center: np.ndarray, centers: np.ndarray,
                  voxel_size: float) -> np.ndarray:
    """The center target of detect.make_oracle_fields, in voxels."""
    return (center - centers) / voxel_size


def ray_points(origin_c: np.ndarray, s: np.ndarray,
               dirs: np.ndarray) -> np.ndarray:
    """The ray samples of synth._raycast_object."""
    return origin_c[None, :] + s[:, None] * dirs
