import warnings

import numpy as np
import pytest

from canontrack.geom import Box3, SimilarityTransform
from canontrack.voxel import (CameraIntrinsics, DenseTsdfGrid, extract_surface,
                              fuse_depth_frame, nearest_voxel)


def reference_nearest_voxel(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The lookup by a per-axis gather, kept to pin the flat-indexed one."""
    res = grid.shape[0]
    idx = np.floor(points * res).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < res), axis=-1)
    out = np.zeros(points.shape[:-1], dtype=grid.dtype)
    ii = idx[ok]
    out[ok] = grid[ii[:, 0], ii[:, 1], ii[:, 2]]
    return out


def empty_grid(origin, voxel_size, dims):
    return DenseTsdfGrid(np.array(origin, dtype=np.float64), voxel_size,
                         np.zeros(dims), np.zeros(dims))


def flat_wall_setup(wall_z=1.01, voxel_size=0.05):
    """Camera at the origin looking down +z at an infinite wall: every pixel's
    depth is the wall distance, so the expected TSDF is analytic."""
    f = 64 / (2.0 * np.tan(np.radians(40.0) / 2.0))  # 40 degree field of view
    intr = CameraIntrinsics(f, f, 32.0, 24.0, 64, 48)
    depth = np.full((intr.height, intr.width), wall_z)
    cam = SimilarityTransform(1.0, np.eye(3), np.zeros(3))  # camera == world
    grid = empty_grid([-0.3, -0.3, 0.5], voxel_size, (12, 12, 16))
    return depth, intr, cam, grid


class TestFusion:
    def test_flat_wall_sdf_values(self):
        depth, intr, cam, grid = flat_wall_setup()
        fused = fuse_depth_frame(depth, intr, cam, grid)
        tau = grid.truncation
        centers = grid.voxel_centers()
        seen = fused.weights > 0
        assert seen.any()
        # free-space positive: sdf = wall_z - voxel_z, clipped to +-tau
        expected = np.clip(1.01 - centers[..., 2], -tau, tau)
        assert np.abs(fused.values[seen] - expected[seen]).max() < 1e-9

    def test_far_behind_surface_unobserved(self):
        depth, intr, cam, grid = flat_wall_setup(wall_z=0.6)
        fused = fuse_depth_frame(depth, intr, cam, grid)
        centers = grid.voxel_centers()
        far_behind = centers[..., 2] > 0.6 + grid.truncation + 1e-9
        # the wall occludes everything deeper than one truncation band
        assert far_behind.any()
        assert not fused.weights[far_behind].any()

    def test_fuses_into_the_given_grid(self):
        depth, intr, cam, grid = flat_wall_setup()
        assert fuse_depth_frame(depth, intr, cam, grid) is grid
        assert grid.weights.any()

    def test_weight_accumulation_and_average(self):
        depth, intr, cam, grid = flat_wall_setup()
        once = fuse_depth_frame(depth, intr, cam, grid)
        seen = once.weights > 0
        once_values = once.values[seen].copy()
        depth2 = depth + 0.02
        twice = fuse_depth_frame(depth2, intr, cam, once)
        assert np.all(twice.weights[seen] == 2.0)
        # running average of the two observations
        assert np.abs(
            twice.values[seen] - (once_values
                                  + np.clip(once_values + 0.02,
                                            -grid.truncation, grid.truncation)
                                  ) / 2.0
        ).max() < 1e-9

    def test_order_independence(self):
        depth, intr, cam, grid_a = flat_wall_setup()
        grid_b = flat_wall_setup()[3]
        depth2 = depth + 0.02
        ab = fuse_depth_frame(depth2, intr, cam,
                              fuse_depth_frame(depth, intr, cam, grid_a))
        ba = fuse_depth_frame(depth, intr, cam,
                              fuse_depth_frame(depth2, intr, cam, grid_b))
        assert np.abs(ab.values - ba.values).max() < 1e-12
        assert np.array_equal(ab.weights, ba.weights)

    def test_zero_depth_is_invalid(self):
        depth, intr, cam, grid = flat_wall_setup()
        depth[:] = 0.0
        fused = fuse_depth_frame(depth, intr, cam, grid)
        assert not fused.weights.any()


class TestExtractSurface:
    def test_band_selects_thin_shell(self):
        depth, intr, cam, grid = flat_wall_setup()
        fused = fuse_depth_frame(depth, intr, cam, grid)
        surf = extract_surface(fused, band=0.5 * grid.voxel_size)
        centers = surf.centers()
        # |wall_z - z| < 0.5 voxel
        assert len(surf) > 0
        assert np.abs(centers[:, 2] - 1.01).max() < 0.5 * grid.voxel_size

    def test_wider_band(self):
        depth, intr, cam, grid = flat_wall_setup()
        fused = fuse_depth_frame(depth, intr, cam, grid)
        narrow = extract_surface(fused, band=0.5 * grid.voxel_size)
        wide = extract_surface(fused, band=grid.voxel_size)
        assert len(wide) > len(narrow)
        assert np.abs(wide.centers()[:, 2] - 1.01).max() < grid.voxel_size

    def test_unobserved_voxels_excluded(self):
        grid = empty_grid([0, 0, 0], 0.05, (4, 4, 4))
        # values are zero everywhere, but nothing was observed
        assert len(extract_surface(grid, band=0.5 * grid.voxel_size)) == 0


class TestLattice:
    def test_voxel_centers_match_meshgrid_formula(self):
        for dims in [(1, 1, 1), (3, 5, 7), (7, 1, 3)]:
            grid = empty_grid([-1.3, 0.7, 2.1], 0.037, dims)
            idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims],
                                       indexing="ij"), axis=-1)
            want = grid.origin + (idx + 0.5) * grid.voxel_size
            got = grid.voxel_centers()
            assert got.shape == dims + (3,) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_nearest_voxel(self):
        grid = np.arange(8).reshape(2, 2, 2)
        points = np.array([[0.1, 0.1, 0.9], [0.99, 0.6, 0.5],
                           [-0.01, 0.5, 0.5], [0.5, 0.5, 1.0]])
        assert nearest_voxel(grid, points).tolist() == [1, 7, 0, 0]

    def test_nearest_voxel_nan_reads_zero_without_warning(self):
        grid = np.ones((4, 4, 4), dtype=np.uint8)
        points = np.array([[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5],
                           [0.5, 0.5, np.nan], [np.nan] * 3, [0.5] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_voxel(grid, points)
        assert got.tolist() == [0, 0, 0, 0, 1]

    def test_nearest_voxel_cube_faces(self):
        grid = np.ones((4, 4, 4), dtype=np.uint8)
        below_zero = np.nextafter(0.0, -1.0)
        inside = [0.0, -0.0, 0.5, np.nextafter(1.0, 0.0)]
        outside = [1.0, below_zero]
        for c in range(3):
            for value, want in [(v, 1) for v in inside] + \
                               [(v, 0) for v in outside]:
                point = np.full(3, 0.5)
                point[c] = value
                assert nearest_voxel(grid, point) == want, (c, value)

    def test_nearest_voxel_shapes(self):
        rng = np.random.default_rng(0)
        grid = rng.integers(1, 9, (4, 4, 4))
        one = nearest_voxel(grid, np.array([0.1, 0.3, 0.9]))
        assert one.shape == () and one == grid[0, 1, 3]
        assert nearest_voxel(grid, np.zeros((0, 3))).shape == (0,)
        points = rng.uniform(-0.5, 1.5, (6, 5, 3))
        got = nearest_voxel(grid, points)
        assert got.shape == (6, 5)
        for a in range(6):
            for b in range(5):
                idx = np.floor(points[a, b] * 4).astype(int)
                if np.all((idx >= 0) & (idx < 4)):
                    assert got[a, b] == grid[tuple(idx)]
                else:
                    assert got[a, b] == 0

    @pytest.mark.parametrize("res", [1, 2, 5, 64])
    def test_nearest_voxel_matches_reference(self, res):
        rng = np.random.default_rng(res)
        below_one = np.nextafter(1.0, 0.0)
        edges = np.array([0.0, 1.0, below_one, -1e-300, -0.5, 1e12, -1e12,
                          0.5 / res, 1.0 / res])
        points = np.concatenate([
            rng.uniform(-0.5, 1.5, (500, 3)),
            rng.choice(edges, (300, 3)),
            np.stack(np.meshgrid(edges, edges, edges), axis=-1).reshape(-1, 3),
        ])
        grids = [rng.random((res,) * 3) < 0.5,
                 rng.integers(-9, 9, (res,) * 3),
                 rng.random((res,) * 3)]
        odd = np.array([[np.inf, 0.5, 0.5], [np.nan, 0.5, 0.5],
                        [-np.inf, np.inf, 0.2], [1e306, 0.1, 0.1]])
        for grid in grids:
            for pts in (points, points[:200].reshape(40, 5, 3), points[7],
                        points[-1], odd):
                with np.errstate(all="ignore"):
                    got = nearest_voxel(grid, pts)
                    want = reference_nearest_voxel(grid, pts)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestTruncation:
    @pytest.mark.parametrize("voxel_size", [0.05, 0.04])
    def test_three_voxels_for_bounds_and_fused(self, voxel_size):
        bounds = Box3([0.0, 0.0, 1.0], [0.7, 0.5, 0.9])
        grid = DenseTsdfGrid.for_bounds(bounds, voxel_size)
        assert grid.dims == tuple(np.ceil(bounds.extents / voxel_size))
        assert grid.origin.tobytes() == bounds.min_corner.tobytes()
        assert not grid.weights.any() and not grid.values.any()
        depth, intr, cam, _ = flat_wall_setup()
        fused = fuse_depth_frame(depth, intr, cam, grid)
        assert fused.weights.any()
        assert grid.truncation == 3.0 * voxel_size
        assert fused.truncation == 3.0 * voxel_size
        with pytest.raises(AttributeError):
            grid.truncation = 0.1

