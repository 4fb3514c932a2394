import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canontrack.geom import (Box3, SimilarityTransform, box_iou_3d,
                             volumetric_iou, yaw_rotation)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


class TestSimilarityTransform:
    def test_identity(self):
        t = SimilarityTransform()
        assert np.allclose(t.apply([1, 2, 3]), [1, 2, 3])

    def test_pure_scaling(self):
        t = SimilarityTransform(scale=2.0)
        assert np.allclose(t.apply([1, 0, 0]), [2, 0, 0])

    def test_rotation_translation(self):
        # scale 1, 90 deg about z, then shift +x: matches a plain
        # matrix-multiply oracle
        t = SimilarityTransform(1.0, yaw_rotation(np.pi / 2), [1, 0, 0])
        p = np.array([1.0, 0.0, 0.0])
        expected = yaw_rotation(np.pi / 2) @ p + np.array([1, 0, 0])
        assert np.allclose(t.apply(p), expected)
        assert np.allclose(t.apply(p), [1, 1, 0])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        t = SimilarityTransform(1.7, random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(1000, 3))
        back = t.inverse().apply(t.apply(pts))
        assert np.abs(back - pts).max() < 1e-9

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            SimilarityTransform(rotation=np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            SimilarityTransform(scale=-1.0)

    def test_matrix_form(self):
        # apply equals the homogeneous 4x4 matrix [sR t; 0 1]
        rng = np.random.default_rng(2)
        t = SimilarityTransform(1.3, random_rotation(rng), rng.normal(size=3))
        m = np.eye(4)
        m[:3, :3] = t.scale * t.rotation
        m[:3, 3] = t.translation
        p = rng.normal(size=3)
        hom = m @ np.append(p, 1.0)
        assert np.allclose(hom[:3], t.apply(p))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 3), (1000, 3)])
    def test_apply_bitwise_equals_formula_and_keeps_input(self, shape):
        rng = np.random.default_rng(3)
        t = SimilarityTransform(rng.uniform(0.1, 5.0), random_rotation(rng),
                                rng.normal(size=3))
        p = rng.normal(size=shape)
        before = p.copy()
        want = t.scale * (p @ t.rotation.T) + t.translation
        got = t.apply(p)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert p.tobytes() == before.tobytes()


def mc_box_iou(a, b, n=2_000_000, seed=0):
    """Monte-Carlo volume-sampling oracle over the union's AABB."""
    rng = np.random.default_rng(seed)
    lo = np.minimum(a.min_corner, b.min_corner)
    hi = np.maximum(a.max_corner, b.max_corner)
    p = rng.uniform(lo, hi, size=(n, 3))
    in_a = a.contains(p)
    in_b = b.contains(p)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


class TestBoxContains:
    def test_bitwise_equal_to_the_broadcast_formula(self):
        # Per-column comparison gives the bools of the (N, 3) broadcast it
        # replaced, faces included, on every corner, edge and face point of
        # the box, one float step outside each, and rows holding a NaN.
        box = Box3([0.1, -0.3, 0.7], [0.4, 1.3, 0.9])
        lo, hi = box.min_corner, box.max_corner
        steps = [lo, np.nextafter(lo, -np.inf), box.center,
                 hi, np.nextafter(hi, np.inf)]
        axes = [[s[d] for s in steps] for d in range(3)]
        p = np.array(list(itertools.product(*axes)))
        nan_rows = np.tile(box.center, (3, 1))
        nan_rows[np.arange(3), np.arange(3)] = np.nan
        p = np.vstack([p, nan_rows])

        def broadcast(points):
            return np.all((points >= lo) & (points <= hi), axis=-1)

        got = box.contains(p)
        assert got.dtype == bool and got.shape == (len(p),)
        assert got.tobytes() == broadcast(p).tobytes()
        assert 0 < np.count_nonzero(got) < len(p)
        assert not got[-3:].any()
        for point in (box.center, lo, hi, np.nextafter(hi, np.inf)):
            assert box.contains(point) == broadcast(point)
            assert np.shape(box.contains(point)) == ()


class TestBoxIou:
    def test_identical(self):
        a = Box3([0, 0, 0], [1, 1, 1])
        assert box_iou_3d(a, a) == 1.0

    def test_disjoint(self):
        a = Box3([0, 0, 0], [1, 1, 1])
        b = Box3([5, 0, 0], [1, 1, 1])
        assert box_iou_3d(a, b) == 0.0

    def test_half_overlap(self):
        a = Box3([0, 0, 0], [2, 2, 2])
        b = Box3([1, 0, 0], [2, 2, 2])
        assert box_iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert mc_box_iou(a, b) == pytest.approx(1 / 3, abs=1e-3)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = Box3(rng.normal(size=3), rng.uniform(0.1, 2, 3))
        b = Box3(rng.normal(size=3), rng.uniform(0.1, 2, 3))
        assert box_iou_3d(a, b) == box_iou_3d(b, a)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = Box3(rng.normal(size=3), rng.uniform(0.1, 2, 3))
        b = Box3(rng.normal(size=3), rng.uniform(0.1, 2, 3))
        shift = rng.normal(size=3)
        a2 = Box3(a.center + shift, a.extents)
        b2 = Box3(b.center + shift, b.extents)
        assert abs(box_iou_3d(a, b) - box_iou_3d(a2, b2)) < 1e-12


class TestVolumetricIou:
    def test_identical_nonempty(self):
        g = np.zeros((4, 4, 4), dtype=bool)
        g[1:3, 1:3, 1:3] = True
        assert volumetric_iou(g, g) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert volumetric_iou(a, b) == 0.0

    def test_both_empty_is_zero(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        assert volumetric_iou(z, z) == 0.0

    def test_partial_overlap(self):
        # a: 8-voxel cube; b: half of it (4) plus 4 voxels outside
        a = np.zeros((6, 6, 6), dtype=bool)
        a[0:2, 0:2, 0:2] = True
        b = np.zeros((6, 6, 6), dtype=bool)
        b[0:2, 0:2, 0:1] = True  # 4 shared
        b[4:6, 4:6, 4:5] = True  # 4 outside
        # voxel-count oracle: 4 / (8 + 8 - 4)
        inter = np.count_nonzero(a & b)
        union = np.count_nonzero(a | b)
        assert (inter, union) == (4, 12)
        assert volumetric_iou(a, b) == pytest.approx(4 / 12)

    def test_non_bool_grids_rejected(self):
        g = np.zeros((2, 2, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="bool"):
            volumetric_iou(g, g.astype(bool))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            volumetric_iou(np.zeros((2, 2, 2), bool), np.zeros((3, 3, 3), bool))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((5, 5, 5)) > 0.6
        b = rng.random((5, 5, 5)) > 0.6
        assert volumetric_iou(a, b) == volumetric_iou(b, a)
