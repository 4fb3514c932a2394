import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from canontrack.geom import SimilarityTransform, rotation_x, yaw_rotation
from canontrack.pose import (CorrespondenceSet, DegenerateCorrespondences,
                             SymmetryClass, rotation_error,
                             solve_pose, umeyama_solve)


def random_transform(rng, scale_range=(0.3, 3.0)):
    rot = Rotation.random(random_state=np.random.RandomState(
        rng.integers(2 ** 31))).as_matrix()
    return SimilarityTransform(rng.uniform(*scale_range), rot,
                               rng.normal(scale=2.0, size=3))


def assert_transforms_close(a, b, tol=1e-9):
    assert abs(a.scale - b.scale) < tol
    assert np.abs(a.rotation - b.rotation).max() < tol
    assert np.abs(a.translation - b.translation).max() < tol


class TestUmeyama:
    def test_identity(self):
        pts = np.random.default_rng(0).random((20, 3))
        t = solve_pose(pts, pts)
        assert_transforms_close(t, SimilarityTransform())

    def test_pure_translation(self):
        pts = np.random.default_rng(1).random((20, 3))
        t = solve_pose(pts, pts + np.array([1.0, -2.0, 3.0]))
        assert_transforms_close(
            t, SimilarityTransform(1.0, np.eye(3), [1.0, -2.0, 3.0]))

    def test_known_yaw(self):
        pts = np.random.default_rng(2).random((20, 3))
        gt = SimilarityTransform(2.0, yaw_rotation(0.7), [0.1, 0.2, 0.3])
        assert_transforms_close(solve_pose(pts, gt.apply(pts)), gt)

    def test_random_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gt = random_transform(rng)
            pts = rng.random((int(rng.integers(4, 60)), 3))
            est = solve_pose(pts, gt.apply(pts))
            assert_transforms_close(est, gt, tol=1e-9)

    def test_planar_points_ok(self):
        # a planar (rank-2) set still determines the pose
        rng = np.random.default_rng(4)
        pts = rng.random((30, 3))
        pts[:, 2] = 0.25
        gt = random_transform(rng)
        assert_transforms_close(solve_pose(pts, gt.apply(pts)), gt, tol=1e-8)

    def test_collinear_degenerate(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateCorrespondences):
            solve_pose(pts, pts + 1.0)

    def test_coincident_degenerate(self):
        pts = np.ones((5, 3)) * 0.5
        with pytest.raises(DegenerateCorrespondences):
            solve_pose(pts, pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_reflection_trap(self):
        """A near-mirrored target must still yield a proper rotation that is
        globally optimal over SO(3), verified against a dense rotation grid."""
        rng = np.random.default_rng(5)
        pts = rng.random((12, 3))
        # mirror across x: an improper map the solver must not reproduce
        observed = pts * np.array([-1.0, 1.0, 1.0])
        est = umeyama_solve(CorrespondenceSet(pts, observed))
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)

        def residual(scale, rot, trans):
            return np.sum((scale * pts @ rot.T + trans - observed) ** 2)

        best = residual(est.scale, est.rotation, est.translation)
        # grid search over SO(3): for each sampled rotation the optimal
        # scale/translation are closed-form, so this bounds the true optimum
        mu_n = pts.mean(axis=0)
        mu_o = observed.mean(axis=0)
        qn = pts - mu_n
        qo = observed - mu_o
        var_n = (qn ** 2).sum() / len(pts)
        grid = Rotation.random(20000, random_state=0).as_matrix()
        for rot in grid:
            s = max(np.trace(rot.T @ (qo.T @ qn / len(pts))) / var_n, 1e-9)
            t = mu_o - s * rot @ mu_n
            assert residual(s, rot, t) >= best - 1e-9

    def test_least_squares_under_noise(self):
        # with zero-mean noise the estimate stays near the generating pose
        rng = np.random.default_rng(6)
        gt = random_transform(rng, scale_range=(0.9, 1.1))
        pts = rng.random((5000, 3))
        noisy = gt.apply(pts) + rng.normal(0, 0.01, (5000, 3))
        est = solve_pose(pts, noisy)
        assert abs(est.scale - gt.scale) < 0.01
        assert rotation_error(est.rotation, gt.rotation) < 1.0
        assert np.linalg.norm(est.translation - gt.translation) < 0.01

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_equivariance(self, seed):
        """Pre-composing the observations with a rigid transform post-composes
        the solution."""
        rng = np.random.default_rng(seed)
        pts = rng.random((15, 3))
        gt = random_transform(rng)
        extra = random_transform(rng)
        est1 = solve_pose(pts, gt.apply(pts))
        est2 = solve_pose(pts, extra.apply(gt.apply(pts)))
        p = rng.normal(size=(10, 3))
        assert np.abs(est2.apply(p) - extra.apply(est1.apply(p))).max() < 1e-7


class TestRotationError:
    def test_zero(self):
        assert rotation_error(np.eye(3), np.eye(3)) == 0.0

    def test_ninety(self):
        assert rotation_error(yaw_rotation(np.pi / 2), np.eye(3)) == \
            pytest.approx(90.0, abs=1e-9)

    def test_two_fold_forgives_pi(self):
        r = yaw_rotation(np.pi)
        assert rotation_error(r, np.eye(3), "two_fold") == pytest.approx(0.0, abs=1e-6)
        assert rotation_error(r, np.eye(3), "none") == pytest.approx(180.0, abs=1e-6)

    def test_four_fold_forgives_quarter_turns(self):
        for k in range(4):
            r = yaw_rotation(k * np.pi / 2)
            assert rotation_error(r, np.eye(3), "four_fold") == \
                pytest.approx(0.0, abs=1e-6)
        # a 45 degree yaw is maximally far from the four-fold group
        assert rotation_error(yaw_rotation(np.pi / 4), np.eye(3), "four_fold") \
            == pytest.approx(45.0, abs=1e-6)

    def test_cylindrical_forgives_any_yaw(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = yaw_rotation(rng.uniform(0, 2 * np.pi))
            assert rotation_error(r, np.eye(3), "cylindrical") < 1e-6

    def test_cylindrical_tilt_remains(self):
        # a pure tilt about x cannot be absorbed by yaw
        r = rotation_x(np.radians(30.0))
        err = rotation_error(r, np.eye(3), "cylindrical")
        assert err == pytest.approx(30.0, abs=1e-6)

    def test_cylindrical_matches_numeric_minimum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pred = Rotation.random(random_state=np.random.RandomState(
                rng.integers(2 ** 31))).as_matrix()
            target = Rotation.random(random_state=np.random.RandomState(
                rng.integers(2 ** 31))).as_matrix()
            analytic = rotation_error(pred, target, "cylindrical")
            thetas = np.linspace(0, 2 * np.pi, 20001)
            numeric = min(
                rotation_error(pred, target @ yaw_rotation(t)) for t in thetas
            )
            assert analytic == pytest.approx(numeric, abs=1e-3)

    def test_unknown_symmetry(self):
        with pytest.raises(ValueError):
            SymmetryClass("five_fold")

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_never_increases_error(self, seed):
        rng = np.random.default_rng(seed)
        pred = Rotation.random(random_state=np.random.RandomState(
            seed)).as_matrix()
        target = Rotation.random(random_state=np.random.RandomState(
            seed + 1)).as_matrix()
        base = rotation_error(pred, target, "none")
        for sym in ("two_fold", "four_fold", "cylindrical"):
            assert rotation_error(pred, target, sym) <= base + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_in_arguments(self, seed):
        pred = Rotation.random(random_state=np.random.RandomState(
            seed)).as_matrix()
        target = Rotation.random(random_state=np.random.RandomState(
            seed + 1)).as_matrix()
        assert rotation_error(pred, target) == \
            pytest.approx(rotation_error(target, pred), abs=1e-9)
