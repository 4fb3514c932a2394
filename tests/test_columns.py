"""The column-by-column (N, 3) arithmetic against the broadcast and axis-0
formulas it replaced (column_reference.py): equal bit for bit, on random
inputs and on the per-detection inputs of a tracked sequence."""

import numpy as np
import pytest

import column_reference as ref
from canontrack import complete, experiment, pipeline
from canontrack.geom import SimilarityTransform, column_means, per_column
from canontrack.pose import DegenerateCorrespondences, solve_pose
from canontrack.synth import _ray_points
from canontrack.voxel import SparseSurfaceGrid, nearest_voxel

ROWS = [3, 1_000, 100_000]


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_transform(rng) -> SimilarityTransform:
    return SimilarityTransform(rng.uniform(0.1, 5.0), random_rotation(rng),
                               rng.normal(size=3))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def same_transform(a: SimilarityTransform, b: SimilarityTransform) -> bool:
    return (same_bits(a.scale, b.scale) and same_bits(a.rotation, b.rotation)
            and same_bits(a.translation, b.translation))


class TestColumnMeans:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_axis0_mean(self, n):
        rng = np.random.default_rng(n)
        for x in (rng.random((n, 3)), rng.normal(0.0, 1e3, (n, 3)) + 1e6):
            assert same_bits(column_means(x), x.mean(axis=0))

    def test_pairwise_column_sum_differs_on_this_input(self):
        # The rows-in-order sum is the contract: a pairwise x[:, c].sum()
        # gives other bits on this input, and column_means must not.
        x = np.random.default_rng(7).random((100_000, 3))
        pairwise = np.array([x[:, c].sum() for c in range(3)]) / len(x)
        assert not same_bits(pairwise, x.mean(axis=0))
        assert same_bits(column_means(x), x.mean(axis=0))

    def test_signed_zero_and_one_row(self):
        x = np.array([[-0.0, 1.0, -0.0], [-0.0, 2.0, 0.0]])
        for rows in (x, x[:1]):
            assert same_bits(column_means(rows), rows.mean(axis=0))


class TestPerColumn:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_broadcast(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        v = rng.normal(size=3)
        s = rng.normal(size=n)
        assert same_bits(per_column(np.add, x, v), x + v)
        assert same_bits(per_column(np.subtract, x, v), x - v)
        assert same_bits(per_column(np.subtract, v, x), v - x)
        assert same_bits(per_column(np.multiply, s[:, None], x),
                         s[:, None] * x)
        grid = x[: n - n % 3].reshape(-1, 3, 3)
        assert same_bits(per_column(np.add, v, grid), v + grid)

    def test_in_place_and_vector(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        v = rng.normal(size=3)
        want = x + v
        out = per_column(np.add, x, v, out=x)
        assert out is x and same_bits(x, want)
        assert same_bits(per_column(np.add, v, v), v + v)


class TestUmeyama:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            canonical = rng.random((n, 3))
            observed = (random_transform(rng).apply(canonical)
                        + rng.normal(0.0, 0.01, (n, 3)))
            got = solve_pose(canonical, observed)
            assert same_transform(got, ref.umeyama_solve(canonical, observed))


class TestNearestVoxel:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_reference(self, n):
        rng = np.random.default_rng(n)
        grids = [rng.random((64,) * 3) < 0.3,
                 rng.integers(0, 8, (64,) * 3, dtype=np.uint8)]
        points = rng.uniform(-0.2, 1.2, (n, 3))
        for grid in grids:
            assert same_bits(nearest_voxel(grid, points),
                             ref.nearest_voxel(grid, points))


class TestScatterCanonical:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_reference(self, n):
        rng = np.random.default_rng(n)
        for coords in (rng.random((n, 3)), rng.uniform(-0.1, 1.1, (n, 3))):
            assert same_bits(pipeline._scatter_canonical(coords),
                             ref.scatter_canonical(coords))

    def test_lattice_edges(self):
        coords = np.array([[0.0, -0.0, 1.0], [np.nextafter(1.0, 0.0)] * 3,
                           [1 / 64, 63 / 64, 0.5]])
        assert same_bits(pipeline._scatter_canonical(coords),
                         ref.scatter_canonical(coords))


class TestApply:
    @pytest.mark.parametrize("n", ROWS)
    def test_equals_reference(self, n):
        rng = np.random.default_rng(n)
        t = random_transform(rng)
        points = rng.normal(size=(n, 3))
        assert same_bits(t.apply(points), ref.apply(t, points))
        assert same_bits(t.apply(points[0]), ref.apply(t, points[0]))


class TestOtherBroadcasts:
    @pytest.mark.parametrize("n", ROWS)
    def test_equal_references(self, n):
        rng = np.random.default_rng(n)
        origin = rng.normal(size=3)
        coords = rng.integers(0, 200, (n, 3))
        surface = SparseSurfaceGrid(coords, origin, 0.04)
        assert same_bits(surface.centers(),
                         ref.surface_centers(origin, coords, 0.04))

        centers = rng.normal(size=(n, 3))
        center = rng.normal(size=3)
        got = per_column(np.subtract, center, centers)
        got /= 0.04
        assert same_bits(got, ref.center_offset(center, centers, 0.04))

        s = rng.random(n)
        dirs = rng.normal(size=(n, 3))
        assert same_bits(_ray_points(origin, s, dirs),
                         ref.ray_points(origin, s, dirs))


@pytest.fixture(scope="module")
def small_run_completions():
    """test_pipeline's small_run, tracked with each matched proposal's
    completion inputs and CompletionOutput recorded."""
    config = experiment.ExperimentConfig(
        seed=0, n_sequences=1, n_frames=5, n_objects=2, motion="slow",
        image_width=160, image_height=120)
    script = experiment.make_script(config, 0)
    data = pipeline.build_sequence_data(script, config.voxel_size)
    calls = []
    real = complete.oracle_complete

    def recording(box, template, pose, visible_voxels, cfg, rng):
        out = real(box, template, pose, visible_voxels, cfg, rng)
        calls.append((template, pose, visible_voxels, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complete, "oracle_complete", recording)
        result = pipeline.run_sequence(data, config.pipeline_config(0))
    matched = [r for r in result.detections if r.gt_object_id is not None]
    assert len(matched) == len(calls) > 0
    return list(zip(matched, calls))


class TestSmallRunInputs:
    def test_pose_and_canonical_equal_references(self, small_run_completions):
        for record, (_, _, _, out) in small_run_completions:
            assert len(out.noc) >= 3
            try:
                want = ref.umeyama_solve(out.noc, out.centers)
            except DegenerateCorrespondences:
                want = None
            if want is None:
                assert record.pred_pose is None
            else:
                assert same_transform(record.pred_pose, want)
            assert same_bits(record.canonical, ref.scatter_canonical(out.noc))
            assert same_bits(pipeline._scatter_canonical(out.noc),
                             ref.scatter_canonical(out.noc))

    def test_lookup_and_apply_equal_references(self, small_run_completions):
        for _, (template, pose, visible_voxels, out) in small_run_completions:
            inverse = pose.inverse()
            canon = inverse.apply(out.centers)
            assert same_bits(canon, ref.apply(inverse, out.centers))
            lookup = complete._lookup_codes(template.canonical_occupancy.bits,
                                            visible_voxels)
            assert same_bits(nearest_voxel(lookup, canon),
                             ref.nearest_voxel(lookup, canon))
