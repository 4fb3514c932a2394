"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(bypassing pytest's capture) so the whole checklist is visible in any run.
"""

import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation
from scipy.stats import spearmanr

from canontrack import experiment, pipeline, synth
from canontrack.geom import Box3, box_iou_3d, volumetric_iou
from canontrack.metrics import TrackRecord, mota
from canontrack.pose import solve_pose
from canontrack.track import hungarian
from canontrack.voxel import DenseTsdfGrid, extract_surface, fuse_depth_frame


_capman = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(line):
    # pytest captures at the file-descriptor level, so even sys.__stdout__
    # is redirected; suspend capture to get the line onto the real stdout.
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {num:2d} FAIL  {name}")
        raise
    _announce(f"ACCEPTANCE {num:2d} PASS  {name}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_umeyama_exactness():
    with criterion(1, "similarity solve: 1000 noise-free sets, errors < 1e-9, "
                      "< 1 s"):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(1000):
            n = int(rng.integers(3, 201))
            pts = rng.random((n, 3))
            rot = Rotation.random(
                random_state=np.random.RandomState(rng.integers(2 ** 31))
            ).as_matrix()
            scale = rng.uniform(0.5, 2.0)
            trans = rng.normal(size=3)
            obs = scale * pts @ rot.T + trans
            cases.append((pts, obs, scale, rot, trans))

        start = time.monotonic()
        solved = [solve_pose(p, o) for p, o, _, _, _ in cases]
        elapsed = time.monotonic() - start

        for est, (_, _, scale, rot, trans) in zip(solved, cases):
            assert np.linalg.norm(est.rotation - rot) < 1e-9
            assert abs(est.scale - scale) / scale < 1e-9
            assert np.linalg.norm(est.translation - trans) < 1e-9
        assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

def brute_force_cost(cost):
    r, c = cost.shape
    if r <= c:
        return min(sum(cost[i, p[i]] for i in range(r))
                   for p in itertools.permutations(range(c), r))
    return min(sum(cost[p[j], j] for j in range(c))
               for p in itertools.permutations(range(r), c))


def test_criterion_02_hungarian_optimality():
    with criterion(2, "assignment cost equals exhaustive search on 500 "
                      "matrices up to 7x7"):
        rng = np.random.default_rng(1)
        for _ in range(500):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
            cost = rng.random((r, c))
            pairs = hungarian(cost)
            assert len(pairs) == min(r, c)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_cost(cost), abs=1e-12)


# ---------------------------------------------------------------- criterion 3

def inside(box, p):
    """Whether each row of the (N, 3) points p lies in box, faces included;
    compared per column, which makes no (N, 3) temporaries."""
    lo, hi = box.min_corner, box.max_corner
    out = (p[:, 0] >= lo[0]) & (p[:, 0] <= hi[0])
    for d in (1, 2):
        out &= (p[:, d] >= lo[d]) & (p[:, d] <= hi[d])
    return out


def test_criterion_03_iou_oracles():
    with criterion(3, "volumetric IoU exact vs counting, box IoU within 1e-3 "
                      "of Monte-Carlo, 100 cases each"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.random((6, 6, 6)) > 0.6
            b = rng.random((6, 6, 6)) > 0.6
            inter = union = 0
            for i in range(6):
                for j in range(6):
                    for k in range(6):
                        inter += a[i, j, k] and b[i, j, k]
                        union += a[i, j, k] or b[i, j, k]
            expected = inter / union if union else 0.0
            assert volumetric_iou(a, b) == expected

        rng = np.random.default_rng(0)
        for _ in range(100):
            a = Box3(rng.normal(0, 0.3, 3), rng.uniform(0.5, 1.5, 3))
            b = Box3(a.center + rng.normal(0, 0.4, 3),
                     rng.uniform(0.5, 1.5, 3))
            lo = np.minimum(a.min_corner, b.min_corner)
            hi = np.maximum(a.max_corner, b.max_corner)
            p = rng.uniform(lo, hi, size=(4_000_000, 3))
            in_a = inside(a, p)
            in_b = inside(b, p)
            n_union = np.count_nonzero(in_a | in_b)
            mc = np.count_nonzero(in_a & in_b) / n_union if n_union else 0.0
            assert abs(box_iou_3d(a, b) - mc) < 1e-3


# ---------------------------------------------------------------- criterion 4

def rec(tid, x):
    return TrackRecord(tid, [x, 0.0, 0.0])


def test_criterion_04_mota_hand_count_suite():
    with criterion(4, "10 scripted MOTA scenarios match hand-computed values "
                      "exactly"):
        scenarios = [
            # 1. perfect tracking: 0 errors over 6 gt
            ({f: [rec(0, 0.0), rec(1, 2.0)] for f in range(3)},
             {f: [rec(10, 0.0), rec(11, 2.0)] for f in range(3)},
             1.0),
            # 2. nothing predicted: 3 misses / 3 gt
            ({f: [rec(0, 0.0)] for f in range(3)}, {}, 0.0),
            # 3. one identity switch in 3 frames: 1 mismatch / 3 gt
            ({f: [rec(0, 0.0)] for f in range(3)},
             {0: [rec(10, 0.0)], 1: [rec(10, 0.0)], 2: [rec(11, 0.0)]},
             1.0 - 1.0 / 3.0),
            # 4. persistent extra prediction: 3 false positives / 3 gt
            ({f: [rec(0, 0.0)] for f in range(3)},
             {f: [rec(10, 0.0), rec(11, 50.0)] for f in range(3)},
             0.0),
            # 5. center distance just inside the 0.25 m gate: clean match
            ({f: [rec(0, 0.0)] for f in range(2)},
             {f: [rec(10, 0.25 - 1e-6)] for f in range(2)},
             1.0),
            # 6. just outside the gate: a miss and a FP per frame
            ({f: [rec(0, 0.0)] for f in range(2)},
             {f: [rec(10, 0.25 + 1e-6)] for f in range(2)},
             -1.0),
            # 7. existing in-gate correspondence persists over a closer
            #    newcomer: the newcomer is 1 FP / 2 gt
            ({0: [rec(0, 0.0)], 1: [rec(0, 0.0)]},
             {0: [rec(10, 0.05)], 1: [rec(10, 0.2), rec(11, 0.01)]},
             0.5),
            # 8. two predictions swap places across two gt: 2 mismatches / 4
            ({0: [rec(0, 0.0), rec(1, 1.0)], 1: [rec(0, 0.0), rec(1, 1.0)]},
             {0: [rec(10, 0.0), rec(11, 1.0)],
              1: [rec(10, 1.0), rec(11, 0.0)]},
             0.5),
            # 9. one-frame dropout, same id resumes: 1 miss / 3, no mismatch
            ({f: [rec(0, 0.0)] for f in range(3)},
             {0: [rec(10, 0.0)], 2: [rec(10, 0.0)]},
             1.0 - 1.0 / 3.0),
            # 10. reacquired under a new id after a gap: 1 miss + 1 mismatch
            ({f: [rec(0, 0.0)] for f in range(4)},
             {0: [rec(10, 0.0)], 1: [rec(10, 0.0)], 3: [rec(11, 0.0)]},
             0.5),
        ]
        for i, (gt, pred, expected) in enumerate(scenarios, 1):
            got = mota(pred, gt).mota
            assert got == pytest.approx(expected, abs=1e-12), \
                f"scenario {i}: {got} != {expected}"


# ------------------------------------------------------ criteria 5-7 fixtures

STRESS_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="session")
def stress_suite():
    """20 fast-motion sequences with moderate oracle noise, rendered once and
    reused for every completion-fraction run."""
    config = experiment.ExperimentConfig(
        seed=2026, n_sequences=20, n_frames=20, n_objects=2,
        motion="fast", jump_period=3,
        image_width=160, image_height=120,
        noc_noise=0.01, occupancy_flip_rate=0.02,
        detector_center_jitter=0.5, detector_extent_jitter=0.5,
        detector_flip_rate=0.01,
    )
    start = time.monotonic()
    datas = []
    for sid in range(config.n_sequences):
        script = experiment.make_script(config, sid)
        datas.append(pipeline.build_sequence_data(script, config.voxel_size))
    build_time = time.monotonic() - start

    scores = {}
    run_times = {}
    for f in STRESS_FRACTIONS:
        cfg = replace(config, completion_fraction=f)
        t0 = time.monotonic()
        per_seq = []
        for sid, data in enumerate(datas):
            result = pipeline.run_sequence(data, cfg.pipeline_config(sid))
            per_seq.append(experiment.score_sequence(result, cfg))
        run_times[f] = time.monotonic() - t0
        scores[f] = per_seq

    return SimpleNamespace(config=config, datas=datas, build_time=build_time,
                           scores=scores, run_times=run_times)


def mean_mota(scores):
    return float(np.mean([s["mota"] for s in scores]))


def visible_overlap_fraction_low(gt_frames,
                                 voxel_size: float = 0.05) -> float:
    """Fraction of frame transitions where some object's visible geometry
    (posed visible voxels, quantized to a world lattice) overlaps the
    previous frame's with IoU below 0.3."""
    low = 0
    total = 0
    for prev, cur in zip(gt_frames, gt_frames[1:]):
        frame_low = False
        for po, co in zip(prev.objects, cur.objects):
            cells = []
            for o in (po, co):
                res = o.template.canonical_occupancy.dims[0]
                w = o.pose.apply((o.visible_voxels + 0.5) / res)
                cells.append(np.floor(w / voxel_size).astype(np.int64))
            # one integer key per lattice cell over the pair's joint span
            both = np.concatenate(cells)
            lo = both.min(axis=0, initial=0)  # initial: a pair may show nothing
            dims = both.max(axis=0, initial=0) - lo + 1
            a, b = (np.unique(np.ravel_multi_index((c - lo).T, dims))
                    for c in cells)
            common = len(np.intersect1d(a, b, assume_unique=True))
            union = len(a) + len(b) - common
            iou = common / union if union else 0.0
            if iou < 0.3:
                frame_low = True
        total += 1
        if frame_low:
            low += 1
    return low / total if total else 0.0


def test_criterion_05_completion_improves_mota(stress_suite):
    with criterion(5, "stress suite (20 fast sequences): completed geometry "
                      "lifts mean MOTA by >= 0.03 within the time budget"):
        low = total = 0.0
        for data in stress_suite.datas:
            n = len(data.gt_frames) - 1
            frac = visible_overlap_fraction_low(
                data.gt_frames, stress_suite.config.voxel_size)
            low += frac * n
            total += n
        assert low / total >= 0.30  # the motion model forces hard transitions

        gap = mean_mota(stress_suite.scores[1.0]) - \
            mean_mota(stress_suite.scores[0.0])
        assert gap >= 0.03
        elapsed = stress_suite.build_time + stress_suite.run_times[0.0] + \
            stress_suite.run_times[1.0]
        assert elapsed < 600.0


def test_criterion_06_completion_improves_pose(stress_suite):
    with criterion(6, "median rotation error with completion <= without; "
                      "both < 15 deg"):
        def med_rot(scores):
            vals = [s["median_rotation_error_deg"] for s in scores
                    if s["median_rotation_error_deg"] is not None]
            return float(np.median(vals))

        with_completion = med_rot(stress_suite.scores[1.0])
        without = med_rot(stress_suite.scores[0.0])
        assert with_completion <= without
        assert with_completion < 15.0
        assert without < 15.0


def test_criterion_07_completion_quality_tracks_mota(stress_suite):
    with criterion(7, "5-point completion sweep: Spearman(completion IoU, "
                      "MOTA) > 0.8"):
        ious = [float(np.mean([s["mean_completion_iou"] for s in
                               stress_suite.scores[f]]))
                for f in STRESS_FRACTIONS]
        motas = [mean_mota(stress_suite.scores[f]) for f in STRESS_FRACTIONS]
        rho = spearmanr(ious, motas).statistic
        assert rho > 0.8


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_noise_free_perfect_tracking():
    with criterion(8, "noise-free slow motion: MOTA exactly 1.0 and zero "
                      "identity switches on every sequence"):
        config = experiment.ExperimentConfig(
            seed=7, n_sequences=4, n_frames=10, n_objects=2, motion="slow",
            image_width=160, image_height=120,
        )
        for sid in range(config.n_sequences):
            script = experiment.make_script(config, sid)
            data = pipeline.build_sequence_data(script, config.voxel_size)
            result = pipeline.run_sequence(data, config.pipeline_config(sid))
            scores = experiment.score_sequence(result, config)
            assert scores["mota"] == 1.0
            assert scores["mota_breakdown"]["mismatches"] == 0


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_tsdf_round_trip():
    with criterion(9, "8-view TSDF fusion: >= 95% of surface voxels within "
                      "one voxel of the true surface"):
        template = synth.make_template("cylinder", [0.6, 0.6, 0.6])
        pose = synth.object_pose(template, [0.0, 0.0], 0.0)
        intr = synth.default_intrinsics(240, 180)
        cams = [
            synth.look_at(
                [2.5 * np.cos(2 * np.pi * k / 8),
                 2.5 * np.sin(2 * np.pi * k / 8), 1.5],
                [0.0, 0.0, 0.3],
            )
            for k in range(8)
        ]
        script = synth.SceneScript(
            templates=[template],
            object_poses=[[pose]] * 8,
            camera_poses=cams,
            intrinsics=intr,
            scene_bounds=Box3([0, 0, 0.3], [2.0, 2.0, 1.2]),
            include_floor=False,
        )
        voxel_size = 0.05
        grid = DenseTsdfGrid.for_bounds(script.scene_bounds, voxel_size)
        for f in range(8):
            depth, _ = synth.render_frame(script, f)
            grid = fuse_depth_frame(depth, intr, cams[f], grid)
        surf = extract_surface(grid)
        assert len(surf) > 100

        # analytic distance to the capped cylinder (radius 0.3 m, z in
        # [0, 0.6], axis through the origin)
        p = surf.centers()
        dr = np.hypot(p[:, 0], p[:, 1]) - 0.3
        dz = np.maximum(-p[:, 2], p[:, 2] - 0.6)
        outside = np.hypot(np.maximum(dr, 0.0), np.maximum(dz, 0.0))
        inside = -np.minimum(np.maximum(dr, dz), 0.0)
        dist = np.where((dr > 0) | (dz > 0), outside, inside)
        assert np.mean(dist <= voxel_size) >= 0.95


# --------------------------------------------------------------- criterion 10

def test_criterion_10_loss_spot_checks():
    with criterion(10, "BCE(0.5) = ln 2 within 1e-12; smooth-l1(0.5) = 0.125 "
                       "and smooth-l1(2) = 1.5 exact"):
        from canontrack.detect import binary_cross_entropy, smooth_l1
        assert abs(binary_cross_entropy(0.5, 1.0) - np.log(2.0)) < 1e-12
        assert float(smooth_l1(0.5)) == 0.125
        assert float(smooth_l1(2.0)) == 1.5
