import copy
import dataclasses
import json
import multiprocessing
import os
import resource
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import canontrack
from canontrack import complete, detect, experiment, pipeline, synth, track
from canontrack.geom import Box3, SimilarityTransform
from canontrack.voxel import DenseTsdfGrid


def noisy_config(**kwargs):
    """Two short sequences with noisy detector and completion oracles."""
    return small_config(n_sequences=2, n_frames=3, motion="fast",
                        detector_center_jitter=1.0, detector_flip_rate=0.05,
                        noc_noise=0.01, occupancy_flip_rate=0.02, **kwargs)


def small_config(**kwargs):
    defaults = dict(seed=0, n_sequences=1, n_frames=5, n_objects=2,
                    motion="slow", image_width=160, image_height=120)
    defaults.update(kwargs)
    return experiment.ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    script = experiment.make_script(config, 0)
    data = pipeline.build_sequence_data(script, config.voxel_size)
    result = pipeline.run_sequence(data, config.pipeline_config(0))
    return config, data, result


class TestPipeline:
    def test_noise_free_perfect_tracking(self, small_run):
        config, data, result = small_run
        scores = experiment.score_sequence(result, config)
        assert scores["mota"] == 1.0
        assert scores["mota_breakdown"]["mismatches"] == 0
        assert scores["mean_completion_iou"] == 1.0
        assert scores["detection_map_50"] == 1.0
        assert scores["completion_map_25"] == 1.0

    def test_noise_free_pose_recovery(self, small_run):
        config, data, result = small_run
        scores = experiment.score_sequence(result, config)
        assert scores["median_rotation_error_deg"] < 1e-5
        assert scores["median_translation_error_m"] < 1e-9

    def test_unmatched_detections_measure_no_pose_or_iou(self, small_run):
        # Detections none of which met a ground-truth object: no pose pair
        # and no completion IoU, which still reads 0.0.
        config, _, result = small_run
        unmatched = [dataclasses.replace(d, gt_object_id=None,
                                         pred_pose=None, completion_iou=None)
                     for d in result.detections]
        scores = experiment.score_sequence(
            dataclasses.replace(result, detections=unmatched), config)
        assert scores["num_pose_pairs"] == 0
        assert scores["median_rotation_error_deg"] is None
        assert scores["median_translation_error_m"] is None
        assert scores["mean_completion_iou"] == 0.0

    def test_detection_losses_zero_without_knobs(self, small_run):
        _, _, result = small_run
        assert np.max(result.detection_losses) < 1e-9

    def test_detection_losses_are_three_finite_terms(self, small_run):
        _, data, _ = small_run
        cfg = small_config(detector_flip_rate=0.2, detector_center_jitter=1.0,
                           detector_extent_jitter=1.0)
        result = pipeline.run_sequence(data, cfg.pipeline_config(0))
        assert len(result.detection_losses) == data.script.frame_count
        for losses in result.detection_losses:
            assert len(losses) == 3  # (L_o, L_c, L_d)
            assert np.isfinite(losses).all()
        mean = experiment.score_sequence(result, cfg)["mean_detection_losses"]
        assert len(mean) == 3 and np.isfinite(mean).all()
        assert min(mean) > 0.0

    def test_scoring_reads_no_class_id(self, small_run):
        config, data, result = small_run
        gt = experiment.gt_to_dict(data.gt_frames)
        dump = copy.deepcopy(result.dump)
        # one tracklet 0.3 m off, past the gate, so that MOTA has errors
        for rec in dump["tracklets"][0]["frames"]:
            rec["box"]["center"][0] += 0.3
        bare_dump, bare_gt = copy.deepcopy(dump), copy.deepcopy(gt)
        for t in bare_dump["tracklets"]:
            del t["class_id"]
        for fr in bare_gt["frames"]:
            for o in fr["objects"]:
                del o["class_id"]
        scores = experiment.score_tracking(dump, gt, config)
        assert scores["mota"] < 1.0
        assert experiment.score_tracking(bare_dump, bare_gt, config) == scores

    def test_one_tracklet_per_object(self, small_run):
        config, data, result = small_run
        assert len(result.dump["tracklets"]) == len(data.script.templates)
        for t in result.dump["tracklets"]:
            assert len(t["frames"]) == data.script.frame_count

    def test_deterministic(self, small_run):
        config, data, _ = small_run
        a = pipeline.run_sequence(data, config.pipeline_config(0))
        b = pipeline.run_sequence(data, config.pipeline_config(0))
        assert json.dumps(a.dump, sort_keys=True) == \
            json.dumps(b.dump, sort_keys=True)

    def test_dump_is_the_records(self, small_run):
        # The tracker keeps the records the scorer reads: the dump lists
        # each record once, with its frame, box and pose, and a tracklet's
        # class is its first record's.
        cfg = noisy_config()
        data = pipeline.build_sequence_data(experiment.make_script(cfg, 0),
                                            cfg.voxel_size)
        noisy = pipeline.run_sequence(data, cfg.pipeline_config(0))
        for result in (small_run[2], noisy):
            records = {(d.frame, tuple(d.proposal.box.center)): d
                       for d in result.detections}
            assert len(records) == len(result.detections) > 0
            for t in result.dump["tracklets"]:
                for k, fr in enumerate(t["frames"]):
                    d = records.pop((fr["frame"], tuple(fr["box"]["center"])))
                    assert fr["box"] == d.proposal.box.to_dict()
                    assert fr["pose"] == (None if d.pred_pose is None
                                          else d.pred_pose.to_dict())
                    if k == 0:
                        assert t["class_id"] == d.proposal.class_id
            assert records == {}

    def test_degradation_changes_output(self, small_run):
        config, data, result = small_run
        noisy_cfg = small_config(noc_noise=0.05, occupancy_flip_rate=0.05)
        noisy = pipeline.run_sequence(data, noisy_cfg.pipeline_config(0))
        scores = experiment.score_sequence(noisy, noisy_cfg)
        clean_scores = experiment.score_sequence(result, config)
        assert scores["mean_completion_iou"] < \
            clean_scores["mean_completion_iou"]
        assert scores["median_rotation_error_deg"] > \
            clean_scores["median_rotation_error_deg"]


class TestFrameRng:
    def test_frame_rng_reproducible_and_distinct(self):
        config = pipeline.PipelineConfig(seed=1, sequence_id=2)
        a = pipeline._frame_rng(config, 3, 4).random(5)
        b = pipeline._frame_rng(config, 3, 4).random(5)
        c = pipeline._frame_rng(config, 3, 5).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 5")
    def test_field_stream_differs_from_object_one(self, small_run,
                                                  monkeypatch):
        """The first draws of frame 0's detector-field generator and of
        object 1's completion generator, as process_frame passes them."""
        config, data, _ = small_run
        first_draws = {}

        def recording(module, name, key):
            real = getattr(module, name)

            def wrapper(*args):
                first_draws[key(*args)] = copy.deepcopy(args[-1]).random()
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        objects = data.gt_frames[0].objects
        recording(detect, "make_oracle_fields", lambda *args: "fields")
        recording(complete, "oracle_complete", lambda box, template, *args: [
            o.object_id for o in objects if o.template is template][0])
        pipeline.process_frame(data, 0, config.pipeline_config(0))
        assert first_draws.keys() == {"fields", 0, 1}
        assert first_draws["fields"] != first_draws[1]


class TestHeapPolicy:
    @pytest.mark.skipif(not canontrack._on_glibc(), reason="glibc only")
    def test_tracking_faults_no_fresh_pages(self, small_run):
        # Freed per-detection arrays stay in the heap, so once warm a
        # sequence is tracked without the kernel zeroing new pages for it.
        config, data, _ = small_run
        pipeline.run_sequence(data, config.pipeline_config(0))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pipeline.run_sequence(data, config.pipeline_config(0))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 100 * data.script.frame_count

    def test_libc_without_mallopt(self):
        canontrack._keep_freed_memory(object())

    def test_python_without_confstr_is_not_glibc(self, monkeypatch):
        # os.confstr_names exists only on Unix Pythons.
        monkeypatch.delattr(os, "confstr_names")
        assert canontrack._on_glibc() is False

    def test_sets_the_mmap_and_trim_thresholds(self):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        canontrack._keep_freed_memory(Libc())
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 256 MiB
        assert sorted(calls) == [(-3, 33554432), (-1, 268435456)]


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(noc_noise=0.01, no_correspondence_matching=True)
        path = tmp_path / "cfg.json"
        experiment.write_json(path, cfg.to_dict())
        back = experiment.ExperimentConfig.load(path)
        assert back == cfg

    @pytest.mark.parametrize("name", [
        "bogus", "association_iou", "rescue_iou", "binarize_threshold",
        "class_gated_association", "no_completion", "class_gated_mota",
        "detector_class_confusion"])
    def test_unknown_field_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            experiment.ExperimentConfig.from_dict({name: 0.3})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(motion="teleport").validate()
        with pytest.raises(ValueError):
            small_config(completion_fraction=1.5).validate()

    @pytest.mark.parametrize("field, value", [
        ("jump_period", 0), ("voxel_size", 0.0), ("image_width", 0),
        ("image_height", 0), ("workers", 0), ("noc_noise", -0.1),
        ("detector_center_jitter", -1.0), ("detector_extent_jitter", -1.0),
        ("detector_flip_rate", 1.5), ("occupancy_flip_rate", -0.5), ("n_frames", 2.5), ("seed", -1),
        ("seed", 1.5), ("image_width", 160.5), ("jump_period", 1.5),
        ("n_sequences", 2.0), ("n_objects", True), ("image_height", 120.5),
        ("workers", 1.5), ("no_correspondence_matching", 0),
        ("voxel_size", True), ("noc_noise", "0.01"),
        ("completion_fraction", None), ("mota_gate", True),
        ("output_dir", 3), ("noc_noise", float("inf")),
        ("detector_center_jitter", float("inf")),
        ("detector_extent_jitter", float("inf")),
        ("voxel_size", float("inf")), ("mota_gate", float("inf")),
    ])
    def test_rejects_values_the_program_cannot_honour(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(motion="fast", **{field: value}).validate()

    def test_rejects_more_objects_than_placement_allows(self):
        experiment.ExperimentConfig(n_objects=3).validate()
        with pytest.raises(ValueError, match="at most 3"):
            experiment.ExperimentConfig(n_objects=4).validate()

    def test_no_correspondence_matching_disables_rescue(self, small_run,
                                                         monkeypatch):
        _, data, _ = small_run
        built = []

        class RecordingTracker(track.Tracker):
            def __init__(self, enable_rescue):
                built.append(enable_rescue)
                super().__init__(enable_rescue)

        monkeypatch.setattr(track, "Tracker", RecordingTracker)
        for flag in (False, True):
            cfg = small_config(no_correspondence_matching=flag)
            pipeline.run_sequence(data, cfg.pipeline_config(0))
        assert built == [True, False]

    def test_pipeline_config_takes_experiment_names(self):
        cfg = small_config(**self.NON_DEFAULT)
        pc = cfg.pipeline_config(3)
        assert pc.sequence_id == 3
        for field in dataclasses.fields(pc):
            if field.name != "sequence_id":
                assert getattr(pc, field.name) == getattr(cfg, field.name)

    # One valid value, other than the probe config's, for every field.
    NON_DEFAULT = dict(
        seed=1, n_sequences=2, n_frames=3, n_objects=1, motion="slow",
        jump_period=1, image_width=64, image_height=48, voxel_size=0.08,
        completion_fraction=0.5, occupancy_flip_rate=0.1, noc_noise=0.01,
        detector_flip_rate=0.1, detector_center_jitter=0.5,
        detector_extent_jitter=0.5, no_correspondence_matching=True,
        mota_gate=0.5, output_dir="elsewhere", workers=2)
    # Fields that only a run reads.
    RUN_FIELDS = ("voxel_size", "n_sequences", "workers", "output_dir")

    def test_every_field_is_read(self, tmp_path, monkeypatch):
        base = small_config(motion="fast", n_frames=2, image_width=48,
                            image_height=36)

        def box(x):
            return {"center": [x, 0.0, 0.0], "extents": [0.5, 0.5, 0.5]}

        # One object over two frames, predicted 0.3 m off in frame 1.
        gt = {"version": 1, "frames": [
            {"frame": f, "objects": [{"id": 0, "class_id": 0,
                                      "box": box(0.0)}]}
            for f in range(2)]}
        dump = {"version": 1, "frame_count": 2, "tracklets": [
            {"id": 0, "class_id": 0, "frames": [
                {"frame": f, "box": box(0.3 * f), "pose": None}
                for f in range(2)]}]}

        def probe(cfg):
            return (experiment.make_script(cfg, 0).to_dict(),
                    cfg.pipeline_config(0),
                    experiment.score_tracking(dump, gt, cfg))

        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", recording_pool)

        def run_probe(cfg):
            """Files written (metrics.json records the config itself) and
            the process pools entered by a run in a fresh directory."""
            root = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
            root.mkdir()
            monkeypatch.chdir(root)
            pools.clear()
            experiment.run_experiment(cfg)
            files = {p.relative_to(root): p.read_bytes()
                     for p in root.rglob("*")
                     if p.is_file() and p.name != "metrics.json"}
            return files, list(pools)

        base_probe, base_run = probe(base), run_probe(base)
        for field in dataclasses.fields(experiment.ExperimentConfig):
            assert field.name in self.NON_DEFAULT, f"no probe for {field.name}"
            cfg = replace(base, **{field.name: self.NON_DEFAULT[field.name]})
            cfg.validate()
            if field.name in self.RUN_FIELDS:
                assert run_probe(cfg) != base_run, f"{field.name} is not read"
            else:
                assert probe(cfg) != base_probe, f"{field.name} is not read"


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = small_config(n_frames=4, output_dir=str(tmp_path / "a"))
        s1 = experiment.run_experiment(cfg)
        cfg2 = small_config(n_frames=4, output_dir=str(tmp_path / "b"))
        s2 = experiment.run_experiment(cfg2)
        assert s1["mean_mota"] == s2["mean_mota"]
        # byte-identical artifacts modulo the differing output_dir field
        a = (tmp_path / "a" / "metrics.json").read_text()
        b = (tmp_path / "b" / "metrics.json").read_text()
        assert a.replace(str(tmp_path / "a"), "X") == \
            b.replace(str(tmp_path / "b"), "X")
        assert (tmp_path / "a" / "tracklets_seq0000.json").exists()
        assert (tmp_path / "a" / "metrics.csv").exists()

    def test_write_json_rejects_nan_before_writing(self, tmp_path):
        path = tmp_path / "scores.json"
        with pytest.raises(ValueError):
            experiment.write_json(path, {"a": 1.0, "b": float("nan")})
        assert not path.exists()

    def test_summary_shape(self, tmp_path):
        cfg = small_config(n_frames=4, output_dir=str(tmp_path))
        s = experiment.run_experiment(cfg)
        assert set(s) >= {"config", "mean_mota", "mean_completion_iou",
                          "per_sequence"}
        assert list(s["per_sequence"]) == [0]

    def test_worker_count_does_not_change_summary(self, tmp_path):
        cfg = noisy_config()
        one = experiment.run_experiment(replace(
            cfg, workers=1, output_dir=str(tmp_path / "one")))
        two = experiment.run_experiment(replace(
            cfg, workers=2, output_dir=str(tmp_path / "two")))
        for s, workers, name in ((one, 1, "one"), (two, 2, "two")):
            assert s["config"].pop("workers") == workers
            assert s["config"].pop("output_dir") == str(tmp_path / name)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_pool_has_no_more_workers_than_sequences(self, tmp_path,
                                                      monkeypatch):
        entered = []

        class RecordingPool(ProcessPoolExecutor):
            def __enter__(self):
                entered.append(self._max_workers)
                return super().__enter__()

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        experiment.run_experiment(small_config(
            n_sequences=2, n_frames=2, workers=4, output_dir=str(tmp_path)))
        assert entered == [2]

    def test_sequence_in_batch_equals_sequence_alone(self, tmp_path):
        cfg = noisy_config(output_dir=str(tmp_path))
        batch = experiment.run_experiment(cfg)
        # Alone: a fresh interpreter that has tracked nothing before.
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            sid, _, [(dump, scores)] = pool.submit(
                experiment.track_sequence, [cfg], 1).result(timeout=300)
        assert sid == 1
        written = json.loads((tmp_path / "tracklets_seq0001.json").read_text())
        assert json.loads(json.dumps(dump)) == written
        assert scores == batch["per_sequence"][1]


def written_files(root):
    """Every file under root, by relative path, as bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestBuildSequenceData:
    @pytest.mark.parametrize("voxel_size", [0.05, 0.04])
    def test_visibility_band_is_the_grid_truncation(self, monkeypatch,
                                                    voxel_size):
        """The ground truth calls a surface voxel visible within the same
        band the TSDF truncates at."""
        grids, bands = [], []
        for_bounds = pipeline.DenseTsdfGrid.for_bounds
        render = synth.render_frame

        def recording_for_bounds(*args, **kwargs):
            grids.append(for_bounds(*args, **kwargs))
            return grids[-1]

        def recording_render(*args, **kwargs):
            bands.append(kwargs["visibility_band"])
            return render(*args, **kwargs)

        monkeypatch.setattr(pipeline.DenseTsdfGrid, "for_bounds",
                            recording_for_bounds)
        monkeypatch.setattr(synth, "render_frame", recording_render)
        cfg = small_config(n_frames=2, image_width=48, image_height=36)
        pipeline.build_sequence_data(experiment.make_script(cfg, 0),
                                     voxel_size)
        assert len(grids) == len(bands) == 2
        for grid, band in zip(grids, bands):
            assert grid.voxel_size == voxel_size
            assert band == grid.truncation == 3.0 * voxel_size


class TestSweepCompletion:
    FRACTIONS = (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_files_equal_per_fraction_runs(self, tmp_path, workers):
        out = tmp_path / "sweep"
        cfg = noisy_config(workers=workers, output_dir=str(out))
        summaries = experiment.sweep_completion(cfg, self.FRACTIONS)
        swept = written_files(out)
        assert sorted({name.split("/")[0] for name in swept}) == \
            ["f_0", "f_0.5", "f_1", "sweep.csv"]

        shutil.rmtree(out)
        alone = [experiment.run_experiment(replace(
            cfg, completion_fraction=f, output_dir=str(out / f"f_{f:g}")))
            for f in self.FRACTIONS]
        experiment.write_csv(out / "sweep.csv", alone)
        assert summaries == alone
        assert swept == written_files(out)

    def test_renders_each_sequence_once(self, monkeypatch, tmp_path):
        builds = []
        build = pipeline.build_sequence_data

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_sequence_data", counting_build)
        cfg = small_config(n_sequences=2, n_frames=2, workers=1,
                           output_dir=str(tmp_path))
        summaries = experiment.sweep_completion(cfg, self.FRACTIONS)
        assert len(summaries) == len(self.FRACTIONS)
        assert len(builds) == cfg.n_sequences


# The value types do not check what they are given: each invariant below is
# kept by the builders of its values, and this is its one home.  Each value
# is reduced, as it is made, to the figures the tests read, so that no
# 64^3 template or TSDF grid is kept alive.
BUILT = {
    SimilarityTransform: lambda t: (t.scale, t.rotation),
    Box3: lambda b: b.extents,
    synth.ObjectTemplate: lambda t: (
        t.kind, bool(t.canonical_occupancy.bits.any()), t.physical_scale),
    synth.SceneScript: lambda s: (
        len(s.templates), [len(p) for p in s.object_poses],
        len(s.camera_poses)),
    DenseTsdfGrid: lambda g: (g.values.shape, g.weights.shape, g.voxel_size),
}

# Small runs shaped like the benchmark's workloads (perfbench/run.py), each
# tracked at the completion fractions given.
BUILDER_RUNS = [
    (small_config(seed=1, n_frames=3, n_objects=3), (1.0,)),  # clean
    (small_config(seed=1, n_frames=4, motion="fast", image_width=96,
                  image_height=72, noc_noise=0.01, occupancy_flip_rate=0.02,
                  detector_center_jitter=0.5, detector_extent_jitter=0.5,
                  detector_flip_rate=0.01), (0.0, 1.0)),  # sweep
    (small_config(seed=1, n_frames=3, n_objects=3, motion="fast",
                  image_width=96, image_height=72,
                  detector_center_jitter=2.0, detector_flip_rate=0.2),
     (1.0,)),  # noisy
]


@pytest.fixture(scope="module")
def built():
    """The figures of every value the five types above were given, and the
    (camera pose, depth, intrinsics) of every frame fused, over the runs of
    BUILDER_RUNS and over 24-frame scene scripts alone for seeds 0-49, both
    motions and 1-3 objects."""
    made = {cls: [] for cls in BUILT}
    fused = []
    fuse = pipeline.fuse_depth_frame

    def record_fuse(depth, intrinsics, camera_pose, grid):
        fused.append((camera_pose.scale, camera_pose.rotation, depth.dtype,
                      depth.shape, (intrinsics.height, intrinsics.width)))
        return fuse(depth, intrinsics, camera_pose, grid)

    with pytest.MonkeyPatch.context() as mp:
        for cls, figures in BUILT.items():
            def init(self, *args, _init=cls.__init__, _figures=figures,
                     _made=made[cls], **kwargs):
                _init(self, *args, **kwargs)
                _made.append(_figures(self))
            mp.setattr(cls, "__init__", init)
        mp.setattr(pipeline, "fuse_depth_frame", record_fuse)
        for config, fractions in BUILDER_RUNS:
            data = pipeline.build_sequence_data(
                experiment.make_script(config, 0), config.voxel_size)
            for fraction in fractions:
                cfg = replace(config, completion_fraction=fraction)
                result = pipeline.run_sequence(data, cfg.pipeline_config(0))
                experiment.score_sequence(result, cfg)
        for seed in range(50):
            for motion in ("slow", "fast"):
                for n_objects in (1, 2, 3):
                    experiment.make_script(small_config(
                        seed=seed, n_frames=24, motion=motion,
                        n_objects=n_objects), 0)
    return made, fused


class TestBuildersKeepInvariants:
    """Each comparison is written so that NaN fails it."""

    def test_transforms_are_proper_similarities(self, built):
        made, _ = built
        scales = np.array([scale for scale, _ in made[SimilarityTransform]])
        rotations = np.stack([rot for _, rot in made[SimilarityTransform]])
        assert len(scales) > 20_000
        assert np.all(scales > 0)
        gram = np.einsum("nji,njk->nik", rotations, rotations)
        err = np.abs(gram - np.eye(3)).max(axis=(1, 2))
        assert np.all(err <= 1e-8), err.max()
        det_err = np.abs(np.linalg.det(rotations) - 1.0)
        assert np.all(det_err <= 1e-8), det_err.max()

    def test_boxes_have_positive_extents(self, built):
        extents = np.stack(built[0][Box3])
        assert len(extents) > 1_000
        assert np.all(extents > 0)

    def test_templates_are_nonempty_known_kinds_of_positive_size(self, built):
        templates = built[0][synth.ObjectTemplate]
        assert len(templates) >= 600
        for kind, occupied, physical_scale in templates:
            assert kind in synth.TEMPLATE_KINDS
            assert occupied
            assert np.all(physical_scale > 0)

    def test_scripts_pose_every_template_in_every_frame(self, built):
        scripts = built[0][synth.SceneScript]
        assert len(scripts) == len(BUILDER_RUNS) + 300
        for n_templates, poses_per_frame, n_cameras in scripts:
            assert len(poses_per_frame) >= 1
            assert n_cameras == len(poses_per_frame)
            assert poses_per_frame == [n_templates] * n_cameras

    def test_grids_hold_matching_3d_arrays(self, built):
        grids = built[0][DenseTsdfGrid]
        assert len(grids) > 0
        for values_shape, weights_shape, voxel_size in grids:
            assert len(values_shape) == 3
            assert weights_shape == values_shape
            assert voxel_size > 0

    def test_fusion_reads_unit_scale_cameras_and_image_sized_depth(self, built):
        fused = built[1]
        assert len(fused) == sum(config.n_frames for config, _ in BUILDER_RUNS)
        up = np.array([0.0, 0.0, 1.0])
        for scale, rotation, dtype, shape, image in fused:
            assert abs(scale - 1.0) <= 1e-12
            # look_at's forward axis is never parallel to world up
            assert np.linalg.norm(np.cross(rotation[:, 2], up)) >= 1e-9
            assert dtype == np.float64
            assert shape == image
