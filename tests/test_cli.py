import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from canontrack import experiment
from canontrack.cli import main


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    experiment.write_json(path, experiment.ExperimentConfig(
        seed=3, n_sequences=1, n_frames=3, n_objects=2, motion="slow",
        image_width=160, image_height=120,
    ).to_dict())
    return str(path)


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


class TestGenerate:
    def test_writes_scene_scripts(self, config_path, tmp_path):
        r = run_cli("generate", "--config", config_path,
                    "--output", str(tmp_path))
        assert r.exit_code == 0, r.output
        script_file = tmp_path / "scripts" / "scene_seq0000.json"
        assert script_file.exists()
        d = json.loads(script_file.read_text())
        assert d["version"] == 1
        assert len(d["objects"]) == 2
        assert [o["id"] for o in d["objects"]] == [
            f"obj{i}_{o['kind']}" for i, o in enumerate(d["objects"])]
        assert len(d["camera_poses"]) == 3

    def test_seed_override_changes_scene(self, config_path, tmp_path):
        run_cli("generate", "--config", config_path,
                "--output", str(tmp_path / "a"))
        run_cli("generate", "--config", config_path, "--seed", "99",
                "--output", str(tmp_path / "b"))
        a = (tmp_path / "a" / "scripts" / "scene_seq0000.json").read_text()
        b = (tmp_path / "b" / "scripts" / "scene_seq0000.json").read_text()
        assert a != b


class RecordingPool(ProcessPoolExecutor):
    """A process pool that records the worker count of each pool entered."""

    entered = []

    def __enter__(self):
        RecordingPool.entered.append(self._max_workers)
        return super().__enter__()


# Frame 0 listed twice (object 0, then object 1) and one hypothesis on
# object 0: keeping only the last entry scores MOTA -1 (one miss, one false
# positive) where both objects are in the frame.
REPEATED_GT_FRAME = {"version": 1, "frames": [
    {"frame": 0, "objects": [{"id": 0, "box": {"center": [0.0, 0.0, 0.0]}}]},
    {"frame": 0, "objects": [{"id": 1, "box": {"center": [2.0, 0.0, 0.0]}}]},
]}
ONE_HYPOTHESIS = {"frame_count": 1, "tracklets": [
    {"id": 5, "frames": [{"frame": 0, "box": {"center": [0.0, 0.0, 0.0]}}]},
]}


class TestTrackAndEval:
    def test_track_then_eval(self, config_path, tmp_path):
        out = str(tmp_path)
        r = run_cli("track", "--config", config_path, "--output", out)
        assert r.exit_code == 0, r.output
        for name in ("tracklets_seq0000.json", "gt_seq0000.json",
                     "scores_seq0000.json"):
            assert (tmp_path / name).exists()

        tracked = {name: (tmp_path / name).read_bytes()
                   for name in ("metrics.json", "metrics.csv")}

        r = run_cli("eval", "--config", config_path, "--output", out)
        assert r.exit_code == 0, r.output
        echoed = json.loads(r.output)
        assert echoed["mean_mota"] == 1.0
        summary = json.loads((tmp_path / "metrics.json").read_text())
        assert summary["mean_mota"] == 1.0
        # eval writes the summary through the writer track uses
        for name, content in tracked.items():
            assert (tmp_path / name).read_bytes() == content, name

    def test_ablation_flag_recorded(self, config_path, tmp_path):
        out = str(tmp_path / "abl")
        r = run_cli("track", "--config", config_path, "--output", out,
                    "--ablation", "no_correspondence_matching")
        assert r.exit_code == 0, r.output
        r = run_cli("eval", "--config", config_path, "--output", out,
                    "--ablation", "no_correspondence_matching")
        assert r.exit_code == 0, r.output
        summary = json.loads((Path(out) / "metrics.json").read_text())
        assert summary["config"]["no_correspondence_matching"] is True

    def test_no_completion_recorded_as_fraction_zero(self, config_path,
                                                     tmp_path):
        r = run_cli("track", "--config", config_path, "--output",
                    str(tmp_path), "--ablation", "no_completion")
        assert r.exit_code == 0, r.output
        summary = json.loads((tmp_path / "metrics.json").read_text())
        assert summary["config"]["completion_fraction"] == 0.0
        with open(tmp_path / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(row["completion_fraction"]) for row in rows] == [0.0]

    def test_round_trip_matches_run_experiment(self, tmp_path, monkeypatch):
        # degraded enough that MOTA is below 1 and differs per sequence
        cfg = experiment.ExperimentConfig(
            seed=3, n_sequences=2, n_frames=4, n_objects=2, motion="fast",
            image_width=160, image_height=120, noc_noise=0.02,
            occupancy_flip_rate=0.05, detector_flip_rate=0.05,
            output_dir=str(tmp_path / "experiment"))
        expected = experiment.run_experiment(cfg)
        # `track` runs the same sequences on two worker processes.
        path = str(tmp_path / "config.json")
        experiment.write_json(path, replace(cfg, workers=2).to_dict())
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        RecordingPool.entered = []
        out = tmp_path / "cli"
        r = run_cli("track", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        assert RecordingPool.entered == [2]
        for sid in range(2):
            name = f"tracklets_seq{sid:04d}.json"
            assert (out / name).read_text() == \
                (tmp_path / "experiment" / name).read_text()
        r = run_cli("eval", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        assert expected["mean_mota"] < 1.0
        assert json.loads(r.output)["mean_mota"] == expected["mean_mota"]
        summary = json.loads((out / "metrics.json").read_text())
        exp_file = json.loads(
            (tmp_path / "experiment" / "metrics.json").read_text())
        assert summary["per_sequence"] == exp_file["per_sequence"]

    def test_eval_without_score_files(self, tmp_path):
        # Dumps alone, as another tracker would leave them: no completion
        # IoU or rotation error was measured, so none is reported.
        path = str(tmp_path / "config.json")
        experiment.write_json(path, experiment.ExperimentConfig(
            seed=1, n_sequences=2, n_frames=3, n_objects=2,
            image_width=160, image_height=120).to_dict())
        out = tmp_path / "out"
        r = run_cli("track", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        tracked = json.loads((out / "metrics.json").read_text())
        assert tracked["mean_completion_iou"] is not None
        for sid in range(2):
            (out / f"scores_seq{sid:04d}.json").unlink()

        r = run_cli("eval", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        summary = json.loads((out / "metrics.json").read_text())
        assert summary["mean_mota"] == tracked["mean_mota"]
        assert json.loads(r.output)["mean_mota"] == tracked["mean_mota"]
        assert summary["mean_completion_iou"] is None
        assert summary["median_rotation_error_deg"] is None

    def test_eval_csv_agrees_with_metrics_json(self, tmp_path):
        # Dumps edited after tracking, without their score files: both
        # summary files are rewritten from what eval scored.
        path = str(tmp_path / "config.json")
        experiment.write_json(path, experiment.ExperimentConfig(
            seed=1, n_sequences=2, n_frames=3, n_objects=2,
            image_width=160, image_height=120).to_dict())
        out = tmp_path / "out"
        r = run_cli("track", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        for sid in range(2):
            (out / f"scores_seq{sid:04d}.json").unlink()
        dump_path = out / "tracklets_seq0000.json"
        dump = json.loads(dump_path.read_text())
        for t in dump["tracklets"]:
            for rec in t["frames"]:
                rec["box"]["center"][0] += 1.0
        experiment.write_json(dump_path, dump)

        r = run_cli("eval", "--config", path, "--output", str(out))
        assert r.exit_code == 0, r.output
        summary = json.loads((out / "metrics.json").read_text())
        assert summary["per_sequence"]["0"]["mota"] == -1.0
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["sequence"] for row in rows] == ["0", "1"]
        for row in rows:
            assert float(row["mota"]) == \
                summary["per_sequence"][row["sequence"]]["mota"]
            # not measured without the score files
            assert row["mean_completion_iou"] == ""
            assert row["median_rotation_error_deg"] == ""

    def test_frames_without_surface(self, tmp_path):
        # 2x2 images show no surface voxel: every loss is a mean over
        # nothing and reads 0.0, so the scores are strict JSON.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "n_sequences": 1, "n_frames": 2, "n_objects": 1,
            "image_width": 2, "image_height": 2}))
        out = tmp_path / "out"
        r = run_cli("track", "--config", str(path), "--seed", "1",
                    "--output", str(out))
        assert r.exit_code == 0, r.output
        scores = json.loads((out / "scores_seq0000.json").read_text())
        assert scores["mean_detection_losses"] == [0.0, 0.0, 0.0]

    def test_eval_rejects_a_repeated_id_in_a_frame(self, config_path,
                                                   tmp_path):
        # Two tracklets with id 5 over two objects in frame 0.
        def box(x):
            return {"center": [x, 0.0, 0.0]}

        experiment.write_json(tmp_path / "gt_seq0000.json", {
            "version": 1, "frames": [{"frame": 0, "objects": [
                {"id": 0, "box": box(0.0)}, {"id": 1, "box": box(2.0)}]}]})
        experiment.write_json(tmp_path / "tracklets_seq0000.json", {
            "frame_count": 1, "tracklets": [
                {"id": 5, "frames": [{"frame": 0, "box": box(0.0)}]},
                {"id": 5, "frames": [{"frame": 0, "box": box(2.0)}]}]})
        r = run_cli("eval", "--config", config_path,
                    "--output", str(tmp_path))
        assert r.exit_code == 1
        err = json.loads(r.output.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "frame 0: prediction id 5" in err["message"]
        assert not (tmp_path / "metrics.json").exists()

    def test_score_tracking_rejects_a_repeated_ground_truth_frame(self):
        with pytest.raises(ValueError,
                           match="ground-truth frame 0 appears twice"):
            experiment.score_tracking(ONE_HYPOTHESIS, REPEATED_GT_FRAME,
                                      experiment.ExperimentConfig())

    def test_eval_rejects_a_repeated_ground_truth_frame(self, config_path,
                                                        tmp_path):
        experiment.write_json(tmp_path / "gt_seq0000.json", REPEATED_GT_FRAME)
        experiment.write_json(tmp_path / "tracklets_seq0000.json",
                              ONE_HYPOTHESIS)
        r = run_cli("eval", "--config", config_path,
                    "--output", str(tmp_path))
        assert r.exit_code == 1
        [line] = r.output.strip().splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"}
        assert err["error"] == "ValueError"
        assert "ground-truth frame 0 appears twice" in err["message"]
        assert not (tmp_path / "metrics.json").exists()

    def test_eval_without_dumps_fails_cleanly(self, config_path, tmp_path):
        r = run_cli("eval", "--config", config_path,
                    "--output", str(tmp_path / "empty"))
        assert r.exit_code == 1
        err = json.loads(r.output.strip().splitlines()[-1])
        assert err["error"] == "FileNotFoundError"


class TestSweep:
    def test_sweep_outputs(self, config_path, tmp_path):
        out = str(tmp_path)
        r = run_cli("sweep", "--config", config_path, "--output", out,
                    "--fractions", "0,1")
        assert r.exit_code == 0, r.output
        echoed = json.loads(r.output.strip().splitlines()[-1])
        assert echoed["fractions"] == [0.0, 1.0]
        assert len(echoed["mean_mota"]) == 2
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "f_0" / "metrics.json").exists()
        assert (tmp_path / "f_1" / "metrics.json").exists()

    @pytest.mark.parametrize("args, named", [
        (("--fractions", "0,0.5,2"), "completion_fraction"),
        (("--fractions", "0.1234567,0.1234568"), "0.1234567 and 0.1234568"),
        (("--fractions", "0.5,0.5"), "0.5 and 0.5"),
        (("--fractions=-0,0",), "0.0 and 0.0"),
        (("--fractions", "0,1", "--ablation", "no_completion"),
         "no_completion"),
    ], ids=["out_of_range", "same_directory", "duplicate", "negative_zero",
            "no_completion"])
    def test_rejects_sweep_before_tracking(self, config_path, tmp_path,
                                           args, named):
        r = run_cli("sweep", "--config", config_path,
                    "--output", str(tmp_path), *args)
        assert r.exit_code == 1
        err = json.loads(r.output.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert named in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestErrors:
    @pytest.mark.parametrize("subcommand",
                             ["generate", "track", "eval", "sweep"])
    def test_bad_config_json(self, tmp_path, subcommand):
        bad = tmp_path / "bad.json"
        bad.write_text('{"motion": "teleport", "version": 1}')
        r = run_cli(subcommand, "--config", str(bad),
                    "--output", str(tmp_path))
        assert r.exit_code == 1
        err = json.loads(r.output.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "motion" in err["message"]

    @pytest.mark.parametrize("text", ["[]", '[["seed", 3]]'])
    def test_config_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must be a JSON object, got an "
                                             "array"):
            experiment.ExperimentConfig.load(path)
        out = tmp_path / "out"
        r = run_cli("track", "--config", str(path), "--output", str(out))
        assert r.exit_code == 1
        [line] = r.output.strip().splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"}
        assert err["error"] == "ValueError"
        assert not out.exists()

    def test_unknown_ablation_rejected(self, config_path, tmp_path):
        r = run_cli("track", "--config", config_path,
                    "--output", str(tmp_path), "--ablation", "bogus")
        assert r.exit_code != 0
