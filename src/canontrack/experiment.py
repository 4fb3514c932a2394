"""Experiment orchestration: generate sequences, run the pipeline under
ablation flags, score, and emit metrics JSON / CSV artifacts."""

from __future__ import annotations

import csv
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import metrics, pipeline, synth
from .geom import box_iou_3d, volumetric_iou

CONFIG_VERSION = 1


@dataclass
class ExperimentConfig:
    seed: int = 0
    n_sequences: int = 5
    n_frames: int = 24
    n_objects: int = 2
    motion: str = "slow"  # or "fast"
    jump_period: int = synth.JUMP_PERIOD  # frames between "fast" jumps
    image_width: int = 240
    image_height: int = 180
    voxel_size: float = 0.05
    # degradation knobs
    completion_fraction: float = 1.0  # 0 is "no compl.": visible only
    occupancy_flip_rate: float = 0.0
    noc_noise: float = 0.0
    detector_flip_rate: float = 0.0
    detector_center_jitter: float = 0.0
    detector_extent_jitter: float = 0.0
    # ablation flag
    no_correspondence_matching: bool = False  # "no corr.": skip rescue pass
    # scoring protocol
    mota_gate: float = metrics.MOTA_GATE
    output_dir: str = "out"
    workers: int = 1

    def validate(self) -> None:
        # Types first, so that every range below compares numbers.
        checks = [  # (fields, accepted values, the condition in words)
            (("seed", "n_sequences", "n_frames", "n_objects", "jump_period",
              "image_width", "image_height", "workers"),
             lambda v: _is_number(v, numbers.Integral), "an integer"),
            (("voxel_size", "completion_fraction", "occupancy_flip_rate",
              "noc_noise", "detector_flip_rate", "detector_center_jitter",
              "detector_extent_jitter", "mota_gate"),
             lambda v: _is_number(v, numbers.Real) and math.isfinite(v),
             "a finite real number"),
            (("no_correspondence_matching",),
             lambda v: isinstance(v, bool), "a bool"),
            (("output_dir",), lambda v: isinstance(v, str), "a string"),
            (("seed",), lambda v: v >= 0, "non-negative"),
            (("completion_fraction", "occupancy_flip_rate",
              "detector_flip_rate"),
             lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            (("noc_noise", "detector_center_jitter", "detector_extent_jitter"),
             lambda v: v >= 0.0, "non-negative"),
            (("mota_gate", "voxel_size"), lambda v: v > 0.0, "positive"),
            (("n_sequences", "n_frames", "n_objects", "jump_period",
              "image_width", "image_height", "workers"),
             lambda v: v >= 1, "at least 1"),
        ]
        for names, ok, condition in checks:
            for name in names:
                v = getattr(self, name)
                if not ok(v):
                    raise ValueError(f"{name} must be {condition}, got {v!r}")
        if self.motion not in ("slow", "fast"):
            raise ValueError("motion must be 'slow' or 'fast'")
        if self.n_objects > synth.MAX_OBJECTS:
            raise ValueError(
                f"n_objects must be at most {synth.MAX_OBJECTS}, got "
                f"{self.n_objects}: objects are placed within "
                f"{synth.PLACEMENT_RADIUS} m of the origin and "
                f"{synth.MIN_SEPARATION} m apart")

    def to_dict(self) -> dict:
        d = {"version": CONFIG_VERSION}
        d.update(asdict(self))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean",
                    int: "a number", float: "a number", type(None): "null"}
            raise ValueError("a config must be a JSON object, got "
                             + kind.get(type(d), type(d).__name__))
        d = dict(d)
        version = d.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {version}")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def pipeline_config(self, sequence_id: int) -> pipeline.PipelineConfig:
        shared = {f.name: getattr(self, f.name)
                  for f in fields(pipeline.PipelineConfig)
                  if f.name != "sequence_id"}
        return pipeline.PipelineConfig(sequence_id=sequence_id, **shared)


def _is_number(v, kind) -> bool:
    """v is an instance of the numbers ABC `kind` and not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


def make_script(config: ExperimentConfig, sequence_id: int) -> synth.SceneScript:
    return synth.make_random_script(
        seed=_sequence_seed(config.seed, sequence_id),
        n_objects=config.n_objects,
        n_frames=config.n_frames,
        motion=config.motion,
        intrinsics=synth.default_intrinsics(config.image_width,
                                            config.image_height),
        jump_period=config.jump_period,
    )


def _sequence_seed(seed: int, sequence_id: int) -> int:
    return int(np.random.SeedSequence((seed, sequence_id)).generate_state(1)[0])


def score_tracking(dump: dict, gt_dump: dict,
                   config: ExperimentConfig) -> dict:
    """CLEAR-MOT scores of a tracklet dump (track.Tracker.dump) against a
    ground-truth dump (gt_to_dict): {"mota", "mota_breakdown"}.  A
    ground-truth frame listed twice raises ValueError."""
    gt_frames = {}
    for fr in gt_dump["frames"]:
        if fr["frame"] in gt_frames:
            raise ValueError(f"ground-truth frame {fr['frame']} appears twice")
        gt_frames[fr["frame"]] = [
            metrics.TrackRecord(o["id"], o["box"]["center"])
            for o in fr["objects"]]
    breakdown = metrics.mota(metrics.tracklet_dump_to_frames(dump), gt_frames,
                             config.mota_gate)
    return {"mota": breakdown.mota, "mota_breakdown": breakdown.to_dict()}


def score_sequence(result: pipeline.SequenceResult,
                   config: ExperimentConfig) -> dict:
    """All per-sequence metrics from a pipeline result.  The mean completion
    IoU is over the detections matched to ground truth, and 0.0 when none
    was."""
    gt_by_id = {}
    gt_det = []
    gt_comp = []
    for gt in result.gt_frames:
        for o in gt.objects:
            gt_by_id[(gt.index, o.object_id)] = o
            key = (gt.index, o.class_id)
            gt_det.append(key + (o.box,))
            gt_comp.append(key + (o.template.canonical_occupancy.bits,))

    pose_pairs = []
    det_scored = []
    comp_scored = []
    comp_ious = []
    for d in result.detections:
        key = (d.frame, d.proposal.class_id, d.proposal.mean_objectness)
        det_scored.append(key + (d.proposal.box,))
        comp_scored.append(key + (d.canonical,))
        if d.completion_iou is not None:
            comp_ious.append(d.completion_iou)
        if d.gt_object_id is not None and d.pred_pose is not None:
            obj = gt_by_id[(d.frame, d.gt_object_id)]
            pose_pairs.append((d.pred_pose, obj.pose, obj.symmetry))

    det_map = metrics.average_precision(det_scored, gt_det, box_iou_3d, 0.5)
    comp_map = metrics.average_precision(comp_scored, gt_comp, volumetric_iou,
                                         0.25)
    med_rot, med_trans = metrics.pose_error_stats(pose_pairs)

    losses = np.mean(np.array(result.detection_losses), axis=0)
    return {
        **score_tracking(result.dump, gt_to_dict(result.gt_frames), config),
        "median_rotation_error_deg": med_rot,
        "median_translation_error_m": med_trans,
        "detection_map_50": det_map,
        "completion_map_25": comp_map,
        "mean_completion_iou": (float(np.mean(comp_ious)) if comp_ious
                                else 0.0),
        "mean_detection_losses": losses.tolist(),
        "num_pose_pairs": len(pose_pairs),
    }


def gt_to_dict(gt_frames) -> dict:
    """Ground-truth dump of a sequence: the boxes and poses evaluation reads."""
    return {
        "version": 1,
        "frames": [
            {
                "frame": gt.index,
                "objects": [
                    {
                        "id": o.object_id,
                        "class_id": o.class_id,
                        "symmetry": o.symmetry,
                        "box": o.box.to_dict(),
                        "pose": o.pose.to_dict(),
                    }
                    for o in gt.objects
                ],
            }
            for gt in gt_frames
        ],
    }


def track_sequence(configs: list, sequence_id: int) -> tuple:
    """Generate one sequence once, from the first config, then track and
    score it under each config of a run (they differ only in completion
    fraction and output directory): (sequence id, ground-truth dump,
    [(tracklet dump, scores) per config]).

    Each result is scored and dropped before the next config runs.
    """
    data = pipeline.build_sequence_data(make_script(configs[0], sequence_id),
                                        configs[0].voxel_size)
    runs = []
    for c in configs:
        result = pipeline.run_sequence(data, c.pipeline_config(sequence_id))
        runs.append((result.dump, score_sequence(result, c)))
        del result
    return sequence_id, gt_to_dict(data.gt_frames), runs


def write_json(path, obj, indent: int | None = None) -> None:
    """Strict JSON: NaN and infinities raise before the file is opened."""
    text = json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    with open(path, "w") as f:
        f.write(text)


def summarize(config: ExperimentConfig, per_sequence: dict) -> dict:
    """Experiment summary over per-sequence scores.  Sequences without a
    MOTA (no ground truth), a completion IoU (dumps scored without their
    scores file) or a rotation error are left out of those aggregates; an
    aggregate over no sequence is None."""
    scores = per_sequence.values()
    motas = [s["mota"] for s in scores if s["mota"] is not None]
    comp_ious = [s["mean_completion_iou"] for s in scores
                 if s.get("mean_completion_iou") is not None]
    rots = [s["median_rotation_error_deg"] for s in scores
            if s.get("median_rotation_error_deg") is not None]
    return {
        "config": config.to_dict(),
        "mean_mota": float(np.mean(motas)) if motas else None,
        "mean_completion_iou": (float(np.mean(comp_ious)) if comp_ious
                                else None),
        "median_rotation_error_deg": float(np.median(rots)) if rots else None,
        "per_sequence": per_sequence,
    }


def _run(configs: list) -> list:
    """Track every sequence once under each config (they differ only in
    completion fraction and output directory): one summary per config,
    whose files go into its output_dir.

    Every config is validated before the first sequence is built.  With
    `workers` > 1, a pool of min(workers, n_sequences) processes shares out
    the sequences.  Files are written after every sequence has been tracked.
    """
    for c in configs:
        c.validate()
    config = configs[0]
    ids = range(config.n_sequences)
    if config.workers > 1:
        with ProcessPoolExecutor(
                max_workers=min(config.workers, len(ids))) as pool:
            results = list(pool.map(track_sequence, repeat(configs), ids))
    else:
        results = [track_sequence(configs, i) for i in ids]

    summaries = []
    for k, c in enumerate(configs):
        summary = summarize(c, {sid: runs[k][1] for sid, _, runs in results})
        out = Path(c.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for sid, gt, runs in results:
            dump, scores = runs[k]
            write_json(out / f"tracklets_seq{sid:04d}.json", dump)
            write_json(out / f"gt_seq{sid:04d}.json", gt)
            write_json(out / f"scores_seq{sid:04d}.json", scores)
        write_summary(out, summary)
        summaries.append(summary)
    return summaries


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all sequences and aggregate; deterministic given (config, seed).

    Writes into config.output_dir, per sequence, the tracklet dump
    (tracklets_seqNNNN.json), the ground-truth dump (gt_seqNNNN.json) and the
    scores (scores_seqNNNN.json), then the summary (metrics.json) and its flat
    CSV (metrics.csv).
    """
    return _run([config])[0]


def write_summary(out: Path, summary: dict) -> None:
    """Write a run's summary into directory `out`: metrics.json and its flat
    CSV, metrics.csv."""
    write_json(out / "metrics.json", summary, indent=2)
    write_csv(out / "metrics.csv", [summary])


# The config fields and the per-sequence scores each CSV row carries.
CSV_CONFIG = ["completion_fraction", "no_correspondence_matching"]
CSV_SCORES = ["mota", "mean_completion_iou", "median_rotation_error_deg",
              "detection_map_50", "completion_map_25"]


def write_csv(path, summaries) -> None:
    """One row per sequence per run/ablation, for external plotting.  A
    score a sequence lacks (not measured) is an empty cell."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_CONFIG + ["sequence"] + CSV_SCORES)
        for s in summaries:
            run = [s["config"][name] for name in CSV_CONFIG]
            for sid, scores in sorted(s["per_sequence"].items()):
                w.writerow(run + [sid] + [scores.get(name)
                                          for name in CSV_SCORES])


def sweep_completion(config: ExperimentConfig, fractions) -> list:
    """Run the experiment at each completion fraction; sequences and all
    other knobs are held fixed.  Returns one run_experiment summary per
    fraction.

    Each sequence is rendered and fused once and tracked at every fraction.
    Every fraction is checked before the first sequence is built: a fraction
    outside [0, 1] and two fractions that share a directory raise
    ValueError.  Each fraction's run_experiment files go into
    output_dir/f_<fraction>/, and sweep.csv into output_dir.
    """
    if not fractions:
        raise ValueError("no completion fractions to sweep")
    by_dir = {}
    for f in fractions:
        f = float(f) or 0.0  # -0 is 0: one directory and one config value
        name = f"f_{f:g}"
        if name in by_dir:
            raise ValueError(f"completion fractions {by_dir[name]} and {f} "
                             f"both write to {name}/")
        by_dir[name] = f
    summaries = _run([replace(config, completion_fraction=f,
                              output_dir=str(Path(config.output_dir) / name))
                      for name, f in by_dir.items()])
    write_csv(Path(config.output_dir) / "sweep.csv", summaries)
    return summaries
