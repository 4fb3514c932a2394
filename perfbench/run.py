"""canontrack benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload's scene scripts are generated
from --seed, rendered and fused (set-up, repeated SETUP_REPEATS times and
reported as the median), then every sequence is tracked under every config
of the workload in whole rounds until --seconds of tracking time have been
measured.  Each tracked sequence is one operation; it fails if it raises or
if a check in checks.py fails.  After the rounds, the first operation is
tracked once more, untimed and uncounted, so that every run compares its
dumps across two tracking passes even when only one round fits.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of tracing.py with --trace 1.  The line before it holds the quality
outputs and digests of the run.
"""

from __future__ import annotations

import os

# Hold BLAS and OpenMP pools to one thread; this must precede numpy's import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MAX_CANDIDATES = 40  # sequence ids tried by _sequence_ids


@dataclass(frozen=True)
class Workload:
    config: dict  # ExperimentConfig fields besides seed
    fractions: tuple  # completion fractions tracked over the same set-up
    noise_free: bool = False  # also selects scenes, see _sequence_ids


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    # Largest render and fusion load; completion and pose take most of the
    # tracking time, mean-shift and the rescue pass almost none.
    "clean": Workload(
        config=dict(n_sequences=3, n_frames=4, n_objects=3, motion="slow",
                    image_width=240, image_height=180),
        fractions=(1.0,),
        noise_free=True,
    ),
    # The acceptance stress configuration, rendered once and tracked at
    # completion fractions 0 and 1: the paper's completion ablation.
    "sweep": Workload(
        config=dict(n_sequences=3, n_frames=6, n_objects=2, motion="fast",
                    jump_period=3, image_width=160, image_height=120,
                    noc_noise=0.01, occupancy_flip_rate=0.02,
                    detector_center_jitter=0.5, detector_extent_jitter=0.5,
                    detector_flip_rate=0.01),
        fractions=(0.0, 1.0),
    ),
    # Jittered votes and flipped objectness: mean-shift and the rescue pass
    # do most of the work over many short tracklets.
    "noisy": Workload(
        config=dict(n_sequences=6, n_frames=4, n_objects=3, motion="fast",
                    image_width=160, image_height=120,
                    detector_center_jitter=2.0, detector_flip_rate=0.2),
        fractions=(1.0,),
    ),
}


def _import_program():
    src = ROOT / "src"
    if not (src / "canontrack" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no canontrack sources under {src}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    from canontrack import experiment, pipeline
    return experiment, pipeline


def _set_up(experiment, pipeline, cfg, ids):
    scripts = [experiment.make_script(cfg, sid) for sid in ids]
    return [pipeline.build_sequence_data(s, cfg.voxel_size) for s in scripts]


def _fewest_object_voxels(data) -> int:
    """Fewest surface voxels inside one object's occupancy, and inside no
    other object's, over every object and frame of a sequence."""
    fewest = None
    for gt, surface in zip(data.gt_frames, data.surfaces):
        centers = surface.centers()
        inside = []
        for o in gt.objects:
            bits = o.template.canonical_occupancy.bits
            idx = np.floor(o.pose.inverse().apply(centers) * bits.shape[0])
            idx = idx.astype(np.int64)
            ok = np.all((idx >= 0) & (idx < bits.shape[0]), axis=1)
            hit = np.zeros(len(centers), dtype=bool)
            hit[ok] = bits[idx[ok, 0], idx[ok, 1], idx[ok, 2]]
            inside.append(hit)
        shared = np.sum(inside, axis=0) > 1
        for hit in inside:
            n = int(np.count_nonzero(hit & ~shared))
            fewest = n if fewest is None else min(fewest, n)
    return fewest


def _sequence_ids(experiment, pipeline, cfg, noise_free: bool) -> list:
    """Sequence ids of the workload.

    Noise-free tracking is perfect only for objects the detector proposes,
    and a proposal needs PipelineConfig.min_cluster_size surface voxels.
    Occluded objects, and small sparse ones despite the surface band of
    build_sequence_data, fall short of that (MOTA 2/3 and 3/4 on such
    three-object sequences).  As a workaround, a noise-free workload takes
    the first ids in which every object has that many surface voxels inside
    its own occupancy in every frame.  The oracle detector owns every such
    voxel (its ownership test uses the dilated occupancy), so this is a
    sufficient condition for a proposal per object.
    """
    if not noise_free:
        return list(range(cfg.n_sequences))
    need = pipeline.PipelineConfig().min_cluster_size
    ids = []
    for sid in range(MAX_CANDIDATES):
        data = _set_up(experiment, pipeline, cfg, [sid])[0]
        if _fewest_object_voxels(data) >= need:
            ids.append(sid)
            if len(ids) == cfg.n_sequences:
                return ids
    raise RuntimeError(f"only {len(ids)} of the first {MAX_CANDIDATES} "
                       f"sequences show every object with {need} voxels")


def _quality(scores: list) -> dict:
    """Aggregate quality outputs of one config over the workload's
    sequences, as experiment.run_experiment aggregates them."""
    rots = [s["median_rotation_error_deg"] for s in scores
            if s["median_rotation_error_deg"] is not None]
    sums = {k: sum(s["mota_breakdown"][k] for s in scores)
            for k in ("misses", "false_positives", "mismatches", "gt")}
    return {
        "mean_mota": statistics.fmean(s["mota"] for s in scores),
        **sums,
        "median_rotation_error_deg": statistics.median(rots) if rots else None,
        "detection_map_50": statistics.fmean(s["detection_map_50"] for s in scores),
        "completion_map_25": statistics.fmean(s["completion_map_25"] for s in scores),
        "mean_completion_iou": statistics.fmean(
            s["mean_completion_iou"] for s in scores),
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import checks
    import tracing

    experiment, pipeline = _import_program()
    workload = WORKLOADS[workload_name]
    cfg = experiment.ExperimentConfig(seed=seed, workers=1, **workload.config)
    cfg.validate()
    configs = [replace(cfg, completion_fraction=f) for f in workload.fractions]

    recorder = None
    if traced:
        recorder = tracing.Recorder()
        tracing.install(recorder)

    problems = []  # run-level check failures: they make `correct` false
    setup_times = []
    setup_digests = set()
    ids = _sequence_ids(experiment, pipeline, cfg, workload.noise_free)
    for _ in range(SETUP_REPEATS):
        datas = None
        t0 = time.perf_counter()
        datas = _set_up(experiment, pipeline, cfg, ids)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.add(checks.surfaces_digest(datas))
    if len(setup_digests) != 1:
        problems.append("repeated set-ups rendered different surfaces")

    operations = [(ci, k) for ci in range(len(configs)) for k in range(len(ids))]
    round_frames = sum(datas[k].script.frame_count for _, k in operations)
    attempted = failed = 0
    round_rates = []
    tracked_s = 0.0
    first_digests = None
    first_scores = None
    reported = set()
    wall_limit = time.perf_counter() + 3 * seconds  # bounds a run of failures
    while not round_rates or (tracked_s < seconds
                              and time.perf_counter() < wall_limit):
        round_s = 0.0
        digests = []
        scores_by_config = [[] for _ in configs]
        for ci, k in operations:
            attempted += 1
            if recorder is not None:
                recorder.operation = attempted
            c = configs[ci]
            result = scores = None
            t0 = time.perf_counter()
            try:
                result = pipeline.run_sequence(datas[k],
                                               c.pipeline_config(ids[k]))
                scores = experiment.score_sequence(result, c)
            except Exception:
                found = [traceback.format_exc()]
            round_s += time.perf_counter() - t0
            if scores is not None:
                try:
                    found = checks.sequence_problems(result, scores,
                                                     workload.noise_free)
                    digest = checks.dump_digest(result.dump)
                except Exception:
                    found = [traceback.format_exc()]
            result = None
            digests.append(None if found else digest)
            if found:
                failed += 1
                if (ci, k) not in reported:
                    reported.add((ci, k))
                    print(f"operation config {ci} sequence {ids[k]} failed:",
                          *found, sep="\n  ", file=sys.stderr)
                continue
            scores_by_config[ci].append(scores)
        tracked_s += round_s
        round_rates.append(round_frames / round_s)
        if first_digests is None:
            first_digests = digests
            first_scores = scores_by_config
        elif digests != first_digests:
            problems.append("a repeated round produced different dumps")
        if (len(configs) == 2 and all(len(s) == len(ids)
                                      for s in scores_by_config)):
            low, high = (statistics.fmean(s["mota"] for s in scores)
                         for scores in scores_by_config)
            if high < low:
                problems.append(f"mean MOTA at completion {workload.fractions[1]}"
                                f" ({high}) is below that at "
                                f"{workload.fractions[0]} ({low})")

    if first_digests[0] is not None:
        ci, k = operations[0]
        try:
            again = pipeline.run_sequence(datas[k],
                                          configs[ci].pipeline_config(ids[k]))
            if checks.dump_digest(again.dump) != first_digests[0]:
                problems.append("tracking a sequence again produced a "
                                "different dump")
        except Exception:
            problems.append("tracking a sequence again raised:\n"
                            + traceback.format_exc())
        again = None

    for p in dict.fromkeys(problems):
        print("check failed:", p, file=sys.stderr)

    setup_s = statistics.median(setup_times)
    track_fps = statistics.median(round_rates)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(traced),
        "sequence_ids": ids,
        "rounds": len(round_rates),
        "round_frames": round_frames,
        "tracked_s": tracked_s,
        "setup_times_s": setup_times,
        "round_fps": round_rates,
        "quality": {str(f): _quality(s) for f, s in
                    zip(workload.fractions, first_scores) if s},
        "dump_digests": first_digests,
        "surfaces_digest": setup_digests.pop() if len(setup_digests) == 1 else None,
    }
    if traced:
        metrics, tail = tracing.per_layer_metrics(recorder)
        detail["frame_ms_tail_percentile"] = tail
        detail["frame_samples"] = len(recorder.samples["pipeline.frame_ms"])
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"trace-{workload_name}-seed{seed}.json")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "track_fps": {"value": track_fps, "unit": "frames/s"},
            "e2e_fps": {"value": round_frames / (setup_s + round_frames / track_fps),
                        "unit": "frames/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
