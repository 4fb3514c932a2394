"""Per-sequence pipeline: rendered depth -> TSDF surface -> oracle detection
fields -> proposals -> completion/correspondences -> pose -> tracking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import complete, detect, pose, synth, track
from .geom import box_iou_3d, volumetric_iou
from .voxel import (OBJECT_RESOLUTION, DenseTsdfGrid, extract_surface,
                    flat_index, fuse_depth_frame, lattice_coords)

GT_MATCH_IOU = 0.05  # proposal -> ground-truth pairing for the oracles


@dataclass
class PipelineConfig:
    """What tracking one sequence reads: besides sequence_id, each field is
    the ExperimentConfig field of the same name (see its comments)."""

    seed: int = 0
    sequence_id: int = 0
    completion_fraction: float = 1.0
    occupancy_flip_rate: float = 0.0
    noc_noise: float = 0.0
    detector_flip_rate: float = 0.0
    detector_center_jitter: float = 0.0
    detector_extent_jitter: float = 0.0
    no_correspondence_matching: bool = False
    min_cluster_size: ClassVar[int] = detect.MIN_CLUSTER_SIZE


@dataclass
class SequenceData:
    """Rendered frames plus the per-frame surface grids, independent of any
    degradation knob or ablation flag; generate once, run many ablations
    (experiment.track_sequence tracks one under every config of a sweep)."""

    script: synth.SceneScript
    gt_frames: list  # GroundTruthFrame per frame
    surfaces: list  # SparseSurfaceGrid per frame


@dataclass
class DetectionRecord:
    """One proposal of one frame, kept by the tracker and read by the
    scorer; only the scorer reads gt_object_id and completion_iou."""

    frame: int
    proposal: detect.Proposal
    gt_object_id: int | None
    pred_pose: pose.SimilarityTransform | None
    completion_iou: float | None
    canonical: np.ndarray  # (R, R, R) bool canonical reconstruction


@dataclass
class SequenceResult:
    dump: dict
    gt_frames: list
    detections: list  # DetectionRecord per kept proposal
    detection_losses: list  # (L_o, L_c, L_d) per frame


def build_sequence_data(script: synth.SceneScript,
                        voxel_size: float) -> SequenceData:
    """Render the script and extract the per-frame surface grids.

    The ground truth's visibility band is the TSDF truncation, three voxels
    (DenseTsdfGrid.truncation).  The pipeline extracts a full-voxel surface
    band, which keeps about five times as many surface voxels as a
    half-voxel band, so that most objects give the detector more votes than
    its MIN_CLUSTER_SIZE filter needs.  It does not guarantee that: a small
    object seen over little of its surface can still own fewer surface
    voxels and go unproposed (ROADMAP, "Measured and parked": small objects
    under the cluster filter).
    """
    gt_frames = []
    surfaces = []
    for f in range(script.frame_count):
        empty = DenseTsdfGrid.for_bounds(script.scene_bounds, voxel_size)
        depth, gt = synth.render_frame(script, f,
                                       visibility_band=empty.truncation)
        grid = fuse_depth_frame(depth, script.intrinsics, gt.camera_pose,
                                empty)
        gt_frames.append(gt)
        surfaces.append(extract_surface(grid, band=voxel_size))
    return SequenceData(script, gt_frames, surfaces)


def _scatter_canonical(coords: np.ndarray) -> np.ndarray:
    """Nearest-neighbor scatter of (N, 3) canonical coordinates onto the
    canonical lattice as a bool grid; collisions max-pool (binary or).
    Lattice coordinates are clipped to the lattice, then set by one flat
    index."""
    res = OBJECT_RESOLUTION
    idx = lattice_coords(coords, res)
    np.clip(idx, 0, res - 1, out=idx)
    grid = np.zeros(res ** 3, dtype=bool)
    grid[flat_index(idx, res).astype(np.int64)] = True
    return grid.reshape((res,) * 3)


def _complete_detection(proposal: detect.Proposal, gt_obj, frame_idx: int,
                        config: PipelineConfig) -> tuple:
    """(pose or None, completion IoU, canonical grid) of a proposal matched
    to a ground-truth object.  The crop-sized grids of the completion are
    freed on return, before the next detection's."""
    rng = complete.detection_rng(
        config.seed, config.sequence_id, frame_idx, gt_obj.object_id)
    out = complete.oracle_complete(
        proposal.box, gt_obj.template, gt_obj.pose,
        gt_obj.visible_voxels, config, rng)
    pred_pose = None
    if len(out.noc) >= 3:
        try:
            pred_pose = pose.solve_pose(out.noc, out.centers)
        except pose.DegenerateCorrespondences:
            pass
    return (pred_pose, volumetric_iou(out.occupancy, out.full),
            _scatter_canonical(out.noc))


def process_frame(data: SequenceData, frame_idx: int,
                  config: PipelineConfig) -> tuple:
    """Returns (losses, DetectionRecords): one record per proposal, which
    the tracker and the scorer both read."""
    gt = data.gt_frames[frame_idx]
    surface = data.surfaces[frame_idx]
    field_rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, config.sequence_id, frame_idx, 1)))
    fields, targets = detect.make_oracle_fields(
        surface, gt.objects, config, field_rng)
    losses = detect.detection_losses(fields, targets)
    proposals = detect.mean_shift_proposals(fields)

    records = []
    for proposal in proposals:
        gt_obj = None
        best = GT_MATCH_IOU
        for obj in gt.objects:
            iou = box_iou_3d(proposal.box, obj.box)
            if iou >= best:
                gt_obj, best = obj, iou

        pred_pose = None
        completion_iou = None
        canonical = np.zeros((OBJECT_RESOLUTION,) * 3, dtype=bool)
        if gt_obj is not None:
            pred_pose, completion_iou, canonical = _complete_detection(
                proposal, gt_obj, frame_idx, config)

        records.append(DetectionRecord(
            frame=frame_idx,
            proposal=proposal,
            gt_object_id=None if gt_obj is None else gt_obj.object_id,
            pred_pose=pred_pose,
            completion_iou=completion_iou,
            canonical=canonical,
        ))
    # The records stay at index 1, where perfbench's frame trace reads them.
    return losses, records


def run_sequence(data: SequenceData, config: PipelineConfig) -> SequenceResult:
    tracker = track.Tracker(enable_rescue=not config.no_correspondence_matching)
    all_records = []
    all_losses = []
    for f in range(data.script.frame_count):
        losses, records = process_frame(data, f, config)
        tracker.step(records)
        all_records.extend(records)
        all_losses.append(losses)
    tracker.finish()
    return SequenceResult(
        dump=tracker.dump(),
        gt_frames=data.gt_frames,
        detections=all_records,
        detection_losses=all_losses,
    )
