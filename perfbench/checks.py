"""Correctness checks the benchmark applies to every tracked sequence.

The checks are written apart from the program: the CLEAR-MOT recount does not
import `canontrack.metrics`, and the pose check compares rotation matrices
directly instead of calling `canontrack.pose.rotation_error`.  They read only
the tracklet dump, the ground-truth frames and the detection records that
`pipeline.run_sequence` returns.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.optimize import linear_sum_assignment

MOTA_GATE_M = 0.25
POSE_ROTATION_TOL_RAD = 1e-9
POSE_TRANSLATION_TOL_M = 1e-9
POSE_SCALE_TOL = 1e-9

# Yaw angles of the rotations that map each symmetric template onto itself;
# every symmetry axis is the canonical z axis.
_SYMMETRY_YAWS = {
    "none": (0.0,),
    "two_fold": (0.0, np.pi),
    "four_fold": (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi),
}


def clear_mot(pred_frames: dict, gt_frames: dict,
              gate: float = MOTA_GATE_M) -> dict:
    """CLEAR-MOT error counts (Bernardin & Stiefelhagen 2008).

    Both arguments map a frame index to {track id: (3,) center}.  Frames are
    taken in order over the ground-truth frames.  In each frame a ground-truth
    object first keeps the hypothesis it was last matched to, if that
    hypothesis is present, free and within `gate` metres.  The rest are
    matched by a minimum-distance assignment, and pairs farther apart than
    the gate are dropped.  A new match that differs from an object's last
    match is a mismatch.  Unmatched objects are misses and unmatched
    hypotheses false positives.
    """
    misses = false_positives = mismatches = gt_total = 0
    last: dict = {}  # ground-truth id -> hypothesis id of its latest match
    for f in sorted(gt_frames):
        gts = gt_frames[f]
        hyps = pred_frames.get(f, {})
        matched: dict = {}
        for gid in sorted(gts):
            hid = last.get(gid)
            if (hid in hyps and hid not in matched.values()
                    and _distance(gts[gid], hyps[hid]) <= gate):
                matched[gid] = hid
        free_g = [g for g in sorted(gts) if g not in matched]
        taken = set(matched.values())
        free_h = [h for h in sorted(hyps) if h not in taken]
        if free_g and free_h:
            dist = np.array([[_distance(gts[g], hyps[h]) for h in free_h]
                             for g in free_g])
            for i, j in zip(*linear_sum_assignment(dist)):
                if dist[i, j] > gate:
                    continue
                gid, hid = free_g[i], free_h[j]
                if gid in last and last[gid] != hid:
                    mismatches += 1
                matched[gid] = hid
        last.update(matched)
        misses += len(gts) - len(matched)
        false_positives += len(hyps) - len(matched)
        gt_total += len(gts)
    return {"misses": misses, "false_positives": false_positives,
            "mismatches": mismatches, "gt": gt_total}


def _distance(a, b) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(d @ d))


def dump_centers(dump: dict) -> dict:
    """{frame: {tracklet id: box center}} from a tracklet dump."""
    frames: dict = {}
    for t in dump["tracklets"]:
        for rec in t["frames"]:
            frames.setdefault(rec["frame"], {})[t["id"]] = rec["box"]["center"]
    return frames


def gt_centers(gt_frames) -> dict:
    """{frame: {object id: box center}} from ground-truth frames."""
    return {gt.index: {o.object_id: o.box.center for o in gt.objects}
            for gt in gt_frames}


def dump_problems(dump: dict) -> list:
    """Structural faults of a tracklet dump, as messages."""
    problems = []
    n = dump.get("frame_count")
    if not isinstance(n, int) or n < 1:
        return [f"frame_count is {n!r}"]
    ids = [t["id"] for t in dump["tracklets"]]
    if len(set(ids)) != len(ids):
        problems.append(f"duplicate tracklet ids in {sorted(ids)}")
    for t in dump["tracklets"]:
        frames = [rec["frame"] for rec in t["frames"]]
        if not frames:
            problems.append(f"tracklet {t['id']} is empty")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            problems.append(f"tracklet {t['id']} frames not increasing: {frames}")
        if any(not 0 <= f < n for f in frames):
            problems.append(f"tracklet {t['id']} frames outside [0, {n}): {frames}")
    return problems


def _yaw(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_residual_rad(pred: np.ndarray, gt: np.ndarray,
                          symmetry: str) -> float:
    """Angle between two rotations, minimised over the template's symmetry
    group.  It is computed from the Frobenius distance, which keeps full
    precision near zero where arccos of the trace does not."""
    m = gt.T @ pred
    if symmetry == "cylindrical":
        yaws = (float(np.arctan2(m[1, 0], m[0, 0])),)
    else:
        yaws = _SYMMETRY_YAWS[symmetry]
    frob = min(float(np.linalg.norm(m - _yaw(a))) for a in yaws)
    return 2.0 * float(np.arcsin(min(1.0, frob / (2.0 * np.sqrt(2.0)))))


def pose_errors(result) -> list:
    """(rotation rad, translation m, relative scale) error of every solved
    pose against the ground-truth pose of its matched object."""
    objects = {(gt.index, o.object_id): o
               for gt in result.gt_frames for o in gt.objects}
    errors = []
    for d in result.detections:
        if d.pred_pose is None or d.gt_object_id is None:
            continue
        o = objects[(d.frame, d.gt_object_id)]
        errors.append((
            rotation_residual_rad(d.pred_pose.rotation, o.pose.rotation,
                                  o.symmetry),
            float(np.linalg.norm(d.pred_pose.translation - o.pose.translation)),
            abs(d.pred_pose.scale - o.pose.scale) / o.pose.scale,
        ))
    return errors


def sequence_problems(result, scores: dict, noise_free: bool) -> list:
    """Every check on one tracked sequence; an empty list means it passed."""
    problems = dump_problems(result.dump)
    if problems:
        return problems
    recount = clear_mot(dump_centers(result.dump), gt_centers(result.gt_frames))
    program = {k: scores["mota_breakdown"][k] for k in recount}
    if recount != program:
        problems.append(f"CLEAR-MOT recount {recount} != score_sequence {program}")
    if not noise_free:
        return problems
    if scores["mota"] != 1.0 or program["mismatches"] != 0:
        problems.append(f"noise-free MOTA {scores['mota']} with "
                        f"{program['mismatches']} mismatches")
    matched = [d for d in result.detections if d.gt_object_id is not None]
    if not matched or any(d.completion_iou != 1.0 for d in matched):
        problems.append("noise-free completion IoU is not 1.0 everywhere")
    errors = pose_errors(result)
    if len(errors) != len(matched):
        problems.append(f"{len(matched) - len(errors)} matched detections "
                        "have no solved pose")
    for rot, trans, scale in errors:
        if (rot > POSE_ROTATION_TOL_RAD or trans > POSE_TRANSLATION_TOL_M
                or scale > POSE_SCALE_TOL):
            problems.append(f"noise-free pose error rot {rot:.3g} rad, "
                            f"trans {trans:.3g} m, scale {scale:.3g}")
            break
    return problems


def dump_digest(dump: dict) -> str:
    text = json.dumps(dump, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def surfaces_digest(datas) -> str:
    """Digest of every rendered sequence's per-frame surface voxels."""
    h = hashlib.sha256()
    for data in datas:
        for surface in data.surfaces:
            h.update(np.ascontiguousarray(surface.coords).tobytes())
            h.update(b"|")
    return h.hexdigest()
