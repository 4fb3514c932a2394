"""Tests of the benchmark's own checks.

    python3 -m pytest -q perfbench/test_checks.py

The CLEAR-MOT recount is checked against hand-counted scenarios (the ten of
acceptance criterion 4 with their full error breakdown, plus two that pin
down its one-to-one matching and frames without ground truth), then against
the program's scorer on random well-separated scenes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (clear_mot, dump_centers, dump_problems,  # noqa: E402
                    rotation_residual_rad)


def at(x):
    return np.array([x, 0.0, 0.0])


def frames(spec):
    """{frame: [(id, x), ...]} -> {frame: {id: center}}"""
    return {f: {tid: at(x) for tid, x in objs} for f, objs in spec.items()}


# (ground truth, hypotheses, misses, false positives, mismatches, gt count)
SCENARIOS = {
    "perfect tracking": (
        {f: [(0, 0.0), (1, 2.0)] for f in range(3)},
        {f: [(10, 0.0), (11, 2.0)] for f in range(3)}, 0, 0, 0, 6),
    "nothing predicted": (
        {f: [(0, 0.0)] for f in range(3)}, {}, 3, 0, 0, 3),
    "one identity switch": (
        {f: [(0, 0.0)] for f in range(3)},
        {0: [(10, 0.0)], 1: [(10, 0.0)], 2: [(11, 0.0)]}, 0, 0, 1, 3),
    "persistent extra hypothesis": (
        {f: [(0, 0.0)] for f in range(3)},
        {f: [(10, 0.0), (11, 50.0)] for f in range(3)}, 0, 3, 0, 3),
    "just inside the gate": (
        {f: [(0, 0.0)] for f in range(2)},
        {f: [(10, 0.25 - 1e-6)] for f in range(2)}, 0, 0, 0, 2),
    "just outside the gate": (
        {f: [(0, 0.0)] for f in range(2)},
        {f: [(10, 0.25 + 1e-6)] for f in range(2)}, 2, 2, 0, 2),
    "kept match beats a closer newcomer": (
        {0: [(0, 0.0)], 1: [(0, 0.0)]},
        {0: [(10, 0.05)], 1: [(10, 0.2), (11, 0.01)]}, 0, 1, 0, 2),
    "two hypotheses swap": (
        {0: [(0, 0.0), (1, 1.0)], 1: [(0, 0.0), (1, 1.0)]},
        {0: [(10, 0.0), (11, 1.0)], 1: [(10, 1.0), (11, 0.0)]}, 0, 0, 2, 4),
    "one-frame dropout, same id resumes": (
        {f: [(0, 0.0)] for f in range(3)},
        {0: [(10, 0.0)], 2: [(10, 0.0)]}, 1, 0, 0, 3),
    "reacquired under a new id after a gap": (
        {f: [(0, 0.0)] for f in range(4)},
        {0: [(10, 0.0)], 1: [(10, 0.0)], 3: [(11, 0.0)]}, 1, 0, 1, 4),
    # Objects 0 and 1 were both last matched to hypothesis 10.  In frame 2
    # object 0 keeps it, so object 1 cannot also keep it and is a miss.
    "a hypothesis is kept by one object only": (
        {0: [(0, 0.0)], 1: [(1, 0.0)], 2: [(0, 0.0), (1, 0.1)]},
        {0: [(10, 0.0)], 1: [(10, 0.0)], 2: [(10, 0.05)]}, 1, 0, 0, 4),
    "hypothesis in a frame without ground truth": (
        {0: [(0, 0.0)], 1: []},
        {0: [(10, 0.0)], 1: [(10, 0.0)]}, 0, 1, 0, 1),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_recount_matches_hand_count(name):
    gt, hyp, misses, fps, mme, n = SCENARIOS[name]
    got = clear_mot(frames(hyp), frames(gt))
    assert got == {"misses": misses, "false_positives": fps,
                   "mismatches": mme, "gt": n}


def test_recount_matches_program_on_separated_scenes():
    """Objects at least 1 m apart, as in every workload: the recount and
    canontrack.metrics.mota agree on every count."""
    from canontrack.metrics import TrackRecord, mota

    rng = np.random.default_rng(0)
    for _ in range(200):
        n_obj = int(rng.integers(1, 4))
        n_frames = int(rng.integers(1, 8))
        gt, hyp = {}, {}
        for f in range(n_frames):
            gt[f] = {g: at(1.5 * g) for g in range(n_obj)
                     if rng.random() < 0.8}
            hyp[f] = {}
            for g, c in gt[f].items():
                if rng.random() < 0.85:
                    tid = int(rng.integers(0, 2 * n_obj))
                    hyp[f].setdefault(tid, c + rng.normal(0.0, 0.15, 3))
            if rng.random() < 0.3:
                hyp[f].setdefault(99, at(20.0))
        program = mota(
            {f: [TrackRecord(t, c) for t, c in h.items()] for f, h in hyp.items()},
            {f: [TrackRecord(t, c) for t, c in g.items()] for f, g in gt.items()})
        assert clear_mot(hyp, gt) == {
            "misses": sum(program.misses),
            "false_positives": sum(program.false_positives),
            "mismatches": sum(program.mismatches),
            "gt": program.total_gt,
        }


def _dump(tracklets, frame_count=3):
    return {"version": 1, "frame_count": frame_count, "tracklets": [
        {"id": tid, "class_id": 0,
         "frames": [{"frame": f, "box": {"center": [0.0, 0.0, 0.0],
                                         "extents": [1.0, 1.0, 1.0]},
                     "pose": None} for f in fs]}
        for tid, fs in tracklets]}


def test_dump_structure():
    assert dump_problems(_dump([(0, [0, 1, 2]), (1, [1])])) == []
    assert dump_centers(_dump([(4, [2])])) == {2: {4: [0.0, 0.0, 0.0]}}
    assert "duplicate" in dump_problems(_dump([(0, [0]), (0, [1])]))[0]
    assert "not increasing" in dump_problems(_dump([(0, [1, 1])]))[0]
    assert "outside" in dump_problems(_dump([(0, [0, 3])]))[0]


def _yaw(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_rotation_residual_up_to_symmetry():
    r = _yaw(0.7) @ np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    assert rotation_residual_rad(r, r, "none") < 1e-12
    assert rotation_residual_rad(r @ _yaw(np.pi), r, "two_fold") < 1e-12
    assert rotation_residual_rad(r @ _yaw(np.pi / 2), r, "four_fold") < 1e-12
    assert rotation_residual_rad(r @ _yaw(1.234), r, "cylindrical") < 1e-12
    assert rotation_residual_rad(r @ _yaw(np.pi), r, "none") == \
        pytest.approx(np.pi)
    assert rotation_residual_rad(r @ _yaw(np.pi / 2), r, "two_fold") == \
        pytest.approx(np.pi / 2)
    assert rotation_residual_rad(r @ _yaw(1e-7), r, "none") == \
        pytest.approx(1e-7, rel=1e-6)
