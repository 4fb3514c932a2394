"""Canonical-correspondence 3D multi-object tracking on voxelized RGB-D data.

The pipeline: per-frame TSDF fusion of rendered depth, oracle-backed object
detection over the surface voxels, completion and canonical-correspondence
prediction per detection, closed-form similarity pose solving, frame-by-frame
tracklet association with a canonical-space rescue pass, and CLEAR-MOT
evaluation.
"""

import ctypes
import os

__version__ = "0.1.0"


def _on_glibc() -> bool:
    """Whether the C library is glibc, whose mallopt parameters this sets."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()):
        return False
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (OSError, ValueError):
        return False


def _keep_freed_memory(libc) -> None:
    """Stop glibc from returning freed heap memory to the system.

    By default glibc trims the top of its heap after each detection frees its
    tens of MB of (M, 3) temporaries, and the next detection faults every page
    back in.  Every per-frame array (the largest is the 6 MiB (64^3, 3) NOC
    noise draw) stays under the mmap threshold, and the trim threshold sits
    above every benchmark workload's peak RSS.  Both are set because setting
    either one turns off glibc's dynamic threshold.  The allocator decides
    where bytes live, not what they hold, so no result depends on this.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


if _on_glibc():
    _keep_freed_memory(ctypes.CDLL(None))
