"""Canonical-correspondence 3D multi-object tracking on voxelized RGB-D data.

The pipeline: per-frame TSDF fusion of rendered depth, oracle-backed object
detection over the surface voxels, completion and canonical-correspondence
prediction per detection, closed-form similarity pose solving, frame-by-frame
tracklet association with a canonical-space rescue pass, and CLEAR-MOT
evaluation.
"""

__version__ = "0.1.0"
