"""Canonical-correspondence 3D multi-object tracking on voxelized RGB-D data.

The pipeline: per-frame TSDF fusion of rendered depth, oracle-backed object
detection over the surface voxels, completion and canonical-correspondence
prediction per detection, closed-form similarity pose solving, frame-by-frame
tracklet association with a canonical-space rescue pass, and CLEAR-MOT
evaluation.
"""

from .geom import Box3, SimilarityTransform, box_iou_3d, volumetric_iou
from .pose import (CorrespondenceSet, DegenerateCorrespondences,
                   rotation_error, umeyama_solve)
from .voxel import (DenseTsdfGrid, OccupancyGrid, SparseSurfaceGrid, binarize,
                    extract_surface, fuse_depth_frame)

__version__ = "0.1.0"

__all__ = [
    "Box3",
    "SimilarityTransform",
    "box_iou_3d",
    "volumetric_iou",
    "CorrespondenceSet",
    "DegenerateCorrespondences",
    "rotation_error",
    "umeyama_solve",
    "DenseTsdfGrid",
    "OccupancyGrid",
    "SparseSurfaceGrid",
    "binarize",
    "extract_surface",
    "fuse_depth_frame",
    "__version__",
]
