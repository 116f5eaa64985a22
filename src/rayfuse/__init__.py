"""Camera-to-LiDAR feature fusion along per-pixel voxel rays.

The library covers the full desk-scale path: gradient-checked numeric
kernels (`autodiff`, `losses`, `gradcheck`), projection geometry and
voxelization (`geometry`), alignment-preserving augmentation (`augment`),
ray seeding (`sampler`), exact per-pixel ray construction (`rays`), the
fusion modes with their Gaussian supervision (`fusion`), and synthetic
end-to-end scenes, training, and benchmarking (`pipeline`, `config`,
`cli`).
"""

from .augment import AugmentRecord, SampledObject, apply_flip, apply_rescale, apply_rotate, fit_affine, gt_sample_paste
from .autodiff import MLP, Conv2d, Module2D, Param, Tensor, backward
from .config import PipelineConfig, load_config
from .fusion import (
    FusionConfig,
    RayWeights,
    Target3D,
    fuse,
    gaussian_target_3d,
    ray_loss,
    score_ray,
    select_top,
)
from .geometry import (
    GridSpec,
    PointCloud,
    ProjectionTransform,
    VoxelField,
    compose_projection,
    make_camera_matrix,
    parse_kitti_calib,
    voxelize,
)
from .gradcheck import finite_diff_grad_check
from .losses import bce_loss, focal_loss
from .pipeline import FusionHeads, RunReport, Scene, gen_scene, prepare_scene, run_fusion_pass, train_heads
from .rays import Ray, brute_force_ray_oracle, construct_ray, index_frame, mark_anchors
from .sampler import (
    PixelSampleSet,
    Target2D,
    WindowPartition,
    gaussian_target_2d,
    heuristic_sample,
    importance_sample,
    partition_windows,
    sampler_loss,
)

__version__ = "0.1.0"
