# The four ways image features enter the voxel field.
#
# single      -> only voxels that already hold LiDAR points, weight 1
# local_*     -> Gaussian balls around those anchors (aggregate or propagate)
# ray_wise    -> every voxel on the ray competes; the top quarter (of the
#                frame's occupied-voxel count) gets the weighted feature,
#                including previously empty voxels ("completion")
import numpy as np

from rayfuse.config import load_config
from rayfuse.fusion import gaussian_target_3d, score_ray
from rayfuse.geometry import ProjectionTransform, voxelize
from rayfuse.pipeline import FusionHeads, build_rays, gen_scene, ray_feature, run_fusion_pass

cfg = load_config()
scene = gen_scene(cfg)
vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
field = voxelize(scene.points, scene.grid, cfg.scene.channels)
print(f"scene: {len(scene.points)} points -> {len(field)} occupied voxels\n")

for mode in ("single", "local_aggregate", "local_propagate", "ray_wise"):
    run = load_config(overrides=[f"fusion.mode={mode}"])
    _, report = run_fusion_pass(run)
    print(f"{mode:16s} fused={report.fused_count:3d} occupancy {report.occupancy_before:3d} -> "
          f"{report.occupancy_after:3d}  ray loss {report.losses['ray']:.3f}")

# look inside one ray: weights vs their Gaussian supervision
heads = FusionHeads(cfg.scene.channels, rng=np.random.default_rng(cfg.scene.seed))
pixel = vt.project(field.indices()[len(field) // 2])
ray = build_rays(vt, scene.grid, [pixel], field)[0]
weights = score_ray(ray, ray_feature(scene, ray.pixel), heads.mlp_for(0), scene.grid)
target = gaussian_target_3d(ray, scene.grid, cfg.fusion.radius, cfg.fusion.target_sigma)
print(f"\nray through pixel {pixel}: {len(ray)} voxels, {len(ray.anchors)} anchors")
print("omega (untrained):", np.array_str(weights.values[:8], precision=3))
print("target           :", np.array_str(target.values[:8], precision=3))
print("(training pushes omega toward the target; see 05_train_heads.py)")
