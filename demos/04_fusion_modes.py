# The four ways image features enter the voxel field.
#
# single      -> only voxels that already hold LiDAR points, weight 1
# local_*     -> Gaussian balls around those anchors (aggregate or propagate)
# ray_wise    -> every voxel on the ray competes; the top quarter (of the
#                frame's occupied-voxel count) gets the weighted feature,
#                including previously empty voxels ("completion")
import numpy as np

from rayfuse.config import load_config
from rayfuse.fusion import gaussian_target_3d
from rayfuse.pipeline import FusionHeads, gen_scene, prepare_scene, run_fusion_pass, score_rays

cfg = load_config()
heads = FusionHeads(cfg.scene.channels, rng=np.random.default_rng(cfg.scene.seed))
prep = prepare_scene(gen_scene(cfg), cfg, heads, np.random.default_rng(cfg.scene.seed + 1))
print(f"scene: {len(prep.scene.points)} points -> {len(prep.field)} occupied voxels, {len(prep.rays)} rays\n")

for mode in ("single", "local_aggregate", "local_propagate", "ray_wise"):
    run = load_config(overrides=[f"fusion.mode={mode}"])
    _, report = run_fusion_pass(run)
    print(f"{mode:16s} fused={report.fused_count:3d} occupancy {report.occupancy_before:3d} -> "
          f"{report.occupancy_after:3d}  ray loss {report.losses['ray']:.3f}")

# look inside the ray with the most anchors: weights vs their Gaussian supervision
weights = max(score_rays(prep, heads), key=lambda w: len(w.ray.anchors))
ray = weights.ray
target = gaussian_target_3d(ray, prep.scene.grid, cfg.fusion.radius, cfg.fusion.target_sigma)
print(f"\nray through pixel {ray.pixel}: {len(ray)} voxels, {len(ray.anchors)} anchors")
print("omega (untrained):", np.array_str(weights.values[:8], precision=3))
print("target           :", np.array_str(target.values[:8], precision=3))
print("(training pushes omega toward the target; see 05_train_heads.py)")
