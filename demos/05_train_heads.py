# Training the two supervised heads with plain gradient descent.
#
# The objective is 2 x BCE(sampler head vs 2D box Gaussians)
#                + 5 x focal(ray weights vs 3D anchor Gaussians).
# Image features stay frozen; only the sampler convs, the coordinate MLP,
# and the fusion conv carry gradients (the last gets none from this loss
# and simply holds still).
import numpy as np

from rayfuse.config import load_config
from rayfuse.pipeline import gen_scene, gradient_check, prepare_scene, score_rays, train_heads

cfg = load_config(overrides=["train.steps=120"])

err = gradient_check(cfg, n_samples=40)
print(f"finite-difference check of the full objective: max rel err {err:.2e}\n")

heads, losses = train_heads(cfg)
for i in range(0, len(losses), 20):
    bar = "#" * int(losses[i] * 12)
    print(f"step {i:4d}  loss {losses[i]:7.4f}  {bar}")
print(f"step {len(losses) - 1:4d}  loss {losses[-1]:7.4f}")

# after training, weight mass concentrates at anchor voxels
anchors, far = [], []
for i in range(cfg.train.scenes):
    prep = prepare_scene(gen_scene(cfg, cfg.scene.seed + i), cfg, heads, np.random.default_rng(cfg.scene.seed + 1000 + i))
    for weights in score_rays(prep, heads):
        ray, w = weights.ray, weights.values
        if not len(ray):
            continue
        pos = np.asarray(ray.voxels, dtype=np.float64)
        if ray.anchors:
            d = np.sqrt(((pos[:, None, :] - np.asarray(ray.anchors, float)[None]) ** 2).sum(2)).min(1)
            anchors.extend(w[d == 0.0])
            far.extend(w[d > cfg.fusion.radius])
        else:
            far.extend(w)
print(f"\nmean omega at anchors:        {np.mean(anchors):.3f}")
print(f"mean omega beyond the radius: {np.mean(far):.3f}")
