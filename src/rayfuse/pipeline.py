"""End-to-end desk-scale runs: synthetic scenes, the full fusion pass, and
training of the two supervised heads.

Scenes are generated deterministically from a seed: boxed point clusters in
front of a synthetic camera, a background scatter, and a synthetic feature
map standing in for a 2D backbone (which is out of scope; gradients never
flow into the feature map). A pass runs augment -> voxelize -> sample ->
rays -> fuse -> losses and fills a RunReport whose hash covers every numeric
output but no wall-clock timings, so reruns and different thread counts can
be compared bitwise.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .augment import (
    AugmentRecord,
    apply_flip,
    apply_rescale,
    apply_rotate,
    gt_sample_paste,
    load_object_db,
    warp_affine,
)
from .autodiff import Tensor, add, backward, collect_params, zero_grads
from .fusion import ViewMLPTable, fuse, gaussian_target_3d, make_fuse_conv, score_ray
from .gradcheck import finite_diff_grad_check
from .geometry import PointCloud, ProjectionTransform, VoxelField, compose_projection, make_camera_matrix, voxelize
from .rays import construct_ray, index_frame
from .sampler import (
    gaussian_target_2d,
    head_scores,
    heuristic_sample,
    importance_sample,
    make_sampler_head,
    partition_windows,
    sampler_loss,
)
from .fusion import ray_loss


@dataclass(frozen=True)
class Scene:
    points: PointCloud
    image: np.ndarray  # (H, W)
    feats: np.ndarray  # (C, H_f, W_f)
    boxes2d: tuple  # (u0, v0, u1, v1) floats in image pixels
    boxes3d: tuple  # 7-vectors
    calib: np.ndarray  # 3x4 world-to-image matrix
    grid: object
    view: int = 0


class SceneGenError(ValueError):
    pass


def _camera_matrix(cam):
    return make_camera_matrix(cam.fx, cam.fy, cam.cx, cam.cy, translation=(cam.tx, cam.ty, cam.tz))


def _smooth2d(x, k=5):
    # separable box filter along both spatial axes, edge-padded
    pad = k // 2
    for axis in (1, 2):
        n = x.shape[axis]
        xp = np.concatenate([x.take([0] * pad, axis), x, x.take([-1] * pad, axis)], axis)
        x = sum(xp.take(range(d, d + n), axis) for d in range(k)) / k
    return x


def _feature_map(source, channels, dims, rng):
    h, w = dims
    if source == "random":
        # smoothed seeded noise: spatially coherent like backbone features
        raw = _smooth2d(rng.normal(size=(channels, h, w)))
        std = raw.std(axis=(1, 2), keepdims=True)
        return raw / np.where(std > 0, std, 1.0)
    if source == "pattern":
        vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        base = ((uu // 2 + vv // 2) % 2).astype(np.float64) - 0.5
        scales = 1.0 + np.arange(channels)[:, None, None] / channels
        return base[None, :, :] * scales
    raise SceneGenError(f"unknown feature source {source!r}")


def gen_scene(cfg, seed=None):
    """Deterministic synthetic scene from the pipeline config.

    Every object is checked to contribute at least one LiDAR point that
    projects inside the image; a camera that misses all objects is an error.
    """
    rng = np.random.default_rng(cfg.scene.seed if seed is None else seed)
    grid = cfg.grid.spec()
    cam = cfg.camera
    mat = _camera_matrix(cam)
    dims = (cam.image_h, cam.image_w)
    vt = ProjectionTransform(mat, grid, cam.stride, dims)

    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.voxel_size) * np.asarray(grid.dims)
    boxes3d, boxes2d, clouds = [], [], []
    for _ in range(cfg.scene.objects):
        placed = False
        for _attempt in range(50):
            size = rng.uniform(0.6, 1.4, size=3) * min(grid.voxel_size[0] * 4, 1.5)
            center = rng.uniform(lo + size, hi - size)
            yaw = rng.uniform(-np.pi / 4, np.pi / 4)
            c, s = np.cos(yaw), np.sin(yaw)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            local = rng.uniform(-0.5, 0.5, size=(cfg.scene.points_per_object, 3)) * size
            pts = center + local @ rot.T
            uv, depth = vt.project_world(pts)
            visible = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < cam.image_w) & (uv[:, 1] >= 0) & (uv[:, 1] < cam.image_h)
            if not visible.any():
                continue
            corners = center + (np.array(np.meshgrid([-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5])).T.reshape(-1, 3) * size) @ rot.T
            cuv, cdepth = vt.project_world(corners)
            if (cdepth <= 0).any():
                continue
            u0, v0 = cuv.min(axis=0)
            u1, v1 = cuv.max(axis=0)
            boxes2d.append(
                (
                    float(np.clip(u0, 0, cam.image_w - 1)),
                    float(np.clip(v0, 0, cam.image_h - 1)),
                    float(np.clip(u1, 0, cam.image_w - 1)),
                    float(np.clip(v1, 0, cam.image_h - 1)),
                )
            )
            boxes3d.append(np.array([*center, *size, yaw]))
            clouds.append(np.column_stack([pts, rng.uniform(0.1, 0.9, size=len(pts))]))
            placed = True
            break
        if not placed:
            raise SceneGenError("camera misses every candidate object placement")
    if cfg.scene.objects > 0 and not boxes3d:
        raise SceneGenError("camera misses all objects")

    if cfg.scene.background_points > 0:
        bg = rng.uniform(lo, hi, size=(cfg.scene.background_points, 3))
        clouds.append(np.column_stack([bg, rng.uniform(0.1, 0.9, size=len(bg))]))
    points = PointCloud(np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 4)))

    image = rng.uniform(size=dims)
    feats = _feature_map(cfg.scene.feature_source, cfg.scene.channels, vt.feature_dims, rng)
    return Scene(points, image, feats, tuple(boxes2d), tuple(boxes3d), mat, grid)


class FusionHeads:
    """The trainable parts: sampler head, per-view coordinate MLPs, fusion conv."""

    def __init__(self, channels, n_views=1, rng=None):
        rng = rng or np.random.default_rng(0)
        self.sampler_head = make_sampler_head(channels, rng)
        self.mlps = ViewMLPTable(channels, n_views, rng)
        self.fuse_conv = make_fuse_conv(channels, rng=rng)

    def mlp_for(self, view):
        return self.mlps.for_view(view)

    def params(self):
        return collect_params(self.sampler_head, self.mlps, self.fuse_conv)


@dataclass
class RunReport:
    """Numeric outcome of one pass; ``timings`` stay outside the hash."""

    seed: int
    ray_count: int = 0
    fused_count: int = 0
    occupancy_before: int = 0
    occupancy_after: int = 0
    dropped_points: int = 0
    losses: dict = dc_field(default_factory=dict)
    field_digest: str = ""
    grad_check: float | None = None
    timings: dict = dc_field(default_factory=dict)

    def core(self):
        return {
            "seed": self.seed,
            "ray_count": self.ray_count,
            "fused_count": self.fused_count,
            "occupancy_before": self.occupancy_before,
            "occupancy_after": self.occupancy_after,
            "dropped_points": self.dropped_points,
            "losses": {k: float(v).hex() for k, v in sorted(self.losses.items())},
            "field_digest": self.field_digest,
        }

    def hash(self):
        return hashlib.sha256(json.dumps(self.core(), sort_keys=True).encode()).hexdigest()

    def to_json(self):
        out = dict(self.core())
        out["losses"] = {k: float(v) for k, v in sorted(self.losses.items())}
        out["hash"] = self.hash()
        out["grad_check"] = self.grad_check
        out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


def field_digest(field):
    """Bitwise digest of a voxel field's contents, independent of how it was built.

    Per voxel in (i, j, k) order: its index as three int64, then the raw bytes of its row.
    """
    data = np.hstack([field.indices().astype(np.int64), field.rows.view(np.int64)])
    return hashlib.sha256(data.tobytes()).hexdigest()


def scene_transform(scene, cfg, record=None):
    """The scene's camera projection, composed with an augmentation record if given."""
    cam = cfg.camera
    return compose_projection(scene.grid, scene.calib, record, cam.stride, (cam.image_h, cam.image_w))


def _scaled_affine(affine, stride):
    # image-pixel affine re-expressed in feature-map pixels
    out = affine.copy()
    out[:, 2] /= stride
    return out


def apply_augmentations(scene, cfg, rng):
    """Run the configured augmentations; returns (scene, record)."""
    record = AugmentRecord()
    points, image, feats = scene.points, scene.image, scene.feats
    boxes2d = [np.asarray(b, dtype=np.float64) for b in scene.boxes2d]
    if not cfg.augment.enabled:
        return scene, record

    cam = cfg.camera
    base_vt = scene_transform(scene, cfg)
    if cfg.augment.sample_db:
        objects = load_object_db(cfg.augment.sample_db)
        points, image, _ = gt_sample_paste(points, image, objects, base_vt)
        for obj in objects:
            boxes2d.append(np.asarray(obj.box2d, dtype=np.float64))

    # asymmetric rigs (reproject_only) keep the image fixed and fold every
    # static op into the projection, the way rotation always is
    steps = []
    if cfg.augment.flip:
        if cfg.augment.reproject_only:
            points = PointCloud(points.points * [1.0, -1.0, 1.0, 1.0])
            steps.append(AugmentRecord(flip=True, _point_matrix=np.diag([1.0, -1.0, 1.0, 1.0])))
        else:
            points, image, rec = apply_flip(points, image)
            steps.append(rec)
    if cfg.augment.rescale != 1.0:
        if cfg.augment.reproject_only:
            f = cfg.augment.rescale
            scaled = points.points.copy()
            scaled[:, :3] *= f
            points = PointCloud(scaled)
            steps.append(AugmentRecord(rescale=f, _point_matrix=np.diag([f, f, f, 1.0])))
        else:
            points, image, rec = apply_rescale(points, image, cfg.augment.rescale, base_vt, rng)
            steps.append(rec)
    if cfg.augment.rotate != 0.0:
        points, rec = apply_rotate(points, cfg.augment.rotate)
        steps.append(rec)
    for rec in steps:
        record = record.chain(rec)

    # keep boxes and the synthetic feature map aligned with the image
    new_boxes = []
    for box in boxes2d:
        corners = np.array([[box[0], box[1]], [box[2], box[1]], [box[0], box[3]], [box[2], box[3]]])
        moved = record.apply_pixels(corners)
        new_boxes.append(
            (
                float(np.clip(moved[:, 0].min(), 0, cam.image_w - 1)),
                float(np.clip(moved[:, 1].min(), 0, cam.image_h - 1)),
                float(np.clip(moved[:, 0].max(), 0, cam.image_w - 1)),
                float(np.clip(moved[:, 1].max(), 0, cam.image_h - 1)),
            )
        )
    feat_affine = _scaled_affine(record.affine2d, cam.stride)
    if not np.allclose(feat_affine, [[1, 0, 0], [0, 1, 0]]):
        feats = np.stack([warp_affine(ch, feat_affine) for ch in feats])

    out = Scene(points, image, feats, tuple(new_boxes), scene.boxes3d, scene.calib, scene.grid, scene.view)
    return out, record


def pixel_windows(scene, cfg, vt):
    """The sampler's window partition, counting the scene's points in front of the camera."""
    uv, depth = vt.project_world(scene.points.xyz)
    feat_px = [(int(u // vt.stride), int(v // vt.stride)) for u, v in np.floor(uv[depth > 0])]
    return partition_windows(vt.feature_dims, feat_px, cfg.sampler.window)


def _sample_pixels(scene, cfg, vt, heads, rng):
    partition = pixel_windows(scene, cfg, vt)
    if cfg.sampler.mode == "importance":
        return importance_sample(Tensor(scene.feats), heads.sampler_head, partition, cfg.sampler.rays, rng)
    return heuristic_sample(partition, cfg.sampler.mode, cfg.sampler.rays, rng)


def build_rays(vt, grid, pixels, field, threads=1):
    """Construct and anchor-mark rays for the given pixels, in pixel order.

    Every ray is a slice of one frame index; ``threads`` is accepted and ignored.
    """
    index = index_frame(vt, grid, field)
    return [construct_ray(vt, grid, p, index) for p in sorted(pixels)]


def _stage(timings, name, fn, *args):
    # run one pipeline stage: its wall time goes into ``timings``, its errors are tagged with its name
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        raise RuntimeError(f"stage {name}: {exc}") from exc
    timings[name] = time.perf_counter() - t0
    return result


class PreparedScene(NamedTuple):
    """A scene made ready for fusion: its projection, voxel field, rays and per-ray image features."""

    scene: Scene
    vt: ProjectionTransform
    field: VoxelField
    rays: list
    feats: list
    timings: dict  # seconds per stage: compose, voxelize, sample, rays


def prepare_scene(scene, cfg, heads, rng, record=None):
    """Project, voxelize, sample pixels and build one ray per sampled pixel.

    ``record`` is the augmentation already applied to ``scene``, if any;
    ``rng`` drives the pixel sampler. Errors are tagged with the stage name.
    """
    timings = {}
    vt = _stage(timings, "compose", scene_transform, scene, cfg, record)
    field = _stage(timings, "voxelize", voxelize, scene.points, scene.grid, cfg.scene.channels)
    sample = _stage(timings, "sample", _sample_pixels, scene, cfg, vt, heads, rng)
    rays = _stage(timings, "rays", build_rays, vt, scene.grid, sample.pixels, field)
    feats = [Tensor(scene.feats[:, r.pixel[1], r.pixel[0]]) for r in rays]
    return PreparedScene(scene, vt, field, rays, feats, timings)


def score_rays(prep, heads):
    """``score_ray`` weights of every prepared ray, in ray order, under the scene's view MLP."""
    mlp = heads.mlp_for(prep.scene.view)
    return [score_ray(ray, feat, mlp, prep.scene.grid) for ray, feat in zip(prep.rays, prep.feats)]


def scene_losses(scene, cfg, heads, weights):
    """(total, parts) of the supervised objective on one scene, given its rays' weights."""
    stride = cfg.camera.stride
    target2d = gaussian_target_2d([tuple(np.asarray(b) / stride) for b in scene.boxes2d], scene.feats.shape[1:])
    pred = head_scores(Tensor(scene.feats), heads.sampler_head)
    l_sampler = sampler_loss(pred, target2d)

    if any(len(w) for w in weights):
        targets = [gaussian_target_3d(w.ray, scene.grid, cfg.fusion.radius, cfg.fusion.target_sigma) for w in weights]
        l_ray = ray_loss(weights, targets, cfg.fusion.lambda_ray, cfg.fusion.gamma, cfg.fusion.alpha)
        total = add(l_sampler, l_ray)
    else:
        l_ray = None
        total = l_sampler
    parts = {
        "sampler": float(l_sampler.data),
        "ray": float(l_ray.data) if l_ray is not None else 0.0,
        "total": float(total.data),
    }
    return total, parts


def _fuse_scored(prep, heads, cfg):
    # score every ray once: the weights serve ray_wise fusion and the ray loss alike
    weights = score_rays(prep, heads)
    mlp = heads.mlp_for(prep.scene.view)
    fused, count = fuse(prep.field, prep.rays, prep.feats, mlp, heads.fuse_conv, cfg, weights)
    return fused, count, weights


def run_fusion_pass(cfg, heads=None, scene=None, seed=None, threads=None):
    """Full pass: augment, then ``prepare_scene``, then fuse and losses.

    Errors from individual stages propagate tagged with the stage name;
    ``threads`` is ignored. Returns (fused VoxelField, RunReport).
    """
    seed = cfg.scene.seed if seed is None else seed
    rng = np.random.default_rng(seed + 1)
    heads = heads or FusionHeads(cfg.scene.channels, rng=np.random.default_rng(seed))
    report = RunReport(seed=seed)
    timings = report.timings

    if scene is None:
        scene = _stage(timings, "gen_scene", gen_scene, cfg, seed)
    scene, record = _stage(timings, "augment", apply_augmentations, scene, cfg, rng)
    prep = prepare_scene(scene, cfg, heads, rng, record)
    timings.update(prep.timings)
    report.dropped_points = prep.field.dropped
    report.occupancy_before = len(prep.field)
    report.ray_count = len(prep.rays)

    fused, report.fused_count, weights = _stage(timings, "fuse", _fuse_scored, prep, heads, cfg.fusion)
    report.occupancy_after = len(fused)
    _, report.losses = _stage(timings, "losses", scene_losses, scene, cfg, heads, weights)
    report.field_digest = field_digest(fused)
    return fused, report


def train_heads(cfg, scenes=None, steps=None, lr=None):
    """Plain gradient descent on the sampler head, coordinate MLPs, and fusion conv.

    Rays are fixed per scene up front so the objective is a deterministic
    function of the parameters. Aborts with the step index if the loss goes
    non-finite. Returns (heads, per-step losses).
    """
    steps = cfg.train.steps if steps is None else steps
    lr = cfg.train.lr if lr is None else lr
    if steps < 1:
        raise ValueError("steps must be >= 1")
    heads = FusionHeads(cfg.scene.channels, rng=np.random.default_rng(cfg.scene.seed))
    if scenes is None:
        scenes = [gen_scene(cfg, cfg.scene.seed + i) for i in range(cfg.train.scenes)]

    prepared = [
        prepare_scene(scene, cfg, heads, np.random.default_rng(cfg.scene.seed + 1000 + i))
        for i, scene in enumerate(scenes)
    ]

    params = heads.params()
    losses = []
    for step in range(steps):
        zero_grads(params)
        total = 0.0
        for prep in prepared:  # rescored every step: the MLP changes between steps
            loss, _ = scene_losses(prep.scene, cfg, heads, score_rays(prep, heads))
            backward(loss)
            total += float(loss.data)
        total /= len(prepared)
        if not np.isfinite(total):
            raise RuntimeError(f"training diverged at step {step}")
        for p in params:
            p.data -= (lr / len(prepared)) * p.grad
        losses.append(total)
    return heads, losses


def gradient_check(cfg, n_samples=100):
    """Finite-difference check of the full objective on a fixed scene."""
    heads = FusionHeads(cfg.scene.channels, rng=np.random.default_rng(cfg.scene.seed))
    scene = gen_scene(cfg, cfg.scene.seed)
    prep = prepare_scene(scene, cfg, heads, np.random.default_rng(cfg.scene.seed + 1))

    def loss_fn():
        total, _ = scene_losses(scene, cfg, heads, score_rays(prep, heads))
        return total

    return finite_diff_grad_check(loss_fn, heads.params(), n_samples=n_samples, rng=np.random.default_rng(0))


def bench_rays(cfg, counts=(512, 1024, 2048, 4096), threads=1):
    """Time ray construction at several ray budgets and fit time ~ count.

    Returns (rows, slope, intercept, r_squared); rows are (count, seconds).
    """
    scene = gen_scene(cfg, cfg.scene.seed)
    vt = scene_transform(scene, cfg)
    field = voxelize(scene.points, scene.grid, cfg.scene.channels)
    fh, fw = vt.feature_dims
    rng = np.random.default_rng(cfg.scene.seed)
    rows = []
    for count in counts:
        pixels = [(int(u), int(v)) for u, v in zip(rng.integers(0, fw, count), rng.integers(0, fh, count))]
        times = []
        for _ in range(3):  # keep the fastest, so a pause of the host does not bend the fit
            t0 = time.perf_counter()
            build_rays(vt, scene.grid, pixels, field, threads)
            times.append(time.perf_counter() - t0)
        rows.append((count, min(times)))
    xs = np.array([r[0] for r in rows], dtype=np.float64)
    ys = np.array([r[1] for r in rows], dtype=np.float64)
    if len(rows) == 1:
        return rows, float(ys[0] / xs[0]), 0.0, 1.0
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return rows, float(slope), float(intercept), r2
