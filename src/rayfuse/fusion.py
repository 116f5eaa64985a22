"""Fusing image features into the voxel field along rays.

Four modes. ``single`` touches only anchor voxels (those holding LiDAR
points) with weight 1. ``local_aggregate`` pulls Gaussian-weighted ray
features into each anchor's radius-r ball; ``local_propagate`` pushes each
anchor's fused feature out to the ball. ``ray_wise`` scores every ray voxel
with the sigmoid inner product of the pixel's image feature and a coordinate
embedding, keeps the top quarter (by pre-fusion occupancy count), and adds
the weighted fused feature, creating features in previously empty voxels.
Supervision for the scores is a per-anchor 3D Gaussian, cut to zero beyond
the radius, trained with focal loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    MLP,
    Conv2d,
    Module2D,
    Tensor,
    as_tensor,
    concat,
    mul,
    reshape,
    sigmoid,
    transpose,
    tsum,
)
from .losses import focal_loss

LAMBDA_RAY = 5.0
TOP_FRACTION = 0.25
INFER_THRESHOLD = 0.05
FUSION_MODES = ("single", "local_aggregate", "local_propagate", "ray_wise")


@dataclass
class FusionConfig:
    mode: str = "ray_wise"
    radius: float = 1.0  # voxels
    lambda_ray: float = LAMBDA_RAY
    top_fraction: float = TOP_FRACTION
    infer_threshold: float = INFER_THRESHOLD
    sigma: float | None = None  # target/ball width; defaults to radius / 2
    gamma: float = 2.0
    alpha: float = 0.25
    training: bool = True

    def __post_init__(self):
        if self.mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def target_sigma(self):
        return self.sigma if self.sigma is not None else self.radius / 2.0


@dataclass
class RayWeights:
    """Per-voxel fusion probabilities for one ray, kept in the autodiff graph."""

    ray: object
    omega: Tensor  # shape (len(ray),), each strictly in (0, 1) for finite logits

    def __post_init__(self):
        if self.omega.data.shape != (len(self.ray.voxels),):
            raise ValueError(
                f"weights shape {self.omega.data.shape} does not match ray of {len(self.ray.voxels)} voxels"
            )

    @property
    def values(self):
        return self.omega.data

    def __len__(self):
        return len(self.ray.voxels)


@dataclass(frozen=True)
class Target3D:
    """Supervision weights aligned with one ray's voxels."""

    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("target values must lie in [0, 1]")


def normalized_coords(voxels, grid):
    """Map voxel indices to [0, 1]^3: corner (0,0,0) embeds the zero vector."""
    idx = np.asarray(voxels, dtype=np.float64).reshape(-1, 3)
    span = np.maximum(np.asarray(grid.dims, dtype=np.float64) - 1.0, 1.0)
    return idx / span


def score_ray(ray, image_feat, mlp, grid):
    """Fusion probability of every voxel on a ray, batched through the MLP."""
    if len(ray.voxels) == 0:
        return RayWeights(ray, Tensor(np.zeros(0)))
    embeds = mlp(Tensor(normalized_coords(ray.voxels, grid)))  # (N, C)
    feat = as_tensor(image_feat)
    if feat.data.shape != embeds.data.shape[1:]:
        raise ValueError(f"feature length {feat.data.shape} != embedding {embeds.data.shape[1:]}")
    logits = tsum(mul(embeds, feat), axis=1)
    return RayWeights(ray, sigmoid(logits))


def make_fuse_conv(channels, out_channels=None, rng=None):
    """The fusion kernel: one 1x1 convolution over concatenated [image, coord] features."""
    rng = rng or np.random.default_rng(0)
    return Module2D([Conv2d(2 * channels, out_channels or channels, 1, rng=rng)])


def make_coord_mlp(channels, rng=None):
    """Three-layer coordinate MLP: 3 -> C -> C -> C."""
    rng = rng or np.random.default_rng(0)
    return MLP([3, channels, channels, channels], rng=rng)


class ViewMLPTable:
    """One coordinate MLP per camera view."""

    def __init__(self, channels, n_views=1, rng=None):
        rng = rng or np.random.default_rng(0)
        self.mlps = [make_coord_mlp(channels, rng) for _ in range(n_views)]

    def for_view(self, view):
        return self.mlps[view]

    def params(self):
        out = []
        for m in self.mlps:
            out.extend(m.params())
        return out


def fused_features(image_feat, embeds, fuse_conv):
    """Per-voxel fused feature f([image_feat, embed]), shape (N, C_out).

    The 1x1 convolution runs over all N voxels at once by treating them as
    spatial positions.
    """
    n = embeds.data.shape[0]
    feat = as_tensor(image_feat)
    tiled = Tensor(np.tile(feat.data[:, None], (1, n)))  # image grad stops here
    stacked = concat([tiled, transpose(embeds)], axis=0)  # (2C, N)
    out = fuse_conv(reshape(stacked, (*stacked.data.shape, 1)))
    return transpose(reshape(out, out.data.shape[:2]))


def gaussian_target_3d(ray, grid, radius, sigma):
    """Anchor-centred Gaussian supervision along a ray, zero beyond the radius.

    Distances are Euclidean in voxel-index units; overlapping anchors take
    the pointwise max; a ray with no anchors gets an all-zero target.
    """
    n = len(ray.voxels)
    if n == 0 or len(ray.anchors) == 0:
        return Target3D(np.zeros(n))
    pos = np.asarray(ray.voxels, dtype=np.float64)
    anchors = np.asarray(ray.anchors, dtype=np.float64)
    d2 = ((pos[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    min_d2 = d2.min(axis=1)
    if sigma > 0:
        vals = np.exp(-min_d2 / (2.0 * sigma**2))
    else:
        vals = (min_d2 == 0.0).astype(np.float64)
    vals[np.sqrt(min_d2) > radius] = 0.0
    vals[min_d2 == 0.0] = 1.0
    return Target3D(vals)


def select_top(scored, occupancy_count, top_fraction=TOP_FRACTION, infer_threshold=None):
    """Pick the k = ceil(top_fraction * occupancy_count) best-scored voxels.

    ``scored`` is a sequence of (voxel_index, score); ties break by ascending
    voxel index. Returns positions into ``scored``. When ``infer_threshold``
    is given, only scores strictly above it are admissible.
    """
    if occupancy_count < 0:
        raise ValueError("occupancy_count must be >= 0")
    k = math.ceil(top_fraction * occupancy_count)
    admissible = [
        i for i, (_, score) in enumerate(scored) if infer_threshold is None or score > infer_threshold
    ]
    admissible.sort(key=lambda i: (-scored[i][1], tuple(scored[i][0])))
    return admissible[: min(k, len(admissible))]


def _ball_weights(dist, sigma):
    # Gaussian of the distance, 1 at the anchor; sigma 0 is the indicator of
    # the anchor, as in gaussian_target_3d. math.exp, not np.exp: the two
    # differ in the last bit on some inputs.
    if sigma == 0:
        return (dist == 0.0).astype(np.float64)
    return np.array([1.0 if d == 0.0 else math.exp(-(d**2) / (2.0 * sigma**2)) for d in dist])


def fuse(field, rays, image_feats, mlp, fuse_conv, cfg, weights_list=None):
    """Fuse a frame's rays into one copy of the field in mode ``cfg.mode``.

    Each ray's fused features come from its own MLP and fuse-conv calls.
    Every (voxel, weight * feature) update with a nonzero weight is then
    added in ascending (ray, position) order, local modes in anchor order
    and then ball order, so float sums do not depend on how a frame is
    batched. A zero weight writes nothing.

    single: anchors get their own feature with weight 1. local_aggregate:
    each anchor collects the features of the ray voxels within
    ``cfg.radius``, Gaussian-weighted by distance; local_propagate: each of
    those voxels receives the anchor's feature, weighted alike. ray_wise:
    the voxels of every ray compete for k = ceil(top_fraction * pre-fusion
    occupancy) slots by their ``score_ray`` weight (``weights_list`` may
    carry precomputed weights), and the picked voxels get their feature
    times that weight, empty voxels included.

    Returns (fused field, fused count): the number of anchors of all rays,
    or in ray_wise the number of voxels picked.
    """
    grid = field.grid
    targets, weights, rows = [], [], []
    if cfg.mode == "ray_wise":
        if weights_list is None:
            weights_list = [score_ray(ray, feat, mlp, grid) for ray, feat in zip(rays, image_feats)]
        scored = [(v, s) for ray, w in zip(rays, weights_list) for v, s in zip(ray.voxels, w.values)]
        entry = [(ri, pos) for ri, ray in enumerate(rays) for pos in range(len(ray.voxels))]
        thr = None if cfg.training else cfg.infer_threshold
        chosen = sorted(entry[i] for i in select_top(scored, len(field), cfg.top_fraction, thr))
        for ri, picks in itertools.groupby(chosen, key=lambda e: e[0]):
            positions = [pos for _, pos in picks]
            voxels = np.asarray(rays[ri].voxels)[positions]
            targets.append(voxels)
            weights.append(weights_list[ri].values[positions])
            rows.append(fused_features(image_feats[ri], mlp(Tensor(normalized_coords(voxels, grid))), fuse_conv).data)
        count = len(chosen)
    else:
        for ray, feat in zip(rays, image_feats):
            if not ray.anchors:
                continue
            if cfg.mode == "single":
                anchors = np.asarray(ray.anchors)
                targets.append(anchors)
                weights.append(np.ones(len(anchors)))
                rows.append(fused_features(feat, mlp(Tensor(normalized_coords(anchors, grid))), fuse_conv).data)
                continue
            voxels = np.asarray(ray.voxels)
            updates = fused_features(feat, mlp(Tensor(normalized_coords(voxels, grid))), fuse_conv).data
            at = ray.anchor_positions()
            pos = voxels.astype(np.float64)
            dist = np.sqrt(((pos[None, :, :] - pos[at][:, None, :]) ** 2).sum(axis=2))  # (anchors, voxels)
            a, v = np.nonzero(dist <= cfg.radius)
            weights.append(_ball_weights(dist[a, v], cfg.target_sigma))
            if cfg.mode == "local_aggregate":
                targets.append(voxels[at][a])
                rows.append(updates[v])
            else:
                targets.append(voxels[v])
                rows.append(updates[at][a])
        count = sum(len(ray.anchors) for ray in rays)
    out = field.copy()
    if weights:
        w = np.concatenate(weights)
        nonzero = w != 0.0
        out.add_at(np.concatenate(targets)[nonzero], w[nonzero, None] * np.concatenate(rows)[nonzero])
    return out, count


def ray_loss(weights_list, targets_list, lambda_ray=LAMBDA_RAY, gamma=2.0, alpha=0.25):
    """Weighted mean focal loss over every (ray, voxel) element of the ray set."""
    if len(weights_list) != len(targets_list):
        raise ValueError("weights/targets list length mismatch")
    pieces = [w.omega for w in weights_list if len(w) > 0]
    targets = [t.values for w, t in zip(weights_list, targets_list) if len(w) > 0]
    m = sum(p.data.size for p in pieces)
    if m == 0:
        raise ValueError("ray set is empty")
    omega = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
    target = Tensor(np.concatenate(targets))
    return mul(Tensor(np.array(lambda_ray)), focal_loss(omega, target, gamma=gamma, alpha=alpha))
