"""Per-pixel voxel rays: every voxel whose center projects into one feature cell.

Membership is defined purely by the projection predicate (floor-projected
pixel equality with positive depth). A frame index projects every grid voxel
once, keeps those in front of the camera and on the feature map, and sorts
them by (pixel, depth, i, j, k); the ray of a pixel is then one contiguous
slice of it, nearest first. A brute-force full-grid scan with the same
predicate and its own Python ordering serves as the verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ORACLE_VOXEL_LIMIT = 64**3


@dataclass(frozen=True)
class Ray:
    """Depth-ordered voxels behind one feature pixel, plus LiDAR-occupied anchors."""

    pixel: tuple[int, int]
    voxels: tuple[tuple[int, int, int], ...]
    depths: np.ndarray
    anchors: tuple[tuple[int, int, int], ...] = ()

    def __len__(self):
        return len(self.voxels)

    def anchor_positions(self):
        lookup = {v: i for i, v in enumerate(self.voxels)}
        return [lookup[a] for a in self.anchors]


def _order(voxels, depths):
    if len(voxels) == 0:
        return (), np.zeros(0)
    keys = sorted(range(len(voxels)), key=lambda i: (depths[i], tuple(voxels[i])))
    ordered = tuple(tuple(int(x) for x in voxels[i]) for i in keys)
    return ordered, np.array([depths[i] for i in keys])


def brute_force_ray_oracle(vt, grid, pixel):
    """Scan every voxel in the grid with the projection predicate."""
    if grid.n_voxels > ORACLE_VOXEL_LIMIT:
        raise ValueError(f"grid of {grid.n_voxels} voxels exceeds the oracle cost guard")
    candidates = grid.all_indices()
    uv, depth = vt.project_voxels(candidates)
    hit = (depth > 0) & (uv[:, 0] == pixel[0]) & (uv[:, 1] == pixel[1])
    ordered, d = _order(candidates[hit], depth[hit])
    return Ray(tuple(pixel), ordered, d)


def _occupied(voxels, voxel_field):
    """Mask of the (N, 3) voxel rows that the field occupies, by linear voxel key."""
    dims = voxel_field.grid.dims
    occupied = np.array(list(voxel_field.occupancy), dtype=np.int64).reshape(-1, 3)
    return np.isin(np.ravel_multi_index(voxels.T, dims), np.ravel_multi_index(occupied.T, dims))


def _tuples(rows):
    return tuple(map(tuple, rows.tolist()))


class RayIndex(NamedTuple):
    """One frame's voxels in front of the camera and on the feature map.

    Rows are sorted by (pixel key v * width + u, depth, i, j, k), so each ray
    is one slice; ``anchored`` marks rows whose voxel the field occupies.
    """

    keys: np.ndarray
    voxels: np.ndarray
    depths: np.ndarray
    anchored: np.ndarray


def index_frame(vt, grid, voxel_field=None):
    """Project the whole grid once and group the visible voxels by feature pixel.

    Grids above ``ORACLE_VOXEL_LIMIT`` voxels are projected in chunks of that
    many rows, which bounds the projection's temporary arrays. With a field,
    rows of occupied voxels are marked as anchors.
    """
    fh, fw = vt.feature_dims
    indices = grid.all_indices()
    parts = []
    for start in range(0, len(indices), ORACLE_VOXEL_LIMIT):
        chunk = indices[start : start + ORACLE_VOXEL_LIMIT]
        uv, depth = vt.project_voxels(chunk)
        keep = (depth > 0) & np.all((uv >= 0) & (uv < (fw, fh)), axis=1)
        parts.append((uv[keep, 1] * fw + uv[keep, 0], chunk[keep], depth[keep]))
    keys, voxels, depths = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((voxels[:, 2], voxels[:, 1], voxels[:, 0], depths, keys))
    voxels = voxels[order]
    anchored = np.zeros(len(order), dtype=bool) if voxel_field is None else _occupied(voxels, voxel_field)
    return RayIndex(keys[order], voxels, depths[order], anchored)


def construct_ray(vt, grid, pixel, index=None):
    """All voxels projecting into one feature pixel, nearest first.

    The pixel must lie on the feature map; a beam that misses the grid gives
    an empty (still valid) ray. ``index``, the frame's ``index_frame``, saves
    projecting the grid again for each ray of one frame.
    """
    if not vt.in_feature_bounds(pixel):
        raise ValueError(f"pixel {pixel} outside feature dims {vt.feature_dims}")
    keys, voxels, depths, anchored = index_frame(vt, grid) if index is None else index
    key = pixel[1] * vt.feature_dims[1] + pixel[0]
    lo, hi = np.searchsorted(keys, (key, key + 1))
    return Ray(tuple(pixel), _tuples(voxels[lo:hi]), depths[lo:hi].copy(), _tuples(voxels[lo:hi][anchored[lo:hi]]))


def mark_anchors(ray, voxel_field):
    """Tag the ray's voxels that contain LiDAR points, order preserved."""
    voxels = np.array(ray.voxels, dtype=np.int64).reshape(-1, 3)
    return Ray(ray.pixel, ray.voxels, ray.depths, _tuples(voxels[_occupied(voxels, voxel_field)]))
