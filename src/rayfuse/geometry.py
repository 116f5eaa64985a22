"""Coordinate frames, calibration, voxelization, and voxel-to-image projection.

World coordinates live in the LiDAR frame. A camera is described by a 3x4
matrix taking homogeneous world points to homogeneous pixel coordinates;
composing it with the grid's voxel-center affine yields the transform that
sends a voxel index straight to a feature-map pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel grid: world origin, per-axis cell size, cell counts."""

    origin: tuple[float, float, float]
    voxel_size: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        if any(s <= 0 for s in self.voxel_size):
            raise ValueError("voxel_size must be positive")
        if any(int(d) <= 0 or int(d) != d for d in self.dims):
            raise ValueError("dims must be positive integers")

    def world_of(self, index):
        """Center of the voxel at integer index (i, j, k)."""
        o, s = np.asarray(self.origin), np.asarray(self.voxel_size)
        return o + (np.asarray(index, dtype=np.float64) + 0.5) * s

    def index_of(self, points):
        """Integer voxel indices of world points (..., 3); may fall outside."""
        o, s = np.asarray(self.origin), np.asarray(self.voxel_size)
        return np.floor((np.asarray(points, dtype=np.float64) - o) / s).astype(np.int64)

    def contains(self, index):
        idx = np.asarray(index)
        dims = np.asarray(self.dims)
        return bool(np.all(idx >= 0) and np.all(idx < dims)) if idx.ndim == 1 else np.all(
            (idx >= 0) & (idx < dims), axis=-1
        )

    def center_affine(self):
        """4x4 matrix taking homogeneous (i, j, k, 1) to the voxel-center world point."""
        m = np.eye(4)
        for a in range(3):
            m[a, a] = self.voxel_size[a]
            m[a, 3] = self.origin[a] + 0.5 * self.voxel_size[a]
        return m

    @property
    def n_voxels(self):
        return int(np.prod(self.dims))

    def all_indices(self):
        xs, ys, zs = (np.arange(d) for d in self.dims)
        return np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)


class PointCloud:
    """Array of (x, y, z, intensity) rows in world meters."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 4)
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]

    @property
    def xyz(self):
        return self.points[:, :3]

    @property
    def intensity(self):
        return self.points[:, 3]

    @classmethod
    def load_bin(cls, path):
        """Read little-endian float32 xyzi quadruples."""
        raw = np.fromfile(path, dtype="<f4")
        if raw.size % 4 != 0:
            raise ValueError(f"{path}: byte count is not a multiple of 16")
        return cls(raw.reshape(-1, 4).astype(np.float64))

    def save_bin(self, path):
        self.points.astype("<f4").tofile(path)


class VoxelField:
    """Sparse voxel features: sorted linear voxel keys and one (C,) row per key.

    Keys are ``np.ravel_multi_index`` over ``grid.dims``, so key order is
    (i, j, k) order. Absent voxels read zero.
    """

    def __init__(self, grid, feature_dim=1):
        self.grid = grid
        self.feature_dim = int(feature_dim)
        self.keys = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros((0, self.feature_dim))
        self.dropped = 0  # out-of-bounds points discarded at voxelize time

    def key_of(self, indices):
        """Linear keys of (M, 3) voxel indices; an index outside the grid is a KeyError."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        outside = ~self.grid.contains(idx)
        if outside.any():
            raise KeyError(f"voxel index {tuple(idx[outside][0].tolist())} outside grid dims {self.grid.dims}")
        return np.ravel_multi_index(idx.T, self.grid.dims)

    def indices(self):
        """(N, 3) indices of the occupied voxels, in key order."""
        return np.stack(np.unravel_index(self.keys, self.grid.dims), axis=1)

    def get(self, index):
        key = self.key_of(index)[0]
        pos = np.searchsorted(self.keys, key)
        hit = pos < len(self.keys) and self.keys[pos] == key
        return self.rows[pos].copy() if hit else np.zeros(self.feature_dim)

    def add_at(self, indices, rows):
        """Add ``rows[m]`` to the voxel at ``indices[m]``, in order m = 0, 1, ...

        A voxel not yet in the field starts from zero and becomes occupied.
        """
        keys = self.key_of(indices)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (len(keys), self.feature_dim):
            raise ValueError(f"feature rows shape {rows.shape} != ({len(keys)}, {self.feature_dim})")
        merged = np.union1d(self.keys, keys)
        if len(merged) > len(self.keys):
            grown = np.zeros((len(merged), self.feature_dim))
            grown[np.searchsorted(merged, self.keys)] = self.rows
            self.keys, self.rows = merged, grown
        np.add.at(self.rows, np.searchsorted(self.keys, keys), rows)

    def copy(self):
        out = VoxelField(self.grid, self.feature_dim)
        out.keys = self.keys.copy()
        out.rows = self.rows.copy()
        out.dropped = self.dropped
        return out

    def __len__(self):
        return len(self.keys)


def parse_kitti_calib(text):
    """Parse KITTI calibration text into {P2: 3x4, R0_rect: 3x3, Tr_velo_to_cam: 3x4}."""
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, rest = line.split(":", 1)
        key = key.strip()
        if key not in CALIB_KEYS:
            continue
        fields = rest.split()
        try:
            nums = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"malformed float in calib key {key}: {exc}") from exc
        if len(nums) != CALIB_KEYS[key]:
            raise ValueError(f"calib key {key} expects {CALIB_KEYS[key]} floats, got {len(nums)}")
        values[key] = np.array(nums)
    for key in CALIB_KEYS:
        if key not in values:
            raise ValueError(f"missing {key}")
    return {
        "P2": values["P2"].reshape(3, 4),
        "R0_rect": values["R0_rect"].reshape(3, 3),
        "Tr_velo_to_cam": values["Tr_velo_to_cam"].reshape(3, 4),
    }


def world_to_image_matrix(calib):
    """3x4 matrix from LiDAR-frame points to homogeneous image pixels."""
    if isinstance(calib, np.ndarray):
        mat = np.asarray(calib, dtype=np.float64)
        if mat.shape != (3, 4):
            raise ValueError(f"camera matrix must be 3x4, got {mat.shape}")
        return mat
    r0 = np.eye(4)
    r0[:3, :3] = calib["R0_rect"]
    tr = np.eye(4)
    tr[:3, :] = calib["Tr_velo_to_cam"]
    return calib["P2"] @ r0 @ tr


def _lift_affine(affine2d):
    # 2x3 pixel affine acting on homogeneous pixel coords (exact under division).
    a = np.asarray(affine2d, dtype=np.float64)
    lifted = np.eye(3)
    lifted[:2, :] = a
    return lifted


@dataclass(frozen=True)
class ProjectionTransform:
    """World-to-image projection bundled with grid and feature-map metadata.

    ``matrix`` maps homogeneous world points to homogeneous pixels; the
    voxel-index route ``p = voxel_matrix @ [i, j, k, 1]`` is precomposed
    once. ``stride`` is image pixels per feature cell.
    """

    matrix: np.ndarray
    grid: GridSpec
    stride: int
    image_dims: tuple[int, int]  # (H, W) in image pixels
    voxel_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if abs(np.linalg.det(self.matrix[:, :3])) < 1e-12:
            raise ValueError("composed projection matrix is singular")
        object.__setattr__(self, "voxel_matrix", self.matrix @ self.grid.center_affine())

    @property
    def feature_dims(self):
        h, w = self.image_dims
        return (-(-h // self.stride), -(-w // self.stride))

    def project(self, index):
        """Feature-map pixel (u, v) of a voxel center, or None if behind the camera."""
        h = self.voxel_matrix @ np.array([index[0], index[1], index[2], 1.0])
        if h[2] <= 0:
            return None
        return (int(np.floor(h[0] / h[2] / self.stride)), int(np.floor(h[1] / h[2] / self.stride)))

    def project_voxels(self, indices):
        """Vectorized voxel projection: (uv int array (N,2), depth (N,)).

        Pixels of behind-camera voxels are meaningless; mask with depth > 0.
        """
        idx = np.asarray(indices, dtype=np.float64)
        h = np.concatenate([idx, np.ones((idx.shape[0], 1))], axis=1) @ self.voxel_matrix.T
        depth = h[:, 2]
        safe = np.where(depth > 0, depth, 1.0)
        uv = np.floor(h[:, :2] / safe[:, None] / self.stride).astype(np.int64)
        return uv, depth

    def project_world(self, points):
        """Continuous image-pixel coords and depth of world points (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        h = np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1) @ self.matrix.T
        depth = h[:, 2]
        safe = np.where(depth > 0, depth, 1.0)
        return h[:, :2] / safe[:, None], depth

    def in_feature_bounds(self, uv):
        fh, fw = self.feature_dims
        return 0 <= uv[0] < fw and 0 <= uv[1] < fh

    def camera_center(self):
        """World point projecting to the zero homogeneous vector."""
        return -np.linalg.solve(self.matrix[:, :3], self.matrix[:, 3])

    def pixel_ray(self, u_img, v_img):
        """(origin, direction) of the world ray through continuous image pixel (u, v)."""
        direction = np.linalg.solve(self.matrix[:, :3], np.array([u_img, v_img, 1.0]))
        return self.camera_center(), direction


def compose_projection(grid, calib, augment=None, stride=4, image_dims=(256, 256)):
    """Build the ProjectionTransform for a (possibly augmented) scene.

    ``augment`` may be any record exposing ``point_matrix()`` (4x4 world map
    actually applied to the points) and ``affine2d`` (2x3 image-pixel map);
    the result then projects augmented points onto augmented-image pixels:
    M' = lift(affine2d) @ M_base @ point_matrix^-1.
    """
    base = world_to_image_matrix(calib)
    if augment is not None:
        base = _lift_affine(augment.affine2d) @ base @ np.linalg.inv(augment.point_matrix())
    return ProjectionTransform(base, grid, int(stride), tuple(image_dims))


def make_camera_matrix(fx, fy, cx, cy, rotation=None, translation=(0.0, 0.0, 0.0)):
    """Pinhole world-to-image 3x4 matrix for a camera in the LiDAR frame.

    Default rotation permutes axes KITTI-style: world +x becomes the optical
    axis, +y the image left direction, +z image up. ``translation`` is the
    camera offset in camera coordinates.
    """
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    if rotation is None:
        rotation = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    rt = np.concatenate([rotation, np.asarray(translation, dtype=np.float64).reshape(3, 1)], axis=1)
    return k @ rt


def voxelize(pc, grid, feature_dim=1):
    """Bin a point cloud into the grid; features hold mean intensity in channel 0.

    Out-of-bounds points are dropped and counted on the returned field.
    """
    field_ = VoxelField(grid, feature_dim)
    if len(pc) == 0:
        return field_
    idx = grid.index_of(pc.xyz)
    inside = np.all((idx >= 0) & (idx < np.asarray(grid.dims)), axis=1)
    field_.dropped = int((~inside).sum())
    keys, slot = np.unique(np.ravel_multi_index(idx[inside].T, grid.dims), return_inverse=True)
    # bincount sums in point order, as a running float sum would
    sums = np.bincount(slot, weights=pc.intensity[inside], minlength=len(keys))
    field_.keys = keys
    field_.rows = np.zeros((len(keys), feature_dim))
    field_.rows[:, 0] = sums / np.bincount(slot, minlength=len(keys))
    return field_
