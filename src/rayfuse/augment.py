"""Paired point/image augmentation that keeps projections aligned.

Two families: sample-added (copy-paste of stored objects with z-ordered
occlusion handling) and sample-static (flip, rescale, rotate). Flip and
rescale move the image along with the points, flip by exact mirroring and
rescale through a least-squares affine fitted on projected LiDAR points;
rotation leaves the image alone and is absorbed into the projection matrix
downstream. Every operation returns an :class:`AugmentRecord` that
``compose_projection`` folds into the camera so augmented points keep
landing on their augmented pixels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import PointCloud

AFFINE_FIT_POINTS = 100
RESCALE_BOUNDS = (0.5, 2.0)
ROTATE_BOUND = np.pi / 4


def _identity_affine():
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@dataclass(frozen=True)
class AugmentRecord:
    """What was done to a scene: point map, image affine, and the fit error."""

    flip: bool = False
    rescale: float = 1.0
    rotate: float = 0.0
    affine2d: np.ndarray = field(default_factory=_identity_affine)
    fit_residual: float = 0.0
    _point_matrix: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        if abs(np.linalg.det(self.affine2d[:, :2])) < 1e-12:
            raise ValueError("affine2d is not invertible")
        if self.fit_residual < 0:
            raise ValueError("fit_residual must be >= 0")

    def point_matrix(self):
        """4x4 homogeneous map that was applied to world points."""
        return self._point_matrix.copy()

    def apply_pixels(self, uv):
        """Run continuous pixel coordinates through the image affine."""
        uv = np.asarray(uv, dtype=np.float64)
        return uv @ self.affine2d[:, :2].T + self.affine2d[:, 2]

    def chain(self, later):
        """Record equivalent to applying ``self`` first, then ``later``."""
        a_first, a_second = self.affine2d, later.affine2d
        combined = np.empty((2, 3))
        combined[:, :2] = a_second[:, :2] @ a_first[:, :2]
        combined[:, 2] = a_second[:, :2] @ a_first[:, 2] + a_second[:, 2]
        return AugmentRecord(
            flip=self.flip ^ later.flip,
            rescale=self.rescale * later.rescale,
            rotate=self.rotate + later.rotate,
            affine2d=combined,
            fit_residual=max(self.fit_residual, later.fit_residual),
            _point_matrix=later._point_matrix @ self._point_matrix,
        )


def fit_affine(src, dst):
    """Least-squares 2x3 affine mapping src pixels onto dst pixels.

    Returns (affine, residual) where residual is the RMS Euclidean error in
    pixels. Degenerate (collinear) correspondences are rejected.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2 or src.shape[0] < 3:
        raise ValueError("need matching (N, 2) arrays with N >= 3")
    design = np.concatenate([src, np.ones((src.shape[0], 1))], axis=1)
    if np.linalg.matrix_rank(design, tol=1e-9) < 3:
        raise ValueError("correspondences are collinear or degenerate")
    sol, _, _, _ = np.linalg.lstsq(design, dst, rcond=None)
    affine = sol.T
    err = design @ sol - dst
    residual = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    return affine, residual


def warp_affine(image, affine):
    """Resample an image so content at old pixel p lands at affine(p).

    Bilinear, zero fill outside. Works on (H, W) or (H, W, C) arrays with
    continuous coordinates (u, v) = (col, row) and pixel centers at +0.5.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    fwd = np.eye(3)
    fwd[:2, :] = affine
    inv = np.linalg.inv(fwd)
    vv, uu = np.meshgrid(np.arange(h) + 0.5, np.arange(w) + 0.5, indexing="ij")
    src = np.stack([uu, vv, np.ones_like(uu)], axis=-1) @ inv.T
    su, sv = src[..., 0] - 0.5, src[..., 1] - 0.5
    u0, v0 = np.floor(su).astype(int), np.floor(sv).astype(int)
    fu, fv = su - u0, sv - v0
    out = np.zeros_like(img)
    for dv in (0, 1):
        for du in (0, 1):
            uu_i, vv_i = u0 + du, v0 + dv
            ok = (uu_i >= 0) & (uu_i < w) & (vv_i >= 0) & (vv_i < h)
            weight = (fu if du else 1.0 - fu) * (fv if dv else 1.0 - fv)
            vals = np.zeros_like(img)
            vals[ok] = img[vv_i[ok], uu_i[ok]]
            out += vals * (weight[..., None] if img.ndim == 3 else weight)
    return out


def apply_flip(points, image):
    """Mirror points across the camera-forward vertical plane and the image left-right."""
    pts = points.points.copy()
    pts[:, 1] = -pts[:, 1]
    flipped = np.ascontiguousarray(np.asarray(image)[:, ::-1])
    w = flipped.shape[1]
    record = AugmentRecord(
        flip=True,
        affine2d=np.array([[-1.0, 0.0, float(w)], [0.0, 1.0, 0.0]]),
        _point_matrix=np.diag([1.0, -1.0, 1.0, 1.0]),
    )
    return PointCloud(pts), flipped, record


def apply_rescale(points, image, factor, vt, rng=None):
    """Scale world points by ``factor`` and warp the image to follow.

    The image affine is fitted on up to 100 LiDAR points projected before
    and after scaling through the unaugmented camera ``vt``.
    """
    lo, hi = RESCALE_BOUNDS
    if not lo <= factor <= hi:
        raise ValueError(f"rescale factor {factor} outside [{lo}, {hi}]")
    rng = rng or np.random.default_rng(0)
    pts = points.points.copy()
    pts[:, :3] *= factor

    src_uv, src_d = vt.project_world(points.xyz)
    dst_uv, dst_d = vt.project_world(pts[:, :3])
    h, w = np.asarray(image).shape[:2]
    ok = (
        (src_d > 0)
        & (dst_d > 0)
        & (src_uv[:, 0] >= 0)
        & (src_uv[:, 0] < w)
        & (src_uv[:, 1] >= 0)
        & (src_uv[:, 1] < h)
    )
    candidates = np.flatnonzero(ok)
    if candidates.size < 3:
        raise ValueError("too few projected points to fit the rescale affine")
    take = min(AFFINE_FIT_POINTS, candidates.size)
    picked = rng.choice(candidates, size=take, replace=False)
    affine, residual = fit_affine(src_uv[picked], dst_uv[picked])

    record = AugmentRecord(
        rescale=float(factor),
        affine2d=affine,
        fit_residual=residual,
        _point_matrix=np.diag([factor, factor, factor, 1.0]),
    )
    return PointCloud(pts), warp_affine(image, affine), record


def apply_rotate(points, rotation):
    """Rotate points about the gravity axis; the image stays untouched.

    Alignment is restored by reprojection: compose_projection folds the
    inverse rotation into the camera matrix.
    """
    if abs(rotation) > ROTATE_BOUND + 1e-12:
        raise ValueError(f"rotation {rotation} outside +/- pi/4")
    c, s = np.cos(rotation), np.sin(rotation)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pts = points.points.copy()
    pts[:, :3] = pts[:, :3] @ rot.T
    pm = np.eye(4)
    pm[:3, :3] = rot
    record = AugmentRecord(rotate=float(rotation), _point_matrix=pm)
    return PointCloud(pts), record


def _box_frame(box3d):
    cx, cy, cz, dx, dy, dz, yaw = (float(v) for v in box3d)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.array([cx, cy, cz]), np.array([dx, dy, dz]), rot


def box3d_contains(box3d, xyz, tol=1e-9):
    center, size, rot = _box_frame(box3d)
    local = (np.asarray(xyz, dtype=np.float64) - center) @ rot
    return np.all(np.abs(local) <= size / 2.0 + tol, axis=-1)


@dataclass
class SampledObject:
    """A stored ground-truth object: its points, 3D box, image crop, and depth."""

    points: PointCloud
    box3d: np.ndarray  # (cx, cy, cz, dx, dy, dz, yaw)
    crop: np.ndarray  # image patch matching box2d
    box2d: tuple[int, int, int, int]  # (u0, v0, u1, v1), half-open
    depth: float
    label: str = "object"

    def __post_init__(self):
        self.box3d = np.asarray(self.box3d, dtype=np.float64).reshape(7)
        u0, v0, u1, v1 = self.box2d
        if self.crop.shape[0] != v1 - v0 or self.crop.shape[1] != u1 - u0:
            raise ValueError(f"crop shape {self.crop.shape[:2]} does not match box2d {self.box2d}")
        if len(self.points) and not box3d_contains(self.box3d, self.points.xyz).all():
            raise ValueError("object points fall outside box3d")


def gt_sample_paste(scene_points, scene_image, objects, vt):
    """Paste stored objects into a scene, far to near, with occlusion cleanup.

    Object points are appended; crops overwrite the image back-to-front; any
    point (scene or earlier-pasted object) whose projection lands under a
    strictly nearer object's crop is dropped. Crops falling partly outside
    the image are clipped. Returns (points, image, paste_order).
    """
    image = np.asarray(scene_image, dtype=np.float64).copy()
    h, w = image.shape[:2]
    order = sorted(range(len(objects)), key=lambda i: -objects[i].depth)

    owner_id = np.full((h, w), -1, dtype=np.int64)
    owner_depth = np.full((h, w), np.inf)
    for i in order:
        obj = objects[i]
        u0, v0, u1, v1 = obj.box2d
        cu0, cv0 = max(u0, 0), max(v0, 0)
        cu1, cv1 = min(u1, w), min(v1, h)
        if cu0 >= cu1 or cv0 >= cv1:
            continue  # entirely outside: clipped away
        image[cv0:cv1, cu0:cu1] = obj.crop[cv0 - v0 : cv1 - v0, cu0 - u0 : cu1 - u0]
        owner_id[cv0:cv1, cu0:cu1] = i
        owner_depth[cv0:cv1, cu0:cu1] = obj.depth

    def surviving(pc, own=-1):
        if len(pc) == 0:
            return pc.points
        uv, depth = vt.project_world(pc.xyz)
        cols = np.floor(uv[:, 0]).astype(int)
        rows = np.floor(uv[:, 1]).astype(int)
        inside = (depth > 0) & (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
        keep = np.ones(len(pc), dtype=bool)
        ii = np.flatnonzero(inside)
        oid = owner_id[rows[ii], cols[ii]]
        od = owner_depth[rows[ii], cols[ii]]
        covered = (oid >= 0) & (oid != own) & (od < depth[ii])
        keep[ii[covered]] = False
        return pc.points[keep]

    parts = [surviving(scene_points)]
    parts.extend(surviving(objects[i].points, own=i) for i in order)
    return PointCloud(np.concatenate(parts, axis=0)), image, order


# ---------------------------------------------------------------------------
# Ground-truth sample database: one directory per object plus an index file.


def save_object_db(root, objects):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    index = []
    for i, obj in enumerate(objects):
        sub = root / f"obj{i:04d}"
        sub.mkdir(exist_ok=True)
        obj.points.save_bin(sub / "points.bin")
        np.save(sub / "crop.npy", obj.crop)
        index.append(
            {
                "label": obj.label,
                "points": f"obj{i:04d}/points.bin",
                "crop": f"obj{i:04d}/crop.npy",
                "box3d": [float(v) for v in obj.box3d],
                "box2d": [int(v) for v in obj.box2d],
                "depth": float(obj.depth),
            }
        )
    (root / "index.json").write_text(json.dumps(index, indent=1))


def load_object_db(root):
    root = Path(root)
    index = json.loads((root / "index.json").read_text())
    out = []
    for rec in index:
        out.append(
            SampledObject(
                points=PointCloud.load_bin(root / rec["points"]),
                box3d=np.array(rec["box3d"]),
                crop=np.load(root / rec["crop"]),
                box2d=tuple(rec["box2d"]),
                depth=rec["depth"],
                label=rec.get("label", "object"),
            )
        )
    return out
