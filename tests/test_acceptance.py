"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
from conftest import (
    default_transform,
    front_grid,
    random_cloud_in_view,
    random_valid_transform,
)

from rayfuse.autodiff import Tensor
from rayfuse.config import load_config
from rayfuse.fusion import (
    FusionConfig,
    RayWeights,
    fuse,
    gaussian_target_3d,
    make_coord_mlp,
    make_fuse_conv,
    score_ray,
    select_top,
)
from rayfuse.geometry import ProjectionTransform, compose_projection, voxelize
from rayfuse.losses import bce_elements, focal_elements
from rayfuse.pipeline import (
    _sample_pixels,
    build_rays,
    field_digest,
    gen_scene,
    gradient_check,
    ray_feature,
    run_fusion_pass,
    train_heads,
)
from rayfuse.rays import Ray, brute_force_ray_oracle, construct_ray, mark_anchors
from rayfuse.augment import apply_flip, apply_rescale, apply_rotate
from rayfuse.sampler import (
    gaussian_target_2d,
    head_scores,
    heuristic_sample,
    importance_sample,
    make_sampler_head,
    partition_windows,
)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_ray_oracle_equivalence():
    t0 = time.perf_counter()
    grid = front_grid(dims=(16, 16, 16), size=0.5, x0=4.0)
    vt = random_valid_transform(grid, seed=2024, stride=4, image_dims=(64, 64))
    fh, fw = vt.feature_dims
    assert (fh, fw) == (16, 16)
    nonempty = 0
    for v in range(fh):
        for u in range(fw):
            got = construct_ray(vt, grid, (u, v))
            want = brute_force_ray_oracle(vt, grid, (u, v))
            assert got.voxels == want.voxels, f"pixel {(u, v)}"
            np.testing.assert_array_equal(got.depths, want.depths)
            nonempty += len(got) > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert nonempty > 50
    report(1, f"construct_ray == brute force on all 256 pixels ({nonempty} non-empty) in {elapsed:.1f}s")


def test_criterion_2_projection_exactness():
    grid = front_grid(dims=(8, 8, 8), size=0.5, x0=4.0)
    vt = random_valid_transform(grid, seed=8, stride=2, image_dims=(64, 64))
    checked = 0
    for idx in grid.all_indices():
        h = vt.voxel_matrix @ np.array([*idx, 1.0])
        if h[2] <= 0:
            want = None
        else:
            want = (int(np.floor(h[0] / h[2] / vt.stride)), int(np.floor(h[1] / h[2] / vt.stride)))
        assert vt.project(tuple(idx)) == want
        checked += 1
    assert checked == 512
    report(2, "project matches the homogeneous-multiply oracle on all 512 voxels, exact")


def test_criterion_3_augmentation_alignment():
    rng = np.random.default_rng(31)
    vt = default_transform(translation=(0.05, -0.1, 0.2))
    pc = random_cloud_in_view(vt, 300, rng, depth_range=(8.0, 20.0))
    img = rng.uniform(size=(96, 128))

    # flip: exact pixel mirror
    flipped, _, rec = apply_flip(pc, img)
    composed = compose_projection(vt.grid, vt.matrix, rec, stride=1, image_dims=vt.image_dims)
    uv0, _ = vt.project_world(pc.xyz)
    uv1, _ = composed.project_world(flipped.xyz)
    assert (np.floor(uv1[:, 0]) == 128 - 1 - np.floor(uv0[:, 0])).all()
    assert (np.floor(uv1[:, 1]) == np.floor(uv0[:, 1])).all()

    # rescale: affine fitted on 100 correspondences within half a pixel
    _, _, rec_scale = apply_rescale(pc, img, 1.05, vt, rng)
    assert rec_scale.fit_residual < 0.5

    # rotate: two-path matrix check
    rotated, rec_rot = apply_rotate(pc, np.pi / 8.0)
    composed = compose_projection(vt.grid, vt.matrix, rec_rot, stride=1, image_dims=vt.image_dims)
    uv2, _ = composed.project_world(rotated.xyz)
    rot_residual = np.abs(uv2 - uv0).max()
    assert rot_residual < 1e-9
    report(
        3,
        f"flip exact; rescale fit residual {rec_scale.fit_residual:.3f}px < 0.5; rotate residual {rot_residual:.1e} < 1e-9",
    )


def test_criterion_4_gaussian_targets():
    # 2D: center value exactly 1 (integer-centred box)
    target = gaussian_target_2d([(2.0, 3.0, 10.0, 7.0)], (16, 16))
    assert target.map[5, 6] == 1.0

    # 3D: distance 1, sigma 0.5 reads exp(-2) within 1e-12; anchor exactly 1
    voxels = tuple((i, 0, 0) for i in range(8))
    ray = Ray((0, 0), voxels, np.arange(8.0), ((3, 0, 0),))
    vals = gaussian_target_3d(ray, front_grid(dims=(8, 1, 1)), radius=1.0, sigma=0.5).values
    assert vals[3] == 1.0
    assert abs(vals[4] - math.exp(-2.0)) <= 1e-12
    # zero beyond the radius, exact
    assert vals[5] == 0.0 and vals[0] == 0.0 and vals[7] == 0.0
    report(4, "2D center 1.0 exact; 3D exp(-2) within 1e-12 at d=1, sigma=0.5; zero beyond radius")


def test_criterion_5_loss_gradients():
    # toy scene: two boxes, 64 points on a 16^3 grid
    cfg = load_config(
        overrides=["sampler.rays=16", "scene.channels=8", "scene.points_per_object=26", "scene.background_points=12"]
    )
    assert cfg.scene.objects == 2 and cfg.grid.spec().dims == (16, 16, 16)
    assert cfg.fusion.lambda_ray == 5.0  # the combined objective weights
    err = gradient_check(cfg, n_samples=100)
    assert err < 1e-4

    rng = np.random.default_rng(5)
    p = Tensor(rng.uniform(0.01, 0.99, size=64))
    t = Tensor(rng.uniform(0.0, 1.0, size=64))
    fe = focal_elements(p, t, gamma=0.0, alpha=0.5).data
    be = bce_elements(p, t).data
    rel = np.abs(fe - 0.5 * be) / np.abs(0.5 * be)
    assert rel.max() < 1e-10
    report(5, f"objective grad max rel err {err:.2e} < 1e-4; focal(0, 0.5) == BCE/2 to {rel.max():.1e}")


def test_criterion_6_fusion_algebra():
    rng = np.random.default_rng(66)
    grid = front_grid(dims=(12, 12, 12), size=0.4, x0=3.0)
    vt = default_transform(grid, stride=4, image_dims=(64, 64), fx=50.0)
    pc = random_cloud_in_view(vt, 150, rng, depth_range=(3.5, 7.5), margin=6.0)
    channels = 4
    field = voxelize(pc, grid, feature_dim=channels)
    mlp = make_coord_mlp(channels, rng)
    fuse_conv = make_fuse_conv(channels, rng=rng)

    # zero-weight no-op, bitwise
    pixel = vt.project(field.indices()[0])
    ray = mark_anchors(construct_ray(vt, grid, pixel), field)
    weights = RayWeights(ray, Tensor(np.zeros(len(ray))))
    out, _ = fuse(field, [ray], [Tensor(np.zeros(channels))], mlp, fuse_conv, FusionConfig(), [weights])
    assert field_digest(out) == field_digest(field)

    # local fusion with r=0 equals single fusion within 1e-12
    feat = Tensor(rng.normal(size=channels))
    want, _ = fuse(field, [ray], [feat], mlp, fuse_conv, FusionConfig(mode="single"))
    for mode in ("local_aggregate", "local_propagate"):
        got, _ = fuse(field, [ray], [feat], mlp, fuse_conv, FusionConfig(mode=mode, radius=0.0))
        np.testing.assert_array_equal(got.keys, want.keys)
        np.testing.assert_allclose(got.rows, want.rows, rtol=0.0, atol=1e-12)

    # quarter-rule cardinality on 50 random scenes
    rng2 = np.random.default_rng(99)
    for _ in range(50):
        n_occ = int(rng2.integers(1, 400))
        n_cand = int(rng2.integers(100, 500))
        scored = [((int(i), 0, 0), float(rng2.uniform())) for i in range(n_cand)]
        picked = select_top(scored, n_occ, 0.25)
        assert len(picked) == min(math.ceil(n_occ / 4), n_cand)
    report(6, "zero-weight no-op bitwise; local(r=0) == single to 1e-12; quarter rule on 50 scenes")


def test_criterion_7_sampler_statistics():
    # density and sparsity draw ratios: windows with counts 9 and 1
    pts = [(5 + i % 3, 5 + i // 3) for i in range(9)] + [(70, 5)]
    part = partition_windows((64, 128), pts, window=64)
    sigma = math.sqrt(1000 * 0.9 * 0.1)

    dens = heuristic_sample(part, "density", 1000, np.random.default_rng(1))
    left = sum(1 for p in dens.pixels if p[0] < 64)
    assert abs(left - 900) <= 3 * sigma

    spar = heuristic_sample(part, "sparsity", 1000, np.random.default_rng(2))
    right = sum(1 for p in spar.pixels if p[0] >= 64)
    assert abs(right - 900) <= 3 * sigma

    # importance sampling returns exactly the >0.5 thresholded set
    rng = np.random.default_rng(3)
    head = make_sampler_head(2, rng)
    feat = Tensor(rng.normal(size=(2, 16, 16)) * 3)
    part2 = partition_windows((16, 16), [(1, 1)], window=16)
    got = importance_sample(feat, head, part2, n=10_000, rng=np.random.default_rng(4))
    scores = head_scores(feat, head).data
    want = {(int(u), int(v)) for v, u in zip(*np.nonzero(scores > 0.5))}
    assert set(got.pixels) == want and len(got.pixels) == len(want)
    report(
        7,
        f"density {left}/1000 and sparsity {right}/1000 within 3 sigma of 900; importance set == thresholded set ({len(want)} px)",
    )


def test_criterion_8_toy_training():
    t0 = time.perf_counter()
    cfg = load_config()  # defaults are the pinned toy set: 4 scenes, 200 steps
    heads, losses = train_heads(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert len(losses) == 200

    ma = np.convolve(losses, np.ones(50) / 50.0, mode="valid")
    assert (np.diff(ma) < 0).all(), "50-step moving average must strictly decrease"

    anchors, far = [], []
    for i in range(cfg.train.scenes):
        scene = gen_scene(cfg, cfg.scene.seed + i)
        vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
        field = voxelize(scene.points, scene.grid, cfg.scene.channels)
        rng = np.random.default_rng(cfg.scene.seed + 1000 + i)
        sample = _sample_pixels(scene, cfg, vt, heads, rng)
        rays = build_rays(vt, scene.grid, sample.pixels, field)
        for ray in rays:
            if not len(ray):
                continue
            w = score_ray(ray, ray_feature(scene, ray.pixel), heads.mlp_for(0), scene.grid).values
            pos = np.asarray(ray.voxels, dtype=np.float64)
            if ray.anchors:
                a = np.asarray(ray.anchors, dtype=np.float64)
                d = np.sqrt(((pos[:, None, :] - a[None, :, :]) ** 2).sum(2)).min(1)
                anchors.extend(w[d == 0.0])
                far.extend(w[d > cfg.fusion.radius])
            else:
                far.extend(w)
    mean_anchor, mean_far = float(np.mean(anchors)), float(np.mean(far))
    assert mean_anchor > mean_far
    report(
        8,
        f"loss {losses[0]:.3f}->{losses[-1]:.3f}, ma50 strictly decreasing; "
        f"anchor omega {mean_anchor:.3f} > beyond-radius {mean_far:.3f}; {elapsed:.0f}s < 120s",
    )


def test_criterion_9_determinism_across_threads():
    cfg = load_config()
    _, r1 = run_fusion_pass(cfg, threads=1)
    _, r4 = run_fusion_pass(cfg, threads=4)
    assert r1.hash() == r4.hash()
    assert r1.core() == r4.core()

    cfg_aug = load_config(
        overrides=["augment.enabled=true", "augment.flip=true", "augment.rescale=1.05", "augment.rotate=0.1"]
    )
    _, a1 = run_fusion_pass(cfg_aug, threads=1)
    _, a4 = run_fusion_pass(cfg_aug, threads=4)
    assert a1.hash() == a4.hash()
    report(9, f"report hash {r1.hash()[:12]} identical for 1 and 4 threads, plain and augmented")
