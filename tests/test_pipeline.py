import math
import types
import warnings

import numpy as np
import pytest

from rayfuse import pipeline
from rayfuse.augment import SampledObject, save_object_db
from rayfuse.config import PipelineConfig, dump_config, load_config
from rayfuse.geometry import PointCloud, ProjectionTransform, VoxelField, voxelize
from rayfuse.pipeline import (
    FusionHeads,
    SceneGenError,
    bench_rays,
    build_rays,
    field_digest,
    gen_scene,
    gradient_check,
    run_fusion_pass,
    train_heads,
)


def cfg_with(*overrides):
    return load_config(overrides=list(overrides))


class TestConfig:
    def test_defaults_build(self):
        cfg = PipelineConfig()
        assert cfg.grid.spec().dims == (16, 16, 16)
        assert cfg.fusion.mode == "ray_wise"

    def test_ini_round_trip(self, tmp_path):
        cfg = cfg_with("fusion.radius=2.0", "scene.objects=5")
        path = tmp_path / "run.ini"
        path.write_text(dump_config(cfg))
        back = load_config(path)
        assert back.fusion.radius == 2.0
        assert back.scene.objects == 5

    def test_override_parsing(self):
        cfg = cfg_with("augment.flip=true", "camera.fx=77.5", "sampler.mode=importance")
        assert cfg.augment.flip is True
        assert cfg.camera.fx == 77.5
        assert cfg.sampler.mode == "importance"

    def test_unknown_section_and_key(self):
        with pytest.raises(KeyError, match="section"):
            cfg_with("nonsense.x=1")
        with pytest.raises(KeyError, match="key"):
            cfg_with("grid.radius=1")

    def test_bad_override_shape(self):
        with pytest.raises(ValueError, match="section.key=value"):
            cfg_with("justakey")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/path.ini")


class TestGenScene:
    def test_one_object_ten_points(self):
        cfg = cfg_with("scene.objects=1", "scene.points_per_object=10", "scene.background_points=0")
        scene = gen_scene(cfg)
        assert len(scene.points) == 10
        assert len(scene.boxes3d) == 1 and len(scene.boxes2d) == 1

    def test_seed_repeatable_bitwise(self):
        cfg = cfg_with()
        a, b = gen_scene(cfg), gen_scene(cfg)
        assert a.points.points.tobytes() == b.points.points.tobytes()
        assert a.feats.tobytes() == b.feats.tobytes()
        assert a.image.tobytes() == b.image.tobytes()

    def test_projected_boxes_inside_image(self):
        cfg = cfg_with("scene.objects=3")
        scene = gen_scene(cfg)
        vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
        for box, box3d in zip(scene.boxes2d, scene.boxes3d):
            u0, v0, u1, v1 = box
            assert 0 <= u0 <= u1 < cfg.camera.image_w
            assert 0 <= v0 <= v1 < cfg.camera.image_h
            # center projects inside its own 2d box
            uv, depth = vt.project_world(box3d[None, :3])
            assert depth[0] > 0
            assert u0 - 1e-9 <= uv[0, 0] <= u1 + 1e-9
            assert v0 - 1e-9 <= uv[0, 1] <= v1 + 1e-9

    def test_every_object_contributes_visible_point(self):
        cfg = cfg_with("scene.objects=4", "scene.background_points=0")
        scene = gen_scene(cfg)
        vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
        n = cfg.scene.points_per_object
        for i in range(4):
            pts = scene.points.xyz[i * n : (i + 1) * n]
            uv, depth = vt.project_world(pts)
            visible = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < cfg.camera.image_w) & (uv[:, 1] >= 0) & (uv[:, 1] < cfg.camera.image_h)
            assert visible.any()

    def test_camera_missing_objects_errors(self):
        # grid entirely behind the camera
        cfg = cfg_with("grid.x0=-40.0", "scene.objects=1")
        with pytest.raises((SceneGenError, RuntimeError), match="misses"):
            gen_scene(cfg)

    def test_pattern_features(self):
        cfg = cfg_with("scene.feature_source=pattern")
        scene = gen_scene(cfg)
        assert scene.feats.shape[0] == cfg.scene.channels
        assert np.unique(scene.feats[0]).size <= 2  # checkerboard per channel


class TestRunFusionPass:
    def test_single_mode_empty_sampler_keeps_field(self):
        cfg = cfg_with("scene.objects=0", "scene.background_points=0", "fusion.mode=single")
        fused, report = run_fusion_pass(cfg)
        assert report.ray_count == 0
        assert report.occupancy_before == report.occupancy_after == 0
        assert report.losses["ray"] == 0.0

    def test_single_mode_field_matches_voxelize_when_no_rays(self):
        # points exist but the sampler is asked for rays only where windows
        # are empty: shrink to zero rays by sampling over an empty quadrant
        cfg = cfg_with("fusion.mode=single", "sampler.rays=4")
        scene = gen_scene(cfg)
        fused, report = run_fusion_pass(cfg, scene=scene)
        plain = voxelize(scene.points, scene.grid, cfg.scene.channels)
        if report.fused_count == 0:
            assert field_digest(fused) == field_digest(plain)
        else:
            assert report.occupancy_after == report.occupancy_before  # single never completes

    def test_raywise_fused_count_matches_quarter_rule(self):
        cfg = cfg_with("sampler.rays=128")
        fused, report = run_fusion_pass(cfg)
        k = math.ceil(report.occupancy_before * cfg.fusion.top_fraction)
        assert report.fused_count <= k
        if report.ray_count and report.fused_count < k:
            # fewer candidates than k: every scored voxel was taken
            assert report.fused_count > 0

    def test_same_seed_identical_reports(self):
        cfg = cfg_with()
        _, r1 = run_fusion_pass(cfg)
        _, r2 = run_fusion_pass(cfg)
        assert r1.core() == r2.core()
        assert r1.hash() == r2.hash()

    def test_thread_count_does_not_change_hash(self):
        cfg = cfg_with()
        _, r1 = run_fusion_pass(cfg, threads=1)
        _, r3 = run_fusion_pass(cfg, threads=3)
        assert r1.hash() == r3.hash()

    def test_occupancy_monotone_in_raywise(self):
        cfg = cfg_with()
        _, report = run_fusion_pass(cfg)
        assert report.occupancy_after >= report.occupancy_before

    def test_all_modes_run(self):
        for mode in ("single", "local_aggregate", "local_propagate", "ray_wise"):
            cfg = cfg_with(f"fusion.mode={mode}")
            _, report = run_fusion_pass(cfg)
            assert report.losses["total"] > 0

    def test_fusion_errors_name_the_fuse_stage(self):
        # heads of 8 channels on 16-channel features fail inside fusion, in every mode
        for mode in ("single", "local_aggregate", "local_propagate", "ray_wise"):
            with pytest.raises(RuntimeError, match="^stage fuse: "):
                run_fusion_pass(cfg_with(f"fusion.mode={mode}"), heads=FusionHeads(8))

    def test_sigma_zero_local_fusion_is_radius_zero(self):
        # sigma 0 gives ball voxels off the anchor weight 0, as the 3D target
        # does: the pass equals radius 0, with no warning
        for mode in ("local_aggregate", "local_propagate"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fused, report = run_fusion_pass(cfg_with(f"fusion.mode={mode}", "fusion.radius=1.5", "fusion.sigma=0"))
                zero, _ = run_fusion_pass(cfg_with(f"fusion.mode={mode}", "fusion.radius=0", "fusion.sigma=0"))
            assert report.fused_count > 0
            assert field_digest(fused) == field_digest(zero)

    def test_augmented_pass_deterministic(self):
        cfg = cfg_with("augment.enabled=true", "augment.flip=true", "augment.rescale=1.05", "augment.rotate=0.2")
        _, r1 = run_fusion_pass(cfg)
        _, r2 = run_fusion_pass(cfg, threads=4)
        assert r1.hash() == r2.hash()
        assert r1.ray_count > 0

    def test_reproject_only_flip(self):
        cfg = cfg_with("augment.enabled=true", "augment.flip=true", "augment.reproject_only=true")
        _, report = run_fusion_pass(cfg)
        assert report.ray_count > 0

    def test_copy_paste_adds_points(self, tmp_path):
        cfg = cfg_with("scene.objects=1", "scene.background_points=30")
        scene = gen_scene(cfg)
        vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
        # stash one far-away object in a database
        origin, direction = vt.pixel_ray(20.0, 20.0)
        center = origin + 5.0 * direction
        pts = center + np.random.default_rng(0).uniform(-0.2, 0.2, size=(6, 3))
        obj = SampledObject(
            points=PointCloud(np.column_stack([pts, np.full(6, 0.5)])),
            box3d=np.array([*center, 1.0, 1.0, 1.0, 0.0]),
            crop=np.full((8, 8), 0.5),
            box2d=(16, 16, 24, 24),
            depth=5.0,
        )
        save_object_db(tmp_path / "db", [obj])
        aug = cfg_with("scene.objects=1", "scene.background_points=30", "augment.enabled=true", f"augment.sample_db={tmp_path / 'db'}")
        _, plain_report = run_fusion_pass(cfg, scene=scene)
        _, aug_report = run_fusion_pass(aug, scene=scene)
        # pasted object points add occupancy (none of the scene sits behind it)
        assert aug_report.occupancy_before > plain_report.occupancy_before


class TestBuildRays:
    def frame(self):
        cfg = cfg_with()
        scene = gen_scene(cfg)
        vt = ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))
        return vt, scene.grid, voxelize(scene.points, scene.grid, cfg.scene.channels)

    def test_off_map_pixel_names_the_pixel(self):
        vt, grid, field = self.frame()
        with pytest.raises(ValueError, match=r"pixel \(99, 0\) outside feature dims"):
            build_rays(vt, grid, [(0, 0), (99, 0)], field)

    def test_off_map_pixel_is_a_rays_stage_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_sample_pixels", lambda *args: types.SimpleNamespace(pixels=[(99, 0)]))
        with pytest.raises(RuntimeError, match=r"^stage rays: pixel \(99, 0\)"):
            run_fusion_pass(cfg_with())

    def test_no_pixels_no_rays(self):
        vt, grid, field = self.frame()
        assert build_rays(vt, grid, [], field) == []

    def test_empty_field_gives_no_anchors(self):
        vt, grid, field = self.frame()
        fh, fw = vt.feature_dims
        rays = build_rays(vt, grid, [(u, v) for u in range(fw) for v in range(fh)], VoxelField(grid))
        assert any(len(r) for r in rays)
        assert all(r.anchors == () for r in rays)


class TestTrainHeads:
    def test_zero_lr_constant_curve(self):
        cfg = cfg_with("train.scenes=1", "sampler.rays=8")
        _, losses = train_heads(cfg, steps=5, lr=0.0)
        assert len(set(losses)) == 1

    def test_loss_decreases(self):
        cfg = cfg_with("train.scenes=2", "sampler.rays=16")
        _, losses = train_heads(cfg, steps=40)
        assert losses[-1] < losses[0]

    def test_divergence_aborts_with_step(self):
        cfg = cfg_with("train.scenes=1", "sampler.rays=8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match=r"diverged at step \d+"):
                train_heads(cfg, steps=5, lr=1e150)

    def test_steps_validated(self):
        with pytest.raises(ValueError, match="steps"):
            train_heads(cfg_with(), steps=0)


def test_gradient_check_full_objective():
    cfg = cfg_with("sampler.rays=12", "scene.channels=8")
    assert gradient_check(cfg, n_samples=40) < 1e-4


def test_bench_rays_scales_linearly():
    cfg = cfg_with()
    rows, slope, intercept, r2 = bench_rays(cfg, counts=(512, 1024, 2048, 4096))
    assert len(rows) == 4
    assert slope > 0
    assert r2 > 0.95


def test_heads_param_count():
    heads = FusionHeads(channels=8, n_views=2)
    # sampler head: 3 convs; each view MLP: 3 linears; fuse conv: 1 conv
    assert len(heads.params()) == 3 * 2 + 2 * 3 * 2 + 2
    assert heads.mlp_for(1) is heads.mlps.mlps[1]
