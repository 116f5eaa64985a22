import math

import numpy as np
import pytest
from conftest import default_transform, front_grid, random_cloud_in_view
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfuse.autodiff import Tensor, matmul, sigmoid
from rayfuse.fusion import (
    FusionConfig,
    RayWeights,
    Target3D,
    fuse,
    fused_features,
    gaussian_target_3d,
    make_coord_mlp,
    make_fuse_conv,
    normalized_coords,
    ray_loss,
    score_ray,
    select_top,
    ViewMLPTable,
)
from rayfuse.gradcheck import finite_diff_grad_check
from rayfuse.geometry import GridSpec, PointCloud, VoxelField, voxelize
from rayfuse.losses import bce_loss
from rayfuse.pipeline import build_rays, field_digest
from rayfuse.rays import Ray, construct_ray, mark_anchors

C = 4


def straight_ray(n=8, anchors=()):
    voxels = tuple((i, 0, 0) for i in range(n))
    return Ray((0, 0), voxels, np.arange(n, dtype=np.float64) + 1.0, tuple(anchors))


def line_grid(n=8):
    return GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (n, 1, 1))


def forced_mlp(bias_rows, channels=C):
    """Coordinate MLP with zero weights: embedding == final bias, everywhere."""
    mlp = make_coord_mlp(channels, np.random.default_rng(0))
    for layer in mlp.layers:
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    mlp.layers[-1].bias.data[...] = bias_rows
    return mlp


def field_with(grid, voxels, value=0.0, channels=C):
    field = VoxelField(grid, feature_dim=channels)
    field.add_at(voxels, np.full((len(voxels), channels), value))
    return field


def occupied(field):
    return set(map(tuple, field.indices().tolist()))


def changed_voxels(out, field):
    return [tuple(v) for v in out.indices().tolist() if not np.array_equal(out.get(v), field.get(v))]


def fuse_one(field, ray, feat, mlp, fuse_conv, cfg, weights=None):
    """Fuse one ray; returns the fused field only."""
    return fuse(field, [ray], [feat], mlp, fuse_conv, cfg, None if weights is None else [weights])[0]


class TestCoordEmbed:
    # the coordinate embedding of a voxel is the MLP on its normalized_coords row
    def test_corner_voxel_embeds_origin(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
        mlp = make_coord_mlp(C, np.random.default_rng(1))
        np.testing.assert_array_equal(normalized_coords([(0, 0, 0)], grid)[0], np.zeros(3))
        got = mlp(Tensor(normalized_coords([(0, 0, 0)], grid)[0]))
        want = mlp(Tensor(np.zeros(3)))
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(normalized_coords([(3, 3, 3)], grid)[0], np.ones(3))

    def test_distinct_voxels_distinct_embeddings(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
        mlp = make_coord_mlp(C, np.random.default_rng(2))
        a, b = mlp(Tensor(normalized_coords([(0, 1, 2), (2, 1, 0)], grid))).data
        assert np.abs(a - b).max() > 0

    def test_matches_matmul_oracle(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (5, 5, 5))
        mlp = make_coord_mlp(C, np.random.default_rng(3))
        x = normalized_coords([(1, 2, 3)], grid)[0]
        h = x
        for i, layer in enumerate(mlp.layers):
            h = layer.weight.data @ h + layer.bias.data
            if i < len(mlp.layers) - 1:
                h = np.maximum(h, 0.0)
        np.testing.assert_allclose(mlp(Tensor(x)).data, h, atol=1e-13)


class TestRayWeight:
    # score_ray on a one-voxel ray with a forced embedding is the sigmoid inner product
    def weight(self, feat, embed):
        grid = line_grid()
        mlp = forced_mlp(np.asarray(embed, dtype=np.float64), channels=len(embed))
        return score_ray(straight_ray(1), Tensor(np.asarray(feat, dtype=np.float64)), mlp, grid).values[0]

    def test_orthogonal_is_half(self):
        assert self.weight([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_unit_inner_product(self):
        assert abs(self.weight([1.0, 0.0], [1.0, 0.0]) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15

    def test_negated_embedding_flips(self):
        rng = np.random.default_rng(4)
        f, e = rng.normal(size=C), rng.normal(size=C)
        assert abs(self.weight(f, e) + self.weight(f, -e) - 1.0) < 1e-12

    def test_length_mismatch(self):
        mlp = make_coord_mlp(C, np.random.default_rng(0))
        with pytest.raises(ValueError, match="length"):
            score_ray(straight_ray(), Tensor(np.ones(3)), mlp, line_grid())

    def test_score_ray_matches_per_voxel(self):
        rng = np.random.default_rng(5)
        grid = line_grid()
        mlp = make_coord_mlp(C, rng)
        feat = Tensor(rng.normal(size=C))
        ray = straight_ray()
        weights = score_ray(ray, feat, mlp, grid)
        for i, voxel in enumerate(ray.voxels):
            embed = mlp(Tensor(normalized_coords([voxel], grid)[0]))
            want = sigmoid(matmul(feat, embed)).item()
            assert abs(weights.values[i] - want) < 1e-14


class TestGaussianTarget3d:
    def test_anchor_value_one(self):
        ray = straight_ray(anchors=[(3, 0, 0)])
        target = gaussian_target_3d(ray, line_grid(), radius=1.0, sigma=0.5)
        assert target.values[3] == 1.0

    def test_beyond_radius_zero(self):
        ray = straight_ray(anchors=[(3, 0, 0)])
        target = gaussian_target_3d(ray, line_grid(), radius=1.0, sigma=0.5)
        assert target.values[5] == 0.0 and target.values[0] == 0.0

    def test_distance_one_half_sigma(self):
        ray = straight_ray(anchors=[(3, 0, 0)])
        target = gaussian_target_3d(ray, line_grid(), radius=1.0, sigma=0.5)
        assert abs(target.values[4] - math.exp(-2.0)) < 1e-12
        assert abs(target.values[2] - math.exp(-2.0)) < 1e-12

    def test_no_anchors_all_zero(self):
        target = gaussian_target_3d(straight_ray(), line_grid(), 1.0, 0.5)
        assert (target.values == 0).all()

    def test_multi_anchor_max_oracle(self):
        rng = np.random.default_rng(6)
        grid = GridSpec((0, 0, 0), (1, 1, 1), (16, 16, 16))
        voxels = tuple(tuple(v) for v in rng.integers(0, 16, size=(20, 3)))
        voxels = tuple(dict.fromkeys(voxels))
        anchors = voxels[:4]
        ray = Ray((0, 0), voxels, np.arange(len(voxels), dtype=float), anchors)
        radius, sigma = 2.0, 1.0
        got = gaussian_target_3d(ray, grid, radius, sigma).values
        for i, v in enumerate(voxels):
            best = 0.0
            for a in anchors:
                d = math.dist(v, a)
                if d <= radius:
                    best = max(best, math.exp(-(d**2) / (2 * sigma**2)))
            assert abs(got[i] - best) < 1e-12

    def test_values_in_unit_interval(self):
        ray = straight_ray(anchors=[(0, 0, 0), (5, 0, 0)])
        vals = gaussian_target_3d(ray, line_grid(), 2.0, 1.0).values
        assert (vals >= 0).all() and (vals <= 1).all()


class TestSelectTop:
    def test_quarter_of_eight_is_two(self):
        scored = [((i, 0, 0), 0.1 * i) for i in range(8)]
        picked = select_top(scored, occupancy_count=8, top_fraction=0.25)
        assert len(picked) == 2
        assert [scored[i][0] for i in picked] == [(7, 0, 0), (6, 0, 0)]

    def test_ties_break_by_voxel_index(self):
        scored = [((5, 0, 0), 0.7), ((1, 0, 0), 0.7), ((3, 0, 0), 0.7)]
        picked = select_top(scored, occupancy_count=8, top_fraction=0.25)
        assert [scored[i][0] for i in picked] == [(1, 0, 0), (3, 0, 0)]

    def test_inference_threshold(self):
        scored = [((0, 0, 0), 0.9), ((1, 0, 0), 0.04)]
        picked = select_top(scored, occupancy_count=8, top_fraction=0.25, infer_threshold=0.05)
        assert [scored[i][0] for i in picked] == [(0, 0, 0)]

    def test_fewer_candidates_than_k(self):
        scored = [((0, 0, 0), 0.5)]
        picked = select_top(scored, occupancy_count=100, top_fraction=0.25)
        assert len(picked) == 1

    def test_cardinality_on_random_scenes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_occ = int(rng.integers(1, 200))
            n_cand = int(rng.integers(50, 300))
            scored = [((int(i), 0, 0), float(rng.uniform())) for i in range(n_cand)]
            picked = select_top(scored, n_occ, 0.25)
            assert len(picked) == min(math.ceil(n_occ / 4), n_cand)


def scene_with_field(seed=8, channels=C):
    rng = np.random.default_rng(seed)
    grid = front_grid(dims=(12, 12, 12), size=0.4, x0=3.0)
    vt = default_transform(grid, stride=4, image_dims=(64, 64), fx=50.0)
    pc = random_cloud_in_view(vt, 120, rng, depth_range=(3.5, 7.5), margin=6.0)
    field = voxelize(pc, grid, feature_dim=channels)
    return rng, grid, vt, field


def anchored_pixel(vt, field):
    """A feature pixel whose ray is guaranteed to cross occupied voxels."""
    voxel = field.indices()[len(field) // 2]
    pixel = vt.project(voxel)
    assert pixel is not None and vt.in_feature_bounds(pixel)
    return pixel


class TestFuseRay:
    def test_zero_weight_noop_bitwise(self):
        rng, grid, vt, field = scene_with_field()
        ray = mark_anchors(construct_ray(vt, grid, (8, 8)), field)
        assert len(ray) > 0
        fuse_conv = make_fuse_conv(C, rng=rng)
        # -inf logits through the real scoring path: huge negative embedding
        mlp = forced_mlp(np.full(C, -1e200))
        feat = Tensor(np.full(C, 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            out, count = fuse(field, [ray], [feat], mlp, fuse_conv, FusionConfig())
        assert count > 0
        assert field_digest(out) == field_digest(field)
        assert occupied(out) == occupied(field)

    def test_injected_zero_weights_noop(self):
        rng, grid, vt, field = scene_with_field()
        ray = mark_anchors(construct_ray(vt, grid, (8, 8)), field)
        weights = RayWeights(ray, Tensor(np.zeros(len(ray))))
        out = fuse_one(field, ray, Tensor(np.zeros(C)), forced_mlp(np.zeros(C)), make_fuse_conv(C, rng=rng), FusionConfig(), weights)
        assert field_digest(out) == field_digest(field)

    def test_unit_weight_single_voxel_exact_kernel(self):
        grid = line_grid()
        field = field_with(grid, [(3, 0, 0)])  # occupancy 1 so k = 1
        ray = Ray((0, 0), ((2, 0, 0),), np.array([1.0]))
        rng = np.random.default_rng(9)
        fuse_conv = make_fuse_conv(C, rng=rng)
        mlp = make_coord_mlp(C, rng)
        feat = Tensor(rng.normal(size=C))
        weights = RayWeights(ray, Tensor(np.ones(1)))
        out = fuse_one(field, ray, feat, mlp, fuse_conv, FusionConfig(), weights)
        embed = mlp(Tensor(normalized_coords([(2, 0, 0)], grid)[0])).data
        w, b = fuse_conv.layers[0].weight.data[:, :, 0, 0], fuse_conv.layers[0].bias.data
        want = w @ np.concatenate([feat.data, embed]) + b
        np.testing.assert_allclose(out.get((2, 0, 0)), want, atol=1e-14)

    def test_fusing_empty_voxel_adds_occupancy(self):
        rng, grid, vt, field = scene_with_field()
        ray = mark_anchors(construct_ray(vt, grid, (8, 8)), field)
        empty = [v for v in ray.voxels if v not in occupied(field)]
        assert empty
        out = fuse_one(field, ray, Tensor(np.ones(C)), make_coord_mlp(C, rng), make_fuse_conv(C, rng=rng), FusionConfig(top_fraction=1.0))
        assert set(empty) <= occupied(out)

    def test_monotone_completion(self):
        rng, grid, vt, field = scene_with_field()
        for pixel in [(4, 4), (8, 8), (12, 10)]:
            ray = mark_anchors(construct_ray(vt, grid, pixel), field)
            out = fuse_one(field, ray, Tensor(np.ones(C)), make_coord_mlp(C, rng), make_fuse_conv(C, rng=rng), FusionConfig())
            assert occupied(field) <= occupied(out)

    def test_inference_threshold_filters(self):
        grid = line_grid()
        field = field_with(grid, [(i, 0, 0) for i in range(8)])  # k = 2
        ray = straight_ray(4)
        weights = RayWeights(ray, Tensor(np.array([0.9, 0.04, 0.03, 0.02])))
        cfg = FusionConfig(training=False)
        rng = np.random.default_rng(10)
        out = fuse_one(field, ray, Tensor(np.ones(C)), forced_mlp(np.zeros(C)), make_fuse_conv(C, rng=rng), cfg, weights)
        assert changed_voxels(out, field) == [(0, 0, 0)]


class TestFuseSingle:
    def test_no_anchors_unchanged(self):
        rng, grid, vt, field = scene_with_field()
        ray = construct_ray(vt, grid, (8, 8))  # anchors never marked
        out, count = fuse(field, [ray], [Tensor(np.ones(C))], make_coord_mlp(C, rng), make_fuse_conv(C, rng=rng), FusionConfig(mode="single"))
        assert count == 0
        assert field_digest(out) == field_digest(field)

    def test_one_anchor_one_update(self):
        rng, grid, vt, field = scene_with_field()
        ray = mark_anchors(construct_ray(vt, grid, anchored_pixel(vt, field)), field)
        assert ray.anchors
        one = Ray(ray.pixel, ray.voxels, ray.depths, ray.anchors[:1])
        out = fuse_one(field, one, Tensor(np.ones(C)), make_coord_mlp(C, rng), make_fuse_conv(C, rng=rng), FusionConfig(mode="single"))
        assert changed_voxels(out, field) == [one.anchors[0]]

    def test_equals_raywise_restricted_to_anchors(self):
        rng, grid, vt, field = scene_with_field()
        ray = mark_anchors(construct_ray(vt, grid, anchored_pixel(vt, field)), field)
        assert ray.anchors
        mlp = make_coord_mlp(C, rng)
        fuse_conv = make_fuse_conv(C, rng=rng)
        feat = Tensor(rng.normal(size=C))
        single = fuse_one(field, ray, feat, mlp, fuse_conv, FusionConfig(mode="single"))

        pos = ray.anchor_positions()
        restricted = Ray(ray.pixel, ray.anchors, ray.depths[pos], ray.anchors)
        weights = RayWeights(restricted, Tensor(np.ones(len(pos))))
        raywise = fuse_one(field, restricted, feat, mlp, fuse_conv, FusionConfig(top_fraction=1.0), weights)
        assert occupied(single) == occupied(raywise)
        for v in single.indices():
            np.testing.assert_allclose(single.get(v), raywise.get(v), atol=1e-12)


def local_cfg(flavour, radius, sigma=None):
    return FusionConfig(mode=f"local_{flavour}", radius=radius, sigma=sigma)


class TestFuseLocal:
    def test_r0_reduces_to_single(self):
        rng, grid, vt, field = scene_with_field()
        mlp = make_coord_mlp(C, rng)
        fuse_conv = make_fuse_conv(C, rng=rng)
        feat = Tensor(rng.normal(size=C))
        for pixel in [(4, 4), (8, 8), (11, 6)]:
            ray = mark_anchors(construct_ray(vt, grid, pixel), field)
            want = fuse_one(field, ray, feat, mlp, fuse_conv, FusionConfig(mode="single"))
            for flavour in ("aggregate", "propagate"):
                got = fuse_one(field, ray, feat, mlp, fuse_conv, local_cfg(flavour, radius=0.0))
                assert occupied(got) == occupied(want)
                for v in got.indices():
                    np.testing.assert_allclose(got.get(v), want.get(v), atol=1e-12)

    def test_neighbor_weight_closed_form(self):
        grid = line_grid()
        field = field_with(grid, [(3, 0, 0)])
        ray = Ray((0, 0), ((3, 0, 0), (4, 0, 0)), np.array([1.0, 2.0]), ((3, 0, 0),))
        rng = np.random.default_rng(11)
        mlp = make_coord_mlp(C, rng)
        fuse_conv = make_fuse_conv(C, rng=rng)
        feat = Tensor(rng.normal(size=C))
        sigma = 0.7
        out = fuse_one(field, ray, feat, mlp, fuse_conv, local_cfg("propagate", radius=1.0, sigma=sigma))
        # neighbor receives anchor's fused feature times exp(-1/(2 sigma^2))
        embeds = fused_features(feat, mlp(Tensor(normalized_coords(ray.voxels, grid))), fuse_conv).data
        g = math.exp(-1.0 / (2.0 * sigma**2))
        np.testing.assert_allclose(out.get((4, 0, 0)), g * embeds[0], atol=1e-12)
        np.testing.assert_allclose(out.get((3, 0, 0)), embeds[0], atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng, grid, vt, field = scene_with_field(seed=12)
        mlp = make_coord_mlp(C, rng)
        fuse_conv = make_fuse_conv(C, rng=rng)
        feat = Tensor(rng.normal(size=C))
        ray = mark_anchors(construct_ray(vt, grid, anchored_pixel(vt, field)), field)
        assert ray.anchors
        radius, sigma = 2.0, 1.0

        updates = fused_features(feat, mlp(Tensor(normalized_coords(ray.voxels, grid))), fuse_conv).data
        for flavour in ("aggregate", "propagate"):
            got = fuse_one(field, ray, feat, mlp, fuse_conv, local_cfg(flavour, radius, sigma))
            oracle = {tuple(v): row.copy() for v, row in zip(field.indices().tolist(), field.rows)}
            for a in ray.anchors:
                ai = ray.voxels.index(a)
                for vi, v in enumerate(ray.voxels):
                    d = math.dist(a, v)
                    if d <= radius:
                        g = 1.0 if d == 0 else math.exp(-(d**2) / (2 * sigma**2))
                        key, row = (a, updates[vi]) if flavour == "aggregate" else (v, updates[ai])
                        oracle[key] = oracle.get(key, np.zeros(C)) + g * row
            assert occupied(got) == set(oracle)
            for v, row in oracle.items():
                np.testing.assert_allclose(got.get(v), row, atol=1e-12)

    def test_outside_all_balls_untouched(self):
        grid = line_grid(10)
        field = field_with(grid, [(0, 0, 0)], value=1.0)
        ray = Ray((0, 0), tuple((i, 0, 0) for i in range(10)), np.arange(10.0), ((0, 0, 0),))
        rng = np.random.default_rng(13)
        out = fuse_one(field, ray, Tensor(np.ones(C)), make_coord_mlp(C, rng), make_fuse_conv(C, rng=rng), local_cfg("propagate", 1.0))
        for i in range(2, 10):
            np.testing.assert_array_equal(out.get((i, 0, 0)), np.zeros(C))


class TestRayLoss:
    def make_weights(self, values):
        ray = straight_ray(len(values))
        return RayWeights(ray, Tensor(np.asarray(values, dtype=np.float64)))

    def test_perfect_binary_near_zero(self):
        w = self.make_weights([0.0, 1.0, 1.0, 0.0])
        t = Target3D(np.array([0.0, 1.0, 1.0, 0.0]))
        assert ray_loss([w], [t]).item() < 1e-5

    def test_single_element_reduction_identity(self):
        w = self.make_weights([0.3])
        t = Target3D(np.array([0.8]))
        got = ray_loss([w], [t], gamma=0.0, alpha=0.5).item()
        want = 5.0 * 0.5 * bce_loss(Tensor(np.array([0.3])), Tensor(np.array([0.8]))).item()
        assert abs(got - want) / want < 1e-12

    def test_empty_ray_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ray_loss([], [])

    def test_gradient_three_ray_toy(self):
        rng = np.random.default_rng(14)
        grid = front_grid(dims=(12, 12, 12), size=0.4, x0=3.0)
        vt = default_transform(grid, stride=4, image_dims=(64, 64), fx=50.0)
        pc = random_cloud_in_view(vt, 80, rng, depth_range=(3.5, 7.5), margin=6.0)
        field = voxelize(pc, grid, feature_dim=C)
        mlp = make_coord_mlp(C, rng)
        rays, feats, targets = [], [], []
        for pixel in [(6, 6), (8, 8), (10, 7)]:
            ray = mark_anchors(construct_ray(vt, grid, pixel), field)
            rays.append(ray)
            feats.append(Tensor(rng.normal(size=C)))
            targets.append(gaussian_target_3d(ray, grid, radius=1.0, sigma=0.5))
        assert sum(len(r) for r in rays) > 0

        def loss():
            weights = [score_ray(r, f, mlp, grid) for r, f in zip(rays, feats)]
            return ray_loss(weights, targets)

        assert finite_diff_grad_check(loss, mlp.params(), rng=rng) < 1e-4


def test_fused_features_gradients():
    # drives the transpose/reshape/concat backward paths that the objective
    # itself never reaches (the fuse conv gets no gradient from the loss)
    rng = np.random.default_rng(21)
    mlp = make_coord_mlp(C, rng)
    fuse_conv = make_fuse_conv(C, rng=rng)
    grid = line_grid()
    feat = Tensor(rng.normal(size=C))
    coords = Tensor(normalized_coords([(1, 0, 0), (4, 0, 0), (6, 0, 0)], grid))

    def loss():
        from rayfuse.autodiff import tsum

        return tsum(fused_features(feat, mlp(coords), fuse_conv))

    params = mlp.params() + fuse_conv.params()
    assert finite_diff_grad_check(loss, params, rng=rng) < 1e-6


class TestFuseRaysGlobal:
    def test_selection_cardinality_and_determinism(self):
        rng, grid, vt, field = scene_with_field(seed=15)
        mlp = make_coord_mlp(C, rng)
        fuse_conv = make_fuse_conv(C, rng=rng)
        pixels = [(4, 4), (6, 8), (8, 8), (10, 6), (12, 10)]
        rays = [mark_anchors(construct_ray(vt, grid, p), field) for p in pixels]
        feats = [Tensor(np.full(C, 0.1 * (i + 1))) for i in range(len(rays))]
        cfg = FusionConfig()
        out1, count1 = fuse(field, rays, feats, mlp, fuse_conv, cfg)
        out2, count2 = fuse(field, rays, feats, mlp, fuse_conv, cfg)
        assert count1 == count2
        assert field_digest(out1) == field_digest(out2)
        k = math.ceil(len(field) * cfg.top_fraction)
        assert count1 == min(k, sum(len(r) for r in rays))
        assert occupied(field) <= occupied(out1)

    def test_view_mlp_table(self):
        table = ViewMLPTable(C, n_views=3, rng=np.random.default_rng(16))
        assert len(table.mlps) == 3
        assert table.for_view(2) is table.mlps[2]
        assert len(table.params()) == 3 * 6
        a = table.for_view(0)(Tensor(np.array([0.1, 0.2, 0.3]))).data
        b = table.for_view(1)(Tensor(np.array([0.1, 0.2, 0.3]))).data
        assert np.abs(a - b).max() > 0


class TestFusionConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="mode"):
            FusionConfig(mode="global")
        with pytest.raises(ValueError, match="radius"):
            FusionConfig(radius=-1.0)
        with pytest.raises(ValueError, match="top_fraction"):
            FusionConfig(top_fraction=0.0)
        # a negative sigma would supervise with the indicator but fuse with a Gaussian of |sigma|
        with pytest.raises(ValueError, match="sigma"):
            FusionConfig(sigma=-0.5)

    def test_default_sigma_tracks_radius(self):
        assert FusionConfig(radius=3.0).target_sigma == 1.5
        assert FusionConfig(radius=3.0, sigma=0.25).target_sigma == 0.25
        assert FusionConfig(radius=3.0, sigma=0.0).target_sigma == 0.0



@st.composite
def fusion_frames(draw):
    """(field, rays, feats, mlp, fuse_conv): a small random scene with distinct-pixel rays."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dims = tuple(draw(st.integers(2, 8)) for _ in range(3))
    grid = front_grid(dims=dims, size=draw(st.floats(0.25, 0.6)), x0=3.0)
    vt = default_transform(grid, stride=draw(st.integers(2, 6)), image_dims=(48, 48), fx=40.0)
    lo = np.asarray(grid.origin)
    pts = rng.uniform(lo, lo + np.asarray(grid.voxel_size) * dims, size=(draw(st.integers(1, 60)), 3))
    channels = draw(st.integers(1, 4))
    field = voxelize(PointCloud(np.column_stack([pts, rng.uniform(size=len(pts))])), grid, feature_dim=channels)
    # half the pixels see an occupied voxel, so most frames have anchors
    fh, fw = vt.feature_dims
    uv, _ = vt.project_voxels(field.indices())
    seen = [(int(u), int(v)) for u, v in uv if 0 <= u < fw and 0 <= v < fh]
    n = draw(st.integers(1, 12))
    pixels = [(int(rng.integers(fw)), int(rng.integers(fh))) for _ in range(n)]
    pixels += [seen[i] for i in rng.integers(len(seen), size=n)] if seen else []
    rays = build_rays(vt, grid, sorted(set(pixels)), field)
    feats = [Tensor(rng.normal(size=channels)) for _ in rays]
    return field, rays, feats, make_coord_mlp(channels, rng), make_fuse_conv(channels, rng=rng)


@settings(max_examples=25, deadline=None)
@given(
    fusion_frames(),
    st.sampled_from(("single", "local_aggregate", "local_propagate", "ray_wise")),
    st.floats(0.05, 1.0),
    st.floats(0.0, 2.0),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_fuse_properties(frame, mode, top_fraction, radius, training, random):
    field, rays, feats, mlp, fuse_conv = frame
    cfg = FusionConfig(mode=mode, radius=radius, top_fraction=top_fraction, training=training)
    before = field_digest(field)
    out, count = fuse(field, rays, feats, mlp, fuse_conv, cfg)
    assert field_digest(field) == before  # the input field is not touched

    # each voxel lies on one pixel's ray, so the order of the rays cannot matter
    order = list(range(len(rays)))
    random.shuffle(order)
    out2, count2 = fuse(field, [rays[i] for i in order], [feats[i] for i in order], mlp, fuse_conv, cfg)
    assert (field_digest(out2), count2) == (field_digest(out), count)

    if mode == "ray_wise":
        assert count <= math.ceil(top_fraction * len(field))
        assert len(out) - len(field) <= count
        zero = [RayWeights(r, Tensor(np.zeros(len(r)))) for r in rays]
        assert field_digest(fuse(field, rays, feats, mlp, fuse_conv, cfg, zero)[0]) == before
    else:
        assert count == sum(len(r.anchors) for r in rays)
        bare = [Ray(r.pixel, r.voxels, r.depths) for r in rays]  # no anchor, nothing to weight
        assert field_digest(fuse(field, bare, feats, mlp, fuse_conv, cfg)[0]) == before
    if mode in ("single", "local_aggregate"):
        assert occupied(out) == occupied(field)
    assert occupied(field) <= occupied(out)
