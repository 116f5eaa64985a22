import numpy as np
import pytest
from conftest import default_transform, front_grid, random_cloud_in_view, random_valid_transform
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfuse.geometry import GridSpec, ProjectionTransform, VoxelField, make_camera_matrix, voxelize
from rayfuse.pipeline import build_rays
from rayfuse.rays import brute_force_ray_oracle, construct_ray, mark_anchors


def assert_same_ray(a, b):
    assert a.voxels == b.voxels
    np.testing.assert_array_equal(a.depths, b.depths)


class TestConstructRay:
    def test_axis_aligned_row(self):
        # camera on the axis of a 1-voxel-thick row: the principal pixel's ray
        # is exactly that row, near to far
        grid = GridSpec((4.0, -0.25, -0.25), (0.5, 0.5, 0.5), (8, 1, 1))
        vt = default_transform(grid, stride=1, image_dims=(64, 64), fx=60.0)
        ray = construct_ray(vt, grid, (32, 32))
        assert ray.voxels == tuple((i, 0, 0) for i in range(8))
        assert (np.diff(ray.depths) > 0).all()

    def test_matches_oracle_on_16_cubed(self):
        grid = front_grid(dims=(16, 16, 16), size=0.5, x0=4.0)
        vt = random_valid_transform(grid, seed=101)
        rng = np.random.default_rng(0)
        fh, fw = vt.feature_dims
        pixels = {(int(u), int(v)) for u, v in rng.integers(0, (fw, fh), size=(200, 2))}
        nonempty = 0
        for pixel in pixels:
            got = construct_ray(vt, grid, pixel)
            want = brute_force_ray_oracle(vt, grid, pixel)
            assert_same_ray(got, want)
            nonempty += len(got) > 0
        assert nonempty > 20

    def test_matches_oracle_under_many_cameras(self):
        grid = front_grid(dims=(12, 12, 12), size=0.4, x0=3.0)
        for seed in range(8):
            vt = random_valid_transform(grid, seed=seed, stride=2, image_dims=(48, 48))
            fh, fw = vt.feature_dims
            for pixel in [(0, 0), (fw // 2, fh // 2), (fw - 1, fh - 1), (3, 17), (20, 5)]:
                assert_same_ray(construct_ray(vt, grid, pixel), brute_force_ray_oracle(vt, grid, pixel))

    def test_wide_beam_high_stride_matches_oracle(self):
        # beam several voxels wide: stride 8 over a coarse camera
        grid = front_grid(dims=(16, 16, 16), size=0.25, x0=6.0)
        vt = random_valid_transform(grid, seed=77, stride=8, image_dims=(64, 64))
        fh, fw = vt.feature_dims
        for pixel in [(u, v) for u in range(fw) for v in range(fh)]:
            assert_same_ray(construct_ray(vt, grid, pixel), brute_force_ray_oracle(vt, grid, pixel))

    def test_miss_gives_empty_ray(self):
        grid = GridSpec((4.0, -0.5, -0.5), (0.25, 0.25, 0.25), (4, 4, 4))
        vt = default_transform(grid, stride=1, image_dims=(256, 256), fx=60.0)
        ray = construct_ray(vt, grid, (0, 0))  # far corner pixel, beam misses grid
        assert ray.voxels == ()

    def test_pixel_out_of_bounds_rejected(self):
        grid = front_grid()
        vt = default_transform(grid)
        with pytest.raises(ValueError, match="outside"):
            construct_ray(vt, grid, (10000, 0))

    def test_depths_strictly_increase(self):
        grid = front_grid(dims=(16, 16, 16), size=0.5, x0=4.0)
        vt = random_valid_transform(grid, seed=5)
        fh, fw = vt.feature_dims
        rng = np.random.default_rng(1)
        for _ in range(40):
            pixel = (int(rng.integers(0, fw)), int(rng.integers(0, fh)))
            ray = construct_ray(vt, grid, pixel)
            if len(ray) > 1:
                assert (np.diff(ray.depths) > 0).all()

    def test_every_listed_voxel_projects_back(self):
        grid = front_grid(dims=(16, 16, 16), size=0.5, x0=4.0)
        vt = random_valid_transform(grid, seed=9)
        fh, fw = vt.feature_dims
        for pixel in [(4, 4), (8, 8), (12, 3)]:
            ray = construct_ray(vt, grid, pixel)
            for voxel in ray.voxels:
                assert vt.project(voxel) == pixel


class TestOracle:
    def test_1x1x1_grid(self):
        grid = GridSpec((4.0, -0.25, -0.25), (0.5, 0.5, 0.5), (1, 1, 1))
        vt = default_transform(grid, stride=1, image_dims=(64, 64), fx=60.0)
        hit = brute_force_ray_oracle(vt, grid, (32, 32))
        assert len(hit) == 1
        miss = brute_force_ray_oracle(vt, grid, (0, 0))
        assert len(miss) == 0

    def test_hand_checked_2x2x2(self):
        # camera on the +x axis, grid of 8 voxels straddling the axis: each
        # image quadrant sees the 2 voxels (near, far) of its corner
        grid = GridSpec((4.0, -0.5, -0.5), (0.5, 0.5, 0.5), (2, 2, 2))
        vt = default_transform(grid, stride=1, image_dims=(64, 64), fx=60.0)
        uv, _ = vt.project_voxels(grid.all_indices())
        for idx, (u, v) in zip(grid.all_indices(), uv):
            ray = brute_force_ray_oracle(vt, grid, (int(u), int(v)))
            assert tuple(idx) in ray.voxels
            assert ray.voxels == tuple(sorted(ray.voxels))  # larger i = deeper here
            ys = {voxel[1] for voxel in ray.voxels}
            zs = {voxel[2] for voxel in ray.voxels}
            assert len(ys) == 1 and len(zs) == 1

    def test_cost_guard(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (65, 65, 65))
        vt = default_transform(front_grid())
        with pytest.raises(ValueError, match="cost guard"):
            brute_force_ray_oracle(vt, grid, (0, 0))


class TestMarkAnchors:
    def make_ray_and_field(self, occupy):
        grid = GridSpec((4.0, -0.25, -0.25), (0.5, 0.5, 0.5), (8, 1, 1))
        vt = default_transform(grid, stride=1, image_dims=(64, 64), fx=60.0)
        ray = construct_ray(vt, grid, (32, 32))
        field = VoxelField(grid)
        field.add_at(occupy, np.ones((len(occupy), 1)))
        return ray, field

    def test_empty_field_no_anchors(self):
        ray, field = self.make_ray_and_field([])
        assert mark_anchors(ray, field).anchors == ()

    def test_full_field_all_anchors(self):
        ray, field = self.make_ray_and_field([(i, 0, 0) for i in range(8)])
        marked = mark_anchors(ray, field)
        assert marked.anchors == marked.voxels

    def test_random_occupancy_matches_intersection(self):
        rng = np.random.default_rng(55)
        grid = front_grid(dims=(16, 16, 16), size=0.5, x0=4.0)
        vt = random_valid_transform(grid, seed=3)
        pc = random_cloud_in_view(vt, 200, rng, depth_range=(4.5, 11.0), margin=5.0)
        field = voxelize(pc, grid)
        fh, fw = vt.feature_dims
        hits = 0
        for _ in range(50):
            pixel = (int(rng.integers(0, fw)), int(rng.integers(0, fh)))
            ray = mark_anchors(construct_ray(vt, grid, pixel), field)
            occupied = set(map(tuple, field.indices().tolist()))
            want = [v for v in ray.voxels if v in occupied]
            assert list(ray.anchors) == want
            hits += len(want)
        assert hits > 0

    def test_anchor_positions(self):
        ray, field = self.make_ray_and_field([(2, 0, 0), (5, 0, 0)])
        marked = mark_anchors(ray, field)
        assert marked.anchor_positions() == [2, 5]


@st.composite
def frames(draw):
    """(transform, grid, pixels, field): a random pinhole camera over an odd grid.

    Grids are anisotropic, down to one voxel thick, at most 12 per side. The
    camera sits inside the grid or up to a few meters outside it, looking at
    a random point of the grid with a random roll, or down a grid axis.
    Fields of view reach wide enough that a pixel beam straddles the axis it
    mostly runs along. Strides need not divide the image dims.
    """
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))
    size = tuple(draw(st.floats(0.1, 0.8)) for _ in range(3))
    grid = GridSpec((0.0, 0.0, 0.0), size, dims)
    extent = np.asarray(size) * np.asarray(dims)
    inside = draw(st.booleans())
    pos = extent * np.array([draw(st.floats(0.0, 1.0) if inside else st.floats(-1.5, 2.5)) for _ in range(3)])
    forward = extent * np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)]) - pos
    up = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if draw(st.booleans()):  # axis-aligned: whole slabs share one depth, so the (i, j, k) tie rule decides
        forward, up = (np.where(np.abs(a) == np.abs(a).max(), np.sign(a), 0.0) for a in (forward, up))
    right = np.cross(forward, up)
    if np.linalg.norm(forward) < 1e-3 or np.linalg.norm(right) < 1e-3 * np.linalg.norm(forward):
        forward, right = np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])
    rotation = np.stack([right, np.cross(forward, right), forward])
    rotation /= np.linalg.norm(rotation, axis=1, keepdims=True)
    h, w = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    fx = 10.0 ** draw(st.floats(-0.5, 2.0))
    mat = make_camera_matrix(
        fx, fx * draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, w)), draw(st.floats(0.0, h)),
        rotation=rotation, translation=-rotation @ pos,
    )
    vt = ProjectionTransform(mat, grid, draw(st.integers(1, 7)), (h, w))
    fh, fw = vt.feature_dims
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # half the pixels are where some voxel lands, so most rays are non-empty
    uv, depth = vt.project_voxels(grid.all_indices())
    hits = [(int(u), int(v)) for (u, v), d in zip(uv, depth) if d > 0 and 0 <= u < fw and 0 <= v < fh]
    pixels = [(int(rng.integers(fw)), int(rng.integers(fh))) for _ in range(4)]
    pixels += [hits[i] for i in rng.integers(len(hits), size=4)] if hits else []
    field = VoxelField(grid)
    occupy = grid.all_indices()[rng.random(grid.n_voxels) < 0.3]
    field.add_at(occupy, np.ones((len(occupy), 1)))
    return vt, grid, pixels, field


@settings(max_examples=60, deadline=None)
@given(frames())
def test_index_equals_oracle(frame):
    vt, grid, pixels, field = frame
    for pixel in pixels:
        assert_same_ray(construct_ray(vt, grid, pixel), brute_force_ray_oracle(vt, grid, pixel))
    rays = build_rays(vt, grid, pixels, field)
    assert [r.pixel for r in rays] == sorted(pixels)
    occupied = set(map(tuple, field.indices().tolist()))
    for ray in rays:
        assert_same_ray(ray, brute_force_ray_oracle(vt, grid, ray.pixel))
        assert list(ray.anchors) == [v for v in ray.voxels if v in occupied]
        assert mark_anchors(ray, field).anchors == ray.anchors
