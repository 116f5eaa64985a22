import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfuse.geometry import (
    GridSpec,
    PointCloud,
    ProjectionTransform,
    VoxelField,
    compose_projection,
    make_camera_matrix,
    parse_kitti_calib,
    voxelize,
    world_to_image_matrix,
)

IDENTITY_CALIB = """\
P2: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0
"""

# Numbers shaped like the official KITTI calib line layout.
KITTI_LIKE_CALIB = """\
P0: 7.215377e+02 0.0 6.095593e+02 0.0 0.0 7.215377e+02 1.728540e+02 0.0 0.0 0.0 1.0 0.0
P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03
R0_rect: 9.999239e-01 9.837760e-03 -7.445048e-03 -9.869795e-03 9.999421e-01 -4.278459e-03 7.402527e-03 4.351614e-03 9.999631e-01
Tr_velo_to_cam: 7.533745e-03 -9.999714e-01 -6.166020e-04 -4.069766e-03 1.480249e-02 7.280733e-04 -9.998902e-01 -7.631618e-02 9.998621e-01 7.523790e-03 1.480755e-02 -2.717806e-01
"""


def simple_grid(n=8, size=0.5, origin=(2.0, -2.0, -2.0)):
    return GridSpec(origin=origin, voxel_size=(size, size, size), dims=(n, n, n))


def toy_transform(grid=None, stride=1, dims=(64, 64), fx=60.0, cx=32.0, cy=32.0):
    grid = grid or simple_grid()
    mat = make_camera_matrix(fx, fx, cx, cy)
    return ProjectionTransform(mat, grid, stride, dims)


class TestCalibParsing:
    def test_identity_fixture(self):
        calib = parse_kitti_calib(IDENTITY_CALIB)
        np.testing.assert_array_equal(calib["P2"], np.eye(3, 4))
        np.testing.assert_array_equal(calib["R0_rect"], np.eye(3))
        np.testing.assert_array_equal(calib["Tr_velo_to_cam"], np.eye(3, 4))

    def test_kitti_layout_projects_into_image(self):
        calib = parse_kitti_calib(KITTI_LIKE_CALIB)
        mat = world_to_image_matrix(calib)
        # hand-computed route: Tr, then R0, then P2, one step at a time
        p_velo = np.array([12.0, 1.5, -0.8, 1.0])
        p_cam = calib["Tr_velo_to_cam"] @ p_velo
        p_rect = calib["R0_rect"] @ p_cam
        h = calib["P2"] @ np.append(p_rect, 1.0)
        expect = h[:2] / h[2]
        got = mat @ p_velo
        np.testing.assert_allclose(got[:2] / got[2], expect, atol=1e-9)
        assert 0 <= expect[0] < 1242 and 0 <= expect[1] < 375

    def test_missing_key(self):
        text = "\n".join(l for l in KITTI_LIKE_CALIB.splitlines() if not l.startswith("P2"))
        with pytest.raises(ValueError, match="missing P2"):
            parse_kitti_calib(text)

    def test_malformed_float(self):
        with pytest.raises(ValueError, match="malformed float"):
            parse_kitti_calib(IDENTITY_CALIB.replace("1 0 0 0 0 1", "1 zz 0 0 0 1", 1))

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="expects 9 floats"):
            parse_kitti_calib(IDENTITY_CALIB.replace("R0_rect: 1 0 0 0 1 0 0 0 1", "R0_rect: 1 0 0 0 1"))


class TestGridSpec:
    def test_round_trip_all_indices(self):
        grid = simple_grid(6, 0.4, (-1.0, 2.5, 0.25))
        for idx in grid.all_indices():
            np.testing.assert_array_equal(grid.index_of(grid.world_of(idx)), idx)

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
        st.floats(0.05, 3.0),
        st.floats(-50.0, 50.0),
    )
    def test_round_trip_random(self, idx, size, origin0):
        grid = GridSpec((origin0, 0.0, -5.0), (size, size, size), (16, 16, 16))
        assert tuple(grid.index_of(grid.world_of(idx))) == idx

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0), (0.0, 1.0, 1.0), (4, 4, 4))
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0), (1.0, 1.0, 1.0), (4, 0, 4))


class TestProject:
    def test_on_axis_voxel_hits_principal_point(self):
        # grid centered on the +x axis; middle voxel center projects to (cx, cy)
        grid = GridSpec((4.0, -0.25, -0.25), (0.5, 0.5, 0.5), (8, 1, 1))
        vt = toy_transform(grid, stride=1, fx=60.0, cx=32.0, cy=32.0)
        for i in range(8):
            assert vt.project((i, 0, 0)) == (32, 32)

    def test_matches_matmul_oracle_random(self):
        rng = np.random.default_rng(21)
        grid = simple_grid()
        mat = make_camera_matrix(55.0, 50.0, 30.0, 28.0, translation=(0.2, -0.1, 0.05))
        vt = ProjectionTransform(mat, grid, 2, (64, 64))
        for _ in range(10):
            idx = tuple(rng.integers(0, 8, size=3))
            h = vt.voxel_matrix @ np.array([*idx, 1.0])
            want = None if h[2] <= 0 else (int(np.floor(h[0] / h[2] / 2)), int(np.floor(h[1] / h[2] / 2)))
            assert vt.project(idx) == want

    def test_oracle_agreement_all_voxels_8cubed(self):
        grid = simple_grid(8)
        vt = toy_transform(grid, stride=2)
        for idx in grid.all_indices():
            h = vt.voxel_matrix @ np.array([*idx, 1.0])
            if h[2] <= 0:
                assert vt.project(tuple(idx)) is None
            else:
                want = (int(np.floor(h[0] / h[2] / 2)), int(np.floor(h[1] / h[2] / 2)))
                assert vt.project(tuple(idx)) == want

    def test_behind_camera(self):
        grid = GridSpec((-10.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
        vt = toy_transform(grid)
        assert vt.project((0, 0, 0)) is None

    def test_vectorized_matches_scalar(self):
        grid = simple_grid()
        vt = toy_transform(grid, stride=4)
        idx = grid.all_indices()
        uv, depth = vt.project_voxels(idx)
        for row, (u, v), d in zip(idx, uv, depth):
            got = vt.project(tuple(row))
            if d <= 0:
                assert got is None
            else:
                assert got == (u, v)

    def test_singular_matrix_rejected(self):
        bad = np.zeros((3, 4))
        bad[0, 0] = 1.0
        with pytest.raises(ValueError, match="singular"):
            ProjectionTransform(bad, simple_grid(), 1, (8, 8))


class _StubRecord:
    def __init__(self, affine2d, point_matrix):
        self.affine2d = np.asarray(affine2d, dtype=np.float64)
        self._pm = np.asarray(point_matrix, dtype=np.float64)

    def point_matrix(self):
        return self._pm


class TestComposeProjection:
    def test_identity_calib_gives_grid_scale_matrix(self):
        grid = GridSpec((1.0, 2.0, 3.0), (0.5, 0.25, 2.0), (4, 4, 4))
        calib = parse_kitti_calib(IDENTITY_CALIB)
        vt = compose_projection(grid, calib, stride=1, image_dims=(32, 32))
        np.testing.assert_allclose(vt.voxel_matrix, grid.center_affine()[:3], atol=0)

    def two_path_residual(self, record, n=100, seed=2):
        rng = np.random.default_rng(seed)
        grid = simple_grid()
        mat = make_camera_matrix(60.0, 58.0, 31.5, 30.5, translation=(0.1, -0.2, 0.3))
        base = ProjectionTransform(mat, grid, 1, (64, 64))
        composed = compose_projection(grid, mat, record, stride=1, image_dims=(64, 64))
        pts = rng.uniform([3.0, -1.5, -1.5], [6.0, 1.5, 1.5], size=(n, 3))
        aug_pts = (record.point_matrix() @ np.concatenate([pts, np.ones((n, 1))], axis=1).T).T[:, :3]
        uv_a, d_a = composed.project_world(aug_pts)
        uv_base, d_b = base.project_world(pts)
        assert (d_a > 0).all() and (d_b > 0).all()
        a = record.affine2d
        uv_b = uv_base @ a[:, :2].T + a[:, 2]
        return np.abs(uv_a - uv_b).max()

    def test_flip_two_path(self):
        rec = _StubRecord([[-1.0, 0.0, 64.0], [0.0, 1.0, 0.0]], np.diag([1.0, -1.0, 1.0, 1.0]))
        assert self.two_path_residual(rec) < 1e-9

    def test_rescale_two_path(self):
        rec = _StubRecord([[1.01, 0.002, -0.4], [-0.001, 0.99, 0.6]], np.diag([1.05, 1.05, 1.05, 1.0]))
        assert self.two_path_residual(rec) < 1e-9


class TestVoxelize:
    def test_single_point_at_center(self):
        grid = simple_grid()
        pc = PointCloud([[*grid.world_of((3, 4, 5)), 0.7]])
        field = voxelize(pc, grid)
        assert field.indices().tolist() == [[3, 4, 5]]
        assert field.get((3, 4, 5))[0] == 0.7

    def test_two_points_mean_intensity(self):
        grid = simple_grid()
        c = grid.world_of((1, 1, 1))
        pc = PointCloud([[*(c + 0.01), 0.2], [*(c - 0.01), 0.8]])
        field = voxelize(pc, grid)
        assert len(field) == 1
        assert abs(field.get((1, 1, 1))[0] - 0.5) < 1e-15

    def test_brute_force_binning_oracle(self):
        rng = np.random.default_rng(31)
        grid = simple_grid(8, 0.5, (0.0, 0.0, 0.0))
        pts = np.column_stack([rng.uniform(-0.5, 4.5, size=(1000, 3)), rng.uniform(size=1000)])
        field = voxelize(PointCloud(pts), grid)
        expect = {}
        dropped = 0
        for x, y, z, intensity in pts:
            i, j, k = int(np.floor(x / 0.5)), int(np.floor(y / 0.5)), int(np.floor(z / 0.5))
            if 0 <= i < 8 and 0 <= j < 8 and 0 <= k < 8:
                total, count = expect.get((i, j, k), (0.0, 0))
                expect[(i, j, k)] = (total + intensity, count + 1)
            else:
                dropped += 1
        assert field.indices().tolist() == [list(v) for v in sorted(expect)]
        assert field.dropped == dropped
        # the same sums in the same point order: equal bit for bit
        for voxel, (total, count) in expect.items():
            assert field.get(voxel)[0] == total / count

    def test_absent_voxel_reads_zero(self):
        field = voxelize(PointCloud(np.zeros((0, 4))), simple_grid(), feature_dim=3)
        np.testing.assert_array_equal(field.get((0, 0, 0)), np.zeros(3))


def test_pointcloud_bin_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(64, 4)).astype(np.float32).astype(np.float64)
    pc = PointCloud(pts)
    path = tmp_path / "cloud.bin"
    pc.save_bin(path)
    back = PointCloud.load_bin(path)
    np.testing.assert_array_equal(back.points, pts)
    assert path.stat().st_size == 64 * 4 * 4


def test_pointcloud_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud([[0.0, np.nan, 0.0, 0.0]])


class TestVoxelField:
    def test_add_at_accumulates_in_order_and_keeps_keys_sorted(self):
        field = VoxelField(simple_grid(), feature_dim=2)
        field.add_at([(3, 0, 1), (0, 2, 0), (3, 0, 1)], [[1e16, 1.0], [2.0, 2.0], [1.0, 3.0]])
        field.add_at([(3, 0, 1), (1, 1, 1)], [[-1e16, 0.5], [4.0, 4.0]])
        assert field.indices().tolist() == [[0, 2, 0], [1, 1, 1], [3, 0, 1]]
        assert np.all(np.diff(field.keys) > 0)
        # (1e16 + 1) - 1e16 is 0 in float64: the adds ran in the order given
        np.testing.assert_array_equal(field.get((3, 0, 1)), [0.0, 4.5])
        np.testing.assert_array_equal(field.get((0, 2, 0)), [2.0, 2.0])
        assert len(field) == 3

    def test_add_at_rejects_outside_index_and_bad_rows(self):
        field = VoxelField(simple_grid(), feature_dim=2)
        with pytest.raises(KeyError, match="outside grid"):
            field.add_at([(0, 0, 0), (0, -1, 0)], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            field.add_at([(0, 0, 0)], np.zeros((1, 3)))
        assert len(field) == 0

    def test_copy_is_independent(self):
        field = VoxelField(simple_grid(), feature_dim=1)
        field.add_at([(1, 2, 3)], [[1.0]])
        twin = field.copy()
        twin.add_at([(1, 2, 3), (0, 0, 0)], [[1.0], [1.0]])
        assert len(field) == 1 and field.get((1, 2, 3))[0] == 1.0
        assert len(twin) == 2 and twin.get((1, 2, 3))[0] == 2.0
