"""Tests of the benchmark itself: self-time arithmetic, tracing fidelity, golden checks.

    python3 -m pytest -q perfbench
"""

import copy
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from child import import_rayfuse  # noqa: E402


@pytest.fixture(scope="module")
def rf():
    return import_rayfuse()


def test_self_times_on_synthetic_call_tree():
    # pipeline [0, 10]
    #   rays [1, 6]
    #     geometry.project_voxels [2, 3], 40 rows
    #     rays [3.5, 4.5]            (same layer: merged into the outer rays block)
    #       geometry.project_voxels [3.6, 3.8], 10 rows
    #   fusion [6, 9]
    #     geometry.VoxelField.copy [7, 8], 5 rows
    #       fusion [7.2, 7.4]        (a new fusion block nested in geometry)
    #   autodiff.backward [9, 9.5]
    # plus 0.5 s of the op outside every span
    spans = [
        (-1, "pipeline.run_fusion_pass", 0.0, 10.0, -1),
        (0, "rays.construct_ray", 1.0, 6.0, -1),
        (1, "geometry.ProjectionTransform.project_voxels", 2.0, 3.0, 40),
        (1, "rays.mark_anchors", 3.5, 4.5, -1),
        (3, "geometry.ProjectionTransform.project_voxels", 3.6, 3.8, 10),
        (0, "fusion.fuse_single", 6.0, 9.0, -1),
        (5, "geometry.VoxelField.copy", 7.0, 8.0, 5),
        (6, "fusion.score_ray", 7.2, 7.4, -1),
        (0, "autodiff.backward", 9.0, 9.5, -1),
    ]
    parents, names, t0, t1, rows = (list(col) for col in zip(*spans))
    layers = [n.split(".", 1)[0] for n in names]
    out = tracer.summarize(parents, layers, names, t0, t1, rows, wall_s=10.5)
    want = {"pipeline": 10.0 - 5.0 - 3.0 - 0.5, "rays": 5.0 - 1.0 - 0.2, "geometry": 1.2 + 1.0 - 0.2, "fusion": 3.0 - 1.0 + 0.2, "autodiff": 0.5}
    assert out["self_s"].keys() == want.keys()
    for layer, value in want.items():
        assert math.isclose(out["self_s"][layer], value, abs_tol=1e-12), layer
    assert math.isclose(out["unattributed_s"], 0.5, abs_tol=1e-12)
    assert math.isclose(sum(out["self_s"].values()) + out["unattributed_s"], 10.5, abs_tol=1e-12)
    assert math.isclose(out["autodiff_backward_s"], 0.5)
    assert out["counts"] == {"voxels_projected": 50, "rays_candidates": 50, "fusion_rows_copied": 5, "backward_calls": 1}
    assert out["spans_per_layer"] == {"pipeline": 1, "rays": 2, "geometry": 3, "fusion": 2, "autodiff": 1}


def test_traced_pass_has_the_untraced_hash(rf):
    cfg = rf.load_config()
    scene = rf.gen_scene(cfg, 11)
    _, plain = rf.run_fusion_pass(cfg, scene=scene, seed=11)
    original = rf.pipeline.construct_ray
    t = tracer.Tracer()
    t.install()
    try:
        _, traced = rf.run_fusion_pass(cfg, scene=scene, seed=11)
    finally:
        t.uninstall()
    assert traced.hash() == plain.hash()
    assert rf.pipeline.construct_ray is original
    called = {t.names[i] for i in t.name_id}
    assert {"pipeline.run_fusion_pass", "rays.construct_ray", "geometry.ProjectionTransform.project_voxels"} <= called
    assert t.absent == []


def test_corrupted_golden_counts_as_failure(rf):
    golden = checks.load_golden()
    bad = copy.deepcopy(golden)
    first = f"{workloads.scene_seeds(workloads.DEFAULT_SEED, 1)[0]}:{workloads.MODES[0]}"
    bad["pass_plain"][first]["field_digest"] = "0" * 64
    good = workloads.run(rf, "pass_plain", workloads.DEFAULT_SEED, 0.01, False, time.perf_counter(), golden)
    assert good["failed"] == 0 and good["attempted"] >= 2
    out = workloads.run(rf, "pass_plain", workloads.DEFAULT_SEED, 0.01, False, time.perf_counter(), bad)
    assert out["failed"] >= 1
    assert out["detail"]["error_rate"] > 0
    assert any("field_digest" in m for m in out["failures"])
