import json

import numpy as np
import pytest

from rayfuse import cli
from rayfuse.cli import main
from rayfuse.rays import Ray


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def summary_of(path):
    records = read_records(path)
    matches = [r for r in records if r["record"] == "summary"]
    assert len(matches) == 1
    return matches[0]


def test_gen_scene(tmp_path):
    out = tmp_path / "scene.jsonl"
    rc = main(["gen-scene", "--out", str(out), "--seed", "3"])
    assert rc == 0
    s = summary_of(out)
    assert s["seed"] == 3 and s["points"] > 0 and s["visible_points"] > 0


def test_gen_scene_dump_points(tmp_path):
    out = tmp_path / "scene.jsonl"
    dump = tmp_path / "cloud.bin"
    assert main(["gen-scene", "--out", str(out), "--dump-points", str(dump)]) == 0
    assert dump.stat().st_size % 16 == 0 and dump.stat().st_size > 0


def test_project(tmp_path):
    out = tmp_path / "proj.jsonl"
    assert main(["project", "--out", str(out)]) == 0
    s = summary_of(out)
    assert s["occupied"] == s["projected_in_image"] + s["behind_camera"] + s["out_of_image"]


@pytest.mark.parametrize("mode", ["uniformity", "density", "sparsity", "importance"])
def test_sample_modes(tmp_path, mode):
    out = tmp_path / "sample.jsonl"
    assert main(["sample", "--out", str(out), "--set", f"sampler.mode={mode}"]) == 0
    s = summary_of(out)
    assert s["mode"] == mode and 0 <= s["sampled"] <= s["requested"]


def test_rays_with_verification(tmp_path):
    out = tmp_path / "rays.jsonl"
    assert main(["rays", "--out", str(out), "--verify"]) == 0
    s = summary_of(out)
    assert s["verified"] == s["pixels"] == 64


def test_rays_verify_compares_depths(tmp_path, monkeypatch):
    construct_ray = cli.construct_ray

    def nudged(*args):
        ray = construct_ray(*args)
        return Ray(ray.pixel, ray.voxels, np.nextafter(ray.depths, np.inf), ray.anchors)

    monkeypatch.setattr(cli, "construct_ray", nudged)
    out = tmp_path / "rays.jsonl"
    assert main(["rays", "--out", str(out), "--pixels", "40", "--verify"]) == 1
    assert [r["record"] for r in read_records(out)] == ["mismatch"]


def test_rays_rejects_negative_pixels(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rays", "--pixels", "-3"])
    assert exc.value.code == 2
    assert "--pixels: must be >= 0, got -3" in capsys.readouterr().err


def test_fuse_flags_are_validated_like_overrides(tmp_path):
    out = tmp_path / "fuse.jsonl"
    with pytest.raises(ValueError, match="radius must be >= 0"):
        main(["fuse", "--mode", "local_aggregate", "--radius", "-1", "--out", str(out)])


def test_flags_become_overrides():
    parser = cli.build_parser()
    fuse = cli._load(parser.parse_args(["fuse", "--mode", "local_propagate", "--radius", "2.5", "--set", "fusion.radius=1"]))
    assert (fuse.fusion.mode, fuse.fusion.radius) == ("local_propagate", 2.5)
    train = cli._load(parser.parse_args(["train", "--steps", "3", "--lr", "0.1"]))
    assert (train.train.steps, train.train.lr) == (3, 0.1)
    bench = cli._load(parser.parse_args(["bench", "--grid", "8"]))
    assert bench.grid.spec().dims == (8, 8, 8)


def test_fuse_deterministic_hash(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["fuse", "--mode", "ray_wise", "--radius", "1", "--seed", "7", "--out", str(a)]) == 0
    assert main(["fuse", "--mode", "ray_wise", "--radius", "1", "--seed", "7", "--out", str(b), "--threads", "3"]) == 0
    assert summary_of(a)["hash"] == summary_of(b)["hash"]


def test_fuse_seed_changes_hash(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["fuse", "--seed", "7", "--out", str(a)]) == 0
    assert main(["fuse", "--seed", "8", "--out", str(b)]) == 0
    assert summary_of(a)["hash"] != summary_of(b)["hash"]


def test_train(tmp_path):
    out = tmp_path / "train.jsonl"
    rc = main(["train", "--steps", "8", "--out", str(out), "--set", "train.scenes=1", "--set", "sampler.rays=8"])
    assert rc == 0
    s = summary_of(out)
    assert s["steps"] == 8 and s["decreased"]


def test_grad_check_passes(tmp_path):
    out = tmp_path / "grad.jsonl"
    rc = main(["grad-check", "--out", str(out), "--samples", "30", "--set", "sampler.rays=12", "--set", "scene.channels=8"])
    assert rc == 0
    s = summary_of(out)
    assert s["passed"] and s["max_rel_err"] < 1e-4


def test_bench(tmp_path):
    out = tmp_path / "bench.jsonl"
    rc = main(["bench", "--rays", "32,64,128", "--out", str(out)])
    assert rc == 0
    records = read_records(out)
    assert sum(1 for r in records if r["record"] == "timing") == 3
    s = summary_of(out)
    assert s["slope_us_per_ray"] > 0
    assert isinstance(s["intercept_ms"], float)


def test_show_config(capsys):
    assert main(["show-config", "--set", "fusion.radius=2.5"]) == 0
    text = capsys.readouterr().out
    assert "[fusion]" in text and "radius = 2.5" in text
    for section in ("grid", "camera", "augment", "sampler", "train"):
        assert f"[{section}]" in text


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["destroy"])
    assert exc.value.code == 2


def test_override_flows_through(tmp_path):
    out = tmp_path / "fuse.jsonl"
    assert main(["fuse", "--out", str(out), "--set", "sampler.rays=4"]) == 0
    records = read_records(out)
    report = [r for r in records if r["record"] == "report"][0]
    assert report["ray_count"] <= 4
