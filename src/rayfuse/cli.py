"""Command-line front end.

Every subcommand reads an optional INI config plus repeatable
``--set section.key=value`` overrides and writes line-delimited JSON records
followed by a summary record, either to stdout or to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import dump_config, load_config
from .geometry import ProjectionTransform, voxelize
from .pipeline import (
    FusionHeads,
    bench_rays,
    gen_scene,
    gradient_check,
    run_fusion_pass,
    train_heads,
)
from .rays import brute_force_ray_oracle, construct_ray, index_frame
from .sampler import heuristic_sample, partition_windows

GRAD_TOL = 1e-4


class Emitter:
    def __init__(self, out_path=None):
        self.fh = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
        self.owned = out_path is not None

    def record(self, kind, **payload):
        self.fh.write(json.dumps({"record": kind, **payload}, sort_keys=True) + "\n")

    def close(self):
        if self.owned:
            self.fh.close()


def _common(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE")
    sub.add_argument("--out", help="write records to this file instead of stdout")
    sub.add_argument("--seed", type=int, help="override the scene seed")


def _load(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"scene.seed={args.seed}")
    return load_config(args.config, overrides)


def _transform(cfg, scene):
    return ProjectionTransform(scene.calib, scene.grid, cfg.camera.stride, (cfg.camera.image_h, cfg.camera.image_w))


def cmd_gen_scene(args):
    cfg = _load(args)
    emit = Emitter(args.out)
    scene = gen_scene(cfg)
    vt = _transform(cfg, scene)
    uv, depth = vt.project_world(scene.points.xyz)
    inside = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < cfg.camera.image_w) & (uv[:, 1] >= 0) & (uv[:, 1] < cfg.camera.image_h)
    if args.dump_points:
        scene.points.save_bin(args.dump_points)
    emit.record(
        "summary",
        points=len(scene.points),
        visible_points=int(inside.sum()),
        objects=len(scene.boxes3d),
        boxes2d=[list(b) for b in scene.boxes2d],
        feature_shape=list(scene.feats.shape),
        seed=cfg.scene.seed,
    )
    emit.close()
    return 0


def cmd_project(args):
    cfg = _load(args)
    emit = Emitter(args.out)
    scene = gen_scene(cfg)
    vt = _transform(cfg, scene)
    field = voxelize(scene.points, scene.grid, cfg.scene.channels)
    indices = field.indices()
    hits = behind = out_of_image = 0
    for idx in indices:
        px = vt.project(idx)
        if px is None:
            behind += 1
        elif vt.in_feature_bounds(px):
            hits += 1
        else:
            out_of_image += 1
    emit.record(
        "summary",
        occupied=len(indices),
        projected_in_image=hits,
        behind_camera=behind,
        out_of_image=out_of_image,
        feature_dims=list(vt.feature_dims),
        seed=cfg.scene.seed,
    )
    emit.close()
    return 0


def cmd_sample(args):
    cfg = _load(args)
    emit = Emitter(args.out)
    scene = gen_scene(cfg)
    vt = _transform(cfg, scene)
    uv, depth = vt.project_world(scene.points.xyz)
    front = depth > 0
    feat_px = [(int(u // vt.stride), int(v // vt.stride)) for u, v in np.floor(uv[front])]
    partition = partition_windows(vt.feature_dims, feat_px, cfg.sampler.window)
    emit.record("windows", total=len(partition.windows), kept=len(partition.nonempty()))
    rng = np.random.default_rng(cfg.scene.seed)
    if cfg.sampler.mode == "importance":
        heads = FusionHeads(cfg.scene.channels, rng=np.random.default_rng(cfg.scene.seed))
        from .autodiff import Tensor
        from .sampler import importance_sample

        got = importance_sample(Tensor(scene.feats), heads.sampler_head, partition, cfg.sampler.rays, rng)
    else:
        got = heuristic_sample(partition, cfg.sampler.mode, cfg.sampler.rays, rng)
    emit.record("summary", mode=cfg.sampler.mode, sampled=len(got), requested=cfg.sampler.rays, seed=cfg.scene.seed)
    emit.close()
    return 0


def cmd_rays(args):
    cfg = _load(args)
    emit = Emitter(args.out)
    scene = gen_scene(cfg)
    vt = _transform(cfg, scene)
    fh, fw = vt.feature_dims
    rng = np.random.default_rng(cfg.scene.seed)
    index = index_frame(vt, scene.grid)
    lengths = []
    checked = 0
    for _ in range(args.pixels):
        pixel = (int(rng.integers(0, fw)), int(rng.integers(0, fh)))
        ray = construct_ray(vt, scene.grid, pixel, index)
        lengths.append(len(ray))
        if args.verify:
            want = brute_force_ray_oracle(vt, scene.grid, pixel)
            if ray.voxels != want.voxels or not np.array_equal(ray.depths, want.depths):
                emit.record("mismatch", pixel=list(pixel))
                emit.close()
                return 1
            checked += 1
    emit.record(
        "summary",
        pixels=args.pixels,
        mean_length=float(np.mean(lengths)) if lengths else 0.0,
        max_length=int(max(lengths)) if lengths else 0,
        verified=checked,
        seed=cfg.scene.seed,
    )
    emit.close()
    return 0


def cmd_fuse(args):
    cfg = _load(args)
    if args.mode:
        cfg.fusion.mode = args.mode
        cfg.fusion.__post_init__()
    if args.radius is not None:
        cfg.fusion.radius = args.radius
    emit = Emitter(args.out)
    _, report = run_fusion_pass(cfg, threads=args.threads)
    emit.record("report", **report.to_json())
    emit.record("summary", hash=report.hash(), mode=cfg.fusion.mode, seed=cfg.scene.seed)
    emit.close()
    return 0


def cmd_train(args):
    cfg = _load(args)
    if args.steps is not None:
        cfg.train.steps = args.steps
    if args.lr is not None:
        cfg.train.lr = args.lr
    emit = Emitter(args.out)
    heads, losses = train_heads(cfg)
    for i, value in enumerate(losses):
        if i % max(1, len(losses) // 20) == 0 or i == len(losses) - 1:
            emit.record("loss", step=i, value=value)
    emit.record(
        "summary",
        steps=len(losses),
        first_loss=losses[0],
        last_loss=losses[-1],
        decreased=losses[-1] < losses[0],
        seed=cfg.scene.seed,
    )
    emit.close()
    return 0


def cmd_grad_check(args):
    cfg = _load(args)
    emit = Emitter(args.out)
    err = gradient_check(cfg, n_samples=args.samples)
    ok = err < GRAD_TOL
    emit.record("summary", max_rel_err=err, tolerance=GRAD_TOL, passed=bool(ok), seed=cfg.scene.seed)
    emit.close()
    print(f"max rel err {err:.3e} ({'PASS' if ok else 'FAIL'} at {GRAD_TOL:g})", file=sys.stderr)
    return 0 if ok else 1


def cmd_bench(args):
    cfg = _load(args)
    if args.grid:
        for key in ("nx", "ny", "nz"):
            setattr(cfg.grid, key, args.grid)
    counts = [int(c) for c in args.rays.split(",")]
    emit = Emitter(args.out)
    rows, slope, intercept, r2 = bench_rays(cfg, counts, threads=args.threads)
    for count, seconds in rows:
        emit.record("timing", rays=count, seconds=round(seconds, 6))
    emit.record("summary", slope_us_per_ray=slope * 1e6, intercept_ms=intercept * 1e3, r_squared=r2, threads=args.threads, seed=cfg.scene.seed)
    emit.close()
    return 0


def cmd_show_config(args):
    cfg = _load(args)
    print(dump_config(cfg))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="rayfuse", description="Camera-to-LiDAR ray fusion toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-scene", help="generate a synthetic scene and report its stats")
    _common(p)
    p.add_argument("--dump-points", help="write the point cloud as float32 xyzi")
    p.set_defaults(fn=cmd_gen_scene)

    p = subs.add_parser("project", help="project occupied voxels through the camera")
    _common(p)
    p.set_defaults(fn=cmd_project)

    p = subs.add_parser("sample", help="run the configured pixel sampler")
    _common(p)
    p.set_defaults(fn=cmd_sample)

    p = subs.add_parser("rays", help="construct rays for random pixels")
    _common(p)
    p.add_argument("--pixels", type=int, default=64)
    p.add_argument("--verify", action="store_true", help="check each ray against the brute-force oracle")
    p.set_defaults(fn=cmd_rays)

    p = subs.add_parser("fuse", help="run one full fusion pass")
    _common(p)
    p.add_argument("--mode", choices=["single", "local_aggregate", "local_propagate", "ray_wise"])
    p.add_argument("--radius", type=float)
    p.add_argument("--threads", type=int, default=1, help="accepted; ray building is single-threaded")
    p.set_defaults(fn=cmd_fuse)

    p = subs.add_parser("train", help="train the sampler head and coordinate MLP")
    _common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("grad-check", help="finite-difference check of the full objective")
    _common(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_grad_check)

    p = subs.add_parser("bench", help="ray-construction throughput")
    _common(p)
    p.add_argument("--grid", type=int, help="cubic grid dimension override")
    p.add_argument("--rays", default="512,1024,2048,4096")
    p.add_argument("--threads", type=int, default=1, help="accepted; ray building is single-threaded")
    p.set_defaults(fn=cmd_bench)

    p = subs.add_parser("show-config", help="print the resolved configuration")
    _common(p)
    p.set_defaults(fn=cmd_show_config)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
