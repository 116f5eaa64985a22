"""Output checks run after each op, outside its timed region.

Every check returns a list of failure strings; an op with any failure counts
into ``failed``. The checks that hold for any seed are the ray oracle, the
occupancy rules of the fusion modes, finite losses and a falling training
loss. For the default workload seed the counts and field digest of every
pass must also equal the committed golden file, and losses must match it to
a tight relative tolerance (a last-bit change of the loss is not a failure).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from tracer import rebind, undo

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
LOSS_RTOL = 1e-9
EXACT_KEYS = ("ray_count", "fused_count", "occupancy_before", "occupancy_after", "dropped_points", "field_digest")
KEEPS_OCCUPANCY = ("single", "local_aggregate")


class RayCapture:
    """Rebinds ``pipeline.build_rays`` so every call's inputs and rays are kept."""

    def __init__(self, pipeline):
        self.calls = []
        self._patches = []
        original = pipeline.build_rays

        @functools.wraps(original)
        def capturing(vt, grid, pixels, field, *args, **kwargs):
            rays = original(vt, grid, pixels, field, *args, **kwargs)
            self.calls.append((vt, grid, rays))
            return rays

        rebind(original, capturing, self._patches)

    def take(self):
        calls, self.calls = self.calls, []
        return calls

    def close(self):
        undo(self._patches)


class RayOracle:
    """``brute_force_ray_oracle`` memoized per (projection, grid, pixel)."""

    def __init__(self, rays_module):
        self.oracle = rays_module.brute_force_ray_oracle
        self.memo = {}

    def check(self, calls):
        failures = []
        for vt, grid, rays in calls:
            key = (vt.matrix.tobytes(), vt.stride, tuple(vt.image_dims), grid)
            for ray in rays:
                want = self.memo.get((key, ray.pixel))
                if want is None:
                    want = self.memo[(key, ray.pixel)] = self.oracle(vt, grid, ray.pixel)
                if ray.voxels != want.voxels or not np.array_equal(ray.depths, want.depths):
                    failures.append(f"ray at pixel {ray.pixel} differs from the brute-force oracle")
        return failures


def outputs(report):
    """The golden-file view of a ``RunReport``: exact counts and digest, plus losses."""
    return {**{k: getattr(report, k) for k in EXACT_KEYS}, "losses": report.losses}


def check_pass(mode, cfg, report, golden_entry):
    """Rules of one fusion pass; ``golden_entry`` is None off the default seed."""
    failures = []
    if mode in KEEPS_OCCUPANCY and report.occupancy_after != report.occupancy_before:
        failures.append(f"{mode} changed occupancy {report.occupancy_before} -> {report.occupancy_after}")
    if mode == "ray_wise":
        limit = math.ceil(cfg.fusion.top_fraction * report.occupancy_before)
        if report.fused_count > limit:
            failures.append(f"ray_wise committed {report.fused_count} voxels, limit {limit}")
    if not report.losses or not all(math.isfinite(v) for v in report.losses.values()):
        failures.append(f"non-finite losses {report.losses}")
    if golden_entry is not None:
        got = outputs(report)
        failures += [f"{k} is {got[k]!r}, golden {golden_entry[k]!r}" for k in EXACT_KEYS if got[k] != golden_entry[k]]
        want = golden_entry["losses"]
        if got["losses"].keys() != want.keys():
            failures.append(f"loss parts {sorted(got['losses'])}, golden {sorted(want)}")
        else:
            failures += [f"loss {k} is {v!r}, golden {want[k]!r}" for k, v in got["losses"].items() if not _close(v, want[k])]
    return failures


def check_training(losses, golden_losses):
    """A finite, falling loss curve; ``golden_losses`` is None off the default seed."""
    failures = []
    if not losses or not all(math.isfinite(v) for v in losses):
        failures.append("non-finite training loss")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        failures.append(f"training loss did not fall: {losses[0]} -> {losses[-1]}")
    if golden_losses is not None:
        if len(losses) > len(golden_losses):
            failures.append(f"golden holds {len(golden_losses)} steps, run made {len(losses)}")
        failures += [
            f"loss at step {i} is {v!r}, golden {w!r}" for i, (v, w) in enumerate(zip(losses, golden_losses)) if not _close(v, w)
        ]
    return failures


def _close(value, golden):
    return math.isclose(value, golden, rel_tol=LOSS_RTOL, abs_tol=0.0)


def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
