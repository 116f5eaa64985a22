"""The committed benchmark fingerprints, replayed: scene 7000 of both pass
workloads in all four fusion modes must give the exact counts and field
digest recorded in ``perfbench/golden.json`` and its losses to the
benchmark's tolerance, and the toy training run its 14 golden losses."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import rayfuse
from rayfuse.config import load_config
from rayfuse.pipeline import FusionHeads, gen_scene, run_fusion_pass, train_heads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SCENE_SEED = workloads.scene_seeds(workloads.DEFAULT_SEED, 1)[0]


@pytest.mark.parametrize("workload", sorted(workloads.PASS_WORKLOADS))
def test_pass_matches_golden(workload):
    assert GOLDEN["seed"] == workloads.DEFAULT_SEED and SCENE_SEED == 7000
    cfgs = {m: load_config(overrides=[*workloads.PASS_WORKLOADS[workload], f"fusion.mode={m}"]) for m in workloads.MODES}
    scene = gen_scene(cfgs[workloads.MODES[0]], SCENE_SEED)
    heads = FusionHeads(cfgs[workloads.MODES[0]].scene.channels, rng=np.random.default_rng(workloads.HEADS_SEED))
    for mode in workloads.MODES:
        _, report = run_fusion_pass(cfgs[mode], heads=heads, scene=scene, seed=SCENE_SEED)
        want = GOLDEN[workload][f"{SCENE_SEED}:{mode}"]
        assert checks.check_pass(mode, cfgs[mode], report, want) == [], mode


def test_training_matches_golden():
    golden_losses = GOLDEN["train_toy"]["losses"]
    assert len(golden_losses) == workloads.TRAIN_STEPS[1] == 14
    cfg, scenes = workloads.train_inputs(rayfuse, workloads.DEFAULT_SEED, [])
    _, losses = train_heads(cfg, scenes, steps=len(golden_losses))
    assert checks.check_training(losses, golden_losses) == []
