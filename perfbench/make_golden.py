"""Regenerate ``golden.json``: the outputs of every op of the default seed.

    python3 perfbench/make_golden.py

Run it only for a change that is meant to move a golden value, and say in
CHANGES.md which values moved and why. Holds, per pass workload, the counts,
field digest and losses of each (scene seed, fusion mode) of the scene pool,
and the loss curve of the longer ``train_toy`` call.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from child import import_rayfuse  # noqa: E402


def main():
    rf = import_rayfuse()
    golden = {"seed": workloads.DEFAULT_SEED}
    for name in workloads.PASS_WORKLOADS:
        cfgs, seeds, scenes, heads = workloads.pass_inputs(rf, name, workloads.DEFAULT_SEED, [])
        entries = {}
        for seed, scene in zip(seeds, scenes):
            for mode in workloads.MODES:
                _, report = rf.run_fusion_pass(cfgs[mode], heads=heads, scene=scene, seed=seed)
                entries[f"{seed}:{mode}"] = checks.outputs(report)
        golden[name] = entries
    cfg, scenes = workloads.train_inputs(rf, workloads.DEFAULT_SEED, [])
    _, losses = rf.train_heads(cfg, scenes, steps=workloads.TRAIN_STEPS[-1])
    golden["train_toy"] = {"losses": losses}
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
