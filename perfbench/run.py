"""Benchmark of the rayfuse fusion pass and training step.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pass_plain --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own child process (``child.py``) with BLAS/OpenMP
thread counts set to 1, after two more children that only set up, so that
``setup_s`` is the median of three set-ups. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. Lines before it print every metric with its unit,
a ``detail`` line (pass_ms_p50, pass_ms_tail and its percentile, frames_per_s,
train_step_ms, error_rate, set-up samples, failures) and the environment.
End-to-end times are scaled to a reference host speed; see ``workloads.py``
and the README. Every run writes its full result to ``perfbench/out/``, and
traced runs also their spans. A child that fails makes this script exit with code 1
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# BENCHMARK.json names every metric with its unit and sets the run length.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 2
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # every set-up then compiles the sources, as the first run in a fresh checkout does
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, seed, seconds, trace, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for the next child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """Commit of the checkout read from ``.git`` files; unknown outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "threads_env": {var: "1" for var in THREAD_VARS},
    }


def run_workload(workload, seed, seconds, trace, deadline):
    """Set-up probes plus the measured child; returns (result line, report lines)."""
    probes = [run_child(workload, seed, 0, 0, deadline) for _ in range(SETUP_PROBES)]
    main = run_child(workload, seed, seconds, trace, deadline)
    setups = [child["setup_s"] for child in (*probes, main)]
    if trace:
        values, listed = main["per_layer"], SPEC["per_layer"]
    else:
        values, listed = {"setup_s": statistics.median(setups), **main["end_to_end"]}, SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {
        **main["detail"],
        "setup_samples_s": setups,
        "wall_setup_samples_s": [child["wall_setup_s"] for child in (*probes, main)],
        "failures": main["failures"],
    }
    env = environment(main["numpy"])
    line = {"correct": main["failed"] == 0, "attempted": main["attempted"], "failed": main["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "seconds": seconds, **line, "detail": detail, "environment": env}, indent=1)
    )
    report = [f"{workload} seed={seed} trace={trace}: {main['attempted']} ops attempted, {main['failed']} failed"]
    report += [f"  {k:28s} {m['value']:14.4f} {m['unit']}" for k, m in metrics.items()]
    shown = {k: v for k, v in detail.items() if k != "samples_ms"}
    report += [f"  detail {json.dumps(shown)}", f"  environment {json.dumps(env)}"]
    return line, report


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.monotonic()
    lines = []
    try:
        for name in names:
            # "all" gives every workload its own full time budget
            line, report = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
            print("\n".join(report), flush=True)
            lines.append((name, line))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(line["correct"] for _, line in lines),
                    "attempted": sum(line["attempted"] for _, line in lines),
                    "failed": sum(line["failed"] for _, line in lines),
                    "metrics": {f"{n}.{k}": m for n, line in lines for k, m in line["metrics"].items()},
                }
            )
        )
    print(f"wall {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
