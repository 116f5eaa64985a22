"""One workload in its own process; prints its result as one JSON line.

``run.py`` starts this script with BLAS/OpenMP thread counts set to 1, so
peak memory and timings belong to the one workload. With ``--seconds 0`` it
only sets up (import, configs, scenes, one warm-up op) and reports the
set-up time. A traced run writes its spans to ``out/`` beside this script.
The library is imported from ``src/`` of the checkout that holds this
script, never from an installed copy.
"""

import time

STARTED = time.perf_counter()  # workload start: set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_rayfuse():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rayfuse

    if not Path(rayfuse.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rayfuse imported from {rayfuse.__file__}, not from {src}")
    return rayfuse


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    rayfuse = import_rayfuse()
    import checks
    import numpy
    import workloads

    out = workloads.run(rayfuse, args.workload, args.seed, args.seconds, bool(args.trace), STARTED, checks.load_golden())
    tracer = out.pop("tracer", None)
    if tracer is not None:
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
    out["numpy"] = numpy.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
