"""Measure set-up time in a fresh interpreter.

Prints one JSON line: ``import_s``, the time to import ``passive_gd`` and
its CLI, and ``inputs_s``, the time to build the workload's inputs up to
the point where its first library call is ready. ``run.py`` starts this
script several times per run and reports the median.

    python3 benchmarks/setup_probe.py --workload mc-paper --seed 0 --work-dir DIR
"""

import time

t0 = time.perf_counter()
import passive_gd  # noqa: E402
import passive_gd.cli  # noqa: E402,F401

t1 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    t2 = time.perf_counter()
    WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))


if __name__ == "__main__":
    main()
