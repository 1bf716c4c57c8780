"""Record the quality values that run.py checks its results against.

    python3 perfbench/record_reference.py --seeds 0-29
    python3 perfbench/record_reference.py --seeds 0-29 --workloads cli-roundtrip

Runs one untimed operation per workload and seed at the standard sizes and
writes the values into perfbench/reference.json, keeping the entries of
workloads not named. Run it only on a commit whose results are meant to
change; a speed-up must reproduce the recorded values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    import workloads

    path = os.path.join(run.HERE, "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    work = os.path.join(run.ROOT, run.WORK_DIR, "reference")
    os.makedirs(work, exist_ok=True)
    try:
        for name in names:
            cls = workloads.WORKLOADS[name]
            table[name] = {}
            for seed in range(lo, hi + 1):
                res = cls(run.ROOT, work, seed, workloads.SIZES[name], run._child_env()).run_op()
                if res.failures:
                    print(f"{name} seed {seed}: {res.failures}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = res.quality
                print(name, seed, res.quality, flush=True)
    finally:
        shutil.rmtree(os.path.join(run.ROOT, run.WORK_DIR), ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
