"""Repeat the benchmark over seeds and check that it is steady.

    python3 perfbench/prove.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/prove.py --workloads train-step --seeds 0-4 --traced 0

For each workload, runs ``run.py --trace 0`` once per seed, then
``--trace 1`` for the first ``--traced`` seeds. For every end-to-end metric
it prints the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, flagged when that spread exceeds a third of the metric's bound.
``--out`` keeps every run's result and details,
the summary and the traced layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "details": json.loads(lines[-2])["details"]}


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            d = runs[-1]["details"]
            print(f"  seed {seed}: ops {d['ops']}, setup {d['setup_s']['median']:.4g} s, " + ", ".join(
                f"{name} {v['median']:.4g} s" for name, v in d["stages"].items()), flush=True)
        traced = [run_once(workload, s, args.seconds, 1) for s in seeds[: args.traced]]
        summary = {}
        print(f"== {workload}: correct={[r['result']['correct'] for r in runs]}")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["result"]["metrics"]]
            if len(values) < 2:
                print(f"  {m['name']:18} missing")
                steady = False
                continue
            s = spread(values)
            s["bound"] = m["bound"]
            s["unit"] = m["unit"]
            ok = (s["spread"] or 0) <= m["bound"] / 3
            steady &= ok
            summary[m["name"]] = s
            print(f"  {m['name']:18} median {s['median']:12.6g} {m['unit']:7} "
                  f"spread {s['spread']:.4f} (bound/3 {m['bound'] / 3:.4f}){'' if ok else '  WIDE'}")
        for t in traced:
            d = t["details"]
            print(f"  traced: ops {d['traced_ops']}, overhead {d['trace_overhead_share']:.3f}, "
                  f"coverage {d['coverage']:.4f}, purpose {d['purpose_shares']}")
        report["workloads"][workload] = {
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
