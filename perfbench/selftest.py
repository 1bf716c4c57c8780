"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, in both modes, with no failure; and that deliberately broken
outputs are counted as failures, both by the checkers and in the printed
result line.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from survnet import metrics  # noqa: E402

PROBLEMS = []


def expect(ok, message):
    if not ok:
        PROBLEMS.append(message)
        print(f"FAIL {message}")


def run_tiny(workload, trace, seed=3) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace)], sizes=workloads.TINY)
    expect(code == 0, f"{workload} trace={trace}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emitted(spec):
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct={result['correct']} failed={result['failed']}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{label}: metric {m['name']} missing or without unit {m['unit']}")
            expect(len(result["metrics"]) == len(spec[key]), f"{label}: extra metrics")
            timed = [v["value"] for v in result["metrics"].values() if v["unit"] == "s"]
            expect(all(t > 0 for t in timed), f"{label}: a time reads 0")
            print(f"ok   {label}: {len(result['metrics'])} metrics, attempted {result['attempted']}")


def check_broken_outputs():
    work = os.path.join(run.ROOT, run.WORK_DIR, "selftest")
    os.makedirs(work, exist_ok=True)
    wl = workloads.CliRoundtrip(run.ROOT, work, 1, workloads.TINY["cli-roundtrip"], run._child_env())
    wl.inprocess = True
    method = workloads.cli.METHODS[0]
    curves = wl.path(f"{method}.curves.csv")

    def rising_curve():
        table = np.loadtxt(curves, delimiter=",", skiprows=1)
        table[-1, 1] = 1.0
        with open(curves, "w") as fh:
            fh.write("t," + ",".join(f"s{i}" for i in range(table.shape[1] - 1)) + "\n")
            np.savetxt(fh, table, delimiter=",")

    def report_without_key():
        path = wl.path(f"{method}.report.json")
        with open(path) as fh:
            reports = json.load(fh)
        del reports[0]["dropped_terms"]
        with open(path, "w") as fh:
            json.dump(reports, fh)

    def truncated_model():
        with open(wl.path(f"{method}.json"), "r+") as fh:
            fh.truncate(100)

    for corrupt, stage in ((rising_curve, "predict"), (report_without_key, "evaluate"),
                           (truncated_model, "fit")):
        clean = wl.run_op()
        expect(not clean.failures and clean.attempted == 4, f"clean op failed: {clean.failures}")
        corrupt()
        res = workloads.OpResult()
        wl.check(res, None)
        expect(res.failed == 1 and res.failures[0][0] == stage,
               f"{corrupt.__name__}: counted as {res.failures}, expected one {stage} failure")

    wl.inprocess = False
    res = workloads.OpResult()
    try:
        with res.stage("fit"):
            wl._cli(["fit", "--train", wl.path("missing.csv"), "--val", wl.path("missing.csv"),
                     "--out", wl.path("m.json")])
    except workloads.StageFailed:
        pass
    expect(res.failed == 1 and res.attempted == 1, "a non-zero exit code was not counted")

    a, b = workloads.OpResult(quality={"c_index": 0.7}), workloads.OpResult(quality={"c_index": 0.7 + 1e-12})
    run.determinism_failures([a, b])
    expect(b.failed == 1, "a changed result across ops was not counted")
    print("ok   broken outputs are counted by the checkers")


def check_failure_reaches_result():
    """A program whose report records lose a key must print correct=false."""
    original = metrics.report

    def report_missing_key(*args, **kwargs):
        record = original(*args, **kwargs)
        del record["dropped_terms"]
        return record

    metrics.report = report_missing_key
    try:
        result = run_tiny("train-step", 0)
    finally:
        metrics.report = original
    expect(not result["correct"] and result["failed"] >= 1,
           f"broken report gave correct={result['correct']} failed={result['failed']}")
    print(f"ok   broken report: correct={result['correct']} failed={result['failed']} "
          f"of {result['attempted']}")


def check_reference_mismatch():
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        table = json.load(fh)["train-step"]
    if str(run.REFERENCE_SEED) not in table:
        expect(False, "reference.json has no value for the reference seed")
        return
    recorded = dict(table[str(run.REFERENCE_SEED)])
    same = run.check_reference(workloads, "train-step", run.REFERENCE_SEED, recorded, None)
    recorded["ibs"] *= 1 + 10 * run.REFERENCE_RTOL
    moved = run.check_reference(workloads, "train-step", run.REFERENCE_SEED, recorded, None)
    expect(not same and len(moved) == 1, f"reference comparison: {same} / {moved}")
    print("ok   a result off the reference is counted")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        check_emitted(spec)
        check_broken_outputs()
        check_failure_reaches_result()
        check_reference_mismatch()
    finally:
        shutil.rmtree(os.path.join(run.ROOT, run.WORK_DIR), ignore_errors=True)
    print("selftest " + ("FAILED" if PROBLEMS else "passed"))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
