"""survnet benchmark: the simulate / fit / predict / evaluate loop, timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-roundtrip --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45

Each run imports survnet from ``src/`` of the checkout, derives its inputs from
``--seed``, repeats the workload's operation for ``--seconds`` seconds and
checks every output. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it holds the details: every stage's median, quartiles and
high percentile with the sample count, the failures, every layer's time and
count, layer shares and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

# Model bytes depend on the BLAS thread count, so it is pinned before numpy
# loads, here and in every child. One thread is available on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up is timed as interpreter starts spread evenly over the run, each
# before an op, so they see the same host as the ops; the median is reported.
SETUP_STARTS = 25
REFERENCE_SEED = 0
# Quality metrics repeat exactly at a pinned thread count; the tolerance only
# absorbs a different CPU's BLAS kernels.
REFERENCE_RTOL = 1e-6
WORK_DIR = ".perfbench_work"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _median_of(values):
    return statistics.median(values) if values else None


def timing_summary(values) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": _median_of(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out.update(p_hi_pct=pct, p_hi=statistics.quantiles(values, n=100)[pct - 1])
            break
    return out


def time_start(env) -> float:
    """Seconds for a fresh interpreter to import the package.

    This is what every CLI call pays before it works, and where work moved
    out of the measured loop into import time would show.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import survnet.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "survnet")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_reference(workloads, name, seed, quality, make_workload) -> list:
    """Compare quality with the values recorded for this seed at the baseline.

    A seed without a recorded value runs one extra, untimed operation at the
    reference seed instead. Returns the failure messages.
    """
    with open(os.path.join(HERE, "reference.json")) as fh:
        table = json.load(fh)[name]
    if str(seed) not in table:
        extra = make_workload(REFERENCE_SEED).run_op()
        if extra.failures:
            return [f"reference op failed: {extra.failures}"]
        seed, quality = REFERENCE_SEED, extra.quality
    if str(seed) not in table:
        return [f"no reference recorded for seed {seed}"]
    expected = table[str(seed)]
    return [
        f"{key}={quality.get(key)!r} differs from the reference {expected[key]!r} at seed {seed}"
        for key in workloads.QUALITY
        if key not in quality
        or not math.isclose(quality[key], expected[key], rel_tol=REFERENCE_RTOL, abs_tol=0.0)
    ]


def determinism_failures(results) -> None:
    """Same inputs, same outputs: every op must match the first complete one."""
    complete = [r for r in results if not r.failures and r.quality]
    for res in complete[1:]:
        if res.quality != complete[0].quality:
            res.check("evaluate", False, f"quality {res.quality} differs from op 0 {complete[0].quality}")
        if res.fingerprint != complete[0].fingerprint:
            res.check("fit", False, "trained parameters differ from op 0")


def run_loop(seconds, run_one, min_ops=1) -> list:
    """Repeat ops until another one would overrun the measuring time."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one())
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops and elapsed + elapsed / len(results) > seconds:
            return results


def untraced(args, wl, workloads) -> tuple:
    """Ops as the workload drives them, with the timed interpreter starts."""
    env = _child_env()
    starts, first_op_peak_kb = [], []
    begin = time.perf_counter()

    def start_then_op():
        while (len(starts) < SETUP_STARTS
               and time.perf_counter() - begin >= len(starts) * args.seconds / SETUP_STARTS):
            starts.append(time_start(env))
        res = wl.run_op()
        if not first_op_peak_kb:
            first_op_peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return res

    results = run_loop(args.seconds, start_then_op)
    while len(starts) < SETUP_STARTS:
        starts.append(time_start(env))
    determinism_failures(results)
    complete = [r for r in results if not r.failures]
    stage_times = {s: [r.times[s] for r in complete] for s in workloads.STAGES}
    # In-process, the high-water mark after the first op: what one pass needs.
    # Repeated ops raise it by up to a tenth through allocator fragmentation,
    # by an amount that depends on how many ops the run fits in.
    peak_kb = first_op_peak_kb[0] if wl.inprocess else wl.peak_child_kb
    quality = complete[0].quality if complete else {}
    values = {
        "setup_s": _median_of(starts),
        **{f"{s}_s": _median_of(stage_times[s]) for s in workloads.STAGES},
        "train_rows_per_s": _median_of([r.train_rows / r.times["fit"] for r in complete]),
        "eval_rows_per_s": _median_of([r.eval_rows / r.times["evaluate"] for r in complete]),
        "peak_rss_mb": peak_kb / 1024.0,
        **quality,
    }
    details = {
        "setup_s": timing_summary(starts),
        "stages": {s: timing_summary(stage_times[s]) for s in workloads.STAGES},
        "op_s": timing_summary([sum(r.times.values()) for r in complete]),
        "train_rows_per_op": complete[0].train_rows if complete else 0,
        "eval_rows_per_op": complete[0].eval_rows if complete else 0,
        "peak_rss_source": "largest child ru_maxrss (os.wait4)" if not wl.inprocess
        else "own ru_maxrss after the first op, fresh process",
        "peak_rss_mb_end_of_run": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return results, values, details, quality


def traced(args, spec, wl, workloads) -> tuple:
    """Alternate untraced and traced in-process ops; spans only in the latter."""
    import spans

    tracer = spans.Tracer()
    wl.inprocess = True
    plain_walls, traced_walls, layer_rows, coverage = [], [], [], []
    parity = itertools.count()

    def one_op():
        if next(parity) % 2 == 0:
            res = wl.run_op()
            if not res.failures:
                plain_walls.append(sum(res.times.values()))
            return res
        tracer.reset()
        res = wl.run_op(tracer)
        if not res.failures:
            wall = sum(res.times.values())
            traced_walls.append(wall)
            layer_rows.append({f"{name}_s": t for name, t in tracer.self_times().items()}
                              | tracer.counts)
            coverage.append(tracer.root_time() / wall)
        return res

    with tracer.installed():
        results = run_loop(args.seconds, one_op, min_ops=2)
    determinism_failures(results)
    keys = sorted({k for row in layer_rows for k in row})
    layers = {k: _median_of([row.get(k, 0) for row in layer_rows]) for k in keys}
    layers["net.fit_self_s"] = layers.pop("net.fit_s", 0.0)
    wall = _median_of(traced_walls) or float("nan")
    shares = {k[:-2]: v / wall for k, v in layers.items() if k.endswith("_s")}
    by_module = {}
    for name, share in shares.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + share
    purpose = {
        "text_io": sum(shares.get(n, 0.0) for n in spans.TEXT_IO_LAYERS),
        "net+losses+grid.take": by_module.get("net", 0.0) + by_module.get("losses", 0.0)
        + shares.get("grid.take", 0.0),
        "curves.evaluate+metrics": by_module.get("metrics", 0.0)
        + sum(v for n, v in shares.items() if n.startswith("curves.evaluate_")),
    }
    # A layer no traced op called reads 0; with no traced op there is no value.
    values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]} if layer_rows else {}
    untraced_wall = _median_of(plain_walls) or float("nan")
    details = {
        "traced_ops": len(traced_walls),
        "op_s_untraced": untraced_wall,
        "op_s_traced": wall,
        "trace_overhead_s": wall - untraced_wall,
        "trace_overhead_share": (wall - untraced_wall) / untraced_wall,
        "coverage": _median_of(coverage),
        "layers": layers,
        "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "shares_by_module": by_module,
        "purpose_shares": purpose,
    }
    quality = next((r.quality for r in results if r.quality), {})
    return results, values, details, quality


def run_workload(args, sizes=None) -> int:
    import workloads

    spec = load_spec()
    sizes = (sizes or workloads.SIZES)[args.workload]
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    def make_workload(seed):
        return workloads.WORKLOADS[args.workload](ROOT, work, seed, sizes, _child_env())

    try:
        wl = make_workload(args.seed)
        if args.trace:
            results, values, details, quality = traced(args, spec, wl, workloads)
        else:
            results, values, details, quality = untraced(args, wl, workloads)
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        failures = [f"op {i}: {stage}: {msg}" for i, r in enumerate(results) for stage, msg in r.failures]
        if sizes == workloads.SIZES[args.workload]:
            attempted += 1
            ref = check_reference(workloads, args.workload, args.seed, quality, make_workload)
            failed += bool(ref)
            failures += ref
        else:
            details["reference"] = "skipped: sizes differ from the recorded ones"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in metric_specs
        if values.get(m["name"]) is not None and math.isfinite(values[m["name"]])
    }
    correct = failed == 0 and len(metrics) == len(metric_specs)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        ops=len(results), sizes=sizes.__dict__, quality=quality,
        attempted=attempted, failed=failed, fail_ratio=failed / max(attempted, 1),
        failures=failures[:20], environment=environment(),
    )
    for line in failures[:20]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of every metric."""
    spec = load_spec()
    rows = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        rows[w["name"]] = json.loads(out.stdout.strip().splitlines()[-1])
    names = [w["name"] for w in spec["workloads"]]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'metric':32} {'unit':10} " + " ".join(f"{n:>16}" for n in names))
    for m in metric_specs:
        cells = [rows[n]["metrics"].get(m["name"], {}).get("value") for n in names]
        print(f"{m['name']:32} {m['unit']:10} "
              + " ".join(f"{c:16.6g}" if c is not None else f"{'-':>16}" for c in cells))
    for n in names:
        r = rows[n]
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"fail_ratio={r['failed'] / r['attempted']:.4f}")
    print(json.dumps({n: rows[n] for n in names}))
    return 0 if all(rows[n]["correct"] for n in names) else 1


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still ends its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "survnet", "__init__.py")):
        print(f"error: no survnet sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
