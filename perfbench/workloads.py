"""The two workloads: inputs from a seed, one operation, and its checks.

Every operation is the user's loop simulate -> fit -> predict -> evaluate, so
every workload reports the same four stage times. The workloads differ in how
the loop is driven and where its weight sits:

- ``cli-roundtrip`` runs the CLI as subprocesses: simulate train, val and
  test, then fit, predict and evaluate each of the three methods on them, as
  a simulation study does. Its time goes to text I/O: dataset CSVs, the
  simulator's truth files and the curves CSVs. Event times sit on the
  simulator's 1,000-step grid, so concordance is cheap.
- ``train-step`` stays in memory and fits all three methods for a fixed
  number of epochs, so most of its time is the network, the losses and label
  batching. It then scores five curve readings on the validation data with
  its durations jittered off the fine grid, so event times almost never tie
  and concordance runs its continuous-time path. It reads and writes no file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from survnet import cli, dataset, grid, net, sim
from survnet.grid import GridDeduplicationWarning

QUALITY = ("c_index", "ibs", "mse_truth", "val_nll")
STAGES = ("simulate", "fit", "predict", "evaluate")
REPORT_KEYS = {"metric", "value", "n", "dropped_terms"}
REPORT_METRICS = ("td_concordance", "integrated_brier_score", "mse_vs_truth")
# The program itself accepts survival values that rise by up to 1e-9.
MONOTONE_SLACK = 1e-9
DESIGN_SEED = 0


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_val: int
    n_test: int
    m: int
    epochs: int


# Small enough that a run repeats the op many times and reports its median.
SIZES = {
    "cli-roundtrip": Sizes(n_train=400, n_val=200, n_test=400, m=25, epochs=10),
    "train-step": Sizes(n_train=1500, n_val=1000, n_test=0, m=50, epochs=20),
}
TINY = {
    "cli-roundtrip": Sizes(n_train=120, n_val=60, n_test=80, m=8, epochs=2),
    "train-step": Sizes(n_train=150, n_val=60, n_test=0, m=8, epochs=2),
}


class StageFailed(Exception):
    """A stage raised or a child process exited non-zero; the op stops."""


@dataclass
class OpResult:
    """Stage times, quality, failures and work counts of one operation."""

    times: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    train_rows: int = 0
    eval_rows: int = 0
    fingerprint: str = ""

    @contextmanager
    def stage(self, name):
        self.attempted += 1
        start = time.perf_counter()
        try:
            yield
        except StageFailed as exc:
            self.failures.append((name, str(exc)))
            raise
        except Exception as exc:  # a failing stage is counted, the run goes on
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc
        self.times[name] = time.perf_counter() - start

    def check(self, stage, ok, message):
        if not ok:
            self.failures.append((stage, message))

    @property
    def failed(self) -> int:
        return len({stage for stage, _ in self.failures})


def input_seeds(seed: int) -> dict:
    """Independent data seeds for train, val, test and the jitter draw."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("train", "val", "test", "jitter"), (int(s) for s in state)))


def check_curve_values(res: OpResult, stage, values, label):
    values = np.asarray(values, dtype=float)
    res.check(stage, np.isfinite(values).all(), f"{label}: non-finite survival")
    res.check(stage, values.min() >= 0.0 and values.max() <= 1.0,
              f"{label}: survival outside [0, 1]")
    res.check(stage, not (np.diff(values, axis=-1) > MONOTONE_SLACK).any(),
              f"{label}: survival increases over time")


def check_reports(res: OpResult, reports, n):
    """The evaluate report shape: one record per metric, as documented."""
    ok = isinstance(reports, list) and len(reports) == len(REPORT_METRICS)
    res.check("evaluate", ok, f"report has {len(reports) if ok else reports!r} records")
    if not ok:
        return {}
    values = {}
    for rec, name in zip(reports, REPORT_METRICS):
        if not isinstance(rec, dict) or set(rec) != REPORT_KEYS:
            res.check("evaluate", False, f"report record {rec!r} lacks the shape {sorted(REPORT_KEYS)}")
            continue
        res.check("evaluate", rec["metric"] == name, f"report metric {rec['metric']!r}, expected {name!r}")
        res.check("evaluate", rec["n"] == n, f"report n={rec['n']}, expected {n}")
        res.check("evaluate", isinstance(rec["dropped_terms"], int) and rec["dropped_terms"] >= 0,
                  f"dropped_terms {rec['dropped_terms']!r}")
        res.check("evaluate", math.isfinite(rec["value"]), f"{name} is not finite")
        values[name] = rec["value"]
    return values


def check_model_reload(res: OpResult, path, method, n_covariates):
    """The model file loads through cli.load_model and matches the fit."""
    try:
        loaded_method, time_grid, model, _ = cli.load_model(path)
    except Exception as exc:  # any load failure is an output failure
        res.check("fit", False, f"model reload failed: {type(exc).__name__}: {exc}")
        return
    res.check("fit", loaded_method == method, f"reloaded method {loaded_method!r}")
    res.check("fit", model.widths[0] == n_covariates and model.out_dim == time_grid.m,
              f"reloaded widths {model.widths} disagree with the grid")


def quality_from_reports(values_list, val_losses):
    return {
        "c_index": float(np.mean([v["td_concordance"] for v in values_list])),
        "ibs": float(np.mean([v["integrated_brier_score"] for v in values_list])),
        "mse_truth": float(np.mean([v["mse_vs_truth"] for v in values_list])),
        "val_nll": float(np.mean(val_losses)),
    }


class Workload:
    """One workload bound to a seed, a size and a scratch directory."""

    name = ""
    # Whether survnet runs inside this process; only the CLI workload's
    # untraced runs start children.
    inprocess = True

    def __init__(self, root, workdir, seed, sizes, env):
        self.root = root
        self.workdir = workdir
        self.seeds = input_seeds(seed)
        self.sizes = sizes
        self.env = env
        self.peak_child_kb = 0

    def run_op(self, tracer=None) -> OpResult:
        """One operation; only its stages are traced, never its checks."""
        res = OpResult()
        try:
            with tracer.recording_op() if tracer else nullcontext():
                outputs = self.op(res)
        except StageFailed:
            return res
        try:
            self.check(res, outputs)
        except Exception as exc:  # a malformed output is a failure, not a crash
            res.failures.append(("check", f"{type(exc).__name__}: {exc}"))
            traceback.print_exc(file=sys.stderr)
        return res


class CliRoundtrip(Workload):
    """simulate (train, val, test) -> fit, predict, evaluate --truth per method."""

    name = "cli-roundtrip"
    inprocess = False

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _cli(self, argv):
        argv = [str(a) for a in argv]
        if self.inprocess:
            with redirect_stdout(StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise StageFailed(f"survnet {argv[0]} exited {code}")
            return
        log = self.path("child.out")
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "survnet.cli", *argv],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(log) as fh:
                tail = fh.read()[-300:]
            raise StageFailed(f"survnet {argv[0]} exited {proc.returncode}: {tail}")

    def op(self, res):
        s, p = self.sizes, self.path
        with res.stage("simulate"):
            for part, n in (("train", s.n_train), ("val", s.n_val), ("test", s.n_test)):
                self._cli(["simulate", "--n", n, "--seed", self.seeds[part],
                           "--design-seed", DESIGN_SEED, "--out", p(f"{part}.csv"),
                           "--truth", p(f"{part}.truth.csv")])
        with res.stage("fit"):
            for m in cli.METHODS:
                self._cli(["fit", "--method", m, "--train", p("train.csv"),
                           "--val", p("val.csv"), "--m", s.m, "--max-epochs", s.epochs,
                           "--patience", s.epochs, "--seed", 0, "--out", p(f"{m}.json"),
                           "--log", p(f"{m}.log")])
        with res.stage("predict"):
            for m in cli.METHODS:
                self._cli(["predict", "--model", p(f"{m}.json"), "--data", p("test.csv"),
                           "--out", p(f"{m}.curves.csv")])
        with res.stage("evaluate"):
            for m in cli.METHODS:
                self._cli(["evaluate", "--model", p(f"{m}.json"), "--data", p("test.csv"),
                           "--truth", p("test.truth.csv"), "--out", p(f"{m}.report.json")])
        return None

    def check(self, res, outputs):
        s, p = self.sizes, self.path
        val_losses, values, digest = [], [], hashlib.sha256()
        for m in cli.METHODS:
            with open(p(f"{m}.log")) as fh:
                log = [json.loads(line) for line in fh if line.strip()]
            res.check("fit", len(log) == s.epochs, f"{m}: fit ran {len(log)} of {s.epochs} epochs")
            losses = [entry["val_loss"] for entry in log]
            res.check("fit", all(map(math.isfinite, losses)), f"{m}: non-finite validation loss")
            val_losses.append(min(losses))
            check_model_reload(res, p(f"{m}.json"), m, sim.N_LATENT * sim.DEFAULT_SUBSET)
            with open(p(f"{m}.json"), "rb") as fh:
                digest.update(fh.read())
            curves = p(f"{m}.curves.csv")
            with open(curves) as fh:
                header = fh.readline().strip().split(",")
            res.check("predict", header == ["t", *(f"s{i}" for i in range(s.n_test))],
                      f"{m}: curves header does not name one column per individual")
            table = np.loadtxt(curves, delimiter=",", skiprows=1, ndmin=2)
            num_times = cli.PREDICT_DEFAULTS["num_times"]
            res.check("predict", table.shape == (num_times, s.n_test + 1),
                      f"{m}: curves table has shape {table.shape}")
            check_curve_values(res, "predict", table[:, 1:].T, f"{m}.curves.csv")
            with open(p(f"{m}.report.json")) as fh:
                values.append(check_reports(res, json.load(fh), s.n_test))
        if all(len(v) == len(REPORT_METRICS) for v in values):
            res.quality = quality_from_reports(values, val_losses)
        res.train_rows = len(cli.METHODS) * s.n_train * s.epochs
        res.eval_rows = len(cli.METHODS) * s.n_test
        res.fingerprint = digest.hexdigest()


class InProcess(Workload):
    """The loop in memory: no file is read or written while it is timed."""

    readings = ()  # (method, interp) pairs that predict and evaluate score

    def simulate(self, part, n):
        cfg = sim.SimConfig(n=n, seed=self.seeds[part], design_seed=DESIGN_SEED)
        return sim.generate_dataset(cfg)

    def op(self, res):
        with res.stage("simulate"):
            train, val, scored, durations = self.inputs()
        with res.stage("fit"):
            std, time_grid, fits = self.fit_models(train.data, val.data)
        with res.stage("predict"):
            x = std.apply(scored.data).covariates
            curves = [cli.predict_curves(m, fits[m][0], time_grid, x, interp)
                      for m, interp in self.readings]
            # Every curve on the simulator's fine grid, where the truth lives.
            tables = [c.evaluate(scored.times) for c in curves]
        with res.stage("evaluate"):
            reports = [cli.evaluate_curves(c, durations, scored.data.events,
                                           truth=scored.truth, truth_times=scored.times)
                       for c in curves]
        return std, time_grid, fits, tables, reports, x

    def fit_models(self, train, val):
        """km-quantile grid on the training data, one fit per method.

        The network shape is the CLI's default, so the in-memory fits train
        the same model that ``survnet fit`` does.
        """
        s, defaults = self.sizes, cli.FIT_DEFAULTS
        std = dataset.fit_standardizer(train)
        x_train = std.apply(train).covariates
        x_val = std.apply(val).covariates
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridDeduplicationWarning)
            time_grid = grid.km_quantile_grid(train, s.m)
        cfg = net.TrainConfig(max_epochs=s.epochs, patience=s.epochs, seed=0)
        fits = {}
        for method in dict.fromkeys(m for m, _ in self.readings):
            widths = [train.p] + [defaults["width"]] * defaults["depth"] + [time_grid.m]
            start = net.init_mlp(widths, dropout=defaults["dropout"], seed=0)
            fits[method] = net.fit(
                start, cli.LOSSES[method], x_train, cli._labels_for(method, train, time_grid),
                x_val, cli._labels_for(method, val, time_grid), cfg,
            )
        return std, time_grid, fits

    def check(self, res, outputs):
        std, time_grid, fits, tables, reports, x = outputs
        s = self.sizes
        val_losses = []
        for method, (model, log) in fits.items():
            res.check("fit", len(log) == s.epochs, f"{method} ran {len(log)} of {s.epochs} epochs")
            val_losses.append(min(entry["val_loss"] for entry in log))
            path = os.path.join(self.workdir, "model.json")
            cli.save_model(path, method, time_grid, model, std)
            check_model_reload(res, path, method, model.widths[0])
            _, _, reloaded, _ = cli.load_model(path)
            res.check("fit", np.array_equal(net.forward(reloaded, x[:8]), net.forward(model, x[:8])),
                      f"{method}: reloaded model predicts differently")
        res.check("fit", all(map(math.isfinite, val_losses)), "non-finite validation loss")
        for (m, interp), table in zip(self.readings, tables):
            check_curve_values(res, "predict", table, f"{m}/{interp}")
        values = [check_reports(res, json.loads(json.dumps(r)), len(x)) for r in reports]
        if all(len(v) == len(REPORT_METRICS) for v in values):
            res.quality = quality_from_reports(values, val_losses)
        res.train_rows = sum(s.n_train * len(log) for _, log in fits.values())
        res.eval_rows = len(x) * len(reports)
        digest = hashlib.sha256()
        for model, _ in fits.values():
            for array in (*model.weights, *model.biases):
                digest.update(np.ascontiguousarray(array).tobytes())
        res.fingerprint = digest.hexdigest()


def jitter_durations(durations, seed):
    """Move each time back by a uniform share of one fine-grid step.

    A time t on the fine grid stands for an event in (t - step, t], so the
    jittered time stays in the same step and ties become almost impossible.
    """
    step = sim.T_MAX / sim.N_STEPS
    u = np.random.default_rng(seed).uniform(0.0, 1.0, size=len(durations))
    return np.asarray(durations) - u * step


class TrainStep(InProcess):
    """All three methods, fixed epochs, scored on jittered validation times.

    The scoring covers every method and every curve reading of the
    logistic-hazard model, on event times that almost never tie.
    """

    name = "train-step"
    readings = (*((m, "none") for m in cli.METHODS),
                ("logistic-hazard", "cdi"), ("logistic-hazard", "chi"))

    def inputs(self):
        train = self.simulate("train", self.sizes.n_train)
        val = self.simulate("val", self.sizes.n_val)
        return train, val, val, jitter_durations(val.data.durations, self.seeds["jitter"])


WORKLOADS = {w.name: w for w in (CliRoundtrip, TrainStep)}
