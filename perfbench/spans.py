"""Spans and counters recorded around calls into survnet's modules.

The program is not changed: the tracer replaces module attributes, class
methods and ``cli.LOSSES`` entries with wrappers for the duration of a
``with tracer.installed():`` block and restores them afterwards. Each wrapper
is installed where callers look the function up, because ``cli`` imports some
functions by name and ``net.fit`` receives the loss as an argument.

Spans stay in memory. Every per-layer time is self time: a span's duration
minus the part covered by its traced children, so layer times add up to the
traced share of an operation without double counting.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from survnet import cli, curves, dataset, grid, km, metrics, net, sim

TEXT_IO_LAYERS = (
    "dataset.load_csv", "dataset.write_csv", "sim.write_truth", "sim.load_truth",
    "curves.write_csv",
)


def _file_size(path) -> int:
    return os.stat(path).st_size


def comparable_pairs(durations, events) -> int:
    """Pairs ``td_concordance`` compares: later time, or a tie with a censoring."""
    d = np.asarray(durations, dtype=float)
    e = np.asarray(events, dtype=int)
    d_sorted = np.sort(d)
    d_cens = np.sort(d[e == 0])
    t = d[e == 1]
    later = d.size - np.searchsorted(d_sorted, t, side="right")
    tied_censored = (np.searchsorted(d_cens, t, side="right")
                     - np.searchsorted(d_cens, t, side="left"))
    return int((later + tied_censored).sum())


def _mlp_flops(widths, rows: int, backward: bool) -> int:
    """Multiply-adds of the dense layers, counted as two flops each.

    A forward pass costs 2 * rows * sum(fan_in * fan_out). A backward pass
    computes every weight gradient and the input gradient of every layer but
    the first.
    """
    sizes = [a * b for a, b in zip(widths[:-1], widths[1:])]
    if not backward:
        return 2 * rows * sum(sizes)
    return 2 * rows * (sum(sizes) + sum(sizes[1:]))


class Tracer:
    """Records (name, start, end, parent) spans and named counters per op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.recording = False
        self._originals = []

    # -- recording -------------------------------------------------------
    def _enter(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def reset(self):
        self.spans, self.stack = [], []
        self.counts = defaultdict(int)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its direct traced children."""
        totals = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            index = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = self._wrap(original, name, after)
        self._originals.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    @contextmanager
    def installed(self):
        """Wrap every traced call site; restore the originals on exit."""
        try:
            for owner, attr, name, after in _call_sites(self):
                self._patch(owner, attr, name, after)
            yield self
        finally:
            for owner, attr, original in reversed(self._originals):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)
            self._originals = []

    @contextmanager
    def recording_op(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False


# -- counters computed from outside, beside each time ----------------------
def _count_load_csv(counts, args, kwargs, result):
    counts["dataset.rows_read"] += result.n
    counts["dataset.bytes_read"] += _file_size(args[0])


def _count_write_csv(counts, args, kwargs, result):
    counts["dataset.bytes_written"] += _file_size(args[1])


def _count_write_truth(counts, args, kwargs, result):
    counts["sim.truth_bytes"] += _file_size(args[0])


def _count_load_truth(counts, args, kwargs, result):
    counts["sim.truth_bytes_read"] += _file_size(args[0])


def _counter(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_forward(counts, args, kwargs, result):
    model, x = args[0], np.atleast_2d(args[1])
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    if training:
        counts["net.batches"] += 1
        counts["net.flops"] += _mlp_flops(model.widths, x.shape[0], backward=False)


def _count_backward(counts, args, kwargs, result):
    model, grad_out = args[0], np.asarray(args[2])
    counts["net.flops"] += _mlp_flops(model.widths, grad_out.shape[0], backward=True)


def _count_fit(counts, args, kwargs, result):
    counts["net.epochs"] += len(result[1])


def _count_evaluate(counts, args, kwargs, result):
    counts["curves.points_evaluated"] += int(np.size(result))


def _count_write_curves(counts, args, kwargs, result):
    counts["curves.bytes_written"] += _file_size(args[0])


def _count_concordance(counts, args, kwargs, result):
    durations, events = np.asarray(args[1], dtype=float), np.asarray(args[2], dtype=int)
    counts["metrics.concordance_pairs"] += comparable_pairs(durations, events)
    counts["metrics.unique_event_times"] += int(np.unique(durations[events == 1]).size)


def _call_sites(tracer: Tracer):
    """(owner, attribute, span name, counter) for every traced call site."""

    def forward_name(args):
        return "net.forward" if tracer.inside("net.fit") else "net.predict_forward"

    def evaluate_name(args):
        return "curves.evaluate_" + args[0].kind.replace("-", "_")

    sites = [
        (dataset, "load_csv", "dataset.load_csv", _count_load_csv),
        (dataset, "write_csv", "dataset.write_csv", _count_write_csv),
        (dataset, "fit_standardizer", "dataset.standardize", None),
        (dataset.Standardizer, "apply", "dataset.standardize", None),
        (sim, "generate_dataset", "sim.generate", None),
        (sim, "write_truth_csv", "sim.write_truth", _count_write_truth),
        (sim, "load_truth_csv", "sim.load_truth", _count_load_truth),
        (grid, "equidistant_grid", "grid.build", None),
        (grid, "km_quantile_grid", "grid.build", None),
        (grid, "discretize", "grid.labels", None),
        (grid, "continuous_labels", "grid.labels", None),
        (grid.DiscreteLabels, "take", "grid.take", _counter("grid.take_calls")),
        (km, "fit", "km.fit", _counter("km.fit_calls")),
        (net, "_forward_cached", forward_name, _count_forward),
        (net, "backward", "net.backward", _count_backward),
        (net, "init_mlp", "net.init", None),
        (net, "fit", "net.fit", _count_fit),
        (curves.SurvivalCurve, "__init__", "curves.build", None),
        (curves.SurvivalCurve, "evaluate", evaluate_name, _count_evaluate),
        (cli, "write_curves_csv", "curves.write_csv", _count_write_curves),
        (metrics, "td_concordance", "metrics.concordance", _count_concordance),
        (metrics, "integrated_brier_score", "metrics.ibs", None),
        (metrics, "mse_vs_truth", "metrics.mse_truth", None),
        (cli, "main", "cli.main", None),
        (cli, "run_simulate", "cli.simulate", None),
        (cli, "run_fit", "cli.fit", None),
        (cli, "run_predict", "cli.predict", None),
        (cli, "run_evaluate", "cli.evaluate", None),
        (cli, "save_model", "cli.save_model", None),
        (cli, "load_model", "cli.load_model", None),
        (cli, "predict_curves", "cli.predict_curves", None),
        (cli, "evaluate_curves", "cli.evaluate_curves", None),
    ]
    # net.fit receives the loss as an argument; every caller takes it from
    # cli.LOSSES, so the table entries are the call sites.
    for method in cli.METHODS:
        span = "losses." + method.replace("-", "_")
        sites.append((cli.LOSSES, method, span, _counter("losses.calls")))
    return sites
