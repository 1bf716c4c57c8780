"""Evaluation metrics for survival predictions.

Time-dependent concordance compares predicted survival between comparable
pairs at the earlier member's time. Brier scores weight squared residuals by
the inverse of the censoring distribution's product-limit estimate. Mean
squared error against a known truth supports simulation studies.
"""

from __future__ import annotations

import numpy as np

from . import km as km_
from . import sim as sim_
from .errors import MetricUndefinedError, ValidationError

_CHUNK = 256
# Rows of curves evaluated at a time by mse_vs_truth.
_BLOCK_ROWS = 128


class EvalGrid:
    """Increasing evaluation times for time-integrated metrics.

    Checked when built; keeps read-only copies of its arrays; compares and hashes by identity.
    """

    def __init__(self, times):
        times = np.array(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("an evaluation grid needs at least one time")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("evaluation times must be strictly increasing")
        times.setflags(write=False)
        self.times = times

    @classmethod
    def equidistant(cls, durations, n_points: int = 100) -> "EvalGrid":
        """n equidistant points between the smallest and largest observed time."""
        durations = np.asarray(durations, dtype=float)
        lo, hi = float(durations.min()), float(durations.max())
        if not hi > lo:
            raise ValidationError("observed times span a single point")
        return cls(np.linspace(lo, hi, n_points))


def td_concordance(curves, durations, events) -> float:
    """Time-dependent concordance over comparable pairs (Antolini et al., 2005).

    A pair is comparable when the earlier time belongs to an observed event,
    or when the times tie with one event and one censoring. It counts as
    concordant when the individual with the event has the lower predicted
    survival at that time; tied predictions count one half.

    The individuals are sorted by duration once. Each chunk of unique event
    times evaluates the curves on the rows at risk at its first time and
    masks the comparable rows of all its times in one operation. Times with
    one event are counted by one dense compare over the chunk; a time with k
    tied events compares its k values against its comparable column in one
    pass. The array work is O(n x unique event times); the Python work is one
    pass per chunk plus one per tied event time. The counts are integers
    (twice the concordant count), so the quotient does not depend on the
    order of the pairs. Every chunk is evaluated into one reused buffer.
    """
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValidationError("durations and events must be 1-d arrays of equal length")
    if curves.n != durations.shape[0]:
        raise ValidationError("need one curve per individual")
    times = np.sort(durations[events == 1])
    event_times = times[times != np.append(np.nan, times[:-1])]  # np.unique imports numpy.ma
    if event_times.size == 0:
        raise MetricUndefinedError("no comparable pairs: no observed events")
    order = np.argsort(durations, kind="stable")
    curves, durations, events = curves.take(order), durations[order], events[order]
    twice_concordant = 0  # 2 per concordant pair, 1 per tied prediction
    comparable = 0
    buf = np.empty(curves.n * min(_CHUNK, event_times.size))
    for c0 in range(0, event_times.size, _CHUNK):
        chunk = event_times[c0 : c0 + _CHUNK]
        lo = int(np.searchsorted(durations, chunk[0]))
        hi = int(np.searchsorted(durations, chunk[-1], side="right"))
        r, c = curves.n - lo, chunk.size
        surv = curves.rows(lo, curves.n).evaluate(chunk, out=buf[: c * r].reshape(c, r).T)
        # Rows after hi are comparable at every time of the chunk; only the
        # rows with durations inside the chunk need a mask.
        head, tail = surv[: hi - lo], surv[hi - lo :]
        d, e = durations[lo:hi, None], events[lo:hi, None]
        others = (d > chunk) | ((d == chunk) & (e == 0))
        # The chunk's events in duration order, each with its time's column.
        rows = np.flatnonzero(events[lo:hi] == 1)
        cols = np.searchsorted(chunk, durations[lo + rows])
        ties = np.bincount(cols, minlength=chunk.size)
        comparable += int((others.sum(axis=0) + tail.shape[0]) @ ties)
        own = surv[rows, cols]
        # x > v and x >= v count a concordant pair twice and a tie once; NaN
        # compares false, which leaves the tied times to their own pass.
        single = ties[cols] == 1
        value = np.full(chunk.size, np.nan)
        value[cols[single]] = own[single]
        twice_concordant += np.count_nonzero(tail > value) + np.count_nonzero(tail >= value)
        twice_concordant += np.count_nonzero((head > value) & others)
        twice_concordant += np.count_nonzero((head >= value) & others)
        ends = np.cumsum(ties)
        for q in np.flatnonzero(ties > 1):
            col = np.concatenate([head[others[:, q], q], tail[:, q]])
            tied = own[ends[q] - ties[q] : ends[q], None]
            twice_concordant += np.count_nonzero(col > tied) + np.count_nonzero(col >= tied)
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs")
    return twice_concordant / 2 / comparable


def brier_scores(curves, durations, events, eval_grid: EvalGrid, censor_km):
    """Censoring-weighted Brier score at each evaluation time.

    Individuals with an observed event at or before t contribute their squared
    survival prediction weighted by 1 over the censoring estimate just before
    their own time; individuals still at risk at t contribute the squared
    complement weighted by 1 over the censoring estimate at t. Terms whose
    weight denominator is zero are dropped; their count is returned alongside.
    """
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    times = eval_grid.times
    surv = curves.evaluate(times)
    g_at = km_.survival_at(censor_km, times)
    g_before = km_.survival_before(censor_km, durations)
    past = (durations[:, None] <= times[None, :]) & (events[:, None] == 1)
    future = durations[:, None] > times[None, :]
    w_past = np.where(g_before > 0, 1.0 / np.where(g_before > 0, g_before, 1.0), 0.0)
    w_future = np.where(g_at > 0, 1.0 / np.where(g_at > 0, g_at, 1.0), 0.0)
    dropped = int((past & (g_before == 0)[:, None]).sum())
    dropped += int((future & (g_at == 0)[None, :]).sum())
    total = (surv**2 * past * w_past[:, None] + (1.0 - surv) ** 2 * future * w_future[None, :])
    return total.sum(axis=0) / durations.shape[0], dropped


def integrated_brier_score(curves, durations, events, eval_grid: EvalGrid, censor_km):
    """Trapezoidal integral of the Brier score, normalized by the grid span.

    Returns (value, count of dropped zero-weight terms).
    """
    times = eval_grid.times
    if times.size < 2:
        raise ValidationError("integration needs at least two evaluation times")
    bs, dropped = brier_scores(curves, durations, events, eval_grid, censor_km)
    return float(np.trapezoid(bs, times) / (times[-1] - times[0])), dropped


def mse_vs_truth(curves, truth, eval_grid: EvalGrid) -> float:
    """Mean over individuals and times of the squared estimation error.

    The truth is an individuals x times array, or a sim.GammaSet whose exact
    curves sim.true_survival computes; that array then takes the squared
    errors in place. Curves are evaluated _BLOCK_ROWS rows at a time; only the
    squared errors are held in full, and one mean sums them as an unblocked
    one would.
    """
    times = eval_grid.times
    n = curves.n
    shape = (n, times.size)
    if isinstance(truth, sim_.GammaSet):
        if truth.gamma.shape[0] != n:
            raise ValidationError(f"truth has {truth.gamma.shape[0]} rows for {n} individuals")
        truth = squared = sim_.true_survival(truth, times)
    else:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != shape:
            raise ValidationError(
                f"truth has shape {truth.shape}, expected {shape} (individuals x times)"
            )
        squared = np.empty(shape)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        block = squared[lo:hi]
        np.subtract(truth[lo:hi], curves.rows(lo, hi).evaluate(times), out=block)
        np.square(block, out=block)
    return float(np.mean(squared))


def report(metric: str, value: float, n: int, dropped_terms: int = 0) -> dict:
    """The JSON record shape used for emitted metric reports."""
    return {
        "metric": metric,
        "value": float(value),
        "n": int(n),
        "dropped_terms": int(dropped_terms),
    }
