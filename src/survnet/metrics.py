"""Evaluation metrics for survival predictions.

Time-dependent concordance compares predicted survival between comparable
pairs at the earlier member's time. Brier scores weight squared residuals by
the inverse of the censoring distribution's product-limit estimate. Mean
squared error against a known truth supports simulation studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import km as km_
from .errors import MetricUndefinedError, ValidationError

_CHUNK = 256

# Individuals per block in mse_vs_truth; bounds the curve temporaries.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class EvalGrid:
    """Increasing evaluation times for time-integrated metrics."""

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("an evaluation grid needs at least one time")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("evaluation times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def equidistant(cls, durations, n_points: int = 100) -> "EvalGrid":
        """n equidistant points between the smallest and largest observed time."""
        durations = np.asarray(durations, dtype=float)
        lo, hi = float(durations.min()), float(durations.max())
        if not hi > lo:
            raise ValidationError("observed times span a single point")
        return cls(np.linspace(lo, hi, n_points))


def td_concordance(curves, durations, events) -> float:
    """Time-dependent concordance over comparable pairs.

    A pair is comparable when the earlier time belongs to an observed event,
    or when the times tie with one event and one censoring. It counts as
    concordant when the individual with the event has the lower predicted
    survival at that time; tied predictions count one half.
    """
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValidationError("durations and events must be 1-d arrays of equal length")
    if curves.n != durations.shape[0]:
        raise ValidationError("need one curve per individual")
    event_times = np.unique(durations[events == 1])
    if event_times.size == 0:
        raise MetricUndefinedError("no comparable pairs: no observed events")
    concordant = 0.0
    comparable = 0
    for c0 in range(0, event_times.size, _CHUNK):
        chunk = event_times[c0 : c0 + _CHUNK]
        surv = curves.evaluate(chunk)
        for q, t in enumerate(chunk):
            col = surv[:, q]
            others = (durations > t) | ((durations == t) & (events == 0))
            n_others = int(others.sum())
            if n_others == 0:
                continue
            col_others = col[others]
            for i in np.nonzero((durations == t) & (events == 1))[0]:
                comparable += n_others
                concordant += float((col_others > col[i]).sum())
                concordant += 0.5 * float((col_others == col[i]).sum())
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs")
    return concordant / comparable


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


def integrated_brier_score(
    curves, durations, events, eval_grid: EvalGrid, censor_km, details: bool = False
):
    """Trapezoidal integral of the Brier score, normalized by the grid span.

    With ``details=True`` also returns the count of dropped zero-weight terms.
    """
    times = eval_grid.times
    if times.size < 2:
        raise ValidationError("integration needs at least two evaluation times")
    bs, dropped = brier_scores(curves, durations, events, eval_grid, censor_km)
    value = float(np.trapezoid(bs, times) / (times[-1] - times[0]))
    if details:
        return value, dropped
    return value


def mse_vs_truth(curves, truth, eval_grid: EvalGrid) -> float:
    """Mean over individuals and times of the squared estimation error.

    Curves are evaluated in blocks of rows; only the truth and the squared
    errors are held in full, and one mean sums them as an unblocked one would.
    """
    truth = np.asarray(truth, dtype=float)
    times = eval_grid.times
    shape = (curves.n, times.size)
    if truth.shape != shape:
        raise ValidationError(
            f"truth has shape {truth.shape}, expected {shape} (individuals x times)"
        )
    squared = None
    for lo in range(0, max(curves.n, 1), _ROW_BLOCK):  # one pass even for no rows
        surv = curves.rows(lo, lo + _ROW_BLOCK).evaluate(times)
        if squared is None:
            # Allocated once the evaluation's temporaries are freed, so the
            # two do not add up in the peak memory.
            squared = np.empty(shape)
        block = squared[lo : lo + _ROW_BLOCK]
        np.subtract(surv, truth[lo : lo + _ROW_BLOCK], out=block)
        del surv
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
