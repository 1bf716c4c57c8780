"""Product-limit (Kaplan-Meier) survival estimation.

The curve drops only at times with at least one event. Censorings tied with
events at the same time stay in the risk set for those events, matching the
convention that an event is observed when both occur together. Fitting the
censoring distribution is the same operation with flipped indicators.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


class KaplanMeierCurve:
    """Drop times and the survival estimate just after each drop; it is 1 before the first.

    Checked when built; keeps read-only copies of its arrays; compares and hashes by identity.
    """

    def __init__(self, times, surv):
        times = np.array(times, dtype=float)
        surv = np.array(surv, dtype=float)
        if times.shape != surv.shape or times.ndim != 1:
            raise ValidationError("times and surv must be 1-d arrays of equal length")
        if not (np.diff(times) > 0).all():
            raise ValidationError("drop times must be strictly increasing")
        if not (surv >= 0).all() or not (surv <= 1).all() or np.any(np.diff(surv) > 0):
            raise ValidationError("surv must be non-increasing within [0, 1]")
        times.setflags(write=False)
        surv.setflags(write=False)
        self.times, self.surv = times, surv


def fit(durations, events) -> KaplanMeierCurve:
    """Product-limit estimate from durations and 0/1 event indicators."""
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=float)
    if durations.size == 0:
        raise ValidationError("cannot fit a survival curve on empty input")
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValidationError("durations and events must be 1-d arrays of equal length")
    if not ((events == 0) | (events == 1)).all():  # before the cast, which reads 0.5 as 0
        raise ValidationError("events must be 0 or 1")
    if not (durations >= 0).all():  # also rejects NaN
        raise ValidationError("durations must be nonnegative")
    order = np.argsort(durations, kind="stable")
    t = durations[order]
    e = events[order].astype(int)
    uniq, first = np.unique(t, return_index=True)
    n = t.size
    deaths = np.add.reduceat(e, first)
    at_risk = n - first
    drops = deaths > 0
    surv = np.cumprod(1.0 - deaths[drops] / at_risk[drops])
    return KaplanMeierCurve(uniq[drops], surv)


def survival_at(curve: KaplanMeierCurve, t) -> np.ndarray | float:
    """Right-continuous step evaluation; 1 before the first drop."""
    return _step_value(curve, t, "right")


def survival_before(curve: KaplanMeierCurve, t) -> np.ndarray | float:
    """Left limit of the step function, i.e. the estimate just before t."""
    return _step_value(curve, t, "left")


def _step_value(curve: KaplanMeierCurve, t, side: str) -> np.ndarray | float:
    """The estimate after every drop before t ("left") or at or before t ("right")."""
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr >= 0).all():  # also rejects NaN
        raise ValidationError("evaluation times must be nonnegative")
    padded = np.concatenate([[1.0], curve.surv])
    out = padded[np.searchsorted(curve.times, t_arr, side=side)]
    return float(out) if np.isscalar(t) else out
