"""Product-limit (Kaplan-Meier) survival estimation.

The curve drops only at times with at least one event. Censorings tied with
events at the same time stay in the risk set for those events, matching the
convention that an event is observed when both occur together. Fitting the
censoring distribution is the same operation with flipped indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Absolute slack when inverting survival levels, so values that reach a level
# up to float rounding still count as having reached it.
LEVEL_SLACK = 1e-12


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Drop times and the survival estimate just after each drop.

    The estimate is implicitly 1 before the first drop time.
    """

    times: np.ndarray
    surv: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        surv = np.asarray(self.surv, dtype=float)
        if times.shape != surv.shape or times.ndim != 1:
            raise ValidationError("times and surv must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValidationError("drop times must be strictly increasing")
        if np.any(surv < 0) or np.any(surv > 1) or np.any(np.diff(surv) > 0):
            raise ValidationError("surv must be non-increasing within [0, 1]")
        times.setflags(write=False)
        surv.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "surv", surv)


def fit(durations, events) -> KaplanMeierCurve:
    """Product-limit estimate from durations and 0/1 event indicators."""
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    if durations.size == 0:
        raise ValidationError("cannot fit a survival curve on empty input")
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValidationError("durations and events must be 1-d arrays of equal length")
    if np.any(durations < 0):
        raise ValidationError("durations must be nonnegative")
    order = np.argsort(durations, kind="stable")
    t = durations[order]
    e = events[order]
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
    if np.any(t_arr < 0):
        raise ValidationError("evaluation times must be nonnegative")
    padded = np.concatenate([[1.0], curve.surv])
    out = padded[np.searchsorted(curve.times, t_arr, side=side)]
    return float(out) if np.isscalar(t) else out


def quantile_time(curve: KaplanMeierCurve, level: float) -> float:
    """Smallest drop time whose survival estimate is at or below ``level``.

    Falls back to the largest drop time when no estimate reaches the level.
    Levels are compared with a 1e-12 slack so a step equal to the level up to
    rounding counts as reached.
    """
    if curve.times.size == 0:
        raise ValidationError("curve has no drops, quantiles are undefined")
    if level > 1.0:
        raise ValidationError("level must be at most 1")
    hits = np.nonzero(curve.surv <= level + LEVEL_SLACK)[0]
    if hits.size:
        return float(curve.times[hits[0]])
    return float(curve.times[-1])
