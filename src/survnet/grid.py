"""Time-axis discretization: grids, interval lookup and label construction.

Intervals are the half-open ranges (c_{j-1}, c_j] between consecutive cut
points. Two label flavors are produced: ``discretize`` snaps times to grid
points for the discrete-time methods (events to the end of their interval,
censorings back to the previous cut), while ``continuous_labels`` keeps the
exact position inside the interval for the piecewise-constant hazard loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import km as km_
from .errors import ValidationError


class GridDeduplicationWarning(UserWarning):
    """Quantile grid points collided and the grid shrank."""


@dataclass(frozen=True)
class TimeGrid:
    """Ordered cut points 0 = c_0 < c_1 < ... < c_m bounding m intervals."""

    cuts: np.ndarray

    def __post_init__(self):
        cuts = np.array(self.cuts, dtype=float)
        if cuts.ndim != 1 or cuts.size < 2:
            raise ValidationError("a grid needs at least two cut points")
        if cuts[0] != 0.0:
            raise ValidationError("the first cut point must be 0")
        if not np.isfinite(cuts).all():
            raise ValidationError("cut points must be finite")
        if np.any(np.diff(cuts) <= 0):
            raise ValidationError("cut points must be strictly increasing")
        cuts.setflags(write=False)
        object.__setattr__(self, "cuts", cuts)

    @property
    def m(self) -> int:
        return self.cuts.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.cuts)

    @property
    def t_max(self) -> float:
        return float(self.cuts[-1])


@dataclass(frozen=True)
class DiscreteLabels:
    """Per-record interval index, event indicator and within-interval fraction."""

    idx: np.ndarray
    event: np.ndarray
    frac: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=int)
        event = np.asarray(self.event, dtype=int)
        frac = np.asarray(self.frac, dtype=float)
        if not (idx.shape == event.shape == frac.shape) or idx.ndim != 1:
            raise ValidationError("label arrays must be 1-d and of equal length")
        if np.any(idx < 0):
            raise ValidationError("interval indices must be nonnegative")
        if not np.isin(event, (0, 1)).all():
            raise ValidationError("events must be 0 or 1")
        if np.any(frac < 0) or np.any(frac > 1):
            raise ValidationError("fractions must lie in [0, 1]")
        if np.any((event == 1) & (idx < 1)):
            raise ValidationError("an observed event needs interval index >= 1")
        for arr in (idx, event, frac):
            arr.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "frac", frac)

    def __len__(self) -> int:
        return self.idx.shape[0]

    def take(self, indices) -> "DiscreteLabels":
        """Read-only labels of the selected records; an index out of range raises.

        A selection of valid labels is valid, so the checks are not repeated.
        """
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1:
            raise ValidationError("take needs a 1-d array of record indices")
        sub = object.__new__(DiscreteLabels)
        for name in ("idx", "event", "frac"):
            arr = getattr(self, name)[indices]
            arr.setflags(write=False)
            object.__setattr__(sub, name, arr)
        return sub


def equidistant_grid(t_max: float, m: int) -> TimeGrid:
    """m intervals of equal width on [0, t_max]."""
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    if m < 1:
        raise ValidationError("m must be at least 1")
    return TimeGrid(np.linspace(0.0, float(t_max), m + 1))


def km_quantile_grid(data, m: int) -> TimeGrid:
    """Grid whose intervals carry equal drops of the marginal survival estimate.

    The survival curve is estimated by the product-limit method, the target
    levels step down evenly from 1 to the estimate at the largest observed
    duration, and each interior cut is the smallest observed drop time at or
    below its level. The last cut is the largest observed duration. Duplicate
    cuts are removed; if that shrinks the grid a warning is emitted.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    curve = km_.fit(data.durations, data.events)
    if curve.times.size == 0:
        raise ValidationError("quantile grid needs at least one observed event")
    t_max = float(data.durations.max())
    s_end = km_.survival_at(curve, t_max)
    levels = 1.0 - np.arange(1, m) * (1.0 - s_end) / m
    interior = [km_.quantile_time(curve, level) for level in levels]
    cuts = np.unique(np.concatenate([[0.0], interior, [t_max]]))
    if cuts.size < m + 1:
        warnings.warn(
            f"quantile grid reduced from {m} to {cuts.size - 1} intervals "
            "after removing duplicate cut points",
            GridDeduplicationWarning,
            stacklevel=2,
        )
    return TimeGrid(cuts)


def locate_times(times, grid: TimeGrid):
    """Interval indices kappa with t in (c_{kappa-1}, c_kappa] and fractions rho.

    t = 0 maps to (1, 0.0); times beyond the last cut clamp to (m, 1.0).
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValidationError("times must be nonnegative")
    cuts = grid.cuts
    k = np.searchsorted(cuts, times, side="left").clip(1, grid.m)
    rho = (times - cuts[k - 1]) / (cuts[k] - cuts[k - 1])
    return k, np.clip(rho, 0.0, 1.0)


def discretize(data, grid: TimeGrid) -> DiscreteLabels:
    """Labels for the discrete-time methods.

    Times strictly inside an interval are snapped to a cut: events forward to
    the end of their interval, censorings back to the previous cut (the last
    time the individual was known alive on the grid). Times already sitting on
    a cut stay there; without this, censorings at the final cut would vacate
    the last interval and push its estimated hazard to one. Durations beyond
    the last cut are clamped to it first, events and censorings alike. A
    censoring that lands on index 0 stays in the data and simply contributes
    nothing to the likelihood.
    """
    t = np.minimum(data.durations, grid.t_max)
    k, rho = locate_times(t, grid)
    on_cut = t == grid.cuts[k]
    idx = np.where((data.events == 1) | on_cut, k, k - 1)
    return DiscreteLabels(idx, data.events, rho)


def continuous_labels(data, grid: TimeGrid) -> DiscreteLabels:
    """Labels keyed to the exact observed times.

    The index is the interval containing the time and the fraction its
    position inside that interval, as consumed by the piecewise-constant
    hazard loss. Durations beyond the last cut are clamped to it.
    """
    t = np.minimum(data.durations, grid.t_max)
    k, rho = locate_times(t, grid)
    return DiscreteLabels(k, data.events, rho)
