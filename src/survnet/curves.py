"""Survival curves evaluable at arbitrary times.

A curve stores the survival values at the grid cuts for one or more
individuals sharing a grid; the kind decides how values are read between the
cuts: as a right-continuous step function, linearly in survival (constant
density per interval), linearly in cumulative hazard (constant hazard per
interval), or from per-interval hazard masses for the piecewise-exponential
form. All kinds extend beyond the last cut by the value there.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ValidationError
from .grid import TimeGrid, locate_times
from .losses import cumsum_head

KINDS = ("step", "cdi", "chi", "pc-hazard")

# Survival values are floored here before taking logs for the constant-hazard
# scheme, keeping cumulative hazards finite.
SURVIVAL_FLOOR = 1e-12


class SurvivalCurve:
    """Survival estimates on a shared grid for a batch of individuals.

    ``values[i, j]`` is the estimate at cut j+1 for individual i; survival at
    time 0 is 1 by definition. A single 1-d vector of values is accepted and
    treated as a batch of one.
    """

    def __init__(self, grid: TimeGrid, values, kind: str = "step", eta=None):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != grid.m:
            raise ValidationError(
                f"values have {values.shape[1]} columns, grid has {grid.m} intervals"
            )
        if not (values >= -1e-9).all() or not (values <= 1 + 1e-9).all():  # also NaN
            raise ValidationError("survival values must lie in [0, 1]")
        if np.any(np.diff(values, axis=1) > 1e-9):
            raise ValidationError("survival values must be non-increasing")
        values = np.clip(values, 0.0, 1.0)
        if kind not in KINDS:
            raise ValidationError(f"unknown curve kind {kind!r}")
        if kind == "pc-hazard":
            if eta is None:
                raise ValidationError("pc-hazard curves need per-interval hazard masses")
            eta = np.atleast_2d(np.asarray(eta, dtype=float))
            if eta.shape != values.shape:
                raise ValidationError("eta shape must match values")
            if not (eta >= 0).all():
                raise ValidationError("hazard masses must be nonnegative")
            implied = np.exp(-np.cumsum(eta, axis=1))
            if np.max(np.abs(implied - values)) > 1e-12:
                raise ValidationError("values inconsistent with the hazard masses")
            eta.setflags(write=False)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.kind = kind
        self.eta = eta
        self._cache = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def rows(self, start: int, stop: int) -> "SurvivalCurve":
        """The curves of individuals start to stop - 1, read the same way.

        The selection reads slices of this curve's tables, built here if need be.
        """
        sub = self._select(slice(start, stop))
        sub._cache = tuple(t[:, start:stop] for t in self._tables())
        return sub

    def take(self, indices) -> "SurvivalCurve":
        """The curves of the selected individuals; an index out of range raises."""
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1:
            raise ValidationError("take needs a 1-d array of individual indices")
        return self._select(indices)

    def _select(self, index) -> "SurvivalCurve":
        # A selection of valid curves is valid, so the checks are not repeated.
        sub = object.__new__(SurvivalCurve)
        sub.grid, sub.kind, sub._cache = self.grid, self.kind, None
        sub.values = self.values[index]
        sub.eta = None if self.eta is None else self.eta[index]
        for arr in (sub.values, sub.eta):
            if arr is not None:
                arr.setflags(write=False)
        return sub

    def with_kind(self, kind: str) -> "SurvivalCurve":
        """Same discrete values, read with a different scheme between cuts."""
        if kind == "pc-hazard" and self.eta is None:
            raise ValidationError("cannot reinterpret as pc-hazard without hazard masses")
        return SurvivalCurve(self.grid, self.values, kind, self.eta)

    def evaluate(self, times, out=None):
        """Survival at the given time(s): shape (n,) for a scalar, (n, T) else.

        Gathers whole rows of the reading's cached table, one per time, and
        applies the reading's ufuncs in place, with at most one scratch array.
        The result is a new column-major (n, T) array, or ``out`` when given,
        which must be a column-major float64 array of that shape (a scalar
        time counts as T = 1).
        """
        scalar = np.ndim(times) == 0
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        if not (ts >= 0).all():  # also rejects NaN
            raise ValidationError("evaluation times must be nonnegative numbers")
        shape = (self.n, ts.size)
        if out is None:
            out = np.empty(shape, order="F")
        elif not (
            isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.f_contiguous
        ):
            raise ValidationError(f"out must be a column-major float64 array of shape {shape}")
        table = self._tables()
        k, rho = locate_times(ts, self.grid)
        if self.kind == "step":
            # the last cut at or before each time
            np.take(table[0], k - (ts < self.grid.cuts[k]), axis=0, out=out.T, mode="clip")
            return out[:, 0] if scalar else out
        scratch = np.empty(shape, order="F")
        np.take(table[0], k - 1, axis=0, out=out.T, mode="clip")
        if self.kind == "pc-hazard":
            # base + eta * rho
            np.take(table[1], k - 1, axis=0, out=scratch.T, mode="clip")
        else:
            # a * (1 - rho) + b * rho, in survival (cdi) or cumulative hazard (chi)
            np.multiply(out, 1.0 - rho, out=out)
            np.take(table[0], k, axis=0, out=scratch.T, mode="clip")
        np.multiply(scratch, rho, out=scratch)
        np.add(out, scratch, out=out)
        if self.kind != "cdi":
            np.negative(out, out=out)
            np.exp(out, out=out)
        return out[:, 0] if scalar else out

    def _tables(self) -> tuple:
        """The reading's lookup tables, transposed to (m + 1) x n, built once.

        Row j holds every individual's value at cut j: survival for step and
        cdi, -log(max(survival, SURVIVAL_FLOOR)) for chi, and for pc-hazard
        the cumulative hazard plus a second table of the masses (m rows).
        """
        if self._cache is None:
            full = np.empty((self.grid.m + 1, self.n))
            if self.kind == "pc-hazard":
                full[0] = 0.0
                np.cumsum(self.eta.T, axis=0, out=full[1:])
                tables = (full, np.ascontiguousarray(self.eta.T))
            else:
                full[0] = 1.0
                full[1:] = self.values.T
                if self.kind == "chi":
                    np.maximum(full, SURVIVAL_FLOOR, out=full)
                    np.log(full, out=full)
                    np.negative(full, out=full)
                tables = (full,)
            for t in tables:
                t.setflags(write=False)
            self._cache = tables
        return self._cache

    def __repr__(self) -> str:
        return f"SurvivalCurve(kind={self.kind!r}, n={self.n}, m={self.grid.m})"


def surv_from_hazard(hazards, grid: TimeGrid) -> SurvivalCurve:
    """Step curve from per-interval conditional event probabilities."""
    hazards = np.atleast_2d(np.asarray(hazards, dtype=float))
    if not (hazards >= 0).all() or not (hazards <= 1).all():
        raise ValidationError("hazards must lie in [0, 1]")
    values = np.cumprod(1.0 - hazards, axis=1)
    return SurvivalCurve(grid, values, "step")


def pmf_probs(logits):
    """Softmax class probabilities with an implicit final logit fixed at 0.

    Returns one probability per interval plus the survive-past-the-grid class
    as the last column.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    padded = np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1)
    padded = padded - padded.max(axis=1, keepdims=True)
    e = np.exp(padded)
    return e / e.sum(axis=1, keepdims=True)


def surv_from_pmf(logits, grid: TimeGrid) -> SurvivalCurve:
    """Step curve from softmax logits: survival is the summed probability tail."""
    probs = pmf_probs(logits)
    if probs.shape[1] != grid.m + 1:
        raise ValidationError(
            f"logits have {probs.shape[1] - 1} columns, grid has {grid.m} intervals"
        )
    return SurvivalCurve(grid, cumsum_head(probs)[:, 1:], "step")


def pc_hazard_curve(eta, grid: TimeGrid) -> SurvivalCurve:
    """Piecewise-exponential curve from per-interval hazard masses."""
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    if not (eta >= 0).all():
        raise ValidationError("hazard masses must be nonnegative")
    values = np.exp(-np.cumsum(eta, axis=1))
    return SurvivalCurve(grid, values, "pc-hazard", eta=eta)


def write_curves_csv(path, times, values) -> None:
    """Rows of (time, survival per individual), one column per curve."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != times.shape[0]:
        raise ValidationError("values must have one column per evaluation time")
    rows = zip(times.tolist(), values.T)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", *(f"s{i}" for i in range(values.shape[0]))])
        fh.writelines(",".join(map(repr, [t, *col.tolist()])) + "\r\n" for t, col in rows)
