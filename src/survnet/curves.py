"""Survival curves evaluable at arbitrary times.

A curve stores the survival values at the grid cuts for one or more
individuals sharing a grid; the kind decides how values are read between the
cuts: as a right-continuous step function, linearly in survival (constant
density per interval), or linearly in cumulative hazard (constant hazard per
interval), which pc-hazard curves sum from their hazard masses. All kinds
extend beyond the last cut by the value there.
"""

from __future__ import annotations

import numpy as np

from .dataset import _write_text
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
    treated as a batch of one. The constructor builds the step, cdi and chi
    readings; pc-hazard curves come from ``pc_hazard_curve``.
    """

    def __init__(self, grid: TimeGrid, values, kind: str = "step"):
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
            raise ValidationError("pc-hazard curves need hazard masses: use pc_hazard_curve")
        self._set(grid, values, kind, None)

    def _set(self, grid, values, kind, eta) -> "SurvivalCurve":
        for arr in (values, eta):
            if arr is not None:
                arr.setflags(write=False)
        self.grid, self.values, self.kind, self.eta, self._cache = grid, values, kind, eta, None
        return self

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def rows(self, start: int, stop: int) -> "SurvivalCurve":
        """The curves of individuals start to stop - 1, read the same way.

        The selection reads a slice of this curve's table, built here if need be.
        """
        sub = self._select(slice(start, stop))
        sub._cache = self._table()[:, start:stop]
        return sub

    def take(self, indices) -> "SurvivalCurve":
        """The curves of the selected individuals; an index out of range raises."""
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1:
            raise ValidationError("take needs a 1-d array of individual indices")
        return self._select(indices)

    def _select(self, index, kind=None) -> "SurvivalCurve":
        # A selection of valid curves is valid, so the checks are not repeated.
        eta = None if self.eta is None else self.eta[index]
        sub = object.__new__(SurvivalCurve)
        return sub._set(self.grid, self.values[index], kind or self.kind, eta)

    def with_kind(self, kind: str) -> "SurvivalCurve":
        """Same discrete values, read with a different scheme between cuts."""
        if kind not in KINDS:
            raise ValidationError(f"unknown curve kind {kind!r}")
        if kind == "pc-hazard" and self.eta is None:
            raise ValidationError("cannot reinterpret as pc-hazard without hazard masses")
        return self._select(slice(None), kind)

    def evaluate(self, times, out=None):
        """Survival at the given time(s): shape (n,) for a scalar, (n, T) else.

        Gathers whole rows of the reading's cached table, one per time, and
        applies the reading's ufuncs in place, with at most one scratch array:
        step reads the table, the other kinds interpolate it linearly, and chi
        and pc-hazard then take exp(-x). The result is a new column-major
        (n, T) array, or ``out`` when given, which must be a column-major
        float64 array of that shape (a scalar time counts as T = 1).
        """
        scalar = np.ndim(times) == 0
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        k, rho = locate_times(ts, self.grid)  # rejects negative and NaN times
        shape = (self.n, ts.size)
        if out is None:
            out = np.empty(shape, order="F")
        elif not (
            isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.f_contiguous
        ):
            raise ValidationError(f"out must be a column-major float64 array of shape {shape}")
        table = self._table()
        if self.kind == "step":
            # the last cut at or before each time
            np.take(table, k - (ts < self.grid.cuts[k]), axis=0, out=out.T, mode="clip")
            return out[:, 0] if scalar else out
        scratch = np.empty(shape, order="F")
        # a * (1 - rho) + b * rho, in survival (cdi) or cumulative hazard (chi, pc-hazard)
        np.take(table, k - 1, axis=0, out=out.T, mode="clip")
        np.multiply(out, 1.0 - rho, out=out)
        np.take(table, k, axis=0, out=scratch.T, mode="clip")
        np.multiply(scratch, rho, out=scratch)
        np.add(out, scratch, out=out)
        if self.kind != "cdi":
            np.negative(out, out=out)
            np.exp(out, out=out)
        return out[:, 0] if scalar else out

    def _table(self) -> np.ndarray:
        """The reading's read-only lookup table, (m + 1) x n, built once.

        Row j holds every individual's value at cut j: survival for step and
        cdi, -log(max(survival, SURVIVAL_FLOOR)) for chi, and the cumulative
        hazard for pc-hazard, with +inf held at the largest float so that a
        weight rho = 0 on it gives 0, not NaN.
        """
        if self._cache is None:
            full = np.empty((self.grid.m + 1, self.n))
            if self.kind == "pc-hazard":
                full[0] = 0.0
                np.cumsum(self.eta.T, axis=0, out=full[1:])
                np.minimum(full, np.finfo(float).max, out=full)
            else:
                full[0] = 1.0
                full[1:] = self.values.T
                if self.kind == "chi":
                    np.maximum(full, SURVIVAL_FLOOR, out=full)
                    np.log(full, out=full)
                    np.negative(full, out=full)
            full.setflags(write=False)
            self._cache = full
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
    as the last column. The classes whose logit is +inf share all the mass.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    padded = np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1)
    top = padded.max(axis=1, keepdims=True)
    # each row's maximum is shifted to exactly 0, so inf - inf never forms
    e = np.exp(np.subtract(padded, top, out=np.zeros_like(padded), where=padded != top))
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
    eta = np.atleast_2d(np.array(eta, dtype=float))
    if eta.shape[1] != grid.m:
        raise ValidationError(f"eta has {eta.shape[1]} columns, grid has {grid.m} intervals")
    if not (eta >= 0).all():
        raise ValidationError("hazard masses must be nonnegative")
    # values from nonnegative masses pass the constructor's checks by construction
    values = np.exp(-np.cumsum(eta, axis=1))
    return object.__new__(SurvivalCurve)._set(grid, values, "pc-hazard", eta)


def write_curves_csv(path, times, values) -> None:
    """Rows of (time, survival per individual), one column per curve."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != times.shape[0]:
        raise ValidationError("values must have one column per evaluation time")
    head = ",".join(["t", *(f"s{i}" for i in range(values.shape[0]))]) + "\r\n"
    _write_text(path, head, ([t, *col.tolist()] for t, col in zip(times.tolist(), values.T)))
