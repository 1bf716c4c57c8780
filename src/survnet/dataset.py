"""Right-censored survival data: CSV loading, standardization and splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError


class SurvivalDataset:
    """Immutable container for right-censored survival data.

    Each row pairs an observed duration with an event indicator (1 = the event
    was observed, 0 = the observation was censored) and a covariate vector of
    shared length ``p``. Arrays are validated on construction and marked
    read-only, so a dataset can be shared freely between readers.
    """

    def __init__(self, durations, events, covariates, covariate_names=None):
        durations = np.array(durations, dtype=float)
        events = np.array(events, dtype=int)
        covariates = np.array(covariates, dtype=float)
        if durations.ndim != 1:
            raise ValidationError("durations must be a 1-d array")
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d array")
        n = durations.shape[0]
        if n < 1:
            raise ValidationError("a dataset needs at least one record")
        if events.shape != (n,) or covariates.shape[0] != n:
            raise ValidationError("durations, events and covariates disagree on n")
        if not np.isfinite(durations).all():
            raise ValidationError("durations contain NaN or Inf")
        if np.any(durations < 0):
            raise ValidationError("durations must be nonnegative")
        if not np.isin(events, (0, 1)).all():
            raise ValidationError("events must be 0 or 1")
        if not np.isfinite(covariates).all():
            raise ValidationError("covariates contain NaN or Inf")
        if covariate_names is None:
            covariate_names = tuple(f"x{j}" for j in range(covariates.shape[1]))
        covariate_names = tuple(covariate_names)
        if len(covariate_names) != covariates.shape[1]:
            raise ValidationError("covariate_names length must equal p")
        for arr in (durations, events, covariates):
            arr.setflags(write=False)
        self.durations = durations
        self.events = events
        self.covariates = covariates
        self.covariate_names = covariate_names

    @property
    def n(self) -> int:
        return self.durations.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "SurvivalDataset":
        indices = np.asarray(indices, dtype=int)
        return SurvivalDataset(
            self.durations[indices],
            self.events[indices],
            self.covariates[indices],
            self.covariate_names,
        )

    def __repr__(self) -> str:
        n_events = int(self.events.sum())
        return f"SurvivalDataset(n={self.n}, p={self.p}, events={n_events})"


def _parse_number(raw: str, row: int, column: str, path) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(
            f"{path}: row {row}: column {column!r} has non-numeric value {raw!r}"
        ) from None


def load_csv(path, duration_col: str = "duration", event_col: str = "event") -> SurvivalDataset:
    """Read a dataset from a comma-separated file with a header row.

    The duration and event columns are resolved by name; every remaining
    column becomes a covariate, in header order. Data rows are numbered from 1
    (the header is row 0) in error messages.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, a header row is required") from None
        for col in (duration_col, event_col):
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        d_pos = header.index(duration_col)
        e_pos = header.index(event_col)
        cov_pos = [i for i in range(len(header)) if i not in (d_pos, e_pos)]
        cov_names = [header[i] for i in cov_pos]
        durations, events, rows = [], [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}"
                )
            duration = _parse_number(row[d_pos], rownum, duration_col, path)
            if not math.isfinite(duration):
                raise ValidationError(
                    f"{path}: row {rownum}: non-finite duration {row[d_pos]!r}"
                )
            if duration < 0:
                raise ValidationError(
                    f"{path}: row {rownum}: negative duration {row[d_pos]!r}"
                )
            event = _parse_number(row[e_pos], rownum, event_col, path)
            if event not in (0.0, 1.0):
                raise ValidationError(
                    f"{path}: row {rownum}: event must be 0 or 1, got {row[e_pos]!r}"
                )
            durations.append(duration)
            events.append(int(event))
            rows.append([_parse_number(row[i], rownum, header[i], path) for i in cov_pos])
        if not durations:
            raise ValidationError(f"{path}: no data rows")
    covariates = np.asarray(rows, dtype=float).reshape(len(durations), len(cov_pos))
    return SurvivalDataset(durations, events, covariates, cov_names)


def write_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset in the same format ``load_csv`` reads.

    Floats are written with shortest round-trip repr, so load after write
    reproduces the arrays bit for bit. The header goes through csv.writer,
    which quotes unusual covariate names; data rows hold only numbers and
    are joined directly, with csv.writer's CRLF line endings.
    """
    rows = zip(data.durations.tolist(), data.events.tolist(), data.covariates)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["duration", "event", *data.covariate_names])
        fh.writelines(",".join(map(repr, [d, e, *x.tolist()])) + "\r\n" for d, e, x in rows)


@dataclass(frozen=True)
class Standardizer:
    """Per-column location and scale for covariates."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        if np.ndim(self.means) != 1 or np.shape(self.means) != np.shape(self.stds):
            raise ValidationError("standardizer means and stds must be 1-d of equal length")

    def apply(self, data: SurvivalDataset) -> SurvivalDataset:
        if self.means.shape[0] != data.p:
            raise ValidationError(
                f"standardizer expects p={self.means.shape[0]}, data has p={data.p}"
            )
        scaled = (data.covariates - self.means) / self.stds
        return SurvivalDataset(data.durations, data.events, scaled, data.covariate_names)


def fit_standardizer(data: SurvivalDataset) -> Standardizer:
    """Column means and population (1/n) standard deviations.

    Zero-variance columns get scale 1, so constant columns map to 0.
    """
    means = data.covariates.mean(axis=0)
    stds = data.covariates.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    return Standardizer(means, stds)


def split(data: SurvivalDataset, fractions, seed: int):
    """Partition into train/validation/test by shuffled indices.

    Train and validation sizes are floored, the remainder goes to test, so
    the three parts are disjoint and exhaustive for any n.
    """
    f = np.asarray(fractions, dtype=float)
    if f.shape != (3,) or np.any(f <= 0):
        raise ValidationError("fractions must be three positive numbers")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValidationError(f"fractions must sum to 1, got {f.sum()!r}")
    n = data.n
    n_train = int(np.floor(n * f[0]))
    n_val = int(np.floor(n * f[1]))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValidationError(f"n={n} is too small for a nonempty split {tuple(f)}")
    perm = np.random.default_rng(seed).permutation(n)
    return (
        data.subset(perm[:n_train]),
        data.subset(perm[n_train : n_train + n_val]),
        data.subset(perm[n_train + n_val :]),
    )
