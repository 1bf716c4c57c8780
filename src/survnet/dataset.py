"""Right-censored survival data: CSV loading, standardization and splitting."""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from .errors import SchemaError, SurvnetError, ValidationError


class SurvivalDataset:
    """Immutable container for right-censored survival data.

    Each row pairs an observed duration with an event indicator (1 = the event
    was observed, 0 = the observation was censored) and a covariate vector of
    shared length ``p``. Durations must be finite and nonnegative, events
    exactly 0 or 1 and covariates finite; the values are checked as given, so
    an event of 0.5 or NaN is rejected, not cast. An error names the first bad
    row, numbered from 1, and for a covariate its column. Arrays are marked
    read-only, so a dataset can be shared freely between readers.
    """

    def __init__(self, durations, events, covariates, covariate_names=None):
        durations = np.array(durations, dtype=float)
        events = np.array(events, dtype=float)
        covariates = np.array(covariates, dtype=float, order="C")  # one layout for matmuls
        if durations.ndim != 1:
            raise ValidationError("durations must be a 1-d array")
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d array")
        n = durations.shape[0]
        if n < 1:
            raise ValidationError("a dataset needs at least one record")
        if events.shape != (n,) or covariates.shape[0] != n:
            raise ValidationError("durations, events and covariates disagree on n")
        if covariate_names is None:
            covariate_names = tuple(f"x{j}" for j in range(covariates.shape[1]))
        covariate_names = tuple(covariate_names)
        if len(covariate_names) != covariates.shape[1]:
            raise ValidationError("covariate_names length must equal p")
        bad_cov = ~np.isfinite(covariates)
        bad = ~(np.isfinite(durations) & (durations >= 0) & ((events == 0) | (events == 1)))
        bad |= bad_cov.any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            d, e = float(durations[row]), float(events[row])
            col = int(np.argmax(bad_cov[row]))  # read only when the row's other values are valid
            problem = (
                f"non-finite duration {d!r}" if not math.isfinite(d)
                else f"negative duration {d!r}" if d < 0
                else f"event must be 0 or 1, got {e!r}" if e not in (0.0, 1.0)
                else f"non-finite value {float(covariates[row, col])!r} in column "
                f"{covariate_names[col]!r}"
            )
            raise ValidationError(f"row {row + 1}: {problem}")
        events = events.astype(int)
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


def _parse_plain(fh, width: int):
    """The data rows of a file of plain numbers via ``np.loadtxt``, else None.

    ``fh`` is a file opened with ``newline=""`` and read just past the header,
    so its lines are the rows ``csv`` reads. The fast path takes only ASCII
    lines without quotes or blank lines, at least one of them; the array must
    then hold one row per line and ``width`` columns. Anything else is left to
    the row parser, which words the error. ``loadtxt`` parses a number as
    ``float`` does, so the array is the row parser's bit for bit.
    """
    n_rows = 0
    try:
        for line in fh:
            if line in ("\n", "\r\n", "\r") or not line.isascii() or '"' in line:
                return None
            n_rows += 1
    except UnicodeDecodeError:
        return None
    if n_rows == 0:
        return None
    fh.seek(0)
    next(csv.reader(fh))
    try:
        data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    return data if data.shape == (n_rows, width) else None


def _read_rows(fh, width: int) -> np.ndarray:
    """The rows after the header as an (n, width) float64 array.

    ``fh`` is a file opened with ``newline=""`` whose header row ``csv.reader``
    has read. Files of plain numbers are parsed in one ``np.loadtxt`` call and
    any other file by ``csv`` row by row, with the same result. A file without
    rows, a row of the wrong width or a value that ``float`` rejects raises
    SchemaError; rows are numbered from 1 (the header is row 0).
    """
    data = _parse_plain(fh, width)
    if data is not None:
        return data
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    rows = []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != width:
            raise SchemaError(f"row {rownum} has {len(row)} values, expected {width}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise SchemaError(f"row {rownum}: {exc}") from None
    if not rows:
        raise SchemaError("no data rows")
    return np.array(rows)


@contextlib.contextmanager
def _naming(path, against=None):
    """The one place an error names a file: ``<path>: `` or ``<path> against <against>: ``."""
    name = path if against is None else f"{path} against {against}"
    try:
        yield
    except (SurvnetError, OSError) as exc:  # str(exc) of a failed open would repeat the path
        raise type(exc)(f"{name}: {getattr(exc, 'strerror', None) or exc}") from None
    except UnicodeDecodeError as exc:  # stays one, the name put before its reason
        exc.reason = f"{name}: {exc.reason}"
        raise


@contextlib.contextmanager
def _open(path, mode="r"):
    """Every file survnet reads or writes opens here, as text with ``newline=""``."""
    with _naming(path), open(path, mode, newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:  # placed within its chunk; decode again from byte 0
            fh.buffer.seek(0)
            fh.buffer.read().decode(fh.encoding)
            raise


def _write_text(path, text: str, rows=(), eol="\r\n") -> None:
    """Write ``text``, then each row of numbers as shortest round-trip reprs ending in ``eol``."""
    with _open(path, "w") as fh:
        fh.write(text)
        fh.writelines(",".join(map(repr, row)) + eol for row in rows)


def load_csv(path) -> SurvivalDataset:
    """Read a dataset from a comma-separated file with a header row.

    The ``duration`` and ``event`` columns are resolved by name; every
    remaining column becomes a covariate, in header order. The values are
    checked by ``SurvivalDataset``; an error names the file and the first bad
    data row, numbered from 1 (the header is row 0).
    """
    with _open(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("empty file, a header row is required") from None
        for col in ("duration", "event"):
            if col not in header:
                raise SchemaError(f"missing required column {col!r}")
        data = _read_rows(fh, len(header))
        d_pos, e_pos = header.index("duration"), header.index("event")
        cov_pos = [i for i in range(len(header)) if i not in (d_pos, e_pos)]
        return SurvivalDataset(
            data[:, d_pos], data[:, e_pos], data[:, cov_pos], [header[i] for i in cov_pos]
        )


def write_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset in the same format ``load_csv`` reads.

    Floats are written with shortest round-trip repr, so load after write
    reproduces the arrays bit for bit. The header goes through csv.writer,
    which quotes unusual covariate names; data rows hold only numbers and
    end in csv.writer's CRLF.
    """
    head = io.StringIO()
    csv.writer(head).writerow(["duration", "event", *data.covariate_names])
    rows = zip(data.durations.tolist(), data.events.tolist(), data.covariates)
    _write_text(path, head.getvalue(), ([d, e, *x.tolist()] for d, e, x in rows))


class Standardizer:
    """Per-column location and scale for covariates.

    Checked when built; keeps read-only copies of its arrays; compares and hashes by identity.
    """

    def __init__(self, means, stds):
        means, stds = np.array(means, dtype=float), np.array(stds, dtype=float)
        if means.ndim != 1 or means.shape != stds.shape:
            raise ValidationError("standardizer means and stds must be 1-d of equal length")
        means.setflags(write=False)
        stds.setflags(write=False)
        self.means, self.stds = means, stds

    def apply(self, data: SurvivalDataset) -> SurvivalDataset:
        if self.means.shape[0] != data.p:
            raise ValidationError(
                f"standardizer expects p={self.means.shape[0]}, data has p={data.p}"
            )
        scaled = (data.covariates - self.means) / self.stds
        return SurvivalDataset(data.durations, data.events, scaled, data.covariate_names)


def fit_standardizer(data: SurvivalDataset) -> Standardizer:
    """Column means and population (1/n) standard deviations.

    Zero-variance columns get scale 1, so constant columns map to 0. A column
    whose mean or scale overflows float64 raises ValidationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = data.covariates.mean(axis=0)
        stds = data.covariates.std(axis=0)
    finite = np.isfinite(means) & np.isfinite(stds)
    if not finite.all():
        name = data.covariate_names[np.argmin(finite)]
        raise ValidationError(f"covariate {name!r} has a mean or scale that is not finite")
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
