"""Synthetic right-censored survival data from logit-hazard mixtures.

Event times are drawn step by step from a per-step hazard on a fine grid of
1000 equidistant times on (0, 100]. The logit hazard of each individual mixes
a sinusoidal, a constant and an accelerating component; the mixture weights
and component parameters are driven by nine latent scores. The observed
covariates are a redundant linear encoding of those scores (five covariates
per score, 45 in total), built so that the score is recovered exactly by a
fixed linear map. Random censoring draws from a constant per-step hazard;
anyone still event-free at the end of the grid is censored there. The exact
survival curves are returned next to the data, enabling error measurement
against the truth.

One hazard kernel serves both generate_dataset and true_survival: it works
through the individuals in blocks of rows, reusing two preallocated block
buffers, the first holding the logits and then the hazards, and puts every
element through the same operations whatever the block size. The truth
recomputed from the latent scores is therefore the simulator's truth bit for
bit, and the memory beyond the n x n_steps truth stays a few block-sized
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset
from .errors import SchemaError, ValidationError
from .losses import sigmoid

N_STEPS = 1000
T_MAX = 100.0
N_LATENT = 9
DEFAULT_SUBSET = 5

# Constant per-step censoring probability calibrated by bisection so that the
# overall censored fraction is 0.37 at large n (includes end-of-grid
# censoring). See calibrate_censor_hazard in tests/oracles.py.
DEFAULT_CENSOR_HAZARD = 0.00016113281249999998

# Rows per block of the hazard kernel: each block buffer is _BLOCK_ROWS x
# n_steps floats, 1 MB at the default grid.
_BLOCK_ROWS = 128

# First header field of the truth files write_truth_csv produces.
TRUTH_LAYOUT = "survnet-truth-latent"


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int = 0
    censor_hazard: float = DEFAULT_CENSOR_HAZARD
    design_seed: int = 0
    n_steps: int = N_STEPS
    t_max: float = T_MAX
    subset_size: int = DEFAULT_SUBSET

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.seed < 0 or self.design_seed < 0:
            raise ValidationError("seed and design_seed must be nonnegative")
        if not 0.0 <= self.censor_hazard < 1.0:
            raise ValidationError("censor_hazard must lie in [0, 1)")
        if self.n_steps < 1 or self.t_max <= 0:
            raise ValidationError("the fine grid needs n_steps >= 1 and t_max > 0")
        if self.subset_size < 1:
            raise ValidationError("subset_size must be at least 1")
        # The truth and the covariates are n rows of float64; numpy cannot
        # address an array of more bytes than its index type holds.
        width = max(int(self.n_steps), N_LATENT * int(self.subset_size))
        if int(self.n) * width * 8 > np.iinfo(np.intp).max:
            raise ValidationError(
                f"n = {self.n} is too large for arrays of n x {width} floats"
            )


def fine_times(n_steps: int = N_STEPS, t_max: float = T_MAX) -> np.ndarray:
    """The fine grid t_max/n_steps, 2*t_max/n_steps, ..., t_max."""
    return np.linspace(t_max / n_steps, t_max, n_steps)


@dataclass(frozen=True)
class GammaSet:
    """Hazard-shape parameters, one row of nine per individual."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        if gamma.shape[1] != N_LATENT:
            raise ValidationError(f"gamma needs {N_LATENT} columns")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    @property
    def alpha(self) -> np.ndarray:
        """Softmax mixture weights from the last three parameters."""
        g = self.gamma[:, 6:9]
        e = np.exp(g - g.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class LatentDesign:
    """Latent scores, shared encoding coefficients and encoded covariates."""

    latent: np.ndarray
    coef: np.ndarray
    covariates: np.ndarray


@dataclass(frozen=True)
class SimResult:
    data: SurvivalDataset
    truth: np.ndarray
    times: np.ndarray
    design: LatentDesign
    gammas: GammaSet

    @property
    def censored_fraction(self) -> float:
        return float(1.0 - self.data.events.mean())


def gammas_from_latent(latent) -> GammaSet:
    """Map latent scores in [-1, 1] to the nine hazard-shape parameters."""
    x = np.atleast_2d(np.asarray(latent, dtype=float))
    if x.shape[1] != N_LATENT:
        raise ValidationError(f"latent needs {N_LATENT} columns")
    g = np.empty_like(x)
    g[:, 0] = 5.0 * x[:, 0]
    g[:, 1] = (2.0 * np.pi / 100.0) * 2.0 ** np.floor(2.5 * (x[:, 1] + 1.0) - 1.0)
    g[:, 2] = 15.0 * x[:, 2]
    g[:, 3] = 2.0 * x[:, 3] - 6.0 - np.abs(g[:, 0])
    g[:, 4] = 2.5 * (x[:, 4] + 1.0) - 8.0
    g[:, 5] = sigmoid(3.0 * (x[:, 5] + 1.0) - 5.0)
    g[:, 6] = 5.0 * (x[:, 6] + 0.6)
    g[:, 7] = 5.0 * x[:, 7]
    g[:, 8] = 5.0 * x[:, 8]
    return GammaSet(g)


def logit_hazard(gammas: GammaSet, t):
    """Mixture logit hazard at time(s) t, one row per individual.

    The three components are a sine wave, a constant and a ramp that falls
    from -10 at time zero; the softmax weights blend them.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((gammas.gamma.shape[0], t_arr.shape[0]))
    _logit_hazard_into(gammas.gamma, gammas.alpha, t_arr, out, np.empty_like(out))
    return out[:, 0] if np.ndim(t) == 0 else out


def _logit_hazard_into(g, a, t, out, scratch):
    """Write the logit hazard of parameter rows g (weights a) at times t into out.

    Evaluates a0 * (g0 * sin(g1 * (t + g2)) + g3) + a1 * g4 + a2 * (g5 * t - 10)
    one ufunc at a time, in that order, so the result does not depend on
    which buffers hold it.
    """
    np.add(t, g[:, 2:3], out=out)
    np.multiply(g[:, 1:2], out, out=out)
    np.sin(out, out=out)
    np.multiply(g[:, 0:1], out, out=out)
    np.add(out, g[:, 3:4], out=out)
    np.multiply(a[:, 0:1], out, out=out)
    np.add(out, a[:, 1:2] * g[:, 4:5], out=out)
    np.multiply(g[:, 5:6], t, out=scratch)
    np.subtract(scratch, 10.0, out=scratch)
    np.multiply(a[:, 2:3], scratch, out=scratch)
    np.add(out, scratch, out=out)


def _survival_blocks(gammas: GammaSet, times: np.ndarray, truth: np.ndarray):
    """Fill truth with the exact survival curves, _BLOCK_ROWS rows at a time.

    Two block buffers are allocated once: the logits, turned into the
    hazards h in place by losses.sigmoid, and a scratch buffer that holds
    exp(-|logit|) and then 1 - h. The memory beyond truth therefore stays two
    block-sized arrays whatever the number of rows. Every element goes through
    the same operations whatever the block size, so the curves are the same
    bit for bit for any split into blocks. Yields (lo, hi, h) after writing
    rows lo to hi - 1, h holding their per-step event probabilities in the
    logit buffer until the next block overwrites it.
    """
    gamma, alpha = gammas.gamma, gammas.alpha
    logit = np.empty((min(_BLOCK_ROWS, gamma.shape[0]), times.shape[0]))
    scratch = np.empty_like(logit)
    for lo in range(0, gamma.shape[0], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, gamma.shape[0])
        h, s = logit[: hi - lo], scratch[: hi - lo]
        _logit_hazard_into(gamma[lo:hi], alpha[lo:hi], times, h, s)
        np.exp(np.negative(np.abs(h, out=s), out=s), out=s)
        sigmoid(h, s, out=h)
        np.cumprod(np.subtract(1.0, h, out=s), axis=1, out=truth[lo:hi])
        yield lo, hi, h


def true_survival(gammas: GammaSet, times=None) -> np.ndarray:
    """Exact survival at every fine-grid time: running product of (1 - hazard).

    Computed by the block kernel generate_dataset uses, so the curves
    recomputed here equal its truth bit for bit, at any number of rows.
    """
    times = fine_times() if times is None else np.asarray(times, dtype=float)
    out = np.empty((gammas.gamma.shape[0], times.shape[0]))
    for _ in _survival_blocks(gammas, times, out):
        pass
    return out


def design_coefficients(design_seed: int, subset_size: int = DEFAULT_SUBSET) -> np.ndarray:
    """Standard-normal encoding coefficients, fixed by the design seed.

    Datasets generated with different draw seeds but the same design seed share
    this map, so train and test sets describe the same covariate relationship.
    """
    rng = np.random.default_rng(np.random.SeedSequence(design_seed))
    return rng.standard_normal((N_LATENT, subset_size))


def _encode_covariates(latent, coef, u):
    """Spread each latent score over its covariate subset.

    The running partial sums of covariate * coefficient are forced to be the
    uniform draws u, so every subset satisfies covariates @ coef == score
    exactly up to rounding.
    """
    n, q = latent.shape
    s = coef.shape[1]
    x = np.empty((n, q, s))
    if s == 1:
        x[:, :, 0] = latent / coef[None, :, 0]
    else:
        x[:, :, 0] = (latent - u[:, :, 0]) / coef[None, :, 0]
        for k in range(1, s - 1):
            x[:, :, k] = (u[:, :, k - 1] - u[:, :, k]) / coef[None, :, k]
        x[:, :, s - 1] = u[:, :, s - 2] / coef[None, :, s - 1]
    return x.reshape(n, q * s)


def generate_dataset(cfg: SimConfig) -> SimResult:
    """Draw a dataset plus its exact survival curves.

    Covariates, event draws and censoring draws use three independent streams
    spawned from the seed, so switching the censoring hazard leaves the event
    times untouched. Ties between an event and a censoring at the same step
    are observed as the event.
    """
    cov_ss, event_ss, cens_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    cov_rng = np.random.default_rng(cov_ss)
    event_rng = np.random.default_rng(event_ss)
    cens_rng = np.random.default_rng(cens_ss)

    coef = design_coefficients(cfg.design_seed, cfg.subset_size)
    latent = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, N_LATENT))
    u = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, N_LATENT, max(cfg.subset_size - 1, 0)))
    covariates = _encode_covariates(latent, coef, u)
    gammas = gammas_from_latent(latent)
    times = fine_times(cfg.n_steps, cfg.t_max)

    durations = np.empty(cfg.n)
    events = np.empty(cfg.n, dtype=int)
    truth = np.empty((cfg.n, cfg.n_steps))
    # Each stream fills its block buffer in row-major order, so the draws are
    # the same whatever the block size.
    uniforms = np.empty((min(_BLOCK_ROWS, cfg.n), cfg.n_steps))
    hits = np.empty(uniforms.shape, dtype=bool)
    for lo, hi, h in _survival_blocks(gammas, times, truth):
        u, hit = uniforms[: hi - lo], hits[: hi - lo]
        t_event = _first_hit_time(np.less(event_rng.random(out=u), h, out=hit), times)
        t_cens = _first_hit_time(
            np.less(cens_rng.random(out=u), cfg.censor_hazard, out=hit), times
        )
        t_cens = np.minimum(t_cens, cfg.t_max)
        durations[lo:hi] = np.minimum(t_event, t_cens)
        events[lo:hi] = t_event <= t_cens

    data = SurvivalDataset(durations, events, covariates)
    design = LatentDesign(latent, coef, covariates)
    return SimResult(data, truth, times, design, gammas)


def _first_hit_time(hits, times) -> np.ndarray:
    """Per row, the time of the first True step, or inf if there is none."""
    return np.where(hits.any(axis=1), times[hits.argmax(axis=1)], np.inf)


def write_truth_csv(path, result: SimResult) -> None:
    """Store the truth as the fine-grid spec plus nine latent scores per row.

    The header reads ``survnet-truth-latent,n_steps=N,t_max=T``; every row
    holds one individual's latent scores in shortest round-trip repr, from
    which load_truth_csv recomputes the exact survival curves bit for bit.
    """
    times = np.asarray(result.times, dtype=float)
    n_steps, t_max = times.shape[0], float(times[-1])
    if not np.array_equal(times, fine_times(n_steps, t_max)):
        raise ValidationError("truth times must be the fine grid t_max/n_steps, ..., t_max")
    with open(path, "w", newline="") as fh:
        fh.write(f"{TRUTH_LAYOUT},n_steps={n_steps},t_max={t_max!r}\n")
        for row in result.design.latent.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def load_truth_csv(path):
    """Read a truth file as (fine-grid times, GammaSet), holding no curve matrix.

    The file must be one write_truth_csv produced: a ``survnet-truth-latent``
    header, then latent scores, mapped to the hazard parameters. Anything
    else raises SchemaError. true_survival(gammas, times) recomputes the
    exact curves bit for bit; metrics.mse_vs_truth does so block by block.
    """
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaError(f"{path}: empty truth file")
        fields = header.split(",")
        if fields[0] != TRUTH_LAYOUT:
            raise SchemaError(f"{path}: unrecognised truth file header {fields[0][:40]!r}")
        times = _latent_layout_times(fields[1:], path)
        latent = _read_truth_rows(fh, N_LATENT, path)
        return times, gammas_from_latent(latent)


def _latent_layout_times(fields, path) -> np.ndarray:
    spec = dict(field.partition("=")[::2] for field in fields)
    if len(spec) != len(fields) or set(spec) != {"n_steps", "t_max"}:
        raise SchemaError(f"{path}: truth header needs exactly n_steps=... and t_max=...")
    try:
        n_steps, t_max = int(spec["n_steps"]), float(spec["t_max"])
    except ValueError:
        raise SchemaError(
            f"{path}: truth header needs an integer n_steps and a numeric t_max"
        ) from None
    if n_steps < 1:
        raise SchemaError(f"{path}: n_steps must be at least 1, got {n_steps}")
    if not (np.isfinite(t_max) and t_max > 0):
        raise SchemaError(f"{path}: t_max must be positive and finite, got {t_max!r}")
    return fine_times(n_steps, t_max)


def _read_truth_rows(fh, width: int, path) -> np.ndarray:
    """The data rows as an (n, width) array; rows are numbered from 1."""
    rows = []
    for rownum, line in enumerate(fh, start=1):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if len(fields) != width:
            raise SchemaError(f"{path}: row {rownum} has {len(fields)} values, expected {width}")
        try:
            values = [float(v) for v in fields]
        except ValueError as exc:
            raise SchemaError(f"{path}: row {rownum}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"{path}: row {rownum} has a non-finite value")
        rows.append(values)
    if not rows:
        raise SchemaError(f"{path}: truth file has no data rows")
    return np.array(rows)
