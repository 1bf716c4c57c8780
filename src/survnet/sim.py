"""Synthetic right-censored survival data from logit-hazard mixtures.

Every dataset comes from one fixed design, held in module constants: event
times are drawn step by step from a per-step hazard on a fine grid of N_STEPS
= 1000 equidistant times on (0, T_MAX = 100]. The logit hazard of each
individual mixes a sinusoidal, a constant and an accelerating component,
driven by nine latent scores. The covariates are a redundant linear encoding
of those scores (DEFAULT_SUBSET = 5 per score, 45 in total) whose
coefficients only the design seed sets. Random censoring draws from a
constant per-step hazard; anyone still event-free at the end of the grid is
censored there. The exact survival curves are returned next to the data; a
truth file stores the latent scores under the fixed TRUTH_HEADER.

One hazard kernel serves both generate_dataset and true_survival: it works
through the individuals in blocks of rows, reusing two preallocated block
buffers, the first holding the logits and then the hazards, and puts every
element through the same operations whatever the block size. The truth
recomputed from the latent scores is therefore the simulator's truth bit for
bit, and the memory beyond the n x N_STEPS truth stays a few block-sized
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset, _open, _read_rows, _write_text
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
# N_STEPS floats, 1 MB.
_BLOCK_ROWS = 128

# The header line of every truth file: the layout and the fine grid.
TRUTH_HEADER = f"survnet-truth-latent,n_steps={N_STEPS},t_max={T_MAX!r}"


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int = 0
    censor_hazard: float = DEFAULT_CENSOR_HAZARD
    design_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.seed < 0 or self.design_seed < 0:
            raise ValidationError("seed and design_seed must be nonnegative")
        if not 0.0 <= self.censor_hazard < 1.0:
            raise ValidationError("censor_hazard must lie in [0, 1)")
        # The truth is n rows of N_STEPS float64; numpy cannot address an
        # array of more bytes than its index type holds.
        if int(self.n) * N_STEPS * 8 > np.iinfo(np.intp).max:
            raise ValidationError(
                f"n = {self.n} is too large for arrays of n x {N_STEPS} floats"
            )


def fine_times(n_steps: int = N_STEPS, t_max: float = T_MAX) -> np.ndarray:
    """The fine grid t_max/n_steps, 2*t_max/n_steps, ..., t_max."""
    return np.linspace(t_max / n_steps, t_max, n_steps)


class GammaSet:
    """Hazard-shape parameters, one row of nine per individual.

    Checked when built; keeps read-only copies of its arrays; compares and hashes by identity.
    """

    def __init__(self, gamma):
        gamma = np.atleast_2d(np.array(gamma, dtype=float))
        if gamma.shape[1] != N_LATENT:
            raise ValidationError(f"gamma needs {N_LATENT} columns")
        gamma.setflags(write=False)
        self.gamma = gamma

    @property
    def alpha(self) -> np.ndarray:
        """Softmax mixture weights from the last three parameters."""
        g = self.gamma[:, 6:9]
        e = np.exp(g - g.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class SimResult:
    data: SurvivalDataset
    truth: np.ndarray
    times: np.ndarray
    latent: np.ndarray
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


def design_coefficients(design_seed: int) -> np.ndarray:
    """Standard-normal encoding coefficients, fixed by the design seed.

    Datasets generated with different draw seeds but the same design seed share
    this map, so train and test sets describe the same covariate relationship.
    """
    rng = np.random.default_rng(np.random.SeedSequence(design_seed))
    return rng.standard_normal((N_LATENT, DEFAULT_SUBSET))


def _encode_covariates(latent, coef, u):
    """Spread each latent score over its covariate subset.

    The running partial sums of covariate * coefficient are forced to be the
    uniform draws u, so every subset satisfies covariates @ coef == score
    exactly up to rounding. With the partial sums P = (score, u, 0), covariate
    k is (P[k - 1] - P[k]) / coef[k], for every k alike.
    """
    n, q = latent.shape
    sums = np.concatenate([latent[:, :, None], u, np.zeros((n, q, 1))], axis=2)
    return ((sums[:, :, :-1] - sums[:, :, 1:]) / coef).reshape(n, -1)


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

    coef = design_coefficients(cfg.design_seed)
    latent = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, N_LATENT))
    u = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, N_LATENT, DEFAULT_SUBSET - 1))
    covariates = _encode_covariates(latent, coef, u)
    gammas = gammas_from_latent(latent)
    times = fine_times()

    durations = np.empty(cfg.n)
    events = np.empty(cfg.n, dtype=int)
    truth = np.empty((cfg.n, N_STEPS))
    # Each stream draws a block's uniforms in row-major order, so the draws
    # are the same whatever the block size.
    for lo, hi, h in _survival_blocks(gammas, times, truth):
        t_event = _first_hit_time(event_rng.random(h.shape) < h, times)
        t_cens = _first_hit_time(cens_rng.random(h.shape) < cfg.censor_hazard, times)
        t_cens = np.minimum(t_cens, T_MAX)
        durations[lo:hi] = np.minimum(t_event, t_cens)
        events[lo:hi] = t_event <= t_cens

    data = SurvivalDataset(durations, events, covariates)
    return SimResult(data, truth, times, latent, gammas)


def _first_hit_time(hits, times) -> np.ndarray:
    """Per row, the time of the first True step, or inf if there is none."""
    return np.where(hits.any(axis=1), times[hits.argmax(axis=1)], np.inf)


def write_truth_csv(path, result: SimResult) -> None:
    """Store the truth as TRUTH_HEADER, then nine latent scores per row.

    Every row holds one individual's latent scores in shortest round-trip
    repr, from which load_truth_csv recomputes the exact survival curves bit
    for bit.
    """
    if not np.array_equal(result.times, fine_times()):
        raise ValidationError("truth times must be the fine grid t_max/n_steps, ..., t_max")
    _write_text(path, TRUTH_HEADER + "\n", result.latent.tolist(), "\n")


def load_truth_csv(path):
    """Read a truth file as (fine-grid times, GammaSet), holding no curve matrix.

    The file must be one write_truth_csv produced: TRUTH_HEADER, then latent
    scores, mapped to the hazard parameters. Anything else raises
    SchemaError. true_survival(gammas, times) recomputes the exact curves bit
    for bit.
    """
    with _open(path) as fh:
        header = fh.readline()
        if not header:
            raise SchemaError("empty truth file")
        header = header.rstrip("\r\n")
        if header != TRUTH_HEADER:
            raise SchemaError(f"unrecognised truth file header {header[:40]!r}")
        latent = _read_rows(fh, N_LATENT)
        finite = np.isfinite(latent).all(axis=1)
        if not finite.all():
            raise SchemaError(f"row {np.argmin(finite) + 1} has a non-finite value")
    return fine_times(), gammas_from_latent(latent)
