"""Negative log-likelihoods for the three methods, with gradients.

Every loss consumes the raw network outputs, one value per time interval, and
returns the batch-mean negative log-likelihood together with its gradient with
respect to those outputs. All three are written so they stay finite wherever
the underlying likelihood is positive, even for extreme inputs where direct
transcriptions of the formulas overflow or take log of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import DiscreteLabels

# Below this, log(softplus(z)) is replaced by z; the approximation error there
# is under 1e-7 and shrinking exponentially.
LOG_SOFTPLUS_CUTOFF = -15.0

# An observed event with fraction exactly 0 makes the likelihood degenerate;
# the fraction is nudged to this minimum instead.
MIN_EVENT_FRAC = 1e-7


def sigmoid(x, z=None):
    """Logistic function, safe for arbitrarily large |x|; z is exp(-|x|) if given."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x)) if z is None else z
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def log_softplus(x):
    """log(log(1 + exp(x))), linear in x for very negative x."""
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, LOG_SOFTPLUS_CUTOFF)
    return np.where(x < LOG_SOFTPLUS_CUTOFF, x, np.log(softplus(safe)))


@dataclass(frozen=True)
class LossOutput:
    """Batch-mean loss and its gradient with respect to the network outputs."""

    value: float
    grad: np.ndarray


def _check_batch(logits, labels: DiscreteLabels, name: str):
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2:
        raise ValidationError(f"{name}: logits must be 2-d (batch, intervals)")
    n, m = logits.shape
    if len(labels) != n:
        raise ValidationError(f"{name}: {len(labels)} labels for a batch of {n}")
    if np.any(labels.idx > m):
        raise ValidationError(f"{name}: interval index exceeds the output width {m}")
    return logits, n, m


def nll_logistic_hazard(logits, labels: DiscreteLabels) -> LossOutput:
    """Bernoulli negative log-likelihood of discrete hazards.

    Record i contributes one binary cross-entropy term per interval up to and
    including its label index; the target is 1 only at the index of an
    observed event. Each term is computed from the logit z directly as
    max(z, 0) - z*y + log(1 + exp(-|z|)), which never forms probabilities 0
    or 1.
    """
    logits, n, m = _check_batch(logits, labels, "nll_logistic_hazard")
    idx = labels.idx
    target = np.zeros_like(logits)
    ev = np.nonzero(labels.event == 1)[0]
    target[ev, idx[ev] - 1] = 1.0
    active = np.arange(m)[None, :] < idx[:, None]
    z = np.exp(-np.abs(logits))
    terms = np.maximum(logits, 0.0) - logits * target + np.log1p(z)
    value = float((terms * active).sum() / n)
    grad = (sigmoid(logits, z) - target) * active / n
    return LossOutput(value, grad)


def nll_pmf(logits, labels: DiscreteLabels) -> LossOutput:
    """Negative log-likelihood of the interval-probability parametrization.

    The outputs are softmax logits over the m event intervals plus an implicit
    final class, fixed at logit 0, for surviving past the grid. An observed
    event scores the probability of its interval; a censoring scores the
    summed tail from the next interval through the final class. Exponentials
    are centred on the row maximum (and again on the tail maximum for the
    censoring term) so only non-positive numbers are exponentiated.
    """
    logits, n, m = _check_batch(logits, labels, "nll_pmf")
    idx = labels.idx
    event = labels.event
    padded = np.concatenate([logits, np.zeros((n, 1))], axis=1)
    gamma = padded.max(axis=1, keepdims=True)
    z = np.exp(padded - gamma)
    denom = z.sum(axis=1)
    lse_all = gamma[:, 0] + np.log(denom)

    # Tail classes start right after the label index; the final class is
    # always included, so the tail maximum is finite (at least 0).
    tail_mask = np.arange(m + 1)[None, :] >= idx[:, None]
    masked = np.where(tail_mask, padded, -np.inf)
    tail_max = masked.max(axis=1, keepdims=True)
    zt = np.exp(masked - tail_max)
    tail_sum = zt.sum(axis=1)
    lse_tail = tail_max[:, 0] + np.log(tail_sum)

    rows = np.arange(n)
    event_logit = np.where(event == 1, padded[rows, np.maximum(idx, 1) - 1], 0.0)
    value = float(np.mean(-event * event_logit + lse_all - (1 - event) * lse_tail))

    sigma = z / denom[:, None]
    w_tail = zt / tail_sum[:, None]
    grad_full = sigma - (1 - event)[:, None] * w_tail
    ev = np.nonzero(event == 1)[0]
    grad_full[ev, idx[ev] - 1] -= 1.0
    return LossOutput(value, grad_full[:, :m] / n)


def nll_pc_hazard(logits, labels: DiscreteLabels) -> LossOutput:
    """Negative log-likelihood of the piecewise-constant hazard method.

    Softplus maps each output to the nonnegative hazard mass of its interval.
    A record pays the full mass of every interval before its own and a
    fraction of its own interval's mass; an observed event earns the log of
    its interval's mass, evaluated through the stabilized log-softplus.
    """
    logits, n, m = _check_batch(logits, labels, "nll_pc_hazard")
    idx = labels.idx
    event = labels.event
    frac = labels.frac
    bad = (idx < 1) & ((event == 1) | (frac > 0))
    if np.any(bad):
        raise ValidationError(
            "nll_pc_hazard: records with an event or positive fraction need "
            "interval index >= 1"
        )
    frac = np.where((event == 1) & (frac <= 0.0), MIN_EVENT_FRAC, frac)

    eta = softplus(logits)
    sig = sigmoid(logits)
    before = np.arange(m)[None, :] < (idx - 1)[:, None]
    rows = np.arange(n)
    own_col = np.maximum(idx, 1) - 1
    at = idx >= 1
    z_own = logits[rows, own_col]
    eta_own = np.where(at, eta[rows, own_col], 0.0)
    log_eta_own = log_softplus(z_own)
    value_i = -event * np.where(at, log_eta_own, 0.0) + eta_own * np.where(at, frac, 0.0)
    value_i = value_i + (eta * before).sum(axis=1)
    value = float(value_i.mean())

    grad = sig * before
    s_own = sig[rows, own_col]
    # d log(softplus(z)) / dz = sigmoid(z) / softplus(z) -> 1 as z -> -inf
    dlog = np.where(z_own < -30.0, 1.0, s_own / np.maximum(eta_own, 1e-300))
    own_grad = np.where(at, -event * dlog + frac * s_own, 0.0)
    grad[rows, own_col] += own_grad
    return LossOutput(value, grad / n)


def cumsum_head(scores):
    """Reverse cumulative sum over the interval axis.

    Turns per-interval increments into tail sums, which maps the multi-task
    logistic parametrization onto the interval-probability one.
    """
    scores = np.asarray(scores, dtype=float)
    return np.flip(np.cumsum(np.flip(scores, axis=-1), axis=-1), axis=-1)
