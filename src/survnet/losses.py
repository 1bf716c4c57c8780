"""Negative log-likelihoods for the three methods, with gradients.

Every loss consumes the raw network outputs, one value per time interval, and
returns the batch-mean negative log-likelihood together with its gradient with
respect to those outputs. All three are written so they stay finite wherever
the underlying likelihood is positive, even for extreme inputs where direct
transcriptions of the formulas overflow or take log of zero.

The kernels work in place on a few batch-sized arrays and skip the entries
the likelihood does not read, yet every entry they keep is computed with the
same operations in the same order as a direct transcription, so values and
gradients are reproducible bit for bit. A non-finite logit anywhere in the
batch still yields a non-finite loss, as it would if every entry were
computed. ``grad=False`` asks for the value alone (validation passes, the
untrained-network check) and returns ``grad=None``.
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


def sigmoid(x, z=None, out=None):
    """Logistic function, safe for arbitrarily large |x|; z is exp(-|x|) if given.

    The numerator exp(min(x, 0)) is z for negative x and 1 otherwise, so this
    is z / (1 + z) or 1 / (1 + z) per element without a branch on the sign.
    A given z is overwritten with 1 + z. The result is written into ``out``
    when given, which may be x itself, and into a new array otherwise.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x)) if z is None else z
    num = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(num, out=num)
    z += 1.0
    return np.divide(num, z, out=num)


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
    """Batch-mean loss and its gradient with respect to the network outputs.

    ``grad`` is None when the loss was asked for its value alone.
    """

    value: float
    grad: np.ndarray | None


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


def nll_logistic_hazard(logits, labels: DiscreteLabels, grad: bool = True) -> LossOutput:
    """Bernoulli negative log-likelihood of discrete hazards.

    Record i contributes one binary cross-entropy term per interval up to and
    including its label index; the target is 1 only at the index of an
    observed event. Each term is computed from the logit z directly as
    max(z, 0) - z*y + log(1 + exp(-|z|)), which never forms probabilities 0
    or 1. The target is subtracted only where it is 1.
    """
    logits, n, m = _check_batch(logits, labels, "nll_logistic_hazard")
    idx = labels.idx
    ev = np.nonzero(labels.event == 1)[0]
    ev_col = idx[ev] - 1
    active = np.arange(m)[None, :] < idx[:, None]
    z = np.exp(-np.abs(logits))
    terms = np.maximum(logits, 0.0)
    terms[ev, ev_col] -= logits[ev, ev_col]
    terms += np.log1p(z)
    terms *= active
    value = float(terms.sum() / n)
    # a non-finite logit anywhere, read or not, must stop a fit
    if not np.isfinite(logits).all():
        value = np.nan
    if not grad:
        return LossOutput(value, None)
    g = sigmoid(logits, z)
    g[ev, ev_col] -= 1.0
    g *= active
    g /= n
    return LossOutput(value, g)


def nll_pmf(logits, labels: DiscreteLabels, grad: bool = True) -> LossOutput:
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
    # always included, so the tail maximum is finite (at least 0). Entries
    # outside the tail are exp(-inf) = 0.
    tail_mask = np.arange(m + 1)[None, :] >= idx[:, None]
    zt = np.where(tail_mask, padded, -np.inf)
    tail_max = zt.max(axis=1, keepdims=True)
    zt -= tail_max
    np.exp(zt, out=zt)
    tail_sum = zt.sum(axis=1)
    lse_tail = tail_max[:, 0] + np.log(tail_sum)

    rows = np.arange(n)
    event_logit = np.where(event == 1, padded[rows, np.maximum(idx, 1) - 1], 0.0)
    value = float(np.mean(-event * event_logit + lse_all - (1 - event) * lse_tail))
    if not grad:
        return LossOutput(value, None)

    z /= denom[:, None]
    zt /= tail_sum[:, None]
    zt *= (1 - event)[:, None]
    z -= zt
    ev = np.nonzero(event == 1)[0]
    z[ev, idx[ev] - 1] -= 1.0
    return LossOutput(value, z[:, :m] / n)


def nll_pc_hazard(logits, labels: DiscreteLabels, grad: bool = True) -> LossOutput:
    """Negative log-likelihood of the piecewise-constant hazard method.

    Softplus maps each output to the nonnegative hazard mass of its interval.
    A record pays the full mass of every interval before its own and a
    fraction of its own interval's mass; an observed event earns the log of
    its interval's mass, evaluated through the stabilized log-softplus.
    Softplus is computed only for the intervals before each record's own and
    for its own interval.
    """
    logits, n, m = _check_batch(logits, labels, "nll_pc_hazard")
    idx = labels.idx
    event = labels.event
    frac = labels.frac
    # DiscreteLabels already rejects an observed event at index 0
    if np.any((idx < 1) & (frac > 0)):
        raise ValidationError("nll_pc_hazard: a positive fraction needs interval index >= 1")
    frac = np.where((event == 1) & (frac <= 0.0), MIN_EVENT_FRAC, frac)

    before = np.arange(m)[None, :] < (idx - 1)[:, None]
    eta = np.zeros((n, m))
    np.logaddexp(0.0, logits, out=eta, where=before)
    rows = np.arange(n)
    own_col = np.maximum(idx, 1) - 1
    at = idx >= 1
    z_own = logits[rows, own_col]
    eta_own = np.where(at, softplus(z_own), 0.0)
    log_eta_own = log_softplus(z_own)
    value_i = -event * np.where(at, log_eta_own, 0.0) + eta_own * np.where(at, frac, 0.0)
    value_i = value_i + eta.sum(axis=1)
    value = float(value_i.mean())
    # +inf or nan after a record's own interval is not read above but must
    # stop a fit; -inf there adds a softplus of exactly 0
    if not (logits < np.inf).all():
        value = np.nan
    if not grad:
        return LossOutput(value, None)

    sig = sigmoid(logits)
    s_own = sig[rows, own_col]
    sig *= before
    # d log(softplus(z)) / dz = sigmoid(z) / softplus(z) -> 1 as z -> -inf
    dlog = np.where(z_own < -30.0, 1.0, s_own / np.maximum(eta_own, 1e-300))
    own_grad = np.where(at, -event * dlog + frac * s_own, 0.0)
    sig[rows, own_col] += own_grad
    sig /= n
    return LossOutput(value, sig)


def cumsum_head(scores):
    """Reverse cumulative sum over the interval axis.

    Turns per-interval increments into tail sums, which maps the multi-task
    logistic parametrization onto the interval-probability one.
    """
    scores = np.asarray(scores, dtype=float)
    return np.flip(np.cumsum(np.flip(scores, axis=-1), axis=-1), axis=-1)
