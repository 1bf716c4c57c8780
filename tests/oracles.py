"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and direct: plain loops, exact rational
arithmetic where it matters, and no code shared with the library under test.
The exceptions are ``reference_fit``, which restates only the training loop
and runs the library's own forward and backward passes inside it;
``reference_generate_dataset``, which restates only the hazard and draw loop
of the simulator and takes the covariates and hazard parameters from the
library; ``reference_td_concordance``, the per-event concordance loop,
which evaluates the library's curves; ``reference_evaluate``, the curve
reading that rebuilds its table and allocates every temporary on each call,
which uses the library's interval lookup; and ``calibrate_censor_hazard``,
the bisection that fixed the simulator's default censoring hazard by running
the simulator; ``gradient_check``, the central-difference check of the
network's forward and backward passes; and ``logit_hazard``, which evaluates
the simulator's logit-hazard kernel at given times.

The ``verbatim_*`` functions are the library's allocating kernels copied
unchanged apart from their names: ``verbatim_sigmoid``,
``verbatim_nll_logistic_hazard``, ``verbatim_nll_pmf``,
``verbatim_nll_pc_hazard``, ``verbatim_forward_cached`` and
``verbatim_backward``, as they stood before the lean loss kernels and the
in-place rectifier. The lean losses, and the network passes that rectify in
place and mask deltas on activations, are held to them bit for bit.
"""

from collections import namedtuple
from fractions import Fraction

import numpy as np

from survnet.errors import ValidationError


def km_product_limit(durations, events):
    """O(n^2) product-limit estimate in exact rational arithmetic.

    Returns (drop_times, survival_after_each_drop) as lists; survival values
    are Fractions.
    """
    durations = list(map(float, durations))
    events = list(map(int, events))
    drop_times = sorted({t for t, e in zip(durations, events) if e == 1})
    surv = []
    s = Fraction(1)
    for t in drop_times:
        at_risk = sum(1 for d in durations if d >= t)
        deaths = sum(1 for d, e in zip(durations, events) if d == t and e == 1)
        s *= Fraction(at_risk - deaths, at_risk)
        surv.append(s)
    return drop_times, surv


def km_survival_at(durations, events, t):
    """Step evaluation of the rational product-limit estimate."""
    drop_times, surv = km_product_limit(durations, events)
    value = Fraction(1)
    for dt, s in zip(drop_times, surv):
        if dt <= t:
            value = s
        else:
            break
    return value


def km_quantile_search(durations, events, m):
    """Quantile grid by linear search over the rational estimate.

    Levels step down evenly from 1 to the estimate at the largest duration;
    each interior cut is the smallest drop time at or below its level, the
    last cut is the largest duration, duplicates collapse.
    """
    drop_times, surv = km_product_limit(durations, events)
    t_max = max(durations)
    s_end = km_survival_at(durations, events, t_max)
    cuts = [0.0]
    for j in range(1, m):
        level = 1 - Fraction(j, m) * (1 - s_end)
        chosen = drop_times[-1]
        for dt, s in zip(drop_times, surv):
            if s <= level:
                chosen = dt
                break
        cuts.append(float(chosen))
    cuts.append(float(t_max))
    out = sorted(set(cuts))
    return out


def concordance_pairs(surv_at, durations, events):
    """Exhaustive pair enumeration of the time-dependent concordance.

    surv_at(i, t) must return the predicted survival of individual i at t.
    """
    n = len(durations)
    concordant = 0.0
    comparable = 0
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if j == i:
                continue
            is_pair = durations[j] > durations[i] or (
                durations[j] == durations[i] and events[j] == 0
            )
            if not is_pair:
                continue
            comparable += 1
            si = surv_at(i, durations[i])
            sj = surv_at(j, durations[i])
            if sj > si:
                concordant += 1.0
            elif sj == si:
                concordant += 0.5
    if comparable == 0:
        raise ZeroDivisionError("no comparable pairs")
    return concordant / comparable


def reference_td_concordance(curves, durations, events):
    """Time-dependent concordance with one Python pass per event, as it was.

    Curves are evaluated on all individuals in chunks of 256 event times; each
    event then compares its own value against its comparable column.
    """
    from survnet.errors import MetricUndefinedError, ValidationError

    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValidationError("durations and events must be 1-d arrays of equal length")
    if curves.n != durations.shape[0]:
        raise ValidationError("need one curve per individual")
    event_times = np.unique(durations[events == 1])
    if event_times.size == 0:
        raise MetricUndefinedError("no comparable pairs: no observed events")
    concordant = 0.0
    comparable = 0
    for c0 in range(0, event_times.size, 256):
        chunk = event_times[c0 : c0 + 256]
        surv = curves.evaluate(chunk)
        for q, t in enumerate(chunk):
            col = surv[:, q]
            others = (durations > t) | ((durations == t) & (events == 0))
            n_others = int(others.sum())
            if n_others == 0:
                continue
            col_others = col[others]
            for i in np.nonzero((durations == t) & (events == 1))[0]:
                comparable += n_others
                concordant += float((col_others > col[i]).sum())
                concordant += 0.5 * float((col_others == col[i]).sum())
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs")
    return concordant / comparable


def reference_evaluate(curve, times):
    """SurvivalCurve.evaluate as it was before the cached, in-place kernel.

    Survival at the given time(s): shape (n,) for a scalar, (n, T) else. A
    pc-hazard curve reads as chi of its own cumulative hazard, without chi's
    survival floor.
    """
    from survnet.curves import SURVIVAL_FLOOR
    from survnet.errors import ValidationError
    from survnet.grid import locate_times

    self = curve
    scalar = np.ndim(times) == 0
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if not (ts >= 0).all():  # also rejects NaN
        raise ValidationError("evaluation times must be nonnegative numbers")
    full = np.concatenate([np.ones((self.n, 1)), self.values], axis=1)
    if self.kind == "step":
        j = np.searchsorted(self.grid.cuts, ts, side="right") - 1
        out = full[:, np.clip(j, 0, self.grid.m)]
    elif self.kind == "cdi":
        k, rho = locate_times(ts, self.grid)
        out = full[:, k - 1] * (1.0 - rho) + full[:, k] * rho
    else:
        k, rho = locate_times(ts, self.grid)
        if self.kind == "chi":
            hazard_cum = -np.log(np.maximum(full, SURVIVAL_FLOOR))
        else:  # pc-hazard, +inf held at the largest float so that rho = 0 on it gives 0
            hazard_cum = np.minimum(np.concatenate(
                [np.zeros((self.n, 1)), np.cumsum(self.eta, axis=1)], axis=1
            ), np.finfo(float).max)
        out = np.exp(-(hazard_cum[:, k - 1] * (1.0 - rho) + hazard_cum[:, k] * rho))
    return out[:, 0] if scalar else out


def brier_direct(surv_at, durations, events, times, g_before, g_at):
    """Direct double-loop censoring-weighted Brier score.

    g_before maps an individual's own duration to the censoring estimate just
    before it; g_at maps an evaluation time to the estimate at it.
    """
    n = len(durations)
    scores = []
    for t in times:
        total = 0.0
        for i in range(n):
            s = surv_at(i, t)
            if durations[i] <= t and events[i] == 1:
                w = g_before[i]
                if w > 0:
                    total += s**2 / w
            elif durations[i] > t:
                w = g_at[t]
                if w > 0:
                    total += (1 - s) ** 2 / w
        scores.append(total / n)
    return scores


def trapezoid(ys, xs):
    total = 0.0
    for k in range(1, len(xs)):
        total += 0.5 * (ys[k] + ys[k - 1]) * (xs[k] - xs[k - 1])
    return total / (xs[-1] - xs[0])


def mse_two_loops(est, truth):
    """Nested-loop mean squared error over individuals and times."""
    n, t = len(est), len(est[0])
    total = 0.0
    for i in range(n):
        for q in range(t):
            total += (est[i][q] - truth[i][q]) ** 2
    return total / (n * t)


def mtlr_nll(psi, idx, event):
    """Mean negative log-likelihood of the multi-task logistic model.

    Probabilities come straight from the sequence-of-labels formula: the
    numerator for an event in interval j sums the scores from j onward, the
    denominator sums over all sequences plus the all-zero one. Censorings
    score the survival tail past their interval.
    """
    psi = np.asarray(psi, dtype=float)
    n, m = psi.shape
    total = 0.0
    for i in range(n):
        denom = 1.0 + sum(np.exp(psi[i, k:].sum()) for k in range(m))
        f = [np.exp(psi[i, j:].sum()) / denom for j in range(m)]
        s_last = 1.0 / denom
        k = idx[i]
        if event[i] == 1:
            total -= np.log(f[k - 1])
        else:
            total -= np.log(sum(f[k:]) + s_last)
    return total / n


def pmf_nll_naive(logits, idx, event):
    """Direct softmax transcription of the interval-probability loss."""
    logits = np.asarray(logits, dtype=float)
    n, m = logits.shape
    total = 0.0
    for i in range(n):
        exps = np.exp(logits[i])
        denom = 1.0 + exps.sum()
        probs = exps / denom
        s_last = 1.0 / denom
        if event[i] == 1:
            total -= np.log(probs[idx[i] - 1])
        else:
            total -= np.log(probs[idx[i]:].sum() + s_last)
    return total / n


def logistic_hazard_nll_naive(logits, idx, event):
    """Direct probability-space transcription of the hazard loss."""
    logits = np.asarray(logits, dtype=float)
    n, m = logits.shape
    total = 0.0
    for i in range(n):
        h = 1.0 / (1.0 + np.exp(-logits[i]))
        for j in range(1, idx[i] + 1):
            y = 1.0 if (event[i] == 1 and j == idx[i]) else 0.0
            total -= y * np.log(h[j - 1]) + (1 - y) * np.log(1 - h[j - 1])
    return total / n


def pc_hazard_nll_naive(logits, idx, event, frac):
    """Direct transcription of the piecewise-constant hazard loss."""
    logits = np.asarray(logits, dtype=float)
    n, m = logits.shape
    total = 0.0
    for i in range(n):
        eta = np.log(1.0 + np.exp(logits[i]))
        k = idx[i]
        if k == 0:
            continue
        term = event[i] * np.log(eta[k - 1]) - eta[k - 1] * frac[i] - eta[: k - 1].sum()
        total -= term
    return total / n


# -- Verbatim copies of the allocating kernels that the library's replace.
# They are the kernels as they stood before the lean losses and the in-place
# rectifier, unchanged apart from their names, so the bit-exactness tests
# compare the lean losses and the network passes against the formulas
# themselves rather than a restatement of the new code.

_VERBATIM_LOG_SOFTPLUS_CUTOFF = -15.0
_VERBATIM_MIN_EVENT_FRAC = 1e-7
VerbatimLossOutput = namedtuple("VerbatimLossOutput", "value grad")


def verbatim_sigmoid(x, z=None):
    """Logistic function, safe for arbitrarily large |x|; z is exp(-|x|) if given."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x)) if z is None else z
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _verbatim_softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def _verbatim_log_softplus(x):
    """log(log(1 + exp(x))), linear in x for very negative x."""
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, _VERBATIM_LOG_SOFTPLUS_CUTOFF)
    return np.where(x < _VERBATIM_LOG_SOFTPLUS_CUTOFF, x, np.log(_verbatim_softplus(safe)))


def _verbatim_check_batch(logits, labels, name: str):
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2:
        raise ValidationError(f"{name}: logits must be 2-d (batch, intervals)")
    n, m = logits.shape
    if len(labels) != n:
        raise ValidationError(f"{name}: {len(labels)} labels for a batch of {n}")
    if np.any(labels.idx > m):
        raise ValidationError(f"{name}: interval index exceeds the output width {m}")
    return logits, n, m


def verbatim_nll_logistic_hazard(logits, labels) -> VerbatimLossOutput:
    """Bernoulli negative log-likelihood of discrete hazards.

    Record i contributes one binary cross-entropy term per interval up to and
    including its label index; the target is 1 only at the index of an
    observed event. Each term is computed from the logit z directly as
    max(z, 0) - z*y + log(1 + exp(-|z|)), which never forms probabilities 0
    or 1.
    """
    logits, n, m = _verbatim_check_batch(logits, labels, "nll_logistic_hazard")
    idx = labels.idx
    target = np.zeros_like(logits)
    ev = np.nonzero(labels.event == 1)[0]
    target[ev, idx[ev] - 1] = 1.0
    active = np.arange(m)[None, :] < idx[:, None]
    z = np.exp(-np.abs(logits))
    terms = np.maximum(logits, 0.0) - logits * target + np.log1p(z)
    value = float((terms * active).sum() / n)
    grad = (verbatim_sigmoid(logits, z) - target) * active / n
    return VerbatimLossOutput(value, grad)


def verbatim_nll_pmf(logits, labels) -> VerbatimLossOutput:
    """Negative log-likelihood of the interval-probability parametrization.

    The outputs are softmax logits over the m event intervals plus an implicit
    final class, fixed at logit 0, for surviving past the grid. An observed
    event scores the probability of its interval; a censoring scores the
    summed tail from the next interval through the final class. Exponentials
    are centred on the row maximum (and again on the tail maximum for the
    censoring term) so only non-positive numbers are exponentiated.
    """
    logits, n, m = _verbatim_check_batch(logits, labels, "nll_pmf")
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
    return VerbatimLossOutput(value, grad_full[:, :m] / n)


def verbatim_nll_pc_hazard(logits, labels) -> VerbatimLossOutput:
    """Negative log-likelihood of the piecewise-constant hazard method.

    Softplus maps each output to the nonnegative hazard mass of its interval.
    A record pays the full mass of every interval before its own and a
    fraction of its own interval's mass; an observed event earns the log of
    its interval's mass, evaluated through the stabilized log-softplus.
    """
    logits, n, m = _verbatim_check_batch(logits, labels, "nll_pc_hazard")
    idx = labels.idx
    event = labels.event
    frac = labels.frac
    bad = (idx < 1) & ((event == 1) | (frac > 0))
    if np.any(bad):
        raise ValidationError(
            "nll_pc_hazard: records with an event or positive fraction need "
            "interval index >= 1"
        )
    frac = np.where((event == 1) & (frac <= 0.0), _VERBATIM_MIN_EVENT_FRAC, frac)

    eta = _verbatim_softplus(logits)
    sig = verbatim_sigmoid(logits)
    before = np.arange(m)[None, :] < (idx - 1)[:, None]
    rows = np.arange(n)
    own_col = np.maximum(idx, 1) - 1
    at = idx >= 1
    z_own = logits[rows, own_col]
    eta_own = np.where(at, eta[rows, own_col], 0.0)
    log_eta_own = _verbatim_log_softplus(z_own)
    value_i = -event * np.where(at, log_eta_own, 0.0) + eta_own * np.where(at, frac, 0.0)
    value_i = value_i + (eta * before).sum(axis=1)
    value = float(value_i.mean())

    grad = sig * before
    s_own = sig[rows, own_col]
    # d log(softplus(z)) / dz = sigmoid(z) / softplus(z) -> 1 as z -> -inf
    dlog = np.where(z_own < -30.0, 1.0, s_own / np.maximum(eta_own, 1e-300))
    own_grad = np.where(at, -event * dlog + frac * s_own, 0.0)
    grad[rows, own_col] += own_grad
    return VerbatimLossOutput(value, grad / n)


def verbatim_forward_cached(net, x, training: bool, rng):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.widths[0]:
        raise ValidationError(
            f"input has {x.shape[1]} columns, network expects {net.widths[0]}"
        )
    use_dropout = training and net.dropout > 0.0
    if use_dropout and rng is None:
        raise ValidationError("training-mode forward with dropout needs an rng")
    n_layers = len(net.weights)
    acts = [x]
    zs = []
    masks = [None]
    a = x
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        zs.append(z)
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0)
            mask = None
            if use_dropout:
                keep = 1.0 - net.dropout
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
            acts.append(a)
            masks.append(mask)
        else:
            a = z
    return a, (acts, zs, masks)


def verbatim_backward(net, cache, grad_out):
    """Parameter gradients given the gradient at the outputs."""
    acts, zs, masks = cache
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = np.asarray(grad_out, dtype=float)
    for layer in range(n_layers - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            da = delta @ net.weights[layer].T
            if masks[layer] is not None:
                da = da * masks[layer]
            delta = da * (zs[layer - 1] > 0)
    return grads_w, grads_b


def reference_fit(net, loss_fn, train_x, train_labels, val_x, val_labels, cfg):
    """Minibatch Adam with one update per parameter array, as ``net.fit`` was.

    Every weight and bias is its own array with its own pair of moments, the
    network is rebuilt from the arrays for each pass, and batch labels go
    through the validating constructor. Returns (best network, per-epoch log)
    exactly like ``net.fit``.
    """
    from survnet import net as net_mod
    from survnet.grid import DiscreteLabels

    beta1, beta2, eps = net_mod.ADAM_BETA1, net_mod.ADAM_BETA2, net_mod.ADAM_EPS
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    val_x = np.atleast_2d(np.asarray(val_x, dtype=float))
    rng = np.random.default_rng(cfg.seed)
    params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    n_w = len(net.weights)
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    step = 0
    best_val = np.inf
    best_params = [p.copy() for p in params]
    bad_epochs = 0
    log = []
    n = train_x.shape[0]
    n_batches = max(1, int(np.ceil(n / cfg.batch_size)))

    def as_net():
        return net_mod.Mlp(tuple(params[:n_w]), tuple(params[n_w:]), net.dropout)

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for b in range(n_batches):
            sel = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            out, cache = net_mod._forward_cached(as_net(), train_x[sel], training=True, rng=rng)
            batch_labels = DiscreteLabels(
                train_labels.idx[sel], train_labels.event[sel], train_labels.frac[sel]
            )
            result = loss_fn(out, batch_labels)
            grads_w, grads_b = net_mod.backward(as_net(), cache, result.grad)
            grads = grads_w + grads_b
            lr = net_mod.learning_rate_at(cfg, epoch + b / n_batches)
            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            for p, g, m1, m2 in zip(params, grads, moment1, moment2):
                m1 += (1.0 - beta1) * (g - m1)
                m2 += (1.0 - beta2) * (g * g - m2)
                p -= lr * (m1 / c1) / (np.sqrt(m2 / c2) + eps)
                if cfg.weight_decay > 0:
                    p -= lr * cfg.weight_decay * p
            batch_losses.append(result.value)
        val_loss = loss_fn(net_mod.forward(as_net(), val_x), val_labels).value
        log.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "val_loss": float(val_loss),
                "lr": net_mod.learning_rate_at(cfg, float(epoch)),
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in params]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    trained = net_mod.Mlp(tuple(best_params[:n_w]), tuple(best_params[n_w:]), net.dropout)
    return trained, log


def gradient_check(net, loss_fn, x, labels, eps: float = 1e-5) -> float:
    """Largest relative disagreement between backprop and central differences.

    Runs the network in evaluation mode (no dropout), perturbs every parameter
    coordinate by +-eps and compares (f+ - f-) / (2 eps) against the
    reverse-mode gradient. The relative error uses the larger of the two
    magnitudes, floored at 1e-6.
    """
    from survnet import net as net_mod

    x = np.atleast_2d(np.asarray(x, dtype=float))
    out, cache = net_mod._forward_cached(net, x, training=False, rng=None)
    grads_w, grads_b = net_mod.backward(net, cache, loss_fn(out, labels).grad)
    work_w = [w.copy() for w in net.weights]
    work_b = [b.copy() for b in net.biases]

    def value():
        model = net_mod.Mlp(tuple(work_w), tuple(work_b), net.dropout)
        return loss_fn(net_mod.forward(model, x), labels).value

    worst = 0.0
    for arrays, grads in ((work_w, grads_w), (work_b, grads_b)):
        for arr, grad in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + eps
                f_plus = value()
                arr[i] = orig - eps
                f_minus = value()
                arr[i] = orig
                fd = (f_plus - f_minus) / (2.0 * eps)
                denom = max(abs(fd), abs(grad[i]), 1e-6)
                worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


def logit_hazard(gammas, t):
    """Mixture logit hazard at time(s) t, one row per individual.

    The three components are a sine wave, a constant and a ramp that falls
    from -10 at time zero; the softmax weights blend them. Evaluated by the
    simulator's own kernel, ``sim._logit_hazard_into``.
    """
    from survnet import sim

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((gammas.gamma.shape[0], t_arr.shape[0]))
    sim._logit_hazard_into(gammas.gamma, gammas.alpha, t_arr, out, np.empty_like(out))
    return out[:, 0] if np.ndim(t) == 0 else out


def reference_hazard(gamma, times):
    """Per-step event probability, one array per operation as the simulator had it."""
    g = gamma
    e = np.exp(g[:, 6:9] - g[:, 6:9].max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    t_arr = times[None, :]
    g_sin = g[:, [0]] * np.sin(g[:, [1]] * (t_arr + g[:, [2]])) + g[:, [3]]
    g_con = g[:, [4]]
    g_acc = g[:, [5]] * t_arr - 10.0
    logit = a[:, [0]] * g_sin + a[:, [1]] * g_con + a[:, [2]] * g_acc
    z = np.exp(-np.abs(logit))
    return np.where(logit >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def reference_encode_covariates(latent, coef, u):
    """The covariate encoding column by column: first, middle and last apart."""
    n, q = latent.shape
    s = coef.shape[1]
    x = np.empty((n, q, s))
    x[:, :, 0] = (latent - u[:, :, 0]) / coef[None, :, 0]
    for k in range(1, s - 1):
        x[:, :, k] = (u[:, :, k - 1] - u[:, :, k]) / coef[None, :, k]
    x[:, :, s - 1] = u[:, :, s - 2] / coef[None, :, s - 1]
    return x.reshape(n, q * s)


def reference_generate_dataset(cfg, block=4096):
    """The simulator's draw loop in 4,096-row blocks with a fresh array per step.

    Returns (durations, events, covariates, truth) for a ``SimConfig``.
    """
    from survnet import sim

    cov_ss, event_ss, cens_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    cov_rng = np.random.default_rng(cov_ss)
    event_rng = np.random.default_rng(event_ss)
    cens_rng = np.random.default_rng(cens_ss)
    coef = sim.design_coefficients(cfg.design_seed)
    latent = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, sim.N_LATENT))
    u = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, sim.N_LATENT, sim.DEFAULT_SUBSET - 1))
    covariates = reference_encode_covariates(latent, coef, u)
    gamma = sim.gammas_from_latent(latent).gamma
    times = sim.fine_times()

    durations = np.empty(cfg.n)
    events = np.empty(cfg.n, dtype=int)
    truth = np.empty((cfg.n, sim.N_STEPS))
    for lo in range(0, cfg.n, block):
        hi = min(lo + block, cfg.n)
        h = reference_hazard(gamma[lo:hi], times)
        truth[lo:hi] = np.cumprod(1.0 - h, axis=1)
        event_hits = event_rng.random(h.shape) < h
        has_event = event_hits.any(axis=1)
        t_event = np.where(has_event, times[event_hits.argmax(axis=1)], np.inf)
        cens_hits = cens_rng.random(h.shape) < cfg.censor_hazard
        has_cens = cens_hits.any(axis=1)
        t_cens = np.where(has_cens, times[cens_hits.argmax(axis=1)], np.inf)
        t_cens = np.minimum(t_cens, sim.T_MAX)
        durations[lo:hi] = np.minimum(t_event, t_cens)
        events[lo:hi] = (t_event <= t_cens).astype(int)
    return durations, events, covariates, truth


def calibrate_censor_hazard(
    target: float = 0.37, n: int = 100_000, seed: int = 12345, tol: float = 1e-3
) -> float:
    """Bisection for the per-step censoring hazard hitting a censored fraction.

    Used once to fix ``sim.DEFAULT_CENSOR_HAZARD``; kept for reproducibility.
    """
    from survnet import sim

    def fraction(c: float) -> float:
        cfg = sim.SimConfig(n=n, seed=seed, censor_hazard=c)
        return sim.generate_dataset(cfg).censored_fraction

    lo, hi = 0.0, 0.01
    if fraction(lo) > target:
        return lo
    while fraction(hi) < target:
        hi *= 2
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        frac = fraction(mid)
        if abs(frac - target) < tol:
            return mid
        if frac < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
