"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and direct: plain loops, exact rational
arithmetic where it matters, and no code shared with the library under test.
The exceptions are ``reference_fit``, which restates only the training loop
and runs the library's own forward and backward passes inside it;
``reference_generate_dataset``, which restates only the hazard and draw loop
of the simulator and takes the covariates and hazard parameters from the
library; and ``reference_td_concordance``, the per-event concordance loop,
which evaluates the library's curves.
"""

from fractions import Fraction

import numpy as np


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


def _reference_hazard(gamma, times):
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


def reference_generate_dataset(cfg, block=4096):
    """The simulator's draw loop in 4,096-row blocks with a fresh array per step.

    Returns (durations, events, covariates, truth) for a ``SimConfig``.
    """
    from survnet import sim

    cov_ss, event_ss, cens_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    cov_rng = np.random.default_rng(cov_ss)
    event_rng = np.random.default_rng(event_ss)
    cens_rng = np.random.default_rng(cens_ss)
    coef = sim.design_coefficients(cfg.design_seed, cfg.subset_size)
    latent = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, sim.N_LATENT))
    u = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, sim.N_LATENT, max(cfg.subset_size - 1, 0)))
    covariates = sim._encode_covariates(latent, coef, u)
    gamma = sim.gammas_from_latent(latent).gamma
    times = sim.fine_times(cfg.n_steps, cfg.t_max)

    durations = np.empty(cfg.n)
    events = np.empty(cfg.n, dtype=int)
    truth = np.empty((cfg.n, cfg.n_steps))
    for lo in range(0, cfg.n, block):
        hi = min(lo + block, cfg.n)
        h = _reference_hazard(gamma[lo:hi], times)
        truth[lo:hi] = np.cumprod(1.0 - h, axis=1)
        event_hits = event_rng.random(h.shape) < h
        has_event = event_hits.any(axis=1)
        t_event = np.where(has_event, times[event_hits.argmax(axis=1)], np.inf)
        cens_hits = cens_rng.random(h.shape) < cfg.censor_hazard
        has_cens = cens_hits.any(axis=1)
        t_cens = np.where(has_cens, times[cens_hits.argmax(axis=1)], np.inf)
        t_cens = np.minimum(t_cens, cfg.t_max)
        durations[lo:hi] = np.minimum(t_event, t_cens)
        events[lo:hi] = (t_event <= t_cens).astype(int)
    return durations, events, covariates, truth
