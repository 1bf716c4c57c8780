"""A small fully connected network with hand-written reverse-mode gradients.

Hidden layers are rectified and optionally dropped out (inverted dropout);
the output layer is linear, one unit per time interval. Training uses
minibatch Adam with decoupled weight decay under one fixed warm-restart
schedule (AdamWR): the learning rate is cosine-annealed within each cycle,
the first cycle lasts one epoch, each cycle is CYCLE_MULT times as long as
the one before and the peak rate is multiplied by LR_DECAY at every restart.

During training all weights, then all biases, live in one flat float64
buffer; the network is built once over row-major views of it and the Adam
moments are flat arrays of the same length, so one step is three vectorized
lines doing per element what a per-array update would.

Each pass allocates its results. The forward pass adds the biases to its
matmul products in place and rectifies them in place, so a hidden layer holds
one array, and keeps each layer's input and dropout mask for the backward
pass, which masks its deltas where those inputs are positive. Validation
losses are asked for their value alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CYCLE_MULT = 2
LR_DECAY = 0.8


@dataclass(frozen=True)
class Mlp:
    """Network parameters. Treated as immutable; training returns a new Mlp."""

    weights: tuple
    biases: tuple
    dropout: float = 0.0

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValidationError("weights and biases must pair up, one per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValidationError(f"layer {i}: inconsistent parameter shapes")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ValidationError(f"layer {i}: input width does not chain")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout rate must be in [0, 1)")

    @property
    def widths(self) -> tuple:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


def init_mlp(widths, dropout: float = 0.0, seed: int = 0) -> Mlp:
    """Uniform init within +-sqrt(6 / (fan_in + fan_out)), biases zero."""
    widths = [int(w) for w in widths]
    if len(widths) < 2 or min(widths) < 1:
        raise ValidationError("widths must list at least input and output sizes")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        ws.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return Mlp(tuple(ws), tuple(bs), dropout)


def _param_views(buffer, widths):
    """Row-major weight views, then bias views, over one flat buffer."""
    shapes = [*zip(widths[:-1], widths[1:]), *((w,) for w in widths[1:])]
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    n_layers = len(widths) - 1
    return tuple(views[:n_layers]), tuple(views[n_layers:])


def _forward_cached(net: Mlp, x, training: bool, rng):
    """Outputs and backward's cache (each layer's input, dropout masks) of one pass."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.widths[0]:
        raise ValidationError(
            f"input has {x.shape[1]} columns, network expects {net.widths[0]}"
        )
    use_dropout = training and net.dropout > 0.0
    n_layers = len(net.weights)
    acts, masks = [x], []
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w
        z += b
        if layer < n_layers - 1:
            np.maximum(z, 0.0, out=z)
            if use_dropout:
                keep = 1.0 - net.dropout
                masks.append((rng.random(z.shape) < keep) / keep)
                z *= masks[-1]
            acts.append(z)
    return z, (acts, masks)


def forward(net: Mlp, x):
    """Network outputs for a batch; dropout is never applied."""
    out, _ = _forward_cached(net, x, False, None)
    return out


def backward(net: Mlp, cache, grad_out):
    """Parameter gradients given the gradient at the outputs.

    A unit's delta is kept where its rectified, dropped-out activation is
    positive: exactly where its pre-activation is, since a dropped unit's
    delta is already zero and NaN compares false either way.
    """
    acts, masks = cache
    n_layers = len(net.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    delta = np.asarray(grad_out, dtype=float)
    for layer in range(n_layers - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ net.weights[layer].T
            if masks:
                delta *= masks[layer - 1]
            delta *= acts[layer] > 0
    return grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.01
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        for name in ("batch_size", "learning_rate", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not (np.isfinite(self.learning_rate) and np.isfinite(self.weight_decay)):
            raise ValidationError("learning_rate and weight_decay must be finite")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


def learning_rate_at(cfg: TrainConfig, position: float) -> float:
    """Warm-restart schedule evaluated at a fractional epoch position.

    Cycle k has length CYCLE_MULT**k epochs and starts at peak
    learning_rate * LR_DECAY**k, annealed to zero by a half cosine over the
    cycle. At every cycle start the rate is exactly the decayed peak.
    """
    start, length, restarts = 0.0, 1.0, 0
    while position >= start + length:
        start += length
        length *= CYCLE_MULT
        restarts += 1
    frac = (position - start) / length
    peak = cfg.learning_rate * LR_DECAY**restarts
    return float(peak * 0.5 * (1.0 + np.cos(np.pi * frac)))


def fit(net: Mlp, loss_fn, train_x, train_labels, val_x, val_labels, cfg: TrainConfig):
    """Train and return (best network, per-epoch log).

    The parameters with the lowest validation loss seen are returned. Training
    stops early once the validation loss has not improved for more than
    ``patience`` epochs. Shuffling and dropout draw from one generator seeded
    by the config, so a config fully determines the result. The input network
    is left untouched and the returned one owns its own buffer. ``loss_fn``
    must accept ``grad=False``, which the validation pass uses.
    """
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    val_x = np.atleast_2d(np.asarray(val_x, dtype=float))
    if len(train_labels) != train_x.shape[0] or len(val_labels) != val_x.shape[0]:
        raise ValidationError("label counts must match the covariate rows")
    rng = np.random.default_rng(cfg.seed)
    widths = net.widths
    theta = np.concatenate((*net.weights, *net.biases), axis=None, dtype=float)

    def over(buffer) -> Mlp:
        return Mlp(*_param_views(buffer, widths), net.dropout)

    model = over(theta)
    n = train_x.shape[0]
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    step = 0
    best_val = np.inf
    best_theta = theta.copy()
    bad_epochs = 0
    log = []
    n_batches = max(1, int(np.ceil(n / cfg.batch_size)))

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for b in range(n_batches):
            sel = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            xb = train_x[sel]
            out, cache = _forward_cached(model, xb, training=True, rng=rng)
            result = loss_fn(out, train_labels.take(sel))
            if not np.isfinite(result.value):
                raise NumericalError(
                    f"non-finite training loss in epoch {epoch}, batch {b}"
                )
            grads_w, grads_b = backward(model, cache, result.grad)
            grad = np.concatenate((*grads_w, *grads_b), axis=None)
            lr = learning_rate_at(cfg, epoch + b / n_batches)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            moment1 += (1.0 - ADAM_BETA1) * (grad - moment1)
            moment2 += (1.0 - ADAM_BETA2) * (grad * grad - moment2)
            theta -= lr * (moment1 / c1) / (np.sqrt(moment2 / c2) + ADAM_EPS)
            if cfg.weight_decay > 0:
                theta -= lr * cfg.weight_decay * theta
            batch_losses.append(result.value)
        val_loss = loss_fn(forward(model, val_x), val_labels, grad=False).value
        if not np.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss in epoch {epoch}")
        log.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "val_loss": float(val_loss),
                "lr": learning_rate_at(cfg, float(epoch)),
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_theta, theta)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    return over(best_theta), log


def net_to_dict(net: Mlp) -> dict:
    """JSON-ready parameter dump: widths, dropout, row-major weights, biases."""
    return {
        "widths": [int(w) for w in net.widths],
        "dropout": float(net.dropout),
        "weights": [w.ravel(order="C").tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def net_from_dict(doc: dict) -> Mlp:
    widths, weights = doc["widths"], doc["weights"]
    if len(widths) != len(weights) + 1:
        raise ValidationError(f"{len(weights)} layers need {len(weights) + 1} widths")
    if not all(type(w) is int and w > 0 for w in widths):  # a bool is an int too
        raise ValidationError("widths must be positive integers")
    ws = []
    for flat, fan_in, fan_out in zip(weights, widths[:-1], widths[1:]):
        arr = np.asarray(flat, dtype=float)
        if arr.size != fan_in * fan_out:
            raise ValidationError("weight array size disagrees with widths")
        ws.append(arr.reshape(fan_in, fan_out))
    bs = [np.asarray(b, dtype=float) for b in doc["biases"]]
    return Mlp(tuple(ws), tuple(bs), float(doc["dropout"]))
