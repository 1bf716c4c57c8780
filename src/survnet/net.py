"""A small fully connected network with hand-written reverse-mode gradients.

Hidden layers are rectified and optionally dropped out (inverted dropout);
the output layer is linear, one unit per time interval. Training uses
minibatch Adam with decoupled weight decay under a warm-restart schedule:
the learning rate is cosine-annealed within each cycle, cycles grow
geometrically and the peak rate decays at every restart.

During training all weights, then all biases, live in one flat float64
buffer; the network is built once over row-major views of it and the Adam
moments are flat arrays of the same length, so one step is a few vectorized
lines doing per element what a per-array update would.

Every pass runs in a workspace: preallocated pre-activations, activations,
dropout masks, deltas and a flat gradient laid out like the parameters. A
fit allocates one for its batch size and one for its validation rows and
then allocates nothing per step; the forward matmuls, dropout draws,
backward passes and the Adam update write into those buffers with the same
operations, in the same order, as the allocating formulas they replace. A
pass called without a workspace allocates one for itself and runs the same
code. Validation losses are asked for their value alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


class _Workspace:
    """Buffers for passes of up to ``rows`` rows through networks of ``widths``.

    A forward pass writes its pre-activations, activations and dropout masks
    into leading-row views of these; a backward pass writes its deltas and
    its gradient, laid out as one flat buffer like the training parameters
    (all weights, then all biases). Masks and backward buffers are allocated
    on first use, so an evaluation-only workspace holds only what a forward
    pass writes.
    """

    def __init__(self, widths, rows: int):
        self.widths, self.rows = tuple(widths), rows
        self.zs = [np.empty((rows, w)) for w in self.widths[1:]]
        self.acts = [np.empty((rows, w)) for w in self.widths[1:-1]]
        self.masks = [None] * len(self.acts)
        self.grad = None

    def mask(self, layer: int):
        if self.masks[layer] is None:
            self.masks[layer] = np.empty_like(self.acts[layer])
        return self.masks[layer]

    def gradient(self):
        """Weight and bias views of the flat gradient, allocated with the deltas once."""
        if self.grad is None:
            widths = self.widths
            self.grad = np.empty(sum(a * b + b for a, b in zip(widths[:-1], widths[1:])))
            self.grads = _param_views(self.grad, widths)
            self.deltas = [np.empty_like(a) for a in self.acts]
        return self.grads


def _forward_cached(net: Mlp, x, training: bool, rng, workspace=None):
    """Outputs and backward's cache (x, workspace, dropout used) of one pass."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.widths[0]:
        raise ValidationError(
            f"input has {x.shape[1]} columns, network expects {net.widths[0]}"
        )
    use_dropout = training and net.dropout > 0.0
    if use_dropout and rng is None:
        raise ValidationError("training-mode forward with dropout needs an rng")
    rows = x.shape[0]
    work = _Workspace(net.widths, rows) if workspace is None else workspace
    n_layers = len(net.weights)
    a = x
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(a, w, out=work.zs[layer][:rows])
        z += b
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0, out=work.acts[layer][:rows])
            if use_dropout:
                keep = 1.0 - net.dropout
                # the same stream as rng.random(a.shape); kept entries are 1 / keep
                mask = rng.random(out=work.mask(layer)[:rows])
                np.less(mask, keep, out=mask)
                mask /= keep
                a *= mask
    return z, (x, work, use_dropout)


def forward(net: Mlp, x, training: bool = False, rng=None):
    """Network outputs for a batch; deterministic when not training."""
    out, _ = _forward_cached(net, x, training, rng)
    return out


def backward(net: Mlp, cache, grad_out):
    """Parameter gradients given the gradient at the outputs.

    They are written into the flat gradient buffer of the forward pass's
    workspace and returned as its per-array views.
    """
    x, work, dropout_used = cache
    grads_w, grads_b = work.gradient()
    delta = np.asarray(grad_out, dtype=float)
    rows = delta.shape[0]
    for layer in range(len(net.weights) - 1, -1, -1):
        a = x if layer == 0 else work.acts[layer - 1][:rows]
        np.matmul(a.T, delta, out=grads_w[layer])
        np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            da = np.matmul(delta, net.weights[layer].T, out=work.deltas[layer - 1][:rows])
            if dropout_used:
                da *= work.masks[layer - 1][:rows]
            da *= work.zs[layer - 1][:rows] > 0
            delta = da
    return list(grads_w), list(grads_b)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.01
    cycle_length: int = 1
    cycle_mult: int = 2
    lr_decay: float = 0.8
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        positive = ("batch_size", "learning_rate", "cycle_length", "cycle_mult",
                    "max_epochs", "patience")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValidationError("lr_decay must be in (0, 1]")
        if not (np.isfinite(self.learning_rate) and np.isfinite(self.weight_decay)):
            raise ValidationError("learning_rate and weight_decay must be finite")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


def learning_rate_at(cfg: TrainConfig, position: float) -> float:
    """Warm-restart schedule evaluated at a fractional epoch position.

    Cycle k has length cycle_length * cycle_mult**k epochs and starts at peak
    learning_rate * lr_decay**k, annealed to zero by a half cosine over the
    cycle. At every cycle start the rate is exactly the decayed peak.
    """
    start, length, restarts = 0.0, float(cfg.cycle_length), 0
    while position >= start + length:
        start += length
        length *= cfg.cycle_mult
        restarts += 1
    frac = (position - start) / length
    peak = cfg.learning_rate * cfg.lr_decay**restarts
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
    work = _Workspace(widths, min(cfg.batch_size, n))
    val_work = _Workspace(widths, val_x.shape[0])
    x_batch = np.empty((work.rows, widths[0]))
    work.gradient()
    grad = work.grad
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    scratch1 = np.empty_like(theta)
    scratch2 = np.empty_like(theta)
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
            xb = np.take(train_x, sel, axis=0, out=x_batch[: sel.size])
            out, cache = _forward_cached(model, xb, training=True, rng=rng, workspace=work)
            result = loss_fn(out, train_labels.take(sel))
            if not np.isfinite(result.value):
                raise NumericalError(
                    f"non-finite training loss in epoch {epoch}, batch {b}"
                )
            backward(model, cache, result.grad)
            lr = learning_rate_at(cfg, epoch + b / n_batches)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            # Adam in place, the same operations in the same order as
            # m1 += (1 - b1) * (g - m1); m2 += (1 - b2) * (g * g - m2);
            # theta -= lr * (m1 / c1) / (sqrt(m2 / c2) + eps)
            np.subtract(grad, moment1, out=scratch1)
            scratch1 *= 1.0 - ADAM_BETA1
            moment1 += scratch1
            np.multiply(grad, grad, out=scratch1)
            scratch1 -= moment2
            scratch1 *= 1.0 - ADAM_BETA2
            moment2 += scratch1
            np.divide(moment2, c2, out=scratch1)
            np.sqrt(scratch1, out=scratch1)
            scratch1 += ADAM_EPS
            np.divide(moment1, c1, out=scratch2)
            scratch2 *= lr
            scratch2 /= scratch1
            theta -= scratch2
            if cfg.weight_decay > 0:
                theta -= np.multiply(theta, lr * cfg.weight_decay, out=scratch1)
            batch_losses.append(result.value)
        val_out, _ = _forward_cached(model, val_x, training=False, rng=None, workspace=val_work)
        val_loss = loss_fn(val_out, val_labels, grad=False).value
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


def gradient_check(net: Mlp, loss_fn, x, labels, eps: float = 1e-5) -> float:
    """Largest relative disagreement between backprop and central differences.

    Runs the network in evaluation mode (no dropout), perturbs every parameter
    coordinate by +-eps and compares (f+ - f-) / (2 eps) against the
    reverse-mode gradient. The relative error uses the larger of the two
    magnitudes, floored at 1e-6.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out, cache = _forward_cached(net, x, training=False, rng=None)
    grads_w, grads_b = backward(net, cache, loss_fn(out, labels).grad)
    work_w = [w.copy() for w in net.weights]
    work_b = [b.copy() for b in net.biases]

    def value():
        model = Mlp(tuple(work_w), tuple(work_b), net.dropout)
        return loss_fn(forward(model, x), labels).value

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


def net_to_dict(net: Mlp) -> dict:
    """JSON-ready parameter dump: widths, dropout, row-major weights, biases."""
    return {
        "widths": [int(w) for w in net.widths],
        "dropout": float(net.dropout),
        "weights": [w.ravel(order="C").tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def net_from_dict(doc: dict) -> Mlp:
    widths = [int(w) for w in doc["widths"]]
    ws = []
    for flat, fan_in, fan_out in zip(doc["weights"], widths[:-1], widths[1:]):
        arr = np.asarray(flat, dtype=float)
        if arr.size != fan_in * fan_out:
            raise ValidationError("weight array size disagrees with widths")
        ws.append(arr.reshape(fan_in, fan_out))
    bs = [np.asarray(b, dtype=float) for b in doc["biases"]]
    return Mlp(tuple(ws), tuple(bs), float(doc.get("dropout", 0.0)))
