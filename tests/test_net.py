import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survnet.grid as grid_mod
import survnet.net as net_mod
from survnet import cli
from survnet.errors import NumericalError, ValidationError
from survnet.grid import DiscreteLabels
from survnet.losses import LossOutput, nll_logistic_hazard, nll_pc_hazard, nll_pmf
from survnet.net import (
    Mlp,
    TrainConfig,
    fit,
    forward,
    gradient_check,
    init_mlp,
    learning_rate_at,
    net_from_dict,
    net_to_dict,
)
from survnet.sim import SimConfig, generate_dataset
from survnet.grid import equidistant_grid, discretize
from survnet.dataset import fit_standardizer, write_csv

from oracles import (
    reference_fit,
    verbatim_backward,
    verbatim_forward_cached,
    verbatim_nll_logistic_hazard,
    verbatim_nll_pc_hazard,
    verbatim_nll_pmf,
)


def squared_error_loss(target):
    """Quadratic surrogate used for exactness checks of the harness."""

    def loss_fn(out, labels):
        diff = out - target
        n = out.shape[0]
        return LossOutput(float((diff**2).sum() / (2 * n)), diff / n)

    return loss_fn


class TestForward:
    def test_zero_weight_net_outputs_zero(self):
        net = init_mlp([3, 4, 2], seed=0)
        zeroed = Mlp(
            tuple(np.zeros_like(w) for w in net.weights),
            tuple(np.zeros_like(b) for b in net.biases),
        )
        out = forward(zeroed, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_dropout_zero_training_equals_eval(self):
        net = init_mlp([3, 8, 2], dropout=0.0, seed=1)
        x = np.random.default_rng(1).normal(size=(6, 3))
        train_out = forward(net, x, training=True, rng=np.random.default_rng(2))
        eval_out = forward(net, x, training=False)
        np.testing.assert_array_equal(train_out, eval_out)

    def test_single_linear_layer_is_a_matrix_product(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        net = Mlp((w,), (b,))
        x = rng.normal(size=(7, 4))
        np.testing.assert_allclose(forward(net, x), x @ w + b, atol=1e-14)

    def test_dropout_scales_and_masks(self):
        net = init_mlp([2, 50, 1], dropout=0.5, seed=4)
        x = np.ones((1, 2))
        a = forward(net, x, training=True, rng=np.random.default_rng(5))
        b = forward(net, x, training=True, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        c = forward(net, x, training=True, rng=np.random.default_rng(6))
        assert not np.array_equal(a, c)

    def test_shape_mismatch(self):
        net = init_mlp([3, 4, 2])
        with pytest.raises(ValidationError):
            forward(net, np.zeros((2, 5)))


class TestGradientCheck:
    def test_all_losses_pass(self):
        rng = np.random.default_rng(10)
        for loss_fn, with_frac in (
            (nll_logistic_hazard, False),
            (nll_pmf, False),
            (nll_pc_hazard, True),
        ):
            net = init_mlp([3, 6, 4], seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(8, 3))
            idx = rng.integers(1, 5, 8)
            event = rng.integers(0, 2, 8)
            frac = rng.uniform(0.1, 1.0, 8) if with_frac else np.ones(8)
            labels = DiscreteLabels(idx, event, frac)
            assert gradient_check(net, loss_fn, x, labels, eps=1e-5) < 1e-4

    def test_quadratic_case_is_nearly_exact(self):
        rng = np.random.default_rng(11)
        net = Mlp((rng.normal(size=(3, 2)),), (rng.normal(size=2),))
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))
        err = gradient_check(net, squared_error_loss(target), x, None, eps=1e-5)
        assert err < 1e-7

    def test_detects_a_corrupted_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        net = Mlp((rng.uniform(0.5, 1.5, size=(3, 2)),), (rng.normal(size=2),))
        x = rng.uniform(0.5, 1.5, size=(5, 3))
        target = x @ np.ones((3, 2)) + 3.0
        true_backward = net_mod.backward

        def corrupted(net, cache, grad_out):
            grads_w, grads_b = true_backward(net, cache, grad_out)
            grads_w[0] = grads_w[0].copy()
            grads_w[0][0, 0] = 0.0
            return grads_w, grads_b

        monkeypatch.setattr(net_mod, "backward", corrupted)
        err = gradient_check(net, squared_error_loss(target), x, None, eps=1e-5)
        assert err > 1e-2


class TestWarmRestarts:
    cfg = TrainConfig(learning_rate=0.1, cycle_length=2, cycle_mult=3, lr_decay=0.8)

    def test_peaks_at_cumulative_cycle_starts(self):
        boundaries = [0, 2, 8, 26]
        for k, epoch in enumerate(boundaries):
            assert learning_rate_at(self.cfg, epoch) == 0.1 * 0.8**k

    def test_anneals_within_a_cycle(self):
        positions = np.linspace(2.0, 8.0, 25, endpoint=False)
        rates = [learning_rate_at(self.cfg, p) for p in positions]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] == 0.1 * 0.8
        assert rates[-1] < 1e-3


class TestFit:
    def one_record_setup(self):
        x = np.array([[1.0]])
        labels = DiscreteLabels([1], [1], [1.0])
        net = init_mlp([1, 1], seed=0)
        return net, x, labels

    def test_single_record_loss_strictly_decreases(self):
        net, x, labels = self.one_record_setup()
        cfg = TrainConfig(
            batch_size=1, learning_rate=0.05, max_epochs=10, patience=100, seed=0
        )
        _, log = fit(net, nll_logistic_hazard, x, labels, x, labels, cfg)
        losses = [entry["train_loss"] for entry in log]
        assert len(losses) == 10
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_bit_identical_logs_across_runs(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(64, 4))
        labels = DiscreteLabels(
            rng.integers(1, 6, 64), rng.integers(0, 2, 64), np.ones(64)
        )
        net = init_mlp([4, 8, 5], dropout=0.3, seed=7)
        cfg = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=6, seed=42)
        first = fit(net, nll_pmf, x, labels, x, labels, cfg)
        second = fit(net, nll_pmf, x, labels, x, labels, cfg)
        assert first[1] == second[1]
        for a, b in zip(first[0].weights, second[0].weights):
            np.testing.assert_array_equal(a, b)

    def test_beats_the_best_constant_predictor(self):
        result = generate_dataset(SimConfig(n=3800, seed=17))
        train = result.data.subset(np.arange(3000))
        val = result.data.subset(np.arange(3000, 3800))
        std = fit_standardizer(train)
        grid = equidistant_grid(100.0, 25)
        train_labels = discretize(train, grid)
        val_labels = discretize(val, grid)

        # best constant hazard per interval from validation label frequencies
        idx, event = val_labels.idx, val_labels.event
        loss_const = 0.0
        for j in range(1, 26):
            at_risk = int((idx >= j).sum())
            if at_risk == 0:
                continue
            deaths = int(((idx == j) & (event == 1)).sum())
            h = deaths / at_risk
            if 0 < h < 1:
                loss_const -= deaths * np.log(h) + (at_risk - deaths) * np.log(1 - h)
        loss_const /= val_labels.idx.shape[0]

        net = init_mlp([train.p, 64, 64, 25], dropout=0.5, seed=3)
        cfg = TrainConfig(
            batch_size=256, learning_rate=0.05, max_epochs=40, patience=40, seed=3
        )
        _, log = fit(
            net,
            nll_logistic_hazard,
            std.apply(train).covariates,
            train_labels,
            std.apply(val).covariates,
            val_labels,
            cfg,
        )
        best = min(entry["val_loss"] for entry in log)
        assert best < loss_const

    def test_non_finite_loss_aborts_with_location(self):
        x = np.array([[1.0]])
        labels = DiscreteLabels([1], [1], [1.0])
        net = init_mlp([1, 1], seed=0)
        cfg = TrainConfig(batch_size=1, learning_rate=0.05, max_epochs=3, seed=0)

        def exploding(out, lab):
            return LossOutput(float("nan"), np.zeros_like(out))

        with pytest.raises(NumericalError, match="epoch 0, batch 0"):
            fit(net, exploding, x, labels, x, labels, cfg)

    def test_returns_best_validation_parameters(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(32, 3))
        labels = DiscreteLabels(rng.integers(1, 4, 32), rng.integers(0, 2, 32), np.ones(32))
        net = init_mlp([3, 6, 3], seed=5)
        cfg = TrainConfig(batch_size=8, learning_rate=0.05, max_epochs=12, seed=5)
        trained, log = fit(net, nll_logistic_hazard, x, labels, x, labels, cfg)
        best = min(entry["val_loss"] for entry in log)
        out = forward(trained, x)
        assert nll_logistic_hazard(out, labels).value == pytest.approx(best, abs=1e-12)


class TestFlatBufferFit:
    """fit against the per-array Adam loop of tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize(
        "loss_fn", [nll_logistic_hazard, nll_pmf, nll_pc_hazard], ids=["lh", "pmf", "pc"]
    )
    def test_matches_reference_loop(self, loss_fn, monkeypatch):
        rng = np.random.default_rng(40)
        n, n_val, m = 150, 60, 6

        def labels(k):
            return DiscreteLabels(
                rng.integers(1, m + 1, k), rng.integers(0, 2, k), rng.uniform(0.05, 1.0, k)
            )

        x, x_val = rng.normal(size=(n, 4)), rng.normal(size=(n_val, 4))
        train_labels, val_labels = labels(n), labels(n_val)
        start = init_mlp([4, 12, 10, m], dropout=0.5, seed=8)
        originals = [a.copy() for a in (*start.weights, *start.biases)]
        # 32 does not divide 150, and the labels carry no signal, so the
        # validation loss stalls and early stopping fires.
        cfg = TrainConfig(
            batch_size=32, learning_rate=0.05, max_epochs=40, patience=2, seed=9,
            weight_decay=0.01,
        )

        trained_nets = []
        true_forward = net_mod._forward_cached

        def capturing(model, xb, training, rng, **kwargs):
            if training:
                trained_nets.append(model)
            return true_forward(model, xb, training, rng, **kwargs)

        monkeypatch.setattr(net_mod, "_forward_cached", capturing)
        got, log = fit(start, loss_fn, x, train_labels, x_val, val_labels, cfg)
        monkeypatch.undo()
        want, want_log = reference_fit(start, loss_fn, x, train_labels, x_val, val_labels, cfg)

        assert len(log) < cfg.max_epochs
        assert log == want_log
        for a, b in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert np.array_equal(a, b)
        for a, b in zip((*start.weights, *start.biases), originals):
            assert np.array_equal(a, b)
        training = trained_nets[0]
        assert all(model is training for model in trained_nets)
        for a in (*got.weights, *got.biases):
            for buffer in (*training.weights, *training.biases, *start.weights, *start.biases):
                assert not np.shares_memory(a, buffer)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LOSS_PAIRS = {
    "lh": (nll_logistic_hazard, verbatim_nll_logistic_hazard),
    "pmf": (nll_pmf, verbatim_nll_pmf),
    "pc": (nll_pc_hazard, verbatim_nll_pc_hazard),
}


class TestWorkspace:
    """The in-place passes against tests/oracles.py's allocating ones, bit for bit."""

    @settings(max_examples=40)
    @given(
        hidden=st.lists(st.integers(1, 7), max_size=2),
        rows=st.integers(1, 9),
        spare=st.integers(0, 4),
        dropout=st.sampled_from([0.0, 0.3]),
        training=st.booleans(),
        dead=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_passes_equal_the_verbatim_ones(
        self, hidden, rows, spare, dropout, training, dead, seed
    ):
        data = np.random.default_rng(seed)
        start = init_mlp([3, *hidden, 4], dropout=dropout, seed=seed)
        weights = list(start.weights)
        biases = [data.normal(size=b.shape) for b in start.biases]
        if dead:
            # pre-activations exactly 0, where the rectifier's slope is taken as 0
            weights[0], biases[0] = np.zeros_like(weights[0]), np.zeros_like(biases[0])
        net = Mlp(tuple(weights), tuple(biases), dropout)
        x, grad_out = data.normal(size=(rows, 3)), data.normal(size=(rows, 4))
        # once on its own buffers, once on a larger workspace whose leading
        # rows a bigger batch has just filled
        work = net_mod._Workspace(net.widths, rows + spare)
        filler = data.normal(size=(rows + spare, 3))
        _, cache = net_mod._forward_cached(net, filler, False, None, workspace=work)
        net_mod.backward(net, cache, data.normal(size=(rows + spare, 4)))
        for workspace in (None, work):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            want, cache = verbatim_forward_cached(net, x, training, rng_old)
            want_w, want_b = verbatim_backward(net, cache, grad_out)
            got, cache = net_mod._forward_cached(net, x, training, rng_new, workspace=workspace)
            got_w, got_b = net_mod.backward(net, cache, grad_out)
            assert same_bits(got, want)
            for a, b in zip((*got_w, *got_b), (*want_w, *want_b)):
                assert same_bits(a, b)
            # dropout drew exactly as many numbers as before
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @settings(max_examples=20)
    @given(
        method=st.sampled_from(sorted(LOSS_PAIRS)),
        n=st.integers(1, 30),
        batch_size=st.integers(1, 40),
        dropout=st.sampled_from([0.0, 0.4]),
        weight_decay=st.sampled_from([0.0, 0.01]),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_fit_equals_the_verbatim_training(
        self, method, n, batch_size, dropout, weight_decay, epochs, seed
    ):
        """Workspace, lean losses and in-place Adam against the per-array loop
        of reference_fit running the verbatim passes and losses; batch sizes
        that leave a partial last batch or exceed n included."""
        new_loss, old_loss = LOSS_PAIRS[method]
        rng = np.random.default_rng(seed)
        m = 5

        def labels(k):
            idx = rng.integers(0, m + 1, k)
            at = idx >= 1
            return DiscreteLabels(idx, rng.integers(0, 2, k) * at, rng.uniform(0.0, 1.0, k) * at)

        x, x_val = rng.normal(size=(n, 3)), rng.normal(size=(7, 3))
        train_labels, val_labels = labels(n), labels(7)
        start = init_mlp([3, 6, m], dropout=dropout, seed=seed)
        cfg = TrainConfig(batch_size=batch_size, learning_rate=0.05, max_epochs=epochs,
                          seed=seed, weight_decay=weight_decay)
        got, log = fit(start, new_loss, x, train_labels, x_val, val_labels, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(net_mod, "_forward_cached", verbatim_forward_cached)
            mp.setattr(net_mod, "backward", verbatim_backward)
            want, want_log = reference_fit(start, old_loss, x, train_labels, x_val, val_labels, cfg)
        assert log == want_log
        for a, b in zip((*got.weights, *got.biases), (*want.weights, *want.biases)):
            assert same_bits(a, b)

    # non-finite inputs are the point here; numpy warns about them
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", sorted(LOSS_PAIRS))
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_output_past_every_label_aborts(self, method, bad):
        # every record's interval is the first, so the last output column is
        # one the likelihood never reads
        x = np.ones((4, 2))
        labels = DiscreteLabels([1, 1, 1, 1], [1, 0, 1, 0], [0.5, 1.0, 0.0, 0.25])
        net = Mlp((np.zeros((2, 3)),), (np.array([0.0, 0.0, bad]),))
        cfg = TrainConfig(batch_size=2, max_epochs=2, seed=0)
        with pytest.raises(NumericalError, match="epoch 0, batch 0"):
            fit(net, LOSS_PAIRS[method][0], x, labels, x, labels, cfg)

    def test_fit_reaches_the_traced_call_sites(self, monkeypatch):
        """perfbench/spans.py counts net.batches and net.flops from these calls:
        _forward_cached(model, x, training=..., rng=...) and
        backward(model, cache, grad_out, ...), looked up on the module."""
        rng = np.random.default_rng(3)
        n, batch_size, epochs = 50, 16, 3
        x = rng.normal(size=(n, 4))
        labels = DiscreteLabels(rng.integers(1, 6, n), rng.integers(0, 2, n), np.ones(n))
        start = init_mlp([4, 8, 5], dropout=0.2, seed=1)
        calls = []
        true_forward, true_backward = net_mod._forward_cached, net_mod.backward

        def forward_spy(*args, **kwargs):
            training = kwargs.get("training", args[2] if len(args) > 2 else False)
            calls.append(("forward", args[0], np.atleast_2d(args[1]).shape[0], training,
                          kwargs.get("rng")))
            return true_forward(*args, **kwargs)

        def backward_spy(*args, **kwargs):
            calls.append(("backward", args[0], np.asarray(args[2]).shape[0]))
            return true_backward(*args, **kwargs)

        monkeypatch.setattr(net_mod, "_forward_cached", forward_spy)
        monkeypatch.setattr(net_mod, "backward", backward_spy)
        cfg = TrainConfig(batch_size=batch_size, max_epochs=epochs, patience=epochs, seed=2)
        fit(start, nll_logistic_hazard, x, labels, x, labels, cfg)
        trained = [c for c in calls if c[0] == "forward" and c[3]]
        backs = [c for c in calls if c[0] == "backward"]
        n_batches = -(-n // batch_size)
        assert len(trained) == len(backs) == epochs * n_batches
        assert sum(c[2] for c in trained) == sum(c[2] for c in backs) == epochs * n
        model = trained[0][1]
        assert isinstance(model, Mlp) and model.widths == start.widths
        assert all(c[1] is model for c in trained + backs)
        assert all(isinstance(c[4], np.random.Generator) for c in trained)

    def test_cli_fit_reaches_the_traced_call_sites(self, tmp_path, monkeypatch):
        """perfbench/spans.py wraps the cli.LOSSES entries and the grid and
        label builders of the grid module, so a fit must look each of them up
        there per call. perfbench runs and reads the methods in cli.METHODS
        order, and perfbench/selftest.py fits cli.METHODS[0]."""
        assert cli.METHODS == ("pmf", "logistic-hazard", "pc-hazard")
        files = {}
        for name, seed in (("train", 1), ("val", 2)):
            files[name] = tmp_path / f"{name}.csv"
            write_csv(generate_dataset(SimConfig(n=80, seed=seed)).data, files[name])
        reached = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                # only the training batches of net.fit ask a loss for its gradient
                reached.append(name if kwargs.get("grad", True) else f"{name} value")
                return fn(*args, **kwargs)
            return wrapper

        for method in cli.METHODS:
            monkeypatch.setitem(cli.LOSSES, method, spy(method, cli.LOSSES[method]))
        builders = {"equidistant": "equidistant_grid", "km-quantile": "km_quantile_grid"}
        for name in ("discretize", "continuous_labels", *builders.values()):
            monkeypatch.setattr(grid_mod, name, spy(name, getattr(grid_mod, name)))
        for method in cli.METHODS:
            labels = "continuous_labels" if method == "pc-hazard" else "discretize"
            for scheme, builder in builders.items():
                reached.clear()
                assert cli.main([
                    "fit", "--method", method, "--grid-scheme", scheme,
                    "--train", str(files["train"]), "--val", str(files["val"]),
                    "--m", "4", "--width", "4", "--depth", "1", "--max-epochs", "2",
                    "--out", str(tmp_path / "model.json"),
                ]) == 0
                assert set(reached) == {method, f"{method} value", labels, builder}

    def test_fit_peak_is_the_workspace_and_does_not_grow(self):
        """Traced peak of fit at n = 5,000, widths 9-64-64-25, batch 256.

        The training workspace (pre-activations, activations, dropout masks
        and deltas for 256 rows, and the flat gradient), the validation
        workspace (pre-activations and activations for the 1,000 validation
        rows), the parameter, best, moment and scratch buffers, the batch
        input and the permutation stay allocated for the whole fit; on top of
        them the validation loss holds a few n_val x (m + 1) arrays. Measured
        4.11-4.55 MB over the three losses. Before the workspace the peak was
        3.55 MB: the per-step arrays were freed before each validation pass.
        """
        rng = np.random.default_rng(0)
        n, n_val, p, m, rows = 5000, 1000, 9, 25, 256
        widths = [p, 64, 64, m]
        x, x_val = rng.normal(size=(n, p)), rng.normal(size=(n_val, p))

        def labels(k):
            return DiscreteLabels(rng.integers(1, m + 1, k), rng.integers(0, 2, k),
                                  rng.uniform(0.05, 1.0, k))

        train_labels, val_labels = labels(n), labels(n_val)
        start = init_mlp(widths, dropout=0.1, seed=0)
        n_params = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
        outputs, hidden = sum(widths[1:]), sum(widths[1:-1])
        train_work = 8 * (rows * (outputs + 3 * hidden) + n_params)
        val_work = 8 * n_val * (outputs + hidden)
        persistent = train_work + val_work + 8 * (6 * n_params + rows * p + n)
        val_loss_arrays = 4 * 8 * n_val * (m + 1)
        bound = persistent + val_loss_arrays + 256 * 1024
        for loss_fn in (nll_logistic_hazard, nll_pmf, nll_pc_hazard):
            peaks = []
            for epochs in (2, 6):
                cfg = TrainConfig(max_epochs=epochs, patience=epochs, seed=1)
                tracemalloc.start()
                try:
                    fit(start, loss_fn, x, train_labels, x_val, val_labels, cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) < bound
            assert peaks[1] < peaks[0] + 16 * 1024


class TestSerialization:
    def test_roundtrip(self):
        net = init_mlp([4, 6, 3], dropout=0.25, seed=9)
        back = net_from_dict(net_to_dict(net))
        assert back.widths == net.widths
        assert back.dropout == net.dropout
        for a, b in zip(back.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.biases, net.biases):
            np.testing.assert_array_equal(a, b)

    def test_size_mismatch_rejected(self):
        doc = net_to_dict(init_mlp([4, 6, 3]))
        doc["weights"][0] = doc["weights"][0][:-1]
        with pytest.raises(ValidationError):
            net_from_dict(doc)


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(lr_decay=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
    ])
    def test_negative_seed_and_non_finite_rates(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    def test_init_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            init_mlp([3, 2], seed=-1)
