"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale experiment (criterion 9) trains twelve small models and
dominates the runtime.
"""

import time
import warnings

import numpy as np

from survnet import cli, km, metrics
from survnet.curves import pc_hazard_curve, surv_from_hazard, surv_from_pmf, pmf_probs
from survnet.dataset import fit_standardizer
from survnet.grid import (
    DiscreteLabels,
    GridDeduplicationWarning,
    TimeGrid,
    continuous_labels,
    discretize,
    equidistant_grid,
    km_quantile_grid,
)
from survnet.losses import (
    cumsum_head,
    nll_logistic_hazard,
    nll_pc_hazard,
    nll_pmf,
    sigmoid,
    softplus,
)
from survnet.net import TrainConfig, fit, forward, init_mlp
from survnet.sim import SimConfig, generate_dataset
from survnet.dataset import SurvivalDataset

from oracles import (
    gradient_check,
    km_product_limit,
    km_quantile_search,
    logistic_hazard_nll_naive,
    mtlr_nll,
    pc_hazard_nll_naive,
    pmf_nll_naive,
)


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status} {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def random_batch(rng, loss_fn):
    with_frac = loss_fn is nll_pc_hazard
    p = int(rng.integers(2, 5))
    hidden = int(rng.integers(3, 8))
    m = int(rng.integers(2, 7))
    n = int(rng.integers(4, 12))
    net = init_mlp([p, hidden, m], seed=int(rng.integers(1 << 30)))
    x = rng.normal(size=(n, p))
    idx = rng.integers(1, m + 1, n)
    event = rng.integers(0, 2, n)
    frac = rng.uniform(0.1, 1.0, n) if with_frac else np.ones(n)
    return net, x, DiscreteLabels(idx, event, frac)


def test_criterion_01_gradient_suite():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for loss_fn in (nll_logistic_hazard, nll_pmf, nll_pc_hazard):
        for _ in range(20):
            net, x, labels = random_batch(rng, loss_fn)
            worst = max(worst, gradient_check(net, loss_fn, x, labels, eps=1e-5))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30
    verdict(1, "gradient-suite", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_normalization():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (1, 5, 25):
        logits = rng.normal(scale=4, size=(1000, m))
        probs = pmf_probs(logits)
        grid = TimeGrid(np.arange(m + 1, dtype=float))
        curve = surv_from_pmf(logits, grid)
        density = probs[:, :m]
        total = density.sum(axis=1) + curve.values[:, -1]
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    ok = worst < 1e-10
    verdict(2, "normalization", ok, f"(max deviation {worst:.2e})")


def test_criterion_03_stability():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 25))
        logits = rng.uniform(-10, 10, (n, m))
        idx = rng.integers(1, m + 1, n)
        event = rng.integers(0, 2, n)
        frac = rng.uniform(0.05, 1.0, n)
        labels = DiscreteLabels(idx, event, frac)
        worst = max(
            worst,
            abs(nll_logistic_hazard(logits, labels).value
                - logistic_hazard_nll_naive(logits, idx, event)),
            abs(nll_pmf(logits, labels).value - pmf_nll_naive(logits, idx, event)),
            abs(nll_pc_hazard(logits, labels).value
                - pc_hazard_nll_naive(logits, idx, event, frac)),
        )
    agree = worst < 1e-6

    # logistic hazard: a +50 logit before the event makes the naive form -inf
    lab = DiscreteLabels([2], [1], [1.0])
    big = np.array([[50.0, -50.0]])
    with np.errstate(divide="ignore"):
        lh_naive_bad = not np.isfinite(logistic_hazard_nll_naive(big, [2], [1]))
    lh_ok = np.isfinite(nll_logistic_hazard(big, lab).value) and lh_naive_bad

    # piecewise-constant hazard: softplus(-50) underflows inside the naive log
    small = np.array([[-50.0, 50.0]])
    with np.errstate(divide="ignore"):
        pc_naive_bad = not np.isfinite(pc_hazard_nll_naive(small, [1], [1], [1.0]))
    pc_ok = np.isfinite(nll_pc_hazard(small, lab.take([0])).value) and pc_naive_bad

    # interval-probability loss: finite at +-50 (where the naive double
    # precision form happens to survive) and still finite at +-800 where the
    # naive exponentials overflow
    pm_fin50 = np.isfinite(nll_pmf(np.array([[50.0, -50.0]]), lab).value)
    huge = np.array([[800.0, -800.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        pm_naive_bad = not np.isfinite(pmf_nll_naive(huge, [1], [1]))
    pm_ok = (
        pm_fin50
        and pm_naive_bad
        and np.isfinite(nll_pmf(huge, DiscreteLabels([1], [1], [1.0])).value)
    )

    ok = agree and lh_ok and pc_ok and pm_ok
    verdict(3, "stability", ok, f"(max naive gap {worst:.2e})")


def test_criterion_04_poisson_equivalence():
    rng = np.random.default_rng(13)
    cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 12, 6))])
    time_grid = TimeGrid(cuts)
    n = 20
    durations = rng.uniform(0, cuts[-1], n)
    events = rng.integers(0, 2, n)
    data = SurvivalDataset(durations, events, np.zeros((n, 1)))
    labels = continuous_labels(data, time_grid)

    def poisson_nll(logits):
        eta_rate = softplus(logits) / np.diff(time_grid.cuts)[None, :]
        total = 0.0
        for i in range(n):
            k = labels.idx[i]
            for j in range(1, k + 1):
                lo, hi = cuts[j - 1], cuts[j]
                exposure = (hi - lo) if durations[i] > hi else max(durations[i] - lo, 0.0)
                mu = exposure * eta_rate[i, j - 1]
                y = 1.0 if (events[i] == 1 and j == k) else 0.0
                total -= y * np.log(mu) - mu
        return total / n

    diffs = [
        nll_pc_hazard(logits, labels).value - poisson_nll(logits)
        for logits in (rng.uniform(-4, 4, (n, time_grid.m)) for _ in range(10))
    ]
    spread = float(np.ptp(diffs))
    ok = spread < 1e-8
    verdict(4, "poisson-equivalence", ok, f"(spread {spread:.2e})")


def test_criterion_05_mtlr_reduction():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 16)), int(rng.integers(1, 8))
        psi = rng.uniform(-3, 3, (n, m))
        idx = rng.integers(1, m + 1, n)
        event = rng.integers(0, 2, n)
        labels = DiscreteLabels(idx, event, np.ones(n))
        ours = nll_pmf(cumsum_head(psi), labels).value
        direct = mtlr_nll(psi, idx, event)
        worst = max(worst, abs(ours - direct))
    ok = worst < 1e-10
    verdict(5, "mtlr-reduction", ok, f"(max gap {worst:.2e})")


def test_criterion_06_kaplan_meier():
    rng = np.random.default_rng(19)
    worst = 0.0
    grids_checked = 0
    for trial in range(100):
        n = int(rng.integers(1, 201))
        durations = np.round(rng.uniform(0, 25, n), 2)
        events = rng.integers(0, 2, n)
        if events.sum() == 0:
            events[int(rng.integers(0, n))] = 1
        curve = km.fit(durations, events)
        times, surv = km_product_limit(durations, events)
        assert curve.times.tolist() == times
        gap = max(
            (abs(a - float(b)) for a, b in zip(curve.surv, surv)), default=0.0
        )
        worst = max(worst, gap)
        if n >= 3 and trial % 5 == 0:
            m = int(rng.integers(1, 9))
            data = SurvivalDataset(durations, events, np.zeros((n, 1)))
            expected = km_quantile_search(durations, events, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridDeduplicationWarning)
                got = km_quantile_grid(data, m)
            np.testing.assert_allclose(got.cuts, expected, atol=0)
            grids_checked += 1
    ok = worst < 1e-12 and grids_checked > 0
    verdict(6, "kaplan-meier", ok, f"(max gap {worst:.2e}, {grids_checked} grids)")


def test_criterion_07_curve_identities():
    rng = np.random.default_rng(23)
    # constant-hazard reading of a hazard-method curve equals the
    # piecewise-exponential curve with matched interval masses
    hazards = rng.uniform(0.01, 0.8, (30, 6))
    grid = TimeGrid(np.cumsum(np.concatenate([[0], rng.uniform(0.5, 5, 6)])))
    step = surv_from_hazard(hazards, grid)
    full = np.concatenate([np.ones((30, 1)), step.values], axis=1)
    eta = np.diff(-np.log(np.maximum(full, 1e-12)), axis=1)
    pc = pc_hazard_curve(eta, grid)
    ts = rng.uniform(0, grid.t_max, 1000)
    identity_gap = float(
        np.max(np.abs(step.with_kind("chi").evaluate(ts) - pc.evaluate(ts)))
    )

    # interpolants anchor to the step values at the cuts
    anchor_gap = 0.0
    for scheme in ("cdi", "chi"):
        at_cuts = step.with_kind(scheme).evaluate(grid.cuts[1:])
        anchor_gap = max(anchor_gap, float(np.max(np.abs(at_cuts - step.values))))

    # monotonicity across 1000 random models for every curve kind
    n_models = 1000
    h = rng.uniform(0, 1, (n_models, 5))
    eta2 = rng.uniform(0, 2, (n_models, 5))
    grid2 = TimeGrid(np.linspace(0, 10, 6))
    eval_ts = np.sort(rng.uniform(0, 11, 59))
    monotone = True
    big_step = surv_from_hazard(h, grid2)
    for curve in (
        big_step,
        big_step.with_kind("cdi"),
        big_step.with_kind("chi"),
        pc_hazard_curve(eta2, grid2),
    ):
        values = curve.evaluate(eval_ts)
        monotone &= bool(np.all(np.diff(values, axis=1) <= 1e-12))
        monotone &= bool(np.all(values >= 0) and np.all(values <= 1 + 1e-12))

    ok = identity_gap < 1e-12 and anchor_gap < 1e-12 and monotone
    verdict(
        7,
        "curve-identities",
        ok,
        f"(chi/pc gap {identity_gap:.2e}, anchor gap {anchor_gap:.2e})",
    )


def test_criterion_08_simulation_calibration():
    start = time.time()
    result = generate_dataset(SimConfig(n=10000, seed=90))
    frac = result.censored_fraction
    elapsed = time.time() - start
    ok = 0.35 <= frac <= 0.39 and elapsed < 60
    verdict(8, "simulation-calibration", ok, f"(fraction {frac:.4f}, {elapsed:.1f}s)")


def test_criterion_09_desk_scale_experiment():
    start = time.time()
    train_r = generate_dataset(SimConfig(n=3000, seed=101))
    val_r = generate_dataset(SimConfig(n=2000, seed=102))
    test_r = generate_dataset(SimConfig(n=10000, seed=103, censor_hazard=0.0))
    train, val, test = train_r.data, val_r.data, test_r.data
    std = fit_standardizer(train)
    tx, vx, sx = (std.apply(d).covariates for d in (train, val, test))
    eval_grid = metrics.EvalGrid(test_r.times)

    km_curve = km.fit(train.durations, train.events)
    km_mse = float(
        np.mean((km.survival_at(km_curve, test_r.times)[None, :] - test_r.truth) ** 2)
    )

    losses = {
        "logistic-hazard": nll_logistic_hazard,
        "pmf": nll_pmf,
        "pc-hazard": nll_pc_hazard,
    }
    results = {}
    for method in losses:
        for m in (5, 25):
            for scheme in ("equidistant", "km-quantile"):
                grid = (
                    equidistant_grid(100.0, m)
                    if scheme == "equidistant"
                    else km_quantile_grid(train, m)
                )
                if method == "pc-hazard":
                    tl, vl = continuous_labels(train, grid), continuous_labels(val, grid)
                else:
                    tl, vl = discretize(train, grid), discretize(val, grid)
                net = init_mlp([train.p, 64, 64, grid.m], dropout=0.5, seed=11)
                cfg = TrainConfig(
                    batch_size=256, learning_rate=0.05, max_epochs=63,
                    patience=15, seed=11,
                )
                trained, _ = fit(net, losses[method], tx, tl, vx, vl, cfg)
                logits = forward(trained, sx)
                if method == "logistic-hazard":
                    curve = surv_from_hazard(sigmoid(logits), grid)
                elif method == "pmf":
                    curve = surv_from_pmf(logits, grid)
                else:
                    curve = pc_hazard_curve(softplus(logits), grid)
                entry = {"mse": {}, "conc": None}
                if method == "pc-hazard":
                    entry["mse"]["native"] = metrics.mse_vs_truth(
                        curve, test_r.truth, eval_grid
                    )
                    cont = curve
                else:
                    entry["mse"]["step"] = metrics.mse_vs_truth(
                        curve, test_r.truth, eval_grid
                    )
                    entry["mse"]["chi"] = metrics.mse_vs_truth(
                        curve.with_kind("chi"), test_r.truth, eval_grid
                    )
                    entry["mse"]["cdi"] = metrics.mse_vs_truth(
                        curve.with_kind("cdi"), test_r.truth, eval_grid
                    )
                    cont = curve.with_kind("chi")
                entry["conc"] = metrics.td_concordance(
                    cont, test.durations, test.events
                )
                results[(method, m, scheme)] = entry

    # (a) every configuration discriminates and beats the marginal predictor
    part_a = all(
        e["conc"] > 0.60 and all(v < km_mse for v in e["mse"].values())
        for e in results.values()
    )
    # (b) interpolation helps the hazard method on the coarse grid
    part_b = all(
        results[("logistic-hazard", 5, s)]["mse"][k]
        <= results[("logistic-hazard", 5, s)]["mse"]["step"]
        for s in ("equidistant", "km-quantile")
        for k in ("chi", "cdi")
    )
    # (c) the continuous-time method stays near the best on the coarse grid
    best_mse = min(min(e["mse"].values()) for e in results.values())
    pc5 = min(
        min(results[("pc-hazard", 5, s)]["mse"].values())
        for s in ("equidistant", "km-quantile")
    )
    part_c = pc5 <= 1.1 * best_mse

    elapsed = time.time() - start
    ok = part_a and part_b and part_c and elapsed < 300
    worst_conc = min(e["conc"] for e in results.values())
    worst_mse = max(max(e["mse"].values()) for e in results.values())
    verdict(
        9,
        "desk-scale-experiment",
        ok,
        f"(a={part_a} b={part_b} c={part_c}; km mse {km_mse:.4f}, worst mse "
        f"{worst_mse:.4f}, worst conc {worst_conc:.3f}, pc@5 {pc5:.4f}, "
        f"best {best_mse:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    def pipeline(workdir):
        workdir.mkdir()
        train = workdir / "train.csv"
        val = workdir / "val.csv"
        test = workdir / "test.csv"
        model = workdir / "model.json"
        report = workdir / "report.json"
        assert cli.main(["simulate", "--n", "400", "--seed", "31", "--out", str(train)]) == 0
        assert cli.main(["simulate", "--n", "200", "--seed", "32", "--out", str(val)]) == 0
        assert cli.main(["simulate", "--n", "300", "--seed", "33", "--out", str(test)]) == 0
        assert cli.main([
            "fit", "--method", "pc-hazard", "--train", str(train), "--val", str(val),
            "--m", "5", "--width", "16", "--depth", "1", "--max-epochs", "6",
            "--patience", "6", "--seed", "3", "--out", str(model),
        ]) == 0
        assert cli.main([
            "evaluate", "--model", str(model), "--data", str(test),
            "--truth", str(test) + ".truth.csv", "--out", str(report),
        ]) == 0
        return model.read_bytes(), report.read_bytes()

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    ok = first[0] == second[0] and first[1] == second[1]
    verdict(10, "pipeline-determinism", ok, "(model and report bytes identical)")
