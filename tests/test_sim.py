import tracemalloc

import numpy as np
import pytest

from oracles import reference_generate_dataset
from survnet import sim
from survnet.errors import SchemaError, ValidationError
from survnet.sim import (
    TRUTH_LAYOUT,
    GammaSet,
    SimConfig,
    SimResult,
    fine_times,
    gammas_from_latent,
    generate_dataset,
    load_truth_csv,
    logit_hazard,
    true_survival,
    write_truth_csv,
)


class TestGammaSet:
    def test_equal_weights_from_equal_scores(self):
        gammas = GammaSet(np.array([[0.0, 1.0, 0.0, -6.0, -5.0, 0.5, 2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(gammas.alpha, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_direct_substitution_at_zero(self):
        # only the accelerating component survives: alpha_3 * (-10)
        gammas = GammaSet(np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]))
        value = logit_hazard(gammas, 0.0)
        assert value[0] == pytest.approx(-10.0 / 3.0, abs=1e-12)

    def test_period_parameter_is_a_power_of_two_multiple(self):
        rng = np.random.default_rng(0)
        gammas = gammas_from_latent(rng.uniform(-1, 1, (500, 9)))
        ratio = gammas.gamma[:, 1] / (2 * np.pi / 100)
        log2 = np.log2(ratio)
        np.testing.assert_allclose(log2, np.round(log2), atol=1e-12)
        assert set(np.round(log2)) <= {-1, 0, 1, 2, 3, 4}

    def test_logit_hazard_matches_direct_transcription(self):
        rng = np.random.default_rng(1)
        latent = rng.uniform(-1, 1, (20, 9))
        gammas = gammas_from_latent(latent)
        g = gammas.gamma
        t = 37.3
        for i in range(20):
            e = np.exp(g[i, 6:9] - g[i, 6:9].max())
            a = e / e.sum()
            expected = (
                a[0] * (g[i, 0] * np.sin(g[i, 1] * (t + g[i, 2])) + g[i, 3])
                + a[1] * g[i, 4]
                + a[2] * (g[i, 5] * t - 10.0)
            )
            assert logit_hazard(gammas, t)[i] == pytest.approx(expected, abs=1e-12)


class TestTrueSurvival:
    def test_zero_hazard_is_flat_one(self):
        # scores chosen so every mixture component sits far below zero
        gammas = GammaSet(
            np.array([[0.0, 1.0, 0.0, -800.0, -800.0, 0.0, 1.0, 1.0, -800.0]])
        )
        surv = true_survival(gammas)
        np.testing.assert_allclose(surv, 1.0, atol=1e-9)

    def test_constant_hazard_is_geometric(self):
        # a pure constant component at logit(0.01)
        logit = np.log(0.01 / 0.99)
        gammas = GammaSet(np.array([[0.0, 1.0, 0.0, 0.0, logit, 0.0, -800.0, 50.0, -800.0]]))
        surv = true_survival(gammas)
        np.testing.assert_allclose(surv[0], 0.99 ** np.arange(1, 1001), rtol=1e-9)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        gammas = gammas_from_latent(rng.uniform(-1, 1, (3, 9)))
        times = fine_times()
        surv = true_survival(gammas)
        for i in range(3):
            s = 1.0
            expected = []
            for t in times:
                g = logit_hazard(GammaSet(gammas.gamma[[i]]), float(t))[0]
                s *= 1.0 - 1.0 / (1.0 + np.exp(-g))
                expected.append(s)
            np.testing.assert_allclose(surv[i], expected, rtol=1e-10)

    def test_non_increasing_from_one(self):
        rng = np.random.default_rng(3)
        surv = true_survival(gammas_from_latent(rng.uniform(-1, 1, (50, 9))))
        assert np.all(surv <= 1.0)
        assert np.all(np.diff(surv, axis=1) <= 0)


class TestGenerateDataset:
    def test_reconstruction_identity(self):
        result = generate_dataset(SimConfig(n=200, seed=4))
        x = result.data.covariates.reshape(200, 9, 5)
        recovered = np.einsum("njk,jk->nj", x, result.design.coef)
        np.testing.assert_allclose(recovered, result.design.latent, atol=1e-10)

    def test_no_random_censoring_means_events_or_end_of_grid(self):
        result = generate_dataset(SimConfig(n=300, seed=5, censor_hazard=0.0))
        censored = result.data.events == 0
        np.testing.assert_array_equal(result.data.durations[censored], 100.0)

    def test_deterministic(self):
        a = generate_dataset(SimConfig(n=50, seed=6))
        b = generate_dataset(SimConfig(n=50, seed=6))
        np.testing.assert_array_equal(a.data.durations, b.data.durations)
        np.testing.assert_array_equal(a.data.events, b.data.events)
        np.testing.assert_array_equal(a.data.covariates, b.data.covariates)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_event_times_lie_on_the_fine_grid(self):
        result = generate_dataset(SimConfig(n=100, seed=7))
        steps = result.data.durations / 0.1
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_censoring_stream_independent_of_event_stream(self):
        with_cens = generate_dataset(SimConfig(n=120, seed=8))
        without = generate_dataset(SimConfig(n=120, seed=8, censor_hazard=0.0))
        # individuals observed as events in both runs carry identical times
        both = (with_cens.data.events == 1) & (without.data.events == 1)
        np.testing.assert_array_equal(
            with_cens.data.durations[both], without.data.durations[both]
        )
        np.testing.assert_array_equal(with_cens.truth, without.truth)

    def test_shared_design_across_seeds(self):
        a = generate_dataset(SimConfig(n=10, seed=1, design_seed=3))
        b = generate_dataset(SimConfig(n=10, seed=2, design_seed=3))
        np.testing.assert_array_equal(a.design.coef, b.design.coef)
        c = generate_dataset(SimConfig(n=10, seed=1, design_seed=4))
        assert not np.array_equal(a.design.coef, c.design.coef)

    def test_calibrated_censoring_fraction(self):
        result = generate_dataset(SimConfig(n=10000, seed=9))
        assert 0.35 <= result.censored_fraction <= 0.39

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SimConfig(n=0)
        with pytest.raises(ValidationError):
            SimConfig(n=10, censor_hazard=1.5)
        with pytest.raises(ValidationError):
            SimConfig(n=10, seed=-1)
        for kwargs in ({"n": 10**21}, {"n": 10**16}, {"n": 1, "n_steps": 2**62},
                       {"n": 10**16, "n_steps": 1, "subset_size": 10**3}):
            with pytest.raises(ValidationError):  # more bytes than numpy can index
                SimConfig(**kwargs)
        with pytest.raises(ValidationError):
            SimConfig(n=10, design_seed=-1)


class TestBlockKernel:
    @pytest.mark.parametrize(
        "n", [1, sim._BLOCK_ROWS - 1, sim._BLOCK_ROWS, sim._BLOCK_ROWS + 1, 4097]
    )
    @pytest.mark.parametrize(
        "options",
        [{}, {"censor_hazard": 0.0}, {"n_steps": 37, "t_max": 5.0}],
        ids=["default", "no-censoring", "coarse-grid"],
    )
    def test_bit_identical_to_the_reference_loop(self, n, options):
        cfg = SimConfig(n=n, seed=n, **options)
        result = generate_dataset(cfg)
        durations, events, covariates, truth = reference_generate_dataset(cfg)
        np.testing.assert_array_equal(result.data.durations, durations)
        np.testing.assert_array_equal(result.data.events, events)
        np.testing.assert_array_equal(result.data.covariates, covariates)
        np.testing.assert_array_equal(result.truth, truth)
        np.testing.assert_array_equal(true_survival(result.gammas, result.times), truth)

    def test_temporaries_stay_block_sized(self):
        # full-size n x n_steps temporaries would add tens of MB at this n
        tracemalloc.start()
        try:
            result = generate_dataset(SimConfig(n=4100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.truth.nbytes + 10_000_000


class TestTruthFile:
    def test_roundtrip(self, tmp_path):
        result = generate_dataset(SimConfig(n=7, seed=10))
        path = tmp_path / "truth.csv"
        write_truth_csv(path, result)
        times, gammas = load_truth_csv(path)
        truth = true_survival(gammas, times)
        np.testing.assert_array_equal(times, result.times)
        np.testing.assert_array_equal(truth, result.truth)
        lines = path.read_text().splitlines()
        assert lines[0] == f"{TRUTH_LAYOUT},n_steps=1000,t_max=100.0"
        assert len(lines) == 8 and all(len(line.split(",")) == 9 for line in lines[1:])

    def test_recomputed_truth_bit_identical_across_row_chunks(self, tmp_path):
        # 4,100 rows span 32 full 128-row blocks (sim._BLOCK_ROWS) and a partial one
        result = generate_dataset(SimConfig(n=4100, seed=11))
        path = tmp_path / "truth.csv"
        write_truth_csv(path, result)
        times, gammas = load_truth_csv(path)
        truth = true_survival(gammas, times)
        np.testing.assert_array_equal(times, result.times)
        np.testing.assert_array_equal(truth, result.truth)

    def test_grid_must_be_the_fine_grid(self, tmp_path):
        result = generate_dataset(SimConfig(n=3, seed=12))
        shifted = SimResult(result.data, result.truth, result.times + 1.0,
                            result.design, result.gammas)
        with pytest.raises(ValidationError):
            write_truth_csv(tmp_path / "truth.csv", shifted)


LATENT_ROW = ",".join(["0.5"] * 9)
LATENT_HEADER = f"{TRUTH_LAYOUT},n_steps=10,t_max=1.0"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty truth file"),
        ("a,b,c\n1,2,3\n", "unrecognised truth file header"),
        (f"{TRUTH_LAYOUT}-v9,n_steps=10,t_max=1.0\n{LATENT_ROW}\n", "unrecognised"),
        (f"{LATENT_HEADER}\n", "no data rows"),
        (f"{LATENT_HEADER}\n{LATENT_ROW}\n0.5,x,0,0,0,0,0,0,0\n", "row 2: could not convert"),
        (f"{LATENT_HEADER}\n{LATENT_ROW},0.5\n", "row 1 has 10 values, expected 9"),
        (f"{LATENT_HEADER}\n0.5,0.5\n", "row 1 has 2 values, expected 9"),
        (f"{LATENT_HEADER}\n{LATENT_ROW}\nnan,0,0,0,0,0,0,0,0\n", "row 2 has a non-finite"),
        (f"{LATENT_HEADER}\n{LATENT_ROW}\n0,0,0,0,inf,0,0,0,0\n", "row 2 has a non-finite"),
        (f"{TRUTH_LAYOUT},t_max=1.0\n{LATENT_ROW}\n", "needs exactly n_steps"),
        (f"{TRUTH_LAYOUT},n_steps=10,t_max=1.0,extra=1\n{LATENT_ROW}\n", "needs exactly"),
        (f"{TRUTH_LAYOUT},n_steps=10.5,t_max=1.0\n{LATENT_ROW}\n", "integer n_steps"),
        (f"{TRUTH_LAYOUT},n_steps=0,t_max=1.0\n{LATENT_ROW}\n", "n_steps must be at least 1"),
        (f"{TRUTH_LAYOUT},n_steps=10,t_max=0.0\n{LATENT_ROW}\n", "t_max must be positive"),
        (f"{TRUTH_LAYOUT},n_steps=10,t_max=-2\n{LATENT_ROW}\n", "t_max must be positive"),
        (f"{TRUTH_LAYOUT},n_steps=10,t_max=inf\n{LATENT_ROW}\n", "t_max must be positive"),
        (f"{TRUTH_LAYOUT},n_steps=10,t_max=ten\n{LATENT_ROW}\n", "integer n_steps"),
        # the layout before 0.2.0, a header of times, is no longer read
        ("0.5,1.0\n0.9,x\n", "unrecognised truth file header"),
        ("0.5,1.0\n0.9,0.8\n0.9\n", "unrecognised truth file header"),
        ("0.5,1.0\n0.9,nan\n", "unrecognised truth file header"),
        ("-1.0,-0.5\n0.9,0.8\n", "unrecognised truth file header"),
        ("0.0\n0.9\n", "unrecognised truth file header"),
        ("1.0,0.5\n0.9,0.8\n", "unrecognised truth file header"),
    ],
    ids=[
        "empty", "unrecognised-header", "unknown-layout", "latent-no-rows",
        "latent-non-numeric", "latent-too-wide", "latent-too-narrow",
        "latent-nan", "latent-inf", "missing-n_steps", "unknown-key",
        "non-integer-n_steps", "n_steps-below-one", "zero-t_max", "negative-t_max",
        "infinite-t_max", "non-numeric-t_max", "old-non-numeric", "old-ragged",
        "old-nan", "old-negative-t_max", "old-zero-t_max", "old-decreasing-times",
    ],
)
def test_malformed_truth_file_is_schema_error(tmp_path, text, message):
    path = tmp_path / "truth.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_truth_csv(path)
