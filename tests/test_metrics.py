import numpy as np
import pytest

from survnet import km
from survnet.errors import MetricUndefinedError, ValidationError
from survnet.grid import TimeGrid, equidistant_grid
from survnet.curves import SurvivalCurve, pc_hazard_curve, surv_from_hazard, surv_from_pmf
from survnet.losses import sigmoid, softplus
from survnet.net import forward, init_mlp
from survnet.sim import SimConfig, generate_dataset
from survnet.metrics import (
    EvalGrid,
    brier_scores,
    integrated_brier_score,
    mse_vs_truth,
    report,
    td_concordance,
)

from oracles import (
    brier_direct,
    concordance_pairs,
    mse_two_loops,
    reference_td_concordance,
    trapezoid,
)


def step_curves(grid_cuts, values):
    return SurvivalCurve(TimeGrid(grid_cuts), values)


class TestTdConcordance:
    def test_two_individuals_ordered(self):
        curves = step_curves([0, 1, 2], [[0.2, 0.1], [0.8, 0.7]])
        assert td_concordance(curves, [1.0, 2.0], [1, 1]) == 1.0

    def test_two_individuals_swapped(self):
        curves = step_curves([0, 1, 2], [[0.8, 0.7], [0.2, 0.1]])
        assert td_concordance(curves, [1.0, 2.0], [1, 1]) == 0.0

    def test_identical_curves_give_half(self):
        curves = step_curves([0, 1, 2], [[0.5, 0.25]] * 4)
        assert td_concordance(curves, [0.5, 1.0, 1.5, 2.0], [1, 1, 1, 0]) == 0.5

    def test_tied_time_event_vs_censoring_is_comparable(self):
        curves = step_curves([0, 1, 2], [[0.2, 0.1], [0.8, 0.7]])
        assert td_concordance(curves, [1.0, 1.0], [1, 0]) == 1.0

    def test_tied_time_two_events_not_comparable(self):
        curves = step_curves([0, 1, 2], [[0.2, 0.1], [0.8, 0.7]])
        with pytest.raises(MetricUndefinedError):
            td_concordance(curves, [1.0, 1.0], [1, 1])

    def test_no_events_undefined(self):
        curves = step_curves([0, 1, 2], [[0.5, 0.2]] * 2)
        with pytest.raises(MetricUndefinedError):
            td_concordance(curves, [1.0, 2.0], [0, 0])

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            m = int(rng.integers(2, 6))
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 10, m))])
            curves = surv_from_hazard(rng.uniform(0, 0.9, (n, m)), TimeGrid(cuts))
            durations = np.round(rng.uniform(0, 11, n), 1)
            events = rng.integers(0, 2, n)
            events[rng.integers(0, n)] = 1

            def surv_at(i, t):
                return float(curves.evaluate(float(t))[i])

            try:
                expected = concordance_pairs(surv_at, durations, events)
            except ZeroDivisionError:
                with pytest.raises(MetricUndefinedError):
                    td_concordance(curves, durations, events)
                continue
            got = td_concordance(curves, durations, events)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_invariant_to_monotone_transformation(self):
        # only the ordering of predictions at each event time matters
        rng = np.random.default_rng(1)
        n, m = 30, 4
        hazards = rng.uniform(0, 0.8, (n, m))
        grid = TimeGrid([0.0, 1.0, 2.0, 3.0, 4.0])
        curves = surv_from_hazard(hazards, grid)
        transformed = SurvivalCurve(grid, curves.values**2)
        durations = rng.uniform(0, 4.5, n)
        events = rng.integers(0, 2, n)
        events[0] = 1
        a = td_concordance(curves, durations, events)
        b = td_concordance(transformed, durations, events)
        assert a == pytest.approx(b, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        n, m = 20, 3
        hazards = rng.uniform(0, 0.8, (n, m))
        grid = TimeGrid([0.0, 1.0, 2.0, 3.0])
        durations = rng.uniform(0, 3.5, n)
        events = rng.integers(0, 2, n)
        events[:3] = 1
        base = td_concordance(surv_from_hazard(hazards, grid), durations, events)
        perm = rng.permutation(n)
        shuffled = td_concordance(
            surv_from_hazard(hazards[perm], grid), durations[perm], events[perm]
        )
        assert base == pytest.approx(shuffled, abs=1e-12)


READINGS = ("pmf", "logistic-hazard", "pc-hazard", "cdi", "chi")


def reading(name, data, m=20, seed=3):
    """Curves of an untrained network under one of the five readings."""
    net = init_mlp([data.p, 16, m], seed=seed)
    logits = forward(net, data.covariates)
    grid = equidistant_grid(100.0, m)
    if name == "pmf":
        return surv_from_pmf(logits, grid)
    if name == "pc-hazard":
        return pc_hazard_curve(softplus(logits), grid)
    curve = surv_from_hazard(sigmoid(logits), grid)
    return curve if name == "logistic-hazard" else curve.with_kind(name)


def assert_matches_reference(curves, durations, events):
    durations, events = np.asarray(durations, dtype=float), np.asarray(events)
    before = (durations.copy(), events.copy(), curves.values.copy())
    got = td_concordance(curves, durations, events)
    assert got == reference_td_concordance(curves, durations, events)
    for arr, copy in zip((durations, events, curves.values), before):
        np.testing.assert_array_equal(arr, copy)
    return got


class TestTieAwareConcordance:
    """The chunked concordance equals the per-event loop exactly, not approximately."""

    @pytest.mark.parametrize("name", READINGS)
    def test_jittered_tie_free_times(self, name):
        result = generate_dataset(SimConfig(n=1000, seed=21))
        step = 100.0 / 1000
        jitter = np.random.default_rng(22).uniform(0.0, 1.0, 1000) * step
        durations = result.data.durations - jitter
        events = result.data.events
        assert np.unique(durations[events == 1]).size == events.sum()
        assert_matches_reference(reading(name, result.data), durations, events)

    @pytest.mark.parametrize("name", ["logistic-hazard", "chi"])
    def test_grid_tied_times_without_censoring(self, name):
        result = generate_dataset(SimConfig(n=2000, seed=23, censor_hazard=0.0))
        data = result.data
        assert np.unique(data.durations).size < data.n // 2
        assert_matches_reference(reading(name, data), data.durations, data.events)

    @pytest.mark.parametrize("name", ["pmf", "cdi"])
    def test_events_and_censorings_tied(self, name):
        result = generate_dataset(SimConfig(n=600, seed=24))
        rng = np.random.default_rng(25)
        durations = rng.choice([5.0, 12.5, 30.0, 30.1, 62.0, 100.0], size=600)
        events = rng.integers(0, 2, 600)
        assert_matches_reference(reading(name, result.data), durations, events)

    @pytest.mark.parametrize("n_times", [255, 256, 257, 513])
    def test_chunk_boundaries(self, n_times):
        # Each event time has one or two events; every fifth row is censored.
        n = 2 * n_times + 40
        result = generate_dataset(SimConfig(n=n, seed=26))
        rng = np.random.default_rng(n_times)
        times = np.sort(rng.uniform(1.0, 99.0, n_times))
        durations = np.concatenate([times, rng.choice(times, n - n_times)])
        events = np.ones(n, dtype=int)
        events[n_times::5] = 0
        order = rng.permutation(n)
        durations, events = durations[order], events[order]
        assert np.unique(durations[events == 1]).size == n_times
        assert_matches_reference(reading("cdi", result.data), durations, events)

    def test_single_event(self):
        result = generate_dataset(SimConfig(n=50, seed=27))
        durations = np.linspace(1.0, 90.0, 50)
        events = np.zeros(50, dtype=int)
        events[17] = 1
        assert_matches_reference(reading("pc-hazard", result.data), durations, events)

    @pytest.mark.parametrize("events", [[0, 0, 0, 0], [0, 0, 1, 1]])
    def test_undefined_cases(self, events):
        # No events; or events only at the largest time, where nothing is left.
        curves = reading("chi", generate_dataset(SimConfig(n=4, seed=28)).data)
        durations = [3.0, 7.0, 9.0, 9.0]
        for metric in (td_concordance, reference_td_concordance):
            with pytest.raises(MetricUndefinedError):
                metric(curves, durations, events)


class TestBrier:
    def test_perfect_oracle_curves_score_zero(self):
        durations = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.ones(4, dtype=int)
        cuts = np.concatenate([[0.0], durations])
        values = (cuts[None, 1:] < durations[:, None]).astype(float)
        curves = SurvivalCurve(TimeGrid(cuts), values)
        censor_km = km.fit(durations, 1 - events)
        grid = EvalGrid(np.linspace(0.5, 4.0, 20))
        assert integrated_brier_score(curves, durations, events, grid, censor_km) == 0.0

    def test_constant_half_scores_quarter(self):
        durations = np.linspace(1, 5, 10)
        events = np.ones(10, dtype=int)
        # the single cut sits before every evaluation time, so the prediction
        # is 0.5 everywhere it is scored
        curves = SurvivalCurve(TimeGrid([0.0, 0.5]), np.full((10, 1), 0.5))
        censor_km = km.fit(durations, 1 - events)
        grid = EvalGrid(np.linspace(1.0, 5.0, 30))
        bs, dropped = brier_scores(curves, durations, events, grid, censor_km)
        np.testing.assert_allclose(bs, 0.25, atol=1e-12)
        assert dropped == 0
        ibs = integrated_brier_score(curves, durations, events, grid, censor_km)
        assert ibs == pytest.approx(0.25, abs=1e-12)

    def test_five_individual_censored_example_matches_oracle(self):
        durations = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.array([1, 0, 1, 0, 1])
        hazards = np.array(
            [
                [0.1, 0.2, 0.1, 0.3, 0.2],
                [0.05, 0.1, 0.2, 0.1, 0.4],
                [0.3, 0.1, 0.1, 0.1, 0.1],
                [0.2, 0.2, 0.2, 0.2, 0.2],
                [0.01, 0.02, 0.3, 0.1, 0.5],
            ]
        )
        grid = TimeGrid([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        curves = surv_from_hazard(hazards, grid)
        censor_km = km.fit(durations, 1 - events)
        times = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        eval_grid = EvalGrid(times)

        g_before = {i: km.survival_before(censor_km, durations[i]) for i in range(5)}
        g_at = {t: km.survival_at(censor_km, t) for t in times}

        def surv_at(i, t):
            return float(curves.evaluate(float(t))[i])

        expected_bs = brier_direct(surv_at, durations, events, times, g_before, g_at)
        bs, dropped = brier_scores(curves, durations, events, eval_grid, censor_km)
        np.testing.assert_allclose(bs, expected_bs, atol=1e-12)
        expected_ibs = trapezoid(expected_bs, list(times))
        got = integrated_brier_score(curves, durations, events, eval_grid, censor_km)
        assert got == pytest.approx(expected_ibs, abs=1e-12)

    def test_no_censoring_reduces_to_unweighted(self):
        rng = np.random.default_rng(3)
        n = 15
        durations = rng.uniform(0.5, 5, n)
        events = np.ones(n, dtype=int)
        curves = surv_from_hazard(rng.uniform(0, 0.5, (n, 5)), TimeGrid(np.linspace(0, 6, 6)))
        censor_km = km.fit(durations, np.zeros(n, dtype=int))
        times = np.linspace(0.6, 4.9, 12)
        bs, dropped = brier_scores(curves, durations, events, EvalGrid(times), censor_km)
        assert dropped == 0
        surv = curves.evaluate(times)
        unweighted = np.mean(
            np.where(durations[:, None] <= times[None, :], surv**2, (1 - surv) ** 2),
            axis=0,
        )
        np.testing.assert_allclose(bs, unweighted, atol=1e-12)

    def test_zero_weight_terms_dropped_and_counted(self):
        # a censoring curve fitted on a reference sample can reach zero inside
        # the evaluated fold's range; the affected at-risk term is dropped
        censor_km = km.fit([1.0, 2.0], [1, 1])
        assert km.survival_at(censor_km, 2.5) == 0.0
        durations = np.array([1.5, 3.0])
        events = np.array([1, 1])
        curves = SurvivalCurve(TimeGrid([0.0, 0.5]), np.full((2, 1), 0.5))
        times = EvalGrid(np.array([1.0, 2.5]))
        bs, dropped = brier_scores(curves, durations, events, times, censor_km)
        assert dropped == 1
        assert np.all(np.isfinite(bs))

    def test_same_fold_weights_never_vanish(self):
        # fitted on the evaluated fold itself, the flipped-indicator curve can
        # only hit zero after the last at-risk individual, so nothing drops
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            durations = np.round(rng.uniform(0.5, 8, n), 1)
            events = rng.integers(0, 2, n)
            events[rng.integers(0, n)] = 1
            curves = SurvivalCurve(TimeGrid([0.0, 0.1]), np.full((n, 1), 0.5))
            censor_km = km.fit(durations, 1 - events)
            grid = EvalGrid(np.linspace(0.5, 8.0, 9))
            _, dropped = brier_scores(curves, durations, events, grid, censor_km)
            assert dropped == 0


class TestMse:
    def test_exact_match_is_zero(self):
        curves = step_curves([0, 1, 2], [[0.9, 0.5]])
        truth = curves.evaluate(np.array([0.5, 1.5]))
        grid = EvalGrid(np.array([0.5, 1.5]))
        assert mse_vs_truth(curves, truth, grid) == 0.0

    def test_constant_offset(self):
        curves = step_curves([0, 1, 2], [[0.8, 0.6]])
        times = EvalGrid(np.array([0.5, 1.5]))
        truth = curves.evaluate(times.times) - 0.1
        assert mse_vs_truth(curves, truth, times) == pytest.approx(0.01, abs=1e-12)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(4)
        curves = surv_from_hazard(rng.uniform(0, 0.5, (6, 4)), TimeGrid(np.arange(5.0)))
        times = EvalGrid(np.sort(rng.uniform(0, 4, 9)))
        truth = rng.uniform(0, 1, (6, 9))
        est = curves.evaluate(times.times)
        expected = mse_two_loops(est.tolist(), truth.tolist())
        assert mse_vs_truth(curves, truth, times) == pytest.approx(expected, abs=1e-14)

    def test_shape_mismatch(self):
        curves = step_curves([0, 1, 2], [[0.9, 0.5]])
        with pytest.raises(ValidationError):
            mse_vs_truth(curves, np.zeros((2, 2)), EvalGrid(np.array([0.5, 1.5])))

    @pytest.mark.parametrize("kind", ["step", "cdi", "chi", "pc-hazard"])
    def test_blocked_rows_equal_the_direct_mean(self, kind):
        # 4,100 rows span a full block of 4,096 and a partial one.
        rng = np.random.default_rng(7)
        grid = TimeGrid(np.linspace(0.0, 10.0, 9))
        eta = rng.uniform(0.0, 0.4, (4100, 8))
        if kind == "pc-hazard":
            curves = pc_hazard_curve(eta, grid)
        else:
            curves = surv_from_hazard(1.0 - np.exp(-eta), grid).with_kind(kind)
        times = np.linspace(0.05, 11.0, 37)
        truth = rng.uniform(0.0, 1.0, (4100, 37))
        # Bound to a name as in the unblocked code: numpy may otherwise reuse
        # the column-major evaluate result in place, which sums in another order.
        surv = curves.evaluate(times)
        expected = np.mean((surv - truth) ** 2)
        assert mse_vs_truth(curves, truth, EvalGrid(times)) == expected


class TestEvalGrid:
    def test_equidistant_spans_observations(self):
        grid = EvalGrid.equidistant(np.array([2.0, 7.0, 4.0]), 50)
        assert grid.times[0] == 2.0 and grid.times[-1] == 7.0
        assert grid.times.size == 50

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            EvalGrid(np.array([1.0, 1.0]))


class TestReport:
    def test_record_shape(self):
        rec = report("integrated_brier_score", 0.125, 100, 3)
        assert rec == {
            "metric": "integrated_brier_score",
            "value": 0.125,
            "n": 100,
            "dropped_terms": 3,
        }
