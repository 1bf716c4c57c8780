import numpy as np
import pytest

from survnet import km
from survnet.errors import ValidationError

from oracles import km_product_limit, km_survival_at


class TestFit:
    def test_mixed_censoring_example(self):
        curve = km.fit([1, 2, 3], [1, 0, 1])
        np.testing.assert_array_equal(curve.times, [1, 3])
        np.testing.assert_allclose(curve.surv, [2 / 3, 0.0], atol=1e-15)
        assert km.survival_at(curve, 2.0) == pytest.approx(2 / 3)

    def test_all_events_distinct_times(self):
        curve = km.fit([1, 2, 3, 4], [1, 1, 1, 1])
        np.testing.assert_allclose(curve.surv, [3 / 4, 2 / 4, 1 / 4, 0.0], atol=1e-15)

    def test_all_censored_is_flat_one(self):
        curve = km.fit([1, 2, 3], [0, 0, 0])
        assert curve.times.size == 0
        assert km.survival_at(curve, 100.0) == 1.0

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            km.fit([], [])

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_or_nan_duration_rejected(self, bad):
        with pytest.raises(ValidationError, match="nonnegative"):
            km.fit([1.0, bad], [1, 0])

    @pytest.mark.parametrize("surv", [[0.5, 1.5], [-0.1, -0.2], [0.5, np.nan], [np.nan, 0.5]])
    def test_curve_rejects_survival_outside_unit_interval(self, surv):
        with pytest.raises(ValidationError, match="within"):
            km.KaplanMeierCurve(np.array([1.0, 2.0]), np.array(surv))

    @pytest.mark.parametrize("build, message", [
        (lambda: km.KaplanMeierCurve([1.0, 2.0], [0.5]),
         "times and surv must be 1-d arrays of equal length"),
        (lambda: km.KaplanMeierCurve([2.0, 1.0], [0.75, 0.5]),
         "drop times must be strictly increasing"),
        (lambda: km.fit([1.0, 2.0], [1]),
         "durations and events must be 1-d arrays of equal length"),
    ], ids=["curve-shapes", "curve-order", "fit-shapes"])
    def test_shapes_and_order_checked(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_ties_events_before_censorings(self):
        # the censoring at t=2 stays at risk for the event at t=2
        curve = km.fit([1, 2, 2, 3], [1, 1, 0, 1])
        np.testing.assert_allclose(curve.surv, [3 / 4, 3 / 4 * 2 / 3, 0.0], atol=1e-15)

    def test_matches_rational_oracle_random(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 201))
            durations = np.round(rng.uniform(0, 20, n), 2)
            events = rng.integers(0, 2, n)
            if events.sum() == 0:
                events[0] = 1
            curve = km.fit(durations, events)
            times, surv = km_product_limit(durations, events)
            np.testing.assert_array_equal(curve.times, times)
            np.testing.assert_allclose(
                curve.surv, [float(s) for s in surv], atol=1e-12, rtol=0
            )


class TestSurvivalAt:
    def test_before_first_drop(self):
        curve = km.fit([1, 2, 3], [1, 0, 1])
        assert km.survival_at(curve, 0.0) == 1.0
        assert km.survival_at(curve, 0.999) == 1.0

    def test_beyond_last_time_extends(self):
        curve = km.fit([1, 2, 3], [1, 0, 1])
        assert km.survival_at(curve, 50.0) == 0.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(7)
        curve = km.fit(rng.uniform(0, 5, 60), rng.integers(0, 2, 60))
        ts = np.sort(rng.uniform(0, 6, 200))
        values = km.survival_at(curve, ts)
        assert np.all(np.diff(values) <= 0)

    @pytest.mark.parametrize("evaluate", [km.survival_at, km.survival_before])
    @pytest.mark.parametrize("t", [-1.0, np.nan, [1.0, np.nan]])
    def test_negative_or_nan_time_rejected(self, evaluate, t):
        curve = km.fit([1, 2, 3], [1, 1, 0])
        with pytest.raises(ValidationError, match="nonnegative"):
            evaluate(curve, t)

    def test_left_limit(self):
        curve = km.fit([1, 2, 3], [1, 1, 1])
        assert km.survival_before(curve, 1.0) == 1.0
        assert km.survival_before(curve, 1.5) == pytest.approx(2 / 3)
        assert km.survival_before(curve, 2.0) == pytest.approx(2 / 3)

    def test_oracle_agreement_at_arbitrary_times(self):
        rng = np.random.default_rng(3)
        durations = rng.integers(1, 10, 30).astype(float)
        events = rng.integers(0, 2, 30)
        events[0] = 1
        curve = km.fit(durations, events)
        for t in rng.uniform(0, 12, 25):
            expected = float(km_survival_at(durations, events, t))
            assert km.survival_at(curve, float(t)) == pytest.approx(expected, abs=1e-12)


class TestCensoringCurve:
    def test_flipped_indicators_form_a_valid_curve(self):
        rng = np.random.default_rng(11)
        durations = rng.uniform(0, 8, 80)
        events = rng.integers(0, 2, 80)
        censor = km.fit(durations, 1 - events)
        assert np.all(censor.surv >= 0) and np.all(censor.surv <= 1)
        assert np.all(np.diff(censor.surv) <= 0)
        assert np.all(np.diff(censor.times) > 0)
