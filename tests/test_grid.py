import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survnet.dataset import SurvivalDataset
from survnet.errors import ValidationError
from survnet.grid import (
    DiscreteLabels,
    GridDeduplicationWarning,
    TimeGrid,
    continuous_labels,
    discretize,
    equidistant_grid,
    km_quantile_grid,
    locate_times,
)

from oracles import km_quantile_search


def dataset_from(durations, events):
    durations = np.asarray(durations, dtype=float)
    return SurvivalDataset(durations, events, np.zeros((durations.size, 1)))


class TestEquidistantGrid:
    def test_basic(self):
        np.testing.assert_array_equal(
            equidistant_grid(100, 5).cuts, [0, 20, 40, 60, 80, 100]
        )

    def test_minimal(self):
        np.testing.assert_array_equal(equidistant_grid(1, 1).cuts, [0, 1])

    def test_many_points_equidistant(self):
        g = equidistant_grid(100, 250)
        assert g.cuts.size == 251
        spacing = np.diff(g.cuts)
        assert spacing.max() - spacing.min() < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            equidistant_grid(0, 5)
        with pytest.raises(ValidationError):
            equidistant_grid(10, 0)


class TestKmQuantileGrid:
    def test_ten_events_two_intervals(self):
        data = dataset_from(np.arange(1.0, 11.0), np.ones(10, dtype=int))
        g = km_quantile_grid(data, 2)
        np.testing.assert_array_equal(g.cuts, [0, 5, 10])
        assert g.cuts.tolist() == km_quantile_search(data.durations, data.events, 2)

    def test_ten_events_ten_intervals(self):
        data = dataset_from(np.arange(1.0, 11.0), np.ones(10, dtype=int))
        g = km_quantile_grid(data, 10)
        np.testing.assert_array_equal(g.cuts, np.arange(11.0))
        assert g.cuts.tolist() == km_quantile_search(data.durations, data.events, 10)

    def test_degenerate_all_equal_durations(self):
        data = dataset_from(np.full(6, 7.0), np.ones(6, dtype=int))
        with pytest.warns(GridDeduplicationWarning):
            g = km_quantile_grid(data, 4)
        np.testing.assert_array_equal(g.cuts, [0, 7])

    def test_no_events_is_an_error(self):
        data = dataset_from([1.0, 2.0], [0, 0])
        with pytest.raises(ValidationError):
            km_quantile_grid(data, 3)

    def test_matches_quantile_search_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 60))
            durations = np.round(rng.uniform(0.5, 30, n), 1)
            events = rng.integers(0, 2, n)
            events[rng.integers(0, n)] = 1
            data = dataset_from(durations, events)
            m = int(rng.integers(1, 9))
            expected = km_quantile_search(durations, events, m)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridDeduplicationWarning)
                g = km_quantile_grid(data, m)
            np.testing.assert_allclose(g.cuts, expected, atol=0)

    def test_censor_free_distinct_times_reproduce_event_times(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.choice(np.arange(1, 300), size=17, replace=False)).astype(float)
        data = dataset_from(times, np.ones(17, dtype=int))
        g = km_quantile_grid(data, 17)
        np.testing.assert_array_equal(g.cuts, np.concatenate([[0.0], times]))


class TestDiscretize:
    grid = TimeGrid([0, 20, 40, 60, 80, 100])

    def test_event_moves_up(self):
        data = dataset_from([25.0], [1])
        labels = discretize(data, self.grid)
        assert labels.idx[0] == 2

    def test_censoring_moves_down(self):
        data = dataset_from([25.0], [0])
        labels = discretize(data, self.grid)
        assert labels.idx[0] == 1

    def test_boundary_belongs_to_lower_interval(self):
        data = dataset_from([20.0], [1])
        labels = discretize(data, self.grid)
        assert labels.idx[0] == 1

    def test_fraction_carried(self):
        data = dataset_from([25.0, 30.0], [1, 0])
        labels = discretize(data, self.grid)
        np.testing.assert_allclose(labels.frac, [0.25, 0.5])

    def test_beyond_grid_clamped(self):
        # both clamp onto the last cut; the censoring was alive through every
        # interval, so it keeps the full index rather than stepping back
        data = dataset_from([150.0, 150.0], [1, 0])
        labels = discretize(data, self.grid)
        assert labels.idx.tolist() == [5, 5]

    def test_censoring_on_a_cut_stays_there(self):
        data = dataset_from([40.0, 100.0], [0, 0])
        labels = discretize(data, self.grid)
        assert labels.idx.tolist() == [2, 5]

    def test_round_direction_property(self):
        rng = np.random.default_rng(1)
        durations = rng.uniform(0, 100, 200)
        events = rng.integers(0, 2, 200)
        labels = discretize(dataset_from(durations, events), self.grid)
        snapped = self.grid.cuts[labels.idx]
        assert np.all(snapped[events == 1] >= durations[events == 1] - 1e-12)
        assert np.all(snapped[events == 0] <= durations[events == 0] + 1e-12)

    def test_censoring_at_zero_keeps_record(self):
        labels = discretize(dataset_from([0.0], [0]), self.grid)
        assert labels.idx[0] == 0 and len(labels) == 1


class TestContinuousLabels:
    grid = TimeGrid([0, 10, 20])

    def test_exact_position(self):
        labels = continuous_labels(dataset_from([15.0], [0]), self.grid)
        assert labels.idx[0] == 2
        assert labels.frac[0] == pytest.approx(0.5)

    def test_zero_time(self):
        labels = continuous_labels(dataset_from([0.0], [0]), self.grid)
        assert labels.idx[0] == 1 and labels.frac[0] == 0.0


class TestLocate:
    grid = TimeGrid([0, 10, 20])

    def test_interior(self):
        assert locate_times(15, self.grid) == (2, 0.5)

    def test_boundary(self):
        kappa, rho = locate_times(10, self.grid)
        assert (kappa, rho) == (1, 1.0)

    def test_clamp(self):
        assert locate_times(25, self.grid) == (2, 1.0)
        kappa, rho = locate_times([5, 20, 25, 1e9], self.grid)
        assert kappa.tolist() == [1, 2, 2, 2] and rho.tolist() == [0.5, 1.0, 1.0, 1.0]

    def test_zero(self):
        assert locate_times(0, self.grid) == (1, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            locate_times(-1, self.grid)
        with pytest.raises(ValidationError):
            locate_times([5, -1e-300], self.grid)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        t1=st.floats(min_value=0, max_value=30, allow_nan=False),
        t2=st.floats(min_value=0, max_value=30, allow_nan=False),
    )
    def test_lexicographic_monotonicity(self, t1, t2):
        lo, hi = sorted((t1, t2))
        k1, r1 = locate_times(lo, self.grid)
        k2, r2 = locate_times(hi, self.grid)
        assert (k1, r1) <= (k2, r2)


class TestDiscreteLabels:
    def test_event_requires_positive_index(self):
        with pytest.raises(ValidationError):
            DiscreteLabels([0], [1], [0.5])

    def test_take(self):
        labels = DiscreteLabels([1, 2, 3], [1, 0, 1], [0.5, 1.0, 0.25])
        sub = labels.take([2, 0])
        assert sub.idx.tolist() == [3, 1]
        assert sub.frac.tolist() == [0.25, 0.5]

    def test_take_equals_validated_construction(self):
        rng = np.random.default_rng(6)
        idx = rng.integers(0, 9, 50)
        labels = DiscreteLabels(idx, rng.integers(0, 2, 50) * (idx >= 1), rng.uniform(0, 1, 50))
        sel = rng.permutation(50)[:17]
        sub = labels.take(sel)
        built = DiscreteLabels(labels.idx[sel], labels.event[sel], labels.frac[sel])
        for name in ("idx", "event", "frac"):
            got, want = getattr(sub, name), getattr(built, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0
        assert len(labels.take([])) == 0

    def test_take_out_of_range_raises(self):
        labels = DiscreteLabels([1, 2, 3], [1, 0, 1], [0.5, 1.0, 0.25])
        with pytest.raises(IndexError):
            labels.take([0, 3])
        with pytest.raises(ValidationError):
            labels.take(1)


class TestTimeGrid:
    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            TimeGrid([1, 2, 3])

    def test_strictly_increasing(self):
        with pytest.raises(ValidationError):
            TimeGrid([0, 5, 5])

    @pytest.mark.parametrize("cuts", [[0, 5, np.inf], [0, np.nan, 5], [0, 5, np.nan]])
    def test_non_finite_cut_rejected(self, cuts):
        with pytest.raises(ValidationError, match="finite"):
            TimeGrid(cuts)
