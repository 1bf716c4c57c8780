import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survnet import sim
from survnet.dataset import (
    SurvivalDataset,
    fit_standardizer,
    load_csv,
    split,
    write_csv,
)
from survnet.errors import SchemaError, ValidationError


def make_dataset(n=6, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalDataset(
        rng.uniform(0, 10, n), rng.integers(0, 2, n), rng.normal(size=(n, p))
    )


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("duration,event,x0\n1.5,1,0.2\n2.0,0,-1.0\n3.25,1,4.0\n")
        data = load_csv(path)
        assert data.n == 3 and data.p == 1
        np.testing.assert_array_equal(data.durations, [1.5, 2.0, 3.25])
        np.testing.assert_array_equal(data.events, [1, 0, 1])
        np.testing.assert_array_equal(data.covariates[:, 0], [0.2, -1.0, 4.0])

    def test_bad_event_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["duration,event,x0"] + [f"{i}.0,1,0.0" for i in range(1, 5)]
        rows.append("5.0,2,0.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 5"):
            load_csv(path)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "noevents.csv"
        path.write_text("duration,x0\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="event"):
            load_csv(path)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("duration,event,x0\n1.0,1,0.5\noops,0,0.1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(path)

    def test_negative_duration_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("duration,event,x0\n-1.0,1,0.5\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_duration_cites_row(self, tmp_path, raw):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"duration,event,x0\n1.0,1,0.5\n{raw},0,0.1\n")
        with pytest.raises(ValidationError, match="row 2: non-finite duration"):
            load_csv(path)

    def test_simulated_roundtrip_bit_identical(self, tmp_path):
        result = sim.generate_dataset(sim.SimConfig(n=40, seed=3))
        path = tmp_path / "sim.csv"
        write_csv(result.data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.durations, result.data.durations)
        np.testing.assert_array_equal(back.events, result.data.events)
        np.testing.assert_array_equal(back.covariates, result.data.covariates)
        assert back.covariate_names == result.data.covariate_names

    def test_bytes_equal_csv_writer_output(self, tmp_path):
        durations = [0.1, 1e-300, 12.5, 1e16, 1 / 3]
        covariates = [[-0.0, 1e-5], [2.5, -1e300], [np.pi, 0.0], [1.0, 7e22], [-2.0, 0.1]]
        names = ("a,b", 'quote"d')
        data = SurvivalDataset(durations, [1, 0, 1, 0, 0], covariates, names)
        path, expected = tmp_path / "fast.csv", tmp_path / "writer.csv"
        write_csv(data, path)
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["duration", "event", *names])
            for i in range(data.n):
                writer.writerow(
                    [repr(float(data.durations[i])), int(data.events[i]),
                     *(repr(float(v)) for v in data.covariates[i])]
                )
        assert path.read_bytes() == expected.read_bytes()
        assert path.read_bytes().startswith(b'duration,event,"a,b","quote""d"\r\n')


class TestStandardizer:
    def test_closed_form_column(self):
        data = SurvivalDataset([1, 1, 1], [1, 1, 1], np.array([[1.0], [2.0], [3.0]]))
        scaled = fit_standardizer(data).apply(data)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(scaled.covariates[:, 0], expected, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        data = SurvivalDataset([1, 2, 3], [1, 0, 1], np.full((3, 1), 5.0))
        scaled = fit_standardizer(data).apply(data)
        np.testing.assert_array_equal(scaled.covariates, np.zeros((3, 1)))

    def test_idempotent_on_standardized_data(self):
        data = make_dataset(n=50, p=3, seed=1)
        once = fit_standardizer(data).apply(data)
        twice = fit_standardizer(once).apply(once)
        np.testing.assert_allclose(twice.covariates, once.covariates, atol=1e-12)

    def test_dimension_mismatch(self):
        std = fit_standardizer(make_dataset(p=2))
        with pytest.raises(ValidationError):
            std.apply(make_dataset(p=3))


class TestSplit:
    def test_floor_rule_sizes(self):
        train, val, test = split(make_dataset(n=10), (0.8, 0.1, 0.1), seed=1)
        assert (train.n, val.n, test.n) == (8, 1, 1)

    def test_deterministic(self):
        data = make_dataset(n=25)
        a = split(data, (0.6, 0.2, 0.2), seed=7)
        b = split(data, (0.6, 0.2, 0.2), seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.durations, y.durations)
            np.testing.assert_array_equal(x.covariates, y.covariates)

    def test_partition_is_exhaustive_and_disjoint(self):
        data = make_dataset(n=23, p=1, seed=9)
        parts = split(data, (0.5, 0.25, 0.25), seed=3)
        seen = np.concatenate([p.covariates[:, 0] for p in parts])
        assert seen.size == data.n
        np.testing.assert_array_equal(np.sort(seen), np.sort(data.covariates[:, 0]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=6, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_partition_property_any_seed(self, n, seed):
        data = SurvivalDataset(
            np.arange(1, n + 1, dtype=float),
            np.ones(n, dtype=int),
            np.arange(n, dtype=float).reshape(n, 1),
        )
        parts = split(data, (0.5, 0.25, 0.25), seed=seed)
        ids = np.concatenate([p.covariates[:, 0] for p in parts])
        assert ids.size == n and np.unique(ids).size == n

    def test_bad_fractions(self):
        with pytest.raises(ValidationError):
            split(make_dataset(), (0.5, 0.5, 0.5), seed=0)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            split(make_dataset(n=2), (0.4, 0.3, 0.3), seed=0)


class TestValidation:
    def test_event_outside_01(self):
        with pytest.raises(ValidationError):
            SurvivalDataset([1.0], [2], [[0.0]])

    def test_nan_covariate(self):
        with pytest.raises(ValidationError):
            SurvivalDataset([1.0], [1], [[np.nan]])

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration(self, duration):
        with pytest.raises(ValidationError, match="durations contain NaN or Inf"):
            SurvivalDataset([1.0, duration], [1, 0], [[0.0], [1.0]])

    def test_arrays_read_only(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            data.durations[0] = 5.0
