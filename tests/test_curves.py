import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_evaluate
from survnet.errors import ValidationError
from survnet.grid import TimeGrid, locate_times
from survnet.losses import sigmoid, softplus
from survnet.curves import (
    KINDS,
    SurvivalCurve,
    pc_hazard_curve,
    pmf_probs,
    surv_from_hazard,
    surv_from_pmf,
    write_curves_csv,
)


GRID2 = TimeGrid([0, 10, 20])


class TestSurvFromHazard:
    def test_two_intervals(self):
        curve = surv_from_hazard([0.1, 0.2], GRID2)
        np.testing.assert_allclose(curve.values, [[0.9, 0.72]], atol=1e-15)

    def test_zero_hazard_is_flat_one(self):
        curve = surv_from_hazard(np.zeros(4), TimeGrid([0, 1, 2, 3, 4]))
        np.testing.assert_array_equal(curve.values, np.ones((1, 4)))

    def test_absorbing_one(self):
        curve = surv_from_hazard([1.0, 0.3], GRID2)
        np.testing.assert_array_equal(curve.values, [[0.0, 0.0]])

    def test_out_of_range_hazard(self):
        with pytest.raises(ValidationError):
            surv_from_hazard([1.5, 0.0], GRID2)

    @pytest.mark.parametrize("hazards", [[np.nan, 0.1], [0.1, np.nan]])
    def test_nan_hazard_rejected(self, hazards):
        with pytest.raises(ValidationError, match="hazards must lie in"):
            surv_from_hazard(hazards, GRID2)


class TestSurvFromPmf:
    def test_uniform_softmax(self):
        curve = surv_from_pmf(np.zeros((1, 2)), GRID2)
        np.testing.assert_allclose(curve.values, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_mass_concentrates_at_first_cut(self):
        curve = surv_from_pmf(np.array([[50.0, 0.0]]), GRID2)
        assert np.all(curve.values < 1e-20)

    def test_infinite_logits_share_the_mass(self):
        logits = [[np.inf, 0.0], [np.inf, np.inf], [-np.inf, 0.0]]
        curve = surv_from_pmf(logits, GRID2)
        np.testing.assert_array_equal(curve.values, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.5]])
        with pytest.raises(ValidationError, match="must lie in"):
            surv_from_pmf([[np.nan, np.inf]], GRID2)

    def test_normalization(self):
        rng = np.random.default_rng(0)
        for m in (1, 5, 25):
            logits = rng.normal(scale=3, size=(40, m))
            probs = pmf_probs(logits)
            total = probs[:, :m].sum(axis=1) + probs[:, m]
            np.testing.assert_allclose(total, 1.0, atol=1e-10)
            # density equals successive survival drops
            grid = TimeGrid(np.arange(m + 1, dtype=float))
            curve = surv_from_pmf(logits, grid)
            full = np.concatenate([np.ones((40, 1)), curve.values], axis=1)
            np.testing.assert_allclose(-np.diff(full, axis=1), probs[:, :m], atol=1e-12)


class TestPcHazardCurve:
    def test_closed_form_midpoint(self):
        assert pc_hazard_curve([0.5, 1.0], GRID2).evaluate(15)[0] == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_at_zero(self):
        assert pc_hazard_curve([0.5, 1.0], GRID2).evaluate(0.0)[0] == 1.0

    def test_full_grid(self):
        assert pc_hazard_curve([0.5, 1.0], GRID2).evaluate(20.0)[0] == pytest.approx(
            np.exp(-1.5), abs=1e-15
        )

    def test_beyond_grid_clamps(self):
        assert pc_hazard_curve([0.5, 1.0], GRID2).evaluate(35.0)[0] == pytest.approx(
            np.exp(-1.5), abs=1e-15
        )

    @pytest.mark.parametrize("eta", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_mass_rejected(self, eta):
        with pytest.raises(ValidationError, match="hazard masses must be nonnegative"):
            pc_hazard_curve(eta, GRID2)

    def test_width_must_match_the_grid(self):
        with pytest.raises(ValidationError, match="grid has 2 intervals"):
            pc_hazard_curve([0.5, 1.0, 0.2], GRID2)

    def test_equals_the_checked_constructor(self):
        # the values pass the constructor's checks unchanged; the masses are kept as given
        rng = np.random.default_rng(5)
        eta = np.concatenate([rng.uniform(0, 3, (30, 2)), [[0.0, 0.0], [np.inf, 1.0]]])
        curve = pc_hazard_curve(eta, GRID2)
        built = SurvivalCurve(GRID2, np.exp(-np.cumsum(eta, axis=1)), "step")
        for got, want in ((curve.values, built.values), (curve.eta, eta)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    def test_close_to_the_piecewise_exponential_formula(self):
        # exp(-(H[k-1] + eta[k] * rho)), the per-interval form of the same curve
        curve = irregular_curve("pc-hazard", 300, 11)
        cuts = curve.grid.cuts
        between = np.random.default_rng(11).uniform(0, 1.5 * cuts[-1], 500)
        ts = np.concatenate([[0.0], cuts, between])
        k, rho = locate_times(ts, curve.grid)
        base = np.concatenate([np.zeros((curve.n, 1)), np.cumsum(curve.eta, axis=1)], axis=1)
        old = np.exp(-(base[:, k - 1] + curve.eta[:, k - 1] * rho))
        np.testing.assert_allclose(curve.evaluate(ts), old, atol=1e-12, rtol=0)

    def test_infinite_mass_reads_zero_from_its_interval_on(self):
        eta = np.array([[np.inf, 1.0], [0.5, np.inf], [0.5, 1.0]])
        ts = np.array([0.0, 1e-300, 5.0, 10.0, 10.5, 15.0, 20.0, 30.0])
        got = pc_hazard_curve(eta, GRID2).evaluate(ts)
        assert (got[:, 0] == 1.0).all()
        assert (got[0, 1:] == 0.0).all()
        np.testing.assert_array_equal(got[1, :4], np.exp(-0.05 * ts[:4]))
        assert (got[1, 4:] == 0.0).all()
        assert (got[2] > 0.0).all()


class TestInterpolate:
    def test_cdi_linear_midpoint(self):
        curve = SurvivalCurve(GRID2, [0.8, 0.4])
        assert curve.with_kind("cdi").evaluate(15.0)[0] == pytest.approx(0.6, abs=1e-15)

    def test_chi_geometric_midpoint(self):
        curve = SurvivalCurve(GRID2, [0.8, 0.4])
        assert curve.with_kind("chi").evaluate(15.0)[0] == pytest.approx(
            np.sqrt(0.32), abs=1e-12
        )

    def test_anchored_at_grid_points(self):
        rng = np.random.default_rng(1)
        hazards = rng.uniform(0, 0.6, (5, 6))
        grid = TimeGrid(np.cumsum(np.concatenate([[0], rng.uniform(0.5, 3, 6)])))
        grid = TimeGrid(grid.cuts - grid.cuts[0])
        curve = surv_from_hazard(hazards, grid)
        for scheme in ("cdi", "chi"):
            at_cuts = curve.with_kind(scheme).evaluate(grid.cuts[1:])
            np.testing.assert_allclose(at_cuts, curve.values, atol=1e-12)

    def test_cdi_dominates_chi_inside_intervals(self):
        rng = np.random.default_rng(2)
        hazards = rng.uniform(0.05, 0.7, (8, 5))
        grid = TimeGrid(np.linspace(0, 10, 6))
        curve = surv_from_hazard(hazards, grid)
        ts = np.linspace(0.01, 9.99, 137)
        cdi = curve.with_kind("cdi").evaluate(ts)
        chi = curve.with_kind("chi").evaluate(ts)
        assert np.all(cdi - chi >= -1e-12)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            SurvivalCurve(GRID2, [0.8, 0.4]).with_kind("cubic").evaluate(5.0)

    def test_pc_hazard_needs_masses(self):
        with pytest.raises(ValidationError, match="without hazard masses"):
            SurvivalCurve(GRID2, [0.8, 0.4]).with_kind("pc-hazard")

    @pytest.mark.parametrize("kind", KINDS)
    def test_with_kind_equals_the_checked_constructor(self, kind):
        pc = pc_hazard_curve([[0.5, 1.0], [0.0, 2.0]], GRID2)
        for curve in (pc, pc.with_kind("step")):
            got = curve.with_kind(kind)
            if kind == "pc-hazard":
                want = pc_hazard_curve(curve.eta, GRID2)
            else:
                want = SurvivalCurve(GRID2, curve.values, kind)
            assert (got.grid, got.kind) == (want.grid, want.kind)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.eta.tobytes() == pc.eta.tobytes()
            assert np.array_equal(got.evaluate([0.0, 5.0, 15.0, 30.0]),
                                  want.evaluate([0.0, 5.0, 15.0, 30.0]))


class TestMonotonicityAndIdentity:
    def test_all_kinds_non_increasing_random_models(self):
        rng = np.random.default_rng(3)
        n, m = 1000, 7
        grid = TimeGrid(np.cumsum(np.concatenate([[0], rng.uniform(0.2, 4, m)])))
        hazards = rng.uniform(0, 1, (n, m))
        eta = rng.uniform(0, 2, (n, m))
        ts = np.sort(rng.uniform(0, grid.t_max * 1.1, 73))
        step = surv_from_hazard(hazards, grid)
        for curve in (step, step.with_kind("cdi"), step.with_kind("chi"),
                      pc_hazard_curve(eta, grid)):
            values = curve.evaluate(ts)
            assert np.all(np.diff(values, axis=1) <= 1e-12)
            assert np.all(values >= 0) and np.all(values <= 1 + 1e-12)

    def test_chi_equals_pc_hazard_with_matched_masses(self):
        rng = np.random.default_rng(4)
        hazards = rng.uniform(0.01, 0.8, (20, 6))
        grid = TimeGrid(np.cumsum(np.concatenate([[0], rng.uniform(0.5, 5, 6)])))
        step = surv_from_hazard(hazards, grid)
        full = np.concatenate([np.ones((20, 1)), step.values], axis=1)
        cum_haz = -np.log(np.maximum(full, 1e-12))
        eta = np.diff(cum_haz, axis=1)
        pc = pc_hazard_curve(eta, grid)
        ts = rng.uniform(0, grid.t_max, 1000)
        np.testing.assert_allclose(
            step.with_kind("chi").evaluate(ts), pc.evaluate(ts), atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_infinite_outputs_read_one_at_zero_and_finite_after(self, kind):
        # rows of all +inf, all -inf, and each sign in turn, as a network may output
        outputs = np.array([[np.inf] * 3, [-np.inf] * 3, [np.inf, -np.inf, np.inf],
                            [-np.inf, np.inf, -np.inf], [np.inf, 0.3, -1.0]])
        grid = TimeGrid([0.0, 1.0, 2.5, 4.0])
        curves = ([pc_hazard_curve(softplus(outputs), grid)] if kind == "pc-hazard" else
                  [surv_from_hazard(sigmoid(outputs), grid).with_kind(kind),
                   surv_from_pmf(outputs, grid).with_kind(kind)])
        ts = np.array([0.0, 1e-300, 0.5, 1.0, 1.7, 2.5, 3.0, 4.0, 9.0])
        for curve in curves:
            got = curve.evaluate(ts)
            assert (got[:, 0] == 1.0).all()
            assert ((got >= 0.0) & (got <= 1.0)).all()


class TestSurvivalCurveContainer:
    def test_rejects_increasing_values(self):
        with pytest.raises(ValidationError):
            SurvivalCurve(GRID2, [0.4, 0.8])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            SurvivalCurve(GRID2, [1.2, 0.8])

    @pytest.mark.parametrize("values, eta", [
        ([[np.nan, 0.5]], None), ([[0.9, np.nan]], None),
        ([[0.9, 0.5]], [[np.nan, 0.1]]),
    ])
    def test_nan_values_or_masses_rejected(self, values, eta):
        # masses reach a curve only through pc_hazard_curve
        with pytest.raises(ValidationError, match="must lie in|nonnegative"):
            SurvivalCurve(GRID2, values) if eta is None else pc_hazard_curve(eta, GRID2)

    def test_pc_hazard_kind_rejected(self):
        with pytest.raises(ValidationError, match="pc_hazard_curve"):
            SurvivalCurve(GRID2, [0.9, 0.8], kind="pc-hazard")

    @pytest.mark.parametrize("build, message", [
        (lambda path: SurvivalCurve(GRID2, [[0.9, 0.8, 0.7]]),
         "values have 3 columns, grid has 2 intervals"),
        (lambda path: surv_from_pmf([[0.0, 0.0, 0.0]], GRID2),
         "logits have 3 columns, grid has 2 intervals"),
        (lambda path: write_curves_csv(path, [1.0, 2.0], [[0.5]]),
         "values must have one column per evaluation time"),
    ], ids=["constructor", "pmf", "csv"])
    def test_column_counts_checked(self, tmp_path, build, message):
        with pytest.raises(ValidationError) as info:
            build(tmp_path / "curves.csv")
        assert str(info.value) == message
        assert not (tmp_path / "curves.csv").exists()

    def test_repr_names_kind_and_sizes(self):
        curve = pc_hazard_curve([[0.1, 0.2]] * 3, GRID2)
        assert repr(curve) == "SurvivalCurve(kind='pc-hazard', n=3, m=2)"

    def test_step_evaluation_right_continuous(self):
        curve = SurvivalCurve(GRID2, [0.8, 0.4])
        np.testing.assert_allclose(
            curve.evaluate(np.array([0.0, 9.99, 10.0, 10.01, 20.0, 25.0]))[0],
            [1.0, 1.0, 0.8, 0.8, 0.4, 0.4],
        )

    def test_single_vector_treated_as_one_row(self):
        curve = SurvivalCurve(GRID2, [0.8, 0.4])
        assert curve.n == 1
        assert curve.evaluate(5.0).shape == (1,)


def random_curve(kind, n=40, m=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 12.0, m + 1))
    eta = rng.uniform(0.0, 0.5, (n, m))
    if kind == "pc-hazard":
        return pc_hazard_curve(eta, grid)
    return surv_from_hazard(1.0 - np.exp(-eta), grid).with_kind(kind)


@pytest.mark.parametrize("kind", ["step", "cdi", "chi", "pc-hazard"])
class TestRowSelection:
    TIMES = np.array([0.0, 0.7, 2.0, 5.5, 11.9, 12.0, 30.0])

    def test_rows_are_the_parent_rows(self, kind):
        curve = random_curve(kind)
        part = curve.rows(7, 23)
        assert (part.grid, part.kind, part.n) == (curve.grid, kind, 16)
        np.testing.assert_array_equal(part.values, curve.values[7:23])
        if kind == "pc-hazard":
            np.testing.assert_array_equal(part.eta, curve.eta[7:23])
        else:
            assert part.eta is None
        assert np.array_equal(part.evaluate(self.TIMES), curve.evaluate(self.TIMES)[7:23])

    def test_take_follows_the_indices(self, kind):
        curve = random_curve(kind)
        order = np.random.default_rng(1).permutation(curve.n)
        part = curve.take(order)
        np.testing.assert_array_equal(part.values, curve.values[order])
        if kind == "pc-hazard":
            np.testing.assert_array_equal(part.eta, curve.eta[order])
        assert np.array_equal(part.evaluate(self.TIMES), curve.evaluate(self.TIMES)[order])
        with pytest.raises(IndexError):
            curve.take([curve.n])
        with pytest.raises(ValidationError):
            curve.take(np.zeros((2, 2), dtype=int))

    def test_selections_stay_read_only(self, kind):
        curve = random_curve(kind)
        for part in (curve.rows(3, 9), curve.take([5, 0, 5])):
            for arr in (part.values, part.eta):
                if arr is not None:
                    with pytest.raises(ValueError):
                        arr[0, 0] = 0.5

    def test_nan_times_rejected(self, kind):
        curve = random_curve(kind)
        for times in (np.nan, [1.0, np.nan], [np.nan, 2.0]):
            with pytest.raises(ValidationError):
                curve.evaluate(times)


def irregular_curve(kind, n, seed):
    """Curves on an uneven grid, with flat stretches and survival below the floor."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 3.0, m))]))
    eta = rng.uniform(0.0, 0.8, (n, m))
    eta[rng.random((n, m)) < 0.1] = 0.0
    eta[rng.random((n, m)) < 0.05] = 40.0
    if kind == "pc-hazard":
        return pc_hazard_curve(eta, grid)
    return surv_from_hazard(1.0 - np.exp(-eta), grid).with_kind(kind)


def draw_times(data, cuts):
    """Unsorted times with repeats: 0, the cuts, points between and past the last cut."""
    point = st.one_of(
        st.just(0.0),
        st.sampled_from(cuts.tolist()),
        st.floats(0.0, 1.5 * cuts[-1], allow_nan=False),
        st.just(2.0 * cuts[-1] + 1.0),
    )
    return np.array(data.draw(st.lists(point, min_size=1, max_size=12)))


SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("kind", KINDS)
class TestEvaluateKernel:
    """The cached, in-place reading equals the rebuilt, allocating one exactly."""

    @settings(max_examples=5)
    @given(seed=SEEDS, data=st.data())
    def test_owned_result_equals_oracle(self, kind, n, seed, data):
        curve = irregular_curve(kind, n, seed)
        times = draw_times(data, curve.grid.cuts)
        got = curve.evaluate(times)
        assert np.array_equal(got, reference_evaluate(curve, times))
        assert got.flags.f_contiguous and got.flags.owndata
        assert np.array_equal(curve.evaluate(times[0]), reference_evaluate(curve, times[0]))

    @settings(max_examples=5)
    @given(seed=SEEDS, data=st.data())
    def test_out_view_of_a_larger_buffer(self, kind, n, seed, data):
        curve = irregular_curve(kind, n, seed)
        times = draw_times(data, curve.grid.cuts)
        size = n * times.size
        buf = np.full(size + 2 * n + 3, -7.0)
        out = buf[n : n + size].reshape(times.size, n).T
        assert curve.evaluate(times, out=out) is out
        assert np.array_equal(out, reference_evaluate(curve, times))
        assert (buf[:n] == -7.0).all() and (buf[n + size :] == -7.0).all()

    @settings(max_examples=5)
    @given(seed=SEEDS, data=st.data())
    def test_rows_and_take_equal_oracle_rows(self, kind, n, seed, data):
        curve = irregular_curve(kind, n, seed)
        times = draw_times(data, curve.grid.cuts)
        expected = reference_evaluate(curve, times)
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        assert np.array_equal(curve.rows(a, b).evaluate(times), expected[a:b])
        order = np.random.default_rng(seed).integers(0, n, n)
        assert np.array_equal(curve.take(order).evaluate(times), expected[order])

    def test_bad_out_rejected(self, kind, n):
        curve = irregular_curve(kind, n, 0)
        times = np.array([0.5, 1.0, 2.0])
        for out in (
            np.empty((n, 4), order="F"),
            np.empty((n + 1, 3), order="F"),
            np.empty((n, 3), order="F", dtype=np.float32),
            np.empty((3, n)).T.tolist(),
        ):
            with pytest.raises(ValidationError):
                curve.evaluate(times, out=out)
        if n > 1:
            with pytest.raises(ValidationError):
                curve.evaluate(times, out=np.empty((n, 3)))


class TestCdiHazard:
    def test_constant_density_increasing_hazard(self):
        curve = SurvivalCurve(GRID2, [0.8, 0.4])
        ts = np.array([2.0, 5.0, 8.0])
        cdi = curve.with_kind("cdi")
        # the reading is linear within (0, 10], so this difference is the
        # density exactly; hazard is density over survival
        density = cdi.evaluate(ts - 0.5)[0] - cdi.evaluate(ts + 0.5)[0]
        h = density / cdi.evaluate(ts)[0]
        # density 0.02 per unit in the first interval, survival shrinking
        np.testing.assert_allclose(h, 0.02 / (1 - 0.02 * ts), atol=1e-12)
        assert np.all(np.diff(h) > 0)


class TestExport:
    def test_curve_csv_roundtrip(self, tmp_path):
        curve = SurvivalCurve(GRID2, [[0.8, 0.4], [0.9, 0.5]])
        ts = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        path = tmp_path / "curves.csv"
        write_curves_csv(path, ts, curve.evaluate(ts))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,s0,s1"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], ts)
        np.testing.assert_array_equal(parsed[:, 1:], curve.evaluate(ts).T)

    def test_bytes_equal_csv_writer_output(self, tmp_path):
        rng = np.random.default_rng(4)
        ts = np.array([0.0, 1e-7, 2.5, 1 / 3, 1e5])
        values = np.sort(rng.uniform(0, 1, (3, ts.size)), axis=1)[:, ::-1]
        path, expected = tmp_path / "fast.csv", tmp_path / "writer.csv"
        write_curves_csv(path, ts, values)
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "s0", "s1", "s2"])
            for q, t in enumerate(ts):
                writer.writerow([repr(float(t)), *(repr(float(v)) for v in values[:, q])])
        assert path.read_bytes() == expected.read_bytes()
