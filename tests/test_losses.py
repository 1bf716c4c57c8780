import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survnet.errors import ValidationError
from survnet.grid import DiscreteLabels, TimeGrid, continuous_labels
from survnet.dataset import SurvivalDataset
from survnet.losses import (
    cumsum_head,
    log_softplus,
    nll_logistic_hazard,
    nll_pc_hazard,
    nll_pmf,
    sigmoid,
    softplus,
)

from oracles import (
    logistic_hazard_nll_naive,
    mtlr_nll,
    pc_hazard_nll_naive,
    pmf_nll_naive,
    verbatim_nll_logistic_hazard,
    verbatim_nll_pc_hazard,
    verbatim_nll_pmf,
    verbatim_sigmoid,
)


def random_labels(rng, n, m, with_frac=False):
    idx = rng.integers(1, m + 1, n)
    event = rng.integers(0, 2, n)
    frac = rng.uniform(0.05, 1.0, n) if with_frac else np.ones(n)
    return DiscreteLabels(idx, event, frac)


def finite_difference_grad(loss_fn, logits, labels, eps=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            bumped = logits.copy()
            bumped[i, j] += eps
            up = loss_fn(bumped, labels).value
            bumped[i, j] -= 2 * eps
            down = loss_fn(bumped, labels).value
            grad[i, j] = (up - down) / (2 * eps)
    return grad


class TestLogisticHazard:
    def test_three_interval_event(self):
        hazards = np.array([0.1, 0.2, 0.5])
        logits = np.log(hazards / (1 - hazards))[None, :]
        labels = DiscreteLabels([3], [1], [1.0])
        out = nll_logistic_hazard(logits, labels)
        expected = -(np.log(0.9) + np.log(0.8) + np.log(0.5))
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_index_zero_censoring_contributes_nothing(self):
        logits = np.array([[2.0, -1.0]])
        labels = DiscreteLabels([0], [0], [0.0])
        assert nll_logistic_hazard(logits, labels).value == 0.0
        np.testing.assert_array_equal(
            nll_logistic_hazard(logits, labels).grad, np.zeros((1, 2))
        )

    def test_large_logit_stays_finite(self):
        logits = np.array([[50.0]])
        labels = DiscreteLabels([1], [1], [1.0])
        out = nll_logistic_hazard(logits, labels)
        assert np.isfinite(out.value) and out.value == pytest.approx(0.0, abs=1e-12)

    def test_naive_breaks_at_plus_fifty_stable_does_not(self):
        # a +50 logit before the event index drives the naive log(1 - h) to -inf
        logits = np.array([[50.0, 0.0]])
        idx, event = np.array([2]), np.array([1])
        with np.errstate(divide="ignore"):
            naive = logistic_hazard_nll_naive(logits, idx, event)
        assert not np.isfinite(naive)
        stable = nll_logistic_hazard(logits, DiscreteLabels(idx, event, [1.0]))
        assert np.isfinite(stable.value)

    def test_agrees_with_naive_on_moderate_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, m = int(rng.integers(1, 65)), int(rng.integers(1, 31))
            logits = rng.uniform(-10, 10, (n, m))
            labels = random_labels(rng, n, m)
            ours = nll_logistic_hazard(logits, labels).value
            naive = logistic_hazard_nll_naive(logits, labels.idx, labels.event)
            assert ours == pytest.approx(naive, abs=1e-6)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            nll_logistic_hazard(np.zeros((1, 2)), DiscreteLabels([3], [1], [1.0]))


class TestPmf:
    def test_uniform_event(self):
        labels = DiscreteLabels([1], [1], [1.0])
        out = nll_pmf(np.zeros((1, 2)), labels)
        assert out.value == pytest.approx(-np.log(1 / 3), abs=1e-12)

    def test_uniform_censoring_scores_tail(self):
        labels = DiscreteLabels([1], [0], [1.0])
        out = nll_pmf(np.zeros((1, 2)), labels)
        assert out.value == pytest.approx(-np.log(2 / 3), abs=1e-12)

    def test_concentrated_mass_limit(self):
        labels = DiscreteLabels([1], [1], [1.0])
        out = nll_pmf(np.array([[50.0, 0.0]]), labels)
        assert np.isfinite(out.value) and out.value == pytest.approx(0.0, abs=1e-12)

    def test_censoring_at_index_zero_contributes_nothing(self):
        labels = DiscreteLabels([0], [0], [0.0])
        out = nll_pmf(np.array([[1.0, -2.0, 0.5]]), labels)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad, np.zeros((1, 3)), atol=1e-15)

    def test_agrees_with_naive_on_moderate_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, m = int(rng.integers(1, 65)), int(rng.integers(1, 31))
            logits = rng.uniform(-10, 10, (n, m))
            labels = random_labels(rng, n, m)
            ours = nll_pmf(logits, labels).value
            naive = pmf_nll_naive(logits, labels.idx, labels.event)
            assert ours == pytest.approx(naive, abs=1e-6)

    def test_naive_overflows_at_huge_logits_stable_does_not(self):
        logits = np.array([[800.0, -800.0, 0.0]])
        labels = DiscreteLabels([1], [1], [1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            naive = pmf_nll_naive(logits, labels.idx, labels.event)
        assert not np.isfinite(naive)
        stable = nll_pmf(logits, labels)
        assert np.isfinite(stable.value)
        assert stable.value == pytest.approx(0.0, abs=1e-10)

    def test_finite_for_censored_tails_at_huge_logits(self):
        logits = np.array([[800.0, -800.0, 100.0]])
        labels = DiscreteLabels([1], [0], [1.0])
        out = nll_pmf(logits, labels)
        assert np.isfinite(out.value)
        # tail is dominated by the +100 logit against the +800 one
        assert out.value == pytest.approx(700.0, rel=1e-10)

    def test_shift_changes_loss(self):
        # the implicit final logit is pinned at 0, so a uniform shift of the m
        # outputs moves probability mass and must change the loss
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(8, 5))
        labels = random_labels(rng, 8, 5)
        base = nll_pmf(logits, labels).value
        for shift in (0.5, -1.0, 2.0):
            shifted = nll_pmf(logits + shift, labels).value
            assert abs(shifted - base) > 1e-6


class TestPcHazard:
    def test_event_at_half_interval(self):
        eta = np.array([0.5, 1.0])
        logits = np.log(np.expm1(eta))[None, :]
        labels = DiscreteLabels([2], [1], [0.5])
        out = nll_pc_hazard(logits, labels)
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_censored_single_interval(self):
        logits = np.log(np.expm1(np.array([2.0])))[None, :]
        labels = DiscreteLabels([1], [0], [1.0])
        assert nll_pc_hazard(logits, labels).value == pytest.approx(2.0, abs=1e-12)

    def test_very_negative_logit_stays_finite(self):
        logits = np.array([[-40.0]])
        labels = DiscreteLabels([1], [1], [1.0])
        out = nll_pc_hazard(logits, labels)
        assert np.isfinite(out.value)
        # log of the interval mass is approximately the logit itself
        assert out.value == pytest.approx(40.0, rel=1e-6)

    def test_naive_underflows_at_minus_fifty_stable_does_not(self):
        logits = np.array([[-50.0]])
        idx, event, frac = np.array([1]), np.array([1]), np.array([1.0])
        with np.errstate(divide="ignore"):
            naive = pc_hazard_nll_naive(logits, idx, event, frac)
        assert not np.isfinite(naive)
        stable = nll_pc_hazard(logits, DiscreteLabels(idx, event, frac))
        assert np.isfinite(stable.value)

    def test_agrees_with_naive_on_moderate_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(1, 65)), int(rng.integers(1, 31))
            logits = rng.uniform(-10, 10, (n, m))
            labels = random_labels(rng, n, m, with_frac=True)
            ours = nll_pc_hazard(logits, labels).value
            naive = pc_hazard_nll_naive(logits, labels.idx, labels.event, labels.frac)
            assert ours == pytest.approx(naive, abs=1e-6)

    def test_event_with_zero_fraction_is_nudged(self):
        logits = np.zeros((1, 2))
        labels = DiscreteLabels([1], [1], [0.0])
        out = nll_pc_hazard(logits, labels)
        assert np.isfinite(out.value)

    def test_positive_fraction_needs_positive_index(self):
        with pytest.raises(ValidationError):
            nll_pc_hazard(np.zeros((1, 2)), DiscreteLabels([0], [0], [0.5]))

    def test_poisson_proportionality(self):
        # the loss differs from the factorized independent-count likelihood by
        # a term that does not involve the network outputs
        rng = np.random.default_rng(4)
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(1, 10, 4))])
        time_grid = TimeGrid(cuts)
        n = 12
        durations = rng.uniform(0, cuts[-1], n)
        events = rng.integers(0, 2, n)
        data = SurvivalDataset(durations, events, np.zeros((n, 1)))
        labels = continuous_labels(data, time_grid)

        def poisson_nll(logits):
            eta_rate = softplus(logits) / np.diff(time_grid.cuts)[None, :]
            total = 0.0
            for i in range(n):
                k = labels.idx[i]
                t_i = durations[i]
                for j in range(1, k + 1):
                    lo, hi = cuts[j - 1], cuts[j]
                    if t_i > hi:
                        exposure = hi - lo
                    elif t_i > lo:
                        exposure = t_i - lo
                    else:
                        exposure = 0.0
                    mu = exposure * eta_rate[i, j - 1]
                    y = 1.0 if (events[i] == 1 and j == k) else 0.0
                    total -= y * np.log(mu) - mu
            return total / n

        diffs = []
        for _ in range(10):
            logits = rng.uniform(-3, 3, (n, time_grid.m))
            diffs.append(nll_pc_hazard(logits, labels).value - poisson_nll(logits))
        assert np.ptp(diffs) < 1e-8


@pytest.mark.parametrize("loss_fn", [nll_logistic_hazard, nll_pmf, nll_pc_hazard],
                         ids=["lh", "pmf", "pc"])
class TestBatchChecks:
    def test_logits_must_be_2d(self, loss_fn):
        name = loss_fn.__name__
        with pytest.raises(ValidationError,
                           match=rf"^{name}: logits must be 2-d \(batch, intervals\)$"):
            loss_fn(np.zeros(2), DiscreteLabels([1, 1], [1, 0], [1.0, 1.0]))

    def test_label_count_must_match_the_batch(self, loss_fn):
        name = loss_fn.__name__
        with pytest.raises(ValidationError, match=f"^{name}: 1 labels for a batch of 2$"):
            loss_fn(np.zeros((2, 3)), DiscreteLabels([1], [1], [1.0]))


class TestCumsumHead:
    def test_basic(self):
        np.testing.assert_array_equal(cumsum_head(np.array([1.0, 2.0, 3.0])), [6, 5, 3])

    def test_zeros(self):
        np.testing.assert_array_equal(cumsum_head(np.zeros(4)), np.zeros(4))

    def test_matches_multitask_logistic_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, m = int(rng.integers(1, 20)), int(rng.integers(1, 9))
            psi = rng.uniform(-3, 3, (n, m))
            labels = random_labels(rng, n, m)
            ours = nll_pmf(cumsum_head(psi), labels).value
            direct = mtlr_nll(psi, labels.idx, labels.event)
            assert ours == pytest.approx(direct, abs=1e-10)


class TestGradients:
    @pytest.mark.parametrize(
        "loss_fn,with_frac",
        [(nll_logistic_hazard, False), (nll_pmf, False), (nll_pc_hazard, True)],
    )
    def test_matches_central_differences(self, loss_fn, with_frac):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            logits = rng.uniform(-4, 4, (n, m))
            labels = random_labels(rng, n, m, with_frac=with_frac)
            analytic = loss_fn(logits, labels).grad
            numeric = finite_difference_grad(loss_fn, logits, labels)
            # the difference floor keeps roundoff noise (about 1e-10 at this
            # eps) from dominating coordinates with tiny gradients
            scale = np.maximum(np.abs(analytic), np.maximum(np.abs(numeric), 1e-3))
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


class TestNumericHelpers:
    def test_sigmoid_extremes(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(0.0) == 0.5

    def test_softplus_matches_reference(self):
        xs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(softplus(xs), np.log1p(np.exp(np.minimum(xs, 30))) + np.maximum(xs - 30, 0), atol=1e-9)

    def test_log_softplus_switch_point_continuity(self):
        below, above = log_softplus(-15.0 - 1e-9), log_softplus(-15.0 + 1e-9)
        assert abs(below - above) < 1e-6


# Logits at the edges of every branch: overflow of exp, signed zeros, a
# subnormal, both sides of log_softplus's cutoff and of the z < -30 switch.
EXTREME_LOGITS = [
    800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 50.0, -50.0,
    -15.0, -15.000001, -14.999999, -30.0, -30.000001, -29.999999, -40.0,
]
PAIRS = [
    (nll_logistic_hazard, verbatim_nll_logistic_hazard),
    (nll_pmf, verbatim_nll_pmf),
    (nll_pc_hazard, verbatim_nll_pc_hazard),
]
PAIR_IDS = ["lh", "pmf", "pc"]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def loss_batches(draw):
    """Logits with extremes mixed in; index-0 censorings and zero fractions."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from(EXTREME_LOGITS), st.floats(-60.0, 60.0))
    logits = np.array(draw(st.lists(values, min_size=n * m, max_size=n * m)))
    idx = np.array(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)))
    event = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    fracs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    frac = np.array(draw(st.lists(fracs, min_size=n, max_size=n)))
    at = idx >= 1
    return logits.reshape(n, m), DiscreteLabels(idx, event * at, frac * at)


class TestVerbatimKernels:
    """The lean kernels against tests/oracles.py's copies of the allocating ones."""

    @pytest.mark.parametrize("new,old", PAIRS, ids=PAIR_IDS)
    @settings(max_examples=60)
    @given(batch=loss_batches())
    def test_value_and_gradient_bit_identical(self, new, old, batch):
        logits, labels = batch
        want = old(logits, labels)
        got = new(logits, labels)
        value_only = new(logits, labels, grad=False)
        assert np.isfinite(want.value)
        assert same_bits(got.value, want.value)
        assert same_bits(got.grad, want.grad)
        assert same_bits(value_only.value, want.value)
        assert value_only.grad is None

    # non-finite inputs are the point here; numpy warns about them
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("new,old", PAIRS, ids=PAIR_IDS)
    @settings(max_examples=40)
    @given(batch=loss_batches(), where=st.tuples(st.integers(0, 7), st.integers(0, 5)),
           bad=st.sampled_from([np.inf, np.nan, -np.inf]))
    def test_non_finite_logit_in_any_column(self, new, old, batch, where, bad):
        logits, labels = batch
        logits[where[0] % logits.shape[0], where[1] % logits.shape[1]] = bad
        want = old(logits, labels).value
        for got in (new(logits, labels).value, new(logits, labels, grad=False).value):
            # +inf and nan always poison the transcriptions; -inf only where
            # it is read, and a finite value must then be the same value
            if bad != -np.inf:
                assert not np.isfinite(got)
            assert np.isfinite(got) == np.isfinite(want)
            if np.isfinite(want):
                assert same_bits(got, want)

    @settings(max_examples=60)
    @given(x=st.one_of(st.sampled_from(EXTREME_LOGITS), st.floats(allow_nan=False)))
    def test_sigmoid_of_a_scalar(self, x):
        assert same_bits(sigmoid(x), verbatim_sigmoid(x))
        z = np.exp(-np.abs(x))
        assert same_bits(sigmoid(x, z), verbatim_sigmoid(x, z))

    def test_sigmoid_of_an_array(self):
        x = np.concatenate([EXTREME_LOGITS, np.linspace(-60.0, 60.0, 2001)]).reshape(-1, 2)
        assert same_bits(sigmoid(x), verbatim_sigmoid(x))
