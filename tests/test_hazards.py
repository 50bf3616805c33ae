import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtri

from redzone import (
    BathtubModel,
    DomainError,
    LifetimeDistribution,
    SoftwareHazardModel,
    UpgradeEvent,
    ValidationError,
    ValidationWarning,
    WeibullTerm,
    bathtub_cumulative,
    bathtub_hazard,
    lognormal_sample,
    software_hazard,
    weibull_cumulative,
    weibull_hazard,
)
from redzone.hazards import software_cumulative, standard_normal_quantile

from conftest import make_bathtub, make_flat_bathtub
import oracle
from oracle import ExponentialLifetime, SplitMix64


def logspaced_trapezoid(fn, a, b, n=100_000):
    """Trapezoid quadrature on a log-spaced grid (a > 0)."""
    x = np.geomspace(a, b, n)
    return float(np.trapezoid(fn(x), x))


class TestWeibullHazard:
    def test_shape_one_is_constant(self):
        assert weibull_hazard(5.0, WeibullTerm(0.2, 1.0)) == 0.2

    def test_increasing_shape(self):
        assert weibull_hazard(3.0, WeibullTerm(0.1, 2.0)) == pytest.approx(0.6, rel=1e-12)

    def test_decreasing_shape(self):
        assert weibull_hazard(4.0, WeibullTerm(2.0, 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_zero_scale_disables_term(self):
        assert weibull_hazard(3.0, WeibullTerm(0.0, 2.0)) == 0.0

    def test_non_finite_t_rejected(self):
        with pytest.raises(DomainError):
            weibull_hazard(float("nan"), WeibullTerm(1.0, 1.0))
        with pytest.raises(DomainError):
            weibull_hazard(float("inf"), WeibullTerm(1.0, 1.0))

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            weibull_hazard(-1.0, WeibullTerm(1.0, 2.0))

    def test_origin_needs_clamp_for_decreasing_shape(self):
        with pytest.raises(DomainError, match="diverges at the origin"):
            weibull_hazard(0.0, WeibullTerm(1.0, 0.5))

    def test_array_input(self):
        t = np.array([1.0, 2.0, 4.0])
        out = weibull_hazard(t, WeibullTerm(2.0, 0.5))
        assert out == pytest.approx([1.0, 2.0 / math.sqrt(2.0) * 0.5 * 2.0 / 2.0, 0.5])

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            WeibullTerm(-0.1, 1.0)
        with pytest.raises(ValidationError):
            WeibullTerm(1.0, 0.0)


class TestWeibullCumulative:
    def test_linear_case(self):
        assert weibull_cumulative(5.0, WeibullTerm(0.2, 1.0)) == pytest.approx(1.0)

    def test_quadratic_case(self):
        assert weibull_cumulative(3.0, WeibullTerm(0.1, 2.0)) == pytest.approx(0.9)

    def test_sqrt_case(self):
        assert weibull_cumulative(4.0, WeibullTerm(2.0, 0.5)) == pytest.approx(4.0)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            weibull_cumulative(-0.5, WeibullTerm(1.0, 1.0))

    def test_matches_quadrature_for_random_models(self):
        rng = np.random.default_rng(20240501)
        for _ in range(100):
            lam = rng.uniform(0.01, 2.0)
            beta = rng.choice([rng.uniform(0.1, 0.95), 1.0, rng.uniform(1.05, 4.0)])
            horizon = rng.uniform(1.0, 500.0)
            term = WeibullTerm(lam, float(beta))
            t_min = 1e-6 * horizon
            exact = weibull_cumulative(horizon, term) - weibull_cumulative(t_min, term)
            quad = logspaced_trapezoid(lambda x: weibull_hazard(x, term), t_min, horizon)
            assert quad == pytest.approx(exact, rel=1e-6)


class TestBathtub:
    def test_useful_phase_sum(self, example_bathtub):
        # 0.01 + 0.05*0.5*25**-0.5 + 0 (before the wear-out onset at 100)
        assert bathtub_hazard(25.0, example_bathtub) == pytest.approx(0.015, rel=1e-9)

    def test_wearout_phase_sum(self, example_bathtub):
        expected = 0.01 + 0.05 * 0.5 * 150.0 ** -0.5 + 1e-6 * 3 * 50.0 ** 2
        assert expected == pytest.approx(0.019541241452319315, rel=1e-12)
        assert bathtub_hazard(150.0, example_bathtub) == pytest.approx(expected, rel=1e-12)

    def test_plateau_limit_after_burnin_decays(self):
        model = make_bathtub(th1=20.0, th2=1e6, th3=40.0)
        assert bathtub_hazard(1e5, model) == pytest.approx(0.01, rel=0.01)

    def test_continuity_at_wearout_onset(self, example_bathtub):
        onset = example_bathtub.wearout_onset
        eps = 1e-6
        gap = abs(bathtub_hazard(onset + eps, example_bathtub)
                  - bathtub_hazard(onset - eps, example_bathtub))
        assert gap < 1e-9

    def test_flat_model_is_exactly_constant(self, flat_bathtub):
        t = np.linspace(0.0, 500.0, 1001)
        assert np.all(bathtub_hazard(t, flat_bathtub) == flat_bathtub.useful_rate)

    def test_clamp_floor_applies_below_floor(self, example_bathtub):
        floor = example_bathtub.clamp_floor
        at_floor = bathtub_hazard(floor, example_bathtub)
        t = np.linspace(0.0, floor, 11)
        assert np.all(bathtub_hazard(t, example_bathtub) == at_floor)
        assert bathtub_hazard(0.0, example_bathtub) == at_floor
        assert bathtub_hazard(2.0 * floor, example_bathtub) < at_floor

    def test_negative_zero_age_sums_to_positive_zero(self):
        # numpy's square-root path gives (-0.0) ** 0.5 == -0.0; the term-by-term sum,
        # whose disabled wear-out term adds 0, ends at +0.0 all the same
        model = make_bathtub(burnin=(1.0, 0.5), wearout=(0.0, 3.0))
        for age in (-0.0, np.array([-0.0, 1.0])):
            assert np.array_equal(bits(bathtub_cumulative(age, model)),
                                  bits(oracle.bathtub_cumulative(age, model)))
        assert bits(bathtub_cumulative(-0.0, model)) == bits(0.0)

    def test_onset_is_th1_plus_th2(self, example_bathtub):
        assert example_bathtub.wearout_onset == 100.0

    def test_construction_validation(self):
        with pytest.raises(ValidationError):
            make_bathtub(burnin=(0.05, 1.5))  # burn-in shape must be < 1
        with pytest.raises(ValidationError):
            make_bathtub(wearout=(1e-6, 1.0))  # wear-out shape must be > 1
        with pytest.raises(ValidationError):
            make_bathtub(useful_rate=0.0)
        with pytest.raises(ValidationError):
            make_bathtub(th1=0.0)

    def test_slow_burnin_decay_warns(self):
        with pytest.warns(ValidationWarning) as record:
            BathtubModel(useful_rate=0.01, burnin=WeibullTerm(0.05, 0.5),
                         wearout=WeibullTerm(1e-6, 3.0), th1=20.0, th2=80.0, th3=40.0)
        assert [w.filename for w in record] == [__file__]  # the caller, not the model

    def test_cumulative_matches_quadrature(self):
        rng = np.random.default_rng(20240502)
        for _ in range(30):
            model = make_bathtub(
                useful_rate=rng.uniform(0.001, 0.1),
                burnin=(rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)),
                wearout=(rng.uniform(1e-8, 1e-4), rng.uniform(1.5, 4.0)),
                th1=rng.uniform(5.0, 40.0),
                th2=rng.uniform(40.0, 200.0),
                th3=rng.uniform(10.0, 80.0),
            )
            horizon = model.wearout_onset + rng.uniform(1.0, 2.0 * model.th3)
            t_min = model.clamp_floor
            exact = bathtub_cumulative(horizon, model) - bathtub_cumulative(t_min, model)
            onset = model.wearout_onset
            quad = (logspaced_trapezoid(lambda x: bathtub_hazard(x, model), t_min, onset)
                    + logspaced_trapezoid(lambda x: bathtub_hazard(x, model), onset, horizon))
            assert quad == pytest.approx(exact, rel=1e-6)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@st.composite
def bathtub_and_ages(draw, zero_burnin, zero_wearout):
    """A bathtub model and an unsorted age array that holds 0, -0.0, the wear-out
    onset and its neighbours on either side, among ages drawn on both sides of it."""
    model = make_bathtub(
        useful_rate=draw(st.floats(1e-4, 1.0)),
        burnin=(0.0 if zero_burnin else draw(st.floats(1e-4, 2.0)), draw(st.floats(0.05, 0.95))),
        wearout=(0.0 if zero_wearout else draw(st.floats(1e-9, 1e-2)),
                 draw(st.sampled_from([2.0, 3.0]) | st.floats(1.05, 4.0))),
        th1=draw(st.floats(1.0, 50.0)), th2=draw(st.floats(1.0, 300.0)), th3=10.0)
    onset = model.wearout_onset
    landmarks = [0.0, -0.0, onset, np.nextafter(onset, 0.0), np.nextafter(onset, np.inf),
                 model.clamp_floor]
    drawn = draw(st.lists(st.floats(0.0, onset) | st.floats(onset, 4.0 * onset), max_size=40))
    return model, np.array(draw(st.permutations(landmarks + drawn)))


@pytest.mark.parametrize("zero_burnin, zero_wearout",
                         [(False, False), (True, False), (False, True), (True, True)],
                         ids=["both_terms", "no_burnin", "no_wearout", "flat"])
class TestBathtubMatchesTermByTerm:
    """The kernels, which raise the wear-out power only past the onset and work in
    place, give the bits of the term-by-term formulas in ``oracle``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arrays(self, zero_burnin, zero_wearout, data):
        model, ages = data.draw(bathtub_and_ages(zero_burnin, zero_wearout))
        for fn, ref in ((bathtub_hazard, oracle.bathtub_hazard),
                        (bathtub_cumulative, oracle.bathtub_cumulative)):
            assert np.array_equal(bits(fn(ages, model)), bits(ref(ages, model)))
            grid = ages[:len(ages) // 2 * 2].reshape(2, -1)
            assert np.array_equal(bits(fn(grid, model)), bits(ref(grid, model)))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_scalars_and_0d_arrays(self, zero_burnin, zero_wearout, data):
        model, ages = data.draw(bathtub_and_ages(zero_burnin, zero_wearout))
        for age in ages.tolist():
            for fn, ref in ((bathtub_hazard, oracle.bathtub_hazard),
                            (bathtub_cumulative, oracle.bathtub_cumulative)):
                expected = ref(age, model)
                for t in (age, np.asarray(age)):
                    got = fn(t, model)
                    assert type(got) is float
                    assert bits(got) == bits(expected)


class TestLognormal:
    def test_parameters_from_mean_sd(self):
        d = LifetimeDistribution(10.0, 2.0)
        assert d.location == pytest.approx(2.282974736417405, rel=1e-12)
        assert d.scale == pytest.approx(0.1980422004353651, rel=1e-12)
        d2 = LifetimeDistribution(1.0, 1.0)
        assert d2.location == pytest.approx(-0.34657359027997264, rel=1e-12)
        assert d2.scale == pytest.approx(0.8325546111576977, rel=1e-12)

    def test_density_integrates_back_to_mean_and_sd(self):
        d = LifetimeDistribution(10.0, 2.0)

        def pdf(x):
            return (1.0 / (x * d.scale * math.sqrt(2 * math.pi))
                    * math.exp(-((math.log(x) - d.location) ** 2) / (2 * d.scale ** 2)))

        mean, _ = integrate.quad(lambda x: x * pdf(x), 0, np.inf)
        second, _ = integrate.quad(lambda x: x * x * pdf(x), 0, np.inf)
        assert mean == pytest.approx(10.0, rel=1e-9)
        assert math.sqrt(second - mean ** 2) == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_mode(self):
        d = LifetimeDistribution(200.0, 0.0)
        assert d.degenerate
        for u in (0.1, 0.5, 0.9):
            assert lognormal_sample(d, u) == 200.0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            LifetimeDistribution(0.0, 1.0)
        with pytest.raises(ValidationError):
            LifetimeDistribution(-5.0, 1.0)
        with pytest.raises(ValidationError):
            LifetimeDistribution(10.0, -1.0)

    def test_median_at_half(self):
        d = LifetimeDistribution(10.0, 2.0)
        assert lognormal_sample(d, 0.5) == pytest.approx(math.exp(d.location), rel=1e-9)

    def test_sample_against_high_precision_quantile(self):
        d = LifetimeDistribution(10.0, 2.0)
        expected = math.exp(d.location + d.scale * ndtri(0.975))
        assert expected == pytest.approx(14.456300158824469, rel=1e-12)
        assert lognormal_sample(d, 0.975) == pytest.approx(expected, abs=5e-8)

    def test_quantile_accuracy_against_scipy(self):
        u = np.concatenate([
            np.geomspace(1e-12, 0.5, 4001),
            1.0 - np.geomspace(1e-12, 0.5, 4001),
        ])
        ours = standard_normal_quantile(u)
        ref = ndtri(u)
        assert np.max(np.abs(ours - ref)) < 1e-8

    def test_u_domain_enforced(self):
        d = LifetimeDistribution(10.0, 2.0)
        for u in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                lognormal_sample(d, u)

    def test_sampling_round_trip(self):
        d = LifetimeDistribution(200.0, 20.0)
        gen = SplitMix64(20240503)
        n = 1_000_000
        u = np.array([gen.uniform() for _ in range(n)])
        x = lognormal_sample(d, u)
        se = 20.0 / math.sqrt(n)
        assert abs(float(np.mean(x)) - 200.0) < 3 * se
        assert abs(float(np.std(x, ddof=1)) - 20.0) / 20.0 < 0.03


class TestExponentialLifetime:
    def test_mean_and_median(self):
        d = ExponentialLifetime(0.01)
        assert d.mean == 100.0
        assert d.sample(1.0 - math.exp(-1.0)) == pytest.approx(100.0, rel=1e-12)


class TestSoftwareHazard:
    def test_fresh_system_sum(self):
        m = SoftwareHazardModel(steady_floor=0.001, update_amplitude=0.004,
                                update_decay_tau=26.0)
        assert software_hazard(0.0, m) == pytest.approx(0.005)

    def test_settles_on_steady_floor(self):
        m = SoftwareHazardModel(steady_floor=0.001, update_amplitude=0.004,
                                update_decay_tau=26.0)
        assert software_hazard(5000.0, m) == pytest.approx(0.001, rel=1e-9)

    def test_minor_upgrade_pulse_superposes(self):
        base = SoftwareHazardModel(steady_floor=0.001, update_amplitude=0.004,
                                   update_decay_tau=26.0)
        pulsed = SoftwareHazardModel(
            steady_floor=0.001, update_amplitude=0.004, update_decay_tau=26.0,
            upgrade_events=(UpgradeEvent(52.0, "minor", 0.002, 8.0),))
        assert software_hazard(52.0, pulsed) == pytest.approx(
            software_hazard(52.0, base) + 0.002)

    def test_major_upgrade_restarts_decay(self):
        m = SoftwareHazardModel(
            steady_floor=0.001, update_amplitude=0.004, update_decay_tau=26.0,
            upgrade_events=(UpgradeEvent(104.0, "major"),))
        assert software_hazard(104.0, m) == pytest.approx(0.005)
        assert software_hazard(103.9, m) < 0.0015

    def test_never_below_floor_and_non_increasing_between_events(self):
        m = SoftwareHazardModel(steady_floor=0.001, update_amplitude=0.004,
                                update_decay_tau=26.0)
        t = np.linspace(0.0, 300.0, 3001)
        h = software_hazard(t, m)
        assert np.all(h >= 0.001)
        assert np.all(np.diff(h) <= 0.0)

    def test_events_must_be_strictly_increasing(self):
        with pytest.raises(ValidationError):
            SoftwareHazardModel(
                steady_floor=0.001,
                upgrade_events=(UpgradeEvent(10.0, "minor", 0.001, 2.0),
                                UpgradeEvent(10.0, "minor", 0.001, 2.0)))

    def test_cumulative_matches_quadrature(self):
        m = SoftwareHazardModel(
            steady_floor=0.001, update_amplitude=0.004, update_decay_tau=26.0,
            upgrade_events=(UpgradeEvent(52.0, "minor", 0.002, 8.0),
                            UpgradeEvent(104.0, "major"),
                            UpgradeEvent(140.0, "minor", 0.003, 5.0)))
        horizon = 200.0
        edges = [0.0, 52.0, 104.0, 140.0, horizon]
        quad = 0.0
        for a, b in zip(edges, edges[1:]):
            # stop just short of b: the next event's jump belongs to [b, ...)
            x = np.linspace(a, b - 1e-9, 200_001)
            quad += float(np.trapezoid(software_hazard(x, m), x))
        assert quad == pytest.approx(software_cumulative(horizon, m), rel=1e-6)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
    beta=st.floats(0.05, 6.0, allow_nan=False, allow_infinity=False),
    t=st.floats(1e-9, 1e4, allow_nan=False, allow_infinity=False),
)
def test_hazard_values_are_finite_and_nonnegative(lam, beta, t):
    term = WeibullTerm(lam, beta)
    h = weibull_hazard(t, term)
    H = weibull_cumulative(t, term)
    assert math.isfinite(h) and h >= 0.0
    assert math.isfinite(H) and H >= 0.0
