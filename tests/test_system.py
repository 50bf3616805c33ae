import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import (
    CompositionError,
    DomainError,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    SystemConfig,
    UpgradeEvent,
    ValidationError,
    ValidationWarning,
    compose_parallel,
    scenario_timeline,
    system_hazard_curve,
    system_hazard_curves,
)
from redzone import system
from redzone.system import _unit_cumulative_at, _unit_rate

from conftest import (
    make_bathtub,
    make_flat_bathtub,
    make_redzone_system,
    make_software_system,
    per_segment_curve,
    with_spread,
)
from oracle import Unit, effective_age


def closed_form_pair(lam, t):
    """Composed rate of two identical constant-rate units from birth."""
    e = np.exp(-lam * t)
    return 2.0 * lam * (1.0 - e) / (2.0 - e)


def masked_curve(tl, dt):
    """Reference sampling: locate each segment's points with a boolean mask."""
    t = np.arange(0.0, tl.t_end, dt)
    h = np.zeros_like(t)
    for seg in tl.segments:
        mask = (t >= seg.t_start) & (t < seg.t_end)
        rates = [_unit_rate(t[mask], au, tl.config) for au in seg.units]
        if len(seg.units) == 1:
            h[mask] = rates[0]
        else:
            h[mask] = compose_parallel(rates, [
                _unit_cumulative_at(t[mask], au, tl.config)
                - _unit_cumulative_at(seg.epoch, au, tl.config) for au in seg.units])
    return t, h


class TestEffectiveAge:
    def test_cold_standby(self):
        u = Unit("u", lifetime=100.0, onjob_age=30.0, shelf_age=50.0, lab_burnin_credit=2.0)
        assert effective_age(u, 0.0) == 32.0

    def test_aging_shelf(self):
        u = Unit("u", lifetime=100.0, onjob_age=30.0, shelf_age=50.0, lab_burnin_credit=2.0)
        assert effective_age(u, 0.1) == pytest.approx(37.0)

    def test_all_zero(self):
        assert effective_age(Unit("u", lifetime=1.0), 0.5) == 0.0

    def test_negative_ages_rejected(self):
        with pytest.raises(ValidationError):
            Unit("u", lifetime=1.0, onjob_age=-1.0)


class TestSystemConfig:
    def test_lab_burnin_beyond_th1_warns_at_caller(self, flat_bathtub):
        with pytest.warns(ValidationWarning) as record:
            config = SystemConfig(hazard=flat_bathtub,
                                  unit_lifetime=LifetimeDistribution(220.0, 0.0),
                                  lab_burnin=flat_bathtub.th1 + 1.0)
            config._replace(lab_burnin=flat_bathtub.th1 + 2.0)
        assert [w.filename for w in record] == [__file__] * 2


class TestComposeParallel:
    def test_single_unit_identity(self):
        assert compose_parallel([0.37], [1.23]) == 0.37

    def test_two_constant_units_closed_form_instant(self):
        t = math.log(1.5)
        out = compose_parallel([1.0, 1.0], [t, t])
        assert out == pytest.approx(0.5, rel=1e-12)

    def test_two_constant_units_approach_single_rate(self):
        out = compose_parallel([1.0, 1.0], [10.0, 10.0])
        assert out == pytest.approx(closed_form_pair(1.0, 10.0), rel=1e-12)
        assert out == pytest.approx(0.99998, abs=1e-5)

    def test_array_evaluation_matches_closed_form(self):
        lam = 0.25
        t = np.linspace(0.0, 40.0, 4001)
        out = compose_parallel([np.full_like(t, lam)] * 2, [lam * t] * 2)
        assert np.allclose(out, closed_form_pair(lam, t), rtol=1e-9, atol=0.0)

    def test_zero_at_origin(self):
        assert compose_parallel([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = rng.uniform(0.01, 2.0, size=2)
            H = rng.uniform(0.0, 5.0, size=2)
            out = compose_parallel(list(h), list(H))
            assert 0.0 <= out <= h.sum()

    def test_redundancy_never_hurts(self):
        # R_sys = 1 - F1*F2 >= max(R1, R2)
        rng = np.random.default_rng(8)
        for _ in range(200):
            H = rng.uniform(0.0, 5.0, size=2)
            R = np.exp(-H)
            F = 1.0 - R
            assert 1.0 - F.prod() >= R.max() - 1e-15

    def test_all_failed_composition_error(self):
        with pytest.raises(CompositionError):
            compose_parallel([1.0, 1.0], [800.0, 800.0])

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            compose_parallel([], [])
        with pytest.raises(DomainError):
            compose_parallel([1.0], [1.0, 2.0])
        with pytest.raises(DomainError, match="one or two units, got 3"):
            compose_parallel([1.0] * 3, [1.0] * 3)


class TestScenarioTimeline:
    def worked_config(self, delta=1.0, lab=2.0):
        model = make_bathtub(th1=20.0, th2=180.0, th3=40.0)
        return SystemConfig(hazard=model,
                            unit_lifetime=LifetimeDistribution(220.0, delta),
                            lab_burnin=lab)

    def test_worked_example_boundaries(self):
        tl = scenario_timeline(self.worked_config())
        assert tl.t0 == 200.0
        assert tl.tf1 == 220.0
        assert tl.tf2 == 221.0
        assert tl.t2 == 239.0
        edges = {seg.t_start for seg in tl.segments} | {seg.t_end for seg in tl.segments}
        for landmark in (200.0, 220.0, 221.0, 239.0):
            assert landmark in edges

    def test_segments_tile_without_gaps(self):
        tl = scenario_timeline(self.worked_config())
        assert tl.segments[0].t_start == 0.0
        for a, b in zip(tl.segments, tl.segments[1:]):
            assert a.t_end == b.t_start
        assert tl.segments[-1].t_end == tl.t_end

    def test_zero_gap_skips_pairing_segment(self):
        tl = scenario_timeline(self.worked_config(delta=0.0))
        assert tl.tf1 == tl.tf2
        assert all(seg.boundary != "Tf1" for seg in tl.segments)
        spare_segs = [s for s in tl.segments if s.t_start >= tl.tf2]
        assert all(s.composition == "single" for s in spare_segs)

    def test_large_gap_spare_matures_before_second_failure(self):
        model = make_bathtub(th1=20.0, th2=180.0, th3=40.0)
        cfg = SystemConfig(hazard=model,
                           unit_lifetime=LifetimeDistribution(500.0, 200.0),
                           lab_burnin=2.0)
        tl = scenario_timeline(cfg)
        pairing = [s for s in tl.segments if s.boundary == "Tf1"]
        assert pairing and pairing[0].t_end - pairing[0].t_start == pytest.approx(200.0)
        # by the second failure the spare's true age is far past burn-in
        spare_age_at_tf2 = tl.tf2 - (tl.tf1 - cfg.lab_burnin)
        assert spare_age_at_tf2 > model.th1

    def test_mean_before_onset_rejected(self):
        model = make_bathtub(th1=20.0, th2=180.0, th3=40.0)
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(150.0, 1.0))
        with pytest.raises(ValidationError):
            scenario_timeline(cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        th1=st.floats(5.0, 40.0),
        th2=st.floats(50.0, 300.0),
        th3=st.floats(5.0, 80.0),
        margin=st.floats(0.0, 60.0),
        delta=st.floats(0.0, 30.0),
        lab=st.floats(0.0, 4.0),
    )
    def test_tiling_property(self, th1, th2, th3, margin, delta, lab):
        model = make_flat_bathtub(th1=th1, th2=th2, th3=th3)
        mean = th1 + th2 + margin
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(mean, delta),
                           lab_burnin=lab)
        tl = scenario_timeline(cfg)
        assert tl.segments[0].t_start == 0.0
        for a, b in zip(tl.segments, tl.segments[1:]):
            assert a.t_end == b.t_start
            assert a.t_start < a.t_end
        assert tl.segments[-1].t_end == tl.t_end


class TestSystemHazardCurve:
    def test_two_constant_units_rise_toward_plateau(self):
        lam = 0.01
        model = make_flat_bathtub(useful_rate=lam, th1=20.0, th2=980.0, th3=100.0)
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(1100.0, 0.0),
                           lab_burnin=0.0)
        tl = scenario_timeline(cfg)
        curve = system_hazard_curve(tl, dt=1.0)
        mains = curve.times < 1000.0
        h = curve.rates[mains]
        assert h[0] == 0.0
        assert np.all(np.diff(h) > 0.0)
        assert np.max(h) < lam
        late = curve.times[mains] > 10.0 / lam
        assert np.all(h[late] > 0.99 * lam)
        expected = closed_form_pair(lam, curve.times[mains])
        assert np.allclose(h, expected, rtol=1e-9, atol=1e-15)

    def test_spare_alone_useful_segment_is_flat(self):
        lam = 0.01
        model = make_flat_bathtub(useful_rate=lam, th1=20.0, th2=180.0, th3=40.0)
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(220.0, 1.0),
                           lab_burnin=2.0)
        tl = scenario_timeline(cfg)
        curve = system_hazard_curve(tl, dt=0.1)
        solo_useful = (curve.times >= tl.t2) & (curve.times < tl.tf1 - 2.0 + 200.0)
        assert np.all(curve.rates[solo_useful] == lam)

    def test_red_zone_peak_appears_for_small_gap(self):
        cfg = make_redzone_system(delta=1.0)
        tl = scenario_timeline(cfg)
        curve = system_hazard_curve(tl, dt=0.1)
        useful_tail = (curve.times >= 0.8 * tl.t0) & (curve.times < tl.t0)
        baseline = float(np.median(curve.rates[useful_tail]))
        window = (curve.times >= tl.tf2) & (curve.times <= tl.t2)
        assert float(np.max(curve.rates[window])) > 2.0 * baseline

    @pytest.mark.parametrize("delta", [0.0, 1.0, 20.0])
    @pytest.mark.parametrize("dt", [0.5, 0.25, 0.1])
    def test_matches_masked_segments(self, delta, dt):
        # with these steps most segment boundaries fall on grid points
        tl = scenario_timeline(make_redzone_system(delta=delta))
        curve = system_hazard_curve(tl, dt=dt)
        t, h = masked_curve(tl, dt)
        assert np.array_equal(curve.times, t)
        assert np.array_equal(curve.rates, h)

    def test_grid_step_validation(self):
        cfg = make_redzone_system(delta=1.0)
        tl = scenario_timeline(cfg)
        with pytest.raises(DomainError):
            system_hazard_curve(tl, dt=0.0)

    def test_curve_finite_and_nonnegative(self):
        cfg = make_redzone_system(delta=5.0)
        curve = system_hazard_curve(scenario_timeline(cfg), dt=0.25)
        assert np.all(np.isfinite(curve.rates))
        assert np.all(curve.rates >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        th1=st.floats(5.0, 40.0),
        th2=st.floats(50.0, 300.0),
        margin=st.floats(0.0, 60.0),
        stagger=st.floats(0.0, 30.0),
        lab_share=st.floats(0.0, 1.0),
        events=st.lists(st.tuples(st.floats(0.0, 800.0), st.sampled_from(["minor", "major"]),
                                  st.floats(0.0, 0.01), st.floats(1.0, 50.0)),
                        max_size=3, unique_by=lambda e: e[0]),
        operator_rate=st.floats(0.0, 0.01),
        dt=st.floats(0.01, 5.0),
        data=st.data(),
    )
    def test_window_is_the_full_curve_tail(self, th1, th2, margin, stagger, lab_share, events,
                                           operator_rate, dt, data):
        model = make_bathtub(burnin=(0.9, 0.1), th1=th1, th2=th2, th3=10.0)
        mean = th1 + th2 + margin
        upgrades = tuple(UpgradeEvent(*event) for event in sorted(events))
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(mean, stagger),
                           lab_burnin=lab_share * th1,
                           software=SoftwareHazardModel(0.001, 0.004, 26.0, upgrades),
                           operator=OperatorHazard(operator_rate))
        tl = scenario_timeline(cfg)
        full = system_hazard_curve(tl, dt=dt)
        start = data.draw(st.one_of(
            st.floats(0.0, tl.t_end, exclude_max=True),
            st.sampled_from([tl.t0, tl.tf1, tl.tf2, 0.8 * tl.t0]),
            st.sampled_from(full.times.tolist()),
        ), label="start")
        window = system_hazard_curve(tl, dt=dt, start=start)
        tail = full.times >= start
        assert np.array_equal(window.times, full.times[tail])
        assert np.array_equal(window.rates, full.rates[tail])


# a sweep's sorted, distinct spreads; every one leaves the spare alive past Tf2
SPREADS = st.lists(st.floats(0.0, 45.0), min_size=1, max_size=5, unique=True).map(sorted)
UPGRADES = st.lists(st.tuples(st.floats(0.0, 800.0), st.sampled_from(["minor", "major"]),
                              st.floats(0.0, 0.01), st.floats(1.0, 50.0)),
                    max_size=3, unique_by=lambda e: e[0]).map(
    lambda events: tuple(UpgradeEvent(*e) for e in sorted(events)))


def pulse_at_first_failure():
    """A system whose software pulse at Tf1 makes both units certainly failed within weeks."""
    return make_software_system(upgrades=(UpgradeEvent(208.0, "minor", 10.0, 50.0),))


class TestSystemHazardCurves:
    @settings(max_examples=60, deadline=None)
    @given(
        th1=st.floats(5.0, 40.0),
        th2=st.floats(50.0, 300.0),
        margin=st.floats(0.0, 60.0),
        lab_share=st.floats(0.0, 1.0),
        spreads=SPREADS,
        upgrades=UPGRADES,
        software=st.booleans(),
        operator_rate=st.floats(0.0, 0.01),
        dt=st.floats(0.05, 5.0),
        start_share=st.floats(0.0, 1.0),
    )
    def test_equals_per_segment_reference(self, th1, th2, margin, lab_share, spreads, upgrades,
                                          software, operator_rate, dt, start_share):
        cfg = make_software_system(th1=th1, th2=th2, margin=margin, lab=lab_share * th1,
                                   upgrades=upgrades, software=software,
                                   operator_rate=operator_rate)
        timelines = [scenario_timeline(with_spread(cfg, d)) for d in spreads]
        start = start_share * timelines[0].t_end
        curves = list(system_hazard_curves(timelines, dt=dt, start=start))
        assert len(curves) == len(timelines)
        for tl, curve in zip(timelines, curves):
            t, h = per_segment_curve(tl, dt, start)
            assert np.array_equal(curve.times, t)
            assert np.array_equal(curve.rates, h)

    def test_one_timeline_is_system_hazard_curve(self):
        tl = scenario_timeline(make_redzone_system(delta=3.0))
        (curve,) = system_hazard_curves([tl], dt=0.1, start=150.0)
        single = system_hazard_curve(tl, dt=0.1, start=150.0)
        assert np.array_equal(curve.times, single.times)
        assert np.array_equal(curve.rates, single.rates)

    @pytest.fixture
    def births(self, monkeypatch):
        """The birth of each unit whose rate, or cumulative hazard over the grid, is evaluated."""
        births = {"rate": [], "cumulative": []}
        rate, cumulative = system._unit_rate, system._unit_cumulative_at

        def counted_rate(times, au, config):
            births["rate"].append(au.birth)
            return rate(times, au, config)

        def counted_cumulative(t, au, config):
            if np.ndim(t):  # not the cumulative hazard at a pair's epoch
                births["cumulative"].append(au.birth)
            return cumulative(t, au, config)

        monkeypatch.setattr(system, "_unit_rate", counted_rate)
        monkeypatch.setattr(system, "_unit_cumulative_at", counted_cumulative)
        return births

    def test_each_unit_evaluated_once(self, births):
        # The spreads of a sweep straddling th3 = 10, sampled from the baseline window on,
        # hold two units: the mains (born at 0) and the spare (born 2 weeks before Tf1).
        spreads = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 40.0)
        timelines = [scenario_timeline(make_redzone_system(delta=d)) for d in spreads]
        start = 0.8 * timelines[0].t0
        curves = list(system_hazard_curves(timelines, dt=0.01, start=start))
        assert sorted(births["rate"]) == sorted(births["cumulative"]) == [0.0, 206.0]
        for tl, curve in zip(timelines, curves):
            assert np.array_equal(curve.rates, per_segment_curve(tl, 0.01, start)[1])

    def test_equal_configs_are_one_system(self, births):
        # two configs built apart, equal by value, key their units alike
        first, second = make_redzone_system(delta=4.0), make_redzone_system(delta=4.0)
        assert first is not second and first == second and hash(first) == hash(second)
        timelines = [scenario_timeline(cfg) for cfg in (first, second)]
        curves = list(system_hazard_curves(timelines, dt=0.5))
        assert sorted(births["rate"]) == sorted(births["cumulative"]) == [0.0, 206.0]
        assert np.array_equal(curves[0].rates, curves[1].rates)

    def test_each_curve_owns_its_rates(self):
        timelines = [scenario_timeline(make_redzone_system(delta=d)) for d in (1.0, 4.0, 9.0)]
        curves = system_hazard_curves(timelines, dt=0.5)
        first = next(curves)
        first.rates[:] = -1.0
        for tl, curve in zip(timelines[1:], curves):
            assert np.array_equal(curve.rates, per_segment_curve(tl, 0.5)[1])

    def test_systems_sharing_an_end_of_life_keep_their_own_values(self):
        # every config ends at 2 * mean - lab = 414; each differs from the first in one
        # thing a segment's values read: a unit term, the spare's birth or the Tf1 epoch
        base = make_software_system(margin=8.0, lab=2.0)
        configs = [
            base,
            base._replace(operator=OperatorHazard(0.002)),
            base._replace(software=None),
            base._replace(hazard=make_bathtub(useful_rate=0.02, burnin=(0.9, 0.1),
                                              th1=20.0, th2=180.0, th3=10.0)),
            make_software_system(margin=9.0, lab=4.0),
        ]
        timelines = [scenario_timeline(with_spread(cfg, 3.0)) for cfg in configs]
        assert len({tl.t_end for tl in timelines}) == 1
        for tl, curve in zip(timelines, system_hazard_curves(timelines, dt=0.25, start=100.0)):
            assert np.array_equal(curve.rates, per_segment_curve(tl, 0.25, 100.0)[1])

    def test_pairs_with_other_epochs_keep_their_own_values(self):
        # the same two units conditioned on different epochs are different functions of time
        tl = scenario_timeline(make_redzone_system(delta=6.0))
        moved = tl._replace(segments=tuple(
            seg._replace(epoch=seg.epoch - 1.0) if seg.boundary == "Tf1" else seg
            for seg in tl.segments))
        for timeline, curve in zip((tl, moved), system_hazard_curves([tl, moved], dt=0.25)):
            assert np.array_equal(curve.rates, per_segment_curve(timeline, 0.25)[1])

    def test_empty(self):
        assert list(system_hazard_curves([], dt=0.1)) == []

    def test_grid_step_validation(self):
        tl = scenario_timeline(make_redzone_system(delta=1.0))
        with pytest.raises(DomainError, match="dt must be > 0"):
            system_hazard_curves([tl], dt=0.0)

    def test_timelines_must_share_one_end_of_life(self):
        timelines = [scenario_timeline(make_redzone_system(delta=1.0, lab=lab))
                     for lab in (2.0, 4.0)]
        with pytest.raises(DomainError, match="one end of life"):
            system_hazard_curves(timelines, dt=0.1)

    def test_certainly_failed_only_where_a_curve_reaches(self):
        cfg = pulse_at_first_failure()
        small, large = (scenario_timeline(with_spread(cfg, d)) for d in (1.0, 30.0))
        (curve,) = system_hazard_curves([small], dt=0.5)
        assert np.array_equal(curve.rates, per_segment_curve(small, 0.5)[1])
        with pytest.raises(CompositionError) as reference:
            per_segment_curve(large, 0.5)
        with pytest.raises(CompositionError) as shared:
            system_hazard_curves([small, large], dt=0.5)
        assert str(shared.value) == str(reference.value)
