import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import (
    CompositionError,
    DomainError,
    LifetimeDistribution,
    SoftwareHazardModel,
    StateError,
    SystemConfig,
    Unit,
    ValidationError,
    ValidationWarning,
    bathtub_hazard,
    compose_parallel,
    effective_age,
    scenario_timeline,
    system_hazard_curve,
    unit_hazard,
)

from conftest import make_bathtub, make_flat_bathtub, make_redzone_system


def closed_form_pair(lam, t):
    """Composed rate of two identical constant-rate units from birth."""
    e = np.exp(-lam * t)
    return 2.0 * lam * (1.0 - e) / (2.0 - e)


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
            SystemConfig(hazard=flat_bathtub, unit_lifetime=LifetimeDistribution(220.0, 0.0),
                         lab_burnin=flat_bathtub.th1 + 1.0)
        assert [w.filename for w in record] == [__file__]


class TestUnitHazard:
    def test_fresh_unit_useful_phase(self, flat_bathtub):
        cfg = SystemConfig(hazard=flat_bathtub,
                           unit_lifetime=LifetimeDistribution(220.0, 0.0))
        u = Unit("u", lifetime=220.0, onjob_age=50.0)
        assert unit_hazard(u, 50.0, cfg) == flat_bathtub.useful_rate

    def test_stagger_shift_identity(self, example_bathtub):
        cfg = SystemConfig(hazard=example_bathtub,
                           unit_lifetime=LifetimeDistribution(220.0, 0.0))
        delta = 7.5
        for age in (5.0, 40.0, 90.0, 130.0):
            c1_later = Unit("controller_1", lifetime=400.0, onjob_age=age + delta)
            c2 = Unit("controller_2", lifetime=400.0, onjob_age=age, stagger=delta)
            assert unit_hazard(c2, age, cfg) == unit_hazard(c1_later, age + delta, cfg)

    def test_spare_installed_with_lab_credit(self, example_bathtub):
        cfg = SystemConfig(hazard=example_bathtub,
                           unit_lifetime=LifetimeDistribution(220.0, 0.0), lab_burnin=2.0)
        spare = Unit("controller_3", lifetime=220.0, lab_burnin_credit=2.0)
        assert unit_hazard(spare, 220.0, cfg) == bathtub_hazard(2.0, example_bathtub)

    def test_failed_unit_rejected(self, flat_bathtub):
        cfg = SystemConfig(hazard=flat_bathtub,
                           unit_lifetime=LifetimeDistribution(220.0, 0.0))
        u = Unit("u", lifetime=10.0, onjob_age=10.0, status="failed")
        with pytest.raises(StateError):
            unit_hazard(u, 10.0, cfg)

    def test_software_only_while_in_slot(self, flat_bathtub):
        sw = SoftwareHazardModel(steady_floor=0.003)
        cfg = SystemConfig(hazard=flat_bathtub,
                           unit_lifetime=LifetimeDistribution(220.0, 0.0), software=sw)
        active = Unit("a", lifetime=220.0, onjob_age=30.0, status="active")
        shelved = Unit("s", lifetime=220.0, shelf_age=30.0, status="shelf")
        assert unit_hazard(active, 30.0, cfg) == pytest.approx(
            flat_bathtub.useful_rate + 0.003)
        assert unit_hazard(shelved, 30.0, cfg) == pytest.approx(flat_bathtub.useful_rate)


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
