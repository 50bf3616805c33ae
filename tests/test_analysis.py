import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import (
    DomainError,
    HazardCurve,
    Policy,
    SimConfig,
    assess_red_zone,
    compare_policies,
    delta_sweep,
    detect_red_zone,
    lifetime_extension,
    run_ensemble,
)
from redzone.analysis import apply_vendor_decision_point, baseline_from_curve, peak_ratio

from conftest import make_redzone_system


def bump_curve(baseline=1.0, bumps=((40.0, 50.0, 3.0),), dt=0.5, t_max=100.0):
    t = np.arange(0.0, t_max, dt)
    h = np.full_like(t, baseline)
    for lo, hi, height in bumps:
        h[(t >= lo) & (t <= hi)] = height * baseline
    return HazardCurve(times=t, rates=h)


class TestDetectRedZone:
    def test_flat_curve_yields_none(self):
        assert detect_red_zone(bump_curve(bumps=()), baseline=1.0, threshold=2.0) is None

    def test_single_bump_detected(self):
        zone = detect_red_zone(bump_curve(), baseline=1.0, threshold=2.0)
        assert zone is not None
        assert zone.start == pytest.approx(40.0)
        assert zone.end == pytest.approx(50.0)
        assert zone.severity == pytest.approx(3.0)

    def test_interval_contains_global_peak(self):
        curve = bump_curve(bumps=((10.0, 30.0, 2.5), (60.0, 65.0, 4.0)))
        zone = detect_red_zone(curve, baseline=1.0, threshold=2.0)
        assert 60.0 <= zone.start <= zone.end <= 65.0
        assert zone.severity == pytest.approx(4.0)

    def test_threshold_nesting(self):
        curve = bump_curve(bumps=((10.0, 30.0, 2.5), (60.0, 65.0, 4.0)))
        z_lo = detect_red_zone(curve, baseline=1.0, threshold=2.0)
        z_hi = detect_red_zone(curve, baseline=1.0, threshold=3.0)
        assert z_lo.start <= z_hi.start and z_hi.end <= z_lo.end

    def test_empty_curve_rejected(self):
        empty = HazardCurve(times=np.array([]), rates=np.array([]))
        with pytest.raises(DomainError):
            detect_red_zone(empty, baseline=1.0, threshold=2.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            detect_red_zone(bump_curve(), baseline=0.0, threshold=2.0)
        with pytest.raises(DomainError):
            detect_red_zone(bump_curve(), baseline=1.0, threshold=1.0)


class TestBaselineAndPeak:
    def test_baseline_is_window_median(self):
        curve = bump_curve(bumps=())
        assert baseline_from_curve(curve, useful_end=80.0) == pytest.approx(1.0)

    def test_peak_ratio_defined_below_threshold(self):
        curve = bump_curve(bumps=((40.0, 50.0, 1.5),))
        assert peak_ratio(curve, 1.0, 30.0, 60.0) == pytest.approx(1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            peak_ratio(bump_curve(), 1.0, 200.0, 300.0)


class TestLifetimeExtension:
    def test_half_gain(self):
        assert lifetime_extension(100.0, 150.0) == pytest.approx(0.5)

    def test_no_gain(self):
        assert lifetime_extension(100.0, 100.0) == 0.0

    def test_partial_gain(self):
        assert lifetime_extension(200.0, 290.0) == pytest.approx(0.45)

    def test_invalid_reference(self):
        with pytest.raises(DomainError):
            lifetime_extension(0.0, 100.0)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_identity_is_zero(self, x):
        assert lifetime_extension(x, x) == 0.0


class TestAssessRedZone:
    def test_small_gap_detected_inside_failure_window(self):
        cfg = make_redzone_system(delta=1.0)
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1)
        assert a.detected
        assert a.severity > 2.0
        assert a.zone.start >= a.timeline.tf1
        assert a.zone.start < a.timeline.t2
        assert a.zone.severity == pytest.approx(a.severity, rel=1e-9)

    def test_large_gap_not_detected(self):
        cfg = make_redzone_system(delta=20.0)
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1)
        assert not a.detected
        assert a.severity < 2.0

    def test_commissioning_burnin_is_not_a_red_zone(self):
        # the early-life hump is far above baseline but lies before the
        # end-of-life window, so it must not trigger detection
        cfg = make_redzone_system(delta=20.0)
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1)
        early = a.curve.times < 10.0
        assert float(np.max(a.curve.rates[early])) > 2.0 * a.baseline
        assert not a.detected


class TestDeltaSweep:
    def test_detection_pattern_brackets_th3(self):
        cfg = make_redzone_system(delta=1.0)
        th3 = cfg.hazard.th3
        sim = SimConfig(replications=200, master_seed=17)
        rows = delta_sweep(cfg, [0.1 * th3, 0.5 * th3, 2.0 * th3, 4.0 * th3],
                           Policy("type1"), sim)
        assert [r.detected for r in rows] == [True, True, False, False]
        assert [r.predicted for r in rows] == [True, True, False, False]
        assert all(r.trdd_mean is not None for r in rows)

    def test_detection_monotone_nonincreasing(self):
        cfg = make_redzone_system(delta=1.0)
        th3 = cfg.hazard.th3
        sim = SimConfig(replications=1000, master_seed=29)
        deltas = [m * th3 for m in (0.2, 0.4, 0.8, 1.2, 1.6, 2.4, 3.2, 4.0)]
        rows = delta_sweep(cfg, deltas, Policy("type1"), sim)
        flags = [r.detected for r in rows]
        assert flags == sorted(flags, reverse=True)
        sevs = [r.severity for r in rows]
        assert sevs == sorted(sevs, reverse=True)

    def test_burnin_mitigation_reduces_severity(self):
        th3 = 10.0
        sevs = []
        for lab in (2.0, 6.0, 10.0, 14.0, 18.0):
            cfg = make_redzone_system(delta=0.1 * th3, lab=lab)
            sevs.append(assess_red_zone(cfg, threshold=2.0, dt=0.1).severity)
        assert all(a > b for a, b in zip(sevs, sevs[1:]))

    def test_empty_sweep(self):
        cfg = make_redzone_system(delta=1.0)
        assert delta_sweep(cfg, [], Policy("type1"),
                           SimConfig(replications=10, master_seed=1)) == []

    def test_unsorted_rejected(self):
        cfg = make_redzone_system(delta=1.0)
        with pytest.raises(DomainError):
            delta_sweep(cfg, [5.0, 1.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1))


class TestComparePolicies:
    def test_rotation_extends_redundant_lifetime(self):
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=2000, master_seed=31)
        report = compare_policies(cfg, Policy("type1"),
                                  Policy("type2", rotation_period=200.0 / 6), sim,
                                  vendor_mtbf=200.0)
        assert 0.40 <= report.extension_ratio <= 0.55
        assert report.metrics_type1.dp.mean == pytest.approx(160.0)
        assert report.tdr_1 == pytest.approx(report.metrics_type1.tdt.mean - 160.0)
        assert report.tdr_2 is not None and report.tdr_2 > 0.0

    def test_rotation_budget_bound(self):
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=2000, master_seed=37)
        met = run_ensemble(cfg, Policy("type2", rotation_period=200.0 / 6), sim)
        assert float(np.max(met.trdd_values)) <= 1.55 * 200.0

    def test_rotation_too_infrequent_to_help(self):
        # rotation period beyond the unit life degenerates to replace-on-failure
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=1000, master_seed=41)
        report = compare_policies(cfg, Policy("type1"),
                                  Policy("type2", rotation_period=400.0), sim)
        assert abs(report.extension_ratio) < 0.05


class TestApplyVendorDecisionPoint:
    @staticmethod
    def type1_metrics(horizon=None):
        return run_ensemble(make_redzone_system(delta=2.0, mean=200.0), Policy("type1"),
                            SimConfig(replications=20, master_seed=3, horizon=horizon))

    def test_warn_factor_times_vendor_mtbf(self):
        met = apply_vendor_decision_point(self.type1_metrics(), 200.0, 0.8)
        assert met.dp.mean == met.dp.ci_low == met.dp.ci_high == pytest.approx(160.0)
        assert met.dp.std == 0.0
        assert met.dp.n == len(met.tdt_values)
        np.testing.assert_array_equal(met.tdr_values, met.tdt_values - met.dp_values)
        assert met.tdr.mean == pytest.approx(met.tdt.mean - 160.0)

    def test_input_metrics_unchanged(self):
        given_metrics = self.type1_metrics()
        met = apply_vendor_decision_point(given_metrics, 200.0, 0.8)
        assert met is not given_metrics and met.dp is not None
        assert given_metrics.dp is None and given_metrics.tdr is None
        assert len(given_metrics.dp_values) == len(given_metrics.tdr_values) == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            given_metrics.dp = met.dp

    @pytest.mark.parametrize("vendor_mtbf, horizon", [
        (None, None),  # no vendor statistics: no decision point to estimate
        (200.0, 50.0),  # every replication censored: no lifetime to measure a margin on
    ])
    def test_leaves_metrics_unchanged(self, vendor_mtbf, horizon):
        met = apply_vendor_decision_point(self.type1_metrics(horizon), vendor_mtbf, 0.8)
        assert met.dp is None and met.tdr is None
        assert len(met.dp_values) == len(met.tdr_values) == 0

    @pytest.mark.parametrize("vendor_mtbf, warn_factor", [
        (0.0, 0.8), (-200.0, 0.8), (float("nan"), 0.8), (200.0, 0.0), (200.0, -0.5),
    ])
    def test_non_positive_input_rejected(self, vendor_mtbf, warn_factor):
        with pytest.raises(DomainError):
            apply_vendor_decision_point(self.type1_metrics(), vendor_mtbf, warn_factor)
