import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redzone import (
    CompositionError,
    DeltaSweepPoint,
    DomainError,
    HazardCurve,
    Policy,
    RedZone,
    SimConfig,
    UpgradeEvent,
    ValidationError,
    assess_curve,
    assess_red_zone,
    compare_policies,
    delta_sweep,
    detect_red_zone,
    lifetime_extension,
    run_ensemble,
    scenario_timeline,
    system_hazard_curve,
)
from redzone import analysis
from redzone.analysis import apply_vendor_decision_point, baseline_from_curve, peak_ratio
from redzone.maintenance import red_zone_condition
from redzone.montecarlo import run_batch, sample_lifetimes

from conftest import (
    UNSHRUNK,
    make_redzone_system,
    make_software_system,
    per_segment_curve,
    with_spread,
)

# the red-zone settings of the shipped schema's analysis section
SWEEP = {"threshold": 2.0, "dt": 0.1, "baseline_window_fraction": 0.8}


def bump_curve(baseline=1.0, bumps=((40.0, 50.0, 3.0),), dt=0.5, t_max=100.0):
    t = np.arange(0.0, t_max, dt)
    h = np.full_like(t, baseline)
    for lo, hi, height in bumps:
        h[(t >= lo) & (t <= hi)] = height * baseline
    return HazardCurve(times=t, rates=h)


def walked_zone(curve, baseline, threshold):
    """Reference detection: walk the run out from the peak one point at a time."""
    above = curve.rates > threshold * baseline
    if not np.any(above):
        return None
    exceed_idx = np.flatnonzero(above)
    peak = exceed_idx[np.argmax(curve.rates[exceed_idx])]
    lo = hi = peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi + 1 < len(above) and above[hi + 1]:
        hi += 1
    start, end = float(curve.times[lo]), float(curve.times[hi])
    if end <= start:
        end = start + (float(curve.times[1] - curve.times[0]) if len(curve.times) > 1 else 1e-9)
    return RedZone(start=start, end=end, severity=float(curve.rates[peak] / baseline))


@st.composite
def runs_of_rates(draw):
    """Rates holding a run [lo, hi] of values above 2, which may touch either end or be
    one point, with each side bounded by a point below 2; other points, NaN among them,
    may tie the run's maximum or form other runs."""
    n = draw(st.integers(1, 60))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    rates = draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0, np.nan]),
                          min_size=n, max_size=n))
    rates[lo:hi + 1] = draw(st.lists(st.sampled_from([2.5, 3.0, 4.0]),
                                     min_size=hi - lo + 1, max_size=hi - lo + 1))
    for edge in (lo - 1, hi + 1):
        if 0 <= edge < n:
            rates[edge] = 1.0
    return rates


def full_grid_assessment(config, *, threshold, dt, baseline_window_fraction):
    """Reference assessment: every reader takes its points from the curve on [0, t_end)."""
    timeline = scenario_timeline(config)
    curve = system_hazard_curve(timeline, dt=dt)
    baseline = baseline_from_curve(curve, timeline.t0, window_fraction=baseline_window_fraction)
    tail = curve.times >= timeline.t0
    zone = walked_zone(HazardCurve(times=curve.times[tail], rates=curve.rates[tail]),
                       baseline, threshold)
    severity = peak_ratio(curve, baseline, timeline.tf1, max(timeline.t2, timeline.tf2))
    return zone, severity, baseline


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

    @pytest.mark.parametrize("bump, start, end", [
        ((0.0, 10.0, 3.0), 0.0, 10.0),     # the run touches the first point
        ((95.0, 100.0, 3.0), 95.0, 99.5),  # the run touches the last point
        ((40.0, 40.0, 3.0), 40.0, 40.5),   # a single point, widened to one step
        ((0.0, 100.0, 3.0), 0.0, 99.5),    # every point
    ], ids=["first", "last", "single", "all"])
    def test_run_edges(self, bump, start, end):
        curve = bump_curve(bumps=(bump,))
        zone = detect_red_zone(curve, baseline=1.0, threshold=2.0)
        assert (zone.start, zone.end, zone.severity) == (start, end, 3.0)

    @settings(max_examples=300, deadline=None)
    @given(rates=runs_of_rates(), threshold=st.sampled_from([1.5, 2.0, 2.9, 3.5]))
    @example(rates=[4.0, 3.0, 1.0, 1.0], threshold=2.0)  # the run touches the first point
    @example(rates=[1.0, 3.0, 4.0], threshold=2.0)  # the run touches the last point
    @example(rates=[1.0, 4.0, 1.0], threshold=2.0)  # a single point
    @example(rates=[3.0, 4.0, 1.0, 4.0, 4.0], threshold=2.0)  # tied maxima: the first wins
    @example(rates=[np.nan, 1.0, 4.0, np.nan], threshold=2.0)  # a NaN is below any threshold
    def test_matches_walked_run(self, rates, threshold):
        curve = HazardCurve(times=0.5 * np.arange(len(rates)), rates=np.array(rates))
        assert detect_red_zone(curve, 1.0, threshold) == walked_zone(curve, 1.0, threshold)

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
        assert baseline_from_curve(curve, useful_end=80.0, window_fraction=0.8) == pytest.approx(1.0)

    def test_peak_ratio_defined_below_threshold(self):
        curve = bump_curve(bumps=((40.0, 50.0, 1.5),))
        assert peak_ratio(curve, 1.0, 30.0, 60.0) == pytest.approx(1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            peak_ratio(bump_curve(), 1.0, 200.0, 300.0)

    def test_window_between_grid_points_reads_both_neighbours(self):
        # grid step 0.5: [50.1, 50.3] holds no point and reads 50.0 (bump) and 50.5
        assert peak_ratio(bump_curve(), 1.0, 50.1, 50.3) == pytest.approx(3.0)
        assert peak_ratio(bump_curve(), 1.0, 39.6, 39.8) == pytest.approx(3.0)


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
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1, baseline_window_fraction=0.8)
        assert a.detected
        assert a.severity > 2.0
        timeline = scenario_timeline(cfg)
        assert timeline.tf1 <= a.zone.start < timeline.t2
        assert a.zone.severity == pytest.approx(a.severity, rel=1e-9)

    def test_large_gap_not_detected(self):
        cfg = make_redzone_system(delta=20.0)
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1, baseline_window_fraction=0.8)
        assert not a.detected
        assert a.severity < 2.0

    def test_commissioning_burnin_is_not_a_red_zone(self):
        # the early-life hump is far above baseline but lies before the
        # end-of-life window, so it must not trigger detection
        cfg = make_redzone_system(delta=20.0)
        a = assess_red_zone(cfg, threshold=2.0, dt=0.1, baseline_window_fraction=0.8)
        curve = system_hazard_curve(scenario_timeline(cfg), dt=0.1)
        early = curve.times < 10.0
        assert float(np.max(curve.rates[early])) > 2.0 * a.baseline
        assert not a.detected

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(delta=st.floats(0.1, 40.0), lab=st.floats(0.0, 18.0),
           threshold=st.floats(1.05, 4.0), dt=st.floats(0.05, 1.0),
           fraction=st.floats(0.05, 0.95))
    def test_window_matches_full_grid(self, delta, lab, threshold, dt, fraction):
        cfg = make_redzone_system(delta=delta, lab=lab)
        a = assess_red_zone(cfg, threshold=threshold, dt=dt, baseline_window_fraction=fraction)
        assert (a.zone, a.severity, a.baseline) == full_grid_assessment(
            cfg, threshold=threshold, dt=dt, baseline_window_fraction=fraction)


class TestDeltaSweep:
    def test_detection_pattern_brackets_th3(self):
        cfg = make_redzone_system(delta=1.0)
        th3 = cfg.hazard.th3
        sim = SimConfig(replications=200, master_seed=17)
        rows = delta_sweep(cfg, [0.1 * th3, 0.5 * th3, 2.0 * th3, 4.0 * th3],
                           Policy("type1"), sim, **SWEEP)
        assert [r.detected for r in rows] == [True, True, False, False]
        assert [r.predicted for r in rows] == [True, True, False, False]
        assert all(r.trdd_mean is not None for r in rows)

    def test_detection_monotone_nonincreasing(self):
        cfg = make_redzone_system(delta=1.0)
        th3 = cfg.hazard.th3
        sim = SimConfig(replications=1000, master_seed=29)
        deltas = [m * th3 for m in (0.2, 0.4, 0.8, 1.2, 1.6, 2.4, 3.2, 4.0)]
        rows = delta_sweep(cfg, deltas, Policy("type1"), sim, **SWEEP)
        flags = [r.detected for r in rows]
        assert flags == sorted(flags, reverse=True)
        sevs = [r.severity for r in rows]
        assert sevs == sorted(sevs, reverse=True)

    def test_burnin_mitigation_reduces_severity(self):
        th3 = 10.0
        sevs = []
        for lab in (2.0, 6.0, 10.0, 14.0, 18.0):
            cfg = make_redzone_system(delta=0.1 * th3, lab=lab)
            sevs.append(assess_red_zone(cfg, threshold=2.0, dt=0.1, baseline_window_fraction=0.8).severity)
        assert all(a > b for a, b in zip(sevs, sevs[1:]))

    def test_config_warning_not_repeated_per_spread(self):
        # lab_burnin 25 > th1 20 warns once, when the caller builds the config;
        # the sweep's per-spread copies of it must not warn again
        cfg = make_redzone_system(delta=1.0, lab=25.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta_sweep(cfg, [1.0, 20.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)
        assert [str(w.message) for w in caught] == []

    @settings(max_examples=25, deadline=None, phases=UNSHRUNK)
    @given(
        spreads=st.lists(st.floats(0.1, 45.0), min_size=1, max_size=4, unique=True).map(sorted),
        lab=st.floats(0.0, 20.0),
        upgrades=st.lists(st.tuples(st.floats(0.0, 400.0), st.sampled_from(["minor", "major"]),
                                    st.floats(0.0, 0.01), st.floats(1.0, 50.0)),
                          max_size=2, unique_by=lambda e: e[0]),
        software=st.booleans(),
        operator_rate=st.floats(0.0, 0.01),
        threshold=st.floats(1.05, 4.0),
        dt=st.floats(0.05, 1.0),
        fraction=st.floats(0.05, 0.95),
    )
    def test_rows_equal_per_spread_reference(self, spreads, lab, upgrades, software,
                                             operator_rate, threshold, dt, fraction):
        cfg = make_software_system(lab=lab, software=software, operator_rate=operator_rate,
                                   upgrades=[UpgradeEvent(*e) for e in sorted(upgrades)])
        policy, sim = Policy("type1"), SimConfig(replications=3, master_seed=11)
        rows = delta_sweep(cfg, spreads, policy, sim, threshold=threshold, dt=dt,
                           baseline_window_fraction=fraction)
        expected = []
        for d in spreads:
            spread = with_spread(cfg, d)
            timeline = scenario_timeline(spread)
            t, h = per_segment_curve(timeline, dt, fraction * timeline.t0)
            reference = assess_curve(timeline, HazardCurve(times=t, rates=h),
                                     threshold=threshold, baseline_window_fraction=fraction)
            trdd = run_ensemble(spread, policy, sim).trdd
            expected.append(DeltaSweepPoint(
                delta=d, predicted=red_zone_condition(d, cfg.hazard.th3),
                detected=reference.detected, severity=reference.severity,
                trdd_mean=None if trdd is None else trdd.mean))
        assert rows == expected

    def test_spread_past_the_spare_fails_before_any_ensemble(self, monkeypatch):
        cfg = make_redzone_system(delta=1.0)
        with pytest.raises(ValidationError) as reference:
            scenario_timeline(with_spread(cfg, 300.0))
        ensembles = []
        monkeypatch.setattr(analysis, "run_ensemble", lambda *args: ensembles.append(args))
        with pytest.raises(ValidationError) as swept:
            delta_sweep(cfg, [1.0, 2.0, 300.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)
        assert str(reference.value).endswith("; lower the lifetime sd or raise the mean lifetime")
        assert str(swept.value) == (
            "spread 300.0: spare exhausts before the second main failure; "
            "use a smaller spread or raise the mean lifetime")
        assert swept.value.fields == ("lifetime.mean", "system.lab_burnin")
        assert ensembles == []

    @pytest.mark.parametrize("alpha, lab", [(1.0, 2.0), (0.0, 250.0)],
                             ids=["shelf-death", "dead-on-arrival"])
    def test_spare_dead_before_first_failure_fails_before_any_ensemble(self, alpha, lab,
                                                                       monkeypatch):
        # fully shelf-aged, the spare dies on the shelf at 206, before Tf1 = 208; with
        # 250 weeks of lab credit it is dead on arrival.  No spread moves either, so the
        # sweep raises the timeline's error as it is
        cfg = make_redzone_system(delta=1.0, lab=lab)._replace(shelf_aging_factor=alpha)
        with pytest.raises(ValidationError) as reference:
            scenario_timeline(cfg)
        ensembles = []
        monkeypatch.setattr(analysis, "run_ensemble", lambda *args: ensembles.append(args))
        with pytest.raises(ValidationError) as swept:
            delta_sweep(cfg, [1.0, 20.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)
        assert str(swept.value) == str(reference.value)
        assert swept.value.fields == ("system.shelf_aging_factor", "system.lab_burnin")
        assert ensembles == []

    def test_later_certainly_failed_spread_raises_the_reference_error(self):
        # a software pulse at Tf1 leaves both units certainly failed within weeks
        cfg = make_software_system(upgrades=(UpgradeEvent(208.0, "minor", 10.0, 50.0),))
        sim = SimConfig(replications=10, master_seed=1)
        assert len(delta_sweep(cfg, [1.0], Policy("type1"), sim, **SWEEP)) == 1
        timeline = scenario_timeline(with_spread(cfg, 30.0))
        with pytest.raises(CompositionError) as reference:
            per_segment_curve(timeline, SWEEP["dt"], SWEEP["baseline_window_fraction"] * timeline.t0)
        with pytest.raises(CompositionError) as swept:
            delta_sweep(cfg, [1.0, 30.0], Policy("type1"), sim, **SWEEP)
        assert str(swept.value) == str(reference.value)

    def test_empty_sweep(self):
        cfg = make_redzone_system(delta=1.0)
        assert delta_sweep(cfg, [], Policy("type1"),
                           SimConfig(replications=10, master_seed=1), **SWEEP) == []

    def test_unsorted_rejected(self):
        cfg = make_redzone_system(delta=1.0)
        with pytest.raises(DomainError):
            delta_sweep(cfg, [5.0, 1.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)


class TestComparePolicies:
    def test_rotation_extends_redundant_lifetime(self):
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=2000, master_seed=31)
        report = compare_policies(cfg, 200.0 / 6, sim, vendor_mtbf=200.0, warn_factor=0.8)
        assert 0.40 <= report.extension_ratio <= 0.55
        assert report.metrics_type1.dp.mean == pytest.approx(160.0)
        assert report.metrics_type1.tdr.mean == pytest.approx(
            report.metrics_type1.tdt.mean - 160.0)
        assert report.metrics_type2.tdr is not None and report.metrics_type2.tdr.mean > 0.0

    def test_rotation_budget_bound(self):
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=2000, master_seed=37)
        trdd = run_batch(cfg, Policy("type2", rotation_period=200.0 / 6),
                         sample_lifetimes(cfg, sim.master_seed, sim.replications)).trdd
        assert float(np.nanmax(trdd)) <= 1.55 * 200.0

    def test_rotation_too_infrequent_to_help(self):
        # rotation period beyond the unit life degenerates to replace-on-failure
        cfg = make_redzone_system(delta=2.0, mean=200.0)
        sim = SimConfig(replications=1000, master_seed=41)
        report = compare_policies(cfg, 400.0, sim, warn_factor=0.8)
        assert abs(report.extension_ratio) < 0.05

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_rotation_period_rejected_before_any_ensemble(self, period, monkeypatch):
        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(analysis, "run_ensemble", no_ensemble)
        with pytest.raises(ValidationError, match="rotation_period"):
            compare_policies(make_redzone_system(delta=2.0, mean=200.0), period,
                             SimConfig(replications=10, master_seed=1), warn_factor=0.8)


class TestApplyVendorDecisionPoint:
    @staticmethod
    def type1_metrics(horizon=None):
        return run_ensemble(make_redzone_system(delta=2.0, mean=200.0), Policy("type1"),
                            SimConfig(replications=20, master_seed=3, horizon=horizon))

    def test_warn_factor_times_vendor_mtbf(self):
        met = apply_vendor_decision_point(self.type1_metrics(), 200.0, 0.8)
        assert met.dp.mean == met.dp.ci_low == met.dp.ci_high == pytest.approx(160.0)
        assert met.dp.std == 0.0
        margins = met.tdt_values - met.dp.mean  # per replication, as the summary reads them
        assert (met.tdr.mean, met.tdr.std) == (np.mean(margins), np.std(margins, ddof=1))
        assert met.tdr.mean == pytest.approx(met.tdt.mean - 160.0)

    def test_input_metrics_unchanged(self):
        given_metrics = self.type1_metrics()
        met = apply_vendor_decision_point(given_metrics, 200.0, 0.8)
        assert met is not given_metrics and met.dp is not None
        assert given_metrics.dp is None and given_metrics.tdr is None

    @pytest.mark.parametrize("vendor_mtbf, horizon", [
        (None, None),  # no vendor statistics: no decision point to estimate
        (200.0, 50.0),  # every replication censored: no lifetime to measure a margin on
    ])
    def test_leaves_metrics_unchanged(self, vendor_mtbf, horizon):
        met = apply_vendor_decision_point(self.type1_metrics(horizon), vendor_mtbf, 0.8)
        assert met.dp is None and met.tdr is None

    @pytest.mark.parametrize("vendor_mtbf, warn_factor", [
        (0.0, 0.8), (-200.0, 0.8), (float("nan"), 0.8), (200.0, 0.0), (200.0, -0.5),
    ])
    def test_non_positive_input_rejected(self, vendor_mtbf, warn_factor):
        with pytest.raises(DomainError):
            apply_vendor_decision_point(self.type1_metrics(), vendor_mtbf, warn_factor)
