import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from redzone import (
    CompositionError,
    DeltaSweepPoint,
    DomainError,
    Grid,
    HazardCurve,
    Policy,
    RedZone,
    SimConfig,
    UpgradeEvent,
    ValidationError,
    ValidationWarning,
    WeibullTerm,
    assess_curve,
    assess_red_zone,
    bathtub_hazard,
    compare_policies,
    delta_sweep,
    detect_red_zone,
    lifetime_extension,
    run_ensemble,
    scenario_timeline,
    system_hazard_curve,
)
from redzone import analysis, system
from redzone.analysis import (RedZoneAssessment, _median, apply_vendor_decision_point,
                              baseline_from_curve)
from redzone.montecarlo import run_batch, sample_lifetimes
from redzone.system import _segment_rate

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
    return HazardCurve(grid=Grid(0, len(t), dt), rates=h)


# a window that spans bump_curve's grid
SPAN = (0.0, 100.0)


def walked_assessment(curve, baseline, threshold, t_start, t_end):
    """Reference detection: find the window's first highest number, then walk the run
    out from it one point at a time."""
    times, rates = curve.times.tolist(), curve.rates.tolist()
    lo = next(i for i, t in enumerate(times) if t >= t_start)
    hi = next((i for i, t in enumerate(times) if t >= t_end), len(times) - 1)
    peak = lo
    for i in range(lo, hi + 1):
        if rates[i] > rates[peak] or np.isnan(rates[peak]):
            peak = i
    severity = rates[peak] / baseline
    above = [r > threshold * baseline for r in rates]
    if not above[peak]:
        return RedZoneAssessment(zone=None, severity=severity, baseline=baseline)
    lo = hi = peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi + 1 < len(above) and above[hi + 1]:
        hi += 1
    start, end = times[lo], times[hi]
    if end <= start:  # one grid step, read on the curve's first two grid points
        first_two = (curve.grid.first + np.arange(2)) * curve.grid.dt
        end = start + (first_two[1] - first_two[0])
    zone = RedZone(start=start, end=end, severity=severity)
    return RedZoneAssessment(zone=zone, severity=severity, baseline=baseline)


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


def forbid_ensembles(monkeypatch):
    """Fail the test if the analysis draws lifetimes or runs the engine: the draw and
    the engine call that the sweep's and the comparison's ensembles make."""
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    for name in ("_uniforms", "sample_lifetimes", "run_batch"):
        monkeypatch.setattr(analysis, name, no_ensemble)


def full_grid_assessment(config, *, threshold, dt, baseline_window_fraction):
    """Reference assessment: every reader takes its points from the curve on [0, t_end)."""
    timeline = scenario_timeline(config)
    curve = system_hazard_curve(timeline, dt=dt)
    baseline = baseline_from_curve(curve, timeline.t0, window_fraction=baseline_window_fraction)
    tail = int(np.count_nonzero(curve.times < timeline.t0))
    return walked_assessment(HazardCurve(grid=curve.grid[tail:], rates=curve.rates[tail:]),
                             baseline, threshold, timeline.tf1, timeline.t2)


class TestDetectRedZone:
    def test_flat_curve_yields_none(self):
        a = detect_red_zone(bump_curve(bumps=()), 1.0, 2.0, *SPAN)
        assert (a.zone, a.severity, a.baseline) == (None, 1.0, 1.0)

    def test_single_bump_detected(self):
        a = detect_red_zone(bump_curve(), 1.0, 2.0, *SPAN)
        assert a.detected
        assert a.zone.start == pytest.approx(40.0)
        assert a.zone.end == pytest.approx(50.0)
        assert a.zone.severity == a.severity == pytest.approx(3.0)

    def test_interval_contains_window_peak(self):
        curve = bump_curve(bumps=((10.0, 30.0, 2.5), (60.0, 65.0, 4.0)))
        zone = detect_red_zone(curve, 1.0, 2.0, *SPAN).zone
        assert 60.0 <= zone.start <= zone.end <= 65.0
        assert zone.severity == pytest.approx(4.0)

    def test_higher_peak_outside_the_window_is_not_read(self):
        # the wear-out of a spare at its death, past the failure window, is no zone
        curve = bump_curve(bumps=((10.0, 30.0, 2.5), (60.0, 65.0, 4.0)))
        a = detect_red_zone(curve, 1.0, 2.0, 5.0, 35.0)
        assert (a.zone.start, a.zone.end, a.severity) == (10.0, 30.0, 2.5)
        a = detect_red_zone(curve, 1.0, 3.0, 5.0, 35.0)
        assert (a.zone, a.severity) == (None, 2.5)

    def test_threshold_nesting(self):
        curve = bump_curve(bumps=((10.0, 30.0, 2.5), (60.0, 65.0, 4.0)))
        z_lo = detect_red_zone(curve, 1.0, 2.0, *SPAN).zone
        z_hi = detect_red_zone(curve, 1.0, 3.0, *SPAN).zone
        assert z_lo.start <= z_hi.start and z_hi.end <= z_lo.end

    @pytest.mark.parametrize("bump, start, end", [
        ((0.0, 10.0, 3.0), 0.0, 10.0),     # the run touches the first point
        ((95.0, 100.0, 3.0), 95.0, 99.5),  # the run touches the last point
        ((40.0, 40.0, 3.0), 40.0, 40.5),   # a single point, widened to one step
        ((0.0, 100.0, 3.0), 0.0, 99.5),    # every point
    ], ids=["first", "last", "single", "all"])
    def test_run_edges(self, bump, start, end):
        zone = detect_red_zone(bump_curve(bumps=(bump,)), 1.0, 2.0, *SPAN).zone
        assert (zone.start, zone.end, zone.severity) == (start, end, 3.0)

    @settings(max_examples=300, deadline=None)
    @given(rates=runs_of_rates(), threshold=st.sampled_from([1.5, 2.0, 2.9, 3.5]),
           window=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)))
    @example(rates=[4.0, 3.0, 1.0, 1.0], threshold=2.0,
             window=(-1.0, 1.0))  # the run touches the first point
    @example(rates=[1.0, 3.0, 4.0], threshold=2.0,
             window=(-1.0, 1.0))  # the run touches the last point
    @example(rates=[1.0, 4.0, 1.0], threshold=2.0, window=(-1.0, 1.0))  # a single point
    @example(rates=[3.0, 4.0, 1.0, 4.0, 4.0], threshold=2.0,
             window=(-1.0, 1.0))  # tied maxima: the first wins
    @example(rates=[np.nan, 1.0, 4.0, np.nan], threshold=2.0,
             window=(-1.0, 1.0))  # a NaN is never the peak
    @example(rates=[1.0, np.nan, np.nan, 4.0], threshold=2.0,
             window=(0.2, 0.05))  # an all-NaN window reads NaN
    @example(rates=[1.0, 1.0, 4.0, 1.0], threshold=2.0,
             window=(0.0, 0.3))  # a window's end between points reads the next one
    @example(rates=[1.0, 3.0, 4.0, 3.0, 1.0], threshold=2.0,
             window=(0.4, 0.0))  # a one-point window: the run reaches past it
    def test_matches_walked_run(self, rates, threshold, window):
        # the window starts and ends anywhere from before the first point to past the
        # last, as fractions of the grid's span, and holds at least the first point at
        # or after its start
        times = 0.5 * np.arange(len(rates))
        span = 0.5 * len(rates)
        t_start = min(window[0] * span, float(times[-1]))
        t_end = t_start + window[1] * span
        curve = HazardCurve(grid=Grid(0, len(rates), 0.5), rates=np.array(rates))
        np.testing.assert_equal(detect_red_zone(curve, 1.0, threshold, t_start, t_end),
                                walked_assessment(curve, 1.0, threshold, t_start, t_end))

    def test_empty_curve_rejected(self):
        empty = HazardCurve(grid=Grid(0, 0, 0.5), rates=np.array([]))
        with pytest.raises(DomainError):
            detect_red_zone(empty, 1.0, 2.0, *SPAN)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            detect_red_zone(bump_curve(), 0.0, 2.0, *SPAN)
        with pytest.raises(DomainError):
            detect_red_zone(bump_curve(), 1.0, 1.0, *SPAN)


class TestBaselineAndPeak:
    def test_baseline_is_window_median(self):
        curve = bump_curve(bumps=())
        assert baseline_from_curve(curve, useful_end=80.0, window_fraction=0.8) == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)
                         | st.sampled_from([0.0, -0.0]), min_size=1, max_size=20),
           data=st.data())
    def test_median_is_numpy_s_bit_for_bit(self, pool, data):
        # lengths 1 to 500 drawn from a pool of at most 20 values, so most hold ties;
        # the same bits, signed zeros included
        picks = data.draw(arrays(np.intp, st.integers(1, 500),
                                 elements=st.integers(0, len(pool) - 1)))
        values = np.array(pool)[picks]
        expected = np.median(values)
        assert np.float64(_median(values)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("at", [64.0, 72.0, 79.5])
    def test_a_nan_in_the_window_is_not_a_positive_baseline(self, at):
        # the window [64, 80) on a grid of step 0.5: its first, a middle and its last point
        curve = bump_curve(bumps=())
        curve.rates[curve.grid.index(at)] = np.nan
        with pytest.raises(DomainError, match="^measured baseline is not positive$"):
            baseline_from_curve(curve, useful_end=80.0, window_fraction=0.8)

    def test_severity_defined_below_threshold(self):
        curve = bump_curve(bumps=((40.0, 50.0, 1.5),))
        a = detect_red_zone(curve, 1.0, 2.0, 30.0, 60.0)
        assert (a.zone, a.severity) == (None, pytest.approx(1.5))

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            detect_red_zone(bump_curve(), 1.0, 2.0, 200.0, 300.0)

    def test_window_end_reads_the_next_grid_point(self):
        # grid step 0.5, bump on [40, 50]: a window between two grid points reads the
        # point after it, and a window ending on a grid point stops there
        assert detect_red_zone(bump_curve(), 1.0, 2.0, 39.6, 39.8).severity == 3.0  # 40.0
        assert detect_red_zone(bump_curve(), 1.0, 2.0, 50.1, 50.3).severity == 1.0  # 50.5
        assert detect_red_zone(bump_curve(), 1.0, 2.0, 30.0, 39.7).severity == 3.0  # 40.0
        assert detect_red_zone(bump_curve(), 1.0, 2.0, 30.0, 39.5).severity == 1.0  # 39.5


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
        assert a == full_grid_assessment(cfg, threshold=threshold, dt=dt,
                                         baseline_window_fraction=fraction)


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

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(lab=st.floats(0.0, 20.0), alpha=st.floats(0.0, 0.5), spread=st.floats(0.1, 40.0),
           threshold=st.floats(1.02, 4.0), burnin=st.tuples(st.floats(0.05, 1.5),
                                                           st.floats(0.05, 0.5)),
           dt=st.floats(0.02, 0.5))
    # the demo config's critical spread, 8.0506, at the grid step it is resolved at
    @example(lab=2.0, alpha=0.0, spread=8.05, threshold=2.0, burnin=(0.9, 0.1), dt=0.002)
    # the spare's own wear-out before its death at 312 crosses 1.094, past the window
    @example(lab=0.0, alpha=0.5, spread=1.0, threshold=1.094, burnin=(0.125, 0.0625), dt=0.5)
    def test_predicted_is_detected_off_the_grid_band(self, lab, alpha, spread, threshold,
                                                     burnin, dt):
        # With the demo wear-out and no software the zone peaks at Tf2, where the spare
        # comes to stand alone, so the curve detects it exactly when the condition
        # predicts it, unless the spare's rate crosses the threshold within the grid
        # step after Tf2, where the grid steps past the peak.
        cfg = make_redzone_system(delta=spread, lab=lab)
        cfg = cfg._replace(hazard=cfg.hazard._replace(burnin=WeibullTerm(*burnin)),
                           shelf_aging_factor=alpha)
        sweep = {"threshold": threshold, "dt": dt, "baseline_window_fraction": 0.8}
        (row,) = delta_sweep(cfg, [spread], Policy("type1"),
                             SimConfig(replications=1, master_seed=1), **sweep)
        timeline = scenario_timeline(cfg)
        spare = timeline.segments[-1].units[0]
        ratios = (bathtub_hazard(np.array([timeline.tf2, timeline.tf2 + dt]) - spare.birth,
                                 cfg.hazard) / assess_red_zone(cfg, **sweep).baseline)
        assume((ratios[0] > threshold) == (ratios[1] > threshold))
        assert row.predicted == row.detected

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(lab=st.floats(0.0, 20.0), alpha=st.floats(0.0, 0.5), spread=st.floats(0.1, 40.0),
           threshold=st.floats(1.02, 4.0), burnin=st.tuples(st.floats(0.05, 1.5),
                                                           st.floats(0.05, 0.5)),
           dt=st.floats(0.02, 0.5))
    # the spare goes in past its burn-in, so T2 = Tf2 and the window ends on the jump there
    @example(lab=0.0, alpha=0.3395, spread=0.3395, threshold=1.25, burnin=(1.5, 0.3229), dt=0.1)
    def test_zone_and_severity_read_one_peak(self, lab, alpha, spread, threshold, burnin, dt):
        cfg = make_redzone_system(delta=spread, lab=lab)
        cfg = cfg._replace(hazard=cfg.hazard._replace(burnin=WeibullTerm(*burnin)),
                           shelf_aging_factor=alpha)
        a = assess_red_zone(cfg, threshold=threshold, dt=dt, baseline_window_fraction=0.8)
        if a.detected:
            assert a.zone.severity == a.severity
        # the zone compares the rate with threshold * baseline, severity is rate / baseline
        if abs(a.severity - threshold) > 1e-12:
            assert a.detected == (a.severity > threshold)

    # the demo config's critical spread is 8.0506; at grid step 0.002 the curve resolves
    # the jump at Tf2, so on either side of it the condition and the curve agree
    @pytest.mark.parametrize("spread, zone", [
        (7.0, True), (8.0, True), (8.05, True), (8.1, False),
        (9.0, False), (9.5, False), (10.0, False), (11.0, False),
    ])
    def test_predicted_brackets_the_critical_spread(self, spread, zone):
        (row,) = delta_sweep(make_redzone_system(delta=spread), [spread], Policy("type1"),
                             SimConfig(replications=1, master_seed=1),
                             **{**SWEEP, "dt": 0.002})
        assert (row.predicted, row.detected) == (zone, zone)

    def test_config_warning_not_repeated_per_spread(self):
        # lab_burnin 25 > th1 20 warns once, when the caller builds the config;
        # the sweep's per-spread copies of it must not warn again
        with pytest.warns(ValidationWarning) as record:
            cfg = make_redzone_system(delta=1.0, lab=25.0)
        assert len(record) == 1
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
        alpha=st.sampled_from([0.0, 0.3]),
        period=st.one_of(st.none(), st.floats(5.0, 100.0)),
        # deaths fall between 198 and 481 weeks here, so a drawn horizon censors some rows
        horizon=st.one_of(st.none(), st.floats(200.0, 420.0)),
    )
    # type2, shelf aging and a horizon that censors some of the spreads' rows but not all
    @example(spreads=[1.0, 30.0, 45.0], lab=2.0, upgrades=[], software=True,
             operator_rate=0.0, threshold=2.0, dt=0.1, fraction=0.8, alpha=0.3, period=34.67,
             horizon=300.0)
    # T2 426 lies past the spare's death at 414 (Tf2 408): the window is clipped at t_end
    @example(spreads=[1.0, 200.0], lab=2.0, upgrades=[], software=True, operator_rate=0.0,
             threshold=2.0, dt=0.1, fraction=0.8, alpha=0.0, period=None, horizon=None)
    # the zone, 209 to 241.7, runs on past the window's end at T2 227
    @example(spreads=[1.0], lab=2.0, upgrades=[], software=True, operator_rate=0.0,
             threshold=1.25, dt=0.1, fraction=0.8, alpha=0.0, period=None, horizon=None)
    def test_rows_equal_per_spread_reference(self, spreads, lab, upgrades, software,
                                             operator_rate, threshold, dt, fraction, alpha,
                                             period, horizon):
        # one draw and one engine call give each spread's own ensemble, bit for bit
        cfg = make_software_system(lab=lab, software=software, operator_rate=operator_rate,
                                   upgrades=[UpgradeEvent(*e) for e in sorted(upgrades)])
        cfg = cfg._replace(shelf_aging_factor=alpha)
        policy = Policy("type1") if period is None else Policy("type2", rotation_period=period)
        sim = SimConfig(replications=20, master_seed=11, horizon=horizon)
        rows = delta_sweep(cfg, spreads, policy, sim, threshold=threshold, dt=dt,
                           baseline_window_fraction=fraction)
        expected = []
        for d in spreads:
            spread = with_spread(cfg, d)
            timeline = scenario_timeline(spread)
            t, h = per_segment_curve(timeline, dt, fraction * timeline.t0)
            first = len(np.arange(0.0, timeline.t_end, dt)) - len(t)
            reference = assess_curve(timeline, HazardCurve(grid=Grid(first, len(t), dt), rates=h),
                                     threshold=threshold, baseline_window_fraction=fraction)
            trdd = run_ensemble(spread, policy, sim).trdd
            alone = next(seg for seg in timeline.segments if seg.t_start == timeline.tf2)
            rate = _segment_rate(timeline.tf2, alone, spread)
            expected.append(DeltaSweepPoint(
                delta=d, predicted=rate > threshold * reference.baseline,
                detected=reference.detected, severity=reference.severity,
                trdd_mean=None if trdd is None else trdd.mean))
        assert rows == expected

    def test_spread_past_the_spare_fails_before_any_ensemble(self, monkeypatch):
        cfg = make_redzone_system(delta=1.0)
        with pytest.raises(ValidationError) as reference:
            scenario_timeline(with_spread(cfg, 300.0))
        forbid_ensembles(monkeypatch)
        with pytest.raises(ValidationError) as swept:
            delta_sweep(cfg, [1.0, 2.0, 300.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)
        assert str(swept.value) == str(reference.value) == (
            "spare exhausts before the second main failure at spread 300.0; "
            "lower the spread or raise the mean lifetime")
        assert swept.value.fields == ("lifetime.sd", "lifetime.mean", "system.lab_burnin")

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
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
        forbid_ensembles(monkeypatch)
        with pytest.raises(ValidationError) as swept:
            delta_sweep(cfg, [1.0, 20.0], Policy("type1"),
                        SimConfig(replications=10, master_seed=1), **SWEEP)
        assert str(swept.value) == str(reference.value)
        assert swept.value.fields == ("system.shelf_aging_factor", "system.lab_burnin")

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

    def test_certainly_failed_mains_raise_the_reference_error(self):
        # a software pulse at 203 leaves the mains certainly failed between T0 and Tf1 =
        # 208, while the one-week pair segment after Tf1 composes: the sweep must evaluate
        # the mains' points before its failure window, not only the window
        cfg = make_software_system(upgrades=(UpgradeEvent(203.0, "minor", 10.0, 50.0),))
        timeline = scenario_timeline(with_spread(cfg, 1.0))
        assert (timeline.tf1, timeline.tf2) == (208.0, 209.0)
        with pytest.raises(CompositionError) as reference:
            per_segment_curve(timeline, SWEEP["dt"], SWEEP["baseline_window_fraction"] * timeline.t0)
        with pytest.raises(CompositionError) as swept:
            delta_sweep(cfg, [1.0], Policy("type1"), SimConfig(replications=10, master_seed=1),
                        **SWEEP)
        assert str(swept.value) == str(reference.value)

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The (unit ids, last time) of each piece of curve evaluated."""
        sampled, segment_rate = [], system._segment_rate

        def recorded(t, seg, config):
            sampled.append((tuple(au.unit_id for au in seg.units), float(np.max(t))))
            return segment_rate(t, seg, config)

        monkeypatch.setattr(system, "_segment_rate", recorded)
        return sampled

    @pytest.mark.parametrize("block", [system._BLOCK, 997])
    def test_sweep_samples_through_the_failure_window(self, sampled, monkeypatch, block):
        # the demo sweep's pieces end at the latest spread's first grid point at or after
        # T2, 266 at spread 40, not at the spare's death at 414; a piece longer than a
        # block is sampled in several calls
        monkeypatch.setattr(system, "_BLOCK", block)
        spreads = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 40.0)
        cfg, dt = make_redzone_system(delta=1.0), 0.01
        delta_sweep(cfg, spreads, Policy("type1"), SimConfig(replications=2, master_seed=1),
                    **{**SWEEP, "dt": dt})
        assert {units for units, _ in sampled} == {
            ("controller_1", "controller_2"), ("controller_2", "controller_3"), ("controller_3",)}
        timelines = [scenario_timeline(with_spread(cfg, d)) for d in spreads]
        grid = np.arange(0.0, timelines[-1].t_end, dt)
        last = grid[np.searchsorted(grid, timelines[-1].t2, "left")]
        assert 266.0 <= last < 266.0 + dt
        assert max(end for _, end in sampled) == last
        # a single assessment reports the zone's extent, so it samples to the end of life
        sampled.clear()
        assess_red_zone(with_spread(cfg, 40.0), **{**SWEEP, "dt": dt})
        assert max(end for _, end in sampled) == grid[-1]

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
        forbid_ensembles(monkeypatch)
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
