import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redzone import (
    CompositionError,
    DomainError,
    Grid,
    HazardCurve,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    SystemConfig,
    UpgradeEvent,
    ValidationError,
    ValidationWarning,
    compose_parallel,
    detect_red_zone,
    scenario_timeline,
    system_hazard_curve,
    system_hazard_curves,
)
from redzone import system
from redzone.config import load_config
from redzone.system import _unit_cumulative_at, _unit_rate, scenario_timelines

from conftest import (
    UNSHRUNK,
    make_bathtub,
    make_flat_bathtub,
    make_redzone_system,
    make_software_system,
    per_segment_curve,
    pulse_at_first_failure,
    with_spread,
)
from oracle import Unit, effective_age

EXAMPLE = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


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

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
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

    @settings(max_examples=60, deadline=None)
    @given(
        th1=st.floats(1.0, 40.0),
        th2=st.floats(50.0, 300.0),
        margin=st.floats(0.0, 60.0),
        delta=st.floats(0.0, 100.0),
        lab_share=st.floats(0.0, 1.5),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    def test_burnin_end_never_precedes_the_second_failure(self, th1, th2, margin, delta,
                                                          lab_share, alpha):
        # T2 = Tf2 + max(th1 - the spare's age at Tf1, 0): the failure window ends at T2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)  # lab credit past th1
            cfg = SystemConfig(hazard=make_bathtub(th1=th1, th2=th2, th3=10.0),
                               unit_lifetime=LifetimeDistribution(th1 + th2 + margin, delta),
                               shelf_aging_factor=alpha, lab_burnin=lab_share * th1)
        try:
            tl = scenario_timeline(cfg)
        except ValidationError:
            return  # the spare dies before Tf1 or by Tf2: no timeline is built
        assert tl.tf1 <= tl.tf2 <= tl.t2


# grid steps: the benchmark's, the shipped config's, one no binary fraction holds, and any
STEPS = st.one_of(st.sampled_from([0.002, 0.1, 1.0 / 3.0]), st.floats(1e-4, 10.0))


@st.composite
def grid_points(draw, grid):
    """A time to look up on ``grid``'s points: one of them or a float next to it, 0,
    -0.0, a negative time, a time past the last point, or inf."""
    points = np.asarray(grid)
    if len(points):
        at = float(points[draw(st.integers(0, len(points) - 1))])
        near = [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)]
    else:
        near = []
    after = grid.time(len(grid))
    return draw(st.sampled_from([*near, 0.0, -0.0, -grid.dt, after, np.nextafter(after, 0.0),
                                 np.nextafter(after, np.inf), 2.0 * after + 1.0, np.inf]))


class TestGrid:
    @settings(max_examples=300, deadline=None)
    @given(dt=STEPS, span=st.floats(0.0, 2000.0), data=st.data())
    @example(dt=0.002, span=207_000.0, data=None)  # as long as the demo scenario's curve
    def test_index_is_searchsorted_on_arange(self, dt, span, data):
        # the grid a curve evaluates on is np.arange(0.0, end, dt), whose point i is i * dt
        # bit for bit: Grid holds it by its bounds, and its index rule is searchsorted's
        end = span * dt
        t = np.arange(0.0, end, dt)
        grid = Grid(0, math.ceil(end / dt), dt)
        assert len(grid) == len(t)
        assert np.array_equal(t, np.arange(len(t)) * dt)
        assert np.array_equal(np.asarray(grid), t)
        if data is None:
            return
        first = data.draw(st.integers(0, len(t)), label="first")
        tail = grid[first:data.draw(st.integers(first, len(t)), label="stop")]
        assert np.array_equal(np.asarray(tail), t[first:first + len(tail)])
        assert [tail.time(j) for j in range(len(tail))] == np.asarray(tail).tolist()
        for g, points in ((grid, t), (tail, np.asarray(tail))):
            for _ in range(4):
                x = data.draw(grid_points(g), label="x")
                assert g.index(x) == np.searchsorted(points, x, "left")
        # as _hazard_curves clips a segment's bounds to a curve's size
        n = data.draw(st.integers(0, len(tail)), label="size")
        x = data.draw(grid_points(tail), label="bound")
        assert min(tail.index(x), n) == np.searchsorted(np.asarray(tail[:n]), x, "left")

    def test_a_grid_slices_in_steps_of_one(self):
        grid = Grid(3, 10, 0.5)
        assert grid[2:-2] == Grid(5, 6, 0.5) and grid[8:2] == Grid(11, 0, 0.5)
        with pytest.raises(DomainError):
            grid[::2]

    def test_a_one_point_zone_widens_by_its_grid_times(self):
        # a tail grid's first two points differ by other than dt: the widened zone ends
        # at the start plus that difference, as on the curve's times array
        dt = 0.1
        first = next(f for f in range(1, 100)
                     if (f + 1) * dt + ((f + 1) * dt - f * dt) != (f + 1) * dt + dt)
        grid = Grid(first, 3, dt)
        t = np.asarray(grid)
        zone = detect_red_zone(HazardCurve(grid, np.array([1.0, 3.0, 1.0])), 1.0, 2.0,
                               0.0, np.inf).zone
        assert (zone.start, zone.end) == (t[1], t[1] + (t[1] - t[0]))
        assert zone.end != t[1] + dt
        # a one-point grid widens by the distance to the point after it, as any other
        lone = detect_red_zone(HazardCurve(grid[1:2], np.array([3.0])), 1.0, 2.0, 0.0, 1.0).zone
        assert (lone.start, lone.end) == (t[1], t[1] + (t[2] - t[1]))


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

    @settings(max_examples=60, deadline=None, phases=UNSHRUNK)
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


class TestSystemHazardCurves:
    @settings(max_examples=60, deadline=None, phases=UNSHRUNK)
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

    @pytest.mark.parametrize("block", [3, 7])
    @settings(max_examples=30, deadline=None, phases=UNSHRUNK)
    @given(
        th1=st.floats(5.0, 40.0),
        th2=st.floats(50.0, 300.0),
        margin=st.floats(0.0, 60.0),
        lab_share=st.floats(0.0, 1.0),
        spreads=SPREADS,
        upgrades=UPGRADES,
        software=st.booleans(),
        operator_rate=st.floats(0.0, 0.01),
        dt=st.floats(0.5, 5.0),
        start_share=st.floats(0.0, 1.0),
    )
    # T2 (227) lies 21 grid points after Tf2 (209), where the spare's piece starts: a
    # block edge inside the piece at both sizes falls on the T2 segment edge
    @example(th1=20.0, th2=180.0, margin=8.0, lab_share=0.1, spreads=[1.0], upgrades=(),
             software=False, operator_rate=0.0, dt=18 / 21, start_share=0.0)
    def test_blocks_of_any_size_equal_the_reference(self, block, th1, th2, margin, lab_share,
                                                    spreads, upgrades, software,
                                                    operator_rate, dt, start_share):
        # a piece is evaluated a block of points at a time; no value depends on where
        # the block edges fall, inside a piece or on a segment edge
        cfg = make_software_system(th1=th1, th2=th2, margin=margin, lab=lab_share * th1,
                                   upgrades=upgrades, software=software,
                                   operator_rate=operator_rate)
        timelines = [scenario_timeline(with_spread(cfg, d)) for d in spreads]
        start = start_share * timelines[0].t_end
        # alone, each timeline's pieces are evaluated into its rates from each slice's start
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(system, "_BLOCK", block)
            curves = list(system_hazard_curves(timelines, dt=dt, start=start))
            lone = [system_hazard_curve(tl, dt=dt, start=start) for tl in timelines]
        for tl, curve, alone in zip(timelines, curves, lone):
            t, h = per_segment_curve(tl, dt, start)
            for c in (curve, alone):
                assert np.array_equal(c.times, t)
                assert np.array_equal(c.rates, h)

    def test_one_timeline_is_system_hazard_curve(self):
        tl = scenario_timeline(make_redzone_system(delta=3.0))
        (curve,) = system_hazard_curves([tl], dt=0.1, start=150.0)
        single = system_hazard_curve(tl, dt=0.1, start=150.0)
        assert np.array_equal(curve.times, single.times)
        assert np.array_equal(curve.rates, single.rates)

    @staticmethod
    def piece_of(seg):
        """The (unit ids, epoch) of a segment's piece; a single unit's epoch is None."""
        units = tuple(au.unit_id for au in seg.units)
        return units, seg.epoch if len(units) > 1 else None

    @pytest.fixture
    def pieces(self, monkeypatch):
        """Each piece evaluated, by :meth:`piece_of`, with the first and last time of each
        block of it evaluated, in call order."""
        pieces, segment_rate = {}, system._segment_rate

        def counted(t, seg, config):
            pieces.setdefault(self.piece_of(seg), []).append((t[0], t[-1]))
            return segment_rate(t, seg, config)

        monkeypatch.setattr(system, "_segment_rate", counted)
        return pieces

    @pytest.mark.parametrize("block", [system._BLOCK, 997])
    def test_sweep_evaluates_each_piece_once(self, pieces, monkeypatch, block):
        # The spreads of a sweep straddling th3 = 10, sampled from the baseline window on,
        # share Tf1 = 208 and a spare born at 206: three pieces, the mains from epoch 0,
        # main2 with the spare from Tf1, and the spare alone in every later segment.
        monkeypatch.setattr(system, "_BLOCK", block)
        spreads = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 40.0)
        timelines = [scenario_timeline(make_redzone_system(delta=d)) for d in spreads]
        start = 0.8 * timelines[0].t0
        curves = list(system_hazard_curves(timelines, dt=0.01, start=start))
        assert sorted(pieces, key=repr) == [
            (("controller_1", "controller_2"), 0.0),
            (("controller_2", "controller_3"), 208.0),
            (("controller_3",), None),
        ]
        # Each piece's blocks, in call order, tile its hull, the grid points from the
        # first its segments hold to the last, each point once and at most a block a call.
        grid = max((curve.times for curve in curves), key=len)
        held = {piece: set() for piece in pieces}
        for tl, curve in zip(timelines, curves):
            for seg in tl.segments:
                points = np.flatnonzero((curve.times >= seg.t_start) & (curve.times < seg.t_end))
                held[self.piece_of(seg)].update(points.tolist())
        for piece, calls in pieces.items():
            spans = [tuple(np.searchsorted(grid, ends).tolist()) for ends in calls]
            points = [i for first, last in spans for i in range(first, last + 1)]
            assert points == list(range(min(held[piece]), max(held[piece]) + 1))
            assert max(last - first + 1 for first, last in spans) <= block
        assert max(map(len, pieces.values())) > 1  # the spare's hull takes blocks
        for tl, curve in zip(timelines, curves):
            assert np.array_equal(curve.rates, per_segment_curve(tl, 0.01, start)[1])

    @pytest.mark.parametrize("block", [system._BLOCK, 997, 3])
    def test_a_lone_timeline_evaluates_its_own_slices(self, pieces, monkeypatch, block):
        # Each piece of one timeline is evaluated over its segments' points alone, a block
        # at a time from each segment's first point.
        monkeypatch.setattr(system, "_BLOCK", block)
        tl = scenario_timeline(make_redzone_system(delta=6.0))
        dt = 0.01 if block > 3 else 0.5
        curve = system_hazard_curve(tl, dt=dt, start=150.0)
        for piece, calls in pieces.items():
            spans = [tuple(np.searchsorted(curve.times, ends).tolist()) for ends in calls]
            slices = [np.searchsorted(curve.times, (seg.t_start, seg.t_end)).tolist()
                      for seg in tl.segments if self.piece_of(seg) == piece]
            assert spans == [(a, min(a + block, hi) - 1) for lo, hi in slices
                             for a in range(lo, hi, block)]
        assert np.array_equal(curve.rates, per_segment_curve(tl, dt, 150.0)[1])

    def test_equal_configs_share_their_pieces(self, pieces):
        # two configs built apart, equal by value, key their pieces alike
        first, second = make_redzone_system(delta=4.0), make_redzone_system(delta=4.0)
        assert first is not second and first == second and hash(first) == hash(second)
        timelines = [scenario_timeline(cfg) for cfg in (first, second)]
        curves = list(system_hazard_curves(timelines, dt=0.5))
        assert [len(calls) for calls in pieces.values()] == [1, 1, 1]
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

    @pytest.mark.parametrize("mean, lab, alpha, spreads, dt, points", [
        # 402.19 at spread 1 and one ulp below it at spread 8.06: one grid
        (201.54, 0.89, 0.0, [1.0, 8.06], 0.1, [4022, 4022]),
        # one ulp above 339.7 at spread 0.1 and 339.7 at 0.5, which dt divides: the
        # upper end's grid holds one more point, 339.7 itself
        (201.0, 2.0, 0.3, [0.1, 0.5], 0.1, [3398, 3397]),
    ], ids=["one-grid", "dt-divides-the-lower-end"])
    @pytest.mark.parametrize("start", [0.0, 150.0])
    def test_ends_a_rounding_apart_keep_their_own_grids(self, mean, lab, alpha, spreads, dt,
                                                        points, start):
        # the engine rounds the spare's death by spread; each curve is sampled on
        # arange(0, its own end, dt), as from its timeline alone
        cfg = make_redzone_system(delta=1.0, lab=lab, mean=mean)._replace(shelf_aging_factor=alpha)
        timelines = list(scenario_timelines(cfg, spreads))
        assert timelines[0].t_end != timelines[1].t_end
        assert math.isclose(timelines[0].t_end, timelines[1].t_end, rel_tol=1e-15)
        curves = list(system_hazard_curves(timelines, dt=dt, start=start))
        for tl, curve, n in zip(timelines, curves, points):
            times, rates = per_segment_curve(tl, dt, start)
            assert len(times) == n - int(start / dt)
            assert np.array_equal(curve.times, times)
            assert np.array_equal(curve.rates, rates)

    @pytest.mark.parametrize("dt", [0.1, 0.37, 50.0])
    @pytest.mark.parametrize("start", [0.0, 150.0])
    def test_timelines_may_end_at_different_times(self, dt, start):
        # ends 414, 412 and 415.5: each curve is sampled on arange(0, its own end, dt),
        # a prefix of the grid to the latest end, as from its timeline alone
        timelines = [scenario_timeline(make_redzone_system(delta=1.0, lab=lab))
                     for lab in (2.0, 4.0, 0.5)]
        assert [tl.t_end for tl in timelines] == [414.0, 412.0, 415.5]
        curves = list(system_hazard_curves(timelines, dt=dt, start=start))
        for tl, curve in zip(timelines, curves):
            times, rates = per_segment_curve(tl, dt, start)
            assert np.array_equal(curve.times, times)
            assert np.array_equal(curve.rates, rates)

    @pytest.mark.parametrize("block", [system._BLOCK, 3])
    def test_certainly_failed_only_where_a_curve_reaches(self, monkeypatch, block):
        # the block whose composition is undefined raises the reference's error
        monkeypatch.setattr(system, "_BLOCK", block)
        cfg = pulse_at_first_failure()
        small, large = (scenario_timeline(with_spread(cfg, d)) for d in (1.0, 30.0))
        (curve,) = system_hazard_curves([small], dt=0.5)
        assert np.array_equal(curve.rates, per_segment_curve(small, 0.5)[1])
        with pytest.raises(CompositionError) as reference:
            per_segment_curve(large, 0.5)
        with pytest.raises(CompositionError) as shared:
            system_hazard_curves([small, large], dt=0.5)
        assert str(shared.value) == str(reference.value)

    def test_a_lone_curve_holds_one_grid_array(self):
        # its rates, its times being a Grid; every ufunc temporary is a block long, and
        # each piece is evaluated into the rates (about eight blocks of float64 at the peak)
        tl = scenario_timeline(load_config(EXAMPLE).system)
        dt = 0.002
        points = math.ceil(tl.t_end / dt)
        assert points == 207_000
        tracemalloc.start()
        try:
            system_hazard_curve(tl, dt=dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * points + 10 * 8 * system._BLOCK
