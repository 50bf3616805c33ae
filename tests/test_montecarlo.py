import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import (
    DomainError,
    ExponentialLifetime,
    LifetimeDistribution,
    Policy,
    SimConfig,
    SystemConfig,
    Trace,
    derive_seed,
    empirical_hazard,
    run_ensemble,
    run_replication,
)
from redzone.montecarlo import SplitMix64, _derive_seeds, _uniforms, run_batch

from conftest import make_flat_bathtub, make_redzone_system


def det_config(mean=200.0, lab=0.0, alpha=0.0):
    model = make_flat_bathtub(th1=20.0, th2=160.0, th3=40.0)
    return SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(mean, 0.0),
                        lab_burnin=lab, shelf_aging_factor=alpha)


def hazard_of(traces, bin_width):
    return empirical_hazard([tr.end_time for tr in traces],
                            [tr.tdt for tr in traces if tr.tdt is not None], bin_width)


def batch_hazard(out, bin_width):
    return empirical_hazard(out.end_time, out.tdt[~np.isnan(out.tdt)], bin_width)


def assert_batch_matches_scalar(config, policy, master_seed, replications, *,
                                record_events=True, **kwargs):
    """Every per-replication result of run_batch equals run_replication's, exactly,
    and so does every recorded event: time, kind, unit, slot and unit_out."""
    out = run_batch(config, policy, master_seed, replications, record_events=record_events,
                    **kwargs)
    traces = [run_replication(config, policy, derive_seed(master_seed, i), **kwargs)
              for i in range(replications)]

    def column(name):
        return np.array([np.nan if getattr(tr, name) is None else getattr(tr, name)
                         for tr in traces])

    for name in ("trdd", "tdt", "dp", "end_time"):
        np.testing.assert_array_equal(getattr(out, name), column(name), err_msg=name)
    np.testing.assert_array_equal(out.censored, [tr.censored for tr in traces])
    if record_events:
        assert list(zip(*out.events.fields())) == [
            (i, e.time, e.kind, e.unit, e.slot, e.unit_out)
            for i, tr in enumerate(traces) for e in tr.events]
    else:
        assert out.events is None
    return traces


def replay_occupancy(trace, n_slots=2):
    """Independent replay of a trace: rebuild slot/shelf occupancy and
    per-unit consumption, asserting conservation along the way."""
    slots = [f"controller_{i + 1}" for i in range(n_slots)]
    shelf = f"controller_{n_slots + 1}" if len(trace.lifetimes) > n_slots else None
    placed = [u for u in slots if u] + ([shelf] if shelf else [])
    assert len(set(placed)) == len(placed)
    stints = {u: [] for u in trace.lifetimes}  # (start, end) on-job intervals
    start = {u: 0.0 for u in slots}
    for ev in trace.events:
        if ev.kind == "failure" and isinstance(ev.slot, int):
            u = ev.unit
            assert slots[ev.slot] == u
            stints[u].append((start.pop(u), ev.time))
            slots[ev.slot] = None
        elif ev.kind == "replace":
            assert shelf == ev.unit
            assert slots[ev.slot] is None
            slots[ev.slot] = ev.unit
            start[ev.unit] = ev.time
            shelf = None
        elif ev.kind == "rotate":
            assert shelf == ev.unit
            assert slots[ev.slot] == ev.unit_out
            out = ev.unit_out
            stints[out].append((start.pop(out), ev.time))
            slots[ev.slot] = ev.unit
            start[ev.unit] = ev.time
            shelf = out
        occupied = [u for u in slots if u] + ([shelf] if shelf else [])
        assert len(set(occupied)) == len(occupied), "a unit is in two places"
    for iv in stints.values():
        assert all(b >= a for a, b in iv), "consumed life decreased"
    onjob = {u: sum(b - a for a, b in iv) for u, iv in stints.items()}
    return onjob


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_indices(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)

    def test_golden_vectors(self):
        assert derive_seed(0, 1) == 16294208416658607535
        assert derive_seed(42, 0) == 12058926934050108962
        assert derive_seed(42, 7) == 4028864712777624925
        assert derive_seed(2 ** 64 - 1, 123456) == 14208163044855852106

    def test_injective_over_first_million(self):
        idx = np.arange(1_000_000, dtype=np.uint64)
        seeds = np.array([derive_seed(99, int(i)) for i in idx[:10_000]], dtype=np.uint64)
        assert len(np.unique(seeds)) == len(seeds)
        # the index step and finalizer are bijections, spot-check the tail
        tail = np.array([derive_seed(99, int(i)) for i in range(990_000, 1_000_000)],
                        dtype=np.uint64)
        assert len(np.unique(np.concatenate([seeds, tail]))) == len(seeds) + len(tail)


class TestSplitMix64:
    def test_golden_sequence(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(4)] == [
            16294208416658607535, 7960286522194355700,
            487617019471545679, 17909611376780542444,
        ]

    def test_uniform_strictly_inside_unit_interval(self):
        g = SplitMix64(123)
        u = [g.uniform() for _ in range(10_000)]
        assert all(0.0 < x < 1.0 for x in u)

    def test_uniform_golden(self):
        g = SplitMix64(0)
        assert g.uniform() == pytest.approx(0.8833108082136427, rel=0.0)

    @pytest.mark.parametrize("master", [0, 42, 2 ** 64 - 1, 2 ** 64 + 5])
    def test_vectorised_streams_match_scalar(self, master):
        seeds = _derive_seeds(master, 50)
        assert seeds.tolist() == [derive_seed(master, i) for i in range(50)]
        uniforms = _uniforms(seeds, 3)
        for seed, row in zip(seeds.tolist(), uniforms.tolist()):
            g = SplitMix64(seed)
            assert row == [g.uniform() for _ in range(3)]


class TestRunReplication:
    def test_deterministic_type1_hand_trace(self):
        tr = run_replication(det_config(lab=0.0), Policy("type1"), seed=1, horizon=2000.0)
        # the spare replaces the first failed unit; the second failure finds the shelf empty
        kinds = [(e.time, e.kind, e.unit, e.slot, e.unit_out) for e in tr.events]
        assert kinds == [
            (200.0, "failure", "controller_1", 0, None),
            (200.0, "replace", "controller_3", 0, "controller_1"),
            (200.0, "failure", "controller_2", 1, None),
            (400.0, "failure", "controller_3", 0, None),
            (400.0, "system_death", None, None, None),
        ]
        assert tr.trdd == 200.0
        assert tr.tdt == 400.0
        assert not tr.censored

    def test_lab_credit_consumes_budget(self):
        tr = run_replication(det_config(lab=2.0), Policy("type1"), seed=1, horizon=2000.0)
        assert tr.trdd == 200.0
        assert tr.tdt == pytest.approx(398.0)

    def test_deterministic_type2_hand_trace(self):
        tr = run_replication(det_config(lab=2.0), Policy("type2", rotation_period=200.0 / 6),
                             seed=1, horizon=2000.0)
        assert tr.trdd == pytest.approx(298.0)
        assert tr.tdt == pytest.approx(300.0)
        assert tr.dp == pytest.approx(800.0 / 3.0)
        assert tr.tdr == pytest.approx(100.0 / 3.0)
        rotations = [e for e in tr.events if e.kind == "rotate"]
        assert [e.slot for e in rotations[:2]] == [0, 1]

    @pytest.mark.parametrize("lab, alpha, death, dp", [
        (250.0, 0.0, 0.0, 150.0),  # dead on arrival: the lab credit exceeds the lifetime
        (100.0, 1.0, 100.0, 100.0),  # shelf ageing exhausts the remaining 100 weeks
    ], ids=["dead-on-arrival", "died-on-shelf"])
    def test_failed_spare_is_never_used(self, lab, alpha, death, dp):
        # A failed spare is neither installed nor rotated in.  The system is then
        # still redundant with no usable shelf unit: that is the decision point,
        # recorded at the first event epoch that sees it (the rotation at 150 for
        # a dead-on-arrival spare).
        traces = assert_batch_matches_scalar(det_config(lab=lab, alpha=alpha),
                                             Policy("type2", rotation_period=150.0),
                                             11, 3, horizon=2000.0)
        tr = traces[0]
        assert [(e.time, e.kind, e.unit, e.slot) for e in tr.events] == [
            (death, "failure", "controller_3", "shelf"),
            (dp, "dp", None, None),
            (200.0, "failure", "controller_1", 0),
            (200.0, "failure", "controller_2", 1),
            (200.0, "system_death", None, None),
        ]
        assert (tr.trdd, tr.dp, tr.tdt) == (200.0, dp, 200.0)

    @pytest.mark.parametrize("policy, trdd, dp", [
        (Policy("type1"), 200.0, None),
        (Policy("type2", rotation_period=50.0), 50.0, 50.0),
    ], ids=["type1", "type2"])
    def test_single_slot_fleet_starts_without_redundancy(self, policy, trdd, dp):
        # One slot and no spare: trdd is recorded at the first event epoch, the unit's
        # death under type1 and the first rotation under type2, where the full slot
        # with no usable shelf unit is also the decision point.
        traces = assert_batch_matches_scalar(det_config(), policy, 11, 3, horizon=2000.0,
                                             n_slots=1, with_spare=False)
        assert (traces[0].trdd, traces[0].dp, traces[0].tdt) == (trdd, dp, 200.0)

    @pytest.mark.parametrize("tdt,dp,tdr", [
        (400.0, 160.0, 240.0),
        (300.0, 295.0, 5.0),
        (300.0, None, None),  # no decision point, no margin
        (None, 295.0, None),  # censored
    ])
    def test_tdr_is_time_left_after_decision_point(self, tdt, dp, tdr):
        tr = Trace(events=(), trdd=None, tdt=tdt, dp=dp, censored=tdt is None,
                   end_time=400.0, lifetimes={})
        assert tr.tdr == tdr

    def test_same_seed_identical_traces(self):
        cfg = make_redzone_system(delta=5.0)
        a = run_replication(cfg, Policy("type1"), seed=77, horizon=2000.0)
        b = run_replication(cfg, Policy("type1"), seed=77, horizon=2000.0)
        assert a == b

    def test_event_times_nondecreasing_and_bounds(self):
        cfg = make_redzone_system(delta=20.0)
        for seed in range(40):
            tr = run_replication(cfg, Policy("type2", rotation_period=30.0),
                                 seed=derive_seed(5, seed), horizon=3000.0)
            times = [e.time for e in tr.events]
            assert times == sorted(times)
            assert tr.trdd is not None and tr.tdt is not None
            assert tr.trdd <= tr.tdt
            if tr.dp is not None:
                assert tr.dp <= tr.tdt

    def test_budget_conservation_on_replay(self):
        cfg = make_redzone_system(delta=20.0, lab=0.0)
        for seed in (3, 11, 19):
            tr = run_replication(cfg, Policy("type2", rotation_period=40.0),
                                 seed=seed, horizon=3000.0)
            onjob = replay_occupancy(tr)
            failed_units = {e.unit for e in tr.events if e.kind == "failure"}
            for u in failed_units:
                assert onjob[u] == pytest.approx(tr.lifetimes[u], abs=1e-6)

    def test_policy_divergence_only_after_first_epoch(self):
        cfg = make_redzone_system(delta=10.0)
        p = 30.0
        t1 = run_replication(cfg, Policy("type1"), seed=1234, horizon=3000.0)
        t2 = run_replication(cfg, Policy("type2", rotation_period=p), seed=1234,
                             horizon=3000.0)
        assert t1.lifetimes == t2.lifetimes
        cut = min(p, min(e.time for e in t1.events))
        assert [e for e in t1.events if e.time < cut] == \
               [e for e in t2.events if e.time < cut]

    def test_shelf_aging_consumes_budget(self):
        cfg = det_config(lab=0.0, alpha=0.5)
        tr = run_replication(cfg, Policy("type1"), seed=1, horizon=2000.0)
        # spare consumed 0.5 * 200 = 100 weeks on the shelf before install
        assert tr.tdt == pytest.approx(300.0)

    def test_horizon_censoring(self):
        tr = run_replication(det_config(), Policy("type1"), seed=1, horizon=150.0)
        assert tr.censored
        assert tr.tdt is None
        assert tr.end_time == 150.0


class TestRunEnsemble:
    def test_single_replication_zero_std(self):
        met = run_ensemble(det_config(), Policy("type1"),
                           SimConfig(replications=1, master_seed=9))
        assert met.tdt.std == 0.0
        assert met.tdt.mean == met.tdt_values[0]
        assert met.tdt.ci_low == met.tdt.ci_high == met.tdt.mean

    def test_exponential_single_unit_mean(self):
        met = run_ensemble(det_config(), Policy("type1"),
                           SimConfig(replications=20_000, master_seed=7, horizon=5000.0),
                           n_slots=1, with_spare=False,
                           lifetime_model=ExponentialLifetime(0.01))
        se = met.tdt.std / math.sqrt(met.tdt.n)
        assert abs(met.tdt.mean - 100.0) < 3 * se
        assert abs(met.tdt.mean - 100.0) / 100.0 < 0.02

    def test_two_unit_parallel_mean(self):
        met = run_ensemble(det_config(), Policy("type1"),
                           SimConfig(replications=20_000, master_seed=7, horizon=10000.0),
                           n_slots=2, with_spare=False,
                           lifetime_model=ExponentialLifetime(0.01))
        assert abs(met.tdt.mean - 150.0) / 150.0 < 0.02

    def test_monotone_redundancy_benefit(self):
        sim = SimConfig(replications=10_000, master_seed=21, horizon=5000.0)
        cfg = SystemConfig(hazard=make_flat_bathtub(),
                           unit_lifetime=LifetimeDistribution(200.0, 20.0), lab_burnin=0.0)
        one = run_ensemble(cfg, Policy("type1"), sim, n_slots=1, with_spare=False)
        two = run_ensemble(cfg, Policy("type1"), sim, n_slots=2, with_spare=False)
        full = run_ensemble(cfg, Policy("type1"), sim)

        def se(m):
            return m.std / math.sqrt(m.n)

        assert two.tdt.mean - one.tdt.mean > 3 * (se(two.tdt) + se(one.tdt))
        assert full.tdt.mean - two.tdt.mean > 3 * (se(full.tdt) + se(two.tdt))

    def test_all_censored_flagged_unusable(self):
        met = run_ensemble(det_config(), Policy("type1"),
                           SimConfig(replications=20, master_seed=5, horizon=50.0))
        assert met.censored_count == 20
        assert met.tdt is None


# Fleets for the differential tests: both policies, shelf ageing, sd = 0 ties,
# lab credit with dead-on-arrival spares, horizon censoring, one or two slots,
# with or without a spare, and the exponential model.
fleets = given(
    rotation_period=st.one_of(st.none(), st.floats(5.0, 120.0)),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    sd=st.one_of(st.just(0.0), st.floats(0.5, 60.0)),
    lab=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(150.0, 400.0)),
    horizon=st.one_of(st.none(), st.floats(50.0, 1500.0)),
    n_slots=st.sampled_from([1, 2]),
    with_spare=st.booleans(),
    exponential=st.booleans(),
    master_seed=st.integers(0, 2 ** 64 + 100),
)


def assert_fleet_matches_scalar(rotation_period, alpha, sd, lab, horizon, n_slots,
                                with_spare, exponential, master_seed, record_events):
    cfg = SystemConfig(hazard=make_flat_bathtub(),
                       unit_lifetime=LifetimeDistribution(208.0, sd),
                       lab_burnin=lab, shelf_aging_factor=alpha)
    policy = (Policy("type1") if rotation_period is None
              else Policy("type2", rotation_period=rotation_period))
    assert_batch_matches_scalar(
        cfg, policy, master_seed, 30, record_events=record_events, horizon=horizon,
        n_slots=n_slots, with_spare=with_spare,
        lifetime_model=ExponentialLifetime(1.0 / 208.0) if exponential else None)


class TestRunBatch:
    """The batched engine against the scalar oracle, replication by replication."""

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @settings(max_examples=80, deadline=None)
    @fleets
    def test_matches_run_replication(self, **fleet):
        assert_fleet_matches_scalar(**fleet, record_events=False)

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @settings(max_examples=80, deadline=None)
    @fleets
    def test_event_log_matches_run_replication(self, **fleet):
        assert_fleet_matches_scalar(**fleet, record_events=True)

    @pytest.mark.parametrize("alpha, death", [(0.0, 400.0), (1.0, 200.0)])
    def test_failures_at_rotation_epoch(self, alpha, death):
        # Both mains exhaust their 200 weeks exactly at the first epoch: failures
        # come first, the spare fills slot 0, and the rotation finds no shelf unit.
        # A fully shelf-aged spare (alpha = 1) is due to die on the shelf at that
        # same instant; it is installed instead and fails in its slot on the next pass.
        traces = assert_batch_matches_scalar(det_config(alpha=alpha),
                                             Policy("type2", rotation_period=200.0),
                                             11, 3, horizon=2000.0)
        assert [(e.time, e.kind, e.slot) for e in traces[0].events] == [
            (200.0, "failure", 0), (200.0, "replace", 0), (200.0, "failure", 1),
            (death, "failure", 0), (death, "system_death", None),
        ]
        assert (traces[0].trdd, traces[0].dp, traces[0].tdt) == (200.0, None, death)

    @pytest.mark.parametrize("policy", [Policy("type1"), Policy("type2", rotation_period=30.0)],
                             ids=["type1", "type2"])
    def test_subnormal_shelf_aging_factor(self, policy):
        # (lifetime - consumed) / 1e-310 overflows: the shelf unit's failure time is
        # inf in both engines, and no numpy overflow warning reaches the caller
        cfg = SystemConfig(hazard=make_flat_bathtub(),
                           unit_lifetime=LifetimeDistribution(208.0, 20.0),
                           lab_burnin=2.0, shelf_aging_factor=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_batch_matches_scalar(cfg, policy, 42, 50)


class TestEmpiricalHazard:
    def test_constant_rate_recovered(self):
        out = run_batch(det_config(), Policy("type1"), 13, 20_000, horizon=5000.0,
                        n_slots=1, with_spare=False, lifetime_model=ExponentialLifetime(0.01))
        h = batch_hazard(out, bin_width=10.0)
        early = h.midpoints <= 100.0
        for rate, d, e in zip(h.rates[early], h.deaths[early], h.exposure[early]):
            se = math.sqrt(max(d, 1.0)) / e
            assert abs(rate - 0.01) <= 3 * se

    def test_bins_beyond_all_deaths_omitted(self):
        traces = [run_replication(det_config(), Policy("type1"), seed=s, horizon=2000.0)
                  for s in range(3)]
        h = hazard_of(traces, bin_width=50.0)
        assert h.midpoints[-1] < 400.0 + 50.0
        assert np.all(h.exposure > 0.0)

    def test_requires_uncensored_trace(self):
        traces = [run_replication(det_config(), Policy("type1"), seed=s, horizon=100.0)
                  for s in range(3)]
        with pytest.raises(DomainError):
            hazard_of(traces, bin_width=10.0)

    def test_end_of_life_peak_dwarfs_useful_phase_rates(self):
        cfg = make_redzone_system(delta=1.0)
        h = batch_hazard(run_batch(cfg, Policy("type1"), 23, 2_000), bin_width=5.0)
        useful = (h.midpoints > cfg.hazard.th1) & (h.midpoints < cfg.hazard.wearout_onset)
        peak = float(np.max(h.rates))
        assert peak >= 2.0 * float(np.max(h.rates[useful], initial=0.0))
