import json
import math
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from redzone import (
    LifetimeDistribution,
    Metrics,
    Policy,
    RedzoneError,
    SimConfig,
    SystemConfig,
    ValidationError,
    montecarlo,
    run_ensemble,
    scenario_timeline,
)
from redzone.cli import main
from redzone.config import load_config
from redzone.montecarlo import _derive_seeds, _uniforms, run_batch, sample_lifetimes

from conftest import TYPE1, UNSHRUNK, event_fields, make_flat_bathtub, make_redzone_system
from oracle import (
    ExponentialLifetime,
    SplitMix64,
    Trace,
    derive_seed,
    empirical_hazard,
    run_replication,
)

EXAMPLE = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


def det_config(mean=200.0, lab=0.0, alpha=0.0):
    model = make_flat_bathtub(th1=20.0, th2=160.0, th3=40.0)
    return SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(mean, 0.0),
                        lab_burnin=lab, shelf_aging_factor=alpha, software=None, operator=None)


def exp_config(rate, lab=0.0, alpha=0.0):
    """det_config with exponential lifetimes of the given rate."""
    return det_config(lab=lab, alpha=alpha)._replace(unit_lifetime=ExponentialLifetime(rate))


@dataclass(frozen=True, eq=False)
class ScriptedLifetimes:
    """A lifetime model that looks each draw up in a table keyed by the uniform, so a
    test can hand each unit of each replication the lifetime it needs."""

    table: dict
    mean: float = 100.0

    def sample(self, u):
        return np.vectorize(self.table.__getitem__, otypes=[float])(u)


def scripted_config(lifetimes, master_seed, *, lab_burnin, shelf_aging_factor=0.0):
    """A config whose replication i of ``master_seed`` draws ``lifetimes[i]``, its
    three units' lifetimes in roster order."""
    u = _uniforms(_derive_seeds(master_seed, len(lifetimes)), 3)
    model = ScriptedLifetimes(dict(zip(u.ravel().tolist(), np.ravel(lifetimes).tolist())))
    return SystemConfig(hazard=make_flat_bathtub(), unit_lifetime=model,
                        shelf_aging_factor=shelf_aging_factor, lab_burnin=lab_burnin,
                        software=None, operator=None)


# A lab credit above every lifetime the tests' models can draw (ExponentialLifetime(0.01)
# draws at most 53 ln 2 / 0.01, about 3,674 weeks): the spare is dead on arrival, which
# leaves the two slots as a pair without a spare.
DEAD_SPARE_LAB = 1e4


def hazard_of(traces, bin_width):
    return empirical_hazard([tr.end_time for tr in traces],
                            [tr.tdt for tr in traces if tr.tdt is not None], bin_width)


def end_times(out, horizon):
    """Each replication's end of observation: its death, or the horizon where censored."""
    return np.where(out.censored, horizon, out.tdt)


def assert_batch_matches_scalar(config, policy, master_seed, replications, *,
                                record_events=True, every=1, **kwargs):
    """Every ``every``-th replication's results from run_batch equal run_replication's,
    exactly, and so does every recorded event: time, kind, unit, slot and unit_out."""
    out = run_batch(config, policy, sample_lifetimes(config, master_seed, replications),
                    record_events=record_events, **kwargs)
    checked = range(0, replications, every)
    traces = [run_replication(config, policy, derive_seed(master_seed, i), **kwargs)
              for i in checked]

    def column(name):
        return np.array([np.nan if getattr(tr, name) is None else getattr(tr, name)
                         for tr in traces])

    for name in ("trdd", "tdt", "dp"):
        np.testing.assert_array_equal(getattr(out, name)[::every], column(name), err_msg=name)
    np.testing.assert_array_equal(out.censored[::every], [tr.censored for tr in traces])
    horizon = kwargs.get("horizon") or 5.0 * config.unit_lifetime.mean
    np.testing.assert_array_equal(end_times(out, horizon)[::every], column("end_time"))
    if record_events:
        assert [row for row in zip(*event_fields(out.events)) if row[0] % every == 0] == [
            (i, e.time, e.kind, e.unit, e.slot, e.unit_out)
            for i, tr in zip(checked, traces) for e in tr.events]
    else:
        assert out.events is None
    return traces


def rotations_after_the_spare_is_gone(rows):
    """The (replication, time) of each rotation after its replication's first replace
    or shelf failure, from (replication, time, kind, slot) rows in each replication's
    event order.  The spare is then gone for good, so none is expected."""
    gone, late = set(), []
    for replication, time, kind, slot in rows:
        if kind == "rotate" and replication in gone:
            late.append((replication, time))
        elif kind == "replace" or (kind, slot) == ("failure", "shelf"):
            gone.add(replication)
    return late


def replay_occupancy(trace):
    """Independent replay of a trace: rebuild slot/shelf occupancy and
    per-unit consumption, asserting conservation along the way."""
    slots = ["controller_1", "controller_2"]
    shelf = "controller_3"
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

    def test_top_53_bit_draw_stays_below_one(self, tmp_path):
        # Replication 0 of this master seed first draws u64 >> 11 = 2**53 - 1, for
        # which ((u64 >> 11) + 0.5) * 2**-53 rounds to exactly 1.0; both forms of
        # the stream must give the largest double below 1 instead.
        master = 13696288941778812732
        seed = derive_seed(master, 0)
        assert SplitMix64(seed).next_u64() >> 11 == 2 ** 53 - 1
        below_one = 1.0 - 2.0 ** -53
        assert SplitMix64(seed).uniform() == below_one
        assert _uniforms(_derive_seeds(master, 1), 3)[0, 0] == below_one
        for policy in (TYPE1, Policy("type2", rotation_period=30.0)):
            assert_batch_matches_scalar(make_redzone_system(delta=2.0), policy, master, 5)
        config = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.json"),
                     "--seed", str(master), "--replications", "50"]) == 0

    def test_engine_stream_golden(self):
        # the engine's own seeds and uniforms, held to the frozen vectors directly
        assert _derive_seeds(0, 5).tolist() == [
            0, 16294208416658607535, 7960286522194355700,
            487617019471545679, 17909611376780542444,
        ]
        assert _derive_seeds(42, 8)[[0, 7]].tolist() == [
            12058926934050108962, 4028864712777624925]
        assert _uniforms(_derive_seeds(0, 1), 1)[0, 0] == 0.8833108082136427

    @pytest.mark.parametrize("master", [0, 42, 2 ** 64 - 1])
    def test_vectorised_streams_match_scalar(self, master):
        seeds = _derive_seeds(master, 50)
        assert seeds.tolist() == [derive_seed(master, i) for i in range(50)]
        uniforms = _uniforms(seeds, 3)
        for seed, row in zip(seeds.tolist(), uniforms.tolist()):
            g = SplitMix64(seed)
            assert row == [g.uniform() for _ in range(3)]

    @pytest.mark.parametrize("master", [-1, 2 ** 64])
    def test_master_seed_outside_64_bits_is_rejected(self, master):
        # a seed is a 64-bit word: 2**64 would alias 0, and -1 would alias 2**64 - 1
        with pytest.raises(ValidationError, match="master_seed"):
            sample_lifetimes(det_config(), master, 5)


class TestRunReplication:
    def test_deterministic_type1_hand_trace(self):
        tr = run_replication(det_config(lab=0.0), TYPE1, seed=1, horizon=2000.0)
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
        tr = run_replication(det_config(lab=2.0), TYPE1, seed=1, horizon=2000.0)
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

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
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
        a = run_replication(cfg, TYPE1, seed=77, horizon=2000.0)
        b = run_replication(cfg, TYPE1, seed=77, horizon=2000.0)
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
        t1 = run_replication(cfg, TYPE1, seed=1234, horizon=3000.0)
        t2 = run_replication(cfg, Policy("type2", rotation_period=p), seed=1234,
                             horizon=3000.0)
        assert t1.lifetimes == t2.lifetimes
        cut = min(p, min(e.time for e in t1.events))
        assert [e for e in t1.events if e.time < cut] == \
               [e for e in t2.events if e.time < cut]

    def test_shelf_aging_consumes_budget(self):
        cfg = det_config(lab=0.0, alpha=0.5)
        tr = run_replication(cfg, TYPE1, seed=1, horizon=2000.0)
        # spare consumed 0.5 * 200 = 100 weeks on the shelf before install
        assert tr.tdt == pytest.approx(300.0)

    def test_horizon_censoring(self):
        tr = run_replication(det_config(), TYPE1, seed=1, horizon=150.0)
        assert tr.censored
        assert tr.tdt is None
        assert tr.end_time == 150.0


class TestRunEnsemble:
    def test_single_replication_zero_std(self):
        met = run_ensemble(det_config(), TYPE1,
                           SimConfig(replications=1, master_seed=9, horizon=None))
        assert met.tdt.std == 0.0
        assert met.tdt.mean == met.tdt_values[0]
        assert met.tdt.ci_low == met.tdt.ci_high == met.tdt.mean

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    def test_exponential_pair_first_failure_mean(self):
        # With the spare dead on arrival, redundancy ends at the pair's first
        # failure, the minimum of two Exp(lam): Exp(2 lam), mean 1/(2 lam) = 50.
        sim = SimConfig(replications=20_000, master_seed=7, horizon=5000.0)
        met = run_ensemble(exp_config(0.01, lab=DEAD_SPARE_LAB), TYPE1, sim)
        assert met.censored_count == 0  # every replication defines trdd
        se = met.trdd.std / math.sqrt(sim.replications)
        assert abs(met.trdd.mean - 50.0) < 3 * se
        assert abs(met.trdd.mean - 50.0) / 50.0 < 0.02

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    def test_two_unit_parallel_mean(self):
        met = run_ensemble(exp_config(0.01, lab=DEAD_SPARE_LAB), TYPE1,
                           SimConfig(replications=20_000, master_seed=7, horizon=10000.0))
        assert abs(met.tdt.mean - 150.0) / 150.0 < 0.02

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    def test_monotone_redundancy_benefit(self):
        # the pair's first failure, then its second, then the spare's extra life
        sim = SimConfig(replications=10_000, master_seed=21, horizon=5000.0)
        cfg = SystemConfig(hazard=make_flat_bathtub(),
                           unit_lifetime=LifetimeDistribution(200.0, 20.0),
                           shelf_aging_factor=0.0, lab_burnin=0.0, software=None, operator=None)
        pair = run_ensemble(cfg._replace(lab_burnin=DEAD_SPARE_LAB), TYPE1, sim)
        full = run_ensemble(cfg, TYPE1, sim)

        assert pair.censored_count == full.censored_count == 0  # n is the replication count

        def se(m):
            return m.std / math.sqrt(sim.replications)

        assert pair.tdt.mean - pair.trdd.mean > 3 * (se(pair.tdt) + se(pair.trdd))
        assert full.tdt.mean - pair.tdt.mean > 3 * (se(full.tdt) + se(pair.tdt))

    @pytest.mark.parametrize("policy", [TYPE1, Policy("type2", rotation_period=30.0)])
    def test_cold_spare_matches_closed_form_means(self, policy):
        # Cold spare (alpha = 0, no lab credit), memoryless lifetimes: two units
        # run until the first failure, then the survivor and the installed spare
        # until the next, so trdd ~ Erlang(2, 2 lam) with mean 1/lam, and tdt adds
        # the last unit's Exp(lam), mean 2/lam.  Rotation cannot change that law.
        # Tolerance: 3 standard errors of the ensemble mean.
        lam = 0.01
        sim = SimConfig(replications=50_000, master_seed=7, horizon=10000.0)
        met = run_ensemble(exp_config(lam), policy, sim)
        assert met.censored_count == 0
        for summary, expected in ((met.trdd, 1.0 / lam), (met.tdt, 2.0 / lam)):
            se = summary.std / math.sqrt(sim.replications)
            assert abs(summary.mean - expected) < 3 * se

    @pytest.mark.parametrize("policy", [TYPE1, Policy("type2", rotation_period=30.0)],
                             ids=["type1", "type2"])
    def test_warm_spare_matches_closed_form(self, policy):
        # Warm spare (alpha = 0.5), memoryless lifetimes: the waiting spare fails at
        # rate alpha lam, so the first event comes at rate (2 + alpha) lam and is a
        # shelf death with probability alpha / (2 + alpha) = 0.2.  Either way the two
        # units left lose redundancy at rate 2 lam: E[trdd] = 1/((2 + alpha) lam)
        # + 1/(2 lam) = 90.  Tolerance: 3 standard errors, of the mean and of the
        # shelf-death share.
        lam, alpha, n = 0.01, 0.5, 50_000
        cfg = exp_config(lam, alpha=alpha)
        out = run_batch(cfg, policy, sample_lifetimes(cfg, 7, n), horizon=10000.0,
                        record_events=True)
        assert not out.censored.any()
        se = np.std(out.trdd, ddof=1) / math.sqrt(n)
        assert abs(np.mean(out.trdd) - 90.0) < 3 * se
        share, p = np.count_nonzero(out.events.slot == -2) / n, alpha / (2.0 + alpha)
        assert abs(share - p) < 3 * math.sqrt(p * (1.0 - p) / n)

    def test_lab_credit_dead_on_arrival_odds(self):
        # A spare that arrives with L weeks of lab credit is dead on arrival when
        # its Exp(lam) lifetime is at most L: P = 1 - exp(-lam L), about 0.181 at
        # L = 20.  A cold spare cannot die on the shelf later, so every shelf
        # failure is at t = 0.  Tolerance: 3 standard errors of the share.
        lam, lab, n = 0.01, 20.0, 50_000
        cfg = exp_config(lam, lab=lab)
        out = run_batch(cfg, TYPE1, sample_lifetimes(cfg, 7, n), horizon=10000.0,
                        record_events=True)
        on_shelf = out.events.slot == -2
        assert np.all(out.events.time[on_shelf] == 0.0)
        share, p = np.count_nonzero(on_shelf) / n, 1.0 - math.exp(-lam * lab)
        assert abs(share - p) < 3 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("policy", [TYPE1, Policy("type2", rotation_period=30.0)],
                             ids=["type1", "type2"])
    def test_cold_spare_trdd_is_erlang(self, policy):
        # The whole distribution, not only the mean: with a cold spare trdd is
        # Erlang(2, 2 lam), CDF 1 - exp(-2 lam t)(1 + 2 lam t).  One-sample
        # Kolmogorov-Smirnov test at significance 0.01: the statistic must stay
        # below the asymptotic critical value sqrt(ln(2 / 0.01) / 2) / sqrt(n),
        # 1.6276 / sqrt(n), about 0.00728 at n = 50,000.
        lam, n = 0.01, 50_000
        cfg = exp_config(lam)
        out = run_batch(cfg, policy, sample_lifetimes(cfg, 7, n), horizon=10000.0)

        def erlang_cdf(t):
            x = 2.0 * lam * np.asarray(t)
            return 1.0 - np.exp(-x) * (1.0 + x)

        result = stats.kstest(out.trdd, erlang_cdf)
        assert result.statistic < 1.6276 / math.sqrt(n), result

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("lab", [2.0, 7.5])
    def test_sd_zero_ties_the_timeline_landmarks(self, alpha, lab):
        # With deterministic lifetimes the spread's two readings agree: every
        # type1 replication loses redundancy at the timeline's Tf2 and dies at
        # its end of life, when the spare installed at the mean has consumed its
        # mean lifetime: mean + (mean - lab - alpha * mean).  The system is the
        # demo config's, with shelf ageing and another lab credit.
        system = make_redzone_system(delta=0.0, lab=lab)._replace(shelf_aging_factor=alpha)
        tl = scenario_timeline(system)
        assert tl.tf2 == 208.0
        assert tl.t_end == pytest.approx(208.0 + (208.0 - lab - alpha * 208.0), rel=1e-15)
        out = run_batch(system, TYPE1, sample_lifetimes(system, 42, 500))
        assert np.all(out.trdd == tl.tf2)
        assert np.all(out.tdt == tl.t_end)

    def test_all_censored_flagged_unusable(self):
        met = run_ensemble(det_config(), TYPE1,
                           SimConfig(replications=20, master_seed=5, horizon=50.0))
        assert met.censored_count == 20
        assert met.tdt is None


# Fleets for the differential tests: both policies, rotation periods down to half
# a week (hundreds of epochs that every replication shares), shelf ageing, sd = 0
# ties, lab credit with dead-on-arrival spares, horizon censoring, horizons on a
# rotation epoch and one ulp below it, and the exponential model.
FLEET = dict(rotation_period=None, alpha=0.0, sd=2.0, lab=0.0, horizon=None,
             exponential=False, master_seed=42)


def fleets(test):
    # explicit examples, run every time: the edges of the rotations that every row
    # of a type2 ensemble shares before its first failure
    for edge in (
        dict(rotation_period=50.0, sd=0.0, horizon=(4, False)),  # the 4th, at 200 < 208
        dict(rotation_period=50.0, sd=0.0, horizon=(4, True)),
        dict(rotation_period=52.0, sd=0.0),  # both mains fail at the 4th epoch, 208
        dict(rotation_period=0.5),
        dict(rotation_period=34.67, sd=60.0, lab=200.0),  # some spares dead on arrival
        dict(rotation_period=3.0, alpha=0.3, sd=20.0, lab=20.0, horizon=(60, True)),
        dict(alpha=0.7, sd=20.0, lab=150.0),  # spares that die on the shelf, time / alpha
    ):
        test = example(**{**FLEET, **edge})(test)
    return given(
        rotation_period=st.one_of(st.none(), st.floats(5.0, 120.0), st.floats(0.5, 5.0)),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        sd=st.one_of(st.just(0.0), st.floats(0.5, 60.0)),
        lab=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(150.0, 400.0)),
        # (k, below): the k-th rotation epoch, or one ulp below it
        horizon=st.one_of(st.none(), st.floats(50.0, 1500.0),
                          st.tuples(st.integers(1, 300), st.booleans())),
        exponential=st.booleans(),
        master_seed=st.integers(0, 2 ** 64 - 1),
    )(test)


def assert_fleet_matches_scalar(rotation_period, alpha, sd, lab, horizon, exponential,
                                master_seed, record_events):
    if isinstance(horizon, tuple):
        k, below = horizon  # a type1 fleet takes its epochs from a 50-week period
        horizon = k * (rotation_period or 50.0)
        horizon = math.nextafter(horizon, 0.0) if below else horizon
    lifetime = ExponentialLifetime(1.0 / 208.0) if exponential else LifetimeDistribution(208.0, sd)
    cfg = SystemConfig(hazard=make_flat_bathtub(), unit_lifetime=lifetime,
                       lab_burnin=lab, shelf_aging_factor=alpha, software=None, operator=None)
    policy = (TYPE1 if rotation_period is None
              else Policy("type2", rotation_period=rotation_period))
    assert_batch_matches_scalar(
        cfg, policy, master_seed, 30, record_events=record_events, horizon=horizon)


class TestRunBatch:
    """The batched engine against the scalar oracle, replication by replication."""

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @pytest.mark.parametrize("kind, horizon", [
        ("type1", None), ("type2", None), ("type1", 413.0), ("type2", 312.0),
    ])
    def test_example_ensemble_matches_run_replication(self, kind, horizon):
        # 2,000 rows of the shipped config leave the lockstep loop in different passes,
        # so every pass skips some event kinds and compacts some rows; the horizons sit
        # at the median system lifetime, so about half the rows are censored on the way
        run = load_config(EXAMPLE)
        policy = Policy(kind, rotation_period=run.policy.rotation_period)
        assert_batch_matches_scalar(run.system, policy, run.sim.master_seed, 2000,
                                    every=50, horizon=horizon)

    @pytest.mark.parametrize("record_events", [False, True])
    def test_pass_that_censors_kills_and_rotates(self, record_events):
        # Rotation every 50 weeks and the horizon on the second epoch, t = 100.  In the
        # third pass row 0 is next due at 150 > 100 and is censored before any event,
        # while row 1 loses its last slot unit at t = 100 and dies, and row 2 loses a
        # slot unit and passes the rotation epoch at t = 100: events at t == horizon
        # are processed, not censored (row 0's second rotation, too).
        lifetimes = [(1000.0, 1000.0, 1000.0), (30.0, 100.0, 20.0), (1000.0, 70.0, 50.0)]
        traces = assert_batch_matches_scalar(scripted_config(lifetimes, 7, lab_burnin=0.0),
                                             Policy("type2", rotation_period=50.0), 7,
                                             len(lifetimes), record_events=record_events,
                                             horizon=100.0)
        c1, c2, c3 = (f"controller_{i}" for i in (1, 2, 3))
        assert [[(e.time, e.kind, e.unit, e.slot, e.unit_out) for e in tr.events]
                for tr in traces] == [
            [(50.0, "rotate", c3, 0, c1), (100.0, "rotate", c1, 1, c2)],
            [(30.0, "failure", c1, 0, None), (30.0, "replace", c3, 0, c1),
             (30.0, "dp", None, None, None), (50.0, "failure", c3, 0, None),
             (100.0, "failure", c2, 1, None), (100.0, "system_death", None, None, None)],
            [(50.0, "rotate", c3, 0, c1), (70.0, "failure", c2, 1, None),
             (70.0, "replace", c1, 1, c2), (70.0, "dp", None, None, None),
             (100.0, "failure", c3, 0, None)],
        ]
        assert [(tr.trdd, tr.dp, tr.tdt, tr.censored, tr.end_time) for tr in traces] == [
            (None, None, None, True, 100.0), (50.0, 30.0, 100.0, False, 100.0),
            (100.0, 70.0, None, True, 100.0)]

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @settings(max_examples=80, deadline=None, phases=UNSHRUNK)
    @fleets
    def test_matches_run_replication(self, **fleet):
        assert_fleet_matches_scalar(**fleet, record_events=False)

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @settings(max_examples=80, deadline=None, phases=UNSHRUNK)
    @fleets
    def test_event_log_matches_run_replication(self, **fleet):
        assert_fleet_matches_scalar(**fleet, record_events=True)

    @pytest.mark.parametrize("replications", [50, 0])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_empty_event_log_keeps_its_dtypes(self, kind, replications):
        # a horizon before the first event censors every row, so no block has a row;
        # nor has an ensemble of no replications
        run = load_config(EXAMPLE)
        policy = Policy(kind, rotation_period=run.policy.rotation_period)
        out = run_batch(run.system, policy,
                        sample_lifetimes(run.system, run.sim.master_seed, replications),
                        horizon=1e-9, record_events=True)
        assert out.censored.all()
        assert [(len(c), c.dtype) for c in out.events] == [
            (0, np.dtype(np.intp)), (0, np.dtype(float))] + [(0, np.dtype(np.int8))] * 4

    def test_recording_holds_about_two_event_logs(self):
        # the recorded blocks and the grouped log, beside one concatenated column and
        # the order: every block records the codes at the log's dtypes, so none is
        # cast or held wider, and each column is released once it is grouped
        run = load_config(EXAMPLE)
        policy = Policy("type2", rotation_period=run.policy.rotation_period)
        lifetimes = sample_lifetimes(run.system, run.sim.master_seed, 2000)
        tracemalloc.start()
        try:
            log = run_batch(run.system, policy, lifetimes, record_events=True).events
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log.time) == 27_024
        assert peak < 2.5 * sum(c.nbytes for c in log)

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("alpha, death", [(0.0, 400.0), (1.0, 200.0)])
    def test_failures_at_rotation_epoch(self, alpha, death, record_events):
        # Both mains exhaust their 200 weeks exactly at the first epoch: failures
        # come first, the spare fills slot 0, and the rotation finds no shelf unit.
        # A fully shelf-aged spare (alpha = 1) is due to die on the shelf at that
        # same instant; it is installed instead and fails in its slot on the next pass.
        traces = assert_batch_matches_scalar(det_config(alpha=alpha),
                                             Policy("type2", rotation_period=200.0),
                                             11, 3, record_events=record_events,
                                             horizon=2000.0)
        assert [(e.time, e.kind, e.slot) for e in traces[0].events] == [
            (200.0, "failure", 0), (200.0, "replace", 0), (200.0, "failure", 1),
            (death, "failure", 0), (death, "system_death", None),
        ]
        assert (traces[0].trdd, traces[0].dp, traces[0].tdt) == (200.0, None, death)

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("lifetimes, alpha, lab, last_shared", [
        # row 2's slot-1 unit fails exactly at the second epoch, t = 100
        ([(1e3, 1e3, 1e3), (1e3, 1e3, 1e3), (1e3, 100.0, 1e3)], 0.0, 0.0, 50.0),
        # row 1's spare is dead on arrival from its lab credit, so no epoch is shared
        ([(1e3, 1e3, 1e3), (1e3, 1e3, 5.0), (300.0, 400.0, 500.0)], 0.0, 10.0, None),
        # fully shelf-aged spares: row 1's dies on the shelf at 40, before the first
        # epoch, or row 1 rotates its slot-0 unit onto the shelf at 50 and it dies at 70
        ([(1e3, 1e3, 1e3), (1e3, 1e3, 40.0)], 1.0, 0.0, None),
        ([(1e3, 1e3, 1e3), (70.0, 1e3, 1e3)], 1.0, 0.0, 50.0),
    ])
    def test_shared_rotations_end_at_first_other_event(self, lifetimes, alpha, lab,
                                                       last_shared, record_events):
        # Every row rotates the same slot at the same times until the first epoch at
        # which some row has another event due; each row then goes its own way.
        cfg = scripted_config(lifetimes, 3, lab_burnin=lab, shelf_aging_factor=alpha)
        traces = assert_batch_matches_scalar(cfg, Policy("type2", rotation_period=50.0), 3,
                                             len(lifetimes), record_events=record_events,
                                             horizon=200.0)
        rotations = [[(e.time, e.unit, e.slot) for e in tr.events if e.kind == "rotate"]
                     for tr in traces]
        shared = [r for r in rotations[0] if all(r in rs for rs in rotations)]
        assert (shared[-1][0] if shared else None) == last_shared

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @settings(max_examples=40, deadline=None)
    @example(kind="type2", rotation_period=34.67, alpha=0.3, sd=20.0, lab=2.0, master_seed=42)
    @given(kind=st.sampled_from(["type1", "type2"]),
           # 52 and 104 put an epoch on the sd = 0 lifetime, 208: failures tie a rotation
           rotation_period=st.one_of(st.sampled_from([0.5, 52.0, 104.0]), st.floats(0.5, 120.0)),
           alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           sd=st.one_of(st.just(0.0), st.floats(0.5, 60.0)),
           lab=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(150.0, 400.0)),
           master_seed=st.integers(0, 2 ** 64 - 1))
    def test_no_rotation_once_the_spare_is_gone(self, kind, rotation_period, alpha, sd, lab,
                                                master_seed):
        # The engine's invariant, as both event logs show it: a usable spare means both
        # slots are up, and once the spare is installed or dies on the shelf none is left.
        cfg = SystemConfig(hazard=make_flat_bathtub(),
                           unit_lifetime=LifetimeDistribution(208.0, sd),
                           lab_burnin=lab, shelf_aging_factor=alpha, software=None, operator=None)
        policy = Policy(kind, rotation_period=rotation_period if kind == "type2" else None)
        n = 20
        log = run_batch(cfg, policy, sample_lifetimes(cfg, master_seed, n),
                        record_events=True).events
        replication, time, kinds, _, slots, _ = event_fields(log)
        assert rotations_after_the_spare_is_gone(
            zip(replication, time.tolist(), kinds, slots)) == []
        traces = [run_replication(cfg, policy, derive_seed(master_seed, i)) for i in range(n)]
        assert rotations_after_the_spare_is_gone(
            (i, e.time, e.kind, e.slot) for i, tr in enumerate(traces) for e in tr.events) == []

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    @settings(max_examples=10, deadline=None, phases=UNSHRUNK)
    @given(master_seed=st.integers(0, 2 ** 64 - 1))
    def test_last_gap_is_tdt_minus_trdd(self, kind, alpha, master_seed):
        # The gap between the last two deaths needs no column of its own: in every
        # uncensored replication's log, the last two in-slot failures are tdt - trdd apart.
        run = load_config(EXAMPLE)
        cfg = run.system._replace(shelf_aging_factor=alpha)
        policy = Policy(kind, rotation_period=run.policy.rotation_period)
        out = run_batch(cfg, policy, sample_lifetimes(cfg, master_seed, 200),
                        record_events=True)
        replication, time, kinds, _, slots, _ = event_fields(out.events)
        in_slot = np.array([k == "failure" and s != "shelf" for k, s in zip(kinds, slots)])
        replication = np.array(replication)
        uncensored = np.flatnonzero(~out.censored)
        assert uncensored.size
        for i in uncensored:
            before_last, last = time[in_slot & (replication == i)][-2:]
            assert last - before_last == out.tdt[i] - out.trdd[i]

    @pytest.mark.parametrize("lifetimes", [
        [[208.0, np.nan, 208.0]], [[208.0, -5.0, 208.0]], [[208.0, np.inf, 208.0]],
        [[208.0, 208.0]], [208.0, 208.0, 208.0], np.full((2, 3, 1), 208.0),
    ], ids=["nan", "negative", "inf", "two-columns", "one-row-flat", "three-axes"])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_lifetimes_outside_the_domain_are_rejected(self, lifetimes, kind):
        # a NaN lifetime is never due, so its row would never leave the loop; a
        # negative one would fail before t = 0
        policy = Policy(kind, rotation_period=50.0 if kind == "type2" else None)
        with pytest.raises(ValidationError, match="lifetimes") as error:
            run_batch(det_config(), policy, lifetimes)
        # a value outside the domain comes from the lifetime model; a shape does not
        assert error.value.fields == (() if "shape" in str(error.value)
                                      else ("lifetime.mean", "lifetime.sd"))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            run_batch(det_config(), Policy("type2", rotation_period=50.0), [[208.0] * 3],
                      horizon=horizon)

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_stalled_engine_raises_instead_of_hanging(self, kind, monkeypatch, tmp_path,
                                                      capsys):
        # A NaN due time matches no event, so no row advances: past the pass bound the
        # engine raises, and the CLI exits 2 naming it.
        monkeypatch.setattr(montecarlo, "_due",
                            lambda units, t, alpha: np.full(units.shape[1:], np.nan))
        run = load_config(EXAMPLE)
        policy = Policy(kind, rotation_period=run.policy.rotation_period)
        with pytest.raises(RedzoneError, match=r"run_batch: .* after \d+ passes"):
            run_batch(run.system, policy, sample_lifetimes(run.system, 42, 50))
        assert main(["simulate", "--config", str(EXAMPLE), "--out", str(tmp_path / "s.json"),
                     "--policy", kind, "--replications", "50"]) == 2
        assert "run_batch" in capsys.readouterr().err

    def test_a_period_too_small_to_finish_is_rejected(self, tmp_path, capsys):
        # a pass per rotation epoch: 6e11 of them at 1e-9 weeks, rejected before any
        doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
        doc["policy"]["rotation_period"] = 1e-9
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        begun = time.perf_counter()
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.json"),
                     "--policy", "type2", "--replications", "2"]) == 1
        assert time.perf_counter() - begun < 1.0
        assert "policy.rotation_period, sim.horizon" in capsys.readouterr().err

    def test_a_period_at_the_pass_bound_runs(self):
        # mains dead at 0 and a spare dead on arrival: the row dies in its first pass,
        # while its lifetime sum, 2 weeks, sets the pass bound at each period
        lifetimes, bound = [[0.0, 0.0, 2.0]], montecarlo._MAX_PASSES
        at, past = 2.0 / (bound - 4.5), 2.0 / (bound - 3.5)
        assert (5 + math.floor(2.0 / at), 5 + math.floor(2.0 / past)) == (bound, bound + 1)
        out = run_batch(det_config(lab=2.0), Policy("type2", rotation_period=at), lifetimes)
        assert out.tdt.tolist() == [0.0]
        with pytest.raises(ValidationError, match="rotation period") as error:
            run_batch(det_config(lab=2.0), Policy("type2", rotation_period=past), lifetimes)
        assert error.value.fields == ("policy.rotation_period", "sim.horizon")

    def test_an_infinite_period_bounds_no_rotation_epochs(self):
        # the lifetime sum overflows to inf, and so does the cap at an infinite horizon:
        # type1's infinite period counts no epoch of it, type2's a million too many, and
        # no numpy overflow warning reaches the caller
        lifetimes = [[1.5e308, 1.5e308, 1e-3]]
        out = run_batch(det_config(lab=2.0), TYPE1, lifetimes, horizon=math.inf,
                        record_events=True)
        assert out.trdd.tolist() == out.tdt.tolist() == [1.5e308]
        _, times, kinds, units, _, _ = event_fields(out.events)
        assert list(zip(times.tolist(), kinds, units)) == [
            (0.0, "failure", "controller_3"), (1.5e308, "failure", "controller_1"),
            (1.5e308, "failure", "controller_2"), (1.5e308, "system_death", None)]
        with pytest.raises(ValidationError, match="rotation period") as error:
            run_batch(det_config(lab=2.0), Policy("type2", rotation_period=34.67), lifetimes,
                      horizon=math.inf)
        assert error.value.fields == ("policy.rotation_period", "sim.horizon")

    def test_rotation_epochs_past_the_largest_float_are_too_many(self):
        # a lifetime sum of 3e300 weeks over a period of 1e-10 is past the largest float:
        # the epoch count reads inf, with no numpy overflow warning, and is rejected
        with pytest.raises(ValidationError, match="gives inf rotation epochs") as error:
            run_batch(det_config(lab=2.0), Policy("type2", rotation_period=1e-10),
                      [[1e300, 1e300, 1e300]], horizon=math.inf)
        assert error.value.fields == ("policy.rotation_period", "sim.horizon")

    @pytest.mark.parametrize("lifetimes", [[[1e303, 1e303, 1e303], [1e302, 1e302, 1e302]],
                                           [[1.7e308, 1.7e308, 0.0]] * 2],
                             ids=["square", "sum"])
    def test_statistics_past_the_largest_float_name_the_lifetime(self, lifetimes):
        # the sample variance's squares (or the mean's sum) overflow: a summary that is
        # not finite raises, with no numpy overflow warning, and names the lifetime fields
        out = run_batch(det_config(lab=0.0), TYPE1, lifetimes, horizon=math.inf)
        with pytest.raises(ValidationError, match="ensemble statistics overflow") as error:
            Metrics.from_batch(out)
        assert error.value.fields == ("lifetime.mean", "lifetime.sd")

    @pytest.mark.parametrize("policy", [TYPE1, Policy("type2", rotation_period=30.0)],
                             ids=["type1", "type2"])
    def test_subnormal_shelf_aging_factor(self, policy):
        # (lifetime - consumed) / 1e-310 overflows: the shelf unit's failure time is
        # inf in both engines, and no numpy overflow warning reaches the caller
        cfg = SystemConfig(hazard=make_flat_bathtub(),
                           unit_lifetime=LifetimeDistribution(208.0, 20.0),
                           lab_burnin=2.0, shelf_aging_factor=1e-310, software=None, operator=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_batch_matches_scalar(cfg, policy, 42, 50)


class TestEmpiricalHazard:
    def test_bins_beyond_all_deaths_omitted(self):
        traces = [run_replication(det_config(), TYPE1, seed=s, horizon=2000.0)
                  for s in range(3)]
        h = hazard_of(traces, bin_width=50.0)
        assert h.midpoints[-1] < 400.0 + 50.0
        assert np.all(h.exposure > 0.0)

    def test_requires_uncensored_trace(self):
        traces = [run_replication(det_config(), TYPE1, seed=s, horizon=100.0)
                  for s in range(3)]
        with pytest.raises(ValidationError):
            hazard_of(traces, bin_width=10.0)

    def test_end_of_life_peak_dwarfs_useful_phase_rates(self):
        cfg = make_redzone_system(delta=1.0)
        out = run_batch(cfg, TYPE1, sample_lifetimes(cfg, 23, 2_000))
        ends = end_times(out, 5.0 * cfg.unit_lifetime.mean)  # run_batch's default horizon
        h = empirical_hazard(ends, out.tdt[~np.isnan(out.tdt)], bin_width=5.0)
        useful = (h.midpoints > cfg.hazard.th1) & (h.midpoints < cfg.hazard.wearout_onset)
        peak = float(np.max(h.rates))
        assert peak >= 2.0 * float(np.max(h.rates[useful], initial=0.0))
